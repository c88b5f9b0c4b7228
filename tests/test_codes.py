"""Construction-code parsing, enumeration and derived structure."""

import cProfile
import pstats
import random
from collections import deque

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import connected_codes, connected_codes_upto, seeded_codes
from thresholdwalk import (
    ConstructionCode,
    blocks,
    build_graph,
    code_count,
    code_from_index,
    degree_profile,
    enumerate_codes,
    parse_code,
    pineapple_code,
    pineapple_r,
    render,
    render_blocks,
)
from thresholdwalk.codes import MAX_CODE_LENGTH, AdjacencyStructure
from thresholdwalk.errors import (
    EmptyInput,
    IllegalCharacter,
    IndexOutOfRange,
    LeadingOne,
    OrderOutOfRange,
    OrderTooSmall,
    ParameterOutOfRange,
)
from thresholdwalk.verify import verify_code

random_bits = st.builds(
    lambda tail: (0, *tail),
    st.lists(st.integers(min_value=0, max_value=1), min_size=0, max_size=12).map(tuple),
)


class TestParse:
    def test_plain_string(self):
        code = parse_code("01100011")
        assert code.bits == (0, 1, 1, 0, 0, 0, 1, 1)
        assert code.n == 8

    def test_single_vertex(self):
        assert parse_code("0").bits == (0,)

    def test_block_notation(self):
        assert parse_code("0 1^2 0^3 1^2").bits == (0, 1, 1, 0, 0, 0, 1, 1)

    def test_block_notation_bare_runs(self):
        assert parse_code("0 1 0 1").bits == (0, 1, 0, 1)

    @pytest.mark.parametrize("text", ["", "   "])
    def test_empty(self, text):
        with pytest.raises(EmptyInput):
            parse_code(text)

    # exponents, like plain codes, take ASCII 0-9 only: no fullwidth or Arabic-Indic digits
    @pytest.mark.parametrize(
        "text", ["012", "0 2^3", "0^x", "0^0", "0b1", "0 1^\uff12", "0 1^\u0661", "0 1^1\u0660", "0\u06611"]
    )
    def test_illegal(self, text):
        with pytest.raises(IllegalCharacter):
            parse_code(text)

    @pytest.mark.parametrize("text,bad", [("0102", "2"), ("0a1b", "a"), ("01\u0661", "\u0661"), ("1x", "x")])
    def test_plain_names_first_offending_character(self, text, bad):
        with pytest.raises(IllegalCharacter, match=f"^unexpected character {bad!r} in code string$"):
            parse_code(text)

    @pytest.mark.parametrize("bits", [(0, 1, -1), (0, "1"), (0, None)])
    def test_code_symbols_checked(self, bits):
        with pytest.raises(IllegalCharacter):
            ConstructionCode(bits)

    @pytest.mark.parametrize(
        "text",
        ["0^99999999999999999999 1", "0^1000000 1", "0^999999 1 1", "0" * MAX_CODE_LENGTH + "1", "0 1^" + "9" * 5000],
        ids=["20-digit-exponent", "block-limit-plus-1", "blocks-sum-past-limit", "plain-limit-plus-1", "5000-digits"],
    )
    def test_longer_than_limit_refused(self, text):
        # refused before any list is built; the 5000-digit exponent is never read by int()
        with pytest.raises(OrderOutOfRange):
            parse_code(text)

    @pytest.mark.parametrize("text", ["0^999999 1", "0^000999999 1", "0" * (MAX_CODE_LENGTH - 1) + "1"])
    def test_limit_length_parses(self, text):
        code = parse_code(text)
        assert code.n == MAX_CODE_LENGTH and code.bits[-2:] == (0, 1)

    def test_plain_equals_the_digit_map(self):
        rng = random.Random(23)
        for n in [*range(1, 40), *(rng.randint(40, 5000) for _ in range(40))]:
            text = "0" + "".join(rng.choice("01") for _ in range(n - 1))
            bits = parse_code(text).bits
            assert bits == tuple(map(int, text)) and all(type(b) is int for b in bits), text

    def test_zero_padded_exponent(self):
        assert parse_code("0^00000000002 1").bits == (0, 0, 1)

    @pytest.mark.parametrize("text", ["10", "1", "1^3 0"])
    def test_leading_one_rejected(self, text):
        with pytest.raises(LeadingOne):
            parse_code(text)

    def test_connectivity_flag(self):
        assert parse_code("0101").is_connected
        assert not parse_code("0110").is_connected
        assert parse_code("0").is_connected

    @given(random_bits)
    def test_round_trip_plain(self, bits):
        code = ConstructionCode(bits)
        assert render(code) == str(code) == "".join(map(str, bits))
        assert parse_code(render(code)) == code

    @given(random_bits)
    def test_round_trip_blocks(self, bits):
        code = ConstructionCode(bits)
        assert parse_code(render_blocks(code)) == code
        assert blocks(code).to_code() == code

    def test_round_trip_exhaustive(self):
        for code in connected_codes_upto(10):
            assert parse_code(render(code)) == code
            assert parse_code(render_blocks(code)) == code


class TestBlocks:
    def test_eight_vertex_code(self):
        form = blocks(parse_code("01100011"))
        assert form.zero_runs == (1, 3)
        assert form.one_runs == (2, 2)
        assert form.pairs == ((1, 2), (3, 2))

    def test_edge(self):
        assert blocks(parse_code("01")).pairs == ((1, 1),)

    def test_star(self):
        form = blocks(parse_code("0001"))
        assert form.zero_runs == (3,) and form.one_runs == (1,)

    def test_trailing_zero_run(self):
        form = blocks(parse_code("010"))
        assert form.zero_runs == (1, 1) and form.one_runs == (1,)
        assert form.to_code() == parse_code("010")

    def test_render_exponent_rule(self):
        assert render_blocks(parse_code("01100011")) == "0 1^2 0^3 1^2"
        assert render_blocks(parse_code("0101")) == "0 1 0 1"


class TestDegreeProfile:
    def test_eight_vertex(self):
        prof = degree_profile(parse_code("01100011"))
        assert prof.degrees == (4, 4, 4, 2, 2, 2, 7, 7)
        assert prof.m == 16

    def test_star(self):
        prof = degree_profile(parse_code("0001"))
        assert prof.degrees == (1, 1, 1, 3)
        assert prof.m == 3

    def test_triangle(self):
        prof = degree_profile(parse_code("011"))
        assert prof.degrees == (2, 2, 2)
        assert prof.m == 3

    def test_defining_identity(self):
        for code in connected_codes_upto(8):
            prof = degree_profile(code)
            for i in range(1, code.n + 1):
                theta = prof.theta[i - 1]
                assert prof.degrees[i - 1] == (i - 1) * code.bit(i) + theta
            assert sum(prof.degrees) == 2 * prof.m

    def test_equals_running_sum_loop(self):
        # theta_i counts the ones after position i, as the per-position loop summed them
        rng = random.Random(2500)
        seeded = ("0" + "".join(rng.choice("01") for _ in range(n - 1)) for n in (3, 50, 2500))
        texts = ["0", "01", "0 1^2000 0^7998 1", *seeded]
        for code in map(parse_code, texts):
            theta = [0] * code.n
            for i in range(code.n - 2, -1, -1):
                theta[i] = theta[i + 1] + code.bits[i + 1]
            prof = degree_profile(code)
            assert prof.theta == tuple(theta)
            assert prof.degrees == tuple(i * code.bits[i] + theta[i] for i in range(code.n))

    def test_connected_theta_positive(self):
        for code in connected_codes(7):
            prof = degree_profile(code)
            assert all(t >= 1 for t in prof.theta[:-1])


class TestBuildGraph:
    def test_paw(self):
        graph = build_graph(parse_code("0101"))
        assert set(graph.edges) == {(1, 2), (1, 4), (2, 4), (3, 4)}

    def test_complete(self):
        graph = build_graph(parse_code("0111"))
        assert len(graph.edges) == 6

    def test_single_edge(self):
        assert build_graph(parse_code("01")).edges == ((1, 2),)

    def test_degrees_match_profile(self):
        for code in connected_codes_upto(8):
            graph = build_graph(code)
            assert graph.degree_sequence() == degree_profile(code).degrees
            assert graph.m == degree_profile(code).m

    def test_dominating_vertex_and_diameter(self):
        for code in connected_codes_upto(8):
            graph = build_graph(code)
            n = graph.n
            if n >= 2:
                assert len(graph.neighbors[n - 1]) == n - 1
            # BFS eccentricity from every vertex
            for start in range(1, n + 1):
                dist = {start: 0}
                queue = deque([start])
                while queue:
                    v = queue.popleft()
                    for u in graph.neighbors[v - 1]:
                        if u not in dist:
                            dist[u] = dist[v] + 1
                            queue.append(u)
                assert len(dist) == n
                assert max(dist.values()) <= 2

    def test_adjacency_matrix_equals_edge_loop(self):
        for code in [parse_code("0"), parse_code("000"), *connected_codes_upto(9), *seeded_codes(36, 10, 24, 64)]:
            graph = build_graph(code)
            expected = np.zeros((graph.n, graph.n), dtype=np.int64)
            for i, j in graph.edges:
                expected[i - 1, j - 1] = expected[j - 1, i - 1] = 1
            A = graph.adjacency_matrix()
            assert A.dtype == np.int64 and np.array_equal(A, expected), str(code)

    def test_graph_arrays_built_once_per_request(self):
        # every oracle of one verify --suite all request reads the same matrix and BFS
        cached = [vars(AdjacencyStructure)[name].func.__code__ for name in ("_adjacency", "is_connected")]
        keys = {(c.co_filename, c.co_firstlineno, c.co_name) for c in cached}
        rng = random.Random(42)
        for text in ["011010111", "0" + "".join(rng.choice("01") for _ in range(40)) + "1"]:
            profile = cProfile.Profile()
            profile.runcall(verify_code, parse_code(text))
            calls = {key[2]: stat[1] for key, stat in pstats.Stats(profile).stats.items() if key in keys}
            assert calls == {"_adjacency": 1, "is_connected": 1}, text
        A = build_graph(parse_code("0101")).adjacency_matrix()
        with pytest.raises(ValueError, match="read-only"):
            A[0, 1] = 0


class TestEnumeration:
    def test_small_orders(self):
        assert [str(c) for c in enumerate_codes(4)] == ["0001", "0011", "0101", "0111"]
        assert [str(c) for c in enumerate_codes(2)] == ["01"]

    def test_count_and_shape(self):
        for n in range(2, 13):
            seen = set()
            for code in enumerate_codes(n):
                seen.add(code.bits)
                assert code.bits[0] == 0 and code.bits[-1] == 1
            assert len(seen) == code_count(n) == 2 ** (n - 2)

    def test_count_n16(self):
        seen = set()
        for code in enumerate_codes(16):
            seen.add(code.bits)
            assert code.bits[0] == 0 and code.bits[-1] == 1
        assert len(seen) == 2**14

    def test_equals_code_from_index(self):
        for n in range(2, 13):
            count = code_count(n)
            assert list(enumerate_codes(n)) == [code_from_index(n, i) for i in range(count)]
            lo, hi = count // 4, count // 2 + 1
            assert list(enumerate_codes(n, lo, hi)) == [code_from_index(n, i) for i in range(lo, hi)]

    def test_every_window_equals_code_from_index(self):
        for n in range(2, 9):
            count = code_count(n)
            for lo in range(count + 1):
                for hi in range(lo, count + 1):
                    assert list(enumerate_codes(n, lo, hi)) == [code_from_index(n, i) for i in range(lo, hi)]

    def test_window_cost_does_not_grow_with_its_start(self):
        # a window at the end of order 60 is 2^58 codes in; skipping them would not finish
        count = code_count(60)
        for lo, hi in ((count - 3, count), (2**37 - 2, 2**37 + 2), (count // 2, count // 2 + 1)):
            assert list(enumerate_codes(60, lo, hi)) == [code_from_index(60, i) for i in range(lo, hi)]

    def test_lexicographic_order(self):
        interiors = [c.bits[1:-1] for c in enumerate_codes(6)]
        assert interiors == sorted(interiors)

    def test_window_split(self):
        whole = [str(c) for c in enumerate_codes(6)]
        parts = []
        for lo in range(0, 16, 4):
            parts.extend(str(c) for c in enumerate_codes(6, lo, lo + 4))
        assert parts == whole

    def test_order_too_small(self):
        with pytest.raises(OrderTooSmall):
            list(enumerate_codes(1))

    def test_index_bounds(self):
        with pytest.raises(IndexOutOfRange):
            code_from_index(4, 4)


class TestPineapple:
    @pytest.mark.parametrize(
        "n,r,expected",
        [(4, 1, "0101"), (4, 0, "0001"), (8, 3, "01110001"), (4, 2, "0111")],
    )
    def test_shapes(self, n, r, expected):
        assert str(pineapple_code(n, r)) == expected

    @pytest.mark.parametrize("n,r", [(2, 0), (4, -1), (4, 3), (3, 2)])
    def test_out_of_range(self, n, r):
        with pytest.raises(ParameterOutOfRange):
            pineapple_code(n, r)

    def test_recognizer_round_trip(self):
        for n in range(3, 12):
            for r in range(n - 1):
                assert pineapple_r(pineapple_code(n, r)) == r

    def test_recognizer_rejects(self):
        assert pineapple_r(parse_code("0011")) is None
        assert pineapple_r(parse_code("010101")) is None
        assert pineapple_r(parse_code("0110")) is None
