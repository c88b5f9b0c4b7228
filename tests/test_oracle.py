"""Oracle sanity: the reference computations must stand on their own."""

import itertools
import math
import random
from collections import Counter

import numpy as np
import pytest

import thresholdwalk.verify as verify_module
from conftest import connected_codes, connected_codes_upto
from thresholdwalk import (
    accessibility_oracle,
    build_graph,
    kemeny_eigen_oracle,
    mfpt_matrix,
    parse_code,
    resistance_oracle,
    spanning_tree_oracle,
    two_forest_enumeration,
    two_forest_matrix,
    two_forest_refinement,
    verify_code,
)
from thresholdwalk import oracle, spanning_tree_count
from thresholdwalk.errors import Disconnected, SameVertex, TooLarge
from thresholdwalk.oracle import (
    _crt_primes,
    _determinants_mod,
    _forest_bipartitions,
    _independent_set,
    _largest_primes,
    _modular_determinants,
    _padded_laplacians,
    _psd_determinants,
    _tree_counts,
    stationary_distribution,
    transition_matrix,
)

STAR = build_graph(parse_code("0001"))
PAW = build_graph(parse_code("0101"))
K2 = build_graph(parse_code("01"))
K4 = build_graph(parse_code("0111"))


class TestWalkBasics:
    def test_rows_stochastic(self):
        for code in connected_codes_upto(7):
            T = transition_matrix(build_graph(code))
            assert np.abs(T.sum(axis=1) - 1.0).max() < 1e-12

    def test_stationary_fixed_point(self):
        for code in connected_codes_upto(7):
            graph = build_graph(code)
            T = transition_matrix(graph)
            w = stationary_distribution(graph)
            assert np.abs(w @ T - w).max() < 1e-10

    def test_connectivity_detector(self):
        assert PAW.is_connected
        assert not build_graph(parse_code("0110")).is_connected


class TestEigenOracle:
    def test_edge(self):
        assert kemeny_eigen_oracle(K2) == pytest.approx(0.5)

    def test_star(self):
        # walk spectrum {1, -1, 0, 0}: the -1 stays, contributing 1/2
        assert kemeny_eigen_oracle(STAR) == pytest.approx(2.5)

    def test_paw(self):
        assert kemeny_eigen_oracle(PAW) == pytest.approx(61 / 24, abs=1e-10)

    def test_disconnected(self):
        with pytest.raises(Disconnected):
            kemeny_eigen_oracle(build_graph(parse_code("0110")))


class TestMfpt:
    def test_star_values(self):
        M = mfpt_matrix(STAR).mfpt
        assert M[0, 3] == pytest.approx(1.0)  # leaf to center
        assert M[3, 0] == pytest.approx(5.0)  # center to leaf
        assert M[0, 1] == pytest.approx(6.0)  # leaf to leaf
        assert np.diag(M).tolist() == [0.0] * 4

    def test_edge(self):
        M = mfpt_matrix(K2).mfpt
        assert M[0, 1] == pytest.approx(1.0)
        assert M[1, 0] == pytest.approx(1.0)

    def test_kemeny_row_constancy(self):
        for code in connected_codes_upto(8):
            stats = mfpt_matrix(build_graph(code))
            kappas = (stats.stationary * stats.mfpt).sum(axis=1)
            assert kappas.max() - kappas.min() < 1e-8

    def test_matches_eigen_route(self):
        for code in connected_codes_upto(8):
            graph = build_graph(code)
            assert mfpt_matrix(graph).kemeny == pytest.approx(
                kemeny_eigen_oracle(graph), abs=1e-8
            )


class TestAccessibilityOracle:
    def test_star(self):
        alpha = accessibility_oracle(STAR)
        assert alpha[3] == pytest.approx(0.5)
        assert alpha[0] == pytest.approx(4.5)

    def test_complete(self):
        assert accessibility_oracle(K4) == pytest.approx(np.full(4, 2.25))


class TestResistanceOracle:
    def test_paw(self):
        R = resistance_oracle(PAW)
        assert R[0, 2] == pytest.approx(5 / 3, abs=1e-10)
        assert R[2, 3] == pytest.approx(1.0, abs=1e-10)

    def test_complete_graphs(self):
        for n in range(2, 9):
            graph = build_graph(parse_code("0" + "1" * (n - 1)))
            R = resistance_oracle(graph)
            off = R[~np.eye(n, dtype=bool)]
            assert np.abs(off - 2.0 / n).max() < 1e-10

    def test_star_is_tree_distance(self):
        R = resistance_oracle(STAR)
        assert R[0, 3] == pytest.approx(1.0)
        assert R[0, 1] == pytest.approx(2.0)


class TestSpanningTreeOracle:
    @pytest.mark.parametrize("text,tau", [("0001", 1), ("0111", 16), ("0101", 3)])
    def test_known(self, text, tau):
        assert spanning_tree_oracle(build_graph(parse_code(text))) == tau

    def test_cayley(self):
        for n in range(2, 9):
            graph = build_graph(parse_code("0" + "1" * (n - 1)))
            assert spanning_tree_oracle(graph) == n ** (n - 2)


class TestForestEnumeration:
    def test_star_pairs(self):
        assert two_forest_enumeration(STAR, 1, 4) == 1
        assert two_forest_enumeration(STAR, 1, 2) == 2

    def test_paw(self):
        assert two_forest_enumeration(PAW, 3, 4) == 3

    def test_matrix_matches_pairs(self):
        for code in connected_codes_upto(5):
            graph = build_graph(code)
            counts = two_forest_matrix(graph)
            for i in range(1, graph.n + 1):
                for j in range(i + 1, graph.n + 1):
                    assert counts[i - 1][j - 1] == two_forest_enumeration(graph, i, j)

    def test_same_vertex(self):
        with pytest.raises(SameVertex):
            two_forest_enumeration(PAW, 2, 2)

    def test_too_large(self):
        big = build_graph(parse_code("0" + "1" * 9))
        with pytest.raises(TooLarge):
            two_forest_enumeration(big, 1, 2)

    def test_disjoint_union_identity_exhaustive(self):
        for code in connected_codes_upto(5):
            graph = build_graph(code)
            n = graph.n
            for x in range(1, n + 1):
                for y in range(1, n + 1):
                    if x == y:
                        continue
                    for z in range(1, n + 1):
                        if z in (x, y):
                            continue
                        whole = two_forest_enumeration(graph, x, y)
                        with_x = two_forest_refinement(graph, z, x, y)
                        with_y = two_forest_refinement(graph, z, y, x)
                        assert whole == with_x + with_y

    def test_disjoint_union_identity_sampled(self):
        for text in ["010101", "001011", "0110001", "0101011"]:
            graph = build_graph(parse_code(text))
            n = graph.n
            for x, y, z in [(1, n, 2), (2, 3, n), (1, 2, 3)]:
                whole = two_forest_enumeration(graph, x, y)
                assert whole == two_forest_refinement(graph, z, x, y) + two_forest_refinement(
                    graph, z, y, x
                )

    def test_neighbourhood_subset_monotonicity(self):
        # closed-neighbourhood containment forces more separating forests
        for code in connected_codes_upto(6):
            graph = build_graph(code)
            n = graph.n
            for v in range(1, n + 1):
                closed_v = set(graph.neighbors[v - 1]) | {v}
                for w in range(1, n + 1):
                    if w == v or not set(graph.neighbors[w - 1]) <= closed_v:
                        continue
                    for i in range(1, n + 1):
                        if i in (v, w):
                            continue
                        assert two_forest_enumeration(graph, i, v) <= two_forest_enumeration(
                            graph, i, w
                        )


def enumerated_bipartitions(text):
    """The combinatorial reference for _forest_bipartitions's tree-count products:
    every (n-2)-subset of the edges, kept when union-find meets no cycle, counted by
    vertex 1's component (each root holds its component's bitmask)."""
    graph = build_graph(parse_code(text))
    n = graph.n
    edges = [(a - 1, b - 1) for a, b in graph.edges]
    masks = Counter()
    for subset in itertools.combinations(edges, n - 2):
        parent = list(range(n))
        component = [1 << v for v in range(n)]
        for a, b in subset:
            while parent[a] != a:
                a = parent[a]
            while parent[b] != b:
                b = parent[b]
            if a == b:
                break
            parent[a] = b
            component[b] |= component[a]
        else:
            root = 0
            while parent[root] != root:
                root = parent[root]
            masks[component[root]] += 1
    return masks


def _bit(mask, v):
    return mask >> (v - 1) & 1


# every connected code of orders 3..8, and seeded order-9 codes with at most 10^5 subsets
_ORDER9 = [str(c) for c in connected_codes(9) if math.comb(build_graph(c).m, 7) <= 100_000]
REFERENCE_CODES = [str(c) for c in connected_codes_upto(8, n_min=3)] + random.Random(9).sample(_ORDER9, 4)


class TestForestSuiteTau:
    def test_batch_tau_is_the_tree_oracle_on_every_code(self, monkeypatch):
        # the forest suite reads tau from the enumeration's batch, which ends with V itself
        def unused(graph):
            raise AssertionError("the forest suite ran a second elimination")

        monkeypatch.setattr(verify_module, "spanning_tree_oracle", unused)
        for code in connected_codes_upto(9):
            graph = build_graph(code)
            assert _forest_bipartitions(graph)[2] == spanning_tree_oracle(graph), str(code)
            suite = verify_code(code, ("forest",))["forest"]
            assert suite["tau_equal"] and suite["enumeration_equal"], str(code)

    def test_past_the_cap_tau_is_the_tree_oracle(self, monkeypatch):
        calls = []
        monkeypatch.setattr(verify_module, "spanning_tree_oracle", lambda g: calls.append(g) or spanning_tree_oracle(g))
        suite = verify_code(parse_code("0" + "01" * 5), ("forest",))["forest"]
        assert suite["tau_equal"] and suite["enumeration_skipped"] and len(calls) == 1


class TestForestReference:
    @pytest.mark.parametrize("text", REFERENCE_CODES)
    def test_equals_subset_enumeration(self, text):
        graph = build_graph(parse_code(text))
        n = graph.n
        reference = enumerated_bipartitions(text)
        masks, weights, tau = _forest_bipartitions(graph)
        assert dict(zip(masks.tolist(), weights.tolist())) == reference
        assert tau == spanning_tree_oracle(graph)
        counts = two_forest_matrix(graph)
        for i, j in itertools.combinations(range(1, n + 1), 2):
            expected = sum(c for mask, c in reference.items() if _bit(mask, i) != _bit(mask, j))
            assert counts[i - 1][j - 1] == counts[j - 1][i - 1] == expected
            assert two_forest_enumeration(graph, i, j) == expected
        for z, x, y in itertools.permutations(range(1, n + 1), 3):
            expected = sum(
                c for mask, c in reference.items() if _bit(mask, z) == _bit(mask, x) != _bit(mask, y)
            )
            assert two_forest_refinement(graph, z, x, y) == expected

    def test_complete_graph_order_nine(self):
        # F = tau R on K_n: tau = n^(n-2) and r = 2/n, so every entry is 2 n^(n-3)
        counts = two_forest_matrix(build_graph(parse_code("0" + "1" * 8)))
        assert all(counts[i][j] == 2 * 9**6 for i in range(9) for j in range(9) if i != j)


def reference_tree_count(graph, vertices):
    """The per-subset reference for _tree_counts: the reduced Laplacian of the subgraph
    induced on ``vertices`` (1-based, ascending) from the neighbour lists, its last vertex
    deleted, and its determinant by Bareiss elimination with row swaps over Python ints."""
    inside = set(vertices)
    row_of = {v: k for k, v in enumerate(vertices[:-1])}
    m = [[0] * len(row_of) for _ in row_of]
    for v, k in row_of.items():
        for u in graph.neighbors[v - 1]:
            if u in inside:
                m[k][k] += 1
                if u in row_of:
                    m[k][row_of[u]] -= 1
    size = len(m)
    if size == 0:
        return 1
    sign, prev = 1, 1
    for k in range(size - 1):
        if m[k][k] == 0:
            pivot = next((r for r in range(k + 1, size) if m[r][k] != 0), None)
            if pivot is None:
                return 0
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[-1][-1]


def every_subset(n):
    """Every nonempty vertex subset of an order-n graph and its (n, B) membership matrix."""
    subsets = [s for r in range(1, n + 1) for s in itertools.combinations(range(1, n + 1), r)]
    member = np.zeros((n, len(subsets)), dtype=bool)
    for b, subset in enumerate(subsets):
        member[np.array(subset) - 1, b] = True
    return subsets, member


def hadamard(graph):
    """The bound prod(d_v + 1) on every tree count of the graph's subgraphs."""
    return math.prod(len(nb) + 1 for nb in graph.neighbors)


def is_prime(m):
    """Miller-Rabin to the bases 2, 3, 5 and 7, which is exact below 3,215,031,751."""
    if m < 2 or any(m % p == 0 for p in (2, 3, 5, 7)):
        return m in (2, 3, 5, 7)
    odd, twos = m - 1, 0
    while odd % 2 == 0:
        odd, twos = odd // 2, twos + 1
    for base in (2, 3, 5, 7):
        x = pow(base, odd, m)
        if x in (1, m - 1):
            continue
        for _ in range(twos - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


def block_diagonal(*blocks):
    size = sum(len(b) for b in blocks)
    out = np.zeros((size, size), dtype=np.int64)
    at = 0
    for b in blocks:
        out[at : at + len(b), at : at + len(b)] = b
        at += len(b)
    return out


class TestTreeCounts:
    @pytest.mark.parametrize("text", REFERENCE_CODES)
    def test_every_subset_equals_reference(self, text):
        graph = build_graph(parse_code(text))
        subsets, member = every_subset(graph.n)
        assert _tree_counts(graph, member) == [reference_tree_count(graph, s) for s in subsets]

    @pytest.mark.parametrize("text", REFERENCE_CODES)
    def test_modular_route_every_subset_equals_reference(self, text):
        # with the Hadamard bound itself (one prime up to order 9) and with a
        # bound that takes three primes, so the Chinese remaindering is exercised
        graph = build_graph(parse_code(text))
        subsets, member = every_subset(graph.n)
        A = graph.adjacency_matrix()
        reference = [reference_tree_count(graph, s) for s in subsets]
        for bound in (hadamard(graph), hadamard(graph) << 62):
            stack = _padded_laplacians(A, member)
            assert _modular_determinants(stack, _independent_set(A), bound) == reference

    def test_routing(self, monkeypatch):
        # int64 Bareiss exactly when 2 H^2 < 2^63 with H = prod(d_v + 1): 9^9 on K9,
        # 24^24 on K24; a seeded order-40 code is far past it
        routes = []

        def recording(name, route):
            def call(*args):
                routes.append(name)
                return route(*args)

            monkeypatch.setattr(oracle, name, call)

        recording("_psd_determinants", _psd_determinants)
        recording("_modular_determinants", _modular_determinants)
        _forest_bipartitions.cache_clear()
        k9 = build_graph(parse_code("0" + "1" * 8))
        assert two_forest_matrix(k9)[0][1] == 2 * 9**6
        assert spanning_tree_oracle(k9) == 9**7
        assert spanning_tree_oracle(build_graph(parse_code("0" + "1" * 23))) == 24**22
        rng = random.Random(40)
        code = parse_code("0" + "".join(rng.choice("01") for _ in range(38)) + "1")
        assert spanning_tree_oracle(build_graph(code)) == spanning_tree_count(code)
        assert routes == ["_psd_determinants"] * 2 + ["_modular_determinants"] * 2

    def test_small_primes_need_row_swaps(self):
        # each matrix under 5 and under 7: zero pivots mod p that a row swap
        # passes, a determinant divisible by 5, and matrices singular over the integers
        triangle = [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]]
        batch = [
            ([[5, 1, 0], [1, 1, 0], [0, 0, 1]], 4),  # pivot 0 mod 5 at step 1
            ([[1, 1, 0], [1, 1, 1], [0, 1, 1]], -1),  # pivot 0 at step 2 over the integers
            ([[0, 1, 0], [1, 0, 0], [0, 0, 3]], -3),  # swap at step 1 under both primes
            ([[7, 2, 0], [1, 3, 1], [0, 1, 2]], 31),  # pivot 0 mod 7 at step 1
            ([[1, 2, 0], [2, 4, 0], [0, 0, 1]], 0),  # singular: rank 2
            (triangle, 0),  # a Laplacian: singular
            ([[5, 0, 0], [0, 2, 1], [0, 1, 1]], 5),  # divisible by 5, no row to swap in
            ([[6, -1, -1], [-1, 6, -1], [-1, -1, 6]], 196),  # 196 = 2^2 7^2
        ]
        primes = [5, 7]
        stack = np.stack([np.array(m) % p for p in primes for m, _ in batch])
        moduli = np.repeat(primes, len(batch))
        expected = [det % p for p in primes for _, det in batch]
        assert _determinants_mod(stack, moduli).tolist() == expected

    def test_crt_primes(self):
        # the bounds of K24 and K200 and either side of one prime
        complete = [hadamard(build_graph(parse_code("0" + "1" * (n - 1)))) for n in (24, 200)]
        for bound in (1, (1 << 31) - 1, 1 << 31, *complete, 10**1000):
            primes = _crt_primes(bound)
            assert len(set(primes)) == len(primes)
            assert all(p < 1 << 31 for p in primes)
            assert math.prod(primes) > bound >= math.prod(primes[:-1])
        divisors = np.arange(2, math.isqrt(1 << 31) + 1)
        assert all((p % divisors).all() for p in _crt_primes(10**1000))

    def test_largest_primes_walk_down_from_two_to_the_31(self):
        counts = sorted({1 << k for k in range(12)} | {3, 100, 1000})
        reference = list(itertools.islice(filter(is_prime, range((1 << 31) - 1, 1, -1)), counts[-1]))
        found = {}
        for count in counts:
            _largest_primes.cache_clear()
            found[count] = _largest_primes(count)
            assert found[count] == tuple(reference[:count]), count
        for shorter, longer in itertools.combinations(counts, 2):
            assert found[longer][:shorter] == found[shorter]

    def test_independent_set(self):
        rng = random.Random(19)
        seeded = ["0" + "".join(rng.choice("01") for _ in range(n - 2)) + "1" for n in (24, 40, 64, 200)]
        for text in [*REFERENCE_CODES, *seeded, "0" + "1" * 199]:
            A = build_graph(parse_code(text)).adjacency_matrix()
            chosen = _independent_set(A)
            assert not A[np.ix_(chosen, chosen)].any(), text  # independent
            assert A[np.ix_(~chosen, chosen)].any(axis=1).all(), text  # maximal
        assert _independent_set(A).sum() == 1  # the complete graph of order 200

    @pytest.mark.parametrize("dtype", [np.int64, object])
    def test_zero_pivot_beside_nonsingular(self, dtype):
        edge = [[1, -1], [-1, 1]]
        path = [[2, -1], [-1, 2]]
        triangle = [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]]
        k6 = 6 * np.eye(5, dtype=np.int64) - 1
        tridiagonal = 2 * np.eye(5, dtype=np.int64) - np.eye(5, k=1, dtype=np.int64) - np.eye(5, k=-1, dtype=np.int64)
        batch = [
            k6,
            block_diagonal(edge, path, [[1]]),  # zero pivot at step 1
            tridiagonal,
            block_diagonal([[3]], edge, path),  # zero pivot at step 2
            np.eye(5, dtype=np.int64),
            block_diagonal(path, triangle),  # zero at the last diagonal
        ]
        stack = np.stack(batch, axis=-1).astype(dtype)
        assert _psd_determinants(stack).tolist() == [6**4, 0, 6, 0, 1, 0]
