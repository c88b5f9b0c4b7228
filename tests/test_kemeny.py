"""The three Kemeny routes, their bounds, and the pineapple family."""

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import connected_codes_upto
from thresholdwalk import (
    ConstructionCode,
    code_vectors,
    degree_profile,
    hessenberg_basis,
    kemeny,
    kemeny_degree_form,
    kemeny_from_code,
    kemeny_spectral_form,
    laplacian_spectrum,
    parse_code,
    pineapple_argmax,
    pineapple_code,
    pineapple_kemeny,
    upper_bounds,
    verify_code,
)
from thresholdwalk.codes import MAX_CODE_LENGTH
from thresholdwalk.errors import Disconnected, OrderOutOfRange, OrderTooSmall, ParameterOutOfRange
from thresholdwalk.kemeny import CODE_VECTOR, KemenyResult, _bounds_for

connected_code_strategy = st.integers(min_value=2, max_value=11).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(st.integers(0, 1), min_size=n - 2, max_size=n - 2),
    )
).map(lambda pair: ConstructionCode((0, *pair[1], 1)))


def naive_kemeny(code):
    """O(n^2) evaluation through the explicit integer vectors; the reference fallback."""
    n = code.n
    c = code.bits
    m = sum(j for j in range(n) if c[j])
    two_m = 2 * m
    total = Fraction(n - 1)
    for i in range(1, n):
        vecs = code_vectors(n, i)
        z_dot = sum(z * b for z, b in zip(vecs.z, c))
        w_dot = sum(w * b for w, b in zip(vecs.w, c))
        total -= Fraction(c[i], z_dot)
        total += Fraction(w_dot * (two_m - w_dot), two_m * i * (i + 1) * z_dot)
    return total


def running_sum_kemeny(code):
    """The code-vector recurrence over one running num/den, normalized once at the end."""
    bits, n = code.bits, code.n
    two_m = 2 * sum(j for j in range(n) if bits[j])
    theta = [0] * n
    for i in range(n - 2, -1, -1):
        theta[i] = theta[i + 1] + bits[i + 1]
    num, den = 0, 1
    s = 0
    for i in range(1, n):
        c_next = bits[i]
        lam = theta[i - 1] + i * c_next
        s += i * (i - 1) * (bits[i - 1] - c_next)
        if c_next:
            num, den = num * lam - den, den * lam
        if s:
            d = two_m * i * (i + 1) * lam
            num, den = num * d + den * s * (two_m - s), den * d
    return Fraction(num, den) + (n - 1)


def pairwise_spectral_kemeny(code):
    """The spectral route summed over all vertex pairs, one n x n outer product per column."""
    n = code.n
    prof = degree_profile(code)
    d = np.array(prof.degrees, dtype=float)
    lam = laplacian_spectrum(code).eigenvalues
    U = hessenberg_basis(n).to_array()
    acc = 0.0
    for i in range(n - 1):
        col = U[:, i]
        diff = col[:, None] - col[None, :]
        acc += float((d[:, None] * d[None, :] * diff * diff).sum()) / 2.0 / lam[i]
    return acc / (2.0 * prof.m)


def seeded_codes(orders, seed):
    rng = random.Random(seed)
    return [ConstructionCode((0, *(rng.randint(0, 1) for _ in range(n - 2)), 1)) for n in orders]


class TestKnownValues:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("01", Fraction(1, 2)),
            ("011", Fraction(4, 3)),
            ("0101", Fraction(61, 24)),
            ("0001", Fraction(5, 2)),
            ("0111", Fraction(9, 4)),
        ],
    )
    def test_code_vector_route(self, text, expected):
        assert kemeny_from_code(parse_code(text)).exact == expected

    @pytest.mark.parametrize("text", ["01", "0101", "0001", "0111", "01100011"])
    def test_degree_route_matches(self, text):
        code = parse_code(text)
        assert kemeny_degree_form(code).exact == kemeny_from_code(code).exact

    @pytest.mark.parametrize("text", ["01", "0101", "01100011"])
    def test_spectral_route_close(self, text):
        code = parse_code(text)
        exact = kemeny_from_code(code)
        assert kemeny_spectral_form(code).value == pytest.approx(exact.value, abs=1e-9)

    def test_complete_graphs(self):
        for n in range(2, 51):
            code = ConstructionCode((0,) + (1,) * (n - 1))
            assert kemeny_from_code(code).exact == Fraction((n - 1) ** 2, n)

    def test_stars(self):
        for n in range(3, 51):
            code = ConstructionCode((0,) * (n - 1) + (1,))
            assert kemeny_from_code(code).exact == Fraction(2 * n - 3, 2)

    def test_method_tags(self):
        code = parse_code("0101")
        assert kemeny_from_code(code).method == "code-vector"
        assert kemeny_degree_form(code).method == "degree-form"
        assert kemeny_spectral_form(code).method == "spectral-form"
        assert kemeny_spectral_form(code).exact is None

    def test_dense_order_cap(self, monkeypatch):
        monkeypatch.setattr(kemeny, "_DENSE_ORDER_CAP", 6)
        at_cap, past_cap = parse_code("010011"), parse_code("0100111")
        assert kemeny_spectral_form(at_cap).value == pytest.approx(kemeny_from_code(at_cap).value, abs=1e-12)
        assert verify_code(at_cap)["kemeny"]["pass"]
        for route in (kemeny_spectral_form, verify_code):
            with pytest.raises(OrderOutOfRange):
                route(past_cap)

    def test_errors(self):
        with pytest.raises(Disconnected):
            kemeny_from_code(parse_code("0110"))
        with pytest.raises(OrderTooSmall):
            kemeny_from_code(parse_code("0"))
        with pytest.raises(Disconnected):
            kemeny_degree_form(parse_code("0110"))
        with pytest.raises(Disconnected):
            kemeny_spectral_form(parse_code("0110"))


class TestRouteAgreement:
    def test_exhaustive_small(self):
        for code in connected_codes_upto(9):
            exact = kemeny_from_code(code).exact
            assert kemeny_degree_form(code).exact == exact
            assert abs(kemeny_spectral_form(code).value - float(exact)) < 1e-9

    @given(connected_code_strategy)
    @settings(max_examples=150, deadline=None)
    def test_naive_fallback_identical(self, code):
        assert naive_kemeny(code) == kemeny_from_code(code).exact

    def test_positive(self):
        for code in connected_codes_upto(8):
            assert kemeny_from_code(code).exact > 0


class TestAgainstReferenceLoops:
    """The tree-summed exact routes and the O(n^2) spectral route against the loops they replaced."""

    def test_exact_routes_small(self):
        for code in connected_codes_upto(12):
            exact = kemeny_from_code(code).exact
            assert exact == running_sum_kemeny(code) == kemeny_degree_form(code).exact, str(code)

    def test_exact_routes_large(self):
        for code in seeded_codes((1000, 2500, 4000), seed=4):
            exact = kemeny_from_code(code).exact
            assert exact == running_sum_kemeny(code) == kemeny_degree_form(code).exact, code.n

    def test_spectral_small(self):
        for code in connected_codes_upto(10):
            k = kemeny_from_code(code).value
            assert abs(kemeny_spectral_form(code).value - pairwise_spectral_kemeny(code)) <= 1e-12 * max(1.0, k)

    def test_spectral_large(self):
        for code in seeded_codes((100, 300, 500), seed=5):
            k = kemeny_from_code(code).value
            assert abs(kemeny_spectral_form(code).value - pairwise_spectral_kemeny(code)) <= 1e-12 * max(1.0, k)


class TestCodeVectors:
    @given(connected_code_strategy)
    @settings(max_examples=100, deadline=None)
    def test_z_dot_is_eigenvalue(self, code):
        lam = laplacian_spectrum(code).eigenvalues
        for i in range(1, code.n):
            vecs = code_vectors(code.n, i)
            assert sum(z * b for z, b in zip(vecs.z, code.bits)) == lam[i - 1]

    def test_w_decomposition(self):
        for n in range(2, 10):
            for k in range(1, n):
                vecs = code_vectors(n, k)
                rebuilt = list(vecs.w_hat)
                rebuilt[k] -= k * (k + 1)
                assert tuple(rebuilt) == vecs.w

    def test_shapes(self):
        vecs = code_vectors(6, 3)
        assert vecs.w == (0, 2, 4, -6, 0, 0)
        assert vecs.w_hat == (0, 2, 4, 6, 0, 0)
        assert vecs.z == (0, 0, 0, 4, 1, 1)

    def test_bad_index(self):
        with pytest.raises(ParameterOutOfRange):
            code_vectors(5, 5)


class TestUpperBounds:
    def test_paw(self):
        result = upper_bounds(parse_code("0101"))
        assert result.linear_bound == 5
        assert result.sparse_bound == pytest.approx(6.0)
        assert result.both_hold

    def test_complete_four(self):
        assert upper_bounds(parse_code("0111")).both_hold

    def test_exhaustive(self):
        for code in connected_codes_upto(10, n_min=3):
            assert upper_bounds(code).both_hold

    def test_order_too_small(self):
        with pytest.raises(OrderTooSmall):
            upper_bounds(parse_code("01"))

    def test_sparse_bound_decided_exactly_near_the_bound(self):
        # n = 10, m = 16: the sparse bound 9 + 1.5 * sqrt(16) is 15.0 exactly
        def holds(k):
            return _bounds_for(10, KemenyResult(10, 16, CODE_VECTOR, k, float(k))).both_hold

        below = 15 - Fraction(1, 10**20)
        assert float(below) == 15.0
        assert holds(below)
        assert not holds(Fraction(15))
        assert not holds(15 + Fraction(1, 10**20))


class TestPineappleFamily:
    @pytest.mark.parametrize(
        "n,r,expected",
        [
            (4, 1, Fraction(61, 24)),
            (4, 0, Fraction(5, 2)),
            (21, 4, Fraction(21)),
            (21, 5, Fraction(21)),
        ],
    )
    def test_closed_form_values(self, n, r, expected):
        assert pineapple_kemeny(n, r) == expected

    def test_matches_code_route(self):
        for n in range(3, 21):
            for r in range(n - 1):
                assert pineapple_kemeny(n, r) == kemeny_from_code(pineapple_code(n, r)).exact

    def test_endpoints(self):
        for n in range(3, 41):
            assert pineapple_kemeny(n, 0) == Fraction(2 * n - 3, 2)
            assert pineapple_kemeny(n, n - 2) == Fraction((n - 1) ** 2, n)

    @pytest.mark.parametrize("n,r", [(2, 0), (5, -1), (5, 4)])
    def test_out_of_range(self, n, r):
        with pytest.raises(ParameterOutOfRange):
            pineapple_kemeny(n, r)


class TestPineappleArgmax:
    def test_n10(self):
        result = pineapple_argmax(10)
        assert result.r_star == 2
        assert result.k_star == Fraction(73, 8)
        assert result.tied_rs == (2,)
        assert result.predicted_set == (3, 4)

    def test_n21_tie(self):
        result = pineapple_argmax(21)
        assert result.tied_rs == (4, 5)
        assert result.r_star == 4
        assert result.k_star == Fraction(21)
        assert result.predicted_set == (6, 7)

    def test_n4(self):
        result = pineapple_argmax(4)
        assert result.r_star == 1
        assert result.k_star == Fraction(61, 24)

    def test_argmax_is_maximum(self):
        for n in range(3, 30):
            result = pineapple_argmax(n)
            values = [pineapple_kemeny(n, r) for r in range(n - 1)]
            assert result.k_star == max(values)
            assert [r for r, v in enumerate(values) if v == result.k_star] == list(result.tied_rs)

    def test_order_too_small(self):
        with pytest.raises(OrderTooSmall):
            pineapple_argmax(2)

    def test_order_longer_than_a_code(self):
        with pytest.raises(OrderOutOfRange):
            pineapple_argmax(MAX_CODE_LENGTH + 1)
