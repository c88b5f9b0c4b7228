"""The int64 passes of the code recurrences against per-position loops.

``kemeny_from_code`` takes an int64 array path above ``kemeny.ARRAY_ORDER`` and a per-position loop
at and below it, and is checked against itself forced onto the loop.  ``kemeny_degree_form``,
``laplacian_spectrum`` and ``degree_profile`` take one int64 pass of ``codes._code_columns`` at
every order.  The degree route is checked against its docstring formula summed position by
position here, over the reference degrees; the spectrum against the ``spectral._positions`` walk;
and the degree profile, which gives the reference degrees, against the explicit graph up to
GRAPH_ORDER and against a running theta loop written here above it."""

import math
from fractions import Fraction

import pytest

from conftest import connected_codes_upto, seeded_codes
from thresholdwalk import (
    ConstructionCode,
    build_graph,
    degree_profile,
    kemeny_degree_form,
    kemeny_from_code,
    laplacian_spectrum,
    parse_code,
    pineapple_code,
)
from thresholdwalk import kemeny
from thresholdwalk.codes import MAX_CODE_LENGTH, DegreeProfile
from thresholdwalk.kemeny import ARRAY_ORDER, CODE_VECTOR, DEGREE_FORM, KemenyResult
from thresholdwalk.spectral import LaplacianSpectrum, _positions

KEMENY_ROUTES = [kemeny_from_code, kemeny_degree_form]
SINGLE_PASS = [laplacian_spectrum, degree_profile]
EVERY_ORDER_ON_LOOPS = MAX_CODE_LENGTH
GRAPH_ORDER = 2000  # the reference degrees are the explicit graph's up to this order
REDUCE_EVERY = 16  # positions between reductions of the running num/den of the degree route


def walked_spectrum(code):
    """The eigenvalues of the ``spectral._positions`` walk, which the search keeps using."""
    return LaplacianSpectrum((*(lam for _, _, _, lam in _positions(code.bits[1:])), 0))


def looped_profile(code):
    """The degree profile from a running count theta of the ones after each position."""
    theta, ones = [], 0
    for c in reversed(code.bits):
        theta.append(ones)
        ones += c
    theta.reverse()
    degrees = tuple(k * c + t for k, (c, t) in enumerate(zip(code.bits, theta)))
    return DegreeProfile(degrees, tuple(theta), sum(degrees) // 2)


def graph_profile(code):
    """The degree profile of the explicit graph; vertex v's later neighbours are the ones after it."""
    graph = build_graph(code)
    theta = tuple(sum(u > v for u in neighbours) for v, neighbours in enumerate(graph.neighbors, 1))
    return DegreeProfile(graph.degree_sequence(), theta, graph.m)


def running_degree_kemeny(code, d):
    """The degree route's per-position formula over the degrees d and one running num/den:
    K = sum_{i=1}^{n-1} [(P_i + i^2 d_i) 2m - (P_i - i d_i)^2] / (2m (d_i + c_i) i (i+1))."""
    two_m = sum(d)
    num, den, prefix = 0, 1, d[0]  # P_i
    for i in range(1, code.n):
        s, q = prefix - i * d[i], two_m * (d[i] + code.bits[i]) * i * (i + 1)
        num, den = num * q + den * ((prefix + i * i * d[i]) * two_m - s * s), den * q
        if i % REDUCE_EVERY == 0:
            g = math.gcd(num, den)
            num, den = num // g, den // g
        prefix += d[i]
    k = Fraction(num, den)
    return KemenyResult(code.n, two_m // 2, DEGREE_FORM, k, float(k))


def reference(monkeypatch, function, code):
    """function(code) by a per-position loop: kemeny_from_code on its own loop, the constant restored
    after, the spectrum by the ``_positions`` walk, the degree profile by the graph or a loop, and
    the degree route by its formula over the graph's degrees or the loop's."""
    if function is kemeny_from_code:
        with monkeypatch.context() as patch:
            patch.setattr(kemeny, "ARRAY_ORDER", EVERY_ORDER_ON_LOOPS)
            return function(code)
    if function is laplacian_spectrum:
        return walked_spectrum(code)
    if function is degree_profile:
        return graph_profile(code) if code.n <= GRAPH_ORDER else looped_profile(code)
    degrees = build_graph(code).degree_sequence() if code.n <= GRAPH_ORDER else looped_profile(code).degrees
    return running_degree_kemeny(code, degrees)


def assert_equals_reference(monkeypatch, function, codes_to_check):
    for code in codes_to_check:
        assert function(code) == reference(monkeypatch, function, code), (function.__name__, code.n)


def order_n_codes(n, seed):
    """Two seeded connected codes of order n, the star and the complete graph."""
    return [*seeded_codes(seed, 2, n, n), pineapple_code(n, 0), pineapple_code(n, n - 2)]


def each(functions):
    return pytest.mark.parametrize("function", functions, ids=lambda f: f.__name__)


class TestArrayPathEqualsLoops:
    @each(KEMENY_ROUTES + SINGLE_PASS)
    def test_orders_around_the_constant(self, monkeypatch, function):
        orders = range(ARRAY_ORDER - 3, ARRAY_ORDER + 4)
        assert [kemeny._array_path(n) for n in orders] == [False] * 4 + [True] * 3
        assert_equals_reference(monkeypatch, function, [code for n in orders for code in order_n_codes(n, n)])

    @each(KEMENY_ROUTES + SINGLE_PASS)
    def test_seeded_codes_up_to_order_ten_thousand(self, monkeypatch, function):
        drawn = seeded_codes(32, 12, ARRAY_ORDER + 1, 5000)
        fixed = [code for n in (1000, 4000, 10_000) for code in seeded_codes(n, 1, n, n)]
        assert_equals_reference(monkeypatch, function, drawn + fixed)

    @each(KEMENY_ROUTES + SINGLE_PASS)
    def test_families_and_long_runs(self, monkeypatch, function):
        n = 300
        family = [
            *(pineapple_code(n, r) for r in range(n - 1)),  # the star at r = 0, the complete graph at n - 2
            *(parse_code("01" * k) for k in (n // 2, 2000)),
            parse_code("0 1^2000 0^7998 1"),
            parse_code("0^9999 1"),
            parse_code("0 1^9999"),
        ]
        assert_equals_reference(monkeypatch, function, family)

    @each(KEMENY_ROUTES + SINGLE_PASS)
    def test_small_codes_forced_onto_the_array_path(self, monkeypatch, function):
        small = list(connected_codes_upto(9))
        expected = [reference(monkeypatch, function, code) for code in small]
        monkeypatch.setattr(kemeny, "ARRAY_ORDER", 0)
        assert [function(code) for code in small] == expected

    @each(KEMENY_ROUTES + SINGLE_PASS)
    def test_int64_extreme(self, monkeypatch, function):
        # the last run, a = N - 2 .. N - 1, has t = a N and lambda = N, so t lambda is about 10^18
        code = ConstructionCode((0,) * (MAX_CODE_LENGTH - 2) + (1, 1))
        assert kemeny._array_path(code.n)
        assert function(code) == reference(monkeypatch, function, code)

    @each([kemeny_from_code])
    def test_longer_than_a_parsed_code_stays_on_the_loops(self, function):
        n = MAX_CODE_LENGTH + 1
        k = n - Fraction(3, 2)
        assert not kemeny._array_path(n)
        assert function(ConstructionCode((0,) * (n - 1) + (1,))) == KemenyResult(n, n - 1, CODE_VECTOR, k, float(k))

    def test_longer_than_a_parsed_code_the_degree_route_promotes_to_python_ints(self, monkeypatch):
        n = MAX_CODE_LENGTH + 1
        k = n - Fraction(3, 2)
        star = ConstructionCode((0,) * (n - 1) + (1,))
        expected = KemenyResult(n, n - 1, DEGREE_FORM, k, float(k))
        assert kemeny_degree_form(star) == expected == reference(monkeypatch, kemeny_degree_form, star)

    def test_past_int64_the_exact_routes_agree(self):
        # the last run, a = N - 2 .. N - 1, has (d + c) a (b+1) = N (N - 2) N, about 9.26e18 > 2^63
        n = 2_100_000
        assert n * (n - 2) * n > 2**63
        code = ConstructionCode((0,) * (n - 2) + (1, 1))
        assert kemeny_degree_form(code).exact == kemeny_from_code(code).exact

    @each(SINGLE_PASS)
    def test_longer_than_a_parsed_code_takes_the_one_pass(self, function):
        n = MAX_CODE_LENGTH + 1
        expected = {
            laplacian_spectrum: LaplacianSpectrum((1,) * (n - 2) + (n, 0)),
            degree_profile: DegreeProfile((1,) * (n - 1) + (n - 1,), (1,) * (n - 1) + (0,), n - 1),
        }
        assert function(ConstructionCode((0,) * (n - 1) + (1,))) == expected[function]
