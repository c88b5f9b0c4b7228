"""The int64 array path of the code recurrences against the per-position loops it replaces above
``codes.ARRAY_ORDER``: both exact Kemeny routes, the Laplacian spectrum and the degree profile."""

from fractions import Fraction

import pytest

from conftest import connected_codes_upto, seeded_codes
from thresholdwalk import (
    ConstructionCode,
    degree_profile,
    kemeny_degree_form,
    kemeny_from_code,
    laplacian_spectrum,
    parse_code,
    pineapple_code,
)
from thresholdwalk import codes
from thresholdwalk.codes import ARRAY_ORDER, MAX_CODE_LENGTH, DegreeProfile
from thresholdwalk.kemeny import CODE_VECTOR, DEGREE_FORM, KemenyResult
from thresholdwalk.spectral import LaplacianSpectrum

FUNCTIONS = [kemeny_from_code, kemeny_degree_form, laplacian_spectrum, degree_profile]
EVERY_ORDER_ON_LOOPS = MAX_CODE_LENGTH


def on_loops(monkeypatch, function, code):
    """function(code) with every order on the per-position loops, the constant restored after."""
    with monkeypatch.context() as patch:
        patch.setattr(codes, "ARRAY_ORDER", EVERY_ORDER_ON_LOOPS)
        return function(code)


def assert_paths_agree(monkeypatch, function, codes_to_check):
    for code in codes_to_check:
        assert function(code) == on_loops(monkeypatch, function, code), (function.__name__, code.n)


def order_n_codes(n, seed):
    """Two seeded connected codes of order n, the star and the complete graph."""
    return [*seeded_codes(seed, 2, n, n), pineapple_code(n, 0), pineapple_code(n, n - 2)]


@pytest.mark.parametrize("function", FUNCTIONS, ids=lambda f: f.__name__)
class TestArrayPathEqualsLoops:
    def test_orders_around_the_constant(self, monkeypatch, function):
        orders = range(ARRAY_ORDER - 3, ARRAY_ORDER + 4)
        assert [codes._array_path(n) for n in orders] == [False] * 4 + [True] * 3
        assert_paths_agree(monkeypatch, function, [code for n in orders for code in order_n_codes(n, n)])

    def test_seeded_codes_up_to_order_ten_thousand(self, monkeypatch, function):
        drawn = seeded_codes(32, 12, ARRAY_ORDER + 1, 5000)
        fixed = [code for n in (1000, 4000, 10_000) for code in seeded_codes(n, 1, n, n)]
        assert_paths_agree(monkeypatch, function, drawn + fixed)

    def test_families_and_long_runs(self, monkeypatch, function):
        n = 300
        family = [
            *(pineapple_code(n, r) for r in range(n - 1)),  # the star at r = 0, the complete graph at n - 2
            *(parse_code("01" * k) for k in (n // 2, 2000)),
            parse_code("0 1^2000 0^7998 1"),
            parse_code("0^9999 1"),
            parse_code("0 1^9999"),
        ]
        assert_paths_agree(monkeypatch, function, family)

    def test_small_codes_forced_onto_the_array_path(self, monkeypatch, function):
        small = list(connected_codes_upto(9))
        loops = [on_loops(monkeypatch, function, code) for code in small]
        monkeypatch.setattr(codes, "ARRAY_ORDER", 0)
        assert [function(code) for code in small] == loops

    def test_int64_extreme(self, monkeypatch, function):
        # the last run, a = N - 2 .. N - 1, has t = a N and lambda = N, so t lambda is about 10^18
        code = ConstructionCode((0,) * (MAX_CODE_LENGTH - 2) + (1, 1))
        assert codes._array_path(code.n)
        assert function(code) == on_loops(monkeypatch, function, code)

    def test_longer_than_a_parsed_code_stays_on_the_loops(self, function):
        n = MAX_CODE_LENGTH + 1
        star, k = ConstructionCode((0,) * (n - 1) + (1,)), n - Fraction(3, 2)
        assert not codes._array_path(n)
        expected = {
            kemeny_from_code: KemenyResult(n, n - 1, CODE_VECTOR, k, float(k)),
            kemeny_degree_form: KemenyResult(n, n - 1, DEGREE_FORM, k, float(k)),
            laplacian_spectrum: LaplacianSpectrum((1,) * (n - 2) + (n, 0)),
            degree_profile: DegreeProfile((1,) * (n - 1) + (n - 1,), (1,) * (n - 1) + (0,), n - 1),
        }
        assert function(star) == expected[function]
