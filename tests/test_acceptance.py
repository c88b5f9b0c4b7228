"""Acceptance suite: one test per release criterion, at its stated tolerance.

Each test prints its own elapsed time; the terminal summary (see conftest)
prints one pass/fail line per criterion.
"""

import random
import time
from fractions import Fraction

import numpy as np

from conftest import connected_codes_upto, seeded_codes, small_slabs
from thresholdwalk import (
    ConstructionCode,
    commuting_check,
    degree_profile,
    diagonalization_residual,
    enumerate_codes,
    kemeny_degree_form,
    kemeny_from_code,
    kemeny_spectral_form,
    laplacian_matrix,
    laplacian_spectrum,
    max_kemeny_search,
    parse_code,
    pineapple_argmax,
    pineapple_kemeny,
    resistance_matrix,
    upper_bounds,
    verify_conjecture_range,
    verify_code,
    verify_orderings,
)


def test_criterion_01_route_agreement():
    started = time.perf_counter()
    checked = 0
    for code in connected_codes_upto(12):
        exact = kemeny_from_code(code)
        assert kemeny_degree_form(code).exact == exact.exact, str(code)
        assert abs(kemeny_spectral_form(code).value - exact.value) < 1e-9, str(code)
        checked += 1
    elapsed = time.perf_counter() - started
    assert checked == 2047
    assert elapsed < 30, f"route agreement took {elapsed:.1f}s"
    print(f"criterion 1: {checked} codes in {elapsed:.1f}s")


def test_criterion_02_oracle_agreement():
    started = time.perf_counter()
    for code in connected_codes_upto(10):
        assert verify_code(code, ("kemeny",))["kemeny"]["pass"], str(code)
    elapsed = time.perf_counter() - started
    assert elapsed < 60, f"oracle agreement took {elapsed:.1f}s"
    print(f"criterion 2: done in {elapsed:.1f}s")


def test_criterion_03_spectrum_correctness():
    for code in connected_codes_upto(10):
        spectrum = laplacian_spectrum(code)
        formula = np.array(sorted(spectrum.eigenvalues), dtype=float)
        numeric = np.sort(np.linalg.eigvalsh(laplacian_matrix(code).astype(float)))
        assert np.abs(formula - numeric).max() < 1e-8, str(code)
        assert sum(spectrum.eigenvalues) == 2 * degree_profile(code).m, str(code)
    print("criterion 3: spectra verified for all connected codes n <= 10")


def test_criterion_04_universal_diagonalization():
    rng = random.Random(2024)
    for _ in range(1000):
        n = rng.randint(2, 60)
        code = ConstructionCode((0, *(rng.randint(0, 1) for _ in range(n - 1))))
        assert diagonalization_residual(code) < 1e-9, str(code)
    for n in (6, 7):
        codes = list(enumerate_codes(n))
        for a in codes:
            for b in codes:
                assert commuting_check(a, b), (str(a), str(b))
    print("criterion 4: 1000 residuals + all ordered pairs at n = 6, 7")


def test_criterion_05_resistance_forest_exactness():
    started = time.perf_counter()
    for code in connected_codes_upto(9):
        assert verify_code(code, ("resistance",))["resistance"]["pass"], str(code)
    for code in connected_codes_upto(9):
        assert verify_code(code, ("forest",))["forest"]["pass"], str(code)
    for code in [*connected_codes_upto(7), *seeded_codes(5, 5, 12, 120)]:
        profile = resistance_matrix(code)
        for i in range(code.n):
            for j in range(code.n):
                assert profile.F[i][j] == profile.tau * profile.R[i][j], str(code)
    elapsed = time.perf_counter() - started
    assert elapsed < 300, f"resistance/forest exactness took {elapsed:.1f}s"
    print(f"criterion 5: done in {elapsed:.1f}s")


def test_criterion_06_known_closed_values():
    assert kemeny_from_code(parse_code("01")).exact == Fraction(1, 2)
    for n in range(2, 51):
        complete = ConstructionCode((0,) + (1,) * (n - 1))
        assert kemeny_from_code(complete).exact == Fraction((n - 1) ** 2, n)
    for n in range(3, 51):
        star = ConstructionCode((0,) * (n - 1) + (1,))
        assert kemeny_from_code(star).exact == Fraction(2 * n - 3, 2)
    assert kemeny_from_code(parse_code("0101")).exact == Fraction(61, 24)
    assert pineapple_kemeny(21, 4) == pineapple_kemeny(21, 5) == Fraction(21)
    print("criterion 6: closed values reproduced exactly")


def test_criterion_07_upper_bounds():
    for n in range(3, 15):
        for code in enumerate_codes(n):
            assert upper_bounds(code).both_hold, str(code)
    print("criterion 7: both bounds hold for every connected code n <= 14")


def test_criterion_08_ordering_theorems():
    for code in connected_codes_upto(10):
        report = verify_orderings(code)
        assert report.all_pass, (str(code), report.witnesses)
    print("criterion 8: all ordering checks pass for every connected code n <= 10")


def test_criterion_09_accessibility_identities():
    for code in connected_codes_upto(9):
        assert verify_code(code, ("ordering",))["ordering"]["pass"], str(code)
    print("criterion 9: weighted-alpha identity exact; oracle within 1e-8, n <= 9")


def test_criterion_10_extremal_search_reproduction(tmp_path):
    started = time.perf_counter()
    reports = verify_conjecture_range(3, 18)
    for report in reports:
        assert report.is_pineapple, f"n={report.n} argmax {report.argmax_code}"
        assert report.r == pineapple_argmax(report.n).r_star, f"n={report.n}"
        assert report.codes_examined == 2 ** (report.n - 2)
    by_n = {report.n: report for report in reports}
    assert by_n[10].r == 2
    assert pineapple_argmax(10).predicted_set == (3, 4)  # recorded, not asserted as containing r

    # identical reports for any thread count: in slabs of 16 codes n = 12 has 64 ranges
    key = lambda r: (r.n, r.argmax_code, r.k_exact, r.ties, r.codes_examined)
    path = tmp_path / "n12.checkpoint"
    with small_slabs():
        variants = [max_kemeny_search(12, threads=t) for t in (1, 4, 8)]
        assert len({key(r) for r in variants}) == 1
        assert key(variants[0]) == key(by_n[12])

        # checkpoint resume reproduces the identical report
        fresh = max_kemeny_search(12, checkpoint=str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == "thresholdwalk-search 2 12 16" and len(lines) == 65
        path.write_text("\n".join(lines[: len(lines) // 2]) + "\n")
        resumed = max_kemeny_search(12, checkpoint=str(path))
    assert key(resumed) == key(fresh) == key(by_n[12])

    elapsed = time.perf_counter() - started
    assert elapsed < 600, f"search reproduction took {elapsed:.1f}s"
    print(f"criterion 10: n = 3..18 exhaustive, deterministic, resumable in {elapsed:.1f}s")
