"""Eigenbasis, integer spectra, commuting Laplacians, tree counts, pseudoinverse."""

import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from conftest import connected_codes, connected_codes_upto, pseudoinverse_from_terms, seeded_codes
from thresholdwalk import (
    ConstructionCode,
    commuting_check,
    diagonalization_residual,
    hessenberg_basis,
    integer_eigenvector,
    laplacian_matrix,
    laplacian_spectrum,
    parse_code,
    pseudo_inverse,
    pseudo_inverse_terms,
    resistance_matrix,
    spanning_tree_count,
    spanning_tree_oracle,
    build_graph,
    code_vectors,
)
from thresholdwalk.errors import Disconnected, LengthMismatch, OrderTooSmall
from thresholdwalk.spectral import LaplacianSpectrum, _positions, _runs


def random_code(rng, n):
    return ConstructionCode((0, *(rng.randint(0, 1) for _ in range(n - 1))))


class TestBasis:
    def test_column_one_n3(self):
        basis = hessenberg_basis(3)
        assert basis.column(1) == ((1, 2), (-1, 2), (0, 1))

    def test_last_column_n3(self):
        assert hessenberg_basis(3).column(3) == ((1, 3), (1, 3), (1, 3))

    def test_zero_region(self):
        assert hessenberg_basis(9).entry(5, 2) == (0, 1)

    def test_exact_matches_float(self):
        basis = hessenberg_basis(7)
        U = basis.to_array()
        for i in range(1, 8):
            for j in range(1, 8):
                num, rad = basis.entry(i, j)
                assert U[i - 1, j - 1] == pytest.approx(num / rad**0.5, abs=1e-15)

    @pytest.mark.parametrize("n", [2, 5, 17, 40])
    def test_orthonormal(self, n):
        U = hessenberg_basis(n).to_array()
        assert np.abs(U.T @ U - np.eye(n)).max() < 1e-12

    def test_order_too_small(self):
        with pytest.raises(OrderTooSmall):
            hessenberg_basis(1)


class TestLaplacian:
    def test_edge(self):
        assert laplacian_matrix(parse_code("01")).tolist() == [[1, -1], [-1, 1]]

    def test_triangle(self):
        expected = [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]]
        assert laplacian_matrix(parse_code("011")).tolist() == expected

    def test_paw(self):
        L = laplacian_matrix(parse_code("0101"))
        assert np.diag(L).tolist() == [2, 2, 1, 3]
        off = {(i, j) for i in range(4) for j in range(4) if i != j and L[i, j] == -1}
        assert off == {(0, 1), (1, 0), (0, 3), (3, 0), (1, 3), (3, 1), (2, 3), (3, 2)}

    def test_rows_sum_zero(self):
        for code in connected_codes_upto(7):
            assert laplacian_matrix(code).sum(axis=1).tolist() == [0] * code.n


class TestSpectrum:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("0101", (3, 1, 4, 0)),
            ("01100011", (5, 5, 2, 2, 2, 8, 8, 0)),
            ("0001", (1, 1, 4, 0)),
        ],
    )
    def test_known_spectra(self, text, expected):
        assert laplacian_spectrum(parse_code(text)).eigenvalues == expected

    def test_trace(self):
        spectrum = laplacian_spectrum(parse_code("01100011"))
        assert sum(spectrum.eigenvalues) == 32

    def test_multiset_matches_numeric(self):
        rng = random.Random(11)
        codes = list(connected_codes_upto(8))
        codes += [random_code(rng, rng.randint(2, 30)) for _ in range(50)]
        for code in codes:
            formula = np.array(sorted(laplacian_spectrum(code).eigenvalues), float)
            numeric = np.sort(np.linalg.eigvalsh(laplacian_matrix(code).astype(float)))
            assert np.abs(formula - numeric).max() < 1e-8

    def test_connected_positivity(self):
        for code in connected_codes_upto(8):
            assert all(lam >= 1 for lam in laplacian_spectrum(code).eigenvalues[:-1])

    def test_order_too_small(self):
        with pytest.raises(OrderTooSmall):
            laplacian_spectrum(parse_code("0"))


class TestPositions:
    def test_walk_is_the_code_vector_dot_products(self):
        codes = [*connected_codes_upto(10), *seeded_codes(16, 20, 11, 200)]
        for code in codes:
            n, bits = code.n, code.bits
            walk = list(_positions(bits[1:]))
            expected = []
            for i in range(1, n):
                vectors = code_vectors(n, i)
                s = sum(w * c for w, c in zip(vectors.w, bits))
                lam = sum(z * c for z, c in zip(vectors.z, bits))
                expected.append((i, bits[i], s, lam))
            assert walk == expected, str(code)

    def test_sliced_walks_agree_with_the_full_walk(self):
        # the search screen walks the high positions 1 .. first - 1 with the
        # final 1 as the one later bit, and the low positions from first
        rng = random.Random(17)
        for code in seeded_codes(17, 30, 4, 60):
            n, bits = code.n, code.bits
            full = list(_positions(bits[1:]))
            first = rng.randint(1, n - 1)
            h = sum(2 * t * bits[t] for t in range(first))
            low_ones = sum(bits[first : n - 1])
            head = list(_positions(bits[1:first], later=1))
            assert head == [(i, c, s, lam - low_ones) for i, c, s, lam in full[: first - 1]], str(code)
            tail = list(_positions(bits[first:], first))
            assert tail == [(i, c, s - h, lam) for i, c, s, lam in full[first - 1 :]], str(code)

    def test_array_walk_is_the_walk_of_each_column(self):
        codes = seeded_codes(18, 8, 12, 12)
        first = 5
        columns = [np.array([code.bits[p] for code in codes]) for p in range(first, 12)]
        for p, c, s, lam in _positions(columns, first):
            for k, code in enumerate(codes):
                expected = list(_positions(code.bits[first:], first))[p - first]
                assert (p, c[k], s[k], lam[k]) == expected

    def test_runs_expand_to_the_walk(self):
        tails = (tail for n in range(2, 13) for tail in itertools.product((0, 1), repeat=n - 1))
        every_small = [ConstructionCode((0, *tail)) for tail in tails]
        long_runs = [parse_code(text) for text in ("0 1^2000 0^7998 1", "0^3999 1", "0 1^3999", "0 0 1", "01" * 2000)]
        for code in (*every_small, *seeded_codes(23, 12, 13, 4000), *long_runs):
            runs = list(_runs(code.bits))
            expanded = [(i, c, s, lam) for a, end, c, s, lam in runs for i in range(a, end)]
            assert expanded == list(_positions(code.bits[1:])), str(code)
            run_bits = [c for _, _, c, _, _ in runs]
            assert run_bits[1:] == [1 - c for c in run_bits[:-1]], str(code)  # maximal runs alternate


class TestDiagonalization:
    def test_paw(self):
        assert diagonalization_residual(parse_code("0101")) < 1e-10

    def test_complete_20(self):
        code = ConstructionCode((0,) + (1,) * 19)
        assert diagonalization_residual(code) < 1e-10

    def test_edge(self):
        assert diagonalization_residual(parse_code("01")) < 1e-14

    def test_random_codes(self):
        rng = random.Random(3)
        for _ in range(200):
            code = random_code(rng, rng.randint(2, 60))
            assert diagonalization_residual(code) < 1e-9


class TestCommuting:
    def test_pair(self):
        assert commuting_check(parse_code("0101"), parse_code("0011"))

    def test_self(self):
        assert commuting_check(parse_code("01"), parse_code("01"))

    def test_exhaustive_n5(self):
        codes = connected_codes(5)
        assert all(commuting_check(a, b) for a in codes for b in codes)

    def test_disconnected_codes_commute_too(self):
        a = parse_code("0110")
        b = parse_code("0010")
        assert commuting_check(a, b)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            commuting_check(parse_code("01"), parse_code("011"))


class TestSpanningTrees:
    @pytest.mark.parametrize("text,tau", [("0001", 1), ("0111", 16), ("0101", 3)])
    def test_known_counts(self, text, tau):
        assert spanning_tree_count(parse_code(text)) == tau

    def test_cayley(self):
        for n in range(2, 9):
            code = ConstructionCode((0,) + (1,) * (n - 1))
            assert spanning_tree_count(code) == n ** (n - 2)

    def test_matches_determinant(self):
        for code in [*connected_codes_upto(8), *seeded_codes(64, 20, 12, 64)]:
            assert spanning_tree_count(code) == spanning_tree_oracle(build_graph(code)), str(code)

    def test_oracle_on_one_vertex(self):
        assert spanning_tree_oracle(build_graph(parse_code("0"))) == 1

    def test_every_principal_minor_agrees(self):
        from thresholdwalk.oracle import _psd_determinants

        for code in connected_codes_upto(5):
            tau = spanning_tree_count(code)
            L = laplacian_matrix(code)
            minors = [np.delete(np.delete(L, k, axis=0), k, axis=1) for k in range(code.n)]
            assert _psd_determinants(np.stack(minors, axis=-1)).tolist() == [tau] * code.n

    def test_disconnected(self):
        with pytest.raises(Disconnected):
            spanning_tree_count(parse_code("0110"))

    def test_spectrum_tree_count(self):
        # a disconnected spectrum has a second zero, so its product is 0; a
        # product that n does not divide is no threshold spectrum
        assert laplacian_spectrum(parse_code("0110")).tree_count() == 0
        assert LaplacianSpectrum((5, 5, 2, 2, 2, 8, 8, 0)).tree_count() == 1600
        with pytest.raises(ArithmeticError):
            LaplacianSpectrum((3, 0)).tree_count()


class TestPseudoInverse:
    def test_edge(self):
        expected = [
            [Fraction(1, 4), Fraction(-1, 4)],
            [Fraction(-1, 4), Fraction(1, 4)],
        ]
        assert pseudo_inverse(parse_code("01")) == expected

    def test_paw_resistance_entry(self):
        lp = pseudo_inverse(parse_code("0101"))
        assert lp[0][0] + lp[2][2] - 2 * lp[0][2] == Fraction(5, 3)

    def test_row_sums_zero(self):
        for code in connected_codes_upto(7):
            lp = pseudo_inverse(code)
            for row in lp:
                assert sum(row) == 0

    def test_penrose_identity(self):
        for code in connected_codes_upto(7):
            n = code.n
            L = [[Fraction(int(x)) for x in row] for row in laplacian_matrix(code)]
            lp = pseudo_inverse(code)
            assert all(lp[a][b] == lp[b][a] for a in range(n) for b in range(n))
            prod = _matmul(_matmul(L, lp), L)
            assert prod == L

    def test_disconnected(self):
        with pytest.raises(Disconnected):
            pseudo_inverse(parse_code("010"))

    def test_terms_reproduce_the_matrix(self):
        for code in [*connected_codes_upto(9), *seeded_codes(22, 12, 10, 128)]:
            terms = pseudo_inverse_terms(code)
            assert terms[0] == resistance_matrix(code).den
            assert pseudo_inverse(code) == pseudoinverse_from_terms(*terms)

    def test_terms_equal_the_eigenvector_sum(self):
        # L+ = sum_i z_i z_i^T / (lambda_i i (i+1)) over the integer eigenvectors z_i
        for code in connected_codes_upto(9):
            n = code.n
            lam = laplacian_spectrum(code).eigenvalues
            vectors = [integer_eigenvector(n, i) for i in range(1, n)]
            den, diag, off = pseudo_inverse_terms(code)
            for a in range(n):
                for b in range(a, n):
                    expected = sum(
                        Fraction(z[a] * z[b], lam[i - 1] * i * (i + 1)) for i, z in enumerate(vectors, 1)
                    )
                    assert Fraction(diag[a] if a == b else off[b], den) == expected

    def test_integer_eigenvector_shape(self):
        assert integer_eigenvector(5, 3) == (1, 1, 1, -3, 0)


def _matmul(a, b):
    n = len(a)
    return [
        [sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)]
        for i in range(n)
    ]
