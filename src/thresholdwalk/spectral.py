"""Laplacian matrices of threshold graphs, their shared eigenbasis, and exact spectral data.

Every code-ordered threshold Laplacian of one order is diagonalized by the
same upper-Hessenberg orthonormal basis, so eigenvalues come straight from
the code as integers, spanning-tree counts from their product, and the
exact pseudoinverse from O(n) suffix sums over the integer eigenvectors,
since its off-diagonal entries depend only on max(a, b).  The pseudoinverse
lives in ``pseudo_inverse_terms`` as O(n) integers over the denominator
``resistance_matrix`` uses; ``pseudo_inverse`` only spreads them into Fractions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, compress
from operator import ne

import numpy as np

from .codes import ConstructionCode, _code_columns, require_walk
from .errors import IndexOutOfRange, LengthMismatch, OrderTooSmall


class OrthonormalBasis:
    """The order-n upper-Hessenberg orthonormal basis shared by all threshold Laplacians.

    Column j < n is (1, ..., 1, -j, 0, ..., 0) / sqrt(j (j+1)) with j leading
    ones; column n is the normalized all-ones vector.  Entries are exact
    values p / sqrt(q); ``entry`` returns the (p, q) pair and ``to_array``
    gives the floating view.
    """

    def __init__(self, n: int):
        if n < 2:
            raise OrderTooSmall(f"the basis needs order >= 2, got {n}")
        self.n = n

    def entry(self, i: int, j: int) -> tuple[int, int]:
        """Exact entry (i, j) as (numerator, radicand), 1-based indices."""
        if not (1 <= i <= self.n and 1 <= j <= self.n):
            raise IndexOutOfRange(f"({i}, {j}) outside 1..{self.n}")
        if j == self.n:
            return (1, self.n)
        if i == j + 1:
            return (-j, j * (j + 1))
        if i <= j:
            return (1, j * (j + 1))
        return (0, 1)

    def column(self, j: int) -> tuple[tuple[int, int], ...]:
        return tuple(self.entry(i, j) for i in range(1, self.n + 1))

    def to_array(self) -> np.ndarray:
        """Floating-point n x n matrix view."""
        n = self.n
        U = np.zeros((n, n))
        for j in range(1, n):
            scale = 1.0 / math.sqrt(j * (j + 1))
            U[:j, j - 1] = scale
            U[j, j - 1] = -j * scale
        U[:, n - 1] = 1.0 / math.sqrt(n)
        return U


def hessenberg_basis(n: int) -> OrthonormalBasis:
    """The universal orthonormal basis for order n."""
    return OrthonormalBasis(n)


def integer_eigenvector(n: int, i: int) -> tuple[int, ...]:
    """Unnormalized integer eigenvector (1, ..., 1, -i, 0, ..., 0) with i leading ones.

    Scaling basis column i by sqrt(i (i+1)) gives exactly this vector; its
    squared norm is i (i+1).
    """
    if not 1 <= i <= n - 1:
        raise IndexOutOfRange(f"eigenvector index {i} outside 1..{n - 1}")
    return (1,) * i + (-i,) + (0,) * (n - i - 1)


@dataclass(frozen=True)
class LaplacianSpectrum:
    """Integer Laplacian eigenvalues, ordered to match the basis columns; the last is 0."""

    eigenvalues: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.eigenvalues)

    def sorted(self) -> tuple[int, ...]:
        return tuple(sorted(self.eigenvalues))

    def tree_count(self) -> int:
        """Exact number of spanning trees: the product of the eigenvalues but the last over n.

        The product is 0 when a second eigenvalue is 0, as for a disconnected code.
        """
        tau, remainder = divmod(math.prod(self.eigenvalues[:-1]), self.n)
        if remainder:
            raise ArithmeticError("eigenvalue product not divisible by n; spectrum inconsistent")
        return tau


def laplacian_matrix(code: ConstructionCode) -> np.ndarray:
    """Integer Laplacian L = D - A with vertices in code order."""
    n = code.n
    A = np.zeros((n, n), dtype=np.int64)
    for j in range(1, n):
        if code.bits[j]:
            A[:j, j] = 1
            A[j, :j] = 1
    return np.diag(A.sum(axis=1)) - A


def _positions(bits, first: int = 1, later: int = 0):
    """The code-vector recurrence: (i, c_i, s_i, lambda_i) for i = first, first + 1, ...

    Positions are 0-based: c_i is code.bits[i], position i >= 1 is basis column i, bits[k] is
    c_{first+k} and ``later`` counts the ones after the bits.  s_i = w_i . c runs as
    s_{i-1} + i (i-1) (c_{i-1} - c_i), positions before first taken as zeros, and the eigenvalue
    lambda_i = z_i . c = (ones at positions >= i) + i c_i.  Bits are ints or numpy int arrays.
    """
    s, previous, ones = 0, 0, sum(bits) + later
    for i, c in enumerate(bits, first):
        s = s + i * (i - 1) * (previous - c)
        yield i, c, s, ones + i * c
        ones, previous = ones - c, c


def _runs(bits):
    """``_positions`` of a whole code, one (a, end, c, s, lambda) per run of equal bits a .. end - 1.

    Positions are 0-based and the runs cover 1 .. n-1.  s moves only where the bit flips, and
    lambda = (ones at positions >= i) + i c is constant along a run: a zero run passes no ones,
    and in a one run the ones count falls by one as i rises by one.
    """
    n = len(bits)
    starts = [1, *compress(range(2, n), map(ne, bits[1:], bits[2:])), n]
    s, ones = 0, sum(bits)
    for a, end in zip(starts, starts[1:]):
        c = bits[a]
        s += a * (a - 1) * (1 - 2 * c)  # c_{a-1} = 1 - c at a run start; a = 1 adds 0
        yield a, end, c, s, ones + a * c
        ones -= c * (end - a)


def laplacian_spectrum(code: ConstructionCode) -> LaplacianSpectrum:
    """Eigenvalues lambda_i of ``_positions`` in basis-column order, lambda_n = 0.

    With 0-based positions, lambda_i = d_i + c_i for i >= 1, read off one int64 pass of
    ``codes._code_columns``.
    """
    if code.n < 2:
        raise OrderTooSmall("spectra are reported for order >= 2")
    b, _, d = _code_columns(code.bits)
    return LaplacianSpectrum((*(d + b)[1:].tolist(), 0))


def diagonalization_residual(code: ConstructionCode) -> float:
    """max |(U^T L U - Lambda)_{ij}| over the floating basis view.

    Zero up to rounding for every threshold code, connected or not.
    """
    spectrum = laplacian_spectrum(code)
    U = hessenberg_basis(code.n).to_array()
    L = laplacian_matrix(code).astype(float)
    return float(np.abs(U.T @ L @ U - np.diag(spectrum.eigenvalues)).max())


def commuting_check(code_a: ConstructionCode, code_b: ConstructionCode) -> bool:
    """Whether the two code-ordered Laplacians commute, in exact integer arithmetic.

    Entries of L are bounded by n, so int64 products are exact for any order
    this package handles.
    """
    if code_a.n != code_b.n:
        raise LengthMismatch(f"codes have lengths {code_a.n} and {code_b.n}")
    La = laplacian_matrix(code_a)
    Lb = laplacian_matrix(code_b)
    return bool(np.array_equal(La @ Lb, Lb @ La))


def spanning_tree_count(code: ConstructionCode) -> int:
    """Exact number of spanning trees of a connected code: its spectrum's tree_count."""
    require_walk(code)
    return laplacian_spectrum(code).tree_count()


def _reciprocals(lam: tuple[int, ...]) -> tuple[int, list[int]]:
    """den = lcm of w_i = lambda_i i (i+1) over i = 1 .. n-1, and s = [0, den // w_1, ..., den // w_{n-1}].

    lam is a spectrum's eigenvalues.  s_i / den = 1 / w_i: 1 / lambda_i over the squared norm of
    integer_eigenvector(n, i).  The pseudoinverse terms and the resistance row and column terms
    are sums of these over one den.
    """
    weights = [lam[i - 1] * i * (i + 1) for i in range(1, len(lam))]
    den = math.lcm(*weights)
    return den, [0] + [den // w for w in weights]


def pseudo_inverse_terms(code: ConstructionCode) -> tuple[int, list[int], list[int]]:
    """(den, diag, off) with L+[a][a] = diag[a] / den and L+[a][b] = off[max(a, b)] / den for a != b.

    With 0-based positions, s from ``_reciprocals`` and tail_b the sum of s_i over i > b,
    off_b = tail_b - b s_b and diag_a = tail_a + a^2 s_a: O(n) integers over one den, the
    same den as ``resistance_matrix``'s.  off[0] is never read.
    """
    require_walk(code)
    den, s = _reciprocals(laplacian_spectrum(code).eigenvalues)
    total = sum(s)
    tail = [total - prefix for prefix in accumulate(s)]
    off = [t - b * x for b, (t, x) in enumerate(zip(tail, s))]
    diag = [t + a * a * x for a, (t, x) in enumerate(zip(tail, s))]
    return den, diag, off


def pseudo_inverse(code: ConstructionCode) -> list[list[Fraction]]:
    """Exact rational Moore-Penrose inverse of the Laplacian, filled from ``pseudo_inverse_terms``.

    One Fraction per term, then an O(n^2) fill of shared values; L L+ L = L and L+ 1 = 0 hold exactly.
    """
    den, diag, off = pseudo_inverse_terms(code)
    shared = [Fraction(x, den) for x in off]
    return [[shared[a]] * a + [Fraction(x, den)] + shared[a + 1 :] for a, x in enumerate(diag)]
