"""Laplacian matrices of threshold graphs, their shared eigenbasis, and exact spectral data.

Every code-ordered threshold Laplacian of one order is diagonalized by the
same upper-Hessenberg orthonormal basis, so eigenvalues come straight from
the code as integers, spanning-tree counts from their product, and the
exact pseudoinverse from O(n) suffix sums over the integer eigenvectors,
since its off-diagonal entries depend only on max(a, b).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .codes import ConstructionCode
from .errors import Disconnected, IndexOutOfRange, LengthMismatch, OrderTooSmall


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


def laplacian_spectrum(code: ConstructionCode) -> LaplacianSpectrum:
    """Eigenvalues lambda_i of ``_positions`` in basis-column order, lambda_n = 0."""
    if code.n < 2:
        raise OrderTooSmall("spectra are reported for order >= 2")
    return LaplacianSpectrum(tuple(lam for _, _, _, lam in _positions(code.bits[1:])) + (0,))


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
    """Exact number of spanning trees: the product of the nonzero eigenvalues over n."""
    if code.n < 2:
        raise OrderTooSmall("spanning-tree counts are reported for order >= 2")
    if not code.is_connected:
        raise Disconnected("a disconnected graph has no spanning tree")
    tau, remainder = divmod(math.prod(laplacian_spectrum(code).eigenvalues[:-1]), code.n)
    if remainder:
        raise ArithmeticError("eigenvalue product not divisible by n; spectrum inconsistent")
    return tau


def pseudo_inverse(code: ConstructionCode) -> list[list[Fraction]]:
    """Exact rational Moore-Penrose inverse of the Laplacian.

    With s_i = 1 / (lambda_i i (i+1)) and S_b the sum of s_i over i > b
    (0-based), L+[a][b] = S_b - b s_b for a < b, a function of max(a, b)
    alone, and L+[a][a] = S_a + a^2 s_a: O(n) rational operations, then an
    O(n^2) fill of shared values.  L L+ L = L and L+ 1 = 0 hold exactly.
    """
    if code.n < 2:
        raise OrderTooSmall("pseudoinverse is reported for order >= 2")
    if not code.is_connected:
        raise Disconnected("pseudoinverse route requires a connected code")
    n = code.n
    lam = laplacian_spectrum(code).eigenvalues
    s = [Fraction(0)] + [Fraction(1, lam[i - 1] * i * (i + 1)) for i in range(1, n)]
    tail = [Fraction(0)] * n
    for b in range(n - 2, -1, -1):
        tail[b] = tail[b + 1] + s[b + 1]
    off = [tail[b] - b * s[b] for b in range(n)]
    return [[off[a]] * a + [tail[a] + a * a * s[a]] + off[a + 1 :] for a in range(n)]
