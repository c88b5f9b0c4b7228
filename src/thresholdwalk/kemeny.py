"""Kemeny's constant for connected threshold graphs, by three independent routes.

The code-vector route works entirely in integers read off the construction
code; the degree route re-expresses the same quantity through the degree
sequence; the spectral route evaluates the shared eigenbasis numerically.
Both exact routes add one telescoped term per run of equal bits, not one
per position.
All three must agree, which is the core cross-validation this package
provides.  Also here: the two proven upper bounds and the closed form for
the pineapple family together with its exact argmax.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress

import numpy as np

from .codes import MAX_CODE_LENGTH, ConstructionCode, _code_columns, require_walk
from .errors import OrderOutOfRange, OrderTooSmall, ParameterOutOfRange
from .spectral import _runs, hessenberg_basis

CODE_VECTOR = "code-vector"
DEGREE_FORM = "degree-form"
SPECTRAL_FORM = "spectral-form"
# Largest order of kemeny_spectral_form and verify_code: their n x n arrays peaked at 287 MB
# and 816 MB RSS at n = 4096 (the star, 2-core VM, Python 3.11.7), growing as n^2.
_DENSE_ORDER_CAP = 4096
# Orders above ARRAY_ORDER evaluate kemeny_from_code's runs in int64 passes, and at and below it in
# a per-position loop: forcing each path (best of 7, seeded codes, 2-core VM, Python 3.11.7), the
# passes caught up at n = 160-176.  Every int64 entry of the passes is at most 2 n^3 < 2^63 for
# n <= MAX_CODE_LENGTH, so a longer code built directly as a ConstructionCode stays on the loop.
ARRAY_ORDER = 160


def _array_path(n: int) -> bool:
    """Whether order n takes the int64 array path of kemeny_from_code."""
    return ARRAY_ORDER < n <= MAX_CODE_LENGTH


@dataclass(frozen=True)
class KemenyResult:
    """Kemeny's constant for one code, tagged with the route that produced it.

    ``exact`` is None for the floating spectral route; ``value`` is always
    the floating view.
    """

    n: int
    m: int
    method: str
    exact: Fraction | None
    value: float


@dataclass(frozen=True)
class CodeVectors:
    """The three integer vectors whose dot products with the code drive the exact route.

    w_k = w_hat_k - k (k+1) e_{k+1}, and z_k dotted with the code equals the
    k-th Laplacian eigenvalue.
    """

    w: tuple[int, ...]
    w_hat: tuple[int, ...]
    z: tuple[int, ...]


def code_vectors(n: int, k: int) -> CodeVectors:
    """Vectors w_k, w_hat_k, z_k of length n for 1 <= k <= n-1."""
    if not 1 <= k <= n - 1:
        raise ParameterOutOfRange(f"k must lie in 1..{n - 1}, got {k}")
    w_hat = tuple(2 * j for j in range(k + 1)) + (0,) * (n - k - 1)
    w = list(w_hat)
    w[k] -= k * (k + 1)
    z = (0,) * k + (k + 1,) + (1,) * (n - k - 1)
    return CodeVectors(tuple(w), w_hat, z)


def _require_dense_order(n: int) -> None:
    if n > _DENSE_ORDER_CAP:
        raise OrderOutOfRange(f"the dense float routes support order n <= {_DENSE_ORDER_CAP}, got {n}")


def _exact_sum(terms: list[tuple[int, int]], scale: int) -> Fraction:
    """Exact sum of p / (q scale) over pairs (p, q), q, scale > 0: runs of 32 terms over one
    running denominator, then the run sums pairwise in a balanced tree of reduced Fractions."""
    parts = []
    for start in range(0, len(terms), 32):
        num, den = 0, 1
        for p, q in terms[start : start + 32]:
            num, den = num * q + den * p, den * q
        parts.append(Fraction(num, den * scale))
    while len(parts) > 1:  # an odd last part moves up a level unchanged
        parts = [a + b for a, b in zip(parts[::2], parts[1::2])] + parts[len(parts) & ~1 :]
    return parts[0]


def kemeny_from_code(code: ConstructionCode) -> KemenyResult:
    """Kemeny's constant straight from the code, in exact integer arithmetic.

    With s_i and lambda_i of ``spectral._positions``, per position
    K = n - 1 + sum_{i=1}^{n-1} [s_i (2m - s_i) - 2m i (i+1) c_i] / (2m i (i+1) lambda_i).
    Along a run a .. b of equal bits c, s and lambda are constant (``spectral._runs``), and
    sum_{i=a}^{b} 1 / (i (i+1)) = 1/a - 1/(b+1), so the run's terms telescope to one,
    len [s (2m - s) - 2m c a (b+1)] / (2m lambda a (b+1)).  The run terms, scaled by 2m, are
    summed exactly by block folding and a balanced tree.

    Above ARRAY_ORDER (up to MAX_CODE_LENGTH) the runs' a, end, c, s and lambda come
    from int64 cumulative sums over the code, with s and t = a (b+1) at most n^2 and t lambda at
    most 2 n^3 < 2^63; only the numerators, which pass int64, are formed as Python ints.  At and
    below it ``spectral._runs`` walks the code.
    """
    require_walk(code)
    n, bits = code.n, code.bits
    # each dominating vertex at 1-based position j contributes j-1 edges
    if _array_path(n):
        b, theta, _ = _code_columns(bits)
        m = int(np.flatnonzero(b).sum())
        a = np.concatenate(([1], np.flatnonzero(b[2:] != b[1:-1]) + 2))
        end, c = np.append(a[1:], n), b[a]
        s, t = np.cumsum(a * (a - 1) * (1 - 2 * c)), a * end
        runs = zip(*(column.tolist() for column in (end - a, s, c * t, t * (theta[a - 1] + a * c))))
    else:
        m = sum(compress(range(n), bits))
        runs = ((end - a, s, c * a * end, a * end * lam) for a, end, c, s, lam in _runs(bits))
    two_m = 2 * m
    terms = [((n - 1) * two_m, 1)]
    terms += ((length * (s * (two_m - s) - two_m * ct), q) for length, s, ct, q in runs)
    exact = _exact_sum(terms, two_m)
    return KemenyResult(n, m, CODE_VECTOR, exact, float(exact))


def kemeny_degree_form(code: ConstructionCode) -> KemenyResult:
    """Kemeny's constant from the degree sequence; equals the code-vector route exactly.

    With 0-based positions, degrees d and prefix sums P_i = d_0 + ... + d_{i-1}, per position
    K = sum_{i=1}^{n-1} [(P_i + i^2 d_i) 2m - (P_i - i d_i)^2] / (2m (d_i + c_i) i (i+1)).
    Among positions 1 .. n-1 the runs of equal degree are the runs of equal bits, and along one,
    a .. b, s = P_i - i d_i stays P_a - a d_a, so the bracket is s (2m - s) + 2m d i (i+1) and the
    run telescopes to len [s (2m - s) + 2m d a (b+1)] / (2m (d + c) a (b+1)).  The runs are found
    from the degrees, not from ``spectral._runs``, so this route stays an independent check.

    The degrees, the run starts and P come from one int64 pass (``codes._code_columns``) at every
    order, with s, t = a (b+1) and P at most n^2; only the numerators, which pass int64, are formed
    as Python ints.  d t and (d + c) t reach n^3, which leaves int64 from n ~ 2.1e6, so past
    MAX_CODE_LENGTH the bits and degrees are promoted to Python ints first.
    """
    require_walk(code)
    n = code.n
    b, _, d = _code_columns(code.bits)
    if n > MAX_CODE_LENGTH:
        b, d = b.astype(object), d.astype(object)
    m = int(d.sum()) // 2
    a = np.concatenate(([1], np.flatnonzero(d[2:] != d[1:-1]) + 2))
    end, da = np.append(a[1:], n), d[a]
    s, t = np.cumsum(d)[a - 1] - a * da, a * end
    two_m = 2 * m
    runs = zip(*(column.tolist() for column in (end - a, s, da * t, (da + b[a]) * t)))
    terms = [(length * (s * (two_m - s) + two_m * dt), q) for length, s, dt, q in runs]
    total = _exact_sum(terms, two_m)
    return KemenyResult(n, m, DEGREE_FORM, total, float(total))


def kemeny_spectral_form(code: ConstructionCode) -> KemenyResult:
    """Floating Kemeny's constant from the shared eigenbasis.

    Per basis column u of a nonzero eigenvalue, sum_{a<b} d_a d_b (u_a - u_b)^2
    = (sum d)(d . u^2) - (d . u)^2, so all columns together cost O(n^2).  The degrees and the
    eigenvalues lambda_i = d_i + c_i (i >= 1) come from one int64 pass (``codes._code_columns``).
    Agrees with the exact routes to ~1e-12 at desk scale; OrderOutOfRange past _DENSE_ORDER_CAP.
    """
    require_walk(code)
    _require_dense_order(code.n)
    n = code.n
    b, _, d = _code_columns(code.bits)
    two_m = int(d.sum())
    U = hessenberg_basis(n).to_array()[:, : n - 1]
    pair_sums = two_m * (d @ (U * U)) - (d @ U) ** 2
    return KemenyResult(n, two_m // 2, SPECTRAL_FORM, None, float((pair_sums / (d + b)[1:]).sum()) / two_m)


@dataclass(frozen=True)
class UpperBounds:
    """The two proven upper bounds and whether the given code respects both."""

    linear_bound: int
    sparse_bound: float
    both_hold: bool


def upper_bounds(code: ConstructionCode) -> UpperBounds:
    """Evaluate K < 2n - 3 and K < n - 1 + (3/2) sqrt(m) for a connected code, n >= 3.

    Both verdicts are exact: with K = p/q the sparse bound holds when
    2(p - (n-1)q) is at most 0 or its square is below 9 m q^2.
    """
    require_walk(code)
    if code.n < 3:
        raise OrderTooSmall(f"the bounds assume order >= 3, got {code.n}")
    return _bounds_for(code.n, kemeny_from_code(code))


def _bounds_for(n: int, result: KemenyResult) -> UpperBounds:
    """upper_bounds at order n >= 3 from an exact Kemeny result already computed."""
    k_exact = result.exact
    linear_bound = 2 * n - 3
    sparse_bound = n - 1 + 1.5 * math.sqrt(result.m)
    holds_linear = k_exact < linear_bound
    p, q = k_exact.numerator, k_exact.denominator
    a = 2 * (p - (n - 1) * q)
    holds_sparse = a <= 0 or a * a < 9 * result.m * q * q
    return UpperBounds(linear_bound, sparse_bound, bool(holds_linear and holds_sparse))


def pineapple_kemeny(n: int, r: int) -> Fraction:
    """Closed-form Kemeny's constant of the pineapple code 0 1^r 0^(n-r-2) 1.

    Equals kemeny_from_code(pineapple_code(n, r)).exact for every admissible
    pair; r = 0 gives the star value n - 3/2 and r = n-2 the complete-graph
    value (n-1)^2 / n.
    """
    if n < 3:
        raise ParameterOutOfRange(f"pineapple family needs n >= 3, got {n}")
    if not 0 <= r <= n - 2:
        raise ParameterOutOfRange(f"r must lie in 0..{n - 2}, got {r}")
    return (
        Fraction(n - 4)
        + Fraction(2, r + 2)
        + Fraction((n - 1) * (2 * r + 3), 2 * n + r * r + r - 2)
    )


@dataclass(frozen=True)
class PineappleArgmax:
    """Exact argmax of the pineapple family at order n.

    ``predicted_set`` is the two-element window suggested by the calculus
    argument, reported verbatim for comparison; the empirical argmax is not
    asserted to lie in it (and sometimes does not).
    """

    r_star: int
    k_star: Fraction
    tied_rs: tuple[int, ...]
    predicted_set: tuple[int, int]


def max_with_ties(pairs):
    """(best, keys) over (key, value) pairs: the largest value and every key reaching it, in
    pair order.  A larger value replaces the ties, an equal one joins them."""
    best, keys = None, []
    for key, value in pairs:
        if best is None or value > best:
            best, keys = value, [key]
        elif value == best:
            keys.append(key)
    return best, keys


def _require_code_length(n: int) -> None:
    """A pineapple of order n is an n-symbol code, so its sweeps share parse_code's limit."""
    if n > MAX_CODE_LENGTH:
        raise OrderOutOfRange(f"a pineapple sweep needs n <= {MAX_CODE_LENGTH}, got {n}")


def pineapple_argmax(n: int) -> PineappleArgmax:
    """Sweep r = 0..n-2 exactly; ties resolve to the smallest r but are all reported."""
    if n < 3:
        raise OrderTooSmall(f"pineapple family needs n >= 3, got {n}")
    _require_code_length(n)
    best, ties = max_with_ties((r, pineapple_kemeny(n, r)) for r in range(n - 1))
    root = math.isqrt(2 * n)
    predicted = (root - 1, root) if n <= 20 else (root, root + 1)
    return PineappleArgmax(ties[0], best, tuple(ties), predicted)
