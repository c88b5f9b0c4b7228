"""Exact effective resistances, 2-forest counts, moments, accessibility, and ordering checks.

The resistance between two code positions has a closed form in the degrees
and code bits that splits into a row term plus a column term, r_{j,v} =
(row_j + col_v) / den for j < v, in integers over one common denominator.
Everything here is decided from those two length-n vectors, in O(n)
exact integer operations plus one sort of the degrees when every check
passes:

- the forest counts F = tau * R split the same way.  The first row term is
  0, so F is integral exactly when every paired tau * row_j / den and
  tau * col_v / den is an integer, and that is checked;
- the moments mu, the degree-weighted sums of R, come from prefix sums of
  the row and column terms as integer numerators mu_num over den;
  accessibility is moment minus Kemeny's constant;
- every ordering check compares den * R[i][p] = row[min] + col[max], a
  positive multiple of F[i][p], and F[i][p] against F[i][q] differs by a
  constant over the rows before both positions and over the rows after
  both, and by a constant minus row[i] - col[i] between them, so each link
  is decided in a few integer comparisons, with no row probed (see
  ``_verify_orderings``).  Only a failing link walks the rows, once, to name
  them, and those rows are its witnesses.

The n x n matrices R and F, and the Fraction tuples mu and alpha, are
built only when a caller reads them.  All of it is exact, so the ordering
checks are decided in integer comparisons, without tolerances.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, chain, repeat
from operator import eq, ge, le, lt

from .codes import ConstructionCode, blocks, degree_profile, require_walk
from .errors import IndexOutOfRange, NonIntegralEntry
from .kemeny import kemeny_from_code
from .spectral import _reciprocals, laplacian_spectrum


@dataclass(frozen=True)
class ResistanceProfile:
    """Exact O(n) core for one connected code, with R and F built on first read.

    With 0-based positions, r_{j,v} = (row[j] + col[v]) / den for j < v, in
    integers row, col and den.  Only row[0 .. n-2] and col[1 .. n-1] are
    ever paired; row[0] = col[0] = 0.  F[j][v] = tau * r_{j,v} is an integer
    for every pair.  mu[v] = sum_j d_j r_{j,v} = mu_num[v] / den; alpha =
    mu - K, whose stationary-weighted average is K.

    R (Fractions, symmetric, zero diagonal) and F = tau * R (ints) are
    tuples of row tuples, and mu and alpha tuples of Fractions, each built
    from the core when first read and kept, R and F by matrix from one
    entry per pair of twin classes.  The terms of F and of alpha can be
    read without building them, from f_terms and alpha_terms.
    """

    n: int
    den: int
    row: tuple[int, ...]
    col: tuple[int, ...]
    tau: int
    mu_num: tuple[int, ...]
    kemeny: Fraction

    @cached_property
    def mu(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(x, self.den) for x in self.mu_num)

    @cached_property
    def alpha(self) -> tuple[Fraction, ...]:
        return tuple(value - self.kemeny for value in self.mu)

    @cached_property
    def R(self) -> tuple[tuple[Fraction, ...], ...]:
        row, col, den = self.row, self.col, self.den
        return self.matrix(lambda j, v: Fraction(row[j] + col[v], den), Fraction(0))

    @cached_property
    def F(self) -> tuple[tuple[int, ...], ...]:
        A, B = self.f_terms()
        return self.matrix(lambda j, v: A[j] + B[v], 0)

    def alpha_terms(self) -> tuple[list[int], int]:
        """alpha_v = mu_v - K as integer numerators over one denominator, den * K.den; not reduced.

        Reducing them costs more than building alpha: read them to divide, not to format.
        """
        K = self.kemeny
        shift = K.numerator * self.den
        return [x * K.denominator - shift for x in self.mu_num], self.den * K.denominator

    def f_terms(self) -> tuple[list[int], list[int]]:
        """A, B with F[j][v] = A[j] + B[v] for j < v: tau * row // den and tau * col // den."""
        # tau * x // den is exact for every paired term: resistance_matrix checked it
        return [self.tau * x // self.den for x in self.row], [self.tau * x // self.den for x in self.col]

    def class_table(self, entry: Callable[[int, int], object], zero) -> tuple[list[int], list[list]]:
        """The twin class sizes in code order, and the k x k table of entry(j, v) on the classes.

        Positions j - 1 and j are twins when the terms pairing them agree, col unless j = 1 and
        row unless j = n - 1: a leading 01 is a class (case (ii)'s equality), as is each run of
        equal bits (case (i)).  entry is called once per pair of classes, on their first positions
        s < t, and once per class of two or more, as entry(s, s + 1); a class of one has zero.
        """
        n, row, col = self.n, self.row, self.col
        starts = [0] + [
            j for j in range(1, n) if (j > 1 and col[j - 1] != col[j]) or (j < n - 1 and row[j - 1] != row[j])
        ]
        sizes = [t - s for s, t in zip(starts, [*starts[1:], n])]
        upper = [[entry(s, t) for t in starts[a + 1 :]] for a, s in enumerate(starts)]
        diagonal = [entry(s, s + 1) if size > 1 else zero for s, size in zip(starts, sizes)]
        return sizes, [[upper[b][a - b - 1] for b in range(a)] + [diagonal[a]] + upper[a] for a in range(len(starts))]

    def matrix(self, entry: Callable[[int, int], object], zero) -> tuple[tuple, ...]:
        """The symmetric n x n matrix with diagonal zero and entry(j, v) at j < v, spread from class_table."""
        sizes, table = self.class_table(entry, zero)
        rows: list[tuple] = []
        for a, values in enumerate(table):
            spread = list(chain.from_iterable(map(repeat, values, sizes)))
            for p in range(len(rows), len(rows) + sizes[a]):
                spread[p] = zero
                rows.append(tuple(spread))
                spread[p] = values[a]
        return tuple(rows)


def resistance_closed_form(code: ConstructionCode, j: int, v: int) -> Fraction:
    """Effective resistance between code positions j and v (1-based).

    Arguments in either order; j == v returns 0.
    """
    require_walk(code)
    n = code.n
    if not (1 <= j <= n and 1 <= v <= n):
        raise IndexOutOfRange(f"pair ({j}, {v}) outside 1..{n}")
    if j == v:
        return Fraction(0)
    if j > v:
        j, v = v, j
    prof = degree_profile(code)

    def dc(p: int) -> int:
        return prof.degrees[p - 1] + code.bits[p - 1]

    total = Fraction(j - 1, dc(j) * j) + Fraction(v, dc(v) * (v - 1))
    for i in range(j, v - 1):
        total += Fraction(1, dc(i + 1) * i * (i + 1))
    return total


def resistance_matrix(code: ConstructionCode) -> ResistanceProfile:
    """Exact profile: tau, moment numerators and Kemeny's constant; R, F, mu and alpha on demand.

    Builds the O(n) row and column terms as integers over one denominator.
    Raises NonIntegralEntry, naming the first entry in row order, when some
    tau * r is not an integer.
    """
    require_walk(code)
    n = code.n
    prof = degree_profile(code)
    d = prof.degrees
    # 0-based, R[j][v] = a[j] + b[v] for j < v, with a[0] = b[0] = 0, and
    #   a[p] = p / (lambda_p (p+1)) - prefix_p,  b[v] = (v+1) / (lambda_v v) + prefix_{v-1},
    #   prefix_i = sum_{t=1..i} 1 / (lambda_t t (t+1)), lambda_t = d_t + c_t.
    # Every term is a whole multiple of 1 / den: with s_t / den = 1 / (lambda_t t (t+1)),
    # a and b are the integer numerators row_p = p^2 s_p - prefix_p and col_v = (v+1)^2 s_v + prefix_{v-1}.
    spectrum = laplacian_spectrum(code)
    den, s = _reciprocals(spectrum.eigenvalues)
    prefix = list(accumulate(s))
    row = [0] + [p * p * s[p] - prefix[p] for p in range(1, n)]
    col = [0] + [(v + 1) * (v + 1) * s[v] + prefix[v - 1] for v in range(1, n)]

    tau = spectrum.tree_count()
    # F[0][v] = tau col[v] / den since row[0] = 0, and F[j][v] = (tau row[j] +
    # tau col[v]) / den: F is integral exactly when every paired term is, that
    # is when den' = den / gcd(tau, den) divides its numerator.  The first
    # fractional entry in row order is in row 0 if some column term is
    # fractional, else it is F[j][j+1] for the first fractional row term.
    divisor = den // math.gcd(tau, den)
    fractional = [(0, v) for v in range(1, n) if col[v] % divisor] or [
        (j, j + 1) for j in range(n - 1) if row[j] % divisor
    ]
    if fractional:
        j, v = fractional[0]
        raise NonIntegralEntry(f"tau * r = {Fraction(tau * (row[j] + col[v]), den)} is not an integer")

    kemeny = kemeny_from_code(code).exact
    # den * mu[v] = sum_{j<v} d_j (row_j + col_v) + sum_{j>v} d_j (row_v + col_j)
    mu_num = []
    d_before, drow_before = 0, 0
    d_after, dcol_after = 2 * prof.m, sum(dj * x for dj, x in zip(d, col))
    for v in range(n):
        d_after -= d[v]
        dcol_after -= d[v] * col[v]
        mu_num.append(drow_before + d_before * col[v] + d_after * row[v] + dcol_after)
        d_before += d[v]
        drow_before += d[v] * row[v]
    return ResistanceProfile(n, den, tuple(row), tuple(col), tau, tuple(mu_num), kemeny)


@dataclass(frozen=True)
class OrderingReport:
    """Pass/fail of every exact ordering check, with witnesses for failures.

    All entries are decided in integer comparisons on the row, column and
    moment numerators; no tolerance is involved anywhere.
    """

    case_i_equal: bool
    case_ii_leq: bool
    case_iii_strict: bool
    case_iv_leq: bool
    chain_zero_block: bool
    chain_one_block: bool
    degree_characterization: bool
    block_moment_ordering: bool
    s1_equality: bool
    witnesses: tuple[str, ...] = ()

    @property
    def all_pass(self) -> bool:
        return (
            self.case_i_equal
            and self.case_ii_leq
            and self.case_iii_strict
            and self.case_iv_leq
            and self.chain_zero_block
            and self.chain_one_block
            and self.degree_characterization
            and self.block_moment_ordering
            and self.s1_equality
        )


def verify_orderings(code: ConstructionCode) -> OrderingReport:
    """Run every exact ordering check for one connected code.

    Covers the four local comparison cases on F entries, the two global
    chains over block representatives, the degree characterization, and the
    block-level moment/accessibility ordering with its leading-run equality
    condition.
    """
    return _verify_orderings(code, resistance_matrix(code))


def _walk_rows(n: int, x: int, y: int, holds: Callable[[int], bool]) -> list[int]:
    """Every row i of n other than x and y, ascending, where holds(i) is false.

    The one walk over the rows in the ordering checks, taken only for a check
    that fails, to name its witnesses.
    """
    return [i for i in range(n) if i != x and i != y and not holds(i)]


def _verify_orderings(code: ConstructionCode, profile: ResistanceProfile) -> OrderingReport:
    """verify_orderings on an already built profile of the same code.

    In place of each F entry it compares f(i, p) = row[min(i, p)] +
    col[max(i, p)] = den * R[i][p], which is F[i][p] times the positive
    den / tau, so every verdict and witness is that of F; F itself is never
    built.  Each check is a chain of links, a relation between the entries
    of two positions in every row, and ``failing`` decides a link for all
    rows at once in a few integer comparisons.  Only a failing link walks
    the rows, and only its witnesses are formatted.
    """
    row, col = profile.row, profile.col
    bits = code.bits
    n = code.n
    d = degree_profile(code).degrees
    E = [x - y for x, y in zip(row, col)]
    witnesses: list[str] = []

    def f(i: int, p: int) -> int:
        return row[i] + col[p] if i < p else row[p] + col[i]

    def failing(x: int, y: int, before, after=None) -> list[int]:
        """Every i other than x and y, ascending, where before(f(i, x), f(i, y)) fails.

        ``after`` (default ``before``) replaces ``before`` for i > min(x, y).
        With lo < hi the two positions, f(i, x) - f(i, y) is col[x] - col[y]
        for every i < lo, row[x] - row[y] for every i > hi, and +-(c - E[i])
        with c = row[lo] - col[hi] and E[i] = row[i] - col[i] for lo < i < hi,
        the sign + when x = lo.  Each relation used here (==, <, <=, >=) holds
        on an interval of that difference, so one comparison decides the rows
        before, one the rows after, and c against the least and the greatest
        E[i] the rows between.  Only a failing link walks the rows, to name
        them.
        """
        after = after or before
        lo, hi = (x, y) if x < y else (y, x)
        if (lo == 0 or before(col[x], col[y])) and (hi == n - 1 or after(row[x], row[y])):
            between = E[lo + 1 : hi]
            if not between:
                return []
            c, least, most = row[lo] - col[hi], min(between), max(between)
            if (after(c, least) and after(c, most)) if x < y else (after(least, c) and after(most, c)):
                return []
        return _walk_rows(n, x, y, lambda i: (before if i < lo else after)(f(i, x), f(i, y)))

    # the four local cases, each a list of links (x, y, relation before both,
    # relation after the first), in one pass over the bits:
    # (i) equal adjacent bits: the two positions are twins;
    # (ii) mixed adjacent bits: the 1-position never beats the 0-position,
    # with equality exactly for the leading 01 pair;
    # (iii) zero, ones, zero: the earlier zero is strictly smaller;
    # (iv) one, zeros, one: the later one is at most the earlier one; equal
    # exactly when the later one ends the code and i precedes the earlier one.
    # A witness is formatted from its case's template with i, x and y, 1-based.
    cases: dict[str, list] = {"i": [], "ii": [], "iii": [], "iv": []}
    templates = {
        "i": "f[{0},{1}] != f[{0},{2}]",
        "ii": "pair ({1},{2}) fails at i={0}",
        "iii": "pair ({1},{2}) fails at i={0}",
        "iv": "pair ({2},{1}) fails at i={0}",
    }
    latest = [None, None]  # the last position seen of each bit
    for p, bit in enumerate(bits):
        if p and bits[p - 1] == bit:
            cases["i"].append((p - 1, p, eq, eq))
        elif p:
            rel = eq if p == 1 else lt
            cases["ii"].append((p, p - 1, rel, rel) if bit else (p - 1, p, rel, rel))
        q = latest[bit]
        if q is not None and p - q > 1:
            if bit:
                cases["iv"].append((p, q, eq if p == n - 1 else lt, lt))
            else:
                cases["iii"].append((q, p, lt, lt))
        latest[bit] = p
    ok_cases = []
    for case, checks in cases.items():
        found = [
            f"case {case}: " + templates[case].format(i + 1, x + 1, y + 1)
            for x, y, before, after in checks
            for i in failing(x, y, before, after)
        ]
        ok_cases.append(not found)
        witnesses += found

    # block representatives: start position of each run, in code order
    form = blocks(code)
    k = form.k
    zero_starts, one_starts = [], []
    pos = 0
    for s, t in form.pairs:
        zero_starts.append(pos)
        pos += s
        one_starts.append(pos)
        pos += t

    # the global chains over the block starts w_b (ones) and v_b (zeros),
    # for every row i:
    #   0 < F[i][w_k] <= F[i][w_{k-1}] < ... < F[i][w_1] <= F[i][v_1] < ... < F[i][v_k]
    # where i's own block is represented by another of its positions, or is
    # left out (its two links merge, '<' winning) when it has none.  Every
    # row but a block start reads the skeleton itself, so the rows that fail
    # a link are what failing() returns for it; a block start s reads s + 1
    # in its own place, and only its own two links differ.
    skeleton = [*reversed(one_starts), *zero_starts]
    runs = [*reversed(form.one_runs), *form.zero_runs]
    links = [le if ordinal in (0, k - 1) else lt for ordinal in range(k)]
    links += [lt] * k
    # 0 < f(i, w_k) for every row: the least is min(row[:w_k]) + col[w_k] over
    # the rows before w_k and row[w_k] + min(col[w_k + 1:]) over those after
    last = skeleton[0]
    failed = set()
    if (last and min(row[:last]) + col[last] <= 0) or (last < n - 1 and row[last] + min(col[last + 1 :]) <= 0):
        failed.update(_walk_rows(n, last, last, lambda i: f(i, last) > 0))
    for x, y, rel in zip(skeleton, skeleton[1:], links):
        failed.update(failing(x, y, rel))
    for t, s in enumerate(skeleton):
        values = [0 if t == 0 else f(s, skeleton[t - 1])]
        rels = [lt if t == 0 else links[t - 1]]
        if runs[t] > 1:
            values.append(f(s, s + 1))
            rels.append(links[t])
        elif links[t] is lt:
            rels[-1] = lt
        if t + 1 < 2 * k:
            values.append(f(s, skeleton[t + 1]))
        if not all(rel(x, y) for rel, x, y in zip(rels, values, values[1:])):
            failed.add(s)
    ok_chain_zero = ok_chain_one = True
    for i in sorted(failed):
        if bits[i]:
            ok_chain_one = False
            witnesses.append(f"one-block chain fails at i={i + 1}")
        else:
            ok_chain_zero = False
            witnesses.append(f"zero-block chain fails at i={i + 1}")

    # degree characterization: F entries are monotone against the reversed
    # degree order, and equal degrees force equal entries (twin blocks).
    # The full converse is not asserted: the equality branch of case (iv)
    # can tie entries across strictly different degrees.  Both relations are
    # transitive, so comparing neighbours in degree order decides every pair.
    # Row i's neighbours are the global neighbour pairs without i, plus the
    # pair around i, checked at row i alone.
    def degree_rel(w: int, v: int):
        return eq if d[w] == d[v] else ge

    by_degree = sorted(range(n), key=d.__getitem__)
    bad = [
        (i, r, w, v)
        for r, (w, v) in enumerate(zip(by_degree, by_degree[1:]))
        for i in failing(w, v, degree_rel(w, v))
    ]
    bad += [
        (i, r, w, v)
        for r, (w, i, v) in enumerate(zip(by_degree, by_degree[1:], by_degree[2:]))
        if not degree_rel(w, v)(f(i, w), f(i, v))
    ]
    ok_degree = not bad
    witnesses += [
        f"degree characterization fails at i={i + 1}, w={w + 1}, v={v + 1}" for i, _, w, v in sorted(bad)
    ]

    # block-level moment ordering, on mu_num = den * mu; alpha = mu - K is
    # ordered as mu by construction
    mu = profile.mu_num
    mu_zero = [mu[p] for p in zero_starts]
    mu_one = [mu[p] for p in one_starts]
    ok_blocks = all(mu_zero[b] > mu_zero[b - 1] for b in range(1, k))
    ok_blocks = ok_blocks and mu_zero[0] >= mu_one[0]
    ok_blocks = ok_blocks and all(mu_one[b - 1] > mu_one[b] for b in range(1, k))
    if not ok_blocks:
        witnesses.append("block moment ordering fails")
    s1_eq = (mu_zero[0] == mu_one[0]) == (form.zero_runs[0] == 1)
    if not s1_eq:
        witnesses.append("leading-run equality condition fails")

    return OrderingReport(
        *ok_cases,
        ok_chain_zero,
        ok_chain_one,
        ok_degree,
        ok_blocks,
        s1_eq,
        tuple(witnesses),
    )

