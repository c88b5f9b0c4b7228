"""Exhaustive extremal search for Kemeny's constant over all connected codes of one order.

The code space splits into ranges of SCREEN_SLAB consecutive indices, or one
range when the order has fewer codes, so the range size depends only on n.
Each range is one slab: a numpy float screen sums the terms of
``kemeny_from_code`` along ``spectral._positions`` for its up to
SLAB_BLOCKS blocks of codes at once.  Within a block a code's low part
enters the high positions' terms only through its count of ones and its
share of 2m, so the screen first bounds each block's groups of low parts
sharing those two numbers (299 groups of 4096 low parts), then evaluates
the members of the groups within ``SCREEN_WINDOW`` of the range's float
maximum, and only the codes within the window are evaluated exactly with
``kemeny_from_code``; every comparison that decides the result is between
exact rationals.  The ranges run one after another, in range order, in the
calling process.  Each range's exact maximum, with its ties in code order,
joins the running maximum as soon as the range is done; the reduction
compares rationals exactly, then range order, so the result is bitwise
reproducible.

Progress is checkpointed in a text file: a header line
``thresholdwalk-search <format version> <n> <range size>``, then one line
per completed range, ``<range> <num> <den> <code> [<code> ...]`` with all
the range's maximizers.  Ranges are written in range order, and read back in
any order.  A restart reproduces the identical report.  A last line
without its newline was cut by an interrupted write: it is dropped and its
range recomputed.  Any other mismatch raises ``CheckpointMismatch``.
"""

from __future__ import annotations

import contextlib
import functools
import math
import os
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .codes import code_count, code_from_index, parse_code, pineapple_r
from .errors import CheckpointMismatch, OrderOutOfRange, ParameterOutOfRange
from .kemeny import kemeny_from_code, max_with_ties
from .spectral import _positions

MIN_ORDER = 3
MAX_ORDER = 26
CHECKPOINT_VERSION = 2  # version 1 was the header-less format with one line per tie
LOW_BITS = 12  # index bits that vary inside a block, whose codes share their high bits
SLAB_BLOCKS = 16  # blocks per float pass
SCREEN_SLAB = SLAB_BLOCKS << LOW_BITS  # codes per slab, and per checkpointed range
# With s_i and lambda_i from ``spectral._positions`` and the term of
# ``kemeny_from_code``'s docstring, every integer the screen forms (s, 2m - s, their
# product, p (p+1) lambda_p, i (i+1), h - s, T + h, o + t) has modulus below 2 n^4,
# so below 2^53 for n < 8000, and only roundings err.  In the names of
# ``_screen_tables``, the screen sums terms to 2m (K - (n - 1)) and multiplies the
# sum by R = 1 / 2m = 1 / (T + h).  A high position i gives (h - s_i) q_i / lambda_i
# and T q_i / lambda_i, both of the sign of s_i since h - s_i >= 0, so their moduli
# add up to |s_i| (2m - s_i) / (i (i+1) lambda_i) <= (1 + i (i-1) / 2m) 2m
# <= (n/2) 2m, as |s_i| <= i (i-1), 2m - s_i <= 2m + i (i-1) and 2m >= 2 (n-1).
# A low position p gives a_p S_p (T - S_p) and h a_p (T - S_p), with
# T - S_p = 2m - s_p >= 0 and |S_p|, h <= p (p-1), so at most
# 2 (1 + p (p-1) / 2m) 2m <= n 2m.  Each position also carries
# -(T + h) c_p / lambda_p, of modulus at most 2m as c_p <= 1 <= lambda_p, so the
# moduli of the n - 1 positions' terms sum to at most (n - 1)(n + 1) 2m.
# Roundings per term, adding to a zero counted as exact:
# - low: at most 3 in forming a position's part of alpha or beta (a_p or c_p / lambda_p,
#   a product, the difference), k in summing the k + 1 low positions, then h beta,
#   alpha + h beta, + shared, R and the product by R: k + 8;
# - high: 3 in forming a weight entry and scaling by T (q_i, q_i - c_i and later T P_b;
#   or q_i, (h - s_i) q_i and the difference), first - 2 in summing it over the first - 1
#   high positions, 1 / (o + t), the product, first in P_b's or Q_b's sum of first + 1
#   entries, T P_b + Q_b, + alpha + h beta, R and the product by R: 2 first + 7.
# The largest alpha + h beta of a group is one member's float, picked, not rounded.
# With N = max(2 first + 7, k + 8) and u = 2^-53,
# |float - exact| <= N u / (1 - N u) (n - 1)(n + 1).  For n <= MAX_ORDER, first <= 13
# and k <= 12, so N <= 33 and the bound is below 33 * 675 * 1.111e-16 < 2.5e-12.
# The member that holds its group's largest reads the group's value, and no member
# reads above its group (``_member_values``), so the slab's largest group value is
# its largest member float, and an exact maximizer of the slab screens at most
# 5e-12 below it: the window keeps a margin of over 200x.  At n = 32 (first = 19)
# the same count gives N = 45, 5.2e-12, and a margin of under 100x.
SCREEN_WINDOW = 1e-9


@dataclass(frozen=True)
class SearchReport:
    """Outcome of one exhaustive sweep at order n.

    ``ties`` lists every code achieving the maximum, lexicographically;
    ``argmax_code`` is the first of them.  ``is_pineapple`` records whether
    any maximizer has the pineapple shape (with its r), which is the
    conjecture being probed.  ``predicted_asymptote`` is n + sqrt(n)/2 for
    charting the remainder.
    """

    n: int
    argmax_code: str
    k_exact: Fraction
    k_float: float
    is_pineapple: bool
    r: int | None
    ties: tuple[str, ...]
    codes_examined: int
    seconds: float
    predicted_asymptote: float


class _ScreenTables(NamedTuple):
    """Per-order tables of the screen, built by ``_screen_tables``."""

    k: int  # low bits of an index
    low_share: np.ndarray  # T of each (o, T) group of low parts, as floats
    members: list  # each group's low parts, ascending
    alpha: np.ndarray  # A0 - T C of each low part
    beta: np.ndarray  # A1 - C of each low part
    best: np.ndarray  # [h / 2, group]: the group's largest alpha + h beta
    reciprocals: np.ndarray  # [h / 2, group]: 1 / (T + h)
    inverses: np.ndarray  # [t - 1, group]: 1 / (o + t)
    weights: np.ndarray  # [0 or 1, block, t - 1]: W_P and W_Q
    half_h: np.ndarray  # h / 2 of each block


@functools.lru_cache(maxsize=1)
def _screen_tables(n: int) -> _ScreenTables:
    """Per-order tables of the screen: the low parts folded and grouped, and two weight rows per block.

    A low part L of an index is its last k = min(LOW_BITS, n - 2) bits, at positions
    first .. n - 2, plus the final 1 at n - 1.  ``_positions`` from first gives lambda_p
    and S_p = s_p - h, h the high part's share of 2m; with T the low share, 2m - s_p is
    T - S_p, all of L alone.  So the low terms of ``kemeny_from_code`` sum to
    alpha + h beta, alpha = A0 - T C and beta = A1 - C, with A0 = sum a_p S_p (T - S_p),
    A1 = sum a_p (T - S_p), a_p = 1 / (p (p+1) lambda_p), and C the sum of c_p / lambda_p.

    A block shares its high part, the bits at positions 1 .. first - 1, walked by
    ``_positions`` for every block of the order at once with the final 1 as the one later
    bit: lambda_i lacks only the o low ones before the final 1, so it is o + t,
    t = lambda_i from the walk and at most first + 1.  Position i adds
    (T + h - s_i) q_i / lambda_i - (T + h) c_i / lambda_i to 2m (K - (n - 1)),
    q_i = s_i / (i (i+1)): T / (o + t) times W_P = q_i - c_i and 1 / (o + t) times
    W_Q = (h - s_i) q_i - h c_i, summed per t into the block's two weight rows.  So with
    P_b(o) = sum_t W_P[b, t] / (o + t) and Q_b(o) likewise, code (b, L) screens as
    (alpha_L + h beta_L + T P_b(o) + Q_b(o)) / (T + h), which reads L only through
    alpha + h beta and its group (o, T): 299 groups of the 4096 low parts from n = 14.
    The shares h are the even numbers up to (first - 1) first (22 at n = 20, 79 at
    n = 26), so the largest alpha + h beta of each group, and 1 / (T + h), are tabled
    for every h / 2 and group.
    """
    k = min(LOW_BITS, n - 2)
    first = n - 1 - k
    low = np.arange(1 << k, dtype=np.int64)
    bits = [(low >> (n - 2 - p)) & 1 for p in range(first, n - 1)] + [np.ones_like(low)]
    two_m = sum(2 * p * b for p, b in zip(range(first, n), bits))
    alpha, beta = np.zeros(1 << k), np.zeros(1 << k)
    for p, c, s, lam in _positions(bits, first):
        a, c_lam = 1.0 / (p * (p + 1) * lam), c / lam
        alpha += a * (s * (two_m - s)) - two_m * c_lam
        beta += a * (two_m - s) - c_lam
    keys, group = np.unique(two_m * (k + 1) + sum(bits[:-1]), return_inverse=True)
    order = np.argsort(group, kind="stable")
    starts = np.concatenate([[0], np.cumsum(np.bincount(group))[:-1]])

    high = np.arange(1 << (first - 1))
    bits = [(high >> (first - 1 - i)) & 1 for i in range(1, first)]
    h = sum((2 * i * c for i, c in enumerate(bits, 1)), np.zeros_like(high))
    weights = np.zeros((2, len(high), first + 1))
    for i, c, s, lam in _positions(bits, later=1):
        q = s / (i * (i + 1))
        weights[0, high, lam - 1] += q - c
        weights[1, high, lam - 1] += (h - s) * q - h * c
    shares = np.arange(0, h.max() + 1, 2)[:, None]
    low_share, ones = np.divmod(keys, k + 1)
    return _ScreenTables(
        k=k,
        low_share=low_share.astype(float),
        members=np.split(order, starts[1:]),
        alpha=alpha,
        beta=beta,
        best=np.maximum.reduceat((alpha + shares * beta)[:, order], starts, axis=1),
        reciprocals=1.0 / (low_share + shares),
        inverses=1.0 / (ones + np.arange(1, first + 2)[:, None]),
        weights=weights,
        half_h=h // 2,
    )


def _group_values(n: int, slab: int) -> tuple[np.ndarray, np.ndarray]:
    """Float upper bounds of K - (n - 1) over each group of each block of slab number slab.

    Row b, column g is (E + T P_b(o) + Q_b(o)) / (T + h) of ``_screen_tables``, E the
    group's largest alpha + h beta: one small matrix product gives every block's P_b and
    Q_b at every group's o.  Also returns the shared part T P_b(o) + Q_b(o) that
    ``_member_values`` adds in the same order.
    """
    tables = _screen_tables(n)
    blocks = slice(slab * SLAB_BLOCKS, (slab + 1) * SLAB_BLOCKS)
    p, q = np.matmul(tables.weights[:, blocks], tables.inverses)
    shared = tables.low_share * p + q
    half = tables.half_h[blocks]
    return (tables.best[half] + shared) * tables.reciprocals[half], shared


def _member_values(n: int, slab: int, block: int, group: int, shared: float) -> tuple[np.ndarray, np.ndarray]:
    """The low parts of one group of a slab's block, ascending, and the float K - (n - 1) of each.

    Each member is evaluated as ``_group_values`` evaluates its group, with its own
    alpha + h beta in place of the group's largest.  Rounded addition and multiplication
    by a positive number are monotone, so no member reads above its group, and the
    member holding the largest reads exactly the group's value.
    """
    tables = _screen_tables(n)
    lows = tables.members[group]
    half = int(tables.half_h[slab * SLAB_BLOCKS + block])
    return lows, (tables.alpha[lows] + 2 * half * tables.beta[lows] + shared) * tables.reciprocals[half, group]


def _chunk_best(n: int, slab: int) -> tuple[int, int, tuple[str, ...]]:
    """Exact maximum over the codes of one slab; ties kept in code order.

    The slab's groups are screened once by ``_group_values``; the members of every
    group within SCREEN_WINDOW of the slab's float maximum are screened by
    ``_member_values``, and those within the window are confirmed with exact
    ``kemeny_from_code``.  The derivation at SCREEN_WINDOW shows no exact maximizer of
    the slab lies outside them.  Confirmed values are reduced exactly in code order by
    ``max_with_ties``.
    """
    values, shared = _group_values(n, slab)
    floor = values.max() - SCREEN_WINDOW
    k, groups = _screen_tables(n).k, values.shape[1]
    offsets = []
    for hit in np.flatnonzero(values >= floor).tolist():
        block, group = divmod(hit, groups)
        lows, floats = _member_values(n, slab, block, group, shared[block, group])
        offsets.append((block << k) + lows[floats >= floor])
    indices = slab * SCREEN_SLAB + np.sort(np.concatenate(offsets))
    confirmed = (code_from_index(n, index) for index in indices.tolist())
    best, ties = max_with_ties((str(code), kemeny_from_code(code).exact) for code in confirmed)
    return best.numerator, best.denominator, tuple(ties)


def _parse_record(line: str, n: int, span: int):
    """(range id, (num, den, ties)) from one checkpoint record, or None when malformed."""
    fields = line.split()
    if len(fields) < 4 or not all(field.isdigit() for field in fields[:3]):
        return None
    chunk_id, num, den = (int(field) for field in fields[:3])
    ties = tuple(fields[3:])
    if den == 0:
        return None
    for code_str in ties:  # at least one, and each in range chunk_id, which therefore exists
        if len(code_str) != n or code_str[0] != "0" or code_str[-1] != "1" or set(code_str) - {"0", "1"}:
            return None
        if int(code_str[1:-1], 2) // span != chunk_id:
            return None
    return chunk_id, (num, den, ties)


def _read_checkpoint(path: str, n: int, span: int):
    """Completed ranges of span codes recorded at path; creates the file or cuts it back to whole records."""
    header = f"thresholdwalk-search {CHECKPOINT_VERSION} {n} {span}\n"
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except FileNotFoundError:
        data = b""
    whole = data.rfind(b"\n") + 1  # bytes after the last newline are a torn record
    try:
        lines = data[:whole].decode("ascii").splitlines(keepends=True)
    except UnicodeDecodeError:
        raise CheckpointMismatch(f"checkpoint {path} is not an ASCII text file") from None
    if lines and lines[0] != header:
        raise CheckpointMismatch(
            f"checkpoint {path} starts with {lines[0].strip()!r}, this search needs {header.strip()!r}"
        )
    done = {}
    for number, line in enumerate(lines[1:], start=2):
        record = _parse_record(line, n, span)
        if record is None or record[0] in done:
            raise CheckpointMismatch(f"checkpoint {path} line {number} is malformed: {line.strip()!r}")
        done[record[0]] = record[1]
    if not lines:
        with open(path, "w", encoding="ascii") as handle:
            handle.write(header)
    elif whole < len(data):
        os.truncate(path, whole)
    return done


def _outcomes(n: int, span: int, checkpoint: str | None):
    """(num, den, ties) of each range of span codes, in range order: read from the checkpoint, or
    screened by ``_chunk_best`` and appended to it through one handle held for the whole search."""
    done = _read_checkpoint(checkpoint, n, span) if checkpoint else {}
    with open(checkpoint, "a", encoding="ascii") if checkpoint else contextlib.nullcontext() as records:
        for slab in range(code_count(n) // span):
            outcome = done.pop(slab, None)
            if outcome is None:
                num, den, ties = outcome = _chunk_best(n, slab)
                if records:
                    records.write(f"{slab} {num} {den} {' '.join(ties)}\n")
                    records.flush()
            yield outcome


def max_kemeny_search(n: int, threads: int = 1, checkpoint: str | None = None) -> SearchReport:
    """Exact argmax of Kemeny's constant over every connected code of order n.

    Runs in the calling process in one pass over the ranges in range order:
    each range is one slab, the codes whose interior-bit prefix is its
    number, and ties resolve to the smallest code.  ``checkpoint`` names a
    line-oriented progress file; completed ranges found there are not
    recomputed, each new range's record is flushed to it as the range ends,
    and a file written for another order or range size raises
    CheckpointMismatch.  ``threads`` must be at least 1 and changes neither
    the report nor the checkpoint; it is kept only because the benchmark
    harness passes it, and goes when the harness is retargeted.
    """
    if not MIN_ORDER <= n <= MAX_ORDER:
        raise OrderOutOfRange(f"exhaustive search supports {MIN_ORDER} <= n <= {MAX_ORDER}, got {n}")
    if threads < 1:
        raise ParameterOutOfRange(f"threads must be >= 1, got {threads}")
    started = time.perf_counter()
    total = code_count(n)
    outcomes = _outcomes(n, min(total, SCREEN_SLAB), checkpoint)
    best, ties = max_with_ties((code_str, Fraction(num, den)) for num, den, chunk in outcomes for code_str in chunk)
    shapes = (pineapple_r(parse_code(code_str)) for code_str in ties)
    r = next((shape for shape in shapes if shape is not None), None)
    return SearchReport(
        n=n,
        argmax_code=ties[0],
        k_exact=best,
        k_float=float(best),
        is_pineapple=r is not None,
        r=r,
        ties=tuple(ties),
        codes_examined=total,
        seconds=time.perf_counter() - started,
        predicted_asymptote=n + math.sqrt(n) / 2.0,
    )


def _checkpoint_in(directory: str, n: int) -> str:
    """The checkpoint file of the order-n search inside directory."""
    return os.path.join(directory, f"search_n{n}.checkpoint")


def verify_conjecture_range(n_min: int, n_max: int, checkpoint_dir: str | None = None) -> list[SearchReport]:
    """One exhaustive report per order in [n_min, n_max].

    Flags (via ``is_pineapple``) any order whose maximizer is not of
    pineapple shape; the remainder against n + sqrt(n)/2 is derivable from
    each report.
    """
    if not (MIN_ORDER <= n_min <= n_max <= MAX_ORDER):
        raise OrderOutOfRange(
            f"range must satisfy {MIN_ORDER} <= n_min <= n_max <= {MAX_ORDER}, got [{n_min}, {n_max}]"
        )
    reports = []
    for n in range(n_min, n_max + 1):
        path = _checkpoint_in(checkpoint_dir, n) if checkpoint_dir else None
        reports.append(max_kemeny_search(n, checkpoint=path))
    return reports
