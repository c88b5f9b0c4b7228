"""Exhaustive extremal search for Kemeny's constant over all connected codes of one order.

The code space splits into ranges of SCREEN_SLAB consecutive indices, or one
range when the order has fewer codes, so the range size depends only on n.
Each range is one slab: a numpy float screen sums the terms of
``kemeny_from_code`` along ``spectral._positions`` for its up to
SLAB_BLOCKS blocks of codes at once, with one folded weight row per block,
one matrix product and one cached row of reciprocals of 2m per block, and
only the codes within ``SCREEN_WINDOW`` of the range's float maximum are
evaluated exactly with ``kemeny_from_code``; every comparison that decides
the result is between exact rationals.  The ranges run one after another
in the calling process.  Each range keeps its exact maximum with its ties in
code order, and the reduction compares rationals exactly, then range order,
so the result is bitwise reproducible.

Progress is checkpointed in a text file: a header line
``thresholdwalk-search <format version> <n> <range size>``, then one line
per completed range, ``<range> <num> <den> <code> [<code> ...]`` with all
the range's maximizers.  Ranges are written in range order, and read back in
any order.  A restart reproduces the identical report.  A last line
without its newline was cut by an interrupted write: it is dropped and its
range recomputed.  Any other mismatch raises ``CheckpointMismatch``.
"""

from __future__ import annotations

import functools
import math
import os
import threading
import time
from dataclasses import dataclass
from fractions import Fraction

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
# OpenBLAS runs a product of up to 65536 * 4 multiply-adds on one thread and threads
# larger ones.  Keeping to one thread leaves the other cores to the caller: searches
# run at once in threads or processes would otherwise oversubscribe them.
BLAS_ONE_THREAD = 1 << 18
# With s_i and lambda_i from ``spectral._positions`` and the term of
# ``kemeny_from_code``'s docstring, for n <= MAX_ORDER every integer of a term
# (s, 2m - s, their product, i (i+1) lambda_i) is far below 2^53, so only
# roundings err.  In the names of ``_screen_tables`` and ``_screen``, the screen
# sums terms to 2m (K - (n - 1)) - 2m C, C the sum of the c_i / lambda_i, and
# multiplies the sums by 1 / 2m = 1 / (T + h).  A high position i gives
# (h - s_i) q_i / lambda_i and T q_i / lambda_i, both of the sign of s_i since
# h - s_i >= 0, so their moduli add up to
# |s_i| (2m - s_i) / (i (i+1) lambda_i) <= (1 + i (i-1) / 2m) 2m
# <= (n/2) 2m, as |s_i| <= i (i-1), 2m - s_i <= 2m + i (i-1) and 2m >= 2 (n-1).
# A low position p gives a_p S_p (T - S_p) and h a_p (T - S_p), with
# T - S_p = 2m - s_p >= 0 and |S_p|, h <= p (p-1), so at most
# 2 (1 + p (p-1) / 2m) 2m <= n 2m.  Each position also carries
# -(T + h) c_p / lambda_p, of modulus at most 2m as c_p <= 1 <= lambda_p, so the
# moduli of the n - 1 positions' terms sum to at most (n - 1)(n + 1) 2m.  A
# term meets at most seven roundings in being formed and scaled (q_i, the
# folded weight (h - s_i) q_i - h c_i or q_i - c_i, 1 / lambda, the factor T of
# the table's lower half, the product, 1 / (T + h), the product by it), at most k
# additions in a low table's sum over the k + 1 low positions or in one weight
# entry's sum over high positions (first - 2 <= k for n <= MAX_ORDER), and at
# most 2 first + 5 in the matrix product, whose weight row has at most
# 2 (first + 1) + 4 nonzero entries.  That is 2 first + k + 12 = 2n - k + 10
# <= 50 roundings, so with u = 2^-53,
# |float - exact| <= 50 u (n - 1)(n + 1) < 50 * 675 * 1.111e-16 < 3.8e-12 at
# n = 26.  An exact maximizer of a range therefore screens at most 7.6e-12
# below the range's float maximum; the window keeps a margin of over 130x.
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


@functools.lru_cache(maxsize=1)
def _screen_tables(n: int):
    """Per-order tables of the screen: the low positions folded, and one weight row per block.

    A low part L of an index is its last k = min(LOW_BITS, n - 2) bits, at positions
    first .. n - 2, plus the final 1 at n - 1.  ``_positions`` from first gives lambda_p
    and S_p = s_p - h, h the high part's share of 2m; with T the low share, 2m - s_p is
    T - S_p, all of L alone.  So the low terms of ``kemeny_from_code`` sum to A0 + h A1,
    A0 = sum a_p S_p (T - S_p), A1 = sum a_p (T - S_p), a_p = 1 / (p (p+1) lambda_p).
    The table has a column per low part: rows 1 / (ones + t) for t = 1 .. first + 1, then
    A0, A1 and C, the sum of c_p / lambda_p; below them the same rows times T.

    A block shares its high part, the bits at positions 1 .. first - 1, walked by
    ``_positions`` for every block of the order at once with the final 1 as the one later
    bit: lambda_i lacks only the low ones, so 1 / lambda_i is row lambda_i - 1 <= first of
    the table (at most first - i high ones, the final 1 and i c_i).  Position i adds
    (T + h - s_i) q_i / lambda_i to 2m (K - (n - 1)), q_i = s_i / (i (i+1)), and
    c_i / lambda_i to C.  Over 2m = T + h, a block's values are
    [A | B] . [column ; T column] / (T + h), its folded weight row [A | B] having
    A = (terms without T) - h (C's weights) and B = (factors of T) - (C's weights).
    The shares h are the even numbers up to (first - 1) first (22 at n = 20, 79 at
    n = 26), so 1 / (T + h) is row h / 2 of a table of reciprocals.  Returns k, the
    stacked table, the weight rows, the reciprocal rows and h / 2 per block.
    """
    k = min(LOW_BITS, n - 2)
    first = n - 1 - k
    low = np.arange(1 << k, dtype=np.int64)
    bits = [(low >> (n - 2 - p)) & 1 for p in range(first, n - 1)] + [np.ones_like(low)]
    ones = sum(bits[:-1])
    two_m = sum(2 * p * b for p, b in zip(range(first, n), bits))
    a0, a1, c_sum = np.zeros(1 << k), np.zeros(1 << k), np.zeros(1 << k)
    for p, c, s, lam in _positions(bits, first):
        a = 1.0 / (p * (p + 1) * lam)
        a0 += a * (s * (two_m - s))
        a1 += a * (two_m - s)
        c_sum += c / lam
    inv_ones = 1.0 / (ones + np.arange(1, first + 2, dtype=float)[:, None])
    table, t = np.vstack([inv_ones, a0, a1, c_sum]), two_m.astype(float)

    high = np.arange(1 << (first - 1))
    bits = [(high >> (first - 1 - i)) & 1 for i in range(1, first)]
    h = sum((2 * i * c for i, c in enumerate(bits, 1)), np.zeros_like(high))
    rows = len(table)
    weights = np.zeros((len(high), 2 * rows))
    weights[:, first + 1] = 1  # A0
    weights[:, first + 2] = h  # h A1
    weights[:, first + 3] = -h  # -h C
    weights[:, -1] = -1  # -T C
    for i, c, s, lam in _positions(bits, later=1):
        q = s / (i * (i + 1))
        weights[high, lam - 1] += (h - s) * q - h * c
        weights[high, rows + lam - 1] += q - c
    reciprocals = 1.0 / (t + np.arange(0, h.max() + 1, 2)[:, None])
    return k, np.vstack([table, t * table]), weights, reciprocals, h // 2


# Each thread's buffer for one slab of screen values.  Reusing it spares a slab's
# 512 KB of fresh pages per call; keeping one per thread keeps threads that search
# at once from writing into each other's values.
_scratch = threading.local()


def _screen(n: int, slab: int) -> np.ndarray:
    """Float K - (n - 1) of every code of slab number slab, in index order from slab * SCREEN_SLAB.

    Evaluates the term of ``kemeny_from_code`` as ``_screen_tables`` folds it: the weight rows
    of the slab's blocks times the table's columns in one matrix product, in column chunks
    of at most BLAS_ONE_THREAD multiply-adds so that OpenBLAS keeps to one thread, then
    each block's values scaled in place by its row of reciprocals of T + h.  The values are
    written into this thread's buffer: the view returned is overwritten by the thread's
    next call.
    """
    k, table, all_weights, reciprocals, half_h = _screen_tables(n)
    blocks = slice(slab * SLAB_BLOCKS, (slab + 1) * SLAB_BLOCKS)
    weights = all_weights[blocks]
    if not hasattr(_scratch, "values"):
        _scratch.values = np.empty(SCREEN_SLAB)
    out = _scratch.values[: len(weights) << k].reshape(len(weights), 1 << k)
    step = BLAS_ONE_THREAD // weights.size
    for j in range(0, 1 << k, step):
        np.matmul(weights, table[:, j : j + step], out=out[:, j : j + step])
    for row, half in zip(out, half_h[blocks].tolist()):
        row *= reciprocals[half]
    return out.reshape(-1)


def _chunk_best(n: int, slab: int) -> tuple[int, int, tuple[str, ...]]:
    """Exact maximum over the codes of one slab; ties kept in code order.

    The slab is screened once by ``_screen``, and the codes within SCREEN_WINDOW
    of its float maximum are confirmed with exact ``kemeny_from_code``; the
    derivation at SCREEN_WINDOW shows no exact maximizer of the slab lies
    outside them.  Confirmed values are reduced exactly in code order by
    ``max_with_ties``.
    """
    approx = _screen(n, slab)
    offsets = np.flatnonzero(approx >= approx.max() - SCREEN_WINDOW)
    confirmed = (code_from_index(n, index) for index in (slab * SCREEN_SLAB + offsets).tolist())
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


def _append_checkpoint(path: str | None, chunk_id: int, result) -> None:
    if not path:
        return
    num, den, ties = result
    with open(path, "a", encoding="ascii") as handle:
        handle.write(f"{chunk_id} {num} {den} {' '.join(ties)}\n")
        handle.flush()


def max_kemeny_search(n: int, threads: int = 1, checkpoint: str | None = None) -> SearchReport:
    """Exact argmax of Kemeny's constant over every connected code of order n.

    Runs in the calling process: each range is one slab, the codes whose
    interior-bit prefix is its number, reduction runs in range order, and
    ties resolve to the smallest code.  ``checkpoint`` names a line-oriented
    progress file; completed ranges found there are not recomputed, and a
    file written for another order or range size raises CheckpointMismatch.
    ``threads`` must be at least 1 and changes neither the report nor the
    checkpoint.
    """
    if not MIN_ORDER <= n <= MAX_ORDER:
        raise OrderOutOfRange(f"exhaustive search supports {MIN_ORDER} <= n <= {MAX_ORDER}, got {n}")
    if threads < 1:
        raise ParameterOutOfRange(f"threads must be >= 1, got {threads}")
    started = time.perf_counter()
    total = code_count(n)
    span = min(total, SCREEN_SLAB)
    ranges = total // span
    results = _read_checkpoint(checkpoint, n, span) if checkpoint else {}
    pending = [slab for slab in range(ranges) if slab not in results]

    for slab in pending:
        outcome = _chunk_best(n, slab)
        results[slab] = outcome
        _append_checkpoint(checkpoint, slab, outcome)

    in_order = [results[slab] for slab in range(ranges)]
    best, ties = max_with_ties((code_str, Fraction(num, den)) for num, den, chunk in in_order for code_str in chunk)
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


def verify_conjecture_range(
    n_min: int,
    n_max: int,
    threads: int = 1,
    checkpoint_dir: str | None = None,
) -> list[SearchReport]:
    """One exhaustive report per order in [n_min, n_max].

    Flags (via ``is_pineapple``) any order whose maximizer is not of
    pineapple shape; the remainder against n + sqrt(n)/2 is derivable from
    each report.  ``threads`` is passed to ``max_kemeny_search`` and changes
    neither the reports nor the checkpoints.
    """
    if not (MIN_ORDER <= n_min <= n_max <= MAX_ORDER):
        raise OrderOutOfRange(
            f"range must satisfy {MIN_ORDER} <= n_min <= n_max <= {MAX_ORDER}, got [{n_min}, {n_max}]"
        )
    reports = []
    for n in range(n_min, n_max + 1):
        path = _checkpoint_in(checkpoint_dir, n) if checkpoint_dir else None
        reports.append(max_kemeny_search(n, threads=threads, checkpoint=path))
    return reports
