"""Exhaustive extremal search for Kemeny's constant over all connected codes of one order.

The code space splits into contiguous index ranges whose size depends only
on n and ``chunk_codes``.  Inside a range a numpy float screen sums the
terms of ``kemeny_from_code`` along ``spectral._positions`` for a block of
codes at once, and only the codes within ``SCREEN_WINDOW`` of their range's
float maximum are evaluated exactly with ``kemeny_from_code``; every
comparison that decides the result is between exact rationals.  Each range
keeps its exact maximum with its ties in code order, and the reduction
compares rationals exactly, then range order, so the result is bitwise
reproducible for any worker count.

Progress is checkpointed in a text file: a header line
``thresholdwalk-search <format version> <n> <range size>``, then one line
per completed range, in the order the ranges finish,
``<range> <num> <den> <code> [<code> ...]`` with all the range's
maximizers.  A restart reproduces the identical report.  A last line
without its newline was cut by an interrupted write: it is dropped and its
range recomputed.  Any other mismatch raises ``CheckpointMismatch``.
"""

from __future__ import annotations

import functools
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .codes import ConstructionCode, code_count, code_from_index, pineapple_r
from .errors import CheckpointMismatch, OrderOutOfRange, ParameterOutOfRange, WorkerFailure
from .kemeny import kemeny_from_code
from .spectral import _positions

MIN_ORDER = 3
MAX_ORDER = 26
CHECKPOINT_INTERVAL = 1 << 16  # codes per checkpointed range
CHECKPOINT_VERSION = 2  # version 1 was the header-less format with one line per tie
LOW_BITS = 12  # index bits that vary inside one screened block
SCREEN_BLOCK = 1 << LOW_BITS  # codes per float pass; keeps the screen's arrays small
# Starting two worker processes costs about 20-30 ms, and each worker must
# get at least this many codes to pay for it.  On 2 cores (medians of 5,
# alternating) one process beat two workers at n = 23 (2^21 codes), n = 24
# went either way from one session to the next, and two workers won from
# n = 25 (2^23 codes, about 260 against 220 ms) on.
POOL_MIN_CODES = 1 << 22
# With s_i and lambda_i from ``spectral._positions`` and the term of
# ``kemeny_from_code``'s docstring, for n <= MAX_ORDER every integer of a term
# (s, 2m - s, their product, i (i+1) lambda_i) is far below 2^53, so only
# roundings err.  In the names of ``_low_tables`` and ``_screen``, the screen
# sums terms to 2m (K - (n - 1)), divides by 2m and subtracts a second sum, of
# the c_i / lambda_i <= 1.  A high position i gives (h - s_i) q_i / lambda_i and
# T q_i / lambda_i, both of the sign of s_i since h - s_i >= 0, so their
# moduli add up to |s_i| (2m - s_i) / (i (i+1) lambda_i) <= (1 + i (i-1) / 2m) 2m
# <= (n/2) 2m, as |s_i| <= i (i-1), 2m - s_i <= 2m + i (i-1) and 2m >= 2 (n-1).
# A low position p gives a_p S_p (T - S_p) and h a_p (T - S_p), with
# T - S_p = 2m - s_p >= 0 and |S_p|, h <= p (p-1), so at most
# 2 (1 + p (p-1) / 2m) 2m <= n 2m.  Each term meets at most n + 6 roundings:
# at most seven in forming it, applying 1 / lambda and the last steps (the
# factor T, the addition, the division, the subtraction), and at most n - 1
# in the sums of the folded tables, the Python weights and the matrix
# product.  So with u = 2^-53,
# |float - exact| <= (n + 6) u (n - 1)(n + 1) < (n + 6) u n^2, under
# 32 * 676 * 1.2e-16 < 3e-12 at n = 26.  An exact maximizer of a range
# therefore screens at most 6e-12 below the range's float maximum, and below
# its own block's; the window keeps a margin of over 150x.
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
def _low_tables(n: int):
    """Per-order tables of the screen: the low positions folded, and the 1 / lambda rows.

    A low part L of an index is its last k = min(LOW_BITS, n - 2) bits, at positions
    first .. n - 2, plus the final 1 at n - 1.  ``_positions`` from first gives lambda_p
    and S_p = s_p - h, h the high part's share of 2m; with T the low share, 2m - s_p is
    T - S_p, all of L alone.  So the low terms of ``kemeny_from_code`` sum to A0 + h A1,
    A0 = sum a_p S_p (T - S_p), A1 = sum a_p (T - S_p), a_p = 1 / (p (p+1) lambda_p).
    Returns k, first, T and one table with a column per low part: rows 1 / (ones + t) for
    t = 1 .. first + 1, all the high positions need (see ``_screen``), then A0, A1 and the
    sum of c_p / lambda_p.
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
    return k, first, two_m.astype(float), np.vstack([inv_ones, a0, a1, c_sum])


def _screen(n: int, start: int, stop: int) -> np.ndarray:
    """Float K - (n - 1) of the codes with index in [start, stop), all in one block.

    Evaluates the term of ``kemeny_from_code``.  The high positions 1 .. first - 1 take the
    block's common bits as scalars, walked by ``_positions`` with the final 1 as the one later
    bit: lambda_i lacks only the low ones, so 1 / lambda_i is row lambda_i - 1 <= first of
    the table (at most first - i high ones, the final 1 and i c_i).  Position i adds
    (T + h - s_i) q_i / lambda_i to 2m (K - (n - 1)), q_i = s_i / (i (i+1)), and
    c_i / lambda_i to the sum subtracted.  Three weight rows over the table, summed per row
    in Python, give the terms without T, the factor of T and the subtracted sum in one
    matrix product with the block's columns.
    """
    k, first, two_m_low, table = _low_tables(n)
    high = start >> k
    lo, hi = start - (high << k), stop - (high << k)
    bits = [(high >> (first - 1 - i)) & 1 for i in range(1, first)]
    h = sum(2 * i * c for i, c in enumerate(bits, 1))
    free = [0.0] * (first + 1) + [1, h, 0]  # A0 + h A1
    t_factor = [0.0] * len(free)
    minus = [0] * (len(free) - 1) + [1]  # the low sum of c_p / lambda_p
    for i, c, s, lam in _positions(bits, later=1):
        q = s / (i * (i + 1))
        free[lam - 1] += (h - s) * q
        t_factor[lam - 1] += q
        minus[lam - 1] += c
    free, t_factor, minus = np.array([free, t_factor, minus], dtype=float) @ table[:, lo:hi]
    t = two_m_low[lo:hi]
    return (free + t * t_factor) / (t + h) - minus


def _chunk_best(task: tuple[int, int, int]) -> tuple[int, int, tuple[str, ...]]:
    """Exact maximum over the index window [start, stop); ties kept in code order.

    The window is screened by ``_screen`` in blocks, the aligned runs of
    SCREEN_BLOCK indices that share their high bits.  A block keeps the codes
    within SCREEN_WINDOW of its float maximum, unless that maximum is already
    more than SCREEN_WINDOW below the window's running float maximum.  Once
    the window is screened, the kept codes within SCREEN_WINDOW of its float
    maximum are confirmed with exact ``kemeny_from_code``; the derivation at
    SCREEN_WINDOW shows no exact maximizer of the window lies outside it.
    Confirmed values are reduced exactly in code order: a larger value
    replaces the ties, an equal one joins them.
    """
    n, start, stop = task
    top = -math.inf  # float maximum of the blocks screened so far
    kept: list[tuple[int, float]] = []  # (index, float value), in code order
    lo = start
    while lo < stop:
        hi = min((lo // SCREEN_BLOCK + 1) * SCREEN_BLOCK, stop)
        approx = _screen(n, lo, hi)
        block_top = float(approx.max())
        if block_top >= top - SCREEN_WINDOW:
            top = max(top, block_top)
            offsets = np.flatnonzero(approx >= block_top - SCREEN_WINDOW)
            kept.extend(zip((lo + offsets).tolist(), approx[offsets].tolist()))
        lo = hi
    best: Fraction | None = None
    ties: list[str] = []
    for index, approx_value in kept:
        if approx_value < top - SCREEN_WINDOW:
            continue
        code = code_from_index(n, index)
        value = kemeny_from_code(code).exact
        if best is None or value > best:
            best, ties = value, [str(code)]
        elif value == best:
            ties.append(str(code))
    return best.numerator, best.denominator, tuple(ties)


def _plan_chunks(total: int, chunk_codes: int) -> list[tuple[int, int]]:
    """Index ranges of equal power-of-two size, at most chunk_codes each where possible."""
    want = -(-total // chunk_codes)
    chunks = 1
    while chunks < want:
        chunks <<= 1
    chunks = min(chunks, total)
    span = total // chunks  # both are powers of two
    return [(c * span, (c + 1) * span) for c in range(chunks)]


def _parse_record(line: str, n: int, ranges: list[tuple[int, int]]):
    """(range id, (num, den, ties)) from one checkpoint record, or None when malformed."""
    fields = line.split()
    if len(fields) < 4 or not all(field.isdigit() for field in fields[:3]):
        return None
    chunk_id, num, den = (int(field) for field in fields[:3])
    ties = tuple(fields[3:])
    if chunk_id >= len(ranges) or den == 0:
        return None
    lo, hi = ranges[chunk_id]
    for code_str in ties:
        if len(code_str) != n or code_str[0] != "0" or code_str[-1] != "1" or set(code_str) - {"0", "1"}:
            return None
        if not lo <= int(code_str[1:-1], 2) < hi:
            return None
    return chunk_id, (num, den, ties)


def _read_checkpoint(path: str, n: int, ranges: list[tuple[int, int]]):
    """Completed ranges recorded at path; creates the file or cuts it back to whole records."""
    header = f"thresholdwalk-search {CHECKPOINT_VERSION} {n} {ranges[0][1] - ranges[0][0]}\n"
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
        record = _parse_record(line, n, ranges)
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


def max_kemeny_search(
    n: int,
    threads: int = 1,
    checkpoint: str | None = None,
    chunk_codes: int = CHECKPOINT_INTERVAL,
) -> SearchReport:
    """Exact argmax of Kemeny's constant over every connected code of order n.

    Deterministic for any thread count: ranges are fixed by the interior-bit
    prefix and ``chunk_codes``, reduction runs in range order, and ties
    resolve to the smallest code.  ``checkpoint`` names a line-oriented
    progress file; completed ranges found there are not recomputed, and a
    file written for another order or range size raises CheckpointMismatch.
    Worker processes are started only when each gets a pending range and
    at least POOL_MIN_CODES codes; smaller searches run in this process.
    A worker that dies raises WorkerFailure; every range that finished
    before it stays in the checkpoint, and a re-run resumes from them.
    """
    if not MIN_ORDER <= n <= MAX_ORDER:
        raise OrderOutOfRange(f"exhaustive search supports {MIN_ORDER} <= n <= {MAX_ORDER}, got {n}")
    if threads < 1:
        raise ParameterOutOfRange(f"threads must be >= 1, got {threads}")
    if chunk_codes < 1:
        raise ParameterOutOfRange(f"chunk_codes must be >= 1, got {chunk_codes}")
    started = time.perf_counter()
    total = code_count(n)
    ranges = _plan_chunks(total, chunk_codes)
    results = _read_checkpoint(checkpoint, n, ranges) if checkpoint else {}
    pending = [(cid, (n, lo, hi)) for cid, (lo, hi) in enumerate(ranges) if cid not in results]

    workers = min(threads, len(pending), sum(hi - lo for _, (_, lo, hi) in pending) // POOL_MIN_CODES)
    if workers > 1:
        broken = None
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = {pool.submit(_chunk_best, task): cid for cid, task in pending}
            # record each range as it finishes: when a worker dies, every range
            # finished before it, in any order, stays in the checkpoint
            for future in as_completed(futures):
                try:
                    outcome = future.result()
                except BrokenProcessPool as exc:
                    broken = exc
                    continue
                results[futures[future]] = outcome
                _append_checkpoint(checkpoint, futures[future], outcome)
        if broken is not None:
            kept = (
                f"{len(results)} of {len(ranges)} ranges are checkpointed in {checkpoint}; "
                "a re-run resumes"
                if checkpoint
                else "no checkpoint was given; a re-run starts over"
            )
            raise WorkerFailure(f"a worker process died; {kept}") from broken
    else:
        for cid, task in pending:
            outcome = _chunk_best(task)
            results[cid] = outcome
            _append_checkpoint(checkpoint, cid, outcome)

    best: Fraction | None = None
    ties: list[str] = []
    for cid in range(len(ranges)):
        num, den, chunk_ties = results[cid]
        value = Fraction(num, den)
        if best is None or value > best:
            best, ties = value, list(chunk_ties)
        elif value == best:
            ties.extend(chunk_ties)

    r: int | None = None
    for code_str in ties:
        candidate = pineapple_r(ConstructionCode(tuple(int(ch) for ch in code_str)))
        if candidate is not None:
            r = candidate
            break
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
    each report.
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
