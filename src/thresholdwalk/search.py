"""Exhaustive extremal search for Kemeny's constant over all connected codes of one order.

The code space splits into contiguous index ranges whose size depends only
on n and ``chunk_codes``.  Inside a range a numpy float screen evaluates the
code-vector recurrence of ``kemeny_from_code`` for a block of codes at once,
and only the codes within ``SCREEN_WINDOW`` of their block's float maximum
are evaluated exactly with ``kemeny_from_code``; every comparison that
decides the result is between exact rationals.  Each range keeps its exact
maximum with its ties in code order, and the reduction compares rationals
exactly, then range order, so the result is bitwise reproducible for any
worker count.

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

MIN_ORDER = 3
MAX_ORDER = 26
CHECKPOINT_INTERVAL = 1 << 16  # codes per checkpointed range
CHECKPOINT_VERSION = 2  # version 1 was the header-less format with one line per tie
LOW_BITS = 12  # index bits that vary inside one screened block
SCREEN_BLOCK = 1 << LOW_BITS  # codes per float pass; keeps the screen's arrays small
# Starting the worker processes costs 10-50 ms, about the time the screen
# takes for 2^18 codes on one core, so each worker must get at least this many.
POOL_MIN_CODES = 1 << 18
# For n <= MAX_ORDER every integer in the recurrence (s, 2m - s, their product,
# i (i+1) lambda_i) is far below 2^53.  The screen sums the terms
# x_i / lambda_i - c_i / lambda_i with x_i = s (2m - s) / (2m i (i+1)) as
# 2m x_i / lambda_i over one running sum, divided by 2m at the end, and
# c_i / lambda_i over another.  Each term takes at most four roundings and
# each sum n - 1 more, so with u = 2^-53
# |float - exact| <= (n + 6) u sum(|x_i| + 1), using lambda_i >= 1.  Since
# 0 <= 2m - s and s >= -i (i-1), |x_i| <= n/2 when s < 0, and
# |x_i| <= m / (2 i (i+1)) <= n (n-1) / (4 i (i+1)) otherwise, so the sum is
# below (n-1)(1 + 3n/4) < n^2: the error is under 32 * 676 * 1.2e-16 < 3e-12
# at n = 26.  An exact maximizer of a block therefore screens at most twice
# that below the block's float maximum; the window keeps a margin of 100x.
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
    """Per-code terms of the low positions, which depend only on the low index bits.

    For every low part L of an index (its last k = min(LOW_BITS, n - 2) bits,
    at positions first .. n - 2, plus the final 1 at n - 1): the ones among
    them, their share of 2m, per position s_p minus the high part's share and
    1 / (p (p+1) lambda_p), the sum of c_p / lambda_p, and 1 / (ones + t) for
    every t the high positions need.
    """
    k = min(LOW_BITS, n - 2)
    first = n - 1 - k
    low = np.arange(1 << k, dtype=np.int64)
    bits = [(low >> (n - 2 - p)) & 1 for p in range(first, n - 1)] + [np.ones_like(low)]
    ones = sum(bits[:-1])
    two_m = sum(2 * p * b for p, b in zip(range(first, n), bits))
    theta = sum(bits)  # ones at positions >= p
    s = np.zeros_like(low)
    previous = np.zeros_like(low)  # the last high bit enters s per block
    s_rows, a_rows = [], []
    c_sum = np.zeros(1 << k)
    for p, c in zip(range(first, n), bits):
        s = s + p * (p - 1) * (previous - c)
        lam = theta + p * c
        s_rows.append(s.astype(float))
        a_rows.append(1.0 / (p * (p + 1) * lam))
        c_sum += c / lam
        theta, previous = theta - c, c
    inv_ones = 1.0 / (ones + np.arange(1, 2 * first, dtype=float)[:, None])  # row t - 1: 1 / (ones + t)
    return k, first, two_m.astype(float), s_rows, a_rows, c_sum, inv_ones


def _screen(n: int, start: int, stop: int) -> np.ndarray:
    """Float K - (n - 1) of the codes with index in [start, stop), all in one block.

    Evaluates the recurrence of kemeny_from_code.  The high positions
    1 .. first - 1 take the block's common bits as scalars; the low positions
    come from ``_low_tables``.
    """
    k, first, two_m_low, s_rows, a_rows, c_sum, inv_ones = _low_tables(n)
    high = start >> k
    lo, hi = start - (high << k), stop - (high << k)
    bits = [0] + [(high >> (first - 1 - i)) & 1 for i in range(1, first)]
    two_m = two_m_low[lo:hi] + sum(2 * i * c for i, c in enumerate(bits))
    scaled = np.zeros(hi - lo)  # sum of 2m x_i / lambda_i
    minus = c_sum[lo:hi].copy()  # sum of c_i / lambda_i
    s = 0
    theta = sum(bits) + 1  # ones at high positions >= i and the final 1; inv_ones adds the low ones
    for i in range(1, first):
        c = bits[i]
        s += i * (i - 1) * (bits[i - 1] - c)
        inv_lam = inv_ones[theta + i * c - 1, lo:hi]
        theta -= c
        if s:
            scaled += (two_m - s) * (s / (i * (i + 1))) * inv_lam
        if c:
            minus += inv_lam
    s += first * (first - 1) * bits[first - 1]
    for s_row, a_row in zip(s_rows, a_rows):
        s_low = s_row[lo:hi] + s
        scaled += s_low * (two_m - s_low) * a_row[lo:hi]
    return scaled / two_m - minus


def _chunk_best(task: tuple[int, int, int]) -> tuple[int, int, tuple[str, ...]]:
    """Exact maximum over the index window [start, stop); ties kept in code order.

    The window is screened by ``_screen`` in blocks, the aligned runs of
    SCREEN_BLOCK indices that share their high bits.  Every code of a block
    whose float value lies within SCREEN_WINDOW of the block's float maximum
    is confirmed with exact ``kemeny_from_code``; the derivation at
    SCREEN_WINDOW shows no exact maximizer of the block lies outside it.
    Confirmed values are reduced exactly: a larger value replaces the ties,
    an equal one joins them.
    """
    n, start, stop = task
    best: Fraction | None = None
    ties: list[str] = []
    lo = start
    while lo < stop:
        hi = min((lo // SCREEN_BLOCK + 1) * SCREEN_BLOCK, stop)
        approx = _screen(n, lo, hi)
        for offset in np.flatnonzero(approx >= approx.max() - SCREEN_WINDOW):
            code = code_from_index(n, lo + int(offset))
            value = kemeny_from_code(code).exact
            if best is None or value > best:
                best, ties = value, [str(code)]
            elif value == best:
                ties.append(str(code))
        lo = hi
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
