"""Exhaustive search: float screen, determinism, checkpointing, conjecture flags."""

import dataclasses
import functools
import random
import tempfile
import threading
from concurrent.futures import Future, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thresholdwalk import (
    code_from_index,
    kemeny_from_code,
    max_kemeny_search,
    pineapple_argmax,
    pineapple_code,
    pineapple_kemeny,
    search,
    verify_conjecture_range,
)
from thresholdwalk.cli import main
from thresholdwalk.errors import CheckpointMismatch, OrderOutOfRange, ParameterOutOfRange, WorkerFailure
from thresholdwalk.spectral import _positions


def report_key(report):
    return (report.n, report.argmax_code, report.k_exact, report.ties, report.codes_examined)


@functools.cache
def exact_kemeny(n, index):
    return kemeny_from_code(code_from_index(n, index)).exact


def exact_chunk_best(task):
    """The exact per-code loop the float screen replaced: the reference for _chunk_best."""
    n, start, stop = task
    best = None
    ties = []
    for index in range(start, stop):
        value = exact_kemeny(n, index)
        if best is None or value > best:
            best, ties = value, [str(code_from_index(n, index))]
        elif value == best:
            ties.append(str(code_from_index(n, index)))
    return best.numerator, best.denominator, tuple(ties)


class TestScreen:
    @pytest.mark.parametrize("n", range(3, 17))
    def test_chunk_best_equals_exact_reference(self, n):
        total = 1 << (n - 2)
        rng = random.Random(n)
        for size in (1, 2, 8, search.SCREEN_BLOCK, total):
            size = min(size, total)
            starts = range(0, total, size)
            if size <= 2 and n > 14:
                # a size-1 call costs ~57-69 us at n = 12..16 with its exact
                # confirmation, and the reference more, so every tiny range is
                # checked through n = 14 and sampled above; the error bound in
                # search.py covers every code of these orders
                starts = sorted(rng.sample(starts, 256))
            for start in starts:
                task = (n, start, start + size)
                assert search._chunk_best(task) == exact_chunk_best(task), task

    @pytest.mark.parametrize("n", (13, 14))
    def test_every_code_in_window_reduces_in_code_order(self, n, monkeypatch):
        # a screen that cannot tell codes apart sends every code of the range
        # to exact confirmation, across 8 or 16 blocks of 256
        monkeypatch.setattr(search, "_screen", lambda n, lo, hi: np.zeros(hi - lo))
        monkeypatch.setattr(search, "SCREEN_BLOCK", 256)
        task = (n, 0, 1 << (n - 2))
        assert search._chunk_best(task) == exact_chunk_best(task)

    @pytest.mark.parametrize("n", (14, 15, 16))
    def test_windows_straddling_blocks_equal_exact_reference(self, n):
        block, total = search.SCREEN_BLOCK, 1 << (n - 2)
        for start, stop in ((block - 3, block + 5), (5, 3 * block - 7)):
            task = (n, start, min(stop, total))
            assert search._chunk_best(task) == exact_chunk_best(task), task

    def test_one_exact_confirmation_per_range(self, monkeypatch):
        # n = 20 has 4 ranges with one float maximum each; confirming each
        # block's maximum instead would make 64 exact calls
        calls = []

        def counting(code):
            calls.append(code)
            return kemeny_from_code(code)

        monkeypatch.setattr(search, "kemeny_from_code", counting)
        max_kemeny_search(20)
        assert len(calls) == 4

    @pytest.mark.parametrize("n", range(15, 23))
    def test_table_rows_reach_exactly_first(self, n):
        # a high position's 1 / lambda row is lambda - 1, walked with the final
        # 1 as the one later bit: the table holds rows 0 .. first, all needed
        k, first, _, table = search._low_tables(n)
        assert len(table) - 3 == first + 1
        top = 0
        for high in range(1 << (first - 1)):
            bits = [(high >> (first - 1 - i)) & 1 for i in range(1, first)]
            top = max(top, max(lam - 1 for _, _, _, lam in _positions(bits, later=1)))
        assert top == first

    def test_float_error_far_inside_window(self):
        rng = random.Random(2026)
        worst = 0
        for n in (*range(3, 17), 20, 26):
            total = 1 << (n - 2)
            if n <= 16:
                starts = range(0, total, search.SCREEN_BLOCK)
                blocks = [(lo, min(lo + search.SCREEN_BLOCK, total)) for lo in starts]
            else:
                blocks = [(index, index + 1) for index in rng.sample(range(total), 1500)]
            for lo, hi in blocks:
                for index, value in zip(range(lo, hi), search._screen(n, lo, hi)):
                    worst = max(worst, abs(Fraction(float(value)) - (exact_kemeny(n, index) - (n - 1))))
        assert worst <= search.SCREEN_WINDOW / 1e3

    @pytest.mark.parametrize("n", range(19, 23))
    def test_matches_pineapple_argmax(self, n):
        report = max_kemeny_search(n)
        best = pineapple_argmax(n)
        assert report.is_pineapple
        assert (report.k_exact, report.r) == (best.k_star, best.r_star)
        assert report.argmax_code == str(pineapple_code(n, best.r_star))
        if n == 20:
            assert report.argmax_code == "01111000000000000001"
            assert (report.k_exact, report.r) == (Fraction(3469, 174), 4)


class TestSearch:
    def test_n4(self):
        report = max_kemeny_search(4)
        assert report.argmax_code == "0101"
        assert report.k_exact == Fraction(61, 24)
        assert report.is_pineapple and report.r == 1
        assert report.ties == ("0101",)
        assert report.codes_examined == 4

    def test_n10_is_pineapple(self):
        report = max_kemeny_search(10)
        assert report.codes_examined == 256
        assert report.is_pineapple
        assert report.r == pineapple_argmax(10).r_star == 2
        assert report.argmax_code == str(pineapple_code(10, 2))

    def test_deterministic_across_thread_counts(self, monkeypatch):
        monkeypatch.setattr(search, "POOL_MIN_CODES", 1)  # real pools, even for 128 codes
        reports = [
            max_kemeny_search(9, threads=t, chunk_codes=16) for t in (1, 4, 8)
        ]
        assert len({report_key(r) for r in reports}) == 1

    def test_ties_in_different_ranges_join_in_range_order(self):
        # the two order-21 maximizers share a range of the default size; in
        # ranges of 2^14 codes they fall in ranges 30 and 31
        split = max_kemeny_search(21, threads=1, chunk_codes=1 << 14)
        assert split.ties == ("011110000000000000001", "011111000000000000001")
        assert [int(code[1:-1], 2) >> 14 for code in split.ties] == [30, 31]
        assert split.ties == tuple(str(pineapple_code(21, r)) for r in pineapple_argmax(21).tied_rs)
        whole = max_kemeny_search(21, threads=1)
        assert dataclasses.replace(split, seconds=0) == dataclasses.replace(whole, seconds=0)

    def test_dominates_pineapple_family(self):
        for n in range(3, 11):
            report = max_kemeny_search(n)
            values = [pineapple_kemeny(n, r) for r in range(n - 1)]
            assert all(report.k_exact >= v for v in values)
            assert (report.k_exact in values) == report.is_pineapple

    def test_order_out_of_range(self):
        with pytest.raises(OrderOutOfRange):
            max_kemeny_search(2)
        with pytest.raises(OrderOutOfRange):
            max_kemeny_search(27)

    def test_bad_threads(self):
        with pytest.raises(ParameterOutOfRange):
            max_kemeny_search(5, threads=0)
        with pytest.raises(ParameterOutOfRange):
            max_kemeny_search(5, chunk_codes=0)

    @pytest.fixture
    def pools(self, monkeypatch):
        """max_workers of every pool the search starts; the tasks run in this process."""
        created = []

        class RecordingPool:
            def __init__(self, max_workers):
                created.append(max_workers)
                self.futures = []

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, task):
                """A finished future; once a task raised BrokenProcessPool, later ones fail with it."""
                future = Future()
                failure = next((f.exception() for f in self.futures if f.exception()), None)
                try:
                    if failure:
                        raise failure
                    future.set_result(fn(task))
                except BrokenProcessPool as exc:
                    future.set_exception(exc)
                self.futures.append(future)
                return future

        monkeypatch.setattr(search, "ProcessPoolExecutor", RecordingPool)
        return created

    def test_pool_capped_at_pending_ranges(self, tmp_path, monkeypatch, pools):
        monkeypatch.setattr(search, "POOL_MIN_CODES", 1)
        path = tmp_path / "cap.checkpoint"
        fresh = max_kemeny_search(9, threads=3, checkpoint=str(path), chunk_codes=16)  # 8 ranges
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[:5]))  # header and 4 ranges: 4 pending
        resumed = max_kemeny_search(9, threads=8, checkpoint=str(path), chunk_codes=16)
        assert pools == [3, 4]
        assert report_key(resumed) == report_key(fresh)

    def test_pool_needs_enough_codes_per_worker(self, monkeypatch, pools):
        small = max_kemeny_search(9, threads=8, chunk_codes=16)  # 128 codes in 8 ranges
        assert pools == []
        monkeypatch.setattr(search, "POOL_MIN_CODES", 32)
        pooled = max_kemeny_search(9, threads=8, chunk_codes=16)
        assert pools == [4]
        assert report_key(pooled) == report_key(small)

    def test_broken_pool_keeps_finished_ranges(self, tmp_path, monkeypatch, capsys, pools):
        chunk_best, calls = search._chunk_best, []

        def dies_on_third_call(task):  # the future of the third range raises, as a dead worker's does
            calls.append(task)
            if len(calls) == 3:
                raise BrokenProcessPool("a child process terminated abruptly")
            return chunk_best(task)

        monkeypatch.setattr(search, "_chunk_best", dies_on_third_call)
        monkeypatch.setattr(search, "POOL_MIN_CODES", 1)
        path = tmp_path / "broken.checkpoint"
        with pytest.raises(WorkerFailure, match="2 of 8 ranges are checkpointed .*; a re-run resumes"):
            max_kemeny_search(9, threads=2, checkpoint=str(path), chunk_codes=16)
        records = path.read_text().splitlines()[1:]
        assert sorted(line.split()[0] for line in records) == ["0", "1"]  # records follow completion order
        resumed = max_kemeny_search(9, threads=2, checkpoint=str(path), chunk_codes=16)
        assert report_key(resumed) == report_key(max_kemeny_search(9, chunk_codes=16))
        assert len(calls) == 3 + 6 + 8  # the re-run computed only the 6 missing ranges

        calls.clear()
        assert main(["search", "--n", "20", "--threads", "2", "--quiet"]) == 1  # 4 ranges
        assert capsys.readouterr().err.startswith("error: WorkerFailure: ")


    def test_worker_death_keeps_ranges_finished_before_it(self, tmp_path, monkeypatch):
        # range 1 finishes while range 0 is still running, then range 0's worker
        # dies; reading results in submission order lost range 1
        chunk_best, range_1_done = search._chunk_best, threading.Event()

        def range_0_dies_after_range_1(task):
            if task[1] == 0:
                assert range_1_done.wait(timeout=60)
                raise BrokenProcessPool("a child process terminated abruptly")
            result = chunk_best(task)
            if task[1] == 16:
                range_1_done.set()
            return result

        monkeypatch.setattr(search, "ProcessPoolExecutor", ThreadPoolExecutor)
        monkeypatch.setattr(search, "_chunk_best", range_0_dies_after_range_1)
        monkeypatch.setattr(search, "POOL_MIN_CODES", 1)
        path = tmp_path / "order.checkpoint"
        with pytest.raises(WorkerFailure, match="7 of 8 ranges are checkpointed"):
            max_kemeny_search(9, threads=2, checkpoint=str(path), chunk_codes=16)
        records = [line.split()[0] for line in path.read_text().splitlines()[1:]]
        assert sorted(records) == [str(cid) for cid in range(1, 8)]
        monkeypatch.setattr(search, "_chunk_best", chunk_best)
        resumed = max_kemeny_search(9, threads=2, checkpoint=str(path), chunk_codes=16)
        assert report_key(resumed) == report_key(max_kemeny_search(9, chunk_codes=16))


class TestCheckpoint:
    def test_resume_reproduces_report(self, tmp_path):
        path = tmp_path / "search.checkpoint"
        fresh = max_kemeny_search(9, checkpoint=str(path), chunk_codes=16)
        lines = path.read_text().splitlines()
        assert len(lines) >= 8  # 128 codes in chunks of 16
        # drop the last three completed ranges and resume
        path.write_text("\n".join(lines[:-3]) + "\n")
        resumed = max_kemeny_search(9, checkpoint=str(path), chunk_codes=16)
        assert report_key(resumed) == report_key(fresh)

    def test_full_checkpoint_short_circuits(self, tmp_path):
        path = tmp_path / "done.checkpoint"
        first = max_kemeny_search(8, checkpoint=str(path), chunk_codes=8)
        again = max_kemeny_search(8, checkpoint=str(path), chunk_codes=8)
        assert report_key(first) == report_key(again)

    def test_line_format(self, tmp_path):
        path = tmp_path / "fmt.checkpoint"
        max_kemeny_search(7, checkpoint=str(path), chunk_codes=8)
        header, *records = path.read_text().splitlines()
        assert header == "thresholdwalk-search 2 7 8"
        assert len(records) == 4  # 32 codes in ranges of 8, one line each
        for line in records:
            chunk_id, num, den, *ties = line.split()
            assert chunk_id.isdigit()
            assert ties
            for code_str in ties:
                assert set(code_str) <= {"0", "1"} and len(code_str) == 7
            Fraction(int(num), int(den))

    def test_mismatched_checkpoint_rejected(self, tmp_path):
        path = tmp_path / "bad.checkpoint"
        path.write_text("0 0101 61 24\n")
        with pytest.raises(ValueError):
            max_kemeny_search(9, checkpoint=str(path), chunk_codes=16)


    def test_range_plan_change_rejected(self, tmp_path):
        # cut after 4 of 8 ranges of 128, resumed with ranges of 256: this used to
        # report 001100000001, K = 1799/160 instead of 011100000001, K = 1923/170
        path = tmp_path / "plan.checkpoint"
        max_kemeny_search(12, checkpoint=str(path), chunk_codes=128)
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[:5]))
        with pytest.raises(CheckpointMismatch):
            max_kemeny_search(12, checkpoint=str(path), chunk_codes=256)
        resumed = max_kemeny_search(12, checkpoint=str(path), chunk_codes=128)
        assert (resumed.argmax_code, resumed.k_exact) == ("011100000001", Fraction(1923, 170))

    def test_resume_identical_across_thread_counts(self, tmp_path, monkeypatch):
        monkeypatch.setattr(search, "POOL_MIN_CODES", 1)  # real pools, even for 128 codes
        path = tmp_path / "threads.checkpoint"
        fresh = max_kemeny_search(9, checkpoint=str(path), chunk_codes=16)
        cut = "".join(path.read_text().splitlines(keepends=True)[:4])  # header and 3 of 8 ranges
        for threads in (1, 2, 4, 8):
            path.write_text(cut)
            resumed = max_kemeny_search(9, threads=threads, checkpoint=str(path), chunk_codes=16)
            assert report_key(resumed) == report_key(fresh), threads

    @pytest.mark.parametrize(
        "record",
        [
            "x 177 22 011000001",  # range id not a number
            "8 177 22 011000001",  # no such range
            "6 177 22",  # no ties
            "6 177 0 011000001",  # zero denominator
            "6 177 22 01100001",  # wrong length
            "6 177 22 011000001 1",  # malformed tie
            "6 177 22 111000001",  # leading one
            "0 177 22 011000001",  # code outside its range
            "",  # blank line
            "1 1 1 000100001\n1 1 1 000100001",  # range recorded twice
        ],
    )
    def test_malformed_record_rejected(self, tmp_path, record):
        path = tmp_path / "bad.checkpoint"
        path.write_text(f"thresholdwalk-search 2 9 16\n{record}\n")
        with pytest.raises(CheckpointMismatch):
            max_kemeny_search(9, checkpoint=str(path), chunk_codes=16)

    def test_non_ascii_rejected(self, tmp_path):
        path = tmp_path / "binary.checkpoint"
        path.write_bytes(b"thresholdwalk-search 2 9 16\n\xff\n")
        with pytest.raises(CheckpointMismatch):
            max_kemeny_search(9, checkpoint=str(path), chunk_codes=16)

    def test_torn_record_recomputed(self, tmp_path):
        path = tmp_path / "torn.checkpoint"
        fresh = max_kemeny_search(9, checkpoint=str(path), chunk_codes=16)
        written = path.read_bytes()
        path.write_bytes(written[:-5])  # the last record loses its tail and newline
        resumed = max_kemeny_search(9, checkpoint=str(path), chunk_codes=16)
        assert report_key(resumed) == report_key(fresh)
        assert path.read_bytes() == written


@functools.cache
def fresh_checkpoint():
    """Bytes of a complete n = 9 checkpoint in ranges of 16, with the report's key."""
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "fresh.checkpoint"
        report = max_kemeny_search(9, checkpoint=str(path), chunk_codes=16)
        return path.read_bytes(), report_key(report)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_truncated_checkpoint_resumes_identically(data):
    written, key = fresh_checkpoint()
    cut = data.draw(st.integers(0, len(written)), label="cut")
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "cut.checkpoint"
        path.write_bytes(written[:cut])
        resumed = max_kemeny_search(9, checkpoint=str(path), chunk_codes=16)
        assert report_key(resumed) == key
        assert path.read_bytes() == written  # one worker appends ranges in order


class TestConjectureRange:
    def test_small_range_all_pineapple(self):
        reports = verify_conjecture_range(3, 9)
        assert [r.n for r in reports] == list(range(3, 10))
        assert all(r.is_pineapple for r in reports)
        for report in reports:
            assert report.r == pineapple_argmax(report.n).r_star
            assert report.k_exact < 2 * report.n - 3
            remainder = report.k_float - report.predicted_asymptote
            assert abs(remainder) < 3  # sanity window; the remainder sits near -2.4

    def test_trivial_order(self):
        # two codes at n = 3; the path 001 beats the triangle 011 (3/2 > 4/3)
        (report,) = verify_conjecture_range(3, 3)
        assert report.codes_examined == 2
        assert report.argmax_code == "001"
        assert report.k_exact == Fraction(3, 2)
        assert report.is_pineapple and report.r == 0

    def test_bad_range(self):
        with pytest.raises(OrderOutOfRange):
            verify_conjecture_range(2, 5)
        with pytest.raises(OrderOutOfRange):
            verify_conjecture_range(5, 3)
