"""Exhaustive search: float screen, determinism, checkpointing, conjecture flags."""

import contextlib
import dataclasses
import functools
import random
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import small_slabs
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
from thresholdwalk.errors import CheckpointMismatch, OrderOutOfRange, ParameterOutOfRange
from thresholdwalk.spectral import _positions


def report_key(report):
    return (report.n, report.argmax_code, report.k_exact, report.ties, report.codes_examined)


@functools.cache
def exact_kemeny(n, index):
    return kemeny_from_code(code_from_index(n, index)).exact


def exact_chunk_best(task):
    """The exact per-code loop the float screen replaced: the reference for _chunk_best."""
    n, start, stop = task
    return exact_best_of(n, range(start, stop))


def exact_best_of(n, indices):
    """Exact maximum over the codes of the given indices, ascending; ties kept in code order."""
    best = None
    ties = []
    for index in indices:
        value = exact_kemeny(n, index)
        if best is None or value > best:
            best, ties = value, [str(code_from_index(n, index))]
        elif value == best:
            ties.append(str(code_from_index(n, index)))
    return best.numerator, best.denominator, tuple(ties)


def groups_of_low_parts(tables):
    """The group of each low part, from the screen tables' member lists."""
    groups = np.empty(1 << tables.k, dtype=np.int64)
    for group, lows in enumerate(tables.members):
        groups[lows] = group
    return groups


def slab_screen(n, slab):
    """The group values of one slab and each of its codes' member float, in index order."""
    values, shared = search._group_values(n, slab)
    k = search._screen_tables(n).k
    floats = np.full(len(values) << k, np.nan)
    for block, group in np.ndindex(values.shape):
        lows, member = search._member_values(n, slab, block, group, shared[block, group])
        floats[(block << k) + lows] = member
    return values, floats


class TestScreen:
    @pytest.mark.parametrize("n", range(3, 17))
    def test_chunk_best_equals_exact_reference(self, n):
        # the whole order is one slab; in slabs of 4 blocks of 4 codes it is
        # many, each with its own offset and blocks
        total = 1 << (n - 2)
        assert search._chunk_best(n, 0) == exact_chunk_best((n, 0, total))
        with small_slabs():
            span = min(total, search.SCREEN_SLAB)
            for slab in range(total // span):
                task = (n, slab * span, (slab + 1) * span)
                assert search._chunk_best(n, slab) == exact_chunk_best(task), task

    @pytest.mark.parametrize("n", (13, 14))
    def test_every_code_in_window_reduces_in_code_order(self, n, monkeypatch):
        # a screen that cannot tell codes apart sends every code of the range
        # to exact confirmation, in code order, though it finds them group by group
        group_values, member_values, confirmed = search._group_values, search._member_values, []

        def flat_groups(n, slab):
            values, shared = group_values(n, slab)
            return np.zeros_like(values), shared

        def flat_members(*args):
            lows, floats = member_values(*args)
            return lows, np.zeros_like(floats)

        def recording(code):
            confirmed.append(str(code))
            return kemeny_from_code(code)

        monkeypatch.setattr(search, "_group_values", flat_groups)
        monkeypatch.setattr(search, "_member_values", flat_members)
        monkeypatch.setattr(search, "kemeny_from_code", recording)
        assert search._chunk_best(n, 0) == exact_chunk_best((n, 0, 1 << (n - 2)))
        assert confirmed == [str(code_from_index(n, index)) for index in range(1 << (n - 2))]

    def test_screen_error_within_its_bound_keeps_every_tie(self, monkeypatch):
        # the two order-21 maximizers share range 7; group values and member
        # values each off by up to the proven 2.5e-12 still send both to exact
        # confirmation
        group_values, member_values, rng = search._group_values, search._member_values, np.random.default_rng(21)

        def noisy_groups(n, slab):
            values, shared = group_values(n, slab)
            return values + rng.uniform(-2.5e-12, 2.5e-12, values.shape), shared

        def noisy_members(*args):
            lows, floats = member_values(*args)
            return lows, floats + rng.uniform(-2.5e-12, 2.5e-12, floats.shape)

        monkeypatch.setattr(search, "_group_values", noisy_groups)
        monkeypatch.setattr(search, "_member_values", noisy_members)
        ties = ("011110000000000000001", "011111000000000000001")
        assert {int(code[1:-1], 2) >> 16 for code in ties} == {7}
        assert search._chunk_best(21, 7)[2] == ties

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
        # 1 as the one later bit: the weight rows and the table of 1 / (o + t)
        # hold t = 1 .. first + 1, all needed
        tables = search._screen_tables(n)
        first = n - 1 - tables.k
        assert tables.weights.shape[::2] == (2, first + 1)
        assert len(tables.inverses) == first + 1
        top = 0
        for high in range(1 << (first - 1)):
            bits = [(high >> (first - 1 - i)) & 1 for i in range(1, first)]
            top = max(top, max(lam - 1 for _, _, _, lam in _positions(bits, later=1)))
        assert top == first

    def test_reciprocal_rows_are_one_over_each_blocks_2m(self):
        # the first and last slab of every order: 2m = sum of 2 i c_i from each
        # code's own bits, and every code reads 1 / 2m from its block's row at
        # its group's column
        for n in range(3, 27):
            tables = search._screen_tables(n)
            total = 1 << (n - 2)
            span = min(total, search.SCREEN_SLAB)
            for slab in {0, total // span - 1}:
                index = np.arange(slab * span, (slab + 1) * span, dtype=np.int64)
                two_m = 2 * (n - 1) + sum(2 * i * ((index >> (n - 2 - i)) & 1) for i in range(1, n - 1))
                rows = tables.half_h[index >> tables.k]
                columns = groups_of_low_parts(tables)[index & ((1 << tables.k) - 1)]
                assert np.array_equal(tables.reciprocals[rows, columns], 1.0 / two_m.astype(float)), (n, slab)
                for offset in (0, span - 1):
                    code = str(code_from_index(n, slab * span + offset))
                    assert two_m[offset] == sum(2 * i for i, bit in enumerate(code) if bit == "1")

    def test_groups_partition_the_low_parts_and_bound_their_members(self):
        # the first and last slab of every order: each low part is in exactly one
        # group, the groups are the distinct (ones, T) of the codes' own bits, each
        # group's column of the table of 1 / (o + t) is its own, and every group
        # value is at least each member's float and equals the largest
        for n in range(3, 27):
            tables = search._screen_tables(n)
            k, first = tables.k, n - 1 - tables.k
            assert all(np.all(np.diff(lows) > 0) for lows in tables.members)
            assert np.array_equal(np.sort(np.concatenate(tables.members)), np.arange(1 << k))
            shapes = []
            for lows in tables.members:
                codes = [str(code_from_index(n, low)) for low in lows.tolist()]
                shape = {(code[first:-1].count("1"), sum(2 * i for i in range(first, n) if code[i] == "1")) for code in codes}
                assert len(shape) == 1, (n, shape)
                shapes += shape
            assert len(set(shapes)) == len(shapes)
            ones, low_share = np.array(shapes).T
            assert np.array_equal(tables.low_share, low_share)
            assert np.array_equal(tables.inverses, 1.0 / (ones + np.arange(1, first + 2)[:, None]))
            total = 1 << (n - 2)
            span = min(total, search.SCREEN_SLAB)
            for slab in {0, total // span - 1}:
                values, floats = slab_screen(n, slab)
                blocks = np.arange(span) >> k
                groups = groups_of_low_parts(tables)[np.arange(span) & ((1 << k) - 1)]
                assert np.all(floats <= values[blocks, groups]), (n, slab)
                largest = np.full(values.shape, -np.inf)
                np.maximum.at(largest, (blocks, groups), floats)
                assert np.array_equal(largest, values), (n, slab)

    @pytest.mark.parametrize("n", (21, 22))
    def test_chunk_best_equals_confirming_a_wider_window(self, n):
        # every slab of orders too large for the per-code exact reference: the
        # codes whose own floats are within 1e-6 of the slab's float maximum,
        # confirmed exactly in code order, hold the same maximum and ties as the
        # 1e-9 window of the group screen
        span = search.SCREEN_SLAB
        for slab in range((1 << (n - 2)) // span):
            _, floats = slab_screen(n, slab)
            offsets = np.flatnonzero(floats >= floats.max() - 1e-6)
            wide = exact_best_of(n, (slab * span + offsets).tolist())
            assert search._chunk_best(n, slab) == wide, (n, slab, len(offsets))

    def test_float_error_far_inside_window(self):
        # the first and last slab of every order: each code's member float, for
        # each code through n = 16, whose whole order is one slab, then 300
        # sampled codes of each slab
        rng = random.Random(2026)
        worst = 0
        for n in range(3, 27):
            total = 1 << (n - 2)
            span = min(total, search.SCREEN_SLAB)
            for slab in {0, total // span - 1}:
                _, floats = slab_screen(n, slab)
                assert len(floats) == span and not np.isnan(floats).any()
                offsets = range(span) if n <= 16 else rng.sample(range(span), 300)
                for offset in offsets:
                    exact = exact_kemeny(n, slab * span + offset) - (n - 1)
                    worst = max(worst, abs(Fraction(float(floats[offset])) - exact))
        assert worst <= search.SCREEN_WINDOW / 1e3

    def test_blas_products_stay_on_one_thread(self, monkeypatch):
        # OpenBLAS threads a product past 65536 * 4 multiply-adds, and its threads
        # would take the cores of whatever else the caller runs
        matmul, sizes = np.matmul, []

        def recording(a, b, **kwargs):
            sizes.append(int(np.prod(a.shape)) * b.shape[-1])
            return matmul(a, b, **kwargs)

        monkeypatch.setattr(np, "matmul", recording)
        for n in range(3, 27):
            search._screen_tables.cache_clear()  # the table build is recorded too
            sizes.clear()
            total = 1 << (n - 2)
            for slab in {0, total // min(total, search.SCREEN_SLAB) - 1}:
                search._chunk_best(n, slab)
            assert sizes and max(sizes) <= 1 << 18, (n, sizes)

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

    def test_deterministic_across_thread_counts(self):
        with small_slabs():
            reports = [max_kemeny_search(9, threads=t) for t in (1, 4, 8)]
        assert len({report_key(r) for r in reports}) == 1
        assert report_key(reports[0]) == report_key(max_kemeny_search(9))

    def test_ties_in_different_ranges_join_in_range_order(self):
        # the two order-21 maximizers share a range of the default size; in
        # slabs of 4 blocks, ranges of 2^14 codes, they fall in ranges 30 and 31
        with small_slabs(low_bits=12):
            split = max_kemeny_search(21, threads=1)
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
            verify_conjecture_range(3, 5, threads=0)

    def test_threads_of_one_process_search_at_once(self):
        # the screen keeps no state between calls but its per-order tables, so
        # searches in threads of one process at once give the one report
        want = report_key(max_kemeny_search(19))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(4) as pool:
                futures = [pool.submit(max_kemeny_search, 19) for _ in range(64)]
                reports = [future.result(timeout=60) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        assert [report_key(report) for report in reports] == [want] * 64


class TestCheckpoint:
    def test_resume_reproduces_report(self, tmp_path):
        path = tmp_path / "search.checkpoint"
        with small_slabs():
            fresh = max_kemeny_search(9, checkpoint=str(path))
            lines = path.read_text().splitlines()
            assert len(lines) >= 8  # 128 codes in ranges of 16
            # drop the last three completed ranges and resume
            path.write_text("\n".join(lines[:-3]) + "\n")
            resumed = max_kemeny_search(9, checkpoint=str(path))
        assert report_key(resumed) == report_key(fresh)

    def test_full_checkpoint_short_circuits(self, tmp_path):
        path = tmp_path / "done.checkpoint"
        with small_slabs():
            first = max_kemeny_search(8, checkpoint=str(path))
            again = max_kemeny_search(8, checkpoint=str(path))
        assert report_key(first) == report_key(again)

    def test_line_format(self, tmp_path):
        path = tmp_path / "fmt.checkpoint"
        max_kemeny_search(7, checkpoint=str(path))
        assert path.read_text().splitlines()[0] == "thresholdwalk-search 2 7 32"  # one range: the whole order
        path.unlink()
        with small_slabs():
            max_kemeny_search(8, checkpoint=str(path))
        header, *records = path.read_text().splitlines()
        assert header == "thresholdwalk-search 2 8 16"
        assert len(records) == 4  # 64 codes in ranges of 16, one line each
        for line in records:
            chunk_id, num, den, *ties = line.split()
            assert chunk_id.isdigit()
            assert ties
            for code_str in ties:
                assert set(code_str) <= {"0", "1"} and len(code_str) == 8
            Fraction(int(num), int(den))

    def test_mismatched_checkpoint_rejected(self, tmp_path):
        path = tmp_path / "bad.checkpoint"
        path.write_text("0 0101 61 24\n")
        with pytest.raises(ValueError):
            max_kemeny_search(9, checkpoint=str(path))


    def test_range_plan_change_rejected(self, tmp_path):
        # cut after 4 of 64 ranges of 16, then resumed with the default plan, one
        # range of 1024: read as that range, range 0's record would decide the order
        path = tmp_path / "plan.checkpoint"
        with small_slabs():
            max_kemeny_search(12, checkpoint=str(path))
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[:5]))
        with pytest.raises(CheckpointMismatch):
            max_kemeny_search(12, checkpoint=str(path))
        with small_slabs():
            resumed = max_kemeny_search(12, checkpoint=str(path))
        assert (resumed.argmax_code, resumed.k_exact) == ("011100000001", Fraction(1923, 170))

    def test_resume_identical_across_thread_counts(self, tmp_path):
        path = tmp_path / "threads.checkpoint"
        with small_slabs():
            fresh = max_kemeny_search(9, checkpoint=str(path))
            cut = "".join(path.read_text().splitlines(keepends=True)[:4])  # header and 3 of 8 ranges
            for threads in (1, 2, 4, 8):
                path.write_text(cut)
                resumed = max_kemeny_search(9, threads=threads, checkpoint=str(path))
                assert report_key(resumed) == report_key(fresh), threads

    @pytest.mark.parametrize("n,slabs", [(9, small_slabs), (20, contextlib.nullcontext)])
    def test_thread_counts_write_identical_files(self, tmp_path, n, slabs):
        # 8 ranges of 16 codes, and the default 4 ranges of 65536
        written = set()
        with slabs():
            for threads in (1, 2, 8):
                path = tmp_path / f"threads{threads}.checkpoint"
                report = max_kemeny_search(n, threads=threads, checkpoint=str(path))
                written.add((path.read_bytes(), dataclasses.replace(report, seconds=0)))
        assert len(written) == 1

    def test_records_in_any_order_resume_identically(self, tmp_path):
        # earlier versions wrote each range as it finished, so a file can hold
        # its records in any order, all of them or only some
        path = tmp_path / "permuted.checkpoint"
        rng = random.Random(9)
        with small_slabs():
            fresh = max_kemeny_search(9, checkpoint=str(path))
            header, *records = path.read_text().splitlines(keepends=True)
            for kept in (records[::-1], rng.sample(records, 8), rng.sample(records, 5), rng.sample(records, 1)):
                assert kept != records[: len(kept)]
                path.write_text(header + "".join(kept))
                resumed = max_kemeny_search(9, checkpoint=str(path))
                assert report_key(resumed) == report_key(fresh)
                assert sorted(path.read_text().splitlines(keepends=True)[1:]) == sorted(records)

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
        with small_slabs(), pytest.raises(CheckpointMismatch):
            max_kemeny_search(9, checkpoint=str(path))

    def test_non_ascii_rejected(self, tmp_path):
        path = tmp_path / "binary.checkpoint"
        path.write_bytes(b"thresholdwalk-search 2 9 16\n\xff\n")
        with small_slabs(), pytest.raises(CheckpointMismatch):
            max_kemeny_search(9, checkpoint=str(path))

    def test_torn_record_recomputed(self, tmp_path):
        path = tmp_path / "torn.checkpoint"
        with small_slabs():
            fresh = max_kemeny_search(9, checkpoint=str(path))
            written = path.read_bytes()
            path.write_bytes(written[:-5])  # the last record loses its tail and newline
            resumed = max_kemeny_search(9, checkpoint=str(path))
        assert report_key(resumed) == report_key(fresh)
        assert path.read_bytes() == written


@functools.cache
def fresh_checkpoint():
    """Bytes of a complete n = 9 checkpoint in ranges of 16, with the report's key."""
    with tempfile.TemporaryDirectory() as scratch, small_slabs():
        path = Path(scratch) / "fresh.checkpoint"
        report = max_kemeny_search(9, checkpoint=str(path))
        return path.read_bytes(), report_key(report)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_truncated_checkpoint_resumes_identically(data):
    written, key = fresh_checkpoint()
    cut = data.draw(st.integers(0, len(written)), label="cut")
    with tempfile.TemporaryDirectory() as scratch, small_slabs():
        path = Path(scratch) / "cut.checkpoint"
        path.write_bytes(written[:cut])
        resumed = max_kemeny_search(9, checkpoint=str(path))
        assert report_key(resumed) == key
        assert path.read_bytes() == written  # ranges are appended in range order


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
