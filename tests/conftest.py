"""Shared helpers and the acceptance-summary hook."""

from __future__ import annotations

import contextlib
import random
from fractions import Fraction

from thresholdwalk import enumerate_codes, parse_code, search

_ACCEPTANCE_RESULTS: dict[str, str] = {}


def connected_codes(n):
    """All connected codes of order n."""
    return list(enumerate_codes(n))


def connected_codes_upto(n_max, n_min=2):
    """All connected codes with n_min <= n <= n_max, ascending order."""
    for n in range(n_min, n_max + 1):
        yield from enumerate_codes(n)


def seeded_codes(seed, count, n_min, n_max):
    """count connected codes with orders in [n_min, n_max], drawn from random.Random(seed)."""
    rng = random.Random(seed)
    return [
        parse_code("0" + "".join(rng.choice("01") for _ in range(rng.randint(n_min, n_max) - 2)) + "1")
        for _ in range(count)
    ]


def frac(num, den=1) -> Fraction:
    return Fraction(num, den)


def pseudoinverse_from_terms(den, diag, off):
    """Reference: the n x n Fraction matrix with diag[a] / den on the diagonal and off[max(a, b)] / den off it."""
    n = len(diag)
    return [[Fraction(diag[a] if a == b else off[max(a, b)], den) for b in range(n)] for a in range(n)]


@contextlib.contextmanager
def small_slabs(low_bits=2, slab_blocks=4):
    """Search with slabs, and so checkpointed ranges, of slab_blocks blocks of 2^low_bits codes.

    The defaults give ranges of 16 codes: 8 at n = 9 and 64 at n = 12.  The per-order
    tables, their groups of low parts included, are sized by these constants, so their
    cache is dropped on entry and on exit.
    """
    saved = {name: getattr(search, name) for name in ("LOW_BITS", "SLAB_BLOCKS", "SCREEN_SLAB")}
    search._screen_tables.cache_clear()
    search.LOW_BITS, search.SLAB_BLOCKS, search.SCREEN_SLAB = low_bits, slab_blocks, slab_blocks << low_bits
    try:
        yield
    finally:
        for name, value in saved.items():
            setattr(search, name, value)
        search._screen_tables.cache_clear()


def pytest_runtest_logreport(report):
    if report.when == "call" and "test_acceptance" in report.nodeid:
        _ACCEPTANCE_RESULTS[report.nodeid] = report.outcome


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for nodeid in sorted(_ACCEPTANCE_RESULTS):
        outcome = _ACCEPTANCE_RESULTS[nodeid]
        name = nodeid.split("::")[-1]
        status = "PASS" if outcome == "passed" else outcome.upper()
        terminalreporter.write_line(f"{name}: {status}")
