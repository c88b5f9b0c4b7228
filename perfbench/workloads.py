"""Inputs and output checks for the four workloads.

Every input comes from ``random.Random(seed)``.  Sizes are drawn along a
golden-ratio sequence from a seeded offset, so each seed covers a size range
evenly and the latency distribution changes little from seed to seed, while
the code bits themselves are random.

A CLI workload is a stream of items.  An item is one or two codes and the
CLI requests sent for them; its checks run after all of its requests and
name the request whose output was wrong.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import count, cycle
from typing import Callable, Iterator

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

# Known defect: `spectrum` formats tau with str(), and Python refuses to
# convert an int of more than 4300 digits, so the command raises ValueError
# out of cli.main once tau is that long: from n ~ 1560 on random codes, from
# n = 1373 on the complete graph.  Timed operations must not fail, so
# `large` sends `spectrum` only for n <= SPECTRUM_MAX_N, where every code's
# tau <= n^(n-2) has at most 4220 digits; its exact Kemeny requests keep n up
# to 4000.  The defect is still probed once per `large` run, untimed and
# outside `attempted`, on the complete graph at n = 1400 (tau = 1400^1398,
# 4398 digits), and the outcome is reported.  Every failed timed operation
# marks the run incorrect.
SPECTRUM_MAX_N = 1350
DEFECT_PROBE = ["spectrum", "0" + "1" * 1399, "--json"]

# Sizes per scale.  "tiny" is for the smoke check only.
SCALES = {
    "full": {
        "search_n": 20,
        "profile_n": (32, 96),
        "verify_small_n": (5, 9),
        "verify_mid_n": (24, 64),
        "large_big_n": (1000, 4000),
        "large_spectrum_n": (1000, SPECTRUM_MAX_N),
        "large_all_n": (200, 500),
    },
    "tiny": {
        "search_n": 10,
        "profile_n": (8, 12),
        "verify_small_n": (5, 6),
        "verify_mid_n": (10, 12),
        "large_big_n": (1000, 1100),
        "large_spectrum_n": (1000, 1100),
        "large_all_n": (20, 40),
    },
}

# Exhaustive two-forest enumeration walks every (n-2)-subset of the edges:
# ~3 us per subset on a 2.1 GHz Xeon, so the complete graph at n = 9
# (C(36, 7) = 8.3M subsets) takes 32 s, longer than a run.  Small verify codes are drawn among
# those with at most this many subsets (0.4 s at most).
FOREST_SUBSET_CAP = 100_000


# Expected exhaustive-search results per order (argmax code, K, pineapple r).
SEARCH_EXPECTED = {
    20: ("01111000000000000001", Fraction(3469, 174), 4),
    10: ("0110000001", Fraction(73, 8), 2),
}


@dataclass
class Request:
    kind: str
    argv: list[str]
    codes: int  # input codes this request completes (for codes_per_s)


@dataclass
class Item:
    requests: list[Request]
    check: Callable[[dict], dict]  # payloads by request kind -> {kind: message}


def golden(rng: random.Random) -> Iterator[float]:
    """Endless points in [0, 1) from a seeded offset, evenly spread at every length."""
    u = rng.random()
    while True:
        u = (u + GOLDEN) % 1.0
        yield u


def sizes(rng: random.Random, lo: int, hi: int) -> Iterator[int]:
    """Endless sizes in [lo, hi], evenly spread whatever the seed."""
    return (lo + int(u * (hi - lo + 1)) for u in golden(rng))


def random_code(rng: random.Random, n: int) -> str:
    """Uniform connected code of order n: 0, n-2 random interior bits, 1."""
    return "0" + format(rng.getrandbits(n - 2), f"0{n - 2}b") + "1"


def edge_count(code: str) -> int:
    # the vertex at 0-based position p joins all p earlier vertices when its bit is 1
    return sum(p for p, bit in enumerate(code) if bit == "1")


def degrees(code: str) -> list[int]:
    ones_after = 0
    out = [0] * len(code)
    for p in range(len(code) - 1, -1, -1):
        out[p] = p * (code[p] == "1") + ones_after
        ones_after += code[p] == "1"
    return out


def _frac(text: str) -> Fraction:
    num, den = text.split("/")
    return Fraction(int(num), int(den))


def _kemeny(payload: dict) -> Fraction:
    return Fraction(int(payload["kemeny"]["num"]), int(payload["kemeny"]["den"]))


# ---------------------------------------------------------------------------
# per-request checks; each returns an error message or None


def check_compute_all(payload: dict) -> str | None:
    agreement = payload["agreement"]
    if not agreement["exact_routes_equal"]:
        return "exact routes differ"
    if not agreement["spectral_abs_diff"] < 1e-9:
        return f"spectral route off by {agreement['spectral_abs_diff']}"
    if not payload["bounds"]["hold"]:
        return "upper bounds violated"
    return None


def check_spectrum(payload: dict, code: str) -> str | None:
    if sum(payload["lambda"]) != 2 * edge_count(code):
        return "sum of eigenvalues != 2m"
    return None


def check_forest(forest: dict, resistance: dict) -> str | None:
    tau = int(forest["tau"])
    for f_row, r_row in zip(forest["f"], resistance["r"], strict=True):
        for f, r in zip(f_row, r_row, strict=True):
            if int(f) != tau * _frac(r):
                return "forest != tau * resistance"
    return None


def check_access(access: dict, compute: dict, code: str) -> str | None:
    if not access["ordering_ok"]:
        return "ordering theorems fail"
    d = degrees(code)
    if access["degrees"] != d:
        return "degree sequence differs"
    weighted = sum((dv * _frac(a) for dv, a in zip(d, access["alpha"], strict=True)), Fraction(0))
    if weighted / (2 * edge_count(code)) != _kemeny(compute):
        return "sum d_v alpha_v / 2m != K"
    return None


def _collect(checks: dict) -> dict:
    return {kind: message for kind, message in checks.items() if message is not None}


# ---------------------------------------------------------------------------
# item streams


def profile_items(rng: random.Random, scale: str) -> Iterator[Item]:
    """The five read commands researchers run on one code, n in [32, 96]."""
    seen: set[str] = set()
    for n in sizes(rng, *SCALES[scale]["profile_n"]):
        code = random_code(rng, n)
        if code in seen:
            continue
        seen.add(code)

        def check(out: dict, code: str = code) -> dict:
            checks = {}
            if "compute" in out:
                checks["compute"] = check_compute_all(out["compute"])
            if "spectrum" in out:
                checks["spectrum"] = check_spectrum(out["spectrum"], code)
            if "forest" in out and "resistance" in out:
                checks["forest"] = check_forest(out["forest"], out["resistance"])
            if "access" in out and "compute" in out:
                checks["access"] = check_access(out["access"], out["compute"], code)
            return _collect(checks)

        kinds = ("compute", "spectrum", "resistance", "forest", "access")
        requests = [Request(kind, [kind, code, "--json"], int(i == 0)) for i, kind in enumerate(kinds)]
        yield Item(requests, check)


def _small_code_pools(lo: int, hi: int) -> dict[int, list[str]]:
    """Per small order, the codes under the subset cap, cheapest enumeration first."""
    pools = {}
    for n in range(lo, hi + 1):
        cost = {}
        for index in range(1 << (n - 2)):
            code = "0" + format(index, f"0{n - 2}b") + "1"
            cost[code] = math.comb(edge_count(code), n - 2)
        pools[n] = sorted((c for c in cost if cost[c] <= FOREST_SUBSET_CAP), key=lambda c: (cost[c], c))
    return pools


def verify_items(rng: random.Random, scale: str) -> Iterator[Item]:
    """`verify --suite all`: two small codes (oracle-bound) for each mid-size code.

    With that 2:1 mix the median falls among small codes, where two-forest
    enumeration and the numeric oracles dominate, and p90 among mid-size
    codes, where the exact pseudoinverse and resistance rebuilds dominate.
    Small codes cycle through the orders, so the mix is the same however
    many items a run reaches.  Each order's codes are drawn without
    replacement at golden-ratio points of its cost-sorted list, so every
    seed gets the same spread of enumeration costs; an order whose codes
    are all used (n = 5 has 8) starts over.
    """
    sizes_cfg = SCALES[scale]
    all_pools = _small_code_pools(*sizes_cfg["verify_small_n"])
    pools = {n: list(codes) for n, codes in all_pools.items()}
    points = {n: golden(rng) for n in pools}
    small_orders = cycle(pools)
    mid_sizes = sizes(rng, *sizes_cfg["verify_mid_n"])
    seen: set[str] = set()
    for i in count():
        if i % 3 == 2:
            code = random_code(rng, next(mid_sizes))
            if code in seen:
                continue
        else:
            n = next(small_orders)
            if not pools[n]:
                pools[n] = list(all_pools[n])
            code = pools[n].pop(int(next(points[n]) * len(pools[n])))
        seen.add(code)

        def check(out: dict) -> dict:
            if "verify" in out and out["verify"]["pass"] is not True:
                return {"verify": "verify suite reports fail"}
            return {}

        yield Item([Request("verify", ["verify", code, "--suite", "all", "--json"], 1)], check)


def large_items(rng: random.Random, scale: str) -> Iterator[Item]:
    """A few big codes: exact Kemeny at n in [1000, 4000], spectra at [1000, 1350], all routes at [200, 500]."""
    sizes_cfg = SCALES[scale]
    big_sizes = sizes(rng, *sizes_cfg["large_big_n"])
    spectrum_sizes = sizes(rng, *sizes_cfg["large_spectrum_n"])
    all_sizes = sizes(rng, *sizes_cfg["large_all_n"])
    for big_n, spectrum_n, all_n in zip(big_sizes, spectrum_sizes, all_sizes):
        big = random_code(rng, big_n)
        wide = random_code(rng, spectrum_n)
        mid = random_code(rng, all_n)

        def check(out: dict, wide: str = wide) -> dict:
            checks = {}
            if "compute_codevec" in out and "compute_degree" in out:
                equal = _kemeny(out["compute_codevec"]) == _kemeny(out["compute_degree"])
                checks["compute_degree"] = None if equal else "codevec K != degree-form K"
            if "compute_all" in out:
                checks["compute_all"] = check_compute_all(out["compute_all"])
            if "spectrum" in out:
                checks["spectrum"] = check_spectrum(out["spectrum"], wide)
            return _collect(checks)

        requests = [
            Request("compute_codevec", ["compute", big, "--method", "codevec", "--json"], 1),
            Request("compute_degree", ["compute", big, "--method", "degree", "--json"], 0),
            Request("spectrum", ["spectrum", wide, "--json"], 1),
            Request("compute_all", ["compute", mid, "--json"], 1),
        ]
        yield Item(requests, check)


CLI_WORKLOADS = {"profile": profile_items, "verify": verify_items, "large": large_items}

# Items in each pass of a traced run.  Fixed, so span counts repeat exactly
# for a seed and totals compare across versions.
TRACE_ITEMS = {
    "full": {"profile": 20, "verify": 60, "large": 12},
    "tiny": {"profile": 3, "verify": 4, "large": 2},
}
