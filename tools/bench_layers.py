"""Per-layer timings of thresholdwalk, written to BENCH_<label>.json.

Times each layer of the ROADMAP layer table at fixed orders on codes drawn
from ``random.Random(n)``, plus the search at n = 20 in one process with a
checkpoint (the shape of the benchmark's search workload, 20 calls per run),
the ordering checks at n = 64 as well as at 3000 (64 is the order the
profile and verify workloads draw; 100 calls per run), the exact maximum of
64 consecutive slabs at n = 26 (screen and confirmation, ``_chunk_best``)
with the order's tables built beforehand,
``spanning_tree_oracle`` on the complete graph of order 200 and at n = 64
with the CRT primes' cache cleared in each of 20 calls, ``parse_code``
at n = 4000, both exact Kemeny routes at n = 4000 on the seeded code and on
``(01)^2000`` (every run of equal bits of length one, the most runs an
order-4000 code has), ``laplacian_spectrum`` and ``degree_profile`` at
n = 4000, the same four recurrences and ``kemeny_spectral_form`` on the seeded
codes of orders 8 and 64 (1000 calls per run), ``two_forest_matrix`` at n = 9 (its bipartition cache cleared in
every call), ``enumerate --n 20 --json`` and the tier-1 pytest wall time.
Each layer is set up once and then timed K = 3 times; the file records every
run and their median, with ``nproc``, the CPU, the Python and numpy versions
and the git SHA of the measured tree.  Needs only the standard library and
numpy.

    python3 tools/bench_layers.py --label baseline                        # this checkout
    python3 tools/bench_layers.py --label after --parent PARENT_CHECKOUT  # BENCH_after.json, BENCH_after_parent.json

Each checkout is measured in its own worker process, which imports
``src/thresholdwalk`` from it and runs its tests; ``--root`` names the
checkout of ``BENCH_<label>.json`` (default: this one).  With ``--parent``
the two workers take turns layer by layer, the first to run alternating, so
that the machine's drift over the session falls on both files alike.  The
files go to ``--out`` (default: this checkout's root).  Run as a script, it
pins BLAS to one thread, as the benchmark runs.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import multiprocessing
import os
import platform
import random
import statistics
import subprocess
import sys
import tempfile
import time
from functools import partial

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
K = 3  # timed runs per layer; the file records their median
PARSE_CALLS = 100  # parse_code is timed over this many calls per run
FOREST_CALLS = 20  # two_forest_matrix is timed over this many cold calls per run
TREE_CALLS = 20  # spanning_tree_oracle is timed over this many calls per run, each sieving its primes afresh
RECURRENCE_CALLS = 20  # both exact Kemeny routes, the spectrum and the degrees are timed over this many calls per run
SMALL_ORDER_CALLS = 1000  # the same four and the spectral route at n = 8 and 64, where one call takes microseconds
SEARCH_CALLS = 20  # the n = 20 search takes a few ms, so it is timed over this many calls per run
SCREEN_SLABS = 64  # consecutive slabs timed per run; one takes well under a millisecond
ORDERINGS_CALLS = 100  # the ordering checks at n = 64 take well under a millisecond, so they are timed over this many


def seeded_code(n: int) -> str:
    """The connected order-n code of the layer table: random interior bits from Random(n)."""
    rng = random.Random(n)
    return "0" + "".join(rng.choice("01") for _ in range(n - 2)) + "1"


def cli_call(main, argv):
    """A cli.main request with stdout discarded."""

    def call():
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            if main(argv) != 0:
                raise RuntimeError(f"{argv[0]} failed")

    return call


def layers():
    """(name, n, setup) per layer; setup(n) builds the inputs and returns the call to time."""
    from thresholdwalk import (
        build_graph,
        degree_profile,
        kemeny_degree_form,
        kemeny_from_code,
        kemeny_spectral_form,
        laplacian_spectrum,
        mfpt_matrix,
        parse_code,
        pseudo_inverse,
        resistance_matrix,
    )
    from thresholdwalk.cli import main
    from thresholdwalk.oracle import _forest_bipartitions, _largest_primes, spanning_tree_oracle, two_forest_matrix
    from thresholdwalk.resistance import _verify_orderings
    from thresholdwalk.search import _chunk_best, max_kemeny_search

    def code(n):
        return parse_code(seeded_code(n))

    def search(n):
        return partial(max_kemeny_search, n)

    def search_checkpointed(n):
        def call():
            for _ in range(SEARCH_CALLS):
                with tempfile.TemporaryDirectory() as scratch:
                    max_kemeny_search(n, checkpoint=os.path.join(scratch, "search.checkpoint"))

        return call

    def slabs(n):
        _chunk_best(n, 0)  # builds the order's tables

        def call():
            for slab in range(SCREEN_SLABS):
                _chunk_best(n, slab)

        return call

    def core(n):
        return partial(resistance_matrix, code(n))

    def core_and_orderings(n):
        c = code(n)
        return lambda: _verify_orderings(c, resistance_matrix(c))

    def orderings(n):
        c = code(n)
        return partial(_verify_orderings, c, resistance_matrix(c))

    def orderings_repeated(n):
        c = code(n)
        profile = resistance_matrix(c)
        return lambda: [_verify_orderings(c, profile) for _ in range(ORDERINGS_CALLS)]

    def tree_oracle(n):
        return partial(spanning_tree_oracle, build_graph(code(n)))

    def tree_oracle_cold_primes(n):
        graph = build_graph(code(n))

        def call():
            for _ in range(TREE_CALLS):
                _largest_primes.cache_clear()
                spanning_tree_oracle(graph)

        return call

    def complete_tree_oracle(n):
        return partial(spanning_tree_oracle, build_graph(parse_code("0" + "1" * (n - 1))))

    def mfpt(n):
        return partial(mfpt_matrix, build_graph(code(n)))

    def forests(n):
        graph = build_graph(code(n))

        def call():
            for _ in range(FOREST_CALLS):
                _forest_bipartitions.cache_clear()
                two_forest_matrix(graph)

        return call

    def verify_all(n):
        return cli_call(main, ["verify", seeded_code(n), "--suite", "all", "--json"])

    def parse(n):
        text = seeded_code(n)
        return lambda: [parse_code(text) for _ in range(PARSE_CALLS)]

    def recurrence(function, text, calls, n):
        c = parse_code(text(n))
        return lambda: [function(c) for _ in range(calls)]

    def seeded(function, calls):
        return partial(recurrence, function, seeded_code, calls)

    def alternating(n):
        return "01" * (n // 2)

    return [
        ("max_kemeny_search", 24, search),
        ("max_kemeny_search", 26, search),
        # named when the search took a thread count, so that it still compares with older files
        (f"max_kemeny_search_1thread_x{SEARCH_CALLS}", 20, search_checkpointed),
        (f"search_chunk_best_x{SCREEN_SLABS}", 26, slabs),
        ("resistance_matrix", 1000, core),
        ("resistance_matrix", 5000, core),
        ("resistance_matrix_plus_verify_orderings", 10_000, core_and_orderings),
        ("verify_orderings_profile_built", 3000, orderings),
        (f"verify_orderings_profile_built_x{ORDERINGS_CALLS}", 64, orderings_repeated),
        ("pseudo_inverse", 1000, lambda n: partial(pseudo_inverse, code(n))),
        ("spanning_tree_oracle", 64, tree_oracle),
        ("spanning_tree_oracle", 200, tree_oracle),
        (f"spanning_tree_oracle_cold_primes_x{TREE_CALLS}", 64, tree_oracle_cold_primes),
        ("spanning_tree_oracle_complete_graph", 200, complete_tree_oracle),
        (f"two_forest_matrix_x{FOREST_CALLS}", 9, forests),
        ("mfpt_matrix", 200, mfpt),
        ("mfpt_matrix", 400, mfpt),
        ("cli_verify_all_json", 64, verify_all),
        ("cli_verify_all_json", 200, verify_all),
        ("cli_access_json", 10_000, lambda n: cli_call(main, ["access", seeded_code(n), "--json"])),
        ("cli_forest_json", 600, lambda n: cli_call(main, ["forest", seeded_code(n), "--json"])),
        ("cli_resistance_json", 600, lambda n: cli_call(main, ["resistance", seeded_code(n), "--json"])),
        (f"parse_code_x{PARSE_CALLS}", 4000, parse),
        *(
            (f"{route.__name__}{tag}_x{RECURRENCE_CALLS}", 4000, partial(recurrence, route, text, RECURRENCE_CALLS))
            for route in (kemeny_from_code, kemeny_degree_form)
            for tag, text in (("", seeded_code), ("_alternating", alternating))
        ),
        *(
            (f"{function.__name__}_x{RECURRENCE_CALLS}", 4000, seeded(function, RECURRENCE_CALLS))
            for function in (laplacian_spectrum, degree_profile)
        ),
        *(
            (f"{function.__name__}_x{SMALL_ORDER_CALLS}", n, seeded(function, SMALL_ORDER_CALLS))
            for n in (8, 64)
            for function in (
                kemeny_from_code,
                kemeny_degree_form,
                kemeny_spectral_form,
                laplacian_spectrum,
                degree_profile,
            )
        ),
        ("cli_enumerate_json", 20, lambda n: cli_call(main, ["enumerate", "--n", str(n), "--json"])),
    ]


def tier1(root: str):
    """The call that runs root's tier-1 tests, raising when any fails."""

    def call():
        env = {**os.environ, "PYTHONPATH": os.path.join(root, "src")}
        argv = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "--continue-on-collection-errors"]
        done = subprocess.run(argv, cwd=root, env=env, capture_output=True, text=True)
        if done.returncode != 0:
            raise RuntimeError("tier-1 failed: " + done.stdout.strip().splitlines()[-1])

    return call


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def git(root: str, *argv: str) -> str:
    return subprocess.run(["git", "-C", root, *argv], capture_output=True, text=True).stdout.strip()


def timed(call) -> dict:
    """K timed runs of call and their median, in seconds."""
    runs = []
    for _ in range(K):
        started = time.perf_counter()
        call()
        runs.append(time.perf_counter() - started)
    return {"median_s": statistics.median(runs), "runs_s": runs}


def environment(root: str) -> dict:
    """The machine, versions and git state a BENCH file is measured on."""
    import numpy as np

    return {
        "git_sha": git(root, "rev-parse", "HEAD") or None,
        "git_dirty": bool(git(root, "status", "--porcelain", "--untracked-files=no")),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "k": K,
        "statistic": "median of k runs",
        "codes": "order n: '0' + Random(n) choice of '01' for n - 2 interior bits + '1'",
    }


def worker(root: str, conn) -> None:
    """Time root's layers on request: sends the number of layers, then for each index received
    the layer's key and its timed() result, until it receives None."""
    sys.path.insert(0, os.path.join(root, "src"))
    plan = [*layers(), ("tier1_pytest", None, lambda _: tier1(root))]
    conn.send(len(plan))
    for index in iter(conn.recv, None):
        name, n, setup = plan[index]
        conn.send((name if n is None else f"{name}_n{n}", {"n": n, **timed(setup(n))}))


def measure(roots: list[str]) -> list[dict]:
    """Every layer of every root, each root in its own worker; the roots take turns per layer,
    and which goes first alternates from one layer to the next."""
    context = multiprocessing.get_context("spawn")
    links = []
    try:
        for root in roots:
            mine, theirs = context.Pipe()
            process = context.Process(target=worker, args=(root, theirs))
            process.start()
            links.append((mine, process))
        results = [{} for _ in roots]
        count = [conn.recv() for conn, _ in links][0]  # every worker sends the length of the same plan
        for index in range(count):
            turns = list(range(len(roots)))
            for side in turns if index % 2 == 0 else turns[::-1]:
                conn = links[side][0]
                conn.send(index)
                key, results[side][key] = conn.recv()
            print(f"{key:52s}", *(f"{side[key]['median_s']:10.4f} s" for side in results), flush=True)
        return results
    finally:
        for conn, process in links:
            if process.is_alive():
                conn.send(None)
            process.join()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True, help="the file is BENCH_<label>.json")
    parser.add_argument("--root", default=REPO, help="checkout whose src/ and tests are measured")
    parser.add_argument("--parent", help="also measure this checkout, alternating, into BENCH_<label>_parent.json")
    parser.add_argument("--out", default=REPO, help="directory for the BENCH files")
    args = parser.parse_args(argv)
    files = [(os.path.abspath(args.root), args.label)]
    if args.parent is not None:
        files.append((os.path.abspath(args.parent), f"{args.label}_parent"))

    print(f"{'layer':52s}", *(f"{label:>12s}" for _, label in files))
    for (root, label), results in zip(files, measure([root for root, _ in files])):
        others = [f"BENCH_{other}.json" for _, other in files if other != label]
        report = {"label": label, **environment(root), "measured_alternately_with": others, "layers": results}
        path = os.path.join(args.out, f"BENCH_{label}.json")
        with open(path, "w") as handle:
            json.dump(report, handle, indent=1)
            handle.write("\n")
        print(path)
    return 0


if __name__ == "__main__":
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")  # one BLAS thread, as the benchmark runs
    sys.exit(main())
