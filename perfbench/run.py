"""thresholdwalk benchmark: one command for every end-to-end or per-layer metric.

    python3 perfbench/run.py --workload search|profile|verify|large \\
        --seed N --seconds S --trace 0|1

Run from the repository root; the program is imported from ``src/``.
With ``--trace 0`` the last stdout line is a JSON object whose metrics are
the end-to-end metrics; with ``--trace 1`` they are the per-layer metrics
of a separate traced run.  Earlier lines give the same figures as a table,
the error rate, failure classes and the environment.  See README.md in this
directory for the workloads and metrics.

This launcher pins BLAS threads, then runs the measurement in a child
interpreter so numpy starts under the pin.  For ``setup_s`` it also starts
set-up-only children and reports the median set-up time.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("search", "profile", "verify", "large")

# One BLAS thread (at most nproc): the search pool already uses both cores
# and the oracle eigensolves are n <= 64, where BLAS threads add only noise.
BLAS_THREADS = 1
BLAS_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
# Set-up-only children per untraced run; with the measuring child's own
# set-up that gives seven samples for the median.
SETUP_REPEATS = 6
CHILD_TIMEOUT_S = 170


def declared_units(trace: int) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them for this kind of run."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {metric["name"]: metric["unit"] for metric in spec["per_layer" if trace else "end_to_end"]}


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measured time of the request loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full", help="tiny: smoke-check sizes")
    parser.add_argument("--workdir", type=Path, default=ROOT / ".perfbench",
                        help="checkpoints and span files (removed / overwritten per run)")
    parser.add_argument("--child", choices=("setup", "measure"), help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def child_main(args: argparse.Namespace) -> int:
    """Inside the pinned child: set up, then measure or trace, and print one JSON object."""
    sys.path.insert(0, str(ROOT / "src"))
    import bench

    session = bench.Session(args.workload, args.seed, args.scale, args.workdir / "tmp")
    if Path(session.package_file).resolve().parent.parent != ROOT / "src":
        raise SystemExit(f"imported thresholdwalk from {session.package_file}, not {ROOT / 'src'}")
    if args.child == "setup":
        result = {"setup_s": session.setup_s, "setup_wall_s": session.setup_wall_s}
    elif args.trace:
        result = bench.trace(session, args.workdir / "trace" / f"{args.workload}-seed{args.seed}.tsv.gz")
    else:
        result = bench.measure(session, args.seconds)
        result.update(setup_s=session.setup_s, setup_wall_s=session.setup_wall_s)
    import numpy

    result["numpy"] = numpy.__version__
    print(json.dumps(result))
    return 0


def run_child(args: argparse.Namespace, role: str, env: dict) -> dict:
    command = [sys.executable, str(HERE / "run.py"), "--child", role, "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--scale", args.scale, "--workdir", str(args.workdir)]
    done = subprocess.run(command, env=env, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"{role} child exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def environment(seed: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")), cpu)
    except OSError:
        pass
    sha = "unknown"
    try:  # the ceiling keeps git from finding a repository above the checkout
        git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True,
                             timeout=10, env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
        if git.returncode == 0:
            sha = git.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "blas_threads": BLAS_THREADS,
        "git_sha": sha,
        "seed": seed,
    }


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if args.child:
        return child_main(args)
    if not (ROOT / "src" / "thresholdwalk" / "__init__.py").is_file():
        print(f"error: no thresholdwalk sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONHASHSEED="0", **{name: str(BLAS_THREADS) for name in BLAS_VARIABLES})
    try:
        setups = [] if args.trace else [run_child(args, "setup", env) for _ in range(SETUP_REPEATS)]
        result = run_child(args, "measure", env)
    except (RuntimeError, subprocess.SubprocessError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(args.workdir / "tmp", ignore_errors=True)

    info = environment(args.seed)
    info["numpy"] = result.pop("numpy")
    metrics = result.pop("metrics")
    if not args.trace:
        setups.append({key: result.pop(key) for key in ("setup_s", "setup_wall_s")})
        metrics["setup_s"] = statistics.median(setup["setup_s"] for setup in setups)
        result["raw"]["setup_s"] = statistics.median(setup["setup_wall_s"] for setup in setups)
    units = declared_units(args.trace)
    if set(metrics) != set(units):
        print(f"error: metrics {sorted(set(metrics) ^ set(units))} differ from BENCHMARK.json", file=sys.stderr)
        return 1
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  samples {result['samples']}")
    for name, value in sorted(metrics.items()):
        print(f"  {name:48s} {value:>16.6g} {units[name]}")
    print(f"  {'error_rate':48s} {result['error_rate']:>16.6g} ratio")
    if "known_defect" in result:
        print(f"  {'known defect probe (spectrum, K_1400)':48s} {result['known_defect']:>16s}")
    for name, value in sorted(result.get("raw", {}).items()):
        print(f"  {name + ' (wall clock)':48s} {value:>16.6g} {units[name].replace('ref_', '')}")
    print(json.dumps({"environment": info, **result}, sort_keys=True))
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
