"""Smoke check of the benchmark itself; run from the repository root:

    python3 perfbench/smoke.py

Runs every workload at tiny sizes with a fixed seed, twice untraced and once
traced, and checks that each run prints every metric BENCHMARK.json
declares with its unit, that the output checks pass, that no operation
fails, that `large` reports its probe of the known `spectrum` defect, and
that the same seed gives the same payloads.
It also checks that the benchmark refuses to run without the program's
sources.  Checkpoints, span files and copies live in a temporary directory
outside the repository and are removed.  Takes about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 7


def run(workdir: Path, workload: str, trace: int, root: Path = ROOT) -> subprocess.CompletedProcess:
    command = [sys.executable, str(root / HERE.name / "run.py"), "--workload", workload, "--seed", str(SEED),
               "--seconds", "1", "--trace", str(trace), "--scale", "tiny", "--workdir", str(workdir)]
    return subprocess.run(command, cwd=root, capture_output=True, text=True, timeout=180)


def check_run(done: subprocess.CompletedProcess, declared: dict[str, str], workload: str) -> dict:
    if done.returncode != 0:
        raise AssertionError(f"{workload}: exit {done.returncode}\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    result, detail = json.loads(lines[-1]), json.loads(lines[-2])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"{workload}: result keys {sorted(result)}")
    units = {name: metric["unit"] for name, metric in result["metrics"].items()}
    if units != declared:
        raise AssertionError(f"{workload}: metrics or units differ from BENCHMARK.json")
    if not result["correct"] or result["attempted"] < 1:
        raise AssertionError(f"{workload}: incorrect run: {detail['violations']}")
    if result["failed"] or detail["failures"]:
        raise AssertionError(f"{workload}: failed operations {detail['failures']}")
    return detail


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    with tempfile.TemporaryDirectory(prefix="perfbench-smoke-") as scratch:
        workdir = Path(scratch) / "work"
        for workload in (w["name"] for w in spec["workloads"]):
            first = check_run(run(workdir, workload, 0), end_to_end, workload)
            second = check_run(run(workdir, workload, 0), end_to_end, workload)
            if workload == "large" and "known_defect" not in first:
                raise AssertionError("large: no outcome of the known-defect probe")
            if first["payload_sha256"] != second["payload_sha256"]:
                raise AssertionError(f"{workload}: the same seed gave different payloads")
            traced = check_run(run(workdir, workload, 1), per_layer, workload)
            print(f"ok {workload}: {first['attempted']} + {traced['attempted']} operations, "
                  f"failures {first['failures']}")
        if (workdir / "tmp").exists():
            raise AssertionError("temporary checkpoints were left behind")

        bare = Path(scratch) / "bare"
        bare.mkdir()
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        done = run(workdir, "profile", 0, root=bare)
        if done.returncode == 0 or done.stdout.strip():
            raise AssertionError("without the sources the benchmark must fail and print no result")
        print("ok: refuses to run without the sources")
    return 0


if __name__ == "__main__":
    sys.exit(main())
