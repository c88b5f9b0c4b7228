"""The measured process: set-up, a closed request loop, output checks and metrics.

``run.py`` starts this in a child interpreter (after pinning BLAS threads)
and reads the one JSON object it prints.  One client sends each request
only after the previous one returned.  CLI requests go through
``cli.main`` in-process with stdout captured; search requests call
``max_kemeny_search``.  Both are looked up on their module at call time,
so the traced run's wrappers see them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import resource
import statistics
import tempfile
import time
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import workloads
from tracing import SPAN_NAMES, Tracer, package_modules

# Leading items re-run after the timed loop, which must give byte-identical payloads.
DETERMINISM_ITEMS = 2
# The loop runs past --seconds until this many requests, so ten samples lie beyond p90.
MIN_REQUESTS = 100
# Leading items whose payloads make up the run's digest; runs with one seed compare equal.
DIGEST_ITEMS = 5


# The CPU speed of a shared machine swings by tens of percent within
# seconds: on a 2-vCPU 2.1 GHz Xeon VM, a fixed 100 ms loop took 70 to
# 116 ms from one second to the next, and one
# profile seed ran 14 to 19 requests/s from run to run.  So every request is
# bracketed by a fixed pure-Python probe, shaped like the program's work
# (Fractions, big integers, JSON), and times are also reported at the
# probe's reference speed: seconds * reference / probe time.  The speed
# applied is the median over a run's (or a pass's) requests, not each
# request's own: a few probes at the ends of one request estimate its speed
# poorly (a 5 s search spans several swings), while the median over a run
# follows the drift from run to run.  On five seeds, against per-request
# scaling, it cut the spread of search p90 from 0.17 to 0.11 and of profile
# p90 from 0.07 to 0.04.  The probe is the
# benchmark's own code, so a change to the program moves the reported times
# but not the probe.
PROBE_REFERENCE_S = 1.5e-3  # median probe time on that VM
PROBE_REPEATS = 3  # median of this many probes after each CLI request
SEARCH_PROBE_REPEATS = 31  # a search runs seconds, so probe longer around it


def _probe_work() -> int:
    total = Fraction(0)
    for k in range(1, 150):
        total += Fraction(k, k * k + 1)
    big = 3**3000 * 7**2000
    text = json.dumps([str(i * big % 1000003) for i in range(200)])
    table = {i: [i] * 3 for i in range(400)}
    return total.denominator % 7 + len(text) + len(table)


def cpu_speed(repeats: int) -> float:
    """CPU speed now relative to the reference: 1.0 at reference, below 1 when slower."""
    times = []
    for _ in range(repeats):
        begin = time.perf_counter()
        _probe_work()
        times.append(time.perf_counter() - begin)
    return PROBE_REFERENCE_S / statistics.median(times)


@dataclass
class Sample:
    kind: str
    seconds: float
    codes: int  # input codes this request completed
    error: str | None = None  # exception class, or "exit<code>", when the request failed
    wrong: str | None = None  # check violation on a request that returned
    out_bytes: int = 0
    speed: float = 1.0  # mean of cpu_speed() before and after the request


def at_reference(samples: list[Sample]) -> list[float]:
    """Request times at the probe's reference speed, scaled by the samples' median speed."""
    speed = statistics.median(s.speed for s in samples)
    return [s.seconds * speed for s in samples]


def clear_caches() -> None:
    """Empty every functools cache in the package (e.g. the two-forest enumeration)."""
    for module in package_modules():
        for value in list(vars(module).values()):
            clear = getattr(value, "cache_clear", None)
            if callable(clear):
                clear()


class Session:
    """One benchmark process: the program's modules, the inputs and the outcomes so far."""

    def __init__(self, workload: str, seed: int, scale: str, workdir: Path):
        speed_before = cpu_speed(SEARCH_PROBE_REPEATS)
        started = time.perf_counter()
        import numpy  # noqa: F401  (BLAS initialisation is set-up)

        import thresholdwalk
        from thresholdwalk import cli, kemeny, search

        self.cli, self.search, self.kemeny = cli, search, kemeny
        self.package_file = thresholdwalk.__file__
        self.workload, self.scale, self.workdir = workload, scale, workdir
        self.rng = random.Random(seed)
        self.samples: list[Sample] = []
        self.violations: list[str] = []
        self.digest = hashlib.sha256()
        self.seen_argv: set[tuple[str, ...]] = set()
        # two search workers, or one on a single-CPU machine
        self.threads = min(2, len(os.sched_getaffinity(0)))
        if workload == "search":
            self.n = workloads.SCALES[scale]["search_n"]
            self.search.max_kemeny_search(8, threads=1)
        else:
            self.items = workloads.CLI_WORKLOADS[workload](self.rng, scale)
            for command in ("compute", "spectrum", "resistance", "forest", "access", "verify"):
                # n = 4 is drawn by no workload, so the timed inputs stay cold
                with contextlib.redirect_stdout(io.StringIO()):
                    self.cli.main([command, "0101", "--json"])
        self.setup_wall_s = time.perf_counter() - started
        self.speed = cpu_speed(SEARCH_PROBE_REPEATS)
        self.setup_s = self.setup_wall_s * (speed_before + self.speed) / 2  # at reference speed

    # -- CLI workloads ------------------------------------------------------

    def _call(self, kind: str, argv: list[str], codes: int) -> tuple[Sample, str]:
        key = tuple(argv)
        if key in self.seen_argv:  # a repeated input must still do cold work
            clear_caches()
        self.seen_argv.add(key)
        buffer = io.StringIO()
        begin = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buffer):
                code = self.cli.main(argv)
            error = None if code == 0 else f"exit{code}"
        except (Exception, SystemExit) as exc:  # a crash is an outcome to count, not a stop
            error = type(exc).__name__
        sample = Sample(kind, time.perf_counter() - begin, codes, error)
        sample.speed = self._speed_around(PROBE_REPEATS)
        out = buffer.getvalue()
        sample.out_bytes = len(out.encode())
        return sample, out

    def _speed_around(self, repeats: int) -> float:
        before, self.speed = self.speed, cpu_speed(repeats)
        return (before + self.speed) / 2

    def run_item(self, item: workloads.Item) -> tuple[list[Sample], str]:
        """Send an item's requests and check its outputs; return samples and a payload digest."""
        samples, payloads, digest = [], {}, hashlib.sha256()
        for request in item.requests:
            sample, out = self._call(request.kind, request.argv, request.codes)
            samples.append(sample)
            if sample.error is None:
                envelope = json.loads(out)
                del envelope["timing"]
                payloads[request.kind] = envelope["payload"]
                digest.update(json.dumps(envelope, sort_keys=True).encode())
        for kind, message in item.check(payloads).items():
            for sample in samples:
                if sample.kind == kind:
                    sample.wrong = message
        self.samples.extend(samples)
        return samples, digest.hexdigest()

    def cli_pass(self, items, seconds: float | None = None, min_requests: int = 0,
                 tracer: Tracer | None = None):
        """Run items, until `seconds` pass and `min_requests` are sent if `seconds` is given.

        Returns [(item, samples, payload digest)].
        """
        done = []
        sent = 0
        begin = time.perf_counter()
        for request_id, item in enumerate(items):
            if seconds is not None and time.perf_counter() - begin >= seconds and sent >= min_requests:
                break
            sent += len(item.requests)
            if tracer is not None:
                tracer.request_id = request_id
            samples, digest = self.run_item(item)
            done.append((item, samples, digest))
        return done

    def expect_same(self, first, second) -> None:
        for (_, _, a), (_, _, b) in zip(first, second):
            if a != b:
                self.violations.append("the same inputs gave different payloads")

    # -- search ---------------------------------------------------------------

    def search_request(self, kind: str, threads: int, checkpoint: Path, codes: int | None = None):
        begin = time.perf_counter()
        try:
            report = self.search.max_kemeny_search(self.n, threads=threads, checkpoint=str(checkpoint))
        except Exception as exc:  # a crash is an outcome to count, not a stop
            sample = Sample(kind, time.perf_counter() - begin, 0, type(exc).__name__)
            sample.speed = self._speed_around(SEARCH_PROBE_REPEATS)
            self.samples.append(sample)
            return sample, None
        sample = Sample(kind, time.perf_counter() - begin, report.codes_examined if codes is None else codes)
        sample.speed = self._speed_around(SEARCH_PROBE_REPEATS)
        self.samples.append(sample)
        code, k, r = workloads.SEARCH_EXPECTED[self.n]
        if (report.argmax_code, report.k_exact, report.is_pineapple, report.r) != (code, k, True, r):
            sample.wrong = f"maximum {report.argmax_code} K={report.k_exact} r={report.r}"
        best = self.kemeny.pineapple_argmax(self.n)
        if (best.k_star, best.r_star) != (report.k_exact, report.r):
            sample.wrong = "differs from pineapple_argmax"
        return sample, report

    def fresh_checkpoint(self) -> Path:
        self.workdir.mkdir(parents=True, exist_ok=True)
        handle, name = tempfile.mkstemp(prefix="search-", suffix=".checkpoint", dir=self.workdir)
        os.close(handle)
        os.unlink(name)
        return Path(name)

    def resume(self, fresh, checkpoint: Path, threads: int, keep: int | None = None):
        """Cut the checkpoint after `keep` lines (seeded if None), resume, compare reports."""
        lines = checkpoint.read_text(encoding="ascii").splitlines(keepends=True)
        if keep is None:
            keep = self.rng.randrange(1, len(lines)) if len(lines) > 1 else 0
        checkpoint.write_text("".join(lines[:keep]), encoding="ascii")
        ranges = {line.split()[0] for line in lines}
        kept = {line.split()[0] for line in lines[:keep]}
        pending = fresh.codes_examined * (len(ranges) - len(kept)) // len(ranges)
        sample, resumed = self.search_request("resume", threads, checkpoint, pending)
        if resumed is not None and _report_key(resumed) != _report_key(fresh):
            sample.wrong = "resumed report differs from the fresh one"
        checkpoint.unlink(missing_ok=True)
        return sample, keep


def _report_key(report) -> tuple:
    return (report.n, report.argmax_code, report.k_exact, report.is_pineapple, report.r,
            report.ties, report.codes_examined)


def percentile(values: list[float], percent: int) -> float:
    """Percentile interpolated between the two nearest samples."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[percent - 1]


def peak_rss_mb() -> float:
    """Peak resident set of this process plus that of its largest finished child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def tally(session: Session) -> dict:
    """Attempted and failed operations; any failure makes the run incorrect."""
    failures = Counter()
    wrong = list(session.violations)
    failed = len(session.violations)
    for sample in session.samples:
        if sample.error is not None:
            failures[f"{sample.kind}:{sample.error}"] += 1
            wrong.append(f"{sample.kind} failed with {sample.error}")
        if sample.wrong is not None:
            wrong.append(f"{sample.kind}: {sample.wrong}")
        failed += sample.error is not None or sample.wrong is not None
    attempted = len(session.samples) + len(session.violations)
    return {
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "failures": dict(sorted(failures.items())),
        "violations": wrong[:20],
    }


# ---------------------------------------------------------------------------
# untraced run: end-to-end metrics


def latency_metrics(latencies: list[float], codes: int) -> dict:
    busy = sum(latencies)
    return {
        "req_per_s": len(latencies) / busy,
        "req_p50_ms": 1000.0 * percentile(latencies, 50),
        "req_p90_ms": 1000.0 * percentile(latencies, 90),
        "codes_per_s": codes / busy,
    }


def measure(session: Session, seconds: float) -> dict:
    """End-to-end metrics at the probe's reference CPU speed; wall-clock figures in "raw"."""
    if session.workload == "search":
        timed = measure_search(session, seconds)
    else:
        done = session.cli_pass(session.items, seconds, MIN_REQUESTS)
        for _, _, digest in done[:DIGEST_ITEMS]:
            session.digest.update(digest.encode())
        timed = [sample for _, samples, _ in done for sample in samples]
        session.expect_same(done, session.cli_pass([item for item, _, _ in done[:DETERMINISM_ITEMS]]))
    codes = sum(s.codes for s in timed)
    result = tally(session)
    if session.workload == "large":
        result["known_defect"] = probe_known_defect(session)
    result["samples"] = len(timed)
    result["payload_sha256"] = session.digest.hexdigest()
    result["cpu_speed"] = statistics.median(s.speed for s in timed)
    result["raw"] = latency_metrics([s.seconds for s in timed], codes)
    result["metrics"] = latency_metrics(at_reference(timed), codes)
    result["metrics"]["peak_rss_mb"] = peak_rss_mb()
    return result


def probe_known_defect(session: Session) -> str:
    """Outcome of `spectrum` on the complete graph at n = 1400: "ok", or how it failed.

    Untimed and not an operation of the run; see DEFECT_PROBE in workloads.py.
    """
    sample, _ = session._call("defect_probe", workloads.DEFECT_PROBE, 0)
    return sample.error or "ok"


def measure_search(session: Session, seconds: float) -> list[Sample]:
    """Fresh searches until `seconds` pass; the first one is also cut and resumed.

    Only fresh searches are timed for the metrics, pool start-up included.
    The resume is checked and counted as an operation but timed apart, so
    the seeded cut point does not move them.
    """
    fresh = []
    begin = time.perf_counter()
    while not fresh or time.perf_counter() - begin < seconds:
        checkpoint = session.fresh_checkpoint()
        sample, report = session.search_request("search", session.threads, checkpoint)
        fresh.append(sample)
        if report is not None and len(fresh) == 1:
            session.digest.update(repr(_report_key(report)).encode())
            session.resume(report, checkpoint, session.threads)
        checkpoint.unlink(missing_ok=True)
    return fresh


# ---------------------------------------------------------------------------
# traced run: per-layer metrics


def trace(session: Session, spans_path: Path) -> dict:
    """An untraced pass and a traced pass over the same inputs; per-layer metrics from the second."""
    derived = {"search.codes_per_s_1w": 0.0, "search.parallel_eff": 0.0, "search.checkpoint_bytes": 0}
    if session.workload == "search":
        untraced, traced, tracer = trace_search(session, derived)
        requests = 0  # builds per request are a CLI notion
    else:
        items = [next(session.items) for _ in range(workloads.TRACE_ITEMS[session.scale][session.workload])]
        first = session.cli_pass(items)
        with Tracer() as tracer:  # repeated inputs: _call clears the caches again
            second = session.cli_pass(items, tracer=tracer)
        session.expect_same(first, second)
        untraced = [sample for _, samples, _ in first for sample in samples]
        traced = [sample for _, samples, _ in second for sample in samples]
        requests = len(traced)
    tracer.write(spans_path)
    calls, self_s = tracer.calls_and_self_time()
    metrics = {}
    for name_id, name in enumerate(SPAN_NAMES):
        metrics[f"{name}.calls"] = calls[name_id]
        metrics[f"{name}.self_s"] = self_s[name_id]
    codes = sum(s.codes for s in traced)
    metrics["kemeny.kemeny_from_code.calls_per_code"] = metrics["kemeny.kemeny_from_code.calls"] / codes
    metrics["resistance.resistance_matrix.builds_per_req"] = (
        metrics["resistance.resistance_matrix.calls"] / requests if requests else 0.0
    )
    metrics["cli.output_bytes"] = sum(s.out_bytes for s in traced)
    metrics.update(derived)
    metrics["trace.overhead_ratio"] = sum(at_reference(traced)) / sum(at_reference(untraced))
    result = tally(session)
    result["samples"] = len(traced)
    result["metrics"] = metrics
    return result


def trace_search(session: Session, derived: dict):
    """One worker throughout the traced pass, since spans inside pool workers are lost."""
    checkpoint = session.fresh_checkpoint()
    fresh_1w, report = session.search_request("search_1w", 1, checkpoint)
    if report is None:
        raise RuntimeError(f"single-worker search failed: {fresh_1w.error}")
    derived["search.checkpoint_bytes"] = checkpoint.stat().st_size
    resume_1w, keep = session.resume(report, checkpoint, 1)
    derived["search.codes_per_s_1w"] = fresh_1w.codes / at_reference([fresh_1w])[0]

    checkpoint = session.fresh_checkpoint()
    fresh_pool, _ = session.search_request("search", session.threads, checkpoint)
    checkpoint.unlink(missing_ok=True)
    derived["search.parallel_eff"] = (fresh_pool.codes / at_reference([fresh_pool])[0]) / (
        session.threads * derived["search.codes_per_s_1w"]
    )

    checkpoint = session.fresh_checkpoint()
    with Tracer() as tracer:
        tracer.request_id = 0
        traced_fresh, report = session.search_request("search_1w", 1, checkpoint)
        if report is None:
            raise RuntimeError(f"traced search failed: {traced_fresh.error}")
        tracer.request_id = 1
        traced_resume, _ = session.resume(report, checkpoint, 1, keep)
    return [fresh_1w, resume_1w], [traced_fresh, traced_resume], tracer
