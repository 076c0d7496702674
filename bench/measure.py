"""One benchmark run of one workload: the timed run or the traced run.

The timed run is a closed loop: one client in one process and one thread
sends the next request when the previous one has returned. It stops at the
end of the first whole cycle of the workload's op mix after the time spent
inside requests reaches `--seconds`, so every run has the same mix. The
checks, and the fresh interpreters timed for setup_s, run between requests
and are not timed. Its figures are reported at a reference host speed (see
`reference_probe`), except those a workload lists in `unadjusted`; the raw
wall-clock figures are kept as well.

The traced run replays a fixed request sequence, each request untraced and
then traced, so its counts repeat exactly and the difference of the two
times is the tracing overhead.
"""

from __future__ import annotations

import gc
import json
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import numpy as np

import tracing
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
# Runs of fresh interpreters timed for setup_s; the median is reported.
# They are spread evenly over the timed run, so a slow phase of the host
# reaches only a few of them.
SETUP_PROBES = 13
# A request's host speed comes from the probes just before and after it,
# widened to neighbouring requests until it holds at least this many.
PROBES_PER_ESTIMATE = 6

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


# A shared host can switch between speeds far apart for seconds to minutes
# at a time (README.md shows one at 1.6x), which no run length can average
# out. So every timed interval is measured next to a fixed slice of work
# that does not touch tnbn, and is rescaled to the host speed at which that
# slice takes REFERENCE_PROBE_S. The raw wall times are kept in the result
# file too. The slice is a JSON round trip of a small model-like document
# and the building of many small objects: interpreter work on small
# objects, like tnbn's and like starting an interpreter. In a 200 s trace
# on the host of README.md it tracked the workloads' slowdowns more closely
# than a slice of small numpy operations did.
REFERENCE_PROBE_S = 0.00033
_PROBE_DOC = {
    "nodes": [{"id": f"n{i}", "states": ["a", "b", "c"], "p": [0.1 * i, 0.2, 0.7]} for i in range(60)],
}


def _probe_slice() -> float:
    start = perf_counter()
    json.loads(json.dumps(_PROBE_DOC))
    cells = [(i, str(i), [i]) for i in range(1000)]
    del cells
    return perf_counter() - start


def reference_probe() -> float:
    """Seconds taken by the fixed slice of work. The collector is off, so
    the slice never pays for a collection of tnbn's heap, and it runs twice
    with only the second pass timed, so it never pays for refilling caches
    that the request before it used."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        _probe_slice()
        return _probe_slice()
    finally:
        if enabled:
            gc.enable()


def slowdown(probes: list[float]) -> float:
    """How much slower than the reference speed the host ran."""
    return statistics.median(probes) / REFERENCE_PROBE_S


def probe_burst(elapsed: float) -> list[float]:
    """Probes after a request that took `elapsed` seconds: one, and one
    more for every 0.1 s of it up to eight, so long requests get a dense
    estimate of the host speed during them."""
    return [reference_probe() for _ in range(1 + min(7, int(elapsed / 0.1)))]


def local_slowdown(points: list[list[float]], i: int) -> float:
    """The slowdown during request i: points[i] are the probes run just
    before it and points[i + 1] those just after it."""
    width = 1
    while True:
        window = [p for point in points[max(0, i + 1 - width): i + 1 + width] for p in point]
        if len(window) >= PROBES_PER_ESTIMATE or width > len(points):
            return slowdown(window)
        width += 1


def setup_seconds(name: str, seed: int) -> tuple[float, float]:
    """Time from starting a fresh interpreter until the workload is ready
    for its first request, raw and at the reference speed; the host is
    probed just before and after."""
    before = [reference_probe() for _ in range(3)]
    start = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--setup-probe",
         "--workload", name, "--seed", str(seed)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True,
    )
    with proc:
        line = proc.stdout.readline()
        elapsed = perf_counter() - start
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe for {name} failed (exit {proc.returncode})")
    return elapsed, elapsed / slowdown(before + [reference_probe() for _ in range(3)])


def setup_probe(name: str, seed: int, workdir: Path) -> None:
    with tempfile.TemporaryDirectory(dir=workdir) as tmp:
        WORKLOADS[name](seed, ROOT, Path(tmp))
        print("ready", flush=True)


class Tally:
    """Ops attempted and failed, with the first few problems kept."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, ops: int, problems: list[str]) -> None:
        self.attempted += ops
        if problems:
            self.failed += ops
            self.problems.extend(problems[: max(0, 20 - len(self.problems))])


def attempt(workload, k: int) -> tuple[int, object, float, list[str]]:
    """One timed request. Any exception, MemoryError included, is a failed
    request, not a failed run."""
    start = perf_counter()
    try:
        ops, answer = workload.request(k)
    except Exception as err:  # noqa: BLE001 - every failure is counted
        return workload.ops_per_request, None, perf_counter() - start, [f"request {k}: {err!r}"]
    return ops, answer, perf_counter() - start, []


def checked(workload, k: int, answer) -> list[str]:
    try:
        return workload.check(k, answer)
    except Exception as err:  # noqa: BLE001 - a check that breaks is a wrong answer
        return [f"check of request {k}: {err!r}"]


def timed_run(name: str, seed: int, seconds: float, workdir: Path) -> dict:
    """The end-to-end metrics, and the same figures as raw wall-clock
    times. At the reference host speed, each request's latency is rescaled
    by the median of the host probes around it (`local_slowdown`)."""
    setup_raw: list[float] = []
    setup: list[float] = []

    def time_setup() -> None:
        raw_s, adjusted_s = setup_seconds(name, seed)
        setup_raw.append(raw_s)
        setup.append(adjusted_s)

    with tempfile.TemporaryDirectory(dir=workdir) as tmp:
        workload = WORKLOADS[name](seed, ROOT, Path(tmp))
        workload.warmup()
        tally = Tally()
        latencies: list[float] = []
        ops_done: list[int] = []
        probes = [probe_burst(0.0)]
        k, timed = 0, 0.0
        while timed < seconds or k % workload.cycle:
            if timed >= len(setup) * seconds / SETUP_PROBES and len(setup) < SETUP_PROBES:
                time_setup()
                probes[-1] += probe_burst(0.0)
            ops, answer, elapsed, problems = attempt(workload, k)
            probes.append(probe_burst(elapsed))
            problems = problems or checked(workload, k, answer)
            tally.add(ops, problems)
            latencies.append(elapsed)
            ops_done.append(0 if problems else ops)
            timed += elapsed
            k += 1
        while len(setup) < SETUP_PROBES:
            time_setup()
    raw = np.array(latencies)
    lat = np.array([t / local_slowdown(probes, i) for i, t in enumerate(latencies)])

    def figures(setup_s: list[float], lat: np.ndarray) -> dict[str, float]:
        return {
            "setup_s": statistics.median(setup_s),
            "ops_per_s": sum(ops_done) / lat.sum(),
            "latency_p50_ms": 1e3 * float(np.percentile(lat, 50)),
            "latency_p90_ms": 1e3 * float(np.percentile(lat, 90)),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }

    metrics, raw_metrics = figures(setup, lat), figures(setup_raw, raw)
    metrics.update({m: raw_metrics[m] for m in workload.unadjusted})
    return {
        "metrics": metrics,
        "raw_metrics": raw_metrics,
        "host_slowdown": slowdown([p for point in probes for p in point]),
        "units": END_TO_END,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "error_rate": tally.failed / tally.attempted,
        "problems": tally.problems,
        "op": workload.op,
        "latency_samples": len(lat),
        "extras": workload.extras(),
    }


def traced_run(name: str, seed: int, workdir: Path, spans_path: Path) -> dict:
    """Each request of the fixed sequence runs untraced on one instance of
    the workload, then traced on a second one, so that slow drift of the
    host cancels out of the tracing overhead."""
    cls = WORKLOADS[name]
    tally = Tally()
    tracer = tracing.Tracer()
    untraced_s = traced_s = 0.0
    with tempfile.TemporaryDirectory(dir=workdir) as tmp:
        plain = cls(seed, ROOT, Path(tmp) / "plain")
        plain.warmup()
        try:
            tracer.install()
            traced = cls(seed, ROOT, Path(tmp) / "traced")
            for k in range(cls.trace_requests):
                tracer.uninstall()
                untraced_s += attempt(plain, k)[2]
                tracer.install()
                tracer.op = k
                ops, answer, elapsed, problems = attempt(traced, k)
                traced_s += elapsed
                tracer.active = False
                tally.add(ops, problems or checked(traced, k, answer))
                tracer.active = True
            probe = tracing.probe_pending_predict(tracer, str(ROOT / "src" / "tnbn" / "data" / "accident.json"))
        finally:
            tracer.uninstall()
    tracer.write(spans_path)
    metrics, absent = tracing.per_layer_metrics(tracer, tally.attempted, probe, untraced_s, traced_s)
    return {
        "metrics": metrics,
        "units": tracing.PER_LAYER,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "error_rate": tally.failed / tally.attempted,
        "problems": tally.problems,
        "op": cls.op,
        "requests": cls.trace_requests,
        "untraced_s": untraced_s,
        "traced_s": traced_s,
        "absent": absent,
        "spans": str(spans_path.relative_to(ROOT)),
        "extras": traced.extras(),
    }
