#!/usr/bin/env python3
"""Benchmark for tnbn: four workloads, end-to-end metrics, a traced run.

Run from the repository root:

    python3 bench/run.py --workload session-stream --seed 1 --seconds 22 --trace 0
    python3 bench/run.py --workload all --seed 1 --runs 5 --label baseline
    python3 bench/run.py --compare .bench_out/BENCH_a.json .bench_out/BENCH_b.json

One run prints a line per metric and then, as its last line, one JSON object
with the keys correct, attempted, failed and metrics. `--trace 0` measures
the end-to-end metrics, `--trace 1` the per-layer ones. It exits 1 if any
answer was wrong. `--workload all` or `--runs N` runs each workload N times
with seeds seed, seed+1, ..., one fresh process at a time, and reports the
median and run-to-run spread of every metric, gated and raw. `--compare A B`
prints the ratio B/A of every metric's median, and of its raw wall-clock
median next to it. Result files go to .bench_out/.
See bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
NAMES = ("evaluate-accident", "session-stream", "marginals-random", "model-churn")
# Far below the host's memory, so an intermediate factor that blows up
# raises a MemoryError that is counted as a failed op, instead of starving
# the machine.
ADDRESS_SPACE_BYTES = 2 << 30


def prepare() -> None:
    """One thread, bounded memory, and tnbn from this checkout's src/."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    limit = ADDRESS_SPACE_BYTES if hard == resource.RLIM_INFINITY else min(hard, ADDRESS_SPACE_BYTES)
    resource.setrlimit(resource.RLIMIT_AS, (limit, hard))
    src = ROOT / "src"
    if not (src / "tnbn" / "__init__.py").is_file():
        raise SystemExit(f"error: no tnbn source under {src}")
    sys.path.insert(0, str(src))
    import tnbn

    if Path(tnbn.__file__).resolve().parent != (src / "tnbn").resolve():
        raise SystemExit(f"error: imported tnbn from {tnbn.__file__}, not from {src}")


def git_sha():
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def context(args) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": git_sha(),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "seconds": args.seconds,
        "trace": args.trace,
        "claim": None,
    }


def print_run(name: str, run: dict) -> None:
    print(f"{name} (seed {run['seed']}; op: {run['op']})")
    for metric, value in run["metrics"].items():
        print(f"  {metric:<50} {value:14.6g} {run['units'][metric]}")
    samples = f"{run['latency_samples']} latency samples; " if "latency_samples" in run else ""
    print(f"  {samples}error_rate {run['error_rate']:.6g} "
          f"({run['failed']} of {run['attempted']} ops failed)")
    if "raw_metrics" in run:
        raw = ", ".join(f"{m} {v:.6g}" for m, v in run["raw_metrics"].items())
        print(f"  host slowdown {run['host_slowdown']:.4g}; raw wall-clock figures: {raw}")
    for key, value in run["extras"].items():
        print(f"  {key}: {value}")
    for name in run.get("absent", []):
        print(f"  absent from tnbn: {name}")
    for problem in run["problems"]:
        print(f"  problem: {problem}")


def single(args) -> int:
    prepare()
    import measure

    OUT.mkdir(exist_ok=True)
    name, seed = args.workload, args.seed % 2**32
    if args.trace:
        run = measure.traced_run(name, seed, OUT, OUT / f"{name}-seed{seed}.spans.json.gz")
    else:
        run = measure.timed_run(name, seed, args.seconds, OUT)
    run["seed"] = seed
    out = OUT / f"{name}-seed{seed}-trace{args.trace}.json"
    out.write_text(json.dumps({"context": context(args), "workloads": {name: {"runs": [run]}}}, indent=1))
    print_run(name, run)
    correct = run["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {m: {"value": v, "unit": run["units"][m]} for m, v in run["metrics"].items()},
    }))
    return 0 if correct else 1


def summarize(runs: list[dict]) -> dict:
    """Median and spread ((q3 - q1) / median) of every metric, and of every
    raw wall-clock figure the timed runs also keep."""
    summary: dict = {"runs": runs}
    for kind in ("metrics", "raw_metrics"):
        if not runs or kind not in runs[0]:
            continue
        prefix = "raw_" if kind == "raw_metrics" else ""
        median_of = summary[prefix + "median"] = {}
        spread_of = summary[prefix + "spread"] = {}
        for metric in runs[0][kind]:
            values = [r[kind][metric] for r in runs]
            median = statistics.median(values)
            median_of[metric] = median
            if len(values) > 1 and median:
                q1, _, q3 = statistics.quantiles(values, n=4)
                spread_of[metric] = (q3 - q1) / median
            else:
                spread_of[metric] = None
    return summary


def bounds() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return {}
    return {m["name"]: m for m in json.loads(path.read_text())["end_to_end"]}


def suite(args) -> int:
    names = NAMES if args.workload == "all" else (args.workload,)
    OUT.mkdir(exist_ok=True)
    doc = {"context": None, "workloads": {}}
    ok = True
    for name in names:
        runs = []
        for seed in range(args.seed, args.seed + args.runs):
            out = OUT / f"{name}-seed{seed}-trace{args.trace}.json"
            out.unlink(missing_ok=True)
            proc = subprocess.run(
                [sys.executable, __file__, "--workload", name, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900,
            )
            print(proc.stdout, end="", flush=True)
            ok = ok and proc.returncode == 0
            if out.is_file():
                result = json.loads(out.read_text())
                doc["context"] = doc["context"] or result["context"]
                runs.append(result["workloads"][name]["runs"][0])
        doc["workloads"][name] = summarize(runs)
    doc["context"] = doc["context"] or {}
    doc["context"]["runs"] = args.runs
    doc["context"]["seeds"] = [args.seed, args.seed + args.runs - 1]
    path = OUT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(doc, indent=1))

    limits = bounds()
    print(f"\nmedian and spread over {args.runs} runs (spread = (q3 - q1) / median); written to {path}")
    for name, summary in doc["workloads"].items():
        if not summary["runs"]:
            continue
        raw_spreads = summary.get("raw_spread", {})
        for metric, median in summary["median"].items():
            spread = summary["spread"][metric]
            line = f"{name:<18} {metric:<50} {median:14.6g} {summary['runs'][0]['units'][metric]:<9}"
            line += f" spread {spread:.3f}" if spread is not None else " spread -"
            if raw_spreads.get(metric) is not None:
                line += f" (raw {raw_spreads[metric]:.3f})"
            if metric in limits and spread is not None:
                bound = limits[metric]["bound"]
                line += f" bound {bound}: {'steady' if spread < bound / 3 else 'NOT STEADY'}"
            print(line)
    return 0 if ok else 1


def medians(doc: dict, kind: str) -> dict[str, dict[str, float]]:
    """Per workload, the medians of the gated (kind "median") or the raw
    wall-clock (kind "raw_median") figures."""
    return {
        name: summary[kind] if kind in summary else summarize(summary["runs"]).get(kind, {})
        for name, summary in doc["workloads"].items()
    }


def ratio(va: float | None, vb: float | None) -> str:
    return f"x{vb / va:.4f}" if va and vb is not None else "x-"


def compare(path_a: str, path_b: str) -> int:
    doc_a, doc_b = json.loads(Path(path_a).read_text()), json.loads(Path(path_b).read_text())
    a, b = medians(doc_a, "median"), medians(doc_b, "median")
    raw_a, raw_b = medians(doc_a, "raw_median"), medians(doc_b, "raw_median")
    limits = bounds()
    print(f"ratio B/A of medians, gated and raw wall-clock; A = {path_a}, B = {path_b}")
    for name in [n for n in a if n in b]:
        for metric in [m for m in a[name] if m in b[name]]:
            va, vb = a[name][metric], b[name][metric]
            line = f"{name:<18} {metric:<50} {va:14.6g} {vb:14.6g}  {ratio(va, vb)}"
            if metric in raw_a.get(name, {}):
                line += f"  raw {ratio(raw_a[name][metric], raw_b.get(name, {}).get(metric))}"
            if metric in limits and va:
                worse = (vb - va) / va if limits[metric]["better"] == "lower" else (va - vb) / va
                bound = limits[metric]["bound"]
                line += "  worse beyond bound" if worse > bound else ("  better" if worse < 0 else "  within bound")
            print(line)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=22.0, help="time inside requests per timed run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--runs", type=int, default=1, help="runs per workload, seeds seed.. seed+runs-1")
    parser.add_argument("--label", default="run", help="names the suite's result file BENCH_<label>.json")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"), help="compare two result files")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.workload is None:
        parser.error("--workload is required")
    if args.setup_probe:
        prepare()
        import measure

        OUT.mkdir(exist_ok=True)
        measure.setup_probe(args.workload, args.seed % 2**32, OUT)
        return 0
    if args.workload == "all" or args.runs > 1:
        return suite(args)
    return single(args)


if __name__ == "__main__":
    sys.exit(main())
