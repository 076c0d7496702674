"""Outside-in tracing: wrap tnbn's public functions where they are looked up.

The library is not changed. `Tracer.install` replaces every public function
of the six modules, and the `Session` methods, with a wrapper that records
a span. The replacement is made in every tnbn module that holds the
function, so names that sibling modules imported by value
(`tnbn.session.posterior`, `tnbn.cli.evaluate`, ...) are traced too.
`uninstall` puts the originals back.

Spans are kept in memory as (name id, start, end, parent span, op id) and
written out at the end. A span's self time is its duration minus the
durations of its direct children.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import sys
from pathlib import Path
from time import perf_counter

import tnbn
import tnbn.session

from workloads import signature

MODULES = ("model", "modelfile", "inference", "session", "simulate", "cli")
METHODS = ("observe", "scenarios", "predict", "diagnose")
# Called once per state, row or hidden node: a wrapper would cost more than
# the work and blur the self time of their callers.
LEAF_HELPERS = {
    "format_time", "allen_relation", "state_enumeration", "interval_layout",
    "accuracy_score", "rbs_score", "trial_seed",
}


class Tracer:
    """Wrappers for every traced binding, built once; `install` and
    `uninstall` swap them in and out, so untraced and traced requests can
    alternate."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []
        self.stack: list[int] = []      # indices of open spans
        self.open_names: list[str] = []
        self.op = None                  # op id stamped on new spans
        self.active = True              # False while checks run
        self.posterior_calls: list[tuple] = []   # (op, net, query, evidence)
        self.signatures: list[tuple] = []        # (op, signature) of predicts in evaluate
        self.bindings: list[tuple[object, str, object, object]] = []  # owner, name, original, wrapper

        originals: dict[int, tuple[object, str]] = {}
        for short in MODULES:
            mod = importlib.import_module(f"tnbn.{short}")
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not name.startswith("_") and name not in LEAF_HELPERS):
                    originals[id(obj)] = (obj, f"{short}.{name}")
        wrappers = {key: self._wrap(qual, fn) for key, (fn, qual) in originals.items()}
        for modname, mod in list(sys.modules.items()):
            if modname != "tnbn" and not modname.startswith("tnbn."):
                continue
            for name, obj in vars(mod).items():
                if id(obj) in originals and originals[id(obj)][0] is obj:
                    self.bindings.append((mod, name, obj, wrappers[id(obj)]))
        cls = getattr(tnbn.session, "Session", None)
        for name in METHODS:
            fn = vars(cls).get(name) if cls is not None else None
            if inspect.isfunction(fn):
                self.bindings.append((cls, name, fn, self._wrap(f"session.{name}", fn)))

    def install(self) -> None:
        for owner, name, _, wrapper in self.bindings:
            setattr(owner, name, wrapper)

    def uninstall(self) -> None:
        for owner, name, original, _ in self.bindings:
            setattr(owner, name, original)

    def _note(self, name: str, args: tuple, kwargs: dict) -> None:
        """Record the arguments the per-layer ratios need."""
        if name == "inference.posterior":
            net = args[0] if args else kwargs.get("net")
            query = args[1] if len(args) > 1 else kwargs.get("query")
            evidence = args[2] if len(args) > 2 else kwargs.get("evidence")
            self.posterior_calls.append((self.op, net, query, frozenset(dict(evidence or {}).items())))
        elif name == "session.predict" and "simulate.evaluate" in self.open_names and args:
            self.signatures.append((self.op, signature(args[0])))

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        noted = name in ("inference.posterior", "session.predict")
        spans, stack, open_names = self.spans, self.stack, self.open_names

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            if noted:
                self._note(name, args, kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            open_names.append(name)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                open_names.pop()
                spans[idx] = (nid, start, end, parent, self.op)

        return traced

    def write(self, path: Path) -> None:
        with gzip.open(path, "wt") as out:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "names": self.names, "spans": self.spans}, out)


# Per-layer metrics of the traced run, with units. `calls_per_op` and
# `self_ms` count spans stamped with an op id of the traced pass (self_ms is
# self time per op); `ms` is the mean inclusive time per call over every
# call, set-up included.
PER_LAYER = {
    "inference.posterior.calls_per_op": "calls/op",
    "inference.posterior.self_ms": "ms/op",
    "inference.evidence_probability.calls_per_op": "calls/op",
    "inference.evidence_probability.self_ms": "ms/op",
    "session.observe.self_ms": "ms/op",
    "session.scenarios.calls_per_op": "calls/op",
    "session.scenarios.self_ms": "ms/op",
    "session.predict.self_ms": "ms/op",
    "session.distinct_posterior_share": "ratio",
    "simulate.sample_trajectory.self_ms": "ms/op",
    "simulate.evaluate.self_ms": "ms/op",
    "simulate.distinct_signature_share": "ratio",
    "modelfile.load_network.ms": "ms/call",
    "model.validate.ms": "ms/call",
    "model.toposort.ms": "ms/call",
    "inference.compile_network.ms": "ms/call",
    "cli.main.self_ms": "ms/op",
    "marginals.relevant_node_share": "ratio",
    "probe.pending_predict.posterior_calls": "count",
    "probe.pending_predict.evidence_probability_calls": "count",
    "trace.overhead_s": "s",
    "trace.overhead_share": "ratio",
}


def layer_table(tracer: Tracer) -> dict[str, dict]:
    """calls, self and inclusive seconds per traced name, op spans and all
    spans separately."""
    child_time = [0.0] * len(tracer.spans)
    for nid, start, end, parent, op in tracer.spans:
        if parent >= 0:
            child_time[parent] += end - start
    table: dict[str, dict] = {}
    for i, (nid, start, end, parent, op) in enumerate(tracer.spans):
        if op == "probe":
            continue
        row = table.setdefault(tracer.names[nid], {
            "calls": 0, "calls_in_ops": 0, "self_s_in_ops": 0.0, "total_s": 0.0})
        row["calls"] += 1
        row["total_s"] += end - start
        if isinstance(op, int):
            row["calls_in_ops"] += 1
            row["self_s_in_ops"] += end - start - child_time[i]
    return table


def probe_pending_predict(tracer: Tracer, model: str) -> dict[str, int]:
    """Count the inference calls of one predict() on the bundled accident
    network with `VS unstable` reported first, so held pending."""
    tracer.op = "probe"
    first = len(tracer.spans)
    net = tnbn.compile_network(tnbn.load_network(model))
    session = tnbn.open_session(net).observe(tnbn.ObservedEvent("VS", "unstable", 100.0))
    session.predict()
    spans = tracer.spans[first:]
    predicts = [s for s in spans if tracer.names[s[0]] == "session.predict"]
    counts = {"posterior_calls": 0, "evidence_probability_calls": 0}
    if predicts:
        _, start, end, _, _ = predicts[-1]
        for nid, s, e, _, _ in spans:
            name = tracer.names[nid].rpartition(".")[2]
            if start <= s and e <= end and f"{name}_calls" in counts:
                counts[f"{name}_calls"] += 1
    return counts


def per_layer_metrics(tracer: Tracer, ops: int, probe: dict[str, int],
                      untraced_s: float, traced_s: float) -> tuple[dict[str, float], list[str]]:
    """The PER_LAYER values, and the names that no longer exist in tnbn."""
    table = layer_table(tracer)
    known = set(tracer.names)
    absent: list[str] = []
    values: dict[str, float] = {}
    for metric in PER_LAYER:
        base, _, kind = metric.rpartition(".")
        if base in ("session", "simulate", "marginals", "probe.pending_predict", "trace"):
            continue
        if base not in known:
            absent.append(base)
        row = table.get(base, {"calls": 0, "calls_in_ops": 0, "self_s_in_ops": 0.0, "total_s": 0.0})
        if kind == "calls_per_op":
            values[metric] = row["calls_in_ops"] / ops
        elif kind == "self_ms":
            values[metric] = 1e3 * row["self_s_in_ops"] / ops
        else:
            values[metric] = 1e3 * row["total_s"] / row["calls"] if row["calls"] else 0.0

    in_ops = [c for c in tracer.posterior_calls if isinstance(c[0], int)]
    keys = [(id(net), query, evidence) for _, net, query, evidence in in_ops]
    values["session.distinct_posterior_share"] = len(set(keys)) / len(keys) if keys else 0.0
    relevant: dict[tuple, float] = {}
    for (_, net, query, evidence), key in zip(in_ops, keys):
        if key not in relevant:
            sources = {query} | {nid for nid, _ in evidence}
            relevant[key] = len(sources | net.spec.ancestors(sources)) / len(net.spec.nodes)
    values["marginals.relevant_node_share"] = (
        sum(relevant[k] for k in keys) / len(keys) if keys else 0.0)
    # over trials, not predict() calls, so memoising predict() leaves it alone
    sigs = {s for op, s in tracer.signatures if isinstance(op, int)}
    values["simulate.distinct_signature_share"] = len(sigs) / ops
    for name, count in probe.items():
        values[f"probe.pending_predict.{name}"] = float(count)
    values["trace.overhead_s"] = traced_s - untraced_s
    values["trace.overhead_share"] = (traced_s - untraced_s) / untraced_s
    return {m: values[m] for m in PER_LAYER}, sorted(set(absent))
