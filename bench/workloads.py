"""The four benchmark workloads and the checks on their answers.

A workload is built from a seed (its set-up), then serves requests numbered
0, 1, 2, ... in order. `request(k)` is the timed call into tnbn; it returns
how many ops it did and the answer. `check(k, answer)` runs untimed and
returns the problems it found; a request with problems counts all its ops
as failed. Requests only reach tnbn through module attributes looked up at
call time (`tnbn.posterior`, `tnbn.cli.main`, ...), so the traced run sees
every call.

Why these four (each stresses different layers; see README.md):

- evaluate-accident: the paper's evaluation protocol through the CLI, on
  the bundled 5-node network. Per-call overhead in simulate, session and
  model lookups; many trials share a revealed signature.
- session-stream: the online use. Timed reports arrive one by one and each
  is followed by a forecast of every unobserved node. Half of the streams
  open with a temporal report that is held pending.
- marginals-random: pure inference. All-marginals sweeps on networks of
  about 20, 50 and 100 nodes, with and without evidence.
- model-churn: pure modelfile and model. Load and compile (which
  validates) saved networks of about 50, 200 and 500 nodes.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
from pathlib import Path

import numpy as np

import tnbn
import tnbn.cli
import tnbn.simulate

import gen

# Answers must match their reference to this absolute tolerance, and every
# distribution must sum to 1 within it.
TOLERANCE = 1e-9
CONDITIONS = ("root-observed", "intermediate-observed", "leaf-observed")


def signature(session) -> tuple:
    """What a forecast depends on: resolved states and held reports."""
    resolved = frozenset((nid, r.state) for nid, r in session.resolved.items())
    return resolved, tuple((e.node, e.value) for e in session.pending)


def scenario_evidence(net, session) -> list[dict]:
    """Every candidate evidence set: the resolved states plus one interval
    for each held report."""
    base = {nid: r.state for nid, r in session.resolved.items()}
    choices = [
        [(e.node, tnbn.NodeState(e.value, i)) for i in range(len(net.spec.node(e.node).intervals))]
        for e in session.pending
    ]
    return [{**base, **dict(combo)} for combo in itertools.product(*choices)]


def distribution_problems(where: str, dist) -> list[str]:
    probs = np.asarray(dist.probs, dtype=float)
    if probs.shape != (len(dist.states),):
        return [f"{where}: {probs.shape} probabilities for {len(dist.states)} states"]
    if not np.all(np.isfinite(probs)) or np.any(probs < 0.0):
        return [f"{where}: non-finite or negative probability {probs.tolist()}"]
    if abs(float(probs.sum()) - 1.0) > TOLERANCE:
        return [f"{where}: probabilities sum to {float(probs.sum())!r}"]
    return []


def oracle_mixture(spec, scenarios: list[dict], targets) -> dict[str, np.ndarray]:
    """Scenario-mixed marginals from the enumeration oracle: the sum over
    scenarios of P(e_s, X), over the sum of P(e_s). Only the accident
    network is small enough; every generated one is far above
    joint_enumerate's size limit."""
    total = 0.0
    sums: dict[str, np.ndarray] = {}
    for evidence in scenarios:
        joint = tnbn.joint_enumerate(spec, evidence)
        total += joint.total()
        for nid in targets:
            sums[nid] = sums.get(nid, 0.0) + joint.marginal(nid)
    return {nid: s / total for nid, s in sums.items()}


def identity_mixture(net, scenarios: list[dict], target: str) -> np.ndarray:
    """The same mixture through P(evidence) alone:
    P(X=x) = sum_s P(e_s, X=x) / sum_s P(e_s)."""
    states = net.states[target]
    num = np.zeros(len(states))
    den = 0.0
    for evidence in scenarios:
        den += tnbn.evidence_probability(net, evidence)
        for i, state in enumerate(states):
            num[i] += tnbn.evidence_probability(net, {**evidence, target: state})
    return num / den


def mismatch(where: str, got, want) -> list[str]:
    err = float(np.max(np.abs(np.asarray(got, dtype=float) - want)))
    return [f"{where}: off by {err:.3g} from the reference"] if not err <= TOLERANCE else []


class Workload:
    name = ""
    op = ""                 # what one op is
    ops_per_request = 1
    trace_requests = 0      # fixed request count of the traced run
    check_every = 1         # requests between full reference checks
    cycle = 1               # requests that make up the whole op mix once
    unadjusted: tuple[str, ...] = ()  # metrics gated as raw wall-clock figures

    def warmup(self) -> None:
        for k in range(3):
            self.request(k)

    def request(self, k: int):
        raise NotImplementedError

    def check(self, k: int, answer) -> list[str]:
        raise NotImplementedError

    def extras(self) -> dict:
        """Workload-specific results and input properties."""
        return {}


class EvaluateAccident(Workload):
    name = "evaluate-accident"
    op = "one evaluate trial (a request is one `tnbn evaluate -n 1000` call)"
    trials = 1000
    ops_per_request = trials
    trace_requests = 3
    # coprime with the three conditions, so replays rotate through them
    check_every = 10
    cycle = len(CONDITIONS)

    def __init__(self, seed: int, root: Path, workdir: Path):
        self.seed = seed
        self.model = str(root / "src" / "tnbn" / "data" / "accident.json")
        self.net = tnbn.compile_network(tnbn.load_network(self.model))
        tiers = tnbn.node_tiers(self.net.spec)
        self.revealed = dict(zip(CONDITIONS, (tiers.roots, tiers.intermediates, tiers.leaves)))
        self.oracle: dict[tuple, dict[str, np.ndarray]] = {}
        self.scores: list[tuple[int, float, float]] = []

    def _call(self, condition: str, trials: int, seed: int) -> tuple[int, str]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = tnbn.cli.main([
                "evaluate", self.model, "-c", condition,
                "-n", str(trials), "-s", str(seed), "--json",
            ])
        return code, out.getvalue()

    def warmup(self) -> None:
        for condition in CONDITIONS:
            self._call(condition, 20, self.seed)

    def _args(self, k: int) -> tuple[str, int]:
        return CONDITIONS[k % len(CONDITIONS)], self.seed * 100_003 + k

    def request(self, k: int):
        condition, seed = self._args(k)
        return self.trials, self._call(condition, self.trials, seed)

    def check(self, k: int, answer) -> list[str]:
        condition, seed = self._args(k)
        code, text = answer
        if code != 0:
            return [f"request {k}: exit code {code}"]
        report = json.loads(text)
        acc, rbs = report["accuracy"]["mean"], report["rbs"]["mean"]
        if report["trials"] != self.trials or report["condition"] != condition:
            return [f"request {k}: report for {report['condition']} x {report['trials']}"]
        if not (0.0 <= acc <= 100.0 and 0.0 <= rbs <= 100.0):
            return [f"request {k}: scores out of range: {acc}, {rbs}"]
        self.scores.append((self.trials, acc, rbs))
        if k % self.check_every:
            return []
        return self._replay(k, condition, seed, acc, rbs)

    def _replay(self, k: int, condition: str, seed: int, acc: float, rbs: float) -> list[str]:
        """Replay every trial through the session and score it against
        forecasts checked against the enumeration oracle."""
        net, revealed = self.net, self.revealed[condition]
        hidden = [n for n in net.spec.node_ids() if n not in revealed]
        problems: list[str] = []
        acc_trials, rbs_trials = [], []
        for t in range(self.trials):
            trajectory = tnbn.sample_trajectory(net, tnbn.trial_seed(seed, t))
            session = tnbn.open_session(net)
            for event in tnbn.simulate.reveal_events(net, trajectory, revealed):
                session = session.observe(event)
            key = signature(session)
            if key not in self.oracle:
                forecasts = session.predict().forecasts
                want = oracle_mixture(net.spec, scenario_evidence(net, session), hidden)
                for nid in hidden:
                    where = f"request {k} trial {t} {nid}"
                    problems += distribution_problems(where, forecasts[nid].distribution)
                    problems += mismatch(where, forecasts[nid].distribution.probs, want[nid])
                self.oracle[key] = {nid: forecasts[nid].distribution.probs for nid in hidden}
            probs = self.oracle[key]
            acc_here, rbs_here = [], []
            for nid in hidden:
                actual = net.states[nid].index(trajectory.state_of(nid))
                target = np.eye(len(probs[nid]))[actual]
                acc_here.append(100.0 if int(np.argmax(probs[nid])) == actual else 0.0)
                rbs_here.append(100.0 * (1.0 - float(np.sum((probs[nid] - target) ** 2)) / 2.0))
            acc_trials.append(float(np.mean(acc_here)))
            rbs_trials.append(float(np.mean(rbs_here)))
        for what, got, want in (("accuracy", acc, np.mean(acc_trials)), ("rbs", rbs, np.mean(rbs_trials))):
            problems += mismatch(f"request {k} mean {what}", got, want)
        return problems

    def extras(self) -> dict:
        trials = sum(n for n, _, _ in self.scores)
        if not trials:
            return {}
        return {
            "forecast_rbs": sum(n * r for n, _, r in self.scores) / trials,
            "forecast_accuracy": sum(n * a for n, a, _ in self.scores) / trials,
        }


class SessionStream(Workload):
    name = "session-stream"
    op = "observe(event) then predict()"
    nodes = 25
    # Streams rotate over a few networks, so no single draw of the
    # structure sets the figures.
    networks = 3
    n_streams = 150
    stream_length = 4
    trace_requests = 60
    cycle = 2 * stream_length   # a pending stream and a plain one
    # coprime with the stream length, so checks reach every step
    check_every = 21

    def __init__(self, seed: int, root: Path, workdir: Path):
        rng = np.random.default_rng([seed, 2])
        nets = [
            tnbn.compile_network(gen.network(rng, self.nodes, temporal_share=0.8, name=f"stream-{i}"))
            for i in range(self.networks)
        ]
        self.streams = [
            (nets[i % len(nets)], gen.event_stream(
                rng, nets[i % len(nets)].spec, self.stream_length,
                start_pending=i % 2 == 0, out_of_range_share=0.1))
            for i in range(self.n_streams)
        ]
        self.order = [(i, j) for i, (_, events) in enumerate(self.streams) for j in range(len(events))]
        self.session = None
        self.pending_ops = 0
        self.checked_ops = 0
        self.inconsistent = 0
        self.reports = 0

    def request(self, k: int):
        i, j = self.order[k % len(self.order)]
        net, events = self.streams[i]
        if j == 0:
            self.session = tnbn.open_session(net)
        self.session = self.session.observe(events[j])
        return 1, (self.session, self.session.predict())

    def check(self, k: int, answer) -> list[str]:
        session, report = answer
        i, j = self.order[k % len(self.order)]
        net, events = self.streams[i]
        self.checked_ops += 1
        self.pending_ops += bool(session.pending)
        if j == len(events) - 1:
            self.reports += len(events)
            self.inconsistent += len(session.inconsistent)
        forecasts = report.forecasts
        unobserved = set(net.spec.node_ids()) - set(session.resolved)
        unobserved -= {e.node for e in session.pending}
        if set(forecasts) != unobserved:
            return [f"op {k}: forecasts for {sorted(forecasts)}, expected {sorted(unobserved)}"]
        problems = []
        for nid, forecast in forecasts.items():
            problems += distribution_problems(f"op {k} {nid}", forecast.distribution)
        if k % self.check_every == 0 and forecasts:
            targets = sorted(forecasts)
            scenarios = scenario_evidence(net, session)
            for nid in {targets[k % len(targets)], targets[(k + 1) % len(targets)]}:
                want = identity_mixture(net, scenarios, nid)
                problems += mismatch(f"op {k} {nid}", forecasts[nid].distribution.probs, want)
        return problems

    def extras(self) -> dict:
        if not self.checked_ops:
            return {}
        return {
            "pending_op_share": self.pending_ops / self.checked_ops,
            "inconsistent_report_share": self.inconsistent / self.reports if self.reports else 0.0,
        }


class MarginalsRandom(Workload):
    name = "marginals-random"
    op = "one posterior() call"
    sizes = (20, 50, 100)
    trace_requests = 120
    cycle = 2 * len(sizes)
    # coprime with the six sweeps, so checks rotate through all of them
    check_every = 49

    def __init__(self, seed: int, root: Path, workdir: Path):
        rng = np.random.default_rng([seed, 3])
        self.sweeps = []
        for n in self.sizes:
            net = tnbn.compile_network(gen.network(rng, n, temporal_share=0.5, name=f"marginals-{n}"))
            evidence = gen.evidence_from(rng, net.spec, int(rng.integers(2, 4)))
            for ev in ({}, evidence):
                queries = [nid for nid in net.spec.node_ids() if nid not in ev]
                self.sweeps.append((net, ev, queries))
        self.evidence_p: dict[int, float] = {}

    def _op(self, k: int):
        net, evidence, queries = self.sweeps[k % len(self.sweeps)]
        return net, evidence, queries[(k // len(self.sweeps)) % len(queries)]

    def request(self, k: int):
        net, evidence, query = self._op(k)
        return 1, tnbn.posterior(net, query, evidence)

    def check(self, k: int, answer) -> list[str]:
        net, evidence, query = self._op(k)
        problems = distribution_problems(f"op {k} P({query})", answer)
        if problems or k % self.check_every:
            return problems
        sweep = k % len(self.sweeps)
        if sweep not in self.evidence_p:
            self.evidence_p[sweep] = tnbn.evidence_probability(net, evidence)
        want = [
            tnbn.evidence_probability(net, {**evidence, query: state}) / self.evidence_p[sweep]
            for state in net.states[query]
        ]
        return mismatch(f"op {k} P({query})", answer.probs, np.array(want))


class ModelChurn(Workload):
    name = "model-churn"
    op = "load_network(path) then compile_network()"
    sizes = (50, 200, 500)
    trace_requests = 15
    cycle = len(sizes)
    # p90 falls among the 500-node loads, which a slow host slows less than
    # the host probe: rescaled, their p90 fell as the host slowed, and its
    # run-to-run spread was wider than the raw one (README.md, Steadiness).
    unadjusted = ("latency_p90_ms",)

    def __init__(self, seed: int, root: Path, workdir: Path):
        rng = np.random.default_rng([seed, 4])
        workdir.mkdir(parents=True, exist_ok=True)
        self.models = []
        for n in self.sizes:
            spec = gen.network(rng, n, temporal_share=0.5, name=f"churn-{n}")
            path = workdir / f"churn-{n}.json"
            tnbn.save_network(spec, path)
            self.models.append((path, spec))

    def request(self, k: int):
        path, _ = self.models[k % len(self.models)]
        return 1, tnbn.compile_network(tnbn.load_network(path))

    def check(self, k: int, answer) -> list[str]:
        _, spec = self.models[k % len(self.models)]
        ids = [n.id for n in spec.nodes]
        if [n.id for n in answer.spec.nodes] != ids:
            return [f"op {k}: node ids changed in the round trip"]
        counts = [len(tnbn.state_enumeration(n)) for n in spec.nodes]
        if [len(answer.states[nid]) for nid in ids] != counts:
            return [f"op {k}: state counts changed in the round trip"]
        if dict(answer.spec.tables) != dict(spec.tables):
            return [f"op {k}: conditional tables changed in the round trip"]
        return []


WORKLOADS = {w.name: w for w in (EvaluateAccident, SessionStream, MarginalsRandom, ModelChurn)}
