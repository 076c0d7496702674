"""Trajectory sampling and a prediction-quality harness.

A trajectory is one complete ancestral sample of the network, each temporal
change stamped with a concrete time drawn uniformly inside its interval. The
sampler draws each node's state by inverse CDF on one uniform, from the
cumulative tables that the compiled network reads off its CPT factors (built
on first use), indexed by the parents' sampled state positions. The harness
replays part of a trajectory into a session as timed events, asks for
forecasts, and scores them against the hidden remainder, so the session
layer (anchoring noise included) is part of what gets measured.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import EmptyTierError
from .inference import CompiledNetwork, Distribution
from .model import NetworkSpec, NodeKind, NodeState
from .session import ObservedEvent, open_session


@dataclass(frozen=True)
class TrajectoryEntry:
    """One node's sampled state; `time` is None for no-change states."""

    node: str
    state: NodeState
    time: Optional[float]


@dataclass(frozen=True)
class Trajectory:
    """A complete sampled world, in node declaration order."""

    entries: tuple[TrajectoryEntry, ...]
    seed: int

    @cached_property
    def _by_node(self) -> dict[str, TrajectoryEntry]:
        return {e.node: e for e in self.entries}

    def entry(self, node_id: str) -> TrajectoryEntry:
        return self._by_node[node_id]

    def state_of(self, node_id: str) -> NodeState:
        return self.entry(node_id).state


def sample_trajectory(net: CompiledNetwork, seed: int) -> Trajectory:
    """Ancestral sampling; deterministic in `seed`.

    Instantaneous nodes happen at time 0. A temporal change gets a time
    drawn uniformly inside the sampled interval; the default state has no
    time at all.
    """
    rng = np.random.default_rng(seed)
    cdfs = net.cdfs
    pos = [0] * len(net.node_ids)  # sampled state positions, by axis
    entries: list[Optional[TrajectoryEntry]] = [None] * len(pos)
    for nid in net.topo:
        i = net.axes[nid]
        node = net.spec.node(nid)
        cdf = cdfs[i][tuple(pos[j] for j in net.factors[i].scope if j != i)]
        pos[i] = int(cdf.searchsorted(rng.random(), side="right"))
        picked = net.states[nid][pos[i]]
        if node.kind is not NodeKind.TEMPORAL:
            time = 0.0
        elif picked.interval_index is None:
            time = None
        else:
            iv = node.intervals[picked.interval_index]
            time = float(rng.uniform(iv.lo, iv.hi))
        entries[i] = TrajectoryEntry(nid, picked, time)
    return Trajectory(tuple(entries), seed)


def accuracy_score(predicted: Distribution, actual: NodeState) -> float:
    """100 when the most probable state is the actual one, else 0."""
    predicted.index(actual)  # raises UnknownStateError
    return 100.0 if predicted.argmax() == actual else 0.0


def rbs_score(predicted: Distribution, actual: NodeState) -> float:
    """Brier score rescaled to 0..100.

    100 means full confidence in the actual state; a uniform coin-flip over
    two states scores 75; full confidence in a wrong state scores 0.
    """
    predicted.index(actual)  # raises UnknownStateError
    target = np.array([1.0 if s == actual else 0.0 for s in predicted.states])
    brier = float(np.sum((predicted.probs - target) ** 2))
    return 100.0 * (1.0 - brier / 2.0)


@dataclass(frozen=True)
class NodeTiers:
    """Structural node groups: roots, leaves, and everything between."""

    roots: tuple[str, ...]
    intermediates: tuple[str, ...]
    leaves: tuple[str, ...]


def node_tiers(spec: NetworkSpec) -> NodeTiers:
    ids = spec.node_ids()
    roots = tuple(n for n in ids if not spec.parents(n))
    leaves = tuple(n for n in ids if not spec.children(n) and n not in roots)
    middles = tuple(n for n in ids if n not in roots and n not in leaves)
    return NodeTiers(roots, middles, leaves)


CONDITIONS = ("root-observed", "intermediate-observed", "leaf-observed")


def _tier_for(condition: str, tiers: NodeTiers) -> tuple[str, tuple[str, ...]]:
    short = condition.strip().lower().removesuffix("-observed")
    by_name = {
        "root": tiers.roots,
        "intermediate": tiers.intermediates,
        "leaf": tiers.leaves,
    }
    if short not in by_name:
        raise ValueError(
            f"unknown condition {condition!r}; choose from {', '.join(CONDITIONS)}"
        )
    return f"{short}-observed", by_name[short]


@dataclass(frozen=True)
class EvalReport:
    """Per-trial scores for one condition, with their mean and spread."""

    condition: str
    trials: int
    revealed: tuple[str, ...]
    accuracy: tuple[float, ...]
    rbs: tuple[float, ...]

    @property
    def accuracy_mean(self) -> float:
        return float(np.mean(self.accuracy))

    @property
    def accuracy_std(self) -> float:
        return float(np.std(self.accuracy))

    @property
    def rbs_mean(self) -> float:
        return float(np.mean(self.rbs))

    @property
    def rbs_std(self) -> float:
        return float(np.std(self.rbs))

    def format_table(self) -> str:
        lines = [
            f"condition: {self.condition} "
            f"(revealed: {', '.join(self.revealed)}; trials: {self.trials})",
            f"{'metric':<10}{'mean':>10}{'std':>10}",
            f"{'Accuracy':<10}{self.accuracy_mean:>10.2f}{self.accuracy_std:>10.2f}",
            f"{'RBS':<10}{self.rbs_mean:>10.2f}{self.rbs_std:>10.2f}",
        ]
        return "\n".join(lines)

    def to_json_dict(self) -> dict:
        return {
            "condition": self.condition,
            "trials": self.trials,
            "revealed": list(self.revealed),
            "accuracy": {"mean": self.accuracy_mean, "std": self.accuracy_std},
            "rbs": {"mean": self.rbs_mean, "std": self.rbs_std},
        }


def trial_seed(seed: int, trial: int) -> int:
    return int(np.random.SeedSequence([seed, trial]).generate_state(1)[0])


def reveal_events(net: CompiledNetwork, trajectory: Trajectory, revealed: tuple[str, ...]) -> list[ObservedEvent]:
    """Turn the revealed part of a trajectory into a timed event list.

    Change events come first, ordered by time; no-change assertions follow,
    stamped at the end of the node's covered range (a claim that nothing
    happened is only checkable once the whole range has elapsed).
    """
    events: list[tuple[bool, float, int, ObservedEvent]] = []
    for nid in revealed:
        node = net.spec.node(nid)
        entry = trajectory.entry(nid)
        asserted = node.default_value is not None and entry.state.value == node.default_value
        if asserted:
            rng = node.temporal_range
            tc = rng.hi if rng is not None else 0.0
        else:
            tc = entry.time if entry.time is not None else 0.0
        events.append((asserted, tc, net.index(nid), ObservedEvent(nid, entry.state.value, tc)))
    events.sort(key=lambda item: item[:3])
    return [e for *_, e in events]


def evaluate(net: CompiledNetwork, condition: str, trials: int, seed: int = 0) -> EvalReport:
    """Score forecasts of the hidden nodes when one tier is revealed.

    Each trial samples a trajectory, feeds the revealed tier into a session
    as timed events, and scores the session's forecasts for every hidden
    node against the sampled truth. Per-trial scores are the mean over
    hidden nodes; the report aggregates over trials (population std).
    Trials that end with the same resolved states and held reports share
    one forecast.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    condition, revealed = _tier_for(condition, node_tiers(net.spec))
    if not revealed:
        raise EmptyTierError(
            f"this network has no {condition.removesuffix('-observed')} tier to reveal"
        )
    hidden = tuple(n for n in net.node_ids if n not in revealed)
    if not hidden:
        raise EmptyTierError(
            f"revealing the {condition.removesuffix('-observed')} tier leaves "
            "no hidden node to score"
        )
    # per trial, the (accuracy, rbs) pair of each hidden node
    pairs: list[list[tuple[float, float]]] = []
    # The resolved states and the held reports fix the evidence, the scenarios
    # and the targets, hence every forecast: score each signature once.
    scored: dict[tuple, list[dict[NodeState, tuple[float, float]]]] = {}
    for t in range(trials):
        trajectory = sample_trajectory(net, trial_seed(seed, t))
        session = open_session(net)
        for event in reveal_events(net, trajectory, revealed):
            session = session.observe(event)
        key = (
            frozenset(session.resolved_evidence.items()),
            tuple((e.node, e.value) for e in session.pending),
        )
        if key not in scored:
            forecasts = session.predict().forecasts
            scored[key] = [
                {s: (accuracy_score(d, s), rbs_score(d, s)) for s in d.states}
                for d in (forecasts[n].distribution for n in hidden)
            ]
        pairs.append([by_state[trajectory.state_of(n)] for n, by_state in zip(hidden, scored[key])])
    # one row of hidden-node scores per trial and metric, each averaged as
    # np.mean averages a list
    means = np.ascontiguousarray(np.transpose(pairs, (0, 2, 1))).mean(axis=-1)
    accuracy, rbs = means.T.tolist()
    return EvalReport(condition, trials, revealed, tuple(accuracy), tuple(rbs))
