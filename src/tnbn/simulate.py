"""Trajectory sampling and a prediction-quality harness.

A trajectory is one complete ancestral sample of the network, each temporal
change stamped with a concrete time drawn uniformly inside its interval. The
harness replays part of a trajectory into a session as timed events, asks
for forecasts, and scores them against the hidden remainder, so the session
layer (anchoring noise included) is part of what gets measured.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import EmptyTierError, UnknownStateError
from .inference import CompiledNetwork, Distribution, _state_text
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

    def entry(self, node_id: str) -> TrajectoryEntry:
        for e in self.entries:
            if e.node == node_id:
                return e
        raise KeyError(node_id)

    def state_of(self, node_id: str) -> NodeState:
        return self.entry(node_id).state


def sample_trajectory(net: CompiledNetwork, seed: int) -> Trajectory:
    """Ancestral sampling; deterministic in `seed`.

    Instantaneous nodes happen at time 0. A temporal change gets a time
    drawn uniformly inside the sampled interval; the default state has no
    time at all.
    """
    rng = np.random.default_rng(seed)
    assigned: dict[str, NodeState] = {}
    times: dict[str, Optional[float]] = {}
    for nid in net.topo:
        node = net.spec.node(nid)
        table = net.spec.tables[nid]
        key = tuple(assigned[p] for p in table.parent_order)
        probs = np.asarray(table.rows[key], dtype=float)
        states = net.states[nid]
        picked = states[int(rng.choice(len(states), p=probs / probs.sum()))]
        assigned[nid] = picked
        if node.kind is NodeKind.TEMPORAL:
            if picked.interval_index is None:
                times[nid] = None
            else:
                iv = node.intervals[picked.interval_index]
                times[nid] = float(rng.uniform(iv.lo, iv.hi))
        else:
            times[nid] = 0.0
    entries = tuple(
        TrajectoryEntry(nid, assigned[nid], times[nid]) for nid in net.node_ids
    )
    return Trajectory(entries, seed)


def accuracy_score(predicted: Distribution, actual: NodeState) -> float:
    """100 when the most probable state is the actual one, else 0."""
    _require_state(predicted, actual)
    return 100.0 if predicted.argmax() == actual else 0.0


def rbs_score(predicted: Distribution, actual: NodeState) -> float:
    """Brier score rescaled to 0..100.

    100 means full confidence in the actual state; a uniform coin-flip over
    two states scores 75; full confidence in a wrong state scores 0.
    """
    _require_state(predicted, actual)
    target = np.array([1.0 if s == actual else 0.0 for s in predicted.states])
    brier = float(np.sum((predicted.probs - target) ** 2))
    return 100.0 * (1.0 - brier / 2.0)


def _require_state(predicted: Distribution, actual: NodeState) -> None:
    if not any(s == actual for s in predicted.states):
        raise UnknownStateError(
            predicted.node, _state_text(actual), [repr(s) for s in predicted.states]
        )


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
    changes: list[tuple[float, int, ObservedEvent]] = []
    assertions: list[tuple[float, int, ObservedEvent]] = []
    for nid in revealed:
        node = net.spec.node(nid)
        entry = trajectory.entry(nid)
        if node.default_value is not None and entry.state.value == node.default_value:
            rng = node.temporal_range
            tc = rng.hi if rng is not None else 0.0
            assertions.append((tc, net.index(nid), ObservedEvent(nid, entry.state.value, tc)))
        else:
            tc = entry.time if entry.time is not None else 0.0
            changes.append((tc, net.index(nid), ObservedEvent(nid, entry.state.value, tc)))
    changes.sort(key=lambda item: item[:2])
    assertions.sort(key=lambda item: item[:2])
    return [e for _, _, e in changes] + [e for _, _, e in assertions]


def evaluate(net: CompiledNetwork, condition: str, trials: int, seed: int = 0) -> EvalReport:
    """Score forecasts of the hidden nodes when one tier is revealed.

    Each trial samples a trajectory, feeds the revealed tier into a session
    as timed events, and scores the session's forecasts for every hidden
    node against the sampled truth. Per-trial scores are the mean over
    hidden nodes; the report aggregates over trials (population std).
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
    accuracy: list[float] = []
    rbs: list[float] = []
    for t in range(trials):
        trajectory = sample_trajectory(net, trial_seed(seed, t))
        session = open_session(net)
        for event in reveal_events(net, trajectory, revealed):
            session = session.observe(event)
        forecasts = session.predict().forecasts
        acc_here = [
            accuracy_score(forecasts[n].distribution, trajectory.state_of(n))
            for n in hidden
        ]
        rbs_here = [
            rbs_score(forecasts[n].distribution, trajectory.state_of(n))
            for n in hidden
        ]
        accuracy.append(float(np.mean(acc_here)))
        rbs.append(float(np.mean(rbs_here)))
    return EvalReport(condition, trials, revealed, tuple(accuracy), tuple(rbs))
