"""Sessions: anchoring absolutely-timed events onto relative-time networks.

The intervals of a temporal node measure time relative to the event that
caused the change, but real observations arrive with absolute timestamps. A
session bridges the two. The first reported event anchors the session; each
later temporal event is resolved into an interval by the elapsed time
between its timestamp and the anchor's. A temporal event that arrives first
cannot be resolved yet (there is nothing to measure elapsed time against),
so it is held pending and expanded into weighted scenarios, one per
candidate interval, until the next non-default event settles it. Only the
first event can be held this way, so at most one event is ever pending.

Sessions are immutable; `observe` returns the extended session.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Mapping, Optional

import numpy as np

from .errors import (
    DuplicateObservationError,
    NoPendingObservationError,
    RangeOverflowError,
    UnanchoredSessionError,
    UnknownStateError,
    ZeroProbabilityEvidenceError,
)
from .inference import CompiledNetwork, Distribution, evidence_probability, marginals
from .model import NodeKind, NodeSpec, NodeState, TimeInterval, resolve_interval


@dataclass(frozen=True)
class ObservedEvent:
    """A report that `node` took `value` at absolute time `tc`."""

    node: str
    value: str
    tc: float


@dataclass(frozen=True)
class ResolvedObservation:
    """An observation fixed to a concrete node state.

    `window` is the absolute-time span implied by a resolved interval
    (None for default states and instantaneous nodes).
    """

    state: NodeState
    tc: float
    window: Optional[tuple[float, float]] = None


def _absolute_window(iv: TimeInterval, reference_tc: float, event_tc: float) -> tuple[float, float]:
    # The interval measures elapsed time between reference and event, so the
    # window points forward or backward depending on which came first.
    if event_tc >= reference_tc:
        return (reference_tc + iv.lo, reference_tc + iv.hi)
    return (reference_tc - iv.hi, reference_tc - iv.lo)


@dataclass(frozen=True)
class Scenario:
    """One way of resolving the pending observation, with its weight."""

    assignment: Mapping[str, NodeState]
    evidence: Mapping[str, NodeState]
    weight: float


@dataclass(frozen=True)
class Forecast:
    """A node's mixed posterior plus the absolute window of each state."""

    distribution: Distribution
    windows: tuple[Optional[tuple[float, float]], ...]

    def window_for(self, state: NodeState) -> Optional[tuple[float, float]]:
        for s, w in zip(self.distribution.states, self.windows):
            if s == state:
                return w
        raise KeyError(state)


@dataclass(frozen=True)
class PredictionReport:
    """Posterior forecasts for a set of unobserved nodes."""

    anchor: ObservedEvent
    forecasts: Mapping[str, Forecast]


@dataclass(frozen=True)
class Session:
    """An immutable record of the events observed so far and their status."""

    net: CompiledNetwork
    events: tuple[ObservedEvent, ...] = ()
    anchor: Optional[ObservedEvent] = None
    resolved: Mapping[str, ResolvedObservation] = field(default_factory=dict)
    pending: tuple[ObservedEvent, ...] = ()
    inconsistent: tuple[tuple[ObservedEvent, str], ...] = ()

    @property
    def observed_nodes(self) -> set[str]:
        nodes = set(self.resolved)
        nodes.update(e.node for e in self.pending)
        nodes.update(e.node for e, _ in self.inconsistent)
        return nodes

    @property
    def resolved_evidence(self) -> dict[str, NodeState]:
        return {nid: r.state for nid, r in self.resolved.items()}

    def observe(self, event: ObservedEvent) -> "Session":
        """Fold one event in and return the extended session.

        An event whose elapsed time falls outside its node's covered range is
        recorded as inconsistent (its evidence is dropped) rather than
        raised, since later events may still be fine. A non-finite timestamp
        raises ValueError.
        """
        if not math.isfinite(event.tc):
            raise ValueError(f"event time of {event.node!r} must be finite, got {event.tc}")
        node = self.net.spec.node(event.node)
        legal = ([node.default_value] if node.default_value is not None else []) + list(node.values)
        if event.value not in legal:
            raise UnknownStateError(node.id, event.value, legal)
        if event.node in self.observed_nodes:
            raise DuplicateObservationError(
                f"node {event.node!r} was already observed in this session"
            )

        anchor = self.anchor or event
        resolved = dict(self.resolved)
        pending = self.pending
        inconsistent = list(self.inconsistent)

        if event.value == node.default_value:
            # A no-change assertion: no interval to resolve, nothing settled.
            resolved[node.id] = ResolvedObservation(NodeState(event.value), event.tc)
        elif node.kind is NodeKind.TEMPORAL and self.anchor is None:
            # First event and temporal: elapsed time is unmeasurable so far.
            pending = (event,)
        else:
            if node.kind is NodeKind.INSTANTANEOUS:
                resolved[node.id] = ResolvedObservation(NodeState(event.value), event.tc)
            else:
                self._resolve_timed(resolved, inconsistent, node, event, self.anchor.tc)
            if pending:
                # The held first event is measured against this one.
                (held,) = pending
                held_node = self.net.spec.node(held.node)
                self._resolve_timed(resolved, inconsistent, held_node, held, event.tc)
                pending = ()

        return replace(
            self,
            events=self.events + (event,),
            anchor=anchor,
            resolved=resolved,
            pending=pending,
            inconsistent=tuple(inconsistent),
        )

    def _resolve_timed(
        self,
        resolved: dict[str, ResolvedObservation],
        inconsistent: list[tuple[ObservedEvent, str]],
        node: NodeSpec,
        event: ObservedEvent,
        reference_tc: float,
    ) -> None:
        elapsed = abs(reference_tc - event.tc)
        try:
            idx = resolve_interval(node, elapsed)
        except RangeOverflowError as err:
            inconsistent.append((event, str(err)))
            return
        window = _absolute_window(node.intervals[idx], reference_tc, event.tc)
        resolved[node.id] = ResolvedObservation(NodeState(event.value, idx), event.tc, window)

    def scenarios(self) -> list[Scenario]:
        """Weighted candidate resolutions of the pending observation.

        Weights are posterior probabilities of each interval of the held
        event given the resolved evidence, sorted most likely first (ties
        keep interval order). A session never changes, so they are weighed
        once per session.
        """
        return list(self._scenarios)

    @cached_property
    def _scenarios(self) -> tuple[Scenario, ...]:
        if not self.pending:
            raise NoPendingObservationError(
                "no pending observations; every observed node is resolved"
            )
        (held,) = self.pending
        base = self.resolved_evidence
        raw: list[tuple[dict[str, NodeState], dict[str, NodeState], float]] = []
        for i in range(len(self.net.spec.node(held.node).intervals)):
            assignment = {held.node: NodeState(held.value, i)}
            evidence = {**base, **assignment}
            raw.append((assignment, evidence, evidence_probability(self.net, evidence)))
        total = sum(w for _, _, w in raw)
        if not total > 0.0:
            raise ZeroProbabilityEvidenceError(
                "every candidate resolution of the pending observation has "
                "probability zero given the resolved evidence"
            )
        out = [Scenario(a, e, w / total) for a, e, w in raw]
        out.sort(key=lambda s: -s.weight)
        return tuple(out)

    @property
    def scenario_set(self) -> list[tuple[dict[str, NodeState], float]]:
        """(evidence, weight) pairs; collapses to the resolved evidence alone
        when nothing is pending."""
        if not self.pending:
            return [(self.resolved_evidence, 1.0)]
        return [(dict(s.evidence), s.weight) for s in self.scenarios()]

    def _forecast(self, node_id: str, probs: np.ndarray) -> Forecast:
        """A node's scenario-weighted posterior, with state windows."""
        states = self.net.states[node_id]
        node = self.net.spec.node(node_id)
        anchor_tc = self.anchor.tc
        windows: list[Optional[tuple[float, float]]] = []
        for state in states:
            if state.interval_index is None:
                windows.append(None)
            else:
                iv = node.intervals[state.interval_index]
                windows.append((anchor_tc + iv.lo, anchor_tc + iv.hi))
        return Forecast(Distribution(node_id, states, probs), tuple(windows))

    def _report(self, targets: list[str]) -> PredictionReport:
        assert self.anchor is not None
        mixed = {nid: np.zeros(len(self.net.states[nid])) for nid in targets}
        # with nothing to forecast, the scenarios need not be weighed at all
        for evidence, weight in self.scenario_set if targets else []:
            if weight > 0.0:
                for nid, dist in marginals(self.net, targets, evidence).items():
                    mixed[nid] = mixed[nid] + weight * dist.probs
        return PredictionReport(
            self.anchor, {nid: self._forecast(nid, mixed[nid]) for nid in targets}
        )

    def predict(self) -> PredictionReport:
        """Forecasts for every node not observed yet (nodes whose only
        observation was inconsistent count as unobserved)."""
        if self.anchor is None:
            raise UnanchoredSessionError(
                "no events observed yet; forecasts need a temporal anchor"
            )
        skip = set(self.resolved) | {e.node for e in self.pending}
        targets = [nid for nid in self.net.node_ids if nid not in skip]
        return self._report(targets)

    def diagnose(self) -> PredictionReport:
        """Forecasts restricted to unobserved ancestors of the observations,
        i.e. the candidate causes of what has been seen."""
        if self.anchor is None:
            raise UnanchoredSessionError(
                "no events observed yet; a diagnosis needs at least one"
            )
        sources = set(self.resolved) | {e.node for e in self.pending}
        causes = self.net.spec.ancestors(sources)
        targets = [nid for nid in self.net.node_ids if nid in causes - sources]
        return self._report(targets)


def open_session(net: CompiledNetwork) -> Session:
    return Session(net)
