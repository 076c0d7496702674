"""Sessions: anchoring absolutely-timed events onto relative-time networks.

The intervals of a temporal node measure time relative to the event that
caused the change, but real observations arrive with absolute timestamps. A
session bridges the two. The first reported event anchors the session; each
later temporal event is resolved into an interval by the elapsed time
between its timestamp and the anchor's. A temporal event that arrives first
cannot be resolved yet (there is nothing to measure elapsed time against),
so it is held pending until the next non-default event settles it; until
then its node is evidence restricted to the intervals of its value. Only the
first event can be held this way, so at most one event is ever pending.

Sessions are immutable; `observe` returns the extended session.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Mapping, Optional

from .errors import (
    DuplicateObservationError,
    NoPendingObservationError,
    RangeOverflowError,
    UnanchoredSessionError,
    UnknownStateError,
)
from .inference import CompiledNetwork, Distribution, Evidence, marginals
from .model import NodeKind, NodeSpec, NodeState, TimeInterval, format_time, resolve_interval


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
    """One state of the held report's node, with its weight."""

    state: NodeState
    weight: float


@dataclass(frozen=True)
class Forecast:
    """A node's posterior given the session's evidence, with state windows."""

    distribution: Distribution
    windows: tuple[Optional[tuple[float, float]], ...]

    def window_for(self, state: NodeState) -> Optional[tuple[float, float]]:
        return self.windows[self.distribution.index(state)]  # raises UnknownStateError


@dataclass(frozen=True)
class PredictionReport:
    """Posterior forecasts for a set of unobserved nodes."""

    anchor: ObservedEvent
    forecasts: Mapping[str, Forecast]


@dataclass(frozen=True)
class Session:
    """An immutable record of the events observed so far and their status.

    Every observed node is in exactly one of `resolved`, `pending` and
    `inconsistent`; `anchor` and `pending` are derived from the events and
    their resolutions.
    """

    net: CompiledNetwork
    events: tuple[ObservedEvent, ...] = ()
    resolved: Mapping[str, ResolvedObservation] = field(default_factory=dict)
    inconsistent: tuple[tuple[ObservedEvent, str], ...] = ()

    @property
    def anchor(self) -> Optional[ObservedEvent]:
        """The first event, which every relative interval is measured from."""
        return self.events[0] if self.events else None

    @property
    def pending(self) -> tuple[ObservedEvent, ...]:
        """`(anchor,)` while the anchor is held unresolved, else `()`."""
        anchor = self.anchor
        if anchor is None or anchor.node in self.resolved:
            return ()
        if any(e.node == anchor.node for e, _ in self.inconsistent):
            return ()
        return (anchor,)

    @property
    def resolved_evidence(self) -> dict[str, NodeState]:
        return {nid: r.state for nid, r in self.resolved.items()}

    @property
    def _evidence(self) -> Evidence:
        """The resolved evidence, plus the held node restricted to the
        intervals of its reported value."""
        evidence: dict = self.resolved_evidence
        if self.pending:
            held = self.anchor
            evidence[held.node] = [s for s in self.net.states[held.node] if s.value == held.value]
        return evidence

    @cached_property
    def _posteriors(self) -> dict[str, Distribution]:
        """P(node | evidence) for every node not resolved, the held one
        included, from one query; `scenarios`, `predict` and `diagnose`
        all read it, so a session answers them from one propagation."""
        targets = [nid for nid in self.net.node_ids if nid not in self.resolved]
        return marginals(self.net, targets, self._evidence)

    def observe(self, event: ObservedEvent) -> "Session":
        """Fold one event in and return the extended session.

        A report with no interval (a no-change assertion or an instantaneous
        report) resolves at once. A temporal change that comes first is held
        until a later report other than a no-change assertion settles it.
        An event whose elapsed time falls outside its node's covered range,
        or a temporal change timed before the anchor (unless it settles the
        held first event), is recorded as inconsistent (its evidence is
        dropped) rather than raised, since later events may still be fine.
        A non-finite timestamp raises ValueError.
        """
        if not math.isfinite(event.tc):
            raise ValueError(f"event time of {event.node!r} must be finite, got {event.tc}")
        node = self.net.spec.node(event.node)
        legal = ([node.default_value] if node.default_value is not None else []) + list(node.values)
        if event.value not in legal:
            raise UnknownStateError(node.id, event.value, legal)
        if any(e.node == event.node for e in self.events):
            raise DuplicateObservationError(
                f"node {event.node!r} was already observed in this session"
            )

        anchor = self.anchor
        held = self.pending
        resolved = dict(self.resolved)
        inconsistent = list(self.inconsistent)
        assertion = event.value == node.default_value
        if assertion or node.kind is NodeKind.INSTANTANEOUS:
            resolved[node.id] = ResolvedObservation(NodeState(event.value), event.tc)
        elif anchor is None:
            pass  # a temporal change that comes first is held: nothing to measure from
        elif not held and event.tc < anchor.tc:
            # intervals run forward from the anchor; only the held first
            # event is measured backward, from the event that settles it
            reason = f"reported at {format_time(event.tc)}, before the anchor"
            reason += f" {anchor.node}={anchor.value} at {format_time(anchor.tc)}"
            inconsistent.append((event, reason))
        else:
            self._resolve_timed(resolved, inconsistent, node, event, anchor.tc)
        if held and not assertion:
            # The held first event is measured against this one.
            held_node = self.net.spec.node(anchor.node)
            self._resolve_timed(resolved, inconsistent, held_node, anchor, event.tc)

        return replace(
            self,
            events=self.events + (event,),
            resolved=resolved,
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

        Weights are the posterior probabilities of the intervals of the held
        event's value, P(H | e) given the resolved evidence and the report,
        sorted most likely first (ties keep interval order).
        """
        if not self.pending:
            raise NoPendingObservationError(
                "no pending observations; every observed node is resolved"
            )
        held = self.anchor
        dist = self._posteriors[held.node]
        out = [Scenario(s, w) for s, w in dist.items() if s.value == held.value]
        out.sort(key=lambda s: -s.weight)
        return out

    def _forecast(self, dist: Distribution) -> Forecast:
        """A node's posterior, with state windows."""
        node = self.net.spec.node(dist.node)
        anchor_tc = self.anchor.tc
        windows: list[Optional[tuple[float, float]]] = []
        for state in dist.states:
            if state.interval_index is None:
                windows.append(None)
            else:
                iv = node.intervals[state.interval_index]
                windows.append((anchor_tc + iv.lo, anchor_tc + iv.hi))
        return Forecast(dist, tuple(windows))

    def _report(self, targets: list[str]) -> PredictionReport:
        assert self.anchor is not None
        dists = self._posteriors
        return PredictionReport(
            self.anchor, {nid: self._forecast(dists[nid]) for nid in targets}
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
