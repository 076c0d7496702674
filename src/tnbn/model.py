"""Core model structures: timed nodes, Allen relations, tables, validation.

A temporal nodes Bayesian network is a discrete Bayesian network in which a
node may represent a *state change* of a variable rather than a plain value.
The states of such a temporal node are (value, interval) pairs: the value the
variable changed to, and the relative time interval in which the change
happened. One extra default state ("no change", usually the normal condition)
spans the node's whole temporal range. Instantaneous nodes carry no interval
structure and behave as ordinary discrete variables.

Interval times are relative (typically to the causing event); anchoring them
to absolute times is the session module's job.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import Iterable, Mapping, Optional

from .errors import RangeOverflowError, UnknownNodeError, UnknownStateError

ROW_SUM_TOLERANCE = 1e-9

# Reserved by the model-file / CLI / event-log grammars (state keys use
# "value@[lo,hi]" and "|"-joined parent tuples; evidence uses "node=state").
_RESERVED_CHARS = set("|@=[],")
_LABEL_BAD = re.compile(r"\s")


class NodeKind(str, Enum):
    INSTANTANEOUS = "instantaneous"
    TEMPORAL = "temporal"


class AllenRelation(str, Enum):
    """The four interval relations used to check a node's interval layout."""

    SI = "si"   # a starts-inverse b: same start, a ends later
    DI = "di"   # a during-inverse b: a strictly contains b
    FI = "fi"   # a finishes-inverse b: same end, a starts earlier
    M = "m"     # a meets b: a ends exactly where b starts
    NONE = "none"


@dataclass(frozen=True)
class TimeInterval:
    """A span [lo, hi) of relative model time.

    The upper bound is exclusive except for the last interval of a node's
    list, which is closed; that choice is applied by `resolve_interval`, not
    stored here.
    """

    lo: float
    hi: float

    def contains(self, t: float, *, closed_hi: bool = False) -> bool:
        if closed_hi:
            return self.lo <= t <= self.hi
        return self.lo <= t < self.hi

    def __str__(self) -> str:
        return f"[{format_time(self.lo)},{format_time(self.hi)}]"


def format_time(t: float) -> str:
    """Render a time without a trailing '.0' for whole numbers."""
    t = float(t)
    return str(int(t)) if t.is_integer() else repr(t)


def allen_relation(a: TimeInterval, b: TimeInterval) -> AllenRelation:
    """Relation of interval `a` to interval `b`.

    Only the four relations that describe a well-formed interval layout are
    decided (si, di, fi, m); every other configuration, including equality,
    maps to NONE.
    """
    if a.lo == b.lo and a.hi > b.hi:
        return AllenRelation.SI
    if a.lo < b.lo and a.hi > b.hi:
        return AllenRelation.DI
    if a.hi == b.hi and a.lo < b.lo:
        return AllenRelation.FI
    if a.hi == b.lo:
        return AllenRelation.M
    return AllenRelation.NONE


@dataclass(frozen=True)
class NodeState:
    """One state of a node.

    `interval_index` points into the node's interval list for the timed
    states of a temporal node. It is None for the default (no-change) state
    and for every state of an instantaneous node.
    """

    value: str
    interval_index: Optional[int] = None


@dataclass(frozen=True)
class NodeSpec:
    """A node definition: value set, optional default, interval layout.

    For temporal nodes the states are the cross product of `values` and
    `intervals`, plus the single default state. `default_value` is required
    for temporal nodes; instantaneous nodes may omit it (all listed values
    are then ordinary states, e.g. a cause that is simply present or absent).
    """

    id: str
    kind: NodeKind
    values: tuple[str, ...]
    default_value: Optional[str] = None
    intervals: tuple[TimeInterval, ...] = ()

    @property
    def temporal_range(self) -> Optional[TimeInterval]:
        """Full covered span: first interval start to last interval end."""
        if self.kind is not NodeKind.TEMPORAL or not self.intervals:
            return None
        return TimeInterval(self.intervals[0].lo, self.intervals[-1].hi)

    def state_label(self, state: NodeState) -> str:
        """Canonical text form: "value" or "value@[lo,hi]"."""
        if state.interval_index is None:
            return state.value
        return f"{state.value}@{self.intervals[state.interval_index]}"

    def state_labels(self) -> list[str]:
        return [self.state_label(s) for s in state_enumeration(self)]

    def parse_state_label(self, text: str) -> NodeState:
        """Inverse of `state_label`; raises UnknownStateError otherwise."""
        text = text.strip()
        value, sep, rest = text.partition("@")
        if not sep:
            state = NodeState(value)
            if state in state_enumeration(self):
                return state
            raise UnknownStateError(self.id, text, self.state_labels())
        m = re.fullmatch(r"\[\s*([^,\]]+)\s*,\s*([^,\]]+)\s*\]", rest)
        if m:
            try:
                lo, hi = float(m.group(1)), float(m.group(2))
            except ValueError:
                raise UnknownStateError(self.id, text, self.state_labels()) from None
            for i, iv in enumerate(self.intervals):
                if iv.lo == lo and iv.hi == hi:
                    state = NodeState(value, i)
                    if state in state_enumeration(self):
                        return state
        raise UnknownStateError(self.id, text, self.state_labels())


def state_enumeration(node: NodeSpec) -> tuple[NodeState, ...]:
    """All states of a node in canonical order.

    The default state comes first (when the node has one), then each value in
    declaration order; for temporal nodes each value is repeated once per
    interval, in interval order.
    """
    _check_node_usable(node)
    states: list[NodeState] = []
    if node.default_value is not None:
        states.append(NodeState(node.default_value))
    if node.kind is NodeKind.TEMPORAL:
        for v in node.values:
            states.extend(NodeState(v, i) for i in range(len(node.intervals)))
    else:
        states.extend(NodeState(v) for v in node.values)
    return tuple(states)


def resolve_interval(node: NodeSpec, elapsed: float) -> int:
    """Index of the interval containing `elapsed`, for a temporal node.

    Containment is half-open [lo, hi) except in the last interval, which is
    closed. Times outside the node's covered range raise RangeOverflowError.
    """
    if node.kind is not NodeKind.TEMPORAL:
        raise ValueError(f"node {node.id!r} has no intervals to resolve")
    if elapsed < 0:
        raise ValueError(f"elapsed time must be non-negative, got {elapsed}")
    last = len(node.intervals) - 1
    for i, iv in enumerate(node.intervals):
        if iv.contains(elapsed, closed_hi=(i == last)):
            return i
    raise RangeOverflowError(
        f"elapsed time {format_time(elapsed)} lies outside the covered range "
        f"{node.temporal_range} of node {node.id!r}"
    )


def _check_node_usable(node: NodeSpec) -> None:
    """Reject nodes too malformed to enumerate; full checks live in validate()."""
    problems = _node_violations(node)
    if problems:
        raise ValueError(f"invalid node {node.id!r}: {problems[0].message}")


@dataclass(frozen=True)
class ConditionalTable:
    """Probabilities of a child's states for every tuple of parent states.

    `rows` maps a tuple of parent NodeStates (ordered by `parent_order`) to
    the child-state probability vector in `state_enumeration` order. Root
    nodes use a single row keyed by the empty tuple.
    """

    child: str
    parent_order: tuple[str, ...]
    rows: Mapping[tuple[NodeState, ...], tuple[float, ...]]


@dataclass(frozen=True)
class NetworkSpec:
    """A complete network: nodes, directed edges, one table per node."""

    name: str
    time_unit: str
    nodes: tuple[NodeSpec, ...]
    edges: tuple[tuple[str, str], ...]
    tables: Mapping[str, ConditionalTable]

    @cached_property
    def _nodes_by_id(self) -> dict[str, NodeSpec]:
        by_id: dict[str, NodeSpec] = {}
        for n in self.nodes:
            by_id.setdefault(n.id, n)  # a duplicated id resolves to its first node
        return by_id

    def node(self, node_id: str) -> NodeSpec:
        try:
            return self._nodes_by_id[node_id]
        except KeyError:
            raise UnknownNodeError(
                f"no node {node_id!r} in network {self.name!r}; nodes: "
                + ", ".join(n.id for n in self.nodes)
            ) from None

    def node_ids(self) -> tuple[str, ...]:
        return tuple(n.id for n in self.nodes)

    @cached_property
    def _edge_maps(self) -> tuple[dict[str, tuple[str, ...]], dict[str, tuple[str, ...]]]:
        """Parents and children of every node named by an edge, in edge order;
        duplicate edges repeat, since validate reports them."""
        parents: dict[str, list[str]] = {}
        children: dict[str, list[str]] = {}
        for p, c in self.edges:
            parents.setdefault(c, []).append(p)
            children.setdefault(p, []).append(c)
        return (
            {c: tuple(ps) for c, ps in parents.items()},
            {p: tuple(cs) for p, cs in children.items()},
        )

    def parents(self, node_id: str) -> tuple[str, ...]:
        return self._edge_maps[0].get(node_id, ())

    def children(self, node_id: str) -> tuple[str, ...]:
        return self._edge_maps[1].get(node_id, ())

    def ancestors(self, node_ids: Iterable[str]) -> set[str]:
        """All strict ancestors of the given nodes."""
        seen: set[str] = set()
        frontier = list(node_ids)
        while frontier:
            current = frontier.pop()
            for p in self.parents(current):
                if p not in seen:
                    seen.add(p)
                    frontier.append(p)
        return seen


@dataclass(frozen=True)
class Violation:
    """One failed validation check, tied to the node/edge/table it concerns."""

    subject: str
    message: str

    def __str__(self) -> str:
        return f"{self.subject}: {self.message}"


@dataclass(frozen=True)
class IntervalLayout:
    """Allen relations of a temporal node's covered range and interval chain.

    `range_relations[i]` relates the covered range to interval i; a valid
    multi-interval node reads (si, di, ..., di, fi). `adjacent_relations[i]`
    relates interval i to interval i+1 and must be `m` throughout.
    """

    range_relations: tuple[AllenRelation, ...]
    adjacent_relations: tuple[AllenRelation, ...]


def interval_layout(node: NodeSpec) -> IntervalLayout:
    """Compute the Allen relations describing a temporal node's intervals."""
    if node.kind is not NodeKind.TEMPORAL or not node.intervals:
        return IntervalLayout((), ())
    rng = node.temporal_range
    range_rel = tuple(allen_relation(rng, iv) for iv in node.intervals)
    adjacent = tuple(
        allen_relation(a, b) for a, b in zip(node.intervals, node.intervals[1:])
    )
    return IntervalLayout(range_rel, adjacent)


def _label_violations(subject: str, what: str, label: str) -> list[Violation]:
    out = []
    if not label:
        out.append(Violation(subject, f"{what} must be a non-empty string"))
        return out
    if _LABEL_BAD.search(label) or any(c in _RESERVED_CHARS for c in label):
        out.append(
            Violation(
                subject,
                f"{what} {label!r} contains whitespace or a reserved "
                "character (one of | @ = [ ] ,)",
            )
        )
    return out


def _node_violations(node: NodeSpec) -> list[Violation]:
    out: list[Violation] = []
    subject = f"node {node.id}"
    out.extend(_label_violations(subject, "node id", node.id))
    if not node.values:
        out.append(Violation(subject, "has no values"))
    for v in node.values:
        out.extend(_label_violations(subject, "value", v))
    if len(set(node.values)) != len(node.values):
        out.append(Violation(subject, "has duplicate value labels"))
    if node.default_value is not None:
        out.extend(_label_violations(subject, "default value", node.default_value))
        if node.default_value in node.values:
            out.append(
                Violation(
                    subject,
                    f"default value {node.default_value!r} also appears in values",
                )
            )
    if node.kind is NodeKind.TEMPORAL:
        if node.default_value is None:
            out.append(Violation(subject, "temporal node needs a default value"))
        if not node.intervals:
            out.append(Violation(subject, "temporal node needs at least one interval"))
    else:
        if node.intervals:
            out.append(Violation(subject, "instantaneous node must not have intervals"))
    for iv in node.intervals:
        if not iv.lo < iv.hi:
            out.append(Violation(subject, f"interval {iv} is empty or reversed"))
        if iv.lo < 0:
            out.append(Violation(subject, f"interval {iv} starts before time 0"))
    return out


def _interval_chain_violations(node: NodeSpec) -> list[Violation]:
    """Layout checks: intervals sorted, tiling the range, chained by meets."""
    out: list[Violation] = []
    subject = f"node {node.id}"
    ivs = node.intervals
    if node.kind is not NodeKind.TEMPORAL or not ivs:
        return out
    if any(not iv.lo < iv.hi for iv in ivs):
        return out  # already reported; relations would be nonsense
    if any(a.lo >= b.lo for a, b in zip(ivs, ivs[1:])):
        out.append(Violation(subject, "intervals are not sorted by start time"))
    layout = interval_layout(node)
    for i, rel in enumerate(layout.adjacent_relations):
        if rel is not AllenRelation.M:
            out.append(
                Violation(
                    subject,
                    f"intervals {ivs[i]} and {ivs[i + 1]} must meet exactly "
                    f"(got relation {rel.value}); gaps and overlaps are not allowed",
                )
            )
    if len(ivs) >= 2 and not out:
        expected = (
            [AllenRelation.SI]
            + [AllenRelation.DI] * (len(ivs) - 2)
            + [AllenRelation.FI]
        )
        for i, (got, want) in enumerate(zip(layout.range_relations, expected)):
            if got is not want:
                out.append(
                    Violation(
                        subject,
                        f"covered range relates to interval {ivs[i]} as "
                        f"{got.value}, expected {want.value}",
                    )
                )
    return out


def _table_violations(spec: NetworkSpec, node: NodeSpec) -> list[Violation]:
    out: list[Violation] = []
    table = spec.tables.get(node.id)
    subject = f"cpt {node.id}"
    if table is None:
        out.append(Violation(subject, "no conditional table for this node"))
        return out
    if table.child != node.id:
        out.append(
            Violation(subject, f"table is keyed {node.id!r} but names child {table.child!r}")
        )
    in_edges = set(spec.parents(node.id))
    if len(set(table.parent_order)) != len(table.parent_order):
        out.append(Violation(subject, "parent_order lists a parent twice"))
        return out
    if set(table.parent_order) != in_edges:
        out.append(
            Violation(
                subject,
                f"parent_order {sorted(table.parent_order)} does not match "
                f"incoming edges {sorted(in_edges)}",
            )
        )
        return out

    enums: list[tuple[NodeState, ...]] = []
    for pid in table.parent_order:
        penum = _safe_enumeration(spec, pid)
        if penum is None:
            return out  # parent itself is broken; its own report covers it
        enums.append(penum)
    child_enum = _safe_enumeration(spec, node.id)
    if child_enum is None:
        return out

    expected_keys = {()}
    for penum in enums:
        expected_keys = {key + (s,) for key in expected_keys for s in penum}
    seen = set(table.rows.keys())
    for key in sorted(expected_keys - seen, key=repr):
        out.append(
            Violation(subject, f"missing row for parent states {_key_text(spec, table, key)}")
        )
    for key in sorted(seen - expected_keys, key=repr):
        out.append(
            Violation(subject, f"unexpected row for parent states {_key_text(spec, table, key)}")
        )
    for key in sorted(seen & expected_keys, key=repr):
        probs = table.rows[key]
        if len(probs) != len(child_enum):
            out.append(
                Violation(
                    subject,
                    f"row {_key_text(spec, table, key)} has {len(probs)} entries, "
                    f"expected {len(child_enum)}",
                )
            )
            continue
        if any(p < 0 or p > 1 for p in probs):
            out.append(
                Violation(
                    subject,
                    f"row {_key_text(spec, table, key)} has probabilities outside [0, 1]",
                )
            )
        elif abs(sum(probs) - 1.0) > ROW_SUM_TOLERANCE:
            out.append(
                Violation(
                    subject,
                    f"row {_key_text(spec, table, key)} sums to {sum(probs):.10g}, not 1",
                )
            )
    return out


def _key_text(spec: NetworkSpec, table: ConditionalTable, key: tuple[NodeState, ...]) -> str:
    if not key:
        return "()"
    parts = []
    for pid, state in zip(table.parent_order, key):
        try:
            parts.append(f"{pid}={spec.node(pid).state_label(state)}")
        except Exception:
            parts.append(f"{pid}={state.value!r}")
    return "(" + ", ".join(parts) + ")"


def _safe_enumeration(spec: NetworkSpec, node_id: str) -> Optional[tuple[NodeState, ...]]:
    try:
        return state_enumeration(spec.node(node_id))
    except Exception:
        return None


def toposort(spec: NetworkSpec) -> Optional[tuple[str, ...]]:
    """Topological order of node ids (declaration order breaks ties), or
    None when the edge set has a cycle."""
    ids = spec.node_ids()
    known = set(ids)
    indeg = {i: 0 for i in ids}
    for p, c in spec.edges:
        if p in known and c in known:
            indeg[c] += 1
    order: list[str] = []
    ready = [i for i in ids if indeg[i] == 0]
    while ready:
        current = ready.pop(0)
        order.append(current)
        for child in spec.children(current):
            if child not in known:
                continue
            indeg[child] -= 1
            if indeg[child] == 0:
                ready.append(child)
        ready.sort(key=ids.index)
    if len(order) != len(ids):
        return None
    return tuple(order)


def validate(spec: NetworkSpec) -> list[Violation]:
    """Check every structural invariant; an empty report means valid.

    Violations are returned as data (not raised) so callers can report all
    of them at once.
    """
    out: list[Violation] = []
    ids = [n.id for n in spec.nodes]
    for dup in sorted({i for i in ids if ids.count(i) > 1}):
        out.append(Violation(f"node {dup}", "node id declared more than once"))

    for node in spec.nodes:
        out.extend(_node_violations(node))
        out.extend(_interval_chain_violations(node))

    known = set(ids)
    for p, c in spec.edges:
        subject = f"edge {p}->{c}"
        for end in (p, c):
            if end not in known:
                out.append(Violation(subject, f"endpoint {end!r} is not a declared node"))
        if p == c:
            out.append(Violation(subject, "self-loops are not allowed"))
    edge_list = list(spec.edges)
    for dup in sorted({e for e in edge_list if edge_list.count(e) > 1}):
        out.append(Violation(f"edge {dup[0]}->{dup[1]}", "edge declared more than once"))

    if toposort(spec) is None:
        out.append(Violation(f"network {spec.name}", "edge set contains a cycle"))

    for extra in sorted(set(spec.tables.keys()) - known):
        out.append(Violation(f"cpt {extra}", "table for an undeclared node"))
    for node in spec.nodes:
        out.extend(_table_violations(spec, node))
    return out
