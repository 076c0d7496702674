"""Exact inference: one calibrated propagation per query, plus a full-joint
enumeration oracle.

Every query is first pruned to its targets, its evidence and their
ancestors (every other node is barren and sums out to one). Its factors are
each CPT factor, reduced once by its single-state evidence as a view of the
read-only array, and a 0/1 mask per set of states. `_plan` derives the
elimination from their scopes and shapes alone: the min-degree order, with
the first target summed out last as an ordinary bucket (Dechter 1996), each
bucket's input slots and message scope, the bucket tree and the buckets on
paths to the other targets. The factor size guard fires there, before any
product. `_propagate` runs the plan in one numeric pass: bucket elimination
forward and, for more than one target, Shafer-Shenoy messages backward
(Shafer & Shenoy 1990).
Both passes multiply and sum through one helper, `_contract`. Each forward
message is divided by its sum, and a running product that sinks below
2**-500 is rescaled by an exact power of two; the logs of both scales are
carried instead. So evidence whose probability lies far below the smallest
float, even over many small factors in one bucket, still yields posteriors
and a finite `log_evidence_probability`. `posterior`, `marginals`,
`log_evidence_probability` and `evidence_probability` are thin wrappers
around that one routine. As a cross-check, `joint_enumerate` builds the
complete joint table over every state assignment without using the factor
machinery at all; the two paths share nothing but the network definition,
so agreement between them is a meaningful test of both.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Collection, Iterable, Iterator, Mapping, Optional, Union

import numpy as np

from .errors import (
    FactorSizeError,
    InvalidNetworkError,
    JointSizeError,
    UnknownStateError,
    ZeroProbabilityEvidenceError,
)
from .model import (
    NetworkSpec,
    NodeState,
    state_enumeration,
    toposort,
    validate,
)

# joint_enumerate refuses to build tables above this many cells
JOINT_SIZE_LIMIT = 10_000_000
# elimination refuses to build intermediate factors above this many cells
FACTOR_SIZE_LIMIT = 10_000_000
# a running product whose largest entry falls below this is rescaled
_TINY = 2.0**-500
_LN2 = math.log(2.0)

# one NodeState (though a pair, always one state) or a collection meaning "one of these"
Evidence = Mapping[str, Union[NodeState, Collection[NodeState]]]
# per evidence axis, its state position, or a tuple of positions for a set
_Positions = Mapping[int, Union[int, tuple[int, ...]]]
# a bucket of the forward pass: the variable it sums out, the slots of the
# factors that hold it, and the scope of the message it sends
_Step = tuple[int, tuple[int, ...], set[int]]


@dataclass(frozen=True, eq=False)
class Distribution:
    """A probability vector over one node's states, in enumeration order."""

    node: str
    states: tuple[NodeState, ...]
    probs: np.ndarray

    def p(self, state: NodeState) -> float:
        return float(self.probs[self.index(state)])

    def index(self, state: NodeState) -> int:
        """The position of `state` in `states`; UnknownStateError if it has none."""
        try:
            return self.states.index(state)
        except ValueError:
            raise UnknownStateError(
                self.node, _state_text(state), map(_state_text, self.states)
            ) from None

    def argmax(self) -> NodeState:
        """Most probable state; the earliest state wins a tie."""
        return self.states[int(np.argmax(self.probs))]

    def items(self) -> Iterator[tuple[NodeState, float]]:
        for s, value in zip(self.states, self.probs):
            yield s, float(value)


def _state_text(state: NodeState) -> str:
    if state.interval_index is None:
        return state.value
    return f"{state.value}@interval#{state.interval_index}"


@dataclass(frozen=True, eq=False)
class Factor:
    """A nonnegative table whose axes are node indices, kept sorted."""

    scope: tuple[int, ...]
    values: np.ndarray


@dataclass(frozen=True, eq=False)
class CompiledNetwork:
    """A validated network with per-node state tables and CPT factors.

    `axes` maps each node to its factor axis (its position in `node_ids`);
    `positions` maps each node's states to their enumeration positions.
    """

    spec: NetworkSpec
    topo: tuple[str, ...]
    node_ids: tuple[str, ...]
    states: Mapping[str, tuple[NodeState, ...]]
    axes: Mapping[str, int]
    positions: Mapping[str, Mapping[NodeState, int]]
    factors: tuple[Factor, ...]

    def index(self, node_id: str) -> int:
        if node_id not in self.axes:
            self.spec.node(node_id)  # raises UnknownNodeError
        return self.axes[node_id]

    def state_index(self, node_id: str, state: NodeState) -> int:
        self.index(node_id)  # raises UnknownNodeError
        try:
            return self.positions[node_id][state]
        except KeyError:
            raise UnknownStateError(
                node_id, _state_text(state), self.spec.node(node_id).state_labels()
            ) from None


def compile_network(spec: NetworkSpec) -> CompiledNetwork:
    """Validate and compile; raises InvalidNetworkError with the full report."""
    violations = validate(spec)
    if violations:
        raise InvalidNetworkError(violations)
    ids = spec.node_ids()
    index = {n: i for i, n in enumerate(ids)}
    states = {n: state_enumeration(spec.node(n)) for n in ids}
    pos = {n: {s: i for i, s in enumerate(states[n])} for n in ids}
    card = {n: len(states[n]) for n in ids}

    factors = []
    for nid in ids:
        table = spec.tables[nid]
        # rows stacked in parent-state order give axes (*parent_order, child);
        # validation guarantees exactly one row per parent-state tuple
        axes = [index[p] for p in table.parent_order] + [index[nid]]
        enums = [states[p] for p in table.parent_order]
        rows = [table.rows[key] for key in itertools.product(*enums)]
        shape = [card[p] for p in table.parent_order] + [card[nid]]
        block = np.array(rows, dtype=float).reshape(shape)
        arr = np.ascontiguousarray(block.transpose(np.argsort(axes)))
        arr.flags.writeable = False  # queries hold views of it: a write raises
        factors.append(Factor(tuple(sorted(axes)), arr))

    order = toposort(spec)
    assert order is not None  # a cycle would have failed validation
    return CompiledNetwork(spec, order, ids, states, index, pos, tuple(factors))


def _is_state_set(nid: str, ev: object) -> bool:
    """Whether the evidence value `ev` on `nid` is a collection of states
    ("one of these") rather than one NodeState; TypeError if it is neither.
    A NodeState is itself a pair, so it is ruled out first: it is one state."""
    many = not isinstance(ev, (NodeState, str)) and isinstance(ev, Collection)
    if not (isinstance(ev, NodeState) or many and all(isinstance(s, NodeState) for s in ev)):
        raise TypeError(
            f"evidence on node {nid!r} must be a NodeState or a collection of them, got {ev!r}"
        )
    return many


def _evidence_positions(net: CompiledNetwork, evidence: Optional[Evidence]) -> _Positions:
    out = {}
    for nid, ev in dict(evidence or {}).items():
        many = _is_state_set(nid, ev)
        axis = net.index(nid)  # raises UnknownNodeError, even for an empty collection
        out[axis] = tuple(net.state_index(nid, s) for s in ev) if many else net.state_index(nid, ev)
    return out


def _ancestral_axes(net: CompiledNetwork, axes: Iterable[int]) -> list[int]:
    """`axes` and the axes of all their ancestors, sorted: the nodes whose
    CPTs a query needs. Every other node is barren: its factors sum to one,
    so dropping them leaves the answer unchanged."""
    relevant = set(axes)
    frontier = list(relevant)
    while frontier:
        # factor i is node i's CPT, so its scope is node i plus its parents
        for i in net.factors[frontier.pop()].scope:
            if i not in relevant:
                relevant.add(i)
                frontier.append(i)
    return sorted(relevant)


def _plan(
    net: CompiledNetwork, slots: list[Factor], free: list[int]
) -> tuple[list[_Step], list[Optional[int]], list[int]]:
    """The elimination structure of a query, from the scopes and shapes of
    its `slots` alone; step k's message becomes slot `len(slots) + k`.

    Variables go smallest factor-graph degree first, ties to the lowest node
    index, and `free[0]` last. Raises FactorSizeError before a product above
    FACTOR_SIZE_LIMIT cells. Returns the steps, each step's parent (the step
    its message goes to; None for a scalar one), and, last first, the steps
    that receive a message backward: those below a tree's top on a path up
    from a `free[1:]` target's step.
    """
    size = {i: n for f in slots for i, n in zip(f.scope, np.shape(f.values))}
    base = len(slots)
    pool = {s: f.scope for s, f in enumerate(slots) if f.scope}
    steps: list[_Step] = []
    parent: list[Optional[int]] = []
    while pool:
        current = list(pool.values())
        candidates = set().union(*current)
        if free and len(candidates) > 1:
            candidates.discard(free[0])
        best: Optional[tuple[int, int, set[int]]] = None
        for v in sorted(candidates):
            neighbors: set[int] = set()
            for scope in current:
                if v in scope:
                    neighbors.update(scope)
            neighbors.discard(v)
            if best is None or len(neighbors) < best[0]:
                best = (len(neighbors), v, neighbors)
        _, v, neighbors = best
        cells = math.prod(size[i] for i in neighbors | {v})
        if cells > FACTOR_SIZE_LIMIT:
            raise FactorSizeError(net.node_ids[v], len(neighbors) + 1, cells, FACTOR_SIZE_LIMIT)
        inputs = tuple([s for s, scope in pool.items() if v in scope])
        for s in inputs:
            del pool[s]
            if s >= base:
                parent[s - base] = len(steps)
        if neighbors:
            pool[base + len(steps)] = neighbors
        steps.append((v, inputs, neighbors))
        parent.append(None)
    on_path: set[int] = set()
    at = {var: k for k, (var, _, _) in enumerate(steps)} if len(free) > 1 else {}
    for t in free[1:]:
        k = at[t]
        while parent[k] is not None and k not in on_path:
            on_path.add(k)
            k = parent[k]
    return steps, parent, sorted(on_path, reverse=True)


def _contract(factors: list[Factor], keep: Optional[Collection[int]] = None) -> tuple[Factor, int]:
    """The product of `factors`, each reshaped once onto the sorted union of
    their scopes and multiplied left to right, with every axis whose node is
    not in `keep` summed out (none when `keep` is None), as (factor, e): the
    exact result is the factor's values times 2**e. Every fourth factor, a
    running product whose largest entry is below 2**-500 is multiplied by
    an exact power of two, so many small factors in one bucket cannot
    underflow: four factors with entries above 2**-130 cannot take it from
    there below the smallest normal float. A product that never falls that
    low is returned as computed, with e = 0."""
    shift = 0
    if len(factors) == 1:
        scope, values = factors[0].scope, factors[0].values
    else:
        scope = tuple(sorted(set().union(*[f.scope for f in factors])))
        values = None
        for j, f in enumerate(factors):
            part = f.values
            if f.scope != scope:
                # f.scope is a sorted subsequence of scope, so a singleton
                # axis at every missing position is a plain reshape
                shape = [part.shape[f.scope.index(i)] if i in f.scope else 1 for i in scope]
                part = part.reshape(shape)
            if j and j % 4 == 0:
                peak = values.max()
                if 0.0 < peak < _TINY:
                    e = math.frexp(peak)[1]
                    values, shift = np.ldexp(values, -e), shift + e
            values = part if values is None else values * part
    gone = () if keep is None else tuple([ax for ax, i in enumerate(scope) if i not in keep])
    if gone:
        scope, values = tuple([i for i in scope if i in keep]), values.sum(axis=gone)
    return Factor(scope, values), shift


def _propagate(
    net: CompiledNetwork, ev_pos: _Positions, queries: list[int]
) -> tuple[float, dict[int, np.ndarray]]:
    """log P(evidence) and the normalised marginal of every query axis free
    of single-state evidence: the query's `_plan`, run by one numeric pass.

    Forward, each step multiplies its input slots, sums its variable out and
    divides the message by its sum; the log of that sum, of every scalar
    factor and of each power of two that `_contract` rescaled by is added to
    log P(e). Only a free target's step keeps its product. Backward, each
    step on a path to a target receives its parent's other factors and
    incoming message, summed onto the scope of the message it sent up (no
    division). A target's marginal is its product times that message,
    normalised. Returns (-inf, {}) as soon as P(e) is found to be 0.
    """
    observed = {a: p for a, p in ev_pos.items() if isinstance(p, int)}
    masks = {a: p for a, p in ev_pos.items() if not isinstance(p, int)}
    free = [a for a in dict.fromkeys(queries) if a not in observed]
    slots: list[Optional[Factor]] = []
    for i in _ancestral_axes(net, [*ev_pos, *free]):
        f = net.factors[i]
        if not observed.keys().isdisjoint(f.scope):
            # basic indexing: a view of the CPT's array, not a copy
            index = tuple([observed.get(j, slice(None)) for j in f.scope])
            f = Factor(tuple([j for j in f.scope if j not in observed]), f.values[index])
        slots.append(f)
    for a, p in masks.items():
        slots.append(Factor((a,), np.isin(np.arange(len(net.states[net.node_ids[a]])), p) * 1.0))
    steps, parent, on_path = _plan(net, slots, free)
    log_z = 0.0
    for f in slots:
        if not f.scope:
            if not f.values > 0.0:
                return -math.inf, {}
            log_z += math.log(f.values)

    base, targets = len(slots), set(free)
    reread = {parent[k] for k in on_path}  # steps the backward pass reads again
    products: dict[int, Factor] = {}
    for k, (v, inputs, scope) in enumerate(steps):
        touching = [slots[s] for s in inputs]
        if v in targets:
            products[k], shift = _contract(touching)
            message = _contract([products[k]], scope)[0]
        else:
            message, shift = _contract(touching, scope)
        total = float(message.values.sum())
        if not total > 0.0:
            return -math.inf, {}
        log_z += math.log(total) + shift * _LN2
        if scope:
            values = message.values  # a fresh array, owned by this message
            values /= total
        slots.append(message)
        if k not in reread:
            for s in inputs:
                slots[s] = None

    # a parent step comes after its children, so it is visited first
    down: dict[int, Factor] = {}
    for k in on_path:
        up = parent[k]
        parts = [slots[s] for s in steps[up][1] if s != base + k]
        if up in down:
            parts.append(down[up])
        if parts:
            incoming = _contract(parts, steps[k][2])[0]
            if incoming.scope:
                down[k] = Factor(incoming.scope, incoming.values / incoming.values.sum())
    out = {}
    for k, product in products.items():
        v = steps[k][0]
        marginal = _contract([product, down[k]] if k in down else [product], (v,))[0].values
        out[v] = marginal / marginal.sum()
    return log_z, out


def _distributions(
    net: CompiledNetwork, targets: Iterable[str], evidence: Optional[Evidence]
) -> dict[str, Distribution]:
    """P(target | evidence) for every target, in target order, from one
    propagation; single-state evidence on a target gives its point mass. With
    no target there is nothing to propagate, and the evidence is not weighed."""
    targets = list(targets)
    axes = [net.index(t) for t in targets]  # raises UnknownNodeError for unknown ids
    ev_pos = _evidence_positions(net, evidence)
    if not targets:
        return {}
    log_z, probs = _propagate(net, ev_pos, axes)
    if log_z == -math.inf:
        raise ZeroProbabilityEvidenceError(
            "the given evidence has probability zero under the model"
        )
    out = {}
    for t, a in zip(targets, axes):
        if a not in probs:
            probs[a] = np.zeros(len(net.states[t]))
            probs[a][ev_pos[a]] = 1.0
        out[t] = Distribution(t, net.states[t], probs[a])
    return out


def _log_evidence(net: CompiledNetwork, evidence: Optional[Evidence]) -> float:
    return _propagate(net, _evidence_positions(net, evidence), [])[0]


def posterior(net: CompiledNetwork, query: str, evidence: Optional[Evidence] = None) -> Distribution:
    """P(query | evidence) by one elimination.

    Only the factors of the query, the evidence and their ancestors enter
    the elimination. An evidence value is a NodeState, or a collection of
    them meaning "one of these" (anything else raises TypeError); a
    NodeState, though itself a pair, is always one state.
    Single-state evidence on the query node yields the matching point mass.
    Evidence whose probability is zero (log P(e) = -inf, not merely below
    the smallest float) raises ZeroProbabilityEvidenceError.
    """
    return _distributions(net, [query], evidence)[query]


def marginals(
    net: CompiledNetwork, targets: Iterable[str], evidence: Optional[Evidence] = None
) -> dict[str, Distribution]:
    """P(target | evidence) for every target, in target order.

    The factors of the targets, the evidence and their ancestors are reduced
    once, and one forward and one backward pass over them give every
    target's marginal. A target with single-state evidence on it yields the
    matching point mass. Evidence whose probability is zero raises
    ZeroProbabilityEvidenceError. `targets` is any iterable of node ids but
    a str, which would read as one id per character (TypeError).
    """
    if isinstance(targets, str):
        raise TypeError(f"targets must be a list of node ids, not the string {targets!r}")
    return _distributions(net, targets, evidence)


def log_evidence_probability(net: CompiledNetwork, evidence: Optional[Evidence] = None) -> float:
    """log P(evidence), finite however far P(evidence) falls below the
    smallest float; -inf when it is zero (e.g. an empty collection of
    states). Only the factors of the evidence and its ancestors enter."""
    return _log_evidence(net, evidence)


def evidence_probability(net: CompiledNetwork, evidence: Optional[Evidence] = None) -> float:
    """P(evidence), as exp(log_evidence_probability); 0.0 when it underflows."""
    return math.exp(_log_evidence(net, evidence))


@dataclass(frozen=True, eq=False)
class JointTable:
    """The full joint over all nodes; axis i enumerates node i's states."""

    nodes: tuple[str, ...]
    states: tuple[tuple[NodeState, ...], ...]
    values: np.ndarray

    def total(self) -> float:
        return float(self.values.sum())

    def marginal(self, node_id: str) -> np.ndarray:
        ax = self.nodes.index(node_id)
        other = tuple(i for i in range(len(self.nodes)) if i != ax)
        return self.values.sum(axis=other)

    def distribution(self, node_id: str) -> Distribution:
        vec = self.marginal(node_id)
        z = float(vec.sum())
        if not z > 0.0:
            raise ZeroProbabilityEvidenceError(
                "the given evidence has probability zero under the model"
            )
        return Distribution(node_id, self.states[self.nodes.index(node_id)], vec / z)


def joint_enumerate(spec: NetworkSpec, evidence: Optional[Evidence] = None) -> JointTable:
    """Brute-force oracle: enumerate the joint probability of every complete
    state assignment, optionally zeroing assignments that contradict evidence.
    An evidence value is a NodeState or a collection of them, as for
    `posterior`; anything else raises TypeError.

    Kept deliberately independent of the factor code above. Refuses joints
    larger than JOINT_SIZE_LIMIT cells.
    """
    violations = validate(spec)
    if violations:
        raise InvalidNetworkError(violations)
    ids = spec.node_ids()
    enums = tuple(state_enumeration(spec.node(n)) for n in ids)
    cards = [len(e) for e in enums]
    if ids and int(np.prod(cards, dtype=np.int64)) > JOINT_SIZE_LIMIT:
        raise JointSizeError(
            f"joint table over {len(ids)} nodes would have "
            f"{int(np.prod(cards, dtype=np.int64))} cells "
            f"(limit {JOINT_SIZE_LIMIT})"
        )
    joint = np.ones(cards)
    for nid in ids:
        table = spec.tables[nid]
        axes = [ids.index(p) for p in table.parent_order] + [ids.index(nid)]
        block = np.zeros([cards[a] for a in axes])
        for key, probs in table.rows.items():
            where = tuple(
                enums[ids.index(p)].index(s) for p, s in zip(table.parent_order, key)
            )
            block[where] = probs
        shape = [1] * len(ids)
        for a in axes:
            shape[a] = cards[a]
        joint = joint * np.transpose(block, np.argsort(axes)).reshape(shape)
    if evidence:
        for nid, ev in dict(evidence).items():
            states = ev if _is_state_set(nid, ev) else (ev,)
            spec.node(nid)  # raises UnknownNodeError
            ax = ids.index(nid)
            mask = np.zeros(cards[ax])
            for st in states:
                try:
                    mask[enums[ax].index(st)] = 1.0
                except ValueError:
                    raise UnknownStateError(
                        nid, _state_text(st), spec.node(nid).state_labels()
                    ) from None
            joint = joint * mask.reshape([c if i == ax else 1 for i, c in enumerate(cards)])
    return JointTable(ids, enums, joint)
