"""Exact inference: one calibrated propagation per query, plus a full-joint
enumeration oracle.

Every query is first pruned to its targets, its evidence and their
ancestors (every other node is barren and sums out to one), and the
remaining CPT factors are reduced by the evidence. `_propagate` then makes
one forward pass of bucket elimination along the min-degree order (Dechter
1996), in which the first target is summed out last, as an ordinary bucket,
and, for more than one target, one backward pass of Shafer-Shenoy messages
over the resulting bucket tree (Shafer & Shenoy 1990). Both passes multiply
and sum factors through one helper, `_contract`. Together they give every
target's marginal and log P(evidence). Each forward message
is divided by its sum and the log of that sum is carried instead, so
evidence whose probability lies far below the smallest float still yields
posteriors and a finite `log_evidence_probability`. `posterior`,
`marginals`, `log_evidence_probability` and `evidence_probability` are thin
wrappers around that one routine. As a cross-check, `joint_enumerate`
builds the complete joint table over every state assignment without using
the factor machinery at all; the two paths share nothing but the network
definition, so agreement between them is a meaningful test of both.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
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
    _keys_in_order,
    state_enumeration,
    toposort,
    validate,
)

# joint_enumerate refuses to build tables above this many cells
JOINT_SIZE_LIMIT = 10_000_000
# elimination refuses to build intermediate factors above this many cells
FACTOR_SIZE_LIMIT = 10_000_000

Evidence = Mapping[str, Union[NodeState, Collection[NodeState]]]
# per evidence node, its state position, or a tuple of positions for a set
_Positions = Mapping[str, Union[int, tuple[int, ...]]]


@dataclass(frozen=True, eq=False)
class Distribution:
    """A probability vector over one node's states, in enumeration order."""

    node: str
    states: tuple[NodeState, ...]
    probs: np.ndarray

    def p(self, state: NodeState) -> float:
        for s, value in zip(self.states, self.probs):
            if s == state:
                return float(value)
        raise UnknownStateError(self.node, _state_text(state), [repr(s) for s in self.states])

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


def _reduce(f: Factor, idx: int, state_pos: int) -> Factor:
    ax = f.scope.index(idx)
    return Factor(f.scope[:ax] + f.scope[ax + 1:], np.take(f.values, state_pos, axis=ax))


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

    @cached_property
    def cdfs(self) -> tuple[np.ndarray, ...]:
        """Per node axis, the node's factor with its own axis moved last, so it
        is indexed by the parents' state positions in axis order, and each row
        made cumulative as `Generator.choice` makes it, so an inverse-CDF draw
        on one uniform picks what `choice` would. Built on first use: only
        sampling needs it."""
        out = []
        for i, f in enumerate(self.factors):
            probs = np.ascontiguousarray(np.moveaxis(f.values, f.scope.index(i), -1))
            cdf = (probs / probs.sum(axis=-1, keepdims=True)).cumsum(axis=-1)
            out.append(cdf / cdf[..., -1:])
        return tuple(out)

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
        if _keys_in_order(table.rows, enums):
            rows = list(table.rows.values())
        else:
            rows = [table.rows[key] for key in itertools.product(*enums)]
        shape = [card[p] for p in table.parent_order] + [card[nid]]
        block = np.array(rows, dtype=float).reshape(shape)
        arr = np.ascontiguousarray(block.transpose(np.argsort(axes)))
        factors.append(Factor(tuple(sorted(axes)), arr))

    order = toposort(spec)
    assert order is not None  # a cycle would have failed validation
    return CompiledNetwork(spec, order, ids, states, index, pos, tuple(factors))


def _is_state_set(nid: str, ev: object) -> bool:
    """Whether the evidence value `ev` on `nid` is a collection of states
    ("one of these") rather than one NodeState; TypeError if it is neither."""
    many = isinstance(ev, Collection) and not isinstance(ev, str)
    if not (isinstance(ev, NodeState) or many and all(isinstance(s, NodeState) for s in ev)):
        raise TypeError(
            f"evidence on node {nid!r} must be a NodeState or a collection of them, got {ev!r}"
        )
    return many


def _evidence_positions(net: CompiledNetwork, evidence: Optional[Evidence]) -> _Positions:
    out = {}
    for nid, ev in dict(evidence or {}).items():
        many = _is_state_set(nid, ev)
        net.index(nid)  # raises UnknownNodeError, even for an empty collection
        out[nid] = tuple(net.state_index(nid, s) for s in ev) if many else net.state_index(nid, ev)
    return out


def _reduced_factors(
    net: CompiledNetwork, ev_pos: _Positions, queries: Iterable[int] = ()
) -> list[Factor]:
    """The CPT factors of the queries, the evidence and their ancestors, each
    reduced by the single-state evidence, plus one 0/1 mask factor per node
    with set-valued evidence. Every other node is barren: its factors sum to
    one, so dropping them leaves the answer unchanged."""
    ev_axes = [(net.axes[nid], p) for nid, p in ev_pos.items() if isinstance(p, int)]
    masks = [
        Factor((net.axes[nid],), np.isin(np.arange(len(net.states[nid])), p).astype(float))
        for nid, p in ev_pos.items() if not isinstance(p, int)
    ]
    # factor i is node i's CPT, so its scope is node i plus its parents
    relevant = {net.axes[nid] for nid in ev_pos} | set(queries)
    frontier = list(relevant)
    while frontier:
        for i in net.factors[frontier.pop()].scope:
            if i not in relevant:
                relevant.add(i)
                frontier.append(i)
    out = []
    for i in sorted(relevant):
        f = net.factors[i]
        for j, p in ev_axes:
            if j in f.scope:
                f = _reduce(f, j, p)
        out.append(f)
    return out + masks


@dataclass(eq=False)
class _Bucket:
    """One variable summed out in the forward pass: the factors that held it,
    their product (kept only for a free target) and the message it sent (None
    for a scalar, which only scales P(e))."""

    var: int
    factors: list[Factor]
    product: Optional[Factor]
    message: Optional[Factor]


def _contract(factors: list[Factor], keep: Optional[Collection[int]] = None) -> Factor:
    """The product of `factors`, each reshaped once onto the sorted union of
    their scopes and multiplied left to right, with every axis whose node is
    not in `keep` summed out (none when `keep` is None)."""
    if len(factors) == 1:
        scope, values = factors[0].scope, factors[0].values
    else:
        scope = tuple(sorted(set().union(*[f.scope for f in factors])))
        values = None
        for f in factors:
            part = f.values
            if f.scope != scope:
                # f.scope is a sorted subsequence of scope, so a singleton
                # axis at every missing position is a plain reshape
                shape = [part.shape[f.scope.index(i)] if i in f.scope else 1 for i in scope]
                part = part.reshape(shape)
            values = part if values is None else values * part
    if keep is None:
        return Factor(scope, values)
    gone = tuple([ax for ax, i in enumerate(scope) if i not in keep])
    if not gone:
        return Factor(scope, values)
    return Factor(tuple([i for i in scope if i in keep]), values.sum(axis=gone))


def _propagate(
    net: CompiledNetwork, factors: list[Factor], free: list[int]
) -> tuple[float, dict[int, np.ndarray]]:
    """log P(evidence) and the normalised marginal of every free target axis,
    from one forward and one backward pass over the bucket tree of `factors`
    (Dechter 1996; Shafer & Shenoy 1990).

    Forward: every variable is summed out, smallest factor-graph degree
    first, ties to the lowest node index, and `free[0]` last, as an ordinary
    bucket. Each message is divided by its sum, and the log of that sum,
    like the log of every scalar factor, is added to log P(e), so no running
    product underflows. Raises FactorSizeError before building a product
    larger than FACTOR_SIZE_LIMIT cells. The last bucket's product, over
    `free[0]` alone, divided by its sum is that target's marginal. Backward,
    only with more than one free target: each bucket on a path to a target's
    bucket receives the product of its parent's other factors and incoming
    message, summed onto the scope of the message it sent up (no division),
    and its target's marginal is read off its belief. Returns (-inf, {}) as
    soon as P(e) is found to be 0.
    """
    log_z = 0.0
    pool = []
    for f in factors:
        if f.scope:
            pool.append(f)
        elif f.values > 0.0:
            log_z += math.log(f.values)
        else:
            return -math.inf, {}
    targets = set(free)
    track = len(free) > 1
    buckets: list[_Bucket] = []
    while pool:
        scopes = [f.scope for f in pool]
        candidates = set().union(*scopes)
        if free and len(candidates) > 1:
            candidates.discard(free[0])
        best: Optional[tuple[int, int, set[int]]] = None
        for v in sorted(candidates):
            neighbors: set[int] = set()
            for scope in scopes:
                if v in scope:
                    neighbors.update(scope)
            neighbors.discard(v)
            if best is None or len(neighbors) < best[0]:
                best = (len(neighbors), v, neighbors)
        _, v, neighbors = best
        cells = math.prod(len(net.states[net.node_ids[i]]) for i in neighbors | {v})
        if cells > FACTOR_SIZE_LIMIT:
            raise FactorSizeError(net.node_ids[v], len(neighbors) + 1, cells, FACTOR_SIZE_LIMIT)
        touching = [f for f in pool if v in f.scope]
        pool = [f for f in pool if v not in f.scope]
        product = _contract(touching) if v in targets else None
        message = _contract(touching if product is None else [product], neighbors)
        total = float(message.values.sum())
        if not total > 0.0:
            return -math.inf, {}
        log_z += math.log(total)
        if message.scope:
            values = message.values  # a fresh array, owned by this message
            values /= total
            pool.append(message)
        else:
            message = None
        if track:
            buckets.append(_Bucket(v, touching, product, message))
    if not free:
        return log_z, {}
    # the last bucket was free[0]'s, and its product is over free[0] alone
    out = {free[0]: product.values / total}
    if not track:
        return log_z, out

    at = {b.var: k for k, b in enumerate(buckets)}
    # a message goes to the bucket of the first of its variables to be
    # summed out; a bucket that sent none is a tree's top
    parent = [
        None if b.message is None else min(at[i] for i in b.message.scope) for b in buckets
    ]
    on_path: set[int] = set()
    for t in free[1:]:
        k = at[t]
        while k is not None and k not in on_path:
            on_path.add(k)
            k = parent[k]
    # the message each bucket on a path receives from its parent (None when
    # it is constant); a parent is created after its children, so this
    # visits it first. Each product is rebuilt from the parent's other
    # factors rather than kept, so no more than one is alive at a time.
    down: dict[int, Optional[Factor]] = {}
    for k in sorted(on_path, reverse=True):
        b, up = buckets[k], parent[k]
        down[k] = None
        if up is None:
            continue
        parts = [f for f in buckets[up].factors if f is not b.message]
        if down[up] is not None:
            parts.append(down[up])
        if parts:
            incoming = _contract(parts, b.message.scope)
            if incoming.scope:
                down[k] = Factor(incoming.scope, incoming.values / incoming.values.sum())
    for t in free[1:]:
        k = at[t]
        parts = [buckets[k].product]
        if down[k] is not None:
            parts.append(down[k])
        marginal = _contract(parts, (t,)).values
        out[t] = marginal / marginal.sum()
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
    free = dict.fromkeys(a for t, a in zip(targets, axes) if not isinstance(ev_pos.get(t), int))
    log_z, probs = _propagate(net, _reduced_factors(net, ev_pos, axes), list(free))
    if log_z == -math.inf:
        raise ZeroProbabilityEvidenceError(
            "the given evidence has probability zero under the model"
        )
    out = {}
    for t, a in zip(targets, axes):
        if a in probs:
            out[t] = Distribution(t, net.states[t], probs[a])
        else:
            point = np.zeros(len(net.states[t]))
            point[ev_pos[t]] = 1.0
            out[t] = Distribution(t, net.states[t], point)
    return out


def _log_evidence(net: CompiledNetwork, evidence: Optional[Evidence]) -> float:
    ev_pos = _evidence_positions(net, evidence)
    return _propagate(net, _reduced_factors(net, ev_pos), [])[0]


def posterior(net: CompiledNetwork, query: str, evidence: Optional[Evidence] = None) -> Distribution:
    """P(query | evidence) by one elimination.

    Only the factors of the query, the evidence and their ancestors enter
    the elimination. An evidence value is a NodeState, or a collection of
    them meaning "one of these" (anything else raises TypeError).
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
    ZeroProbabilityEvidenceError.
    """
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
