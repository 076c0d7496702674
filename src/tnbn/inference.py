"""Exact inference: factor elimination plus a full-joint enumeration oracle.

`posterior` answers queries by variable elimination over factors, after
pruning every node that is neither the query, nor evidence, nor an ancestor
of either (such barren nodes sum out to one). `marginals` answers several
targets from one such factor set, pruned to the ancestral set of all of
them. As a cross-check, `joint_enumerate` builds the complete joint table
over every state assignment without using the factor machinery at all;
the two paths share nothing but the network definition, so agreement
between them is a meaningful test of both.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Mapping, Optional

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

Evidence = Mapping[str, NodeState]


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


def _expand(f: Factor, scope: tuple[int, ...]) -> np.ndarray:
    # f.scope is a sorted subsequence of scope, so inserting singleton axes
    # at the missing positions is a plain reshape.
    shape = [1] * len(scope)
    for ax, idx in enumerate(scope):
        if idx in f.scope:
            shape[ax] = f.values.shape[f.scope.index(idx)]
    return f.values.reshape(shape)


def _multiply(a: Factor, b: Factor) -> Factor:
    scope = tuple(sorted(set(a.scope) | set(b.scope)))
    return Factor(scope, _expand(a, scope) * _expand(b, scope))


def _sum_out(f: Factor, idx: int) -> Factor:
    ax = f.scope.index(idx)
    return Factor(f.scope[:ax] + f.scope[ax + 1:], f.values.sum(axis=ax))


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
    def cdfs(self) -> dict[str, dict[tuple[NodeState, ...], np.ndarray]]:
        """Per node and parent-state row, the cumulative distribution over the
        node's states, normalised as `Generator.choice` normalises it, so an
        inverse-CDF draw on one uniform picks what `choice` would. Built on
        first use: only sampling needs it."""
        out: dict[str, dict[tuple[NodeState, ...], np.ndarray]] = {}
        for nid in self.node_ids:
            out[nid] = {}
            for key, row in self.spec.tables[nid].rows.items():
                probs = np.asarray(row, dtype=float)
                cdf = (probs / probs.sum()).cumsum()
                cdf /= cdf[-1]
                out[nid][key] = cdf
        return out

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
        keys = itertools.product(*(states[p] for p in table.parent_order))
        rows = [table.rows[key] for key in keys]
        shape = [card[p] for p in table.parent_order] + [card[nid]]
        block = np.array(rows, dtype=float).reshape(shape)
        arr = np.ascontiguousarray(block.transpose(np.argsort(axes)))
        factors.append(Factor(tuple(sorted(axes)), arr))

    order = toposort(spec)
    assert order is not None  # a cycle would have failed validation
    return CompiledNetwork(spec, order, ids, states, index, pos, tuple(factors))


def _evidence_positions(net: CompiledNetwork, evidence: Optional[Evidence]) -> dict[str, int]:
    return {nid: net.state_index(nid, st) for nid, st in dict(evidence or {}).items()}


def _reduced_factors(
    net: CompiledNetwork, ev_pos: Mapping[str, int], queries: Iterable[int] = ()
) -> list[Factor]:
    """The CPT factors of the queries, the evidence and their ancestors, each
    reduced by the evidence. Every other node is barren: its factors sum to
    one, so dropping them leaves the answer unchanged."""
    ev_axes = [(net.axes[nid], p) for nid, p in ev_pos.items()]
    # factor i is node i's CPT, so its scope is node i plus its parents
    relevant = {i for i, _ in ev_axes} | set(queries)
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
    return out


def _eliminate(net: CompiledNetwork, factors: list[Factor], keep: set[int]) -> list[Factor]:
    """Sum out every variable not in `keep`, smallest factor-graph degree
    first; ties go to the lowest node index. Raises FactorSizeError before
    building a product larger than FACTOR_SIZE_LIMIT cells."""
    factors = list(factors)
    while True:
        present: set[int] = set()
        for f in factors:
            present.update(f.scope)
        candidates = present - keep
        if not candidates:
            return factors
        best: Optional[tuple[int, int, set[int]]] = None
        for v in sorted(candidates):
            neighbors: set[int] = set()
            for f in factors:
                if v in f.scope:
                    neighbors.update(f.scope)
            neighbors.discard(v)
            if best is None or len(neighbors) < best[0]:
                best = (len(neighbors), v, neighbors)
        _, v, neighbors = best
        cells = math.prod(len(net.states[net.node_ids[i]]) for i in neighbors | {v})
        if cells > FACTOR_SIZE_LIMIT:
            raise FactorSizeError(net.node_ids[v], len(neighbors) + 1, cells, FACTOR_SIZE_LIMIT)
        touching = [f for f in factors if v in f.scope]
        rest = [f for f in factors if v not in f.scope]
        product = touching[0]
        for f in touching[1:]:
            product = _multiply(product, f)
        rest.append(_sum_out(product, v))
        factors = rest


def _posterior_from(
    net: CompiledNetwork, factors: list[Factor], query: str, ev_pos: Mapping[str, int]
) -> Distribution:
    """P(query | evidence) from CPT factors already reduced by the evidence."""
    qstates = net.states[query]
    if query in ev_pos:
        probs = np.zeros(len(qstates))
        probs[ev_pos[query]] = 1.0
        return Distribution(query, qstates, probs)
    remaining = _eliminate(net, factors, keep={net.axes[query]})
    total = Factor((), np.array(1.0))
    for f in remaining:
        total = _multiply(total, f)
    z = float(total.values.sum())
    if not z > 0.0:
        raise ZeroProbabilityEvidenceError(
            "the given evidence has probability zero under the model"
        )
    return Distribution(query, qstates, np.asarray(total.values, dtype=float) / z)


def posterior(net: CompiledNetwork, query: str, evidence: Optional[Evidence] = None) -> Distribution:
    """P(query | evidence) by variable elimination.

    Only the factors of the query, the evidence and their ancestors enter
    the elimination.
    Evidence on the query node itself yields the matching point mass.
    Evidence whose probability is zero raises ZeroProbabilityEvidenceError.
    """
    qidx = net.index(query)  # raises UnknownNodeError for unknown ids
    ev_pos = _evidence_positions(net, evidence)
    return _posterior_from(net, _reduced_factors(net, ev_pos, [qidx]), query, ev_pos)


def marginals(
    net: CompiledNetwork, targets: Iterable[str], evidence: Optional[Evidence] = None
) -> dict[str, Distribution]:
    """P(target | evidence) for every target, in target order.

    The factors of the targets, the evidence and their ancestors are reduced
    once, and every target is eliminated from that one shared set. A target
    with evidence on it yields the matching point mass. Evidence whose
    probability is zero raises ZeroProbabilityEvidenceError.
    """
    targets = list(targets)
    axes = [net.index(t) for t in targets]  # raises UnknownNodeError for unknown ids
    ev_pos = _evidence_positions(net, evidence)
    factors = _reduced_factors(net, ev_pos, axes)
    return {t: _posterior_from(net, factors, t, ev_pos) for t in targets}


def evidence_probability(net: CompiledNetwork, evidence: Optional[Evidence] = None) -> float:
    """P(evidence): the normalizing constant after reducing the factors of
    the evidence and its ancestors."""
    ev_pos = _evidence_positions(net, evidence)
    remaining = _eliminate(net, _reduced_factors(net, ev_pos), keep=set())
    total = 1.0
    for f in remaining:
        total *= float(f.values)
    return total


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
        for nid, st in dict(evidence).items():
            spec.node(nid)  # raises UnknownNodeError
            ax = ids.index(nid)
            try:
                keep = enums[ax].index(st)
            except ValueError:
                raise UnknownStateError(
                    nid, _state_text(st), spec.node(nid).state_labels()
                ) from None
            mask = np.zeros(cards[ax])
            mask[keep] = 1.0
            joint = joint * mask.reshape([c if i == ax else 1 for i, c in enumerate(cards)])
    return JointTable(ids, enums, joint)
