"""Random network construction for cross-checking tests.

Every generated network is structurally valid and has strictly positive
conditional probabilities (Dirichlet rows), so any evidence combination has
nonzero probability.
"""

from __future__ import annotations

import itertools
from typing import Optional

import numpy as np

from tnbn import (
    ConditionalTable,
    NetworkSpec,
    NodeKind,
    NodeSpec,
    NodeState,
    TimeInterval,
    state_enumeration,
)

# (value count, interval count) pairs keeping a temporal node at <= 5 states
_TEMPORAL_SHAPES = [(1, 1), (1, 2), (1, 3), (1, 4), (2, 1), (2, 2), (3, 1), (4, 1)]


def _random_node(rng: np.random.Generator, i: int, temporal_share: float, max_states: int) -> NodeSpec:
    nid = f"N{i}"
    if rng.random() < temporal_share:
        shapes = [s for s in _TEMPORAL_SHAPES if 1 + s[0] * s[1] <= max_states]
        n_values, n_intervals = shapes[int(rng.integers(len(shapes)))]
        start = float(rng.integers(0, 3))
        widths = rng.integers(1, 10, size=n_intervals)
        bounds = start + np.concatenate([[0], np.cumsum(widths)])
        return NodeSpec(
            nid,
            NodeKind.TEMPORAL,
            tuple(f"v{k}" for k in range(n_values)),
            default_value="base",
            intervals=tuple(
                TimeInterval(float(a), float(b)) for a, b in zip(bounds, bounds[1:])
            ),
        )
    total = int(rng.integers(2, max_states + 1))
    if total > 2 and rng.random() < 0.3:
        return NodeSpec(
            nid,
            NodeKind.INSTANTANEOUS,
            tuple(f"v{k}" for k in range(total - 1)),
            default_value="base",
        )
    return NodeSpec(nid, NodeKind.INSTANTANEOUS, tuple(f"v{k}" for k in range(total)))


def random_network(
    rng: np.random.Generator,
    max_nodes: int = 8,
    max_states: int = 5,
    temporal_share: float = 0.4,
    edge_share: float = 0.4,
    max_parents: int = 3,
    n_nodes: Optional[int] = None,
) -> NetworkSpec:
    """A random network of `n_nodes` nodes, or of 2 to `max_nodes` when
    `n_nodes` is None."""
    if n_nodes is None:
        n_nodes = int(rng.integers(2, max_nodes + 1))
    nodes = tuple(
        _random_node(rng, i, temporal_share if i > 0 else 0.0, max_states)
        for i in range(n_nodes)
    )
    edges: list[tuple[str, str]] = []
    for j in range(1, n_nodes):
        parents = [i for i in range(j) if rng.random() < edge_share][:max_parents]
        edges.extend((f"N{i}", f"N{j}") for i in parents)

    tables: dict[str, ConditionalTable] = {}
    for j, node in enumerate(nodes):
        parent_ids = tuple(p for p, c in edges if c == node.id)
        parent_enums = [state_enumeration(nodes[int(p[1:])]) for p in parent_ids]
        card = len(state_enumeration(node))
        rows: dict[tuple[NodeState, ...], tuple[float, ...]] = {}
        for key in itertools.product(*parent_enums):
            rows[key] = tuple(rng.dirichlet(np.ones(card)))
        tables[node.id] = ConditionalTable(node.id, parent_ids, rows)
    return NetworkSpec("random", "unit", nodes, tuple(edges), tables)


def random_evidence(
    rng: np.random.Generator, spec: NetworkSpec, max_nodes: int = 2
) -> dict[str, NodeState]:
    count = int(rng.integers(0, max_nodes + 1))
    picked = rng.choice(len(spec.nodes), size=min(count, len(spec.nodes)), replace=False)
    evidence = {}
    for i in sorted(int(x) for x in picked):
        node = spec.nodes[i]
        states = state_enumeration(node)
        evidence[node.id] = states[int(rng.integers(len(states)))]
    return evidence
