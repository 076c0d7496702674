"""Seeded inputs for the benchmark: networks, evidence and event streams.

The benchmark owns this generator, so edits to the test helpers cannot shift
a workload. Everything here is a pure function of the numpy generator it is
given; the same seed gives the same inputs.

Shape of a generated network. The first `N_ROOTS` nodes are instantaneous
causes. Every later node draws 1 to `MAX_PARENTS` parents from the `WINDOW`
nodes declared just before it. The window is there for two reasons:

- It gives the layered cause-to-finding shape of real TNBNs, where a finding
  depends on a few nearby causes, not on arbitrary earlier nodes.
- It keeps the elimination width small, so the cost of one query grows with
  the node count and not exponentially. Without it, a random network of 100
  nodes can need an intermediate factor far larger than memory: the test
  generator at seed 3 with `max_nodes=120, edge_share=0.1` asks numpy for a
  724 GiB factor. The missing size guard on intermediate factors is open
  work for the library; the benchmark does not make it the workload.

Conditional table rows are Dirichlet(1) draws, so every probability is
positive and any evidence has non-zero probability.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from tnbn import (
    ConditionalTable,
    NetworkSpec,
    NodeKind,
    NodeSpec,
    NodeState,
    ObservedEvent,
    TimeInterval,
    state_enumeration,
)

N_ROOTS = 3
WINDOW = 6
MAX_PARENTS = 3
# (value count, interval count) of a temporal node: at most 5 states
TEMPORAL_SHAPES = ((1, 1), (1, 2), (1, 3), (2, 1), (2, 2))


def _balanced(rng: np.random.Generator, choices: list, count: int) -> list:
    """`count` items cycling through `choices`, in random order: positions
    are random while the totals, and so the cost of a query, vary little
    from seed to seed."""
    return [choices[int(i)] for i in rng.permutation(np.resize(np.arange(len(choices)), count))]


def _temporal_node(rng: np.random.Generator, nid: str, shape: tuple[int, int]) -> NodeSpec:
    n_values, n_intervals = shape
    start = float(rng.integers(0, 3))
    bounds = start + np.concatenate([[0], np.cumsum(rng.integers(2, 13, size=n_intervals))])
    return NodeSpec(
        nid,
        NodeKind.TEMPORAL,
        tuple(f"v{k}" for k in range(n_values)),
        default_value="base",
        intervals=tuple(TimeInterval(float(a), float(b)) for a, b in zip(bounds, bounds[1:])),
    )


def network(rng: np.random.Generator, n_nodes: int, temporal_share: float, name: str) -> NetworkSpec:
    """A valid network whose declaration order is a topological order."""
    later = n_nodes - N_ROOTS
    n_temporal = round(temporal_share * later)
    temporal = [False] * N_ROOTS + _balanced(rng, [True] * n_temporal + [False] * (later - n_temporal), later)
    shapes = iter(_balanced(rng, list(TEMPORAL_SHAPES), n_temporal))
    counts = iter(_balanced(rng, [2, 3], n_nodes - n_temporal))
    nodes = [
        _temporal_node(rng, f"N{i}", next(shapes)) if temporal[i]
        else NodeSpec(f"N{i}", NodeKind.INSTANTANEOUS, tuple(f"v{k}" for k in range(next(counts))))
        for i in range(n_nodes)
    ]
    parents: list[tuple[int, ...]] = [()] * N_ROOTS
    for j, k in zip(range(N_ROOTS, n_nodes), _balanced(rng, list(range(1, MAX_PARENTS + 1)), later)):
        window = np.arange(max(0, j - WINDOW), j)
        picked = rng.choice(window, size=min(k, len(window)), replace=False)
        parents.append(tuple(sorted(int(p) for p in picked)))

    enums = [state_enumeration(n) for n in nodes]
    tables = {}
    for j, node in enumerate(nodes):
        keys = list(itertools.product(*(enums[p] for p in parents[j])))
        rows = rng.dirichlet(np.ones(len(enums[j])), size=len(keys))
        tables[node.id] = ConditionalTable(
            node.id,
            tuple(nodes[p].id for p in parents[j]),
            {key: tuple(float(x) for x in row) for key, row in zip(keys, rows)},
        )
    edges = tuple((nodes[p].id, nodes[j].id) for j in range(n_nodes) for p in parents[j])
    return NetworkSpec(name, "minute", tuple(nodes), edges, tables)


@dataclass(frozen=True)
class Draw:
    """One node of a sampled world; `time` is None for a default state."""

    state: NodeState
    time: Optional[float]


def sample_world(rng: np.random.Generator, spec: NetworkSpec) -> dict[str, Draw]:
    """Ancestral sample with change times, independent of the library's
    sampler so that a change there cannot shift the inputs."""
    world: dict[str, Draw] = {}
    for node in spec.nodes:
        table = spec.tables[node.id]
        row = np.asarray(table.rows[tuple(world[p].state for p in table.parent_order)])
        state = state_enumeration(node)[int(rng.choice(len(row), p=row / row.sum()))]
        time: Optional[float] = 0.0
        if node.kind is NodeKind.TEMPORAL:
            if state.interval_index is None:
                time = None
            else:
                iv = node.intervals[state.interval_index]
                time = float(rng.uniform(iv.lo, iv.hi))
        world[node.id] = Draw(state, time)
    return world


def evidence_from(rng: np.random.Generator, spec: NetworkSpec, count: int) -> dict[str, NodeState]:
    """States of `count` random nodes in one sampled world."""
    world = sample_world(rng, spec)
    picked = sorted(int(i) for i in rng.choice(len(spec.nodes), size=count, replace=False))
    return {spec.nodes[i].id: world[spec.nodes[i].id].state for i in picked}


def _report(rng: np.random.Generator, node: NodeSpec, draw: Draw, anchor_tc: float,
            out_of_range_share: float) -> ObservedEvent:
    if node.kind is NodeKind.INSTANTANEOUS:
        tc = anchor_tc + float(rng.uniform(0.0, 5.0))
    elif draw.time is None:
        # a no-change claim can only be made once the whole range has passed
        tc = anchor_tc + node.temporal_range.hi
    else:
        tc = anchor_tc + draw.time
        if rng.random() < out_of_range_share:
            tc += node.temporal_range.hi + float(rng.uniform(1.0, 10.0))
    return ObservedEvent(node.id, draw.state.value, tc)


def event_stream(
    rng: np.random.Generator,
    spec: NetworkSpec,
    length: int,
    start_pending: bool,
    out_of_range_share: float,
) -> list[ObservedEvent]:
    """Timed reports about `length` nodes of one sampled world, in arrival
    order.

    Clocks are absolute: every time is shifted by a random offset, and no
    report is timed before the first one. A stream that starts pending opens
    with the temporal change report that has the most intervals, so the most
    scenarios. A no-change report follows, which settles nothing, and then a
    change report, which settles the held one. Every pending stream thus
    has exactly two pending steps. Any other stream opens with an
    instantaneous cause, reported at the offset. A share of the temporal
    change reports is pushed past the end of its node's covered range, so
    the session must flag it inconsistent.
    """
    world = sample_world(rng, spec)
    offset = float(rng.uniform(1_000.0, 100_000.0))
    causes = [n for n in spec.nodes if n.kind is NodeKind.INSTANTANEOUS]
    temporal = [n for n in spec.nodes if n.kind is NodeKind.TEMPORAL]
    changed = [n for n in temporal if world[n.id].time is not None]
    unchanged = [n for n in temporal if world[n.id].time is None]
    if start_pending and changed and unchanged:
        most = max(len(n.intervals) for n in changed)
        widest = [n for n in changed if len(n.intervals) == most]
        first = widest[int(rng.integers(len(widest)))]
        anchor_tc = offset + world[first.id].time
        settlers = causes + [n for n in changed if n is not first]
        head = [first, unchanged[int(rng.integers(len(unchanged)))],
                settlers[int(rng.integers(len(settlers)))]]
    else:
        first = causes[int(rng.integers(len(causes)))]
        anchor_tc = offset
        head = [first]
    rest = [n for n in spec.nodes if n not in head]
    nodes = head + [rest[int(i)] for i in rng.choice(len(rest), size=length - len(head), replace=False)]
    return [ObservedEvent(first.id, world[first.id].state.value, anchor_tc)] + [
        _report(rng, n, world[n.id], anchor_tc, out_of_range_share) for n in nodes[1:]
    ]
