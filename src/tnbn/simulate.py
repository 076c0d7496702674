"""Trajectory sampling and a prediction-quality harness.

A trajectory is one complete ancestral sample of the network, each temporal
change stamped with a concrete time drawn uniformly inside its interval. It
takes its doubles from its stream as one `Generator.random` call would, one
per node and one more per temporal node (the most it can use; unused ones
change nothing, as each trajectory has its own stream). Node by node in
topological order, in this module's sampling table (CDF rows read off the
CPT factors on the network's first sample), the next double picks the
state by bisecting the CDF row under the parents' sampled states, as
`Generator.choice` would, and a timed state's next double `u` gives the
time `lo + (hi - lo) * u`, as `Generator.uniform(lo, hi)` computes it.
That equality is checked on x86-64; a numpy built to fuse the multiply-add
(aarch64 compilers may) could differ in the last bit.

`sample_trajectory` is the reference: one trajectory from
`default_rng(seed)`, one scalar pass. A run (`evaluate`, `tnbn simulate`)
samples a block of trials per numpy pass instead, with the same result bit
for bit. It derives each trial's PCG64 stream (SeedSequence's mixing, then
PCG64's set-seed) and steps it on uint64 limb arrays, each double being
`(x >> 11) * 2**-53` of PCG64's XSL-RR output x, as `Generator.random`
makes it. Each node's state is then the count of CDF entries <= u in the
row each trial's parents pick (`bisect_right`, as a row never decreases),
and a timed state takes that trial's next double.

The harness replays part of a trajectory into a session as timed events,
asks for forecasts, and scores them against the hidden remainder, so the
session layer (anchoring noise included) is part of what gets measured.
A run replays a session once per distinct revealed sample (the revealed
nodes' state positions and times) and runs `predict()` once per signature
(the resolved states and held reports the replay ends with); every other
trial reuses those scores.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Optional
from weakref import WeakKeyDictionary

import numpy as np

from .errors import EmptyTierError, ZeroProbabilityEvidenceError
from .inference import CompiledNetwork, Distribution
from .model import NetworkSpec, NodeKind, NodeState, format_time
from .session import ObservedEvent, Session, open_session


class TrajectoryEntry(NamedTuple):
    """One node's sampled state; `time` is None for no-change states.

    A plain (node, state, time) tuple: it hashes and compares as that tuple.
    """

    node: str
    state: NodeState
    time: Optional[float]


@dataclass(frozen=True)
class Trajectory:
    """A complete sampled world, in node declaration order (so entry `i`
    belongs to the node on axis `i` of the compiled network)."""

    entries: tuple[TrajectoryEntry, ...]
    seed: int

    def entry(self, node_id: str) -> TrajectoryEntry:
        """The node's first entry; KeyError if it has none."""
        for e in self.entries:
            if e.node == node_id:
                return e
        raise KeyError(node_id)

    def state_of(self, node_id: str) -> NodeState:
        return self.entry(node_id).state


def _check_natural(name: str, value: int) -> None:
    # SeedSequence would also read a string, a sequence or None (OS entropy)
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 0:
        raise ValueError(f"{name} must be a non-negative integer, got {value!r}")


class SamplingRow(NamedTuple):
    """How `sample_trajectory` and a run draw one node of a compiled network.

    `cdf` holds the node's CDF rows, indexed by the state positions of
    `parents` (parent axes, in axis order), and `rows` the same rows as
    nested float lists. `bounds` gives, per state position, the interval a
    change time is drawn from as a float pair (lo, hi), or None for a state
    without one; such a state happens at `still` (0.0 for an instantaneous
    node, None for a no-change state). `still` is None exactly for a
    temporal node, the only kind that can take a second double. `lo` and
    `span` hold each interval's lo and hi - lo by state position (0.0 for a
    state without one).
    """

    node: str
    axis: int
    parents: tuple[int, ...]
    rows: list
    states: tuple[NodeState, ...]
    bounds: tuple[Optional[tuple[float, float]], ...]
    still: Optional[float]
    cdf: np.ndarray
    lo: np.ndarray
    span: np.ndarray


_sampling_tables: WeakKeyDictionary[CompiledNetwork, tuple[SamplingRow, ...]] = WeakKeyDictionary()


def sampling_table(net: CompiledNetwork) -> tuple[SamplingRow, ...]:
    """One `SamplingRow` per node of `net`, in `topo` order: its CPT factor, own
    axis last, each row made cumulative as `Generator.choice` makes it, and
    its intervals as the floats `Generator.uniform` reads. Built on the
    network's first sample and kept while the network lives."""
    table = _sampling_tables.get(net)
    if table is None:
        out = []
        for nid in net.topo:
            axis = net.axes[nid]
            node = net.spec.node(nid)
            states = net.states[nid]
            spans = [(float(iv.lo), float(iv.hi)) for iv in node.intervals]
            bounds = tuple(None if s.interval_index is None else spans[s.interval_index] for s in states)
            still = None if node.kind is NodeKind.TEMPORAL else 0.0
            f = net.factors[axis]
            parents = tuple(j for j in f.scope if j != axis)
            probs = np.ascontiguousarray(np.moveaxis(f.values, f.scope.index(axis), -1))
            cdf = (probs / probs.sum(axis=-1, keepdims=True)).cumsum(axis=-1)
            cdf = cdf / cdf[..., -1:]
            lo = np.array([b[0] if b else 0.0 for b in bounds])
            span = np.array([b[1] - b[0] if b else 0.0 for b in bounds])
            out.append(SamplingRow(nid, axis, parents, cdf.tolist(), states, bounds, still, cdf, lo, span))
        table = _sampling_tables[net] = tuple(out)
    return table


def sample_trajectory(net: CompiledNetwork, seed: int) -> Trajectory:
    """Ancestral sampling from `np.random.default_rng(seed)`, by the rule in
    this module's docstring, so deterministic in `seed`, a non-negative int
    or numpy integer (else `ValueError`).

    Instantaneous nodes happen at time 0. A temporal change gets a time
    drawn uniformly inside the sampled interval; the default state has no
    time at all.

    This is the one-trajectory reference that runs equal: one scalar pass,
    each state found by bisecting its CDF row.
    """
    _check_natural("seed", seed)
    table = sampling_table(net)
    u = iter(np.random.default_rng(seed).random(_draws(table)).tolist()).__next__
    pos = [0] * len(table)  # sampled state positions, by axis
    entries: list[Optional[TrajectoryEntry]] = [None] * len(pos)
    for nid, axis, parents, row, states, bounds, still, *_ in table:
        for j in parents:  # the CDF row under the parents' sampled states
            row = row[pos[j]]
        # the first entry above the double: what `Generator.choice` picks
        k = pos[axis] = bisect_right(row, u())
        iv = bounds[k]
        if iv is None:
            entries[axis] = TrajectoryEntry(nid, states[k], still)
        else:  # what `Generator.uniform(lo, hi)` makes of the double
            lo, hi = iv
            entries[axis] = TrajectoryEntry(nid, states[k], lo + (hi - lo) * u())
    return Trajectory(tuple(entries), seed)


def _draws(table: tuple[SamplingRow, ...]) -> int:
    """The most doubles a trajectory can take: one per node, one more per
    temporal node."""
    return len(table) + sum(r.still is None for r in table)


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
    """The first word of `SeedSequence([seed, trial])`. Trial `t` of a run
    seeded `seed` draws from `default_rng(trial_seed(seed, t))`; `evaluate`
    and `tnbn simulate` derive those generators in blocks, to equal this.
    Both arguments must be non-negative ints or numpy integers (else
    `ValueError`)."""
    _check_natural("seed", seed)
    _check_natural("trial", trial)
    return int(np.random.SeedSequence([seed, trial]).generate_state(1)[0])


# SeedSequence's hash constants and PCG64's multiplier, as (high, low) 64-bit
# limbs (numpy.random; NEP 19 keeps both streams stable)
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R, _SHIFT = np.uint32(0xCA01F9DD), np.uint32(0x4973F715), np.uint32(16)
_MULT_HI, _MULT_LO = np.uint64(0x2360ED051FC65DA4), np.uint64(0x4385DF649FCCF645)
_MULT_LO_1, _MULT_LO_0 = np.uint64(0x4385DF64), np.uint64(0x9FCCF645)  # its 32-bit halves
_U1, _U11, _U32, _U58, _U63, _U64 = (np.uint64(k) for k in (1, 11, 32, 58, 63, 64))
_LOW_32 = np.uint64(0xFFFFFFFF)
_BLOCK = 1024  # trials sampled at once; a power of two, so no block crosses k·2**32


def _words(n: int) -> list[int]:
    """`n` as SeedSequence reads an int: 32-bit words, low first; 0 is [0]."""
    return [n >> k & 0xFFFFFFFF for k in range(0, max(n.bit_length(), 1), 32)]


def _generate_state(entropy: list[np.ndarray], n_words: int) -> np.ndarray:
    """`SeedSequence(e).generate_state(n_words)` for each row `e` of the
    entropy columns (uint32 arrays that broadcast), one row per trial."""
    h, mult = _INIT_A, _MULT_A

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal h
        value = value ^ np.uint32(h)
        h = h * mult & 0xFFFFFFFF
        value = value * np.uint32(h)
        return value ^ value >> _SHIFT

    pool = [hashmix(entropy[i] if i < len(entropy) else np.zeros_like(entropy[0])) for i in range(4)]
    # each pool word into each other one, then each word past the pool into each
    for i, j in [(i, j) for i in range(max(4, len(entropy))) for j in range(4) if i != j]:
        r = pool[j] * _MIX_L - hashmix(pool[i] if i < 4 else entropy[i]) * _MIX_R
        pool[j] = r ^ r >> _SHIFT
    h, mult = _INIT_B, _MULT_B
    return np.stack([hashmix(pool[i % 4]) for i in range(n_words)], axis=1)


# A 128-bit PCG64 number (a state, an increment) is a pair of uint64 arrays
# (high, low); sums and products wrap mod 2**128 as uint64 wraps mod 2**64.

def _add(a: tuple, b: tuple) -> tuple[np.ndarray, np.ndarray]:
    lo = a[1] + b[1]
    return a[0] + b[0] + (lo < b[1]), lo


def _step(state: tuple, inc: tuple) -> tuple[np.ndarray, np.ndarray]:
    """PCG64's LCG step, `state * mult + inc`. The high half of the low
    limbs' product comes from their 32-bit halves."""
    hi, lo = state
    l0, l1 = lo & _LOW_32, lo >> _U32
    p00, p01, p10 = l0 * _MULT_LO_0, l0 * _MULT_LO_1, l1 * _MULT_LO_0
    mid = (p00 >> _U32) + (p01 & _LOW_32) + (p10 & _LOW_32)
    carry = l1 * _MULT_LO_1 + (p01 >> _U32) + (p10 >> _U32) + (mid >> _U32)
    return _add((carry + lo * _MULT_HI + hi * _MULT_LO, lo * _MULT_LO), inc)


def _trial_streams(seed: int, start: int, count: int) -> tuple[np.ndarray, tuple, tuple]:
    """For the trials `t` in `range(start, start + count)`, which must not
    cross a multiple of 2**32 (so every index has as many words): the
    `trial_seed(seed, t)` (uint32), and the state and increment of
    `PCG64(trial_seed(seed, t))` as (high, low) uint64 arrays."""
    _check_natural("seed", seed)
    low, high = start & 0xFFFFFFFF, start >> 32
    entropy = [np.full(1, w, np.uint32) for w in _words(int(seed))]
    entropy += [np.arange(low, low + count, dtype=np.uint32)]
    entropy += [np.full(1, w, np.uint32) for w in _words(high) if high]
    with np.errstate(over="ignore"):
        seeds = _generate_state(entropy, 1)[:, 0]
        w0, w1, w2, w3 = _generate_state([seeds], 8).astype("<u4").view("<u8").T
        # PCG64's set-seed: one LCG step from state 0, add the seed, one more step
        inc = (w2 << _U1 | w3 >> _U63, w3 << _U1 | _U1)
        state = _step(_add(inc, (w0, w1)), inc)
    return seeds, state, inc


def _doubles(state: tuple, inc: tuple, draws: int) -> np.ndarray:
    """`Generator(PCG64).random(draws)` from each stream (one row each):
    step the LCG, take the XSL-RR output x, and `(x >> 11) * 2**-53`."""
    out = np.empty((len(state[0]), draws))
    with np.errstate(over="ignore"):
        for d in range(draws):
            state = _step(state, inc)
            x = state[0] ^ state[1]
            turn = state[0] >> _U58
            out[:, d] = (x >> turn | x << (_U64 - turn & _U63)) >> _U11
    return out * 2.0**-53


def _sample(table: tuple[SamplingRow, ...], draws: int, seed: int, start: int, count: int) -> tuple[list, list, list]:
    """Trials `range(start, start + count)` of a run seeded `seed`, each
    drawn as `sample_trajectory(net, trial_seed(seed, t))` draws it: their
    trial seeds, and per trial the sampled state position and time of each
    node, by axis (a time is 0.0 where the state has none), as lists."""
    seeds, state, inc = _trial_streams(seed, start, count)
    u = _doubles(state, inc, draws)
    trial = np.arange(count)
    cursor = np.zeros(count, np.intp)  # each trial's next double
    pos = np.zeros((count, len(table)), np.intp)
    times = np.zeros((count, len(table)))
    for r in table:
        # the count of CDF entries <= u: `bisect_right`, as a row never decreases
        below = r.cdf[tuple(pos[:, j] for j in r.parents)] <= u[trial, cursor, None]
        k = pos[:, r.axis] = below.sum(axis=1)
        cursor += 1
        if r.still is None:  # a timed state (span > 0) takes the next double
            span = r.span[k]
            times[:, r.axis] = r.lo[k] + span * u[trial, cursor]
            cursor += span > 0.0
    return seeds.tolist(), pos.tolist(), times.tolist()


def _blocks(net: CompiledNetwork, seed: int, trials: int) -> Iterator[tuple[list, list, list]]:
    """`_sample`'s blocks of trials `range(trials)`, lazily. The trial count
    (an int or numpy integer, at least 1) and the seed are checked at the
    call, before any trial is sampled (else `ValueError`)."""
    if isinstance(trials, bool) or not isinstance(trials, (int, np.integer)):
        raise ValueError(f"trials must be an integer, got {trials!r}")
    if trials < 1:
        raise ValueError("trials must be at least 1")
    _check_natural("seed", seed)

    def run() -> Iterator[tuple[list, list, list]]:
        table = sampling_table(net)
        draws = _draws(table)
        for start in range(0, trials, _BLOCK):
            yield _sample(table, draws, seed, start, min(_BLOCK, trials - start))

    return run()


def _trajectories(net: CompiledNetwork, seed: int, trials: int) -> Iterator[Trajectory]:
    """`sample_trajectory(net, trial_seed(seed, t))` for `t` in
    `range(trials)`, lazily, read off `_blocks` (so checked as it checks)."""
    blocks = _blocks(net, seed, trials)

    def run() -> Iterator[Trajectory]:
        rows = sorted(sampling_table(net), key=lambda r: r.axis)
        for seeds, positions, times in blocks:
            for s, pos, time in zip(seeds, positions, times):
                entries = (
                    TrajectoryEntry(r.node, r.states[k], r.still if r.bounds[k] is None else t)
                    for r, k, t in zip(rows, pos, time)
                )
                yield Trajectory(tuple(entries), s)

    return run()


class _Reveal(NamedTuple):
    """What the events of one revealed node need from the network: its
    axis, its default value and the time a no-change assertion is stamped
    with (the end of its covered range, or 0.0 without one)."""

    node: str
    axis: int
    default: Optional[str]
    end: float


def _reveals(net: CompiledNetwork, revealed: tuple[str, ...]) -> list[_Reveal]:
    """The `_Reveal` of each revealed node, read off the spec; an unknown
    node raises `UnknownNodeError`."""
    out = []
    for nid in revealed:
        node = net.spec.node(nid)
        end = node.intervals[-1].hi if node.intervals else 0.0
        out.append(_Reveal(nid, net.axes[nid], node.default_value, end))
    return out


def _events(reveals: list[_Reveal], sampled: list[tuple[NodeState, Optional[float]]]) -> list[ObservedEvent]:
    """The events of the revealed nodes, given each one's sampled state and
    time: changes first, by time, then no-change assertions; ties go by
    axis."""
    events = []
    for (nid, axis, default, end), (state, time) in zip(reveals, sampled):
        value = state.value
        asserted = default is not None and value == default
        tc = end if asserted else time if time is not None else 0.0
        events.append((asserted, tc, axis, ObservedEvent(nid, value, tc)))
    events.sort(key=lambda item: item[:3])
    return [e for *_, e in events]


def reveal_events(net: CompiledNetwork, trajectory: Trajectory, revealed: tuple[str, ...]) -> list[ObservedEvent]:
    """Turn the revealed part of a trajectory into a timed event list.

    Change events come first, ordered by time; no-change assertions follow,
    stamped at the end of the node's covered range (a claim that nothing
    happened is only checkable once the whole range has elapsed). Entries
    are looked up by node, so the trajectory's order does not matter; a
    revealed node it lacks raises KeyError.
    """
    reveals = _reveals(net, revealed)
    return _events(reveals, [trajectory.entry(nid)[1:] for nid in revealed])


def _impossible(condition: str, seed: int, session: Session) -> ZeroProbabilityEvidenceError:
    """The error for a trial whose replayed events have probability zero:
    anchoring can resolve a sampled world's events to states the model rules
    out together. It names the condition, the trial seed and each event."""
    parts = []
    for e in session.events:
        if e.node in session.resolved:
            label = session.net.spec.node(e.node).state_label(session.resolved[e.node].state)
            fate = f"resolved to {label}"
        else:
            fate = "held" if e in session.pending else "inconsistent"
        parts.append(f"{e.node}={e.value} at {format_time(e.tc)} {fate}")
    return ZeroProbabilityEvidenceError(
        f"{condition}: trial seed {seed} replays events of probability zero under the "
        f"model: {'; '.join(parts)}"
    )


def evaluate(net: CompiledNetwork, condition: str, trials: int, seed: int = 0) -> EvalReport:
    """Score forecasts of the hidden nodes when one tier is revealed.

    Each trial samples a trajectory, feeds the revealed tier into a session
    as timed events, and scores the session's forecasts for every hidden
    node against the sampled truth. Per-trial scores are the mean over
    hidden nodes; the report aggregates over trials (population std).
    Trials that reveal the same sampled states and times share one replay,
    so a session is replayed once per distinct revealed sample; trials that
    end with the same resolved states and held reports share one forecast,
    so `predict()` runs once per signature. Both memos live for this call.
    A trial whose replayed events have probability zero raises
    ZeroProbabilityEvidenceError naming its seed and events.
    """
    blocks = _blocks(net, seed, trials)  # checks trials and seed
    condition, revealed = _tier_for(condition, node_tiers(net.spec))
    if not revealed:
        raise EmptyTierError(
            f"this network has no {condition.removesuffix('-observed')} tier to reveal"
        )
    reveals = _reveals(net, revealed)
    revealed_states = [(r.axis, net.states[r.node]) for r in reveals]
    hidden = tuple(n for n in net.node_ids if n not in revealed)
    hidden_axes = [net.axes[n] for n in hidden]
    if not hidden:
        raise EmptyTierError(
            f"revealing the {condition.removesuffix('-observed')} tier leaves "
            "no hidden node to score"
        )
    # per trial, the (accuracy, rbs) pair of each hidden node
    pairs: list[list[tuple[float, float]]] = []
    # The resolved states and the held reports fix the evidence, the scenarios
    # and the targets, hence every forecast: score each signature once, as
    # one (accuracy, rbs) pair per hidden node and state position.
    scored: dict[tuple, list[list[tuple[float, float]]]] = {}
    # The revealed nodes' sampled state positions and times fix the events,
    # hence the session: replay each distinct revealed sample once.
    replayed: dict[tuple, list[list[tuple[float, float]]]] = {}
    for seeds, positions, times in blocks:
        for seed_t, pos, time in zip(seeds, positions, times):
            sample = tuple((pos[a], time[a]) for a, _ in revealed_states)
            rows = replayed.get(sample)
            if rows is None:
                session = open_session(net)
                for event in _events(reveals, [(states[pos[a]], time[a]) for a, states in revealed_states]):
                    session = session.observe(event)
                key = (
                    frozenset(session.resolved_evidence.items()),
                    tuple((e.node, e.value) for e in session.pending),
                )
                if key not in scored:
                    try:
                        forecasts = session.predict().forecasts
                    except ZeroProbabilityEvidenceError:
                        raise _impossible(condition, seed_t, session) from None
                    scored[key] = [  # a forecast lists the node's states in position order
                        [(accuracy_score(d, s), rbs_score(d, s)) for s in d.states]
                        for d in (forecasts[n].distribution for n in hidden)
                    ]
                rows = replayed[sample] = scored[key]
            pairs.append([scores[pos[a]] for a, scores in zip(hidden_axes, rows)])
    # one row of hidden-node scores per trial and metric, each averaged as
    # np.mean averages a list
    means = np.ascontiguousarray(np.transpose(pairs, (0, 2, 1))).mean(axis=-1)
    accuracy, rbs = means.T.tolist()
    return EvalReport(condition, int(trials), revealed, tuple(accuracy), tuple(rbs))
