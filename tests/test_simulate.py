import gc
import hashlib
import itertools
import json
import re
import weakref
from importlib import resources

import numpy as np
import pytest

from tnbn import (
    ConditionalTable,
    Distribution,
    EmptyTierError,
    EvalReport,
    NetworkSpec,
    NodeKind,
    NodeSpec,
    NodeState,
    ObservedEvent,
    ResolvedObservation,
    TimeInterval,
    Trajectory,
    TrajectoryEntry,
    UnknownNodeError,
    UnknownStateError,
    ZeroProbabilityEvidenceError,
    accuracy_score,
    compile_network,
    evaluate,
    joint_enumerate,
    node_tiers,
    posterior,
    rbs_score,
    sample_trajectory,
    state_enumeration,
    trial_seed,
)
import tnbn.cli
import tnbn.simulate
from tnbn.session import Session, open_session
from tnbn.simulate import _doubles, _trajectories, _trial_streams, reveal_events, sampling_table

from netgen import random_network


# --- sampling ---------------------------------------------------------------

def test_sampling_is_deterministic_in_the_seed(accident_net):
    assert sample_trajectory(accident_net, 7) == sample_trajectory(accident_net, 7)
    assert sample_trajectory(accident_net, 7) != sample_trajectory(accident_net, 8)


def test_trajectory_shape(accident_net):
    t = sample_trajectory(accident_net, 123)
    assert [e.node for e in t.entries] == ["C", "HI", "IB", "PD", "VS"]
    for entry in t.entries:
        node = accident_net.spec.node(entry.node)
        assert entry.state in accident_net.states[entry.node]
        if node.kind is NodeKind.INSTANTANEOUS:
            assert entry.time == 0.0
        elif entry.state.interval_index is None:
            assert entry.time is None
        else:
            interval = node.intervals[entry.state.interval_index]
            assert interval.lo <= entry.time <= interval.hi


def _reference_trajectory(net, seed):
    """Ancestral sampling as it was written against `Generator.choice`."""
    rng = np.random.default_rng(seed)
    assigned, times = {}, {}
    for nid in net.topo:
        node = net.spec.node(nid)
        table = net.spec.tables[nid]
        probs = np.asarray(table.rows[tuple(assigned[p] for p in table.parent_order)], dtype=float)
        states = net.states[nid]
        picked = states[int(rng.choice(len(states), p=probs / probs.sum()))]
        assigned[nid] = picked
        if node.kind is NodeKind.INSTANTANEOUS:
            times[nid] = 0.0
        elif picked.interval_index is None:
            times[nid] = None
        else:
            iv = node.intervals[picked.interval_index]
            times[nid] = float(rng.uniform(iv.lo, iv.hi))
    return [(nid, assigned[nid], times[nid]) for nid in net.node_ids]


def _wide_network():
    """A child declared before its two parents, with 10 states (a row longer
    than numpy's 8-element pairwise-sum block), and 9 leaves under one root,
    so revealing the roots hides 10 nodes."""
    rng = np.random.default_rng(47)
    k = NodeSpec(
        "K", NodeKind.TEMPORAL, ("a", "b", "c"), default_value="none",
        intervals=(TimeInterval(0, 4), TimeInterval(4, 9), TimeInterval(9, 20)),
    )
    r = NodeSpec("R", NodeKind.INSTANTANEOUS, ("r0", "r1", "r2"))
    s = NodeSpec("S", NodeKind.INSTANTANEOUS, ("s0", "s1"))
    leaves = [NodeSpec(f"L{i}", NodeKind.INSTANTANEOUS, ("u", "v", "w")) for i in range(9)]
    nodes = (k, r, s, *leaves)

    def table(node, parents):
        keys = itertools.product(*(state_enumeration(p) for p in parents))
        width = len(state_enumeration(node))
        rows = {key: tuple(rng.dirichlet(np.ones(width))) for key in keys}
        return ConditionalTable(node.id, tuple(p.id for p in parents), rows)

    tables = {"K": table(k, (s, r)), "R": table(r, ()), "S": table(s, ())}
    tables.update({n.id: table(n, (s,)) for n in leaves})
    edges = (("S", "K"), ("R", "K"), *(("S", n.id) for n in leaves))
    return NetworkSpec("wide", "minute", nodes, edges, tables)


def _sampling_nets(accident_net):
    rng = np.random.default_rng(31)
    return [accident_net, compile_network(_wide_network())] + [
        compile_network(random_network(rng, max_nodes=8)) for _ in range(4)
    ]


def test_sampler_draws_the_stream_choice_draws(accident_net):
    for net in _sampling_nets(accident_net):
        for t in range(500):
            seed = trial_seed(19, t)
            got = sample_trajectory(net, seed)
            assert [(e.node, e.state, e.time) for e in got.entries] == _reference_trajectory(net, seed)


def _choice_rows(net, nid):
    """The node's CDF rows, nested by the parents' state positions in axis
    order, each built from its CPT row as `Generator.choice` builds it."""
    parents = sorted(net.spec.parents(nid), key=net.axes.get)
    table = net.spec.tables[nid]
    rows = np.full([len(net.states[p]) for p in parents] + [len(net.states[nid])], np.nan)
    for key, row in table.rows.items():
        probs = np.asarray(row, dtype=float)
        want = (probs / probs.sum()).cumsum()
        want /= want[-1]
        where = dict(zip(table.parent_order, key))
        rows[tuple(net.state_index(p, where[p]) for p in parents)] = want
    return rows.tolist()


def test_cumulative_tables_are_built_on_first_sample(accident_spec):
    for spec in (accident_spec, _wide_network()):
        net = compile_network(spec)
        assert net not in tnbn.simulate._sampling_tables
        sample_trajectory(net, 0)
        table = sampling_table(net)
        assert sorted(r.axis for r in table) == list(range(len(net.node_ids)))
        for r in table:
            rows = np.array(r.rows)
            # indexed by the parents' state positions in axis order
            parents = sorted(net.spec.parents(r.node), key=net.axes.get)
            assert r.parents == tuple(net.axes[p] for p in parents)
            assert rows.shape == tuple(len(net.states[p]) for p in parents + [r.node])
            assert np.all(rows[..., -1] == 1.0)
            assert np.all(np.diff(rows, axis=-1) >= 0.0)
            # each row, bit for bit, as `Generator.choice` builds it from the CPT row
            assert r.rows == _choice_rows(net, r.node)


def test_the_sampling_table_is_built_once_and_sampling_reads_no_spec(accident_spec, monkeypatch):
    net = compile_network(accident_spec)
    assert net not in tnbn.simulate._sampling_tables
    sample_trajectory(net, trial_seed(3, 0))
    table = tnbn.simulate._sampling_tables[net]
    assert [r.node for r in table] == list(net.topo)
    assert [r.rows for r in table] == [_choice_rows(net, r.node) for r in table]
    calls = []
    original = NetworkSpec.node

    def counted(self, node_id):
        calls.append(node_id)
        return original(self, node_id)

    monkeypatch.setattr(NetworkSpec, "node", counted)
    for t in range(1, 50):
        sample_trajectory(net, trial_seed(3, t))
    monkeypatch.undo()
    assert calls == []
    assert sampling_table(net) is table
    kept = len(tnbn.simulate._sampling_tables)
    del net
    gc.collect()
    assert len(tnbn.simulate._sampling_tables) == kept - 1  # kept while the network lives


def test_records_are_plain_tuples():
    state = NodeState("dilated", 1)
    for record, plain in (
        (TrajectoryEntry("PD", state, 4.0), ("PD", state, 4.0)),
        (ObservedEvent("PD", "dilated", 4.0), ("PD", "dilated", 4.0)),
        (ResolvedObservation(state, 4.0, (3.0, 9.0)), (state, 4.0, (3.0, 9.0))),
    ):
        assert record == plain
        assert hash(record) == hash(plain)
    assert ResolvedObservation(state, 4.0).window is None


def test_a_negative_seed_is_refused_before_any_trial(accident_net, monkeypatch):
    with pytest.raises(ValueError, match=r"^seed must be a non-negative integer, got -1$"):
        trial_seed(-1, 0)
    with pytest.raises(ValueError, match=r"^seed must be a non-negative integer, got -1$"):
        sample_trajectory(accident_net, -1)
    monkeypatch.setattr(tnbn.simulate, "_sample", pytest.fail)
    with pytest.raises(ValueError, match=r"^seed must be a non-negative integer, got -3$"):
        evaluate(accident_net, "leaf", 2, seed=-3)


def _pcg64_states(state, inc):
    """The `PCG64.state` dicts of 128-bit states and increments given as
    (high, low) uint64 arrays."""
    for hi, lo, inc_hi, inc_lo in zip(*(w.tolist() for w in (*state, *inc))):
        yield {
            "bit_generator": "PCG64",
            "state": {"state": hi << 64 | lo, "inc": inc_hi << 64 | inc_lo},
            "has_uint32": 0,
            "uinteger": 0,
        }


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 3, 2**130, np.uint64(2**64 - 1)])
def test_batch_streams_equal_the_reference(seed):
    # 2**64 + 3 with trial 2**32 has 5 words, 2**130 has 6: both take
    # SeedSequence's mixing of the words past its 4-word pool
    for start in (0, 2**31, 2**32 - 3, 2**32):
        seeds, limbs, inc = _trial_streams(seed, start, 3)
        for t, s, state in zip(itertools.count(start), seeds.tolist(), _pcg64_states(limbs, inc)):
            assert s == trial_seed(seed, t)
            assert state == np.random.PCG64(s).state


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 3, 2**130])
def test_block_doubles_equal_the_generator_draws(seed):
    draws = 9
    block = tnbn.simulate._BLOCK
    for start in (0, 2**31, 2**32 - block, 2**32):
        seeds, state, inc = _trial_streams(seed, start, block)
        rows = _doubles(state, inc, draws).tolist()
        for t, row in enumerate(rows, start):
            rng = np.random.Generator(np.random.PCG64(trial_seed(seed, t)))
            assert row == rng.random(draws).tolist()


def _with_zeros(spec, rng):
    """`spec` with one probability of most CPT rows set to 0 (the row
    renormalized), so some CDF rows repeat a value."""
    tables = {}
    for nid, table in spec.tables.items():
        rows = {}
        for key, row in table.rows.items():
            row = np.array(row)
            if len(row) > 2 and rng.random() < 0.8:
                row[int(rng.integers(len(row) - 1))] = 0.0
            rows[key] = tuple(row / row.sum())
        tables[nid] = ConditionalTable(nid, table.parent_order, rows)
    return NetworkSpec(spec.name, spec.time_unit, spec.nodes, spec.edges, tables)


def test_runs_sample_the_reference_trajectories(accident_net):
    rng = np.random.default_rng(23)
    nets = [accident_net, compile_network(_wide_network())]
    nets += [compile_network(_with_zeros(random_network(rng, n_nodes=8, edge_share=0.7), rng)) for _ in range(4)]
    n = tnbn.simulate._BLOCK + 40  # two blocks
    mixed = 0
    for net in nets:
        want = [sample_trajectory(net, trial_seed(5, t)) for t in range(n)]
        assert list(_trajectories(net, 5, n)) == want
        first = [e for t in want[: tnbn.simulate._BLOCK] for e in t.entries]
        still = {e.node for e in first if e.time is None}
        mixed += bool(still & {e.node for e in first if e.time not in (None, 0.0)})
    # what the networks cover: a node with three parents, a zero-probability
    # state inside a CDF row, and a node both timed and unchanged in one block
    rows = [r for net in nets for r in sampling_table(net)]
    assert any(len(r.parents) >= 3 for r in rows)
    assert any(np.any(np.diff(r.cdf[..., :-1], axis=-1) == 0.0) for r in rows)
    assert mixed >= 3


def test_a_run_keeps_no_sampling_table_after_its_network(monkeypatch, capsys):
    compiled = []

    def recorded(spec):
        net = compile_network(spec)
        compiled.append(weakref.ref(net))
        return net

    monkeypatch.setattr(tnbn.cli, "compile_network", recorded)
    gc.collect()
    kept = len(tnbn.simulate._sampling_tables)
    model = str(resources.files("tnbn") / "data" / "accident.json")
    assert tnbn.cli.main(["evaluate", model, "-c", "leaf", "-n", "300"]) == 0
    capsys.readouterr()
    gc.collect()
    assert len(compiled) == 1 and compiled[0]() is None
    assert len(tnbn.simulate._sampling_tables) == kept


def test_streams_keep_their_fixed_values(capsys):
    # computed with SeedSequence before the batch derivation existed
    for seed, t, want in (
        (0, 0, 2968811710),
        (9, 1999, 2190091226),
        (2**32, 2**31, 515127821),
        (2**64 + 3, 2**32, 1847640136),
        (2**130, 7, 1704329626),
    ):
        assert trial_seed(seed, t) == want
        assert _trial_streams(seed, t, 1)[0][0] == want
    model = str(resources.files("tnbn") / "data" / "accident.json")
    assert tnbn.cli.main(["simulate", model, "-n", "2000", "-s", "9"]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == "ff078eb8fef63d354eadca4ddf5f1e38bace5e5baa4d511889e3463dc63da4fc"


def test_trajectories_and_reports_keep_their_full_precision_values(accident_net):
    # computed before each trajectory took its doubles in one call; every
    # time at full precision, unlike the 3 decimals `tnbn simulate` prints
    digest = hashlib.sha256()
    for net in (accident_net, compile_network(_wide_network())):
        for trajectory in _trajectories(net, 9, 2000):
            for e in trajectory.entries:
                digest.update(repr((e.node, e.state, e.time)).encode())
    assert digest.hexdigest() == "ba40573bc892dc6a71a55514fad1f38e1b34e30c54611ff19749f3969c0c689a"
    digest = hashlib.sha256()
    for condition in ("root", "intermediate", "leaf"):
        for seed in (0, 1, 41):
            r = evaluate(accident_net, condition, 1000, seed)
            digest.update(repr((r.condition, r.trials, r.revealed, r.accuracy, r.rbs)).encode())
    assert digest.hexdigest() == "e6c9395cd62de0ec7f351a9942440a92152d2c1b83b4b61976c136451de5c955"


@pytest.mark.parametrize("seed", ["7", "0x10", None, True, 7.0, -2, np.int64(-2)])
def test_a_seed_that_is_not_a_non_negative_integer_is_refused(accident_net, monkeypatch, seed):
    monkeypatch.setattr(tnbn.simulate, "_sample", pytest.fail)
    message = rf"^seed must be a non-negative integer, got {re.escape(repr(seed))}$"
    for call in (
        lambda: trial_seed(seed, 0),
        lambda: sample_trajectory(accident_net, seed),
        lambda: evaluate(accident_net, "leaf", 2, seed=seed),
        lambda: _trial_streams(seed, 0, 2),
        lambda: next(_trajectories(accident_net, seed, 2)),
        # refused at the call, not at the first trial
        lambda: _trajectories(accident_net, seed, 2),
    ):
        with pytest.raises(ValueError, match=message):
            call()


@pytest.mark.parametrize("trial", ["3", "0x10", None, True, 3.0, -1, np.int64(-1)])
def test_a_trial_that_is_not_a_non_negative_integer_is_refused(trial):
    # SeedSequence would read "3" as 3 and True as 1
    message = rf"^trial must be a non-negative integer, got {re.escape(repr(trial))}$"
    with pytest.raises(ValueError, match=message):
        trial_seed(0, trial)


def test_trajectory_lookup_by_node(accident_net):
    t = sample_trajectory(accident_net, 4)
    for e in t.entries:
        assert t.entry(e.node) is e
        assert t.state_of(e.node) == e.state
    with pytest.raises(KeyError):
        t.entry("nope")
    with pytest.raises(KeyError):
        t.state_of("nope")


def test_sampled_times_cover_their_interval(accident_net):
    times = []
    for seed in range(300):
        t = sample_trajectory(accident_net, seed)
        entry = t.entry("VS")
        if entry.state == NodeState("unstable", 1):
            times.append(entry.time)
    assert times
    assert all(10 <= x <= 30 for x in times)
    assert max(times) - min(times) > 10  # spread, not a constant


def test_empirical_marginal_tracks_the_exact_one(accident_spec, accident_net):
    n = 2000
    counts = np.zeros(len(accident_net.states["C"]))
    for i in range(n):
        t = sample_trajectory(accident_net, trial_seed(42, i))
        counts[accident_net.state_index("C", t.state_of("C"))] += 1
    exact = joint_enumerate(accident_spec).distribution("C").probs
    se = np.sqrt(exact * (1 - exact) / n)
    assert np.all(np.abs(counts / n - exact) <= 3 * se)


# --- scores -------------------------------------------------------------------

def _dist(node, pairs):
    states = tuple(s for s, _ in pairs)
    return Distribution(node, states, np.array([p for _, p in pairs]))


def test_accuracy_is_all_or_nothing():
    d = _dist("X", [(NodeState("a"), 0.6), (NodeState("b"), 0.4)])
    assert accuracy_score(d, NodeState("a")) == 100.0
    assert accuracy_score(d, NodeState("b")) == 0.0


def test_accuracy_ties_go_to_the_earlier_state():
    d = _dist("X", [(NodeState("a"), 0.5), (NodeState("b"), 0.5)])
    assert accuracy_score(d, NodeState("a")) == 100.0
    assert accuracy_score(d, NodeState("b")) == 0.0


def test_rbs_extremes():
    sure = _dist("X", [(NodeState("a"), 1.0), (NodeState("b"), 0.0)])
    assert rbs_score(sure, NodeState("a")) == 100.0
    assert rbs_score(sure, NodeState("b")) == 0.0


def test_rbs_of_a_coin_flip_is_75():
    d = _dist("X", [(NodeState("a"), 0.5), (NodeState("b"), 0.5)])
    assert rbs_score(d, NodeState("a")) == pytest.approx(75.0)
    assert rbs_score(d, NodeState("b")) == pytest.approx(75.0)


def test_rbs_rewards_honesty_on_average():
    # the expected score under p is maximized by reporting p itself
    p = np.array([0.368, 0.392, 0.24])
    states = tuple(NodeState(v) for v in ("severe", "moderate", "mild"))
    honest = Distribution("C", states, p)
    hedged = Distribution("C", states, np.array([1 / 3, 1 / 3, 1 / 3]))
    overconfident = Distribution("C", states, np.array([0.0, 1.0, 0.0]))
    def expected(d):
        return sum(pi * rbs_score(d, s) for pi, s in zip(p, states))
    assert expected(honest) > expected(hedged)
    assert expected(honest) > expected(overconfident)


def test_scores_name_a_foreign_state_as_they_name_the_legal_ones():
    d = _dist("X", [(NodeState("a", 0), 0.5), (NodeState("b"), 0.5)])
    for score in (accuracy_score, rbs_score):
        with pytest.raises(UnknownStateError) as info:
            score(d, NodeState("a", 1))
        assert str(info.value) == "unknown state 'a@interval#1' for node 'X'; legal states: a@interval#0, b"


def test_scores_reject_foreign_states():
    d = _dist("X", [(NodeState("a"), 0.5), (NodeState("b"), 0.5)])
    with pytest.raises(UnknownStateError):
        accuracy_score(d, NodeState("c"))
    with pytest.raises(UnknownStateError):
        rbs_score(d, NodeState("c"))


# --- tiers and the harness -----------------------------------------------------

def test_fixture_tiers(accident_spec):
    tiers = node_tiers(accident_spec)
    assert tiers.roots == ("C",)
    assert tiers.intermediates == ("HI", "IB")
    assert tiers.leaves == ("PD", "VS")


def test_reveal_orders_changes_before_assertions(accident_net):
    trajectory = Trajectory(
        entries=(
            TrajectoryEntry("C", NodeState("severe"), 0.0),
            TrajectoryEntry("HI", NodeState("true"), 0.0),
            TrajectoryEntry("IB", NodeState("none"), 0.0),
            TrajectoryEntry("PD", NodeState("dilated", 1), 4.0),
            TrajectoryEntry("VS", NodeState("normal"), None),
        ),
        seed=0,
    )
    events = reveal_events(accident_net, trajectory, ("PD", "VS"))
    assert [(e.node, e.value, e.tc) for e in events] == [
        ("PD", "dilated", 4.0),
        ("VS", "normal", 60),  # asserted once the whole range has elapsed
    ]
    events = reveal_events(accident_net, trajectory, ("C", "PD"))
    assert [e.node for e in events] == ["C", "PD"]
    # entries in another order than the axes are looked up by node
    shuffled = Trajectory(trajectory.entries[::-1], seed=0)
    for revealed in (("PD", "VS"), ("C", "PD"), ("HI", "IB")):
        assert reveal_events(accident_net, shuffled, revealed) == reveal_events(
            accident_net, trajectory, revealed
        )
    short = Trajectory(trajectory.entries[:2], seed=0)
    with pytest.raises(KeyError):
        reveal_events(accident_net, short, ("PD",))
    with pytest.raises(UnknownNodeError, match="no node 'XX'"):
        reveal_events(accident_net, trajectory, ("PD", "XX"))


def test_evaluate_single_trial_has_zero_spread(accident_net):
    report = evaluate(accident_net, "root", trials=1, seed=3)
    assert report.trials == 1
    assert report.accuracy_std == 0.0
    assert report.rbs_std == 0.0
    assert report.accuracy_mean == report.accuracy[0]


def test_evaluate_is_deterministic(accident_net):
    a = evaluate(accident_net, "leaf-observed", trials=25, seed=11)
    b = evaluate(accident_net, "leaf-observed", trials=25, seed=11)
    assert a == b


def test_evaluate_condition_spellings(accident_net):
    short = evaluate(accident_net, "intermediate", trials=5, seed=1)
    long = evaluate(accident_net, "intermediate-observed", trials=5, seed=1)
    assert short == long
    assert short.condition == "intermediate-observed"
    assert short.revealed == ("HI", "IB")


def test_evaluate_rejects_unknown_conditions(accident_net):
    with pytest.raises(ValueError):
        evaluate(accident_net, "sideways", trials=5)
    with pytest.raises(ValueError):
        evaluate(accident_net, "root", trials=0)


def test_evaluate_refuses_a_trial_count_that_is_not_an_integer(accident_net, monkeypatch):
    assert evaluate(accident_net, "leaf", np.int64(2)).trials == 2
    monkeypatch.setattr(tnbn.simulate, "_sample", pytest.fail)
    for trials, shown in ((True, "True"), (2.0, "2.0")):
        with pytest.raises(ValueError, match=rf"^trials must be an integer, got {shown}$"):
            evaluate(accident_net, "leaf", trials)
    with pytest.raises(ValueError, match=r"^trials must be at least 1$"):
        evaluate(accident_net, "leaf", np.int64(0))
    for trials in (0, -3):
        with pytest.raises(ValueError, match=r"^trials must be at least 1$"):
            _trajectories(accident_net, 0, trials)


def test_evaluate_scores_stay_in_range(accident_net):
    report = evaluate(accident_net, "root", trials=30, seed=5)
    assert all(0.0 <= x <= 100.0 for x in report.accuracy)
    assert all(0.0 <= x <= 100.0 for x in report.rbs)


def test_evaluate_empty_tier():
    a = NodeSpec("A", NodeKind.INSTANTANEOUS, ("y", "n"))
    b = NodeSpec("B", NodeKind.INSTANTANEOUS, ("y", "n"))
    spec = NetworkSpec(
        "chain",
        "hour",
        (a, b),
        (("A", "B"),),
        {
            "A": ConditionalTable("A", (), {(): (0.4, 0.6)}),
            "B": ConditionalTable(
                "B",
                ("A",),
                {(NodeState("y"),): (0.9, 0.1), (NodeState("n"),): (0.2, 0.8)},
            ),
        },
    )
    net = compile_network(spec)
    with pytest.raises(EmptyTierError):
        evaluate(net, "intermediate", trials=5)
    # roots and leaves still work on a two-node chain
    assert evaluate(net, "root", trials=5, seed=1).revealed == ("A",)
    assert evaluate(net, "leaf", trials=5, seed=1).revealed == ("B",)
    # a lone node is its own tier, and revealing it leaves nothing to score
    alone = NetworkSpec("alone", "hour", (a,), (), {"A": spec.tables["A"]})
    with pytest.raises(EmptyTierError) as info:
        evaluate(compile_network(alone), "root", trials=5)
    assert str(info.value) == "revealing the root tier leaves no hidden node to score"


@pytest.mark.parametrize("tier", ["roots", "intermediates"])
def test_a_revealed_instantaneous_tier_resolves_to_the_sampled_states(accident_net, tier):
    # as under root-observed and intermediate-observed
    revealed = getattr(node_tiers(accident_net.spec), tier)
    for t in range(1000):
        trajectory = sample_trajectory(accident_net, trial_seed(0, t))
        session = open_session(accident_net)
        for event in reveal_events(accident_net, trajectory, revealed):
            session = session.observe(event)
        assert not session.pending and not session.inconsistent
        assert session.resolved_evidence == {n: trajectory.state_of(n) for n in revealed}


def test_evaluate_report_formats(accident_net):
    report = evaluate(accident_net, "root", trials=10, seed=9)
    table = report.format_table()
    assert "root-observed" in table
    assert "Accuracy" in table and "RBS" in table
    data = report.to_json_dict()
    assert data["condition"] == "root-observed"
    assert data["trials"] == 10
    assert set(data["accuracy"]) == {"mean", "std"}


def test_evaluate_with_instantaneous_evidence_matches_direct_scoring(accident_net):
    # root-observed reveals only C at time 0; the session then holds exact
    # evidence, so the harness must score plain posteriors given C
    report = evaluate(accident_net, "root", trials=20, seed=13)
    hidden = [n for n in accident_net.node_ids if n != "C"]
    for t in range(20):
        trajectory = sample_trajectory(accident_net, trial_seed(13, t))
        evidence = {"C": trajectory.state_of("C")}
        rbs_direct = np.mean(
            [
                rbs_score(posterior(accident_net, n, evidence), trajectory.state_of(n))
                for n in hidden
            ]
        )
        assert report.rbs[t] == pytest.approx(float(rbs_direct), abs=1e-12)


def test_evaluate_runs_on_random_networks():
    rng = np.random.default_rng(77)
    for _ in range(5):
        spec = random_network(rng, max_nodes=6)
        net = compile_network(spec)
        tiers = node_tiers(spec)
        for condition, tier in (("root", tiers.roots), ("leaf", tiers.leaves)):
            if not tier or len(tier) == len(spec.nodes):
                continue
            report = evaluate(net, condition, trials=10, seed=3)
            assert all(0.0 <= x <= 100.0 for x in report.accuracy)
            assert all(0.0 <= x <= 100.0 for x in report.rbs)


# --- one forecast per revealed signature -----------------------------------------

def _replayed(net, revealed, seed, t):
    trajectory = sample_trajectory(net, trial_seed(seed, t))
    session = open_session(net)
    for event in reveal_events(net, trajectory, revealed):
        session = session.observe(event)
    return trajectory, session


def _signature(session):
    resolved = frozenset((nid, r.state) for nid, r in session.resolved.items())
    return resolved, tuple((e.node, e.value) for e in session.pending)


def _reference_evaluate(net, condition, revealed, trials, seed):
    """Every trial forecast and scored on its own, without sharing."""
    hidden = [n for n in net.node_ids if n not in revealed]
    accuracy, rbs = [], []
    for t in range(trials):
        trajectory, session = _replayed(net, revealed, seed, t)
        forecasts = session.predict().forecasts
        accuracy.append(float(np.mean([
            accuracy_score(forecasts[n].distribution, trajectory.state_of(n)) for n in hidden
        ])))
        rbs.append(float(np.mean([
            rbs_score(forecasts[n].distribution, trajectory.state_of(n)) for n in hidden
        ])))
    return EvalReport(f"{condition}-observed", trials, revealed, tuple(accuracy), tuple(rbs))


def test_evaluate_predicts_once_per_revealed_signature(accident_net, monkeypatch):
    calls = []
    original = Session.predict

    def counted(self):
        calls.append(_signature(self))
        return original(self)

    monkeypatch.setattr(Session, "predict", counted)
    report = evaluate(accident_net, "leaf-observed", trials=1000, seed=0)
    monkeypatch.undo()
    signatures = {
        _signature(_replayed(accident_net, report.revealed, 0, t)[1]) for t in range(1000)
    }
    assert len(calls) == len(set(calls)) == len(signatures)
    assert set(calls) == signatures
    # leaf reports open with a temporal change, so some trials stay pending
    assert any(pending for _, pending in signatures)


def test_evaluate_equals_forecasting_every_trial(accident_net):
    checked = 0
    for net in _sampling_nets(accident_net):
        tiers = node_tiers(net.spec)
        for condition, tier in (
            ("root", tiers.roots),
            ("intermediate", tiers.intermediates),
            ("leaf", tiers.leaves),
        ):
            if not tier or len(tier) == len(net.node_ids):
                continue
            want = _reference_evaluate(net, condition, tier, 120, seed=8)
            assert evaluate(net, condition, trials=120, seed=8) == want
            checked += 1
    assert checked >= 6


def _count_observes(monkeypatch):
    calls = []
    original = Session.observe

    def counted(self, event):
        calls.append(event)
        return original(self, event)

    monkeypatch.setattr(Session, "observe", counted)
    return calls


def _distinct_revealed_events(net, revealed, seed, trials):
    """The event list of each distinct revealed sample of a run."""
    samples = {}
    for t in range(trials):
        trajectory = sample_trajectory(net, trial_seed(seed, t))
        samples.setdefault(tuple(trajectory.entry(n)[1:] for n in revealed), trajectory)
    return [reveal_events(net, trajectory, revealed) for trajectory in samples.values()]


@pytest.mark.parametrize("condition, observes", [("root", 3), ("intermediate", 12), ("leaf", None)])
def test_evaluate_replays_each_distinct_revealed_sample_once(accident_net, monkeypatch, condition, observes):
    calls = _count_observes(monkeypatch)
    report = evaluate(accident_net, condition, trials=1000, seed=0)
    monkeypatch.undo()
    events = _distinct_revealed_events(accident_net, report.revealed, 0, 1000)
    assert sorted(calls) == sorted(e for es in events for e in es)
    if observes is not None:  # root C and intermediate HI, IB: instantaneous, at time 0
        assert len(calls) == observes


def test_evaluate_shares_replays_across_blocks(accident_net, monkeypatch):
    trials = tnbn.simulate._BLOCK + 76  # two blocks
    revealed = node_tiers(accident_net.spec).roots
    calls = _count_observes(monkeypatch)
    report = evaluate(accident_net, "root", trials, seed=8)
    monkeypatch.undo()
    assert len(calls) == len(_distinct_revealed_events(accident_net, revealed, 8, trials)) == 3
    assert report == _reference_evaluate(accident_net, "root", revealed, trials, seed=8)


def test_a_numpy_trial_count_reports_as_json(accident_net):
    report = evaluate(accident_net, "leaf", np.int64(5))
    assert type(report.trials) is int and report.trials == 5
    assert json.loads(json.dumps(report.to_json_dict()))["trials"] == 5


def _contradicting_leaves():
    """Root C picks both leaves' changes or neither: C=yes gives A up@[0,10]
    and B up@[10,20], C=no leaves both flat. Anchoring measures the leaves
    against each other, so two sampled changes can resolve to states the
    model rules out together."""
    c = NodeSpec("C", NodeKind.INSTANTANEOUS, ("yes", "no"))
    intervals = (TimeInterval(0, 10), TimeInterval(10, 20))
    a, b = (
        NodeSpec(n, NodeKind.TEMPORAL, ("up",), default_value="flat", intervals=intervals)
        for n in "AB"
    )
    yes, no = (NodeState("yes"),), (NodeState("no"),)
    tables = {
        "C": ConditionalTable("C", (), {(): (0.5, 0.5)}),
        "A": ConditionalTable("A", ("C",), {yes: (0.0, 1.0, 0.0), no: (1.0, 0.0, 0.0)}),
        "B": ConditionalTable("B", ("C",), {yes: (0.0, 0.0, 1.0), no: (1.0, 0.0, 0.0)}),
    }
    return NetworkSpec("contradiction", "minute", (c, a, b), (("C", "A"), ("C", "B")), tables)


# at seed 0, trial 0 samples A=up at 7.687 (held as the anchor) and B=up at
# 12.955, which resolves by the elapsed 5.27 to up@[0,10] and settles A there
IMPOSSIBLE_TRIAL = (
    "leaf-observed: trial seed 2968811710 replays events of probability zero under the "
    "model: A=up at 7.686542061603189 resolved to up@[0,10]; "
    "B=up at 12.95515005392829 resolved to up@[0,10]"
)


def test_evaluate_names_the_trial_whose_events_are_impossible():
    net = compile_network(_contradicting_leaves())
    assert trial_seed(0, 0) == 2968811710
    with pytest.raises(ZeroProbabilityEvidenceError) as info:
        evaluate(net, "leaf", 1000, 0)
    assert str(info.value) == IMPOSSIBLE_TRIAL
    # the named seed replays to the same evidence
    trajectory = sample_trajectory(net, 2968811710)
    session = open_session(net)
    for event in reveal_events(net, trajectory, ("A", "B")):
        session = session.observe(event)
    assert session.resolved_evidence == {"A": NodeState("up", 0), "B": NodeState("up", 0)}
    with pytest.raises(ZeroProbabilityEvidenceError):
        session.predict()
