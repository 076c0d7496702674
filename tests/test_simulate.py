import itertools

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
    TimeInterval,
    Trajectory,
    TrajectoryEntry,
    UnknownStateError,
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
from tnbn.session import Session, open_session
from tnbn.simulate import reveal_events

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


def test_cumulative_tables_are_built_on_first_sample(accident_spec):
    for spec in (accident_spec, _wide_network()):
        net = compile_network(spec)
        assert "cdfs" not in vars(net)
        sample_trajectory(net, 0)
        assert len(net.cdfs) == len(net.node_ids)
        for i, nid in enumerate(net.node_ids):
            cdfs = net.cdfs[i]
            # indexed by the parents' state positions in axis order
            parents = sorted(net.spec.parents(nid), key=net.axes.get)
            assert cdfs.shape == tuple(len(net.states[p]) for p in parents + [nid])
            assert np.all(cdfs[..., -1] == 1.0)
            assert np.all(np.diff(cdfs, axis=-1) >= 0.0)
            # each row, bit for bit, as `Generator.choice` builds it from the CPT row
            table = net.spec.tables[nid]
            for key, row in table.rows.items():
                probs = np.asarray(row, dtype=float)
                want = (probs / probs.sum()).cumsum()
                want /= want[-1]
                where = dict(zip(table.parent_order, key))
                got = cdfs[tuple(net.state_index(p, where[p]) for p in parents)]
                assert got.tolist() == want.tolist()


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
