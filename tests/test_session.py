import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import tnbn.inference
import tnbn.session

from tnbn import (
    DuplicateObservationError,
    NoPendingObservationError,
    NodeState,
    ObservedEvent,
    UnanchoredSessionError,
    UnknownNodeError,
    UnknownStateError,
    compile_network,
    joint_enumerate,
    open_session,
    posterior,
)

from netgen import random_network

TOL = 1e-9


def observe_all(session, *events):
    for node, value, tc in events:
        session = session.observe(ObservedEvent(node, value, tc))
    return session


def value_conditioned_marginal(spec, query, value_node, value, extra_evidence=None):
    """Oracle: condition on `value_node` having `value` in any interval."""
    joint = joint_enumerate(spec, extra_evidence)
    ax = joint.nodes.index(value_node)
    mask = np.array([1.0 if s.value == value else 0.0 for s in joint.states[ax]])
    shaped = mask.reshape([len(mask) if i == ax else 1 for i in range(len(joint.nodes))])
    values = joint.values * shaped
    qax = joint.nodes.index(query)
    vec = values.sum(axis=tuple(i for i in range(len(joint.nodes)) if i != qax))
    return vec / vec.sum()


# --- anchoring and resolution -----------------------------------------------

def test_first_event_anchors_the_session(accident_net):
    s = observe_all(open_session(accident_net), ("C", "severe", 100))
    assert s.anchor == ObservedEvent("C", "severe", 100)
    assert s.resolved["C"].state == NodeState("severe")
    assert s.resolved["C"].window is None


def test_timed_event_resolves_against_the_anchor(accident_net):
    s = observe_all(open_session(accident_net), ("C", "severe", 100), ("VS", "unstable", 115))
    r = s.resolved["VS"]
    assert r.state == NodeState("unstable", 1)
    assert r.window == (110, 130)
    assert s.pending == ()


def test_elapsed_time_on_a_shared_bound_picks_the_later_interval(accident_net):
    s = observe_all(open_session(accident_net), ("C", "severe", 100), ("VS", "unstable", 110))
    assert s.resolved["VS"].state == NodeState("unstable", 1)


def test_elapsed_time_at_the_range_end_still_resolves(accident_net):
    s = observe_all(open_session(accident_net), ("C", "severe", 100), ("VS", "unstable", 160))
    assert s.resolved["VS"].state == NodeState("unstable", 2)


def test_event_beyond_the_range_is_recorded_inconsistent(accident_net):
    s = observe_all(open_session(accident_net), ("C", "severe", 100), ("VS", "unstable", 161))
    assert "VS" not in s.resolved
    assert [e.node for e, _ in s.inconsistent] == ["VS"]
    assert "outside the covered range" in s.inconsistent[0][1]
    # the dropped node is forecast as if never observed
    report = s.predict()
    assert "VS" in report.forecasts
    expected = posterior(accident_net, "VS", {"C": NodeState("severe")}).probs
    assert np.max(np.abs(report.forecasts["VS"].distribution.probs - expected)) < TOL


def test_default_assertion_resolves_without_an_interval(accident_net):
    s = observe_all(open_session(accident_net), ("VS", "normal", 42))
    assert s.anchor == ObservedEvent("VS", "normal", 42)
    assert s.resolved["VS"].state == NodeState("normal")
    assert s.pending == ()


def test_a_no_change_assertion_anchors_the_session(accident_spec, accident_net):
    # the first report anchors the session even when it says nothing changed
    s = observe_all(open_session(accident_net), ("VS", "normal", 60), ("PD", "dilated", 62))
    assert s.anchor == ObservedEvent("VS", "normal", 60)
    r = s.resolved["PD"]
    assert accident_spec.node("PD").state_label(r.state) == "dilated@[0,3]"
    assert r.window == (60, 63)
    assert s.pending == () and s.inconsistent == ()


# --- pending observations and scenarios ---------------------------------------

def test_first_timed_event_is_held_pending(accident_net):
    s = observe_all(open_session(accident_net), ("VS", "unstable", 115))
    assert s.anchor == ObservedEvent("VS", "unstable", 115)
    assert [e.node for e in s.pending] == ["VS"]
    assert "VS" not in s.resolved


def test_scenarios_weigh_candidate_intervals(accident_spec, accident_net):
    s = observe_all(open_session(accident_net), ("VS", "unstable", 115))
    scenarios = s.scenarios()
    assert len(scenarios) == 3
    assert sum(sc.weight for sc in scenarios) == pytest.approx(1.0, abs=TOL)
    assert scenarios[0].weight >= scenarios[1].weight >= scenarios[2].weight
    # weights are the normalized prior masses of each candidate state
    joint = joint_enumerate(accident_spec)
    prior = joint.distribution("VS")
    masses = {i: prior.p(NodeState("unstable", i)) for i in range(3)}
    total = sum(masses.values())
    for sc in scenarios:
        idx = sc.state.interval_index
        assert sc.weight == pytest.approx(masses[idx] / total, abs=TOL)


def test_scenarios_require_something_pending(accident_net):
    s = observe_all(open_session(accident_net), ("C", "severe", 100))
    with pytest.raises(NoPendingObservationError):
        s.scenarios()


def test_scenario_weights_account_for_resolved_evidence(accident_spec, accident_net):
    # the no-change assertion on PD is folded into the weights
    s = observe_all(
        open_session(accident_net), ("VS", "unstable", 115), ("PD", "normal", 120)
    )
    assert [e.node for e in s.pending] == ["VS"]
    evidence = {"PD": NodeState("normal")}
    joint = joint_enumerate(accident_spec, evidence)
    cond = joint.distribution("VS")
    masses = {i: cond.p(NodeState("unstable", i)) for i in range(3)}
    total = sum(masses.values())
    for sc in s.scenarios():
        idx = sc.state.interval_index
        assert sc.weight == pytest.approx(masses[idx] / total, abs=TOL)


def test_next_event_settles_the_pending_observation(accident_net):
    s = observe_all(open_session(accident_net), ("VS", "unstable", 115), ("C", "severe", 100))
    assert s.pending == ()
    r = s.resolved["VS"]
    assert r.state == NodeState("unstable", 1)
    assert r.window == (110, 130)


def test_resolution_is_order_independent_for_this_pair(accident_net):
    one = observe_all(open_session(accident_net), ("C", "severe", 100), ("VS", "unstable", 115))
    two = observe_all(open_session(accident_net), ("VS", "unstable", 115), ("C", "severe", 100))
    assert one.resolved_evidence == two.resolved_evidence
    assert one.resolved["VS"].window == two.resolved["VS"].window


def test_default_assertion_does_not_settle_pending(accident_net):
    s = observe_all(
        open_session(accident_net), ("PD", "dilated", 2), ("VS", "normal", 50)
    )
    assert [e.node for e in s.pending] == ["PD"]
    assert s.resolved["VS"].state == NodeState("normal")
    # a real event finally settles it: |3 - 2| = 1 falls in [0,3]
    s = observe_all(s, ("HI", "true", 3))
    assert s.pending == ()
    assert s.resolved["PD"].state == NodeState("dilated", 0)
    # the change at 2 came before the settling event at 3
    assert s.resolved["PD"].window == (0, 3)


def test_settling_event_may_itself_be_inconsistent(accident_net):
    # PD pending at 2; the VS event at 90 overflows VS's own range (|2-90|=88)
    # but still settles PD (|2-90| overflows PD too, so both are dropped)
    s = observe_all(
        open_session(accident_net), ("PD", "dilated", 2), ("VS", "unstable", 90)
    )
    assert s.pending == ()
    assert sorted(e.node for e, _ in s.inconsistent) == ["PD", "VS"]


def test_pending_settles_within_range_of_the_new_event(accident_net):
    s = observe_all(
        open_session(accident_net), ("VS", "unstable", 30), ("PD", "dilated", 26)
    )
    # PD resolves against the anchor VS: |30-26| = 4 -> [3,5]
    assert s.resolved["PD"].state == NodeState("dilated", 1)
    # VS settles against PD's event time: |30-26| = 4 -> [0,10]
    assert s.resolved["VS"].state == NodeState("unstable", 0)
    # windows run backward from the reference when the change came first
    assert s.resolved["PD"].window == (25, 27)
    assert s.resolved["VS"].window == (26, 36)


def test_change_timed_before_a_resolved_anchor_is_inconsistent(accident_net):
    # VS would resolve 15 minutes before its cause C: no interval measures that
    s = observe_all(open_session(accident_net), ("C", "severe", 100), ("VS", "unstable", 85))
    assert "VS" not in s.resolved
    assert s.inconsistent == (
        (ObservedEvent("VS", "unstable", 85), "reported at 85, before the anchor C=severe at 100"),
    )
    # instantaneous reports and no-change assertions carry no interval
    s = observe_all(
        open_session(accident_net), ("C", "severe", 100), ("HI", "true", 90), ("PD", "normal", 50)
    )
    assert s.resolved_evidence == {
        "C": NodeState("severe"), "HI": NodeState("true"), "PD": NodeState("normal")
    }
    assert s.inconsistent == ()
    # the anchor stays the first report, even once it is settled backward
    s = observe_all(
        open_session(accident_net),
        ("VS", "unstable", 115), ("C", "severe", 100), ("PD", "dilated", 105),
    )
    assert s.resolved["VS"].state == NodeState("unstable", 1)
    assert [(e.node, reason) for e, reason in s.inconsistent] == [
        ("PD", "reported at 105, before the anchor VS=unstable at 115")
    ]


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_at_most_the_anchor_is_ever_pending(seed):
    # random networks, every node reported once in a random order
    rng = np.random.default_rng(seed)
    spec = random_network(rng, temporal_share=0.7)
    s = open_session(compile_network(spec))
    for i in rng.permutation(len(spec.nodes)):
        node = spec.nodes[int(i)]
        values = list(node.values)
        if node.default_value is not None:
            values.append(node.default_value)
        value = values[int(rng.integers(len(values)))]
        s = s.observe(ObservedEvent(node.id, value, float(rng.integers(0, 40))))
        assert len(s.pending) <= 1
        assert all(e == s.anchor for e in s.pending)
        # the derivation of anchor and pending rests on these
        assert s.anchor == s.events[0]
        groups = (s.resolved, [e.node for e in s.pending], [e.node for e, _ in s.inconsistent])
        assert sorted(e.node for e in s.events) == sorted(n for g in groups for n in g)


def test_pending_predict_weighs_the_scenarios_once(accident_net, monkeypatch):
    counts = {"evidence_probability": 0, "marginals": 0, "queries": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(tnbn.session, "marginals", counted("marginals", tnbn.session.marginals))
    monkeypatch.setattr(
        tnbn.inference,
        "evidence_probability",
        counted("evidence_probability", tnbn.inference.evidence_probability),
    )
    # every inference entry point reads its evidence exactly once
    monkeypatch.setattr(
        tnbn.inference,
        "_evidence_positions",
        counted("queries", tnbn.inference._evidence_positions),
    )
    s = observe_all(open_session(accident_net), ("VS", "unstable", 115))
    report = s.predict()
    # one marginals() call for all four forecast nodes, with VS restricted
    # to its unstable intervals; no scenario is weighed on its own
    assert list(report.forecasts) == ["C", "HI", "IB", "PD"]
    assert counts == {"evidence_probability": 0, "marginals": 1, "queries": 1}


# --- observation rules --------------------------------------------------------

def test_duplicate_observation_is_rejected(accident_net):
    s = observe_all(open_session(accident_net), ("C", "severe", 100))
    with pytest.raises(DuplicateObservationError):
        s.observe(ObservedEvent("C", "mild", 101))
    # also when the first try was recorded inconsistent
    s = observe_all(open_session(accident_net), ("C", "severe", 0), ("VS", "unstable", 90))
    assert [e.node for e, _ in s.inconsistent] == ["VS"]
    with pytest.raises(DuplicateObservationError):
        s.observe(ObservedEvent("VS", "unstable", 10))


def test_unknown_node_and_value_are_rejected(accident_net):
    s = open_session(accident_net)
    with pytest.raises(UnknownNodeError):
        s.observe(ObservedEvent("XX", "y", 0))
    with pytest.raises(UnknownStateError) as info:
        s.observe(ObservedEvent("VS", "wobbly", 0))
    assert "normal" in str(info.value) and "unstable" in str(info.value)


@pytest.mark.parametrize("tc", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_event_time_is_rejected(accident_net, tc):
    with pytest.raises(ValueError, match="must be finite"):
        open_session(accident_net).observe(ObservedEvent("C", "severe", tc))
    s = observe_all(open_session(accident_net), ("C", "severe", 100))
    with pytest.raises(ValueError, match="must be finite"):
        s.observe(ObservedEvent("VS", "unstable", tc))
    # the rejected report left nothing behind: VS can still be observed
    s = observe_all(s, ("VS", "unstable", 115))
    assert s.resolved["VS"].state == NodeState("unstable", 1)
    assert s.inconsistent == ()


def test_observe_returns_a_new_session(accident_net):
    s0 = open_session(accident_net)
    s1 = s0.observe(ObservedEvent("C", "severe", 100))
    assert s0.events == ()
    assert s0.anchor is None
    assert s1.events != s0.events


# --- forecasts ----------------------------------------------------------------

def test_predict_requires_an_anchor(accident_net):
    with pytest.raises(UnanchoredSessionError):
        open_session(accident_net).predict()
    with pytest.raises(UnanchoredSessionError):
        open_session(accident_net).diagnose()


def test_predict_covers_exactly_the_unobserved_nodes(accident_net):
    s = observe_all(open_session(accident_net), ("C", "severe", 100), ("VS", "unstable", 115))
    report = s.predict()
    assert list(report.forecasts) == ["HI", "IB", "PD"]
    assert report.anchor == ObservedEvent("C", "severe", 100)


def test_predict_matches_plain_posteriors_once_everything_is_resolved(accident_net):
    s = observe_all(open_session(accident_net), ("C", "severe", 100), ("VS", "unstable", 115))
    evidence = s.resolved_evidence
    for nid, forecast in s.predict().forecasts.items():
        expected = posterior(accident_net, nid, evidence).probs
        assert np.max(np.abs(forecast.distribution.probs - expected)) < TOL


def test_forecast_windows_follow_the_anchor(accident_net):
    s = observe_all(open_session(accident_net), ("C", "severe", 100))
    forecast = s.predict().forecasts["VS"]
    by_state = dict(zip(forecast.distribution.states, forecast.windows))
    assert by_state[NodeState("normal")] is None
    assert by_state[NodeState("unstable", 0)] == (100, 110)
    assert by_state[NodeState("unstable", 2)] == (130, 160)
    assert forecast.window_for(NodeState("unstable", 1)) == (110, 130)


def test_window_for_an_unknown_state_is_a_typed_error(accident_net):
    forecast = observe_all(open_session(accident_net), ("C", "severe", 100)).predict().forecasts["VS"]
    with pytest.raises(UnknownStateError) as info:
        forecast.window_for(NodeState("unstable", 3))
    assert str(info.value) == (
        "unknown state 'unstable@interval#3' for node 'VS'; legal states: "
        "normal, unstable@interval#0, unstable@interval#1, unstable@interval#2"
    )


def test_mixture_over_scenarios_equals_value_conditioning(accident_spec, accident_net):
    s = observe_all(open_session(accident_net), ("VS", "unstable", 115))
    report = s.predict()
    assert list(report.forecasts) == ["C", "HI", "IB", "PD"]
    for nid, forecast in report.forecasts.items():
        oracle = value_conditioned_marginal(accident_spec, nid, "VS", "unstable")
        assert np.max(np.abs(forecast.distribution.probs - oracle)) < TOL


def test_mixture_with_resolved_evidence_still_matches_the_oracle(accident_spec, accident_net):
    s = observe_all(
        open_session(accident_net), ("PD", "dilated", 7), ("VS", "normal", 20)
    )
    assert [e.node for e in s.pending] == ["PD"]
    extra = {"VS": NodeState("normal")}
    for nid, forecast in s.predict().forecasts.items():
        oracle = value_conditioned_marginal(accident_spec, nid, "PD", "dilated", extra)
        assert np.max(np.abs(forecast.distribution.probs - oracle)) < TOL


def test_diagnose_restricts_to_unobserved_ancestors(accident_net):
    s = observe_all(open_session(accident_net), ("VS", "unstable", 115))
    report = s.diagnose()
    assert list(report.forecasts) == ["C", "HI", "IB"]
    # HI becomes a source itself; IB stays, being an unobserved cause of VS
    s = observe_all(s, ("HI", "true", 116))
    assert list(s.diagnose().forecasts) == ["C", "IB"]


def test_mixture_law_on_random_networks():
    # the scenario expansion must agree with direct value-level conditioning
    checked = 0
    for seed in range(40):
        rng = np.random.default_rng(seed + 5000)
        spec = random_network(rng, temporal_share=0.7)
        temporal = [n for n in spec.nodes if n.intervals]
        if not temporal:
            continue
        net = compile_network(spec)
        node = temporal[0]
        s = open_session(net).observe(ObservedEvent(node.id, node.values[0], 50.0))
        if not s.pending:
            continue
        for nid, forecast in s.predict().forecasts.items():
            oracle = value_conditioned_marginal(spec, nid, node.id, node.values[0])
            assert np.max(np.abs(forecast.distribution.probs - oracle)) < TOL
        checked += 1
    assert checked >= 10
