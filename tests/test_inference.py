import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import tnbn.inference

from tnbn import (
    ConditionalTable,
    FactorSizeError,
    InvalidNetworkError,
    JointSizeError,
    NetworkSpec,
    NodeKind,
    NodeSpec,
    NodeState,
    ObservedEvent,
    TimeInterval,
    UnknownNodeError,
    UnknownStateError,
    ZeroProbabilityEvidenceError,
    compile_network,
    evidence_probability,
    joint_enumerate,
    log_evidence_probability,
    marginals,
    open_session,
    posterior,
    sample_trajectory,
)

from netgen import random_evidence, random_network

TOL = 1e-9


# --- fixture posteriors (hand-checkable sums of CPT products) ---------------

def test_prior_of_head_injury(accident_net):
    d = posterior(accident_net, "HI")
    # 0.9*0.368 + 0.4*0.392 + 0.1*0.24
    assert d.p(NodeState("true")) == pytest.approx(0.5120, abs=TOL)
    assert d.p(NodeState("false")) == pytest.approx(0.4880, abs=TOL)


def test_prior_of_internal_bleeding(accident_net):
    d = posterior(accident_net, "IB")
    assert d.p(NodeState("gross")) == pytest.approx(0.4508, abs=TOL)
    assert d.p(NodeState("slight")) == pytest.approx(0.3500, abs=TOL)
    assert d.p(NodeState("none")) == pytest.approx(0.1992, abs=TOL)


def test_severity_given_head_injury(accident_net):
    d = posterior(accident_net, "C", {"HI": NodeState("true")})
    assert d.p(NodeState("severe")) == pytest.approx(0.646875, abs=TOL)
    assert d.p(NodeState("moderate")) == pytest.approx(0.30625, abs=TOL)
    assert d.p(NodeState("mild")) == pytest.approx(0.046875, abs=TOL)


def test_diagnosis_from_a_timed_symptom(accident_net):
    # P(PD=dilated@[0,3]) = 0.95*0.512 + 0.025*0.488 = 0.4986
    d = posterior(accident_net, "HI", {"PD": NodeState("dilated", 0)})
    assert d.p(NodeState("true")) == pytest.approx(0.4864 / 0.4986, abs=TOL)


def test_posterior_probs_sum_to_one(accident_net):
    for nid in accident_net.node_ids:
        d = posterior(accident_net, nid, {"VS": NodeState("unstable", 2)})
        assert float(np.sum(d.probs)) == pytest.approx(1.0, abs=TOL)


def test_point_mass_when_query_is_observed(accident_net):
    d = posterior(accident_net, "C", {"C": NodeState("moderate")})
    assert list(d.probs) == [0.0, 1.0, 0.0]


def test_zero_probability_evidence_is_an_error(accident_net):
    # vital signs cannot turn unstable late when a head injury is present
    bad = {"HI": NodeState("true"), "VS": NodeState("unstable", 1)}
    with pytest.raises(ZeroProbabilityEvidenceError):
        posterior(accident_net, "C", bad)
    # the query itself observed: still no point mass on impossible evidence
    with pytest.raises(ZeroProbabilityEvidenceError):
        posterior(accident_net, "HI", bad)
    with pytest.raises(ZeroProbabilityEvidenceError):
        posterior(accident_net, "HI", {"HI": NodeState("true"), "PD": NodeState("dilated", 1)})


def test_unknown_query_nodes_and_states(accident_net):
    with pytest.raises(UnknownNodeError):
        posterior(accident_net, "XX")
    with pytest.raises(UnknownNodeError):
        posterior(accident_net, "C", {"XX": NodeState("y")})
    with pytest.raises(UnknownStateError) as info:
        posterior(accident_net, "C", {"VS": NodeState("unstable")})
    assert "unstable@[0,10]" in str(info.value)


def test_distribution_names_an_unknown_state_as_it_names_the_legal_ones(accident_net):
    with pytest.raises(UnknownStateError) as info:
        posterior(accident_net, "VS").p(NodeState("unstable", 5))
    assert str(info.value) == (
        "unknown state 'unstable@interval#5' for node 'VS'; legal states: "
        "normal, unstable@interval#0, unstable@interval#1, unstable@interval#2"
    )


def test_set_valued_evidence_restricts_a_node_to_some_of_its_states(accident_net):
    # C in {severe, mild} renormalises the prior 0.368 / 0.392 / 0.24 over those two
    d = posterior(accident_net, "C", {"C": {NodeState("severe"), NodeState("mild")}})
    assert list(d.probs) == pytest.approx([0.368 / 0.608, 0.0, 0.24 / 0.608], abs=TOL)
    assert evidence_probability(accident_net, {"C": [NodeState("severe"), NodeState("mild")]}) == (
        pytest.approx(0.608, abs=TOL)
    )
    # every state of a node is no evidence at all
    every = {"VS": accident_net.states["VS"]}
    assert list(posterior(accident_net, "HI", every).probs) == pytest.approx(
        list(posterior(accident_net, "HI").probs), abs=TOL
    )
    # an empty collection is evidence of probability zero
    assert evidence_probability(accident_net, {"C": ()}) == 0.0
    with pytest.raises(ZeroProbabilityEvidenceError):
        posterior(accident_net, "HI", {"C": []})
    with pytest.raises(UnknownNodeError):
        posterior(accident_net, "C", {"XX": ()})
    with pytest.raises(UnknownStateError):
        posterior(accident_net, "C", {"VS": [NodeState("unstable")]})


@pytest.mark.parametrize(
    "bad", ["severe", "", 3, None, [NodeState("severe"), "mild"], {"severe": 1}]
)
def test_malformed_evidence_values_raise_a_typed_error(accident_net, bad):
    # a string is neither a state nor a collection of states, however it iterates
    queries = (
        lambda ev: posterior(accident_net, "HI", ev),
        lambda ev: marginals(accident_net, ["HI"], ev),
        lambda ev: evidence_probability(accident_net, ev),
    )
    for query in queries:
        with pytest.raises(TypeError) as info:
            query({"C": bad})
        assert str(info.value).startswith("evidence on node 'C' must be a NodeState")


def test_index_maps_follow_node_and_state_order(accident_spec, accident_net):
    assert accident_net.node_ids == accident_spec.node_ids()
    for i, nid in enumerate(accident_spec.node_ids()):
        assert accident_net.index(nid) == i
        for j, state in enumerate(accident_net.states[nid]):
            assert accident_net.state_index(nid, state) == j
    with pytest.raises(UnknownNodeError) as info:
        accident_net.index("XX")
    assert str(info.value) == "no node 'XX' in network 'accident'; nodes: C, HI, IB, PD, VS"
    with pytest.raises(UnknownNodeError):
        accident_net.state_index("XX", NodeState("y"))
    with pytest.raises(UnknownStateError) as info:
        accident_net.state_index("VS", NodeState("unstable", 3))
    assert "unstable@interval#3" in str(info.value)
    assert "unstable@[30,60]" in str(info.value)


def test_evidence_probability(accident_net):
    assert evidence_probability(accident_net, {}) == pytest.approx(1.0, abs=TOL)
    assert evidence_probability(accident_net, {"C": NodeState("severe")}) == pytest.approx(
        0.368, abs=TOL
    )
    assert evidence_probability(accident_net, {"HI": NodeState("true")}) == pytest.approx(
        0.512, abs=TOL
    )
    both = evidence_probability(
        accident_net, {"HI": NodeState("true"), "VS": NodeState("unstable", 1)}
    )
    assert both == 0.0


def test_distribution_argmax_prefers_the_earliest_tie(accident_net):
    d = posterior(accident_net, "C", {"C": NodeState("mild")})
    assert d.argmax() == NodeState("mild")
    tie = posterior(accident_net, "HI")
    # no tie here, just the plain maximum
    assert tie.argmax() == NodeState("true")


def test_distribution_p_rejects_foreign_states(accident_net):
    d = posterior(accident_net, "HI")
    with pytest.raises(UnknownStateError):
        d.p(NodeState("gross"))


def test_compile_rejects_invalid_networks():
    a = NodeSpec("A", NodeKind.INSTANTANEOUS, ("y", "n"))
    spec = NetworkSpec(
        "bad", "hour", (a,), (), {"A": ConditionalTable("A", (), {(): (0.5, 0.6)})}
    )
    with pytest.raises(InvalidNetworkError) as info:
        compile_network(spec)
    assert info.value.violations
    assert "sums to" in str(info.value)
    with pytest.raises(InvalidNetworkError) as info:
        joint_enumerate(spec)
    assert "sums to" in str(info.value)


def _cell_by_cell_factors(net):
    """Reference factors: every CPT entry written into its own cell."""
    out = []
    for nid in net.node_ids:
        table = net.spec.tables[nid]
        scope = tuple(sorted([net.axes[p] for p in table.parent_order] + [net.axes[nid]]))
        arr = np.zeros(tuple(len(net.states[net.node_ids[i]]) for i in scope))
        for key, probs in table.rows.items():
            at = {net.axes[p]: net.positions[p][s] for p, s in zip(table.parent_order, key)}
            for ci, prob in enumerate(probs):
                at[net.axes[nid]] = ci
                arr[tuple(at[i] for i in scope)] = prob
        out.append((scope, arr))
    return out


def _with_reversed_parent_order(spec):
    tables = {
        nid: ConditionalTable(
            t.child, t.parent_order[::-1], {key[::-1]: row for key, row in t.rows.items()}
        )
        for nid, t in spec.tables.items()
    }
    return NetworkSpec(spec.name, spec.time_unit, spec.nodes, spec.edges, tables)


def _parents_listed_out_of_declaration_order():
    a = NodeSpec("A", NodeKind.INSTANTANEOUS, ("y", "n"))
    intervals = (TimeInterval(0, 2), TimeInterval(2, 5))
    b = NodeSpec("B", NodeKind.TEMPORAL, ("hot",), "cold", intervals)
    c = NodeSpec("C", NodeKind.INSTANTANEOUS, ("on", "off"))
    y, n, cold = NodeState("y"), NodeState("n"), NodeState("cold")
    hot0, hot1 = NodeState("hot", 0), NodeState("hot", 1)
    rows = {
        (cold, y): (0.1, 0.9), (cold, n): (0.2, 0.8),
        (hot0, y): (0.3, 0.7), (hot0, n): (0.4, 0.6),
        (hot1, y): (0.5, 0.5), (hot1, n): (0.6, 0.4),
    }
    return NetworkSpec(
        "transposed",
        "hour",
        (a, b, c),
        (("A", "B"), ("A", "C"), ("B", "C")),
        {
            "A": ConditionalTable("A", (), {(): (0.25, 0.75)}),
            "B": ConditionalTable("B", ("A",), {(y,): (0.5, 0.3, 0.2), (n,): (0.7, 0.2, 0.1)}),
            "C": ConditionalTable("C", ("B", "A"), rows),
        },
    )


def test_factors_equal_a_cell_by_cell_fill(accident_spec):
    specs = [accident_spec, _with_reversed_parent_order(accident_spec)]
    specs.append(_parents_listed_out_of_declaration_order())
    for seed in range(12):
        spec = random_network(np.random.default_rng(seed), max_nodes=10)
        specs += [spec, _with_reversed_parent_order(spec)]
    for spec in specs:
        net = compile_network(spec)
        for factor, (scope, ref) in zip(net.factors, _cell_by_cell_factors(net), strict=True):
            assert factor.scope == scope
            assert factor.values.shape == ref.shape
            assert factor.values.dtype == ref.dtype
            assert factor.values.flags.c_contiguous
            assert factor.values.tobytes() == ref.tobytes()


def test_compiled_factors_are_read_only_and_queries_leave_them_unchanged(accident_net):
    # a query reads the CPT arrays through views, so a write through one would
    # change the network; every array refuses it
    for f in accident_net.factors:
        with pytest.raises(ValueError):
            f.values[...] = 0.0
    before = [f.values.tobytes() for f in accident_net.factors]
    hard = {"PD": NodeState("dilated", 0)}
    held = {"VS": [NodeState("unstable", 0), NodeState("unstable", 1)]}
    for evidence in ({}, hard, held, {**hard, **held, "C": NodeState("severe")}):
        for nid in accident_net.node_ids:
            posterior(accident_net, nid, evidence)  # "C" with no evidence: its own slot
        marginals(accident_net, accident_net.node_ids, evidence)
        log_evidence_probability(accident_net, evidence)
    session = open_session(accident_net).observe(ObservedEvent("VS", "unstable", 115))
    assert session.pending
    session.predict()
    assert [f.values.tobytes() for f in accident_net.factors] == before


# --- the enumeration oracle -------------------------------------------------

def test_joint_total_is_one(accident_spec):
    assert joint_enumerate(accident_spec).total() == pytest.approx(1.0, abs=TOL)


def test_joint_marginals_match_elimination(accident_spec, accident_net):
    joint = joint_enumerate(accident_spec)
    for nid in accident_net.node_ids:
        expected = posterior(accident_net, nid).probs
        got = joint.distribution(nid).probs
        assert np.max(np.abs(got - expected)) < TOL


def test_joint_conditionals_match_elimination(accident_spec, accident_net):
    evidence = {"VS": NodeState("unstable", 0), "PD": NodeState("normal")}
    joint = joint_enumerate(accident_spec, evidence)
    for nid in ("C", "HI", "IB"):
        expected = posterior(accident_net, nid, evidence).probs
        got = joint.distribution(nid).probs
        assert np.max(np.abs(got - expected)) < TOL


def test_joint_evidence_total_is_evidence_probability(accident_spec, accident_net):
    evidence = {"HI": NodeState("false"), "IB": NodeState("none")}
    joint = joint_enumerate(accident_spec, evidence)
    assert joint.total() == pytest.approx(
        evidence_probability(accident_net, evidence), abs=TOL
    )


def test_joint_zero_evidence_distribution_raises(accident_spec):
    joint = joint_enumerate(
        accident_spec, {"HI": NodeState("true"), "VS": NodeState("unstable", 1)}
    )
    with pytest.raises(ZeroProbabilityEvidenceError):
        joint.distribution("C")


def test_joint_size_guard():
    nodes = tuple(
        NodeSpec(f"B{i}", NodeKind.INSTANTANEOUS, ("y", "n")) for i in range(24)
    )
    tables = {
        n.id: ConditionalTable(n.id, (), {(): (0.5, 0.5)}) for n in nodes
    }
    spec = NetworkSpec("wide", "hour", nodes, (), tables)
    with pytest.raises(JointSizeError):
        joint_enumerate(spec)


def test_joint_validates_inputs(accident_spec):
    with pytest.raises(UnknownNodeError):
        joint_enumerate(accident_spec, {"XX": NodeState("y")})
    with pytest.raises(UnknownStateError):
        joint_enumerate(accident_spec, {"C": NodeState("terrible")})


@pytest.mark.parametrize(
    "bad", ["severe", "", 3, None, [NodeState("severe"), "mild"], {"severe": 1}]
)
def test_joint_rejects_malformed_evidence_values(accident_spec, bad):
    with pytest.raises(TypeError) as info:
        joint_enumerate(accident_spec, {"C": bad})
    assert str(info.value).startswith("evidence on node 'C' must be a NodeState")


def test_a_state_is_a_plain_pair_and_evidence_reads_it_as_one_state(accident_spec, accident_net):
    # hashing and equality are the tuple's own, so a state equals its pair
    assert NodeState.__hash__ is tuple.__hash__
    assert NodeState.__eq__ is tuple.__eq__
    severe = NodeState("severe")
    assert severe == ("severe", None) and hash(severe) == hash(("severe", None))
    assert repr(severe) == "NodeState(value='severe', interval_index=None)"
    # though a pair, a NodeState is one state; a tuple of them is a set, and a
    # plain pair is neither
    queries = (
        lambda ev: posterior(accident_net, "PD", ev).probs,
        lambda ev: joint_enumerate(accident_spec, ev).values,
    )
    dilated = (NodeState("dilated", 0), NodeState("dilated", 1))
    for query in queries:
        assert np.array_equal(query({"C": severe}), query({"C": (severe,)}))
        assert not np.array_equal(query({"C": severe}), query({"C": (severe, NodeState("mild"))}))
        assert np.array_equal(query({"PD": dilated[1]}), query({"PD": dilated[1:]}))
        assert not np.array_equal(query({"PD": dilated[1]}), query({"PD": dilated}))
        for pair in [("severe", None), ("dilated", 1)]:
            with pytest.raises(TypeError) as info:
                query({"C": pair})
            assert str(info.value).startswith("evidence on node 'C' must be a NodeState")


def test_joint_reads_a_collection_as_one_of_its_states(accident_spec):
    dilated = [NodeState("dilated", 0), NodeState("dilated", 1)]
    cases = [(accident_spec, {"C": NodeState("severe")}, "PD", dilated)]
    for seed in range(20):
        rng = np.random.default_rng(seed)
        spec = random_network(rng)
        evidence = random_evidence(rng, spec)
        held = spec.nodes[int(rng.integers(len(spec.nodes)))].id
        evidence.pop(held, None)
        states = compile_network(spec).states[held]
        size = int(rng.integers(1, len(states) + 1))
        subset = [states[int(i)] for i in rng.permutation(len(states))[:size]]
        cases.append((spec, evidence, held, subset))
    for spec, evidence, held, subset in cases:
        # the one-state joints have disjoint support, so their sum is exact
        want = sum(joint_enumerate(spec, {**evidence, held: s}).values for s in subset)
        for value in (subset, set(subset), tuple(subset)):
            assert np.array_equal(joint_enumerate(spec, {**evidence, held: value}).values, want)
        assert joint_enumerate(spec, {held: []}).total() == 0.0


# --- elimination vs enumeration on random networks --------------------------

@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_elimination_matches_enumeration(seed):
    rng = np.random.default_rng(seed)
    spec = random_network(rng)
    net = compile_network(spec)
    evidence = random_evidence(rng, spec)
    joint = joint_enumerate(spec, evidence)
    for nid in net.node_ids:
        got = posterior(net, nid, evidence).probs
        expected = joint.distribution(nid).probs
        assert np.max(np.abs(got - expected)) < TOL


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_evidence_probability_matches_enumeration(seed):
    rng = np.random.default_rng(seed)
    spec = random_network(rng)
    net = compile_network(spec)
    evidence = random_evidence(rng, spec)
    assert evidence_probability(net, evidence) == pytest.approx(
        joint_enumerate(spec, evidence).total(), abs=TOL
    )


# --- pruning to the ancestral set --------------------------------------------

def record_contractions(monkeypatch):
    """Every `_contract` call, in call order, as the set of node axes it
    summed out (empty for a plain product)."""
    calls = []
    contract = tnbn.inference._contract

    def wrapper(factors, keep=None):
        out = contract(factors, keep)
        calls.append(set().union(*(f.scope for f in factors)) - set(out[0].scope))
        return out

    monkeypatch.setattr(tnbn.inference, "_contract", wrapper)
    return calls


def sum_outs(calls):
    return [summed for summed in calls if summed]


def ancestral_set(spec, nodes):
    return set(nodes) | spec.ancestors(nodes)


def test_queries_eliminate_only_their_ancestral_set(monkeypatch):
    calls = record_contractions(monkeypatch)
    for seed in range(30):
        rng = np.random.default_rng(seed)
        spec = random_network(rng, max_nodes=12)
        net = compile_network(spec)
        # N0 is always a root: its prior sums out N0 alone, as the last bucket
        calls.clear()
        posterior(net, "N0")
        assert len(sum_outs(calls)) == 1
        evidence = random_evidence(rng, spec, max_nodes=3)
        for nid in net.node_ids:
            if nid in evidence:
                continue
            calls.clear()
            posterior(net, nid, evidence)
            kept = ancestral_set(spec, {nid, *evidence})
            assert len(sum_outs(calls)) == len(kept) - len(evidence)
        calls.clear()
        evidence_probability(net, evidence)
        assert len(sum_outs(calls)) == len(ancestral_set(spec, evidence)) - len(evidence)


def descendants(spec, node_id):
    seen, frontier = set(), [node_id]
    while frontier:
        for c in spec.children(frontier.pop()):
            if c not in seen:
                seen.add(c)
                frontier.append(c)
    return seen


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_pruned_answers_match_enumeration_with_evidence_off_the_query_path(seed):
    # evidence only below the query, or only on nodes that are neither its
    # ancestors nor its descendants: the cases where pruning drops the most
    rng = np.random.default_rng(seed)
    spec = random_network(rng)
    net = compile_network(spec)
    for query in net.node_ids:
        below = descendants(spec, query)
        apart = set(net.node_ids) - below - ancestral_set(spec, {query})
        for pool in (below, apart):
            picked = sorted(pool)[: int(rng.integers(1, 3))]
            evidence = {
                nid: net.states[nid][int(rng.integers(len(net.states[nid])))]
                for nid in picked
            }
            joint = joint_enumerate(spec, evidence)
            got = posterior(net, query, evidence).probs
            assert np.max(np.abs(got - joint.distribution(query).probs)) <= 1e-12
            assert abs(evidence_probability(net, evidence) - joint.total()) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_marginals_match_enumeration(seed):
    rng = np.random.default_rng(seed)
    spec = random_network(rng)
    net = compile_network(spec)
    evidence = random_evidence(rng, spec, max_nodes=3)
    # any subset, evidence nodes included, in any order
    targets = [nid for nid in reversed(net.node_ids) if rng.random() < 0.6]
    got = marginals(net, iter(targets), evidence)
    assert list(got) == targets
    joint = joint_enumerate(spec, evidence)
    for nid, dist in got.items():
        assert dist.states == net.states[nid]
        assert np.max(np.abs(dist.probs - joint.distribution(nid).probs)) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_set_valued_evidence_matches_enumeration(seed):
    # one node restricted to a random non-empty subset of its states, plus
    # ordinary evidence elsewhere, against a sum of one-state oracle joints
    rng = np.random.default_rng(seed)
    spec = random_network(rng)
    net = compile_network(spec)
    evidence = random_evidence(rng, spec)
    held = net.node_ids[int(rng.integers(len(net.node_ids)))]
    evidence.pop(held, None)
    states = net.states[held]
    size = int(rng.integers(1, len(states) + 1))
    subset = [states[int(i)] for i in rng.choice(len(states), size=size, replace=False)]
    joints = [joint_enumerate(spec, {**evidence, held: s}) for s in subset]
    total = sum(j.total() for j in joints)
    restricted = {**evidence, held: subset}
    assert abs(evidence_probability(net, restricted) - total) <= 1e-12
    got = marginals(net, net.node_ids, restricted)
    for nid in net.node_ids:
        want = sum(j.marginal(nid) for j in joints) / total
        assert np.max(np.abs(posterior(net, nid, restricted).probs - want)) <= 1e-12
        assert np.max(np.abs(got[nid].probs - want)) <= 1e-12


# --- evidence relations on networks too large for the oracle ----------------------

def assert_same_answers(net, first, second):
    """Every node's marginal within 1e-12, and log P(e) within 1e-12 relative."""
    got, want = marginals(net, net.node_ids, first), marginals(net, net.node_ids, second)
    for nid in net.node_ids:
        assert np.max(np.abs(got[nid].probs - want[nid].probs)) <= 1e-12
    assert math.isclose(
        log_evidence_probability(net, first), log_evidence_probability(net, second),
        rel_tol=1e-12, abs_tol=1e-12,
    )


# Over seeds 0-2999, 50-150 nodes at this edge share build no product above
# 1.2M cells, well under FACTOR_SIZE_LIMIT.
@settings(max_examples=8, deadline=None)
@given(st.integers(min_value=0, max_value=2_999))
def test_single_state_and_set_evidence_obey_their_relations(seed):
    # single-state evidence reduces each factor, a set multiplies in a 0/1
    # mask: three relations between the two need no oracle
    rng = np.random.default_rng(seed)
    net = compile_network(random_network(rng, n_nodes=int(rng.integers(50, 151)), edge_share=0.01))
    ids = list(net.node_ids)
    x, *others = [ids[int(i)] for i in rng.choice(len(ids), size=5, replace=False)]
    # mixed evidence elsewhere: single states, and one set of states
    evidence = {nid: net.states[nid][int(rng.integers(len(net.states[nid])))] for nid in others[1:]}
    evidence[others[0]] = list(net.states[others[0]][1:])
    states = net.states[x]
    s = states[int(rng.integers(len(states)))]
    assert_same_answers(net, {**evidence, x: s}, {**evidence, x: [s]})
    assert_same_answers(net, {**evidence, x: list(states)}, evidence)
    # P(e, X in A or B) = P(e, X in A) + P(e, X in B) for disjoint non-empty A, B
    order = [states[int(i)] for i in rng.permutation(len(states))]
    cut = int(rng.integers(1, len(states)))
    a, b = order[:cut], order[cut:]
    both = log_evidence_probability(net, {**evidence, x: a + b})
    parts = np.logaddexp(
        log_evidence_probability(net, {**evidence, x: a}),
        log_evidence_probability(net, {**evidence, x: b}),
    )
    assert math.isclose(both, parts, rel_tol=1e-12, abs_tol=1e-12)


def _hard_evidence(rng, net, count):
    """`count` nodes at their states in one sampled world, so P(e) > 0."""
    world = sample_trajectory(net, int(rng.integers(2**32)))
    ids = [net.node_ids[int(i)] for i in rng.choice(len(net.node_ids), size=count, replace=False)]
    return {nid: world.state_of(nid) for nid in ids}


# Seed 3 is left out: its all-node marginals trip FactorSizeError.
@pytest.mark.parametrize("seed", [0, 1, 2, 4, 5, 6, 7, 8, 9, 10, 11])
def test_declaration_order_changes_no_answer(seed):
    # a permuted node list gives other axes, ties and elimination orders,
    # yet the same marginals and log P(e)
    rng = np.random.default_rng(seed)
    spec = random_network(rng, n_nodes=120, edge_share=0.02)
    net = compile_network(spec)
    evidence = _hard_evidence(rng, net, 6)
    want = marginals(net, net.node_ids, evidence)
    log_z = log_evidence_probability(net, evidence)
    for _ in range(2):
        nodes = tuple(spec.nodes[int(i)] for i in rng.permutation(len(spec.nodes)))
        other = compile_network(NetworkSpec(spec.name, spec.time_unit, nodes, spec.edges, spec.tables))
        assert other.node_ids != net.node_ids
        got = marginals(other, other.node_ids, evidence)
        for nid in net.node_ids:
            assert np.max(np.abs(got[nid].probs - want[nid].probs)) <= 1e-12
        assert math.isclose(log_evidence_probability(other, evidence), log_z, rel_tol=1e-12, abs_tol=1e-12)


@pytest.mark.parametrize("seed", range(4))
def test_a_barren_node_changes_no_answer(seed, accident_spec):
    # an unobserved node with no child is pruned from every query that does
    # not target it: appended as a child or unconnected, it changes no bit
    rng = np.random.default_rng(seed)
    spec = accident_spec if seed == 0 else random_network(rng, n_nodes=60, edge_share=0.05)
    net = compile_network(spec)
    parent = net.node_ids[int(rng.integers(len(net.node_ids)))]
    two = ("a", "b")
    barren = NetworkSpec(
        spec.name,
        spec.time_unit,
        spec.nodes + (NodeSpec("CHILD", NodeKind.INSTANTANEOUS, two), NodeSpec("LONE", NodeKind.INSTANTANEOUS, two)),
        spec.edges + ((parent, "CHILD"),),
        {
            **spec.tables,
            "CHILD": ConditionalTable(
                "CHILD", (parent,), {(s,): tuple(rng.dirichlet(np.ones(2))) for s in net.states[parent]}
            ),
            "LONE": ConditionalTable("LONE", (), {(): (0.25, 0.75)}),
        },
    )
    bigger = compile_network(barren)
    for count in (0, 1, 3):
        evidence = _hard_evidence(rng, net, count)
        got, want = marginals(bigger, net.node_ids, evidence), marginals(net, net.node_ids, evidence)
        assert all(np.array_equal(got[nid].probs, want[nid].probs) for nid in net.node_ids)
        assert log_evidence_probability(bigger, evidence) == log_evidence_probability(net, evidence)
        assert np.array_equal(posterior(bigger, parent, evidence).probs, posterior(net, parent, evidence).probs)


def test_marginals_eliminate_from_the_ancestral_set_of_all_targets(monkeypatch):
    calls = record_contractions(monkeypatch)
    for seed in range(30):
        rng = np.random.default_rng(seed)
        spec = random_network(rng, max_nodes=12)
        net = compile_network(spec)
        evidence = random_evidence(rng, spec, max_nodes=3)
        targets = [nid for nid in net.node_ids if nid not in evidence and rng.random() < 0.5]
        calls.clear()
        marginals(net, targets, evidence)
        kept = ancestral_set(spec, {*targets, *evidence})
        unobserved = {net.index(nid) for nid in kept - set(evidence)}
        # one forward pass sums out every kept unobserved variable once, the
        # first target last, however many targets there are; the backward
        # pass runs after it and only for more than one target
        summed = sum_outs(calls)
        if not targets:
            assert summed == []
            continue
        forward = summed[: len(unobserved)]
        assert len(forward) == len(unobserved) and all(len(s) == 1 for s in forward)
        assert set().union(*forward) == unobserved
        assert forward[-1] == {net.index(targets[0])}
        if len(targets) == 1:
            assert summed == forward


def reference_order(spec, net, targets, evidence):
    """The forward elimination order by a plain rescan of the current
    scopes: the kept CPTs less the evidence axes; each step takes the
    variable with the fewest neighbours, the lowest index on ties, and the
    first target only when nothing else is left."""
    observed = {net.index(nid) for nid in evidence}
    scopes = []
    for nid in ancestral_set(spec, {*targets, *evidence}):
        scope = {net.index(nid), *(net.index(p) for p in spec.parents(nid))} - observed
        if scope:
            scopes.append(scope)
    first = net.index(targets[0]) if targets else None
    order = []
    while scopes:
        candidates = set().union(*scopes)
        if len(candidates) > 1:
            candidates.discard(first)

        def degree(v):
            return len(set().union(*(s for s in scopes if v in s)) - {v})

        v = min(sorted(candidates), key=degree)
        rest = set().union(*(s for s in scopes if v in s)) - {v}
        scopes = [s for s in scopes if v not in s] + ([rest] if rest else [])
        order.append(v)
    return order


def test_elimination_follows_min_degree_with_the_first_target_last(monkeypatch):
    calls = record_contractions(monkeypatch)
    for seed in range(30):
        rng = np.random.default_rng(500 + seed)
        spec = random_network(rng, max_nodes=12)
        net = compile_network(spec)
        evidence = random_evidence(rng, spec, max_nodes=3)
        free = [nid for nid in net.node_ids if nid not in evidence]
        targets = [free[int(i)] for i in rng.permutation(len(free)) if rng.random() < 0.5]
        queries = [([], lambda: log_evidence_probability(net, evidence))]
        if targets:
            queries.append((targets, lambda: marginals(net, targets, evidence)))
        for wanted, query in queries:
            calls.clear()
            query()
            want = [{v} for v in reference_order(spec, net, wanted, evidence)]
            # the forward steps come first, one variable each; only more than
            # one target adds a backward pass after them
            summed = sum_outs(calls)
            assert summed[: len(want)] == want
            if len(wanted) <= 1:
                assert summed == want


def test_a_plan_depends_only_on_which_nodes_hold_evidence(monkeypatch):
    plans = []
    plan = tnbn.inference._plan
    monkeypatch.setattr(
        tnbn.inference, "_plan", lambda *args: plans.append(plan(*args)) or plans[-1]
    )
    for seed in range(30):
        rng = np.random.default_rng(700 + seed)
        net = compile_network(random_network(rng, max_nodes=12))
        nodes = list(net.node_ids)
        held = nodes.pop(int(rng.integers(len(nodes))))
        observed = [nid for nid in nodes if rng.random() < 0.4]
        targets = [held] + [nid for nid in nodes if nid not in observed]
        # the same nodes observed in two different states each (every node
        # has at least two), and two different sets of states on `held`
        seen = []
        for first in (0, 1):
            evidence = {nid: net.states[nid][first] for nid in observed}
            evidence[held] = net.states[held][first:]
            plans.clear()
            marginals(net, targets, evidence)
            log_evidence_probability(net, evidence)
            seen.append(plans[:])
        assert len(seen[0]) == 2
        assert seen[0] == seen[1]


def test_marginals_errors_and_point_masses(accident_net):
    assert marginals(accident_net, []) == {}
    got = marginals(accident_net, ["C", "HI"], {"C": NodeState("moderate")})
    assert list(got["C"].probs) == [0.0, 1.0, 0.0]
    assert list(got["HI"].probs) == list(posterior(accident_net, "HI", {"C": NodeState("moderate")}).probs)
    with pytest.raises(UnknownNodeError):
        marginals(accident_net, ["C", "XX"])
    bad = {"HI": NodeState("true"), "VS": NodeState("unstable", 1)}
    with pytest.raises(ZeroProbabilityEvidenceError):
        marginals(accident_net, ["C"], bad)
    # every target observed: the evidence is still checked
    with pytest.raises(ZeroProbabilityEvidenceError):
        marginals(accident_net, ["HI"], bad)
    with pytest.raises(ZeroProbabilityEvidenceError):
        marginals(accident_net, ["VS", "HI"], bad)


def test_marginals_refuses_a_string_of_targets(accident_net):
    # "HI" would otherwise ask for nodes H and I
    with pytest.raises(TypeError, match="list of node ids"):
        marginals(accident_net, "HI")
    with pytest.raises(TypeError):
        marginals(accident_net, "")
    assert list(marginals(accident_net, ("HI",))) == ["HI"]


def test_factor_size_guard_trips_before_any_product(accident_net, monkeypatch):
    calls = record_contractions(monkeypatch)
    # VS's ancestral set is C, HI, IB, VS; min-degree elimination takes C
    # first, building a factor over C, HI and IB: 3 * 2 * 3 = 18 cells
    monkeypatch.setattr(tnbn.inference, "FACTOR_SIZE_LIMIT", 17)
    with pytest.raises(FactorSizeError) as info:
        posterior(accident_net, "VS")
    assert (info.value.node, info.value.width, info.value.cells) == ("C", 3, 18)
    assert str(info.value) == (
        "eliminating node 'C' would build a factor over 3 nodes with 18 cells (limit 17)"
    )
    assert calls == []
    # with single-state evidence on PD the same step trips, before any factor
    # is multiplied; by then PD's CPT is reduced only as a view, not a copy
    pd = accident_net.index("PD")
    planned = []
    plan = tnbn.inference._plan

    def hook(net, slots, free):
        (reduced,) = [f for f in slots if f.scope == (accident_net.index("HI"),)]
        assert np.shares_memory(reduced.values, net.factors[pd].values)
        planned.append(free)
        return plan(net, slots, free)

    monkeypatch.setattr(tnbn.inference, "_plan", hook)
    with pytest.raises(FactorSizeError) as info:
        posterior(accident_net, "VS", {"PD": NodeState("dilated", 0)})
    assert (info.value.node, info.value.cells) == ("C", 18)
    assert calls == [] and len(planned) == 1
    monkeypatch.setattr(tnbn.inference, "_plan", plan)
    # the root C's prior never touches its barren descendants, so it answers
    assert posterior(accident_net, "C").p(NodeState("severe")) == pytest.approx(0.368, abs=TOL)
    # the largest factor is the next step's, over HI, IB and VS: 2 * 3 * 4
    monkeypatch.setattr(tnbn.inference, "FACTOR_SIZE_LIMIT", 24)
    assert float(posterior(accident_net, "VS").probs.sum()) == pytest.approx(1.0, abs=TOL)


# --- evidence too unlikely for a float ------------------------------------------

def least_likely_evidence(net):
    """Every node at the least likely state of its CPT row, given the states
    already chosen for its parents, and the log of each chosen entry."""
    evidence, logs = {}, {}
    for nid in net.topo:
        table = net.spec.tables[nid]
        row = table.rows[tuple(evidence[p] for p in table.parent_order)]
        j = int(np.argmin(row))
        evidence[nid] = net.states[nid][j]
        logs[nid] = math.log(row[j])
    return evidence, logs


def hidden_log_weights(net, hidden, evidence):
    """For every joint state of the hidden nodes (one axis each, in order),
    the sum of the logs of the CPT entries of the hidden nodes and their
    children, every other node read from evidence: no joint table needed."""
    spec = net.spec
    touched = dict.fromkeys([*hidden, *(c for h in hidden for c in spec.children(h))])
    out = np.empty([len(net.states[h]) for h in hidden])
    for at in np.ndindex(out.shape):
        states = {**evidence, **{h: net.states[h][i] for h, i in zip(hidden, at)}}
        total = 0.0
        for nid in touched:
            row = spec.tables[nid].rows[tuple(states[p] for p in spec.tables[nid].parent_order)]
            total += math.log(row[net.positions[nid][states[nid]]])
        out[at] = total
    return out


def log_sum_exp(x):
    top = float(np.max(x))
    return top + math.log(float(np.exp(x - top).sum()))


@pytest.fixture(scope="module")
def wide_net():
    spec = random_network(np.random.default_rng(400), n_nodes=420, edge_share=0.02)
    return compile_network(spec)


def test_log_evidence_probability_is_the_sum_of_the_logs_of_the_entries_used(wide_net):
    evidence, logs = least_likely_evidence(wide_net)
    want = sum(logs.values())
    assert math.exp(want) == 0.0  # far below the smallest float
    got = log_evidence_probability(wide_net, evidence)
    assert got == pytest.approx(want, rel=1e-9)
    assert evidence_probability(wide_net, evidence) == 0.0
    assert log_evidence_probability(wide_net, {}) == 0.0
    assert log_evidence_probability(wide_net, {"N3": ()}) == -math.inf


def test_posteriors_under_underflowing_evidence_match_the_markov_blanket(wide_net):
    spec = wide_net.spec
    evidence, logs = least_likely_evidence(wide_net)
    # unobserved nodes none of which lies in another's Markov blanket, so
    # each blanket is fully observed
    hidden: list[str] = []
    blocked: set[str] = set()
    for nid in reversed(wide_net.node_ids):
        children = spec.children(nid)
        blanket = set(spec.parents(nid)) | set(children)
        for c in children:
            blanket.update(spec.parents(c))
        if nid not in blocked and not blanket & set(hidden):
            hidden.append(nid)
            blocked |= blanket
        if len(hidden) == 12:
            break
    assert len(hidden) == 12
    rest = {nid: s for nid, s in evidence.items() if nid not in hidden}
    got = marginals(wide_net, hidden, rest)
    assert list(got) == hidden
    want_log = sum(
        logs[nid] for nid in wide_net.node_ids
        if nid not in hidden and not set(spec.parents(nid)) & set(hidden)
    )
    for nid in hidden:
        weights = hidden_log_weights(wide_net, [nid], rest)
        want_log += log_sum_exp(weights)
        want = np.exp(weights - log_sum_exp(weights))
        assert np.max(np.abs(got[nid].probs - want)) <= 1e-12
        alone = {k: s for k, s in evidence.items() if k != nid}
        assert np.max(np.abs(posterior(wide_net, nid, alone).probs - want)) <= 1e-12
    assert math.exp(want_log) == 0.0
    assert log_evidence_probability(wide_net, rest) == pytest.approx(want_log, rel=1e-9)


def test_messages_between_hidden_hubs_carry_their_scale_as_a_log():
    # the three first nodes are parents of most others, so with every other
    # node observed, the messages among them carry about 900 nats of evidence
    spec = random_network(np.random.default_rng(401), n_nodes=700)
    net = compile_network(spec)
    evidence, logs = least_likely_evidence(net)
    hubs = ["N0", "N1", "N2"]
    rest = {nid: s for nid, s in evidence.items() if nid not in hubs}
    weights = hidden_log_weights(net, hubs, rest)
    touched = set(hubs).union(*(spec.children(h) for h in hubs))
    assert math.exp(log_sum_exp(weights)) == 0.0
    want_log = log_sum_exp(weights) + sum(logs[n] for n in net.node_ids if n not in touched)
    assert log_evidence_probability(net, rest) == pytest.approx(want_log, rel=1e-9)
    joint = np.exp(weights - log_sum_exp(weights))
    got = marginals(net, hubs, rest)
    for ax, nid in enumerate(hubs):
        want = joint.sum(axis=tuple(a for a in range(len(hubs)) if a != ax))
        assert np.max(np.abs(got[nid].probs - want)) <= 1e-12
        assert np.max(np.abs(posterior(net, nid, rest).probs - want)) <= 1e-12


# --- many small factors in one bucket -------------------------------------------

def hub_network(n, hubs, p_y):
    """Roots H0, H1, ... (states a, b; prior 0.5/0.5) and n children C0, C1,
    ..., each a child of every hub with P(C=y | hubs) = p_y[hub states], plus
    one more child F of H0 alone; every C is observed at y."""
    yn = ("y", "n")
    hub_nodes = [NodeSpec(f"H{i}", NodeKind.INSTANTANEOUS, ("a", "b")) for i in range(hubs)]
    children = [NodeSpec(f"C{j}", NodeKind.INSTANTANEOUS, yn) for j in range(n)]
    free = NodeSpec("F", NodeKind.INSTANTANEOUS, yn)
    hub_ids = tuple(h.id for h in hub_nodes)
    keys = list(itertools.product(*[h.values for h in hub_nodes]))
    tables = {h.id: ConditionalTable(h.id, (), {(): (0.5, 0.5)}) for h in hub_nodes}
    rows = {tuple(map(NodeState, k)): (p_y[k], 1.0 - p_y[k]) for k in keys}
    for c in children:
        tables[c.id] = ConditionalTable(c.id, hub_ids, rows)
    tables["F"] = ConditionalTable(
        "F", ("H0",), {(NodeState("a"),): (0.3, 0.7), (NodeState("b"),): (0.6, 0.4)}
    )
    edges = [(h, c.id) for c in children for h in hub_ids] + [("H0", "F")]
    spec = NetworkSpec("hubs", "unit", (*hub_nodes, *children, free), tuple(edges), tables)
    evidence = {c.id: NodeState("y") for c in children}
    # the exact log weight of each joint hub state, and its log P(e) share
    log_w = {k: hubs * math.log(0.5) + n * math.log(p_y[k]) for k in keys}
    return compile_network(spec), evidence, log_w


def assert_exact(net, evidence, log_w, hubs):
    top = max(log_w.values())
    ratio = {k: math.exp(w - top) for k, w in log_w.items()}
    total = math.fsum(ratio.values())
    want_log = top + math.log(total)
    got = log_evidence_probability(net, evidence)
    assert abs(got - want_log) <= 1e-12 * abs(want_log)
    want = {
        f"H{i}": np.array([
            math.fsum(r for k, r in ratio.items() if k[i] == s) / total for s in ("a", "b")
        ])
        for i in range(hubs)
    }
    want["F"] = np.array([0.3, 0.7]) * want["H0"][0] + np.array([0.6, 0.4]) * want["H0"][1]
    for h in want:
        if h != "F":
            assert np.max(np.abs(posterior(net, h, evidence).probs - want[h])) <= 1e-12
    # each hub among several targets, next to a child left free, in both
    # orders, so a hub is summed out last once and reached backward once
    for targets in (list(want), list(reversed(want))):
        got = marginals(net, targets, evidence)
        for t in targets:
            assert np.max(np.abs(got[t].probs - want[t])) <= 1e-12


@pytest.mark.parametrize("n", [60, 64, 80, 200, 2000])
def test_many_small_factors_in_one_bucket_stay_exact(n):
    # each finding is nearly as likely under either state of the hub, so
    # P(e) drops by about 1e-5 per child while the posterior stays moderate
    net, evidence, log_w = hub_network(n, 1, {("a",): 1e-5, ("b",): 1.001e-5})
    assert_exact(net, evidence, log_w, 1)


def test_many_small_equal_factors_give_a_finite_log_evidence():
    net, evidence, log_w = hub_network(80, 1, {("a",): 1e-5, ("b",): 1e-5})
    assert log_evidence_probability(net, evidence) == pytest.approx(80 * math.log(1e-5), rel=1e-12)
    assert_exact(net, evidence, log_w, 1)


@pytest.mark.parametrize("n", [64, 200, 2000])
def test_many_small_factors_over_two_hubs_stay_exact(n):
    # every child factor is over both hubs, so the bucket products have two axes
    p_y = {("a", "a"): 1e-5, ("a", "b"): 1.001e-5, ("b", "a"): 1.002e-5, ("b", "b"): 0.999e-5}
    net, evidence, log_w = hub_network(n, 2, p_y)
    assert_exact(net, evidence, log_w, 2)
