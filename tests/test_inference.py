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
    TimeInterval,
    UnknownNodeError,
    UnknownStateError,
    ZeroProbabilityEvidenceError,
    compile_network,
    evidence_probability,
    joint_enumerate,
    marginals,
    posterior,
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


def test_unknown_query_nodes_and_states(accident_net):
    with pytest.raises(UnknownNodeError):
        posterior(accident_net, "XX")
    with pytest.raises(UnknownNodeError):
        posterior(accident_net, "C", {"XX": NodeState("y")})
    with pytest.raises(UnknownStateError) as info:
        posterior(accident_net, "C", {"VS": NodeState("unstable")})
    assert "unstable@[0,10]" in str(info.value)


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

def count_factor_ops(monkeypatch):
    counts = {"sum_out": 0, "multiply": 0}

    def counted(name, fn):
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(tnbn.inference, "_sum_out", counted("sum_out", tnbn.inference._sum_out))
    monkeypatch.setattr(tnbn.inference, "_multiply", counted("multiply", tnbn.inference._multiply))
    return counts


def ancestral_set(spec, nodes):
    return set(nodes) | spec.ancestors(nodes)


def test_queries_eliminate_only_their_ancestral_set(monkeypatch):
    counts = count_factor_ops(monkeypatch)
    for seed in range(30):
        rng = np.random.default_rng(seed)
        spec = random_network(rng, max_nodes=12)
        net = compile_network(spec)
        # N0 is always a root: its prior needs no elimination at all
        counts["sum_out"] = 0
        posterior(net, "N0")
        assert counts["sum_out"] == 0
        evidence = random_evidence(rng, spec, max_nodes=3)
        for nid in net.node_ids:
            if nid in evidence:
                continue
            counts["sum_out"] = 0
            posterior(net, nid, evidence)
            kept = ancestral_set(spec, {nid, *evidence})
            assert counts["sum_out"] == len(kept) - 1 - len(evidence)
        counts["sum_out"] = 0
        evidence_probability(net, evidence)
        assert counts["sum_out"] == len(ancestral_set(spec, evidence)) - len(evidence)


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


def test_marginals_eliminate_from_the_ancestral_set_of_all_targets(monkeypatch):
    counts = count_factor_ops(monkeypatch)
    for seed in range(30):
        rng = np.random.default_rng(seed)
        spec = random_network(rng, max_nodes=12)
        net = compile_network(spec)
        evidence = random_evidence(rng, spec, max_nodes=3)
        targets = [nid for nid in net.node_ids if nid not in evidence and rng.random() < 0.5]
        counts["sum_out"] = 0
        marginals(net, targets, evidence)
        kept = ancestral_set(spec, {*targets, *evidence})
        assert counts["sum_out"] == len(targets) * (len(kept) - 1 - len(evidence))


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


def test_factor_size_guard_trips_before_any_product(accident_net, monkeypatch):
    counts = count_factor_ops(monkeypatch)
    # VS's ancestral set is C, HI, IB, VS; min-degree elimination takes C
    # first, building a factor over C, HI and IB: 3 * 2 * 3 = 18 cells
    monkeypatch.setattr(tnbn.inference, "FACTOR_SIZE_LIMIT", 17)
    with pytest.raises(FactorSizeError) as info:
        posterior(accident_net, "VS")
    assert (info.value.node, info.value.width, info.value.cells) == ("C", 3, 18)
    assert str(info.value) == (
        "eliminating node 'C' would build a factor over 3 nodes with 18 cells (limit 17)"
    )
    assert counts == {"sum_out": 0, "multiply": 0}
    # the root C's prior never touches its barren descendants, so it answers
    assert posterior(accident_net, "C").p(NodeState("severe")) == pytest.approx(0.368, abs=TOL)
    # the largest factor is the next step's, over HI, IB and VS: 2 * 3 * 4
    monkeypatch.setattr(tnbn.inference, "FACTOR_SIZE_LIMIT", 24)
    assert float(posterior(accident_net, "VS").probs.sum()) == pytest.approx(1.0, abs=TOL)
