import time

import numpy as np
import pytest
from hypothesis import given, strategies as st

from tnbn import (
    AllenRelation,
    ConditionalTable,
    InvalidNetworkError,
    NetworkSpec,
    NodeKind,
    NodeSpec,
    NodeState,
    RangeOverflowError,
    TimeInterval,
    UnknownNodeError,
    UnknownStateError,
    allen_relation,
    compile_network,
    interval_layout,
    resolve_interval,
    state_enumeration,
    toposort,
    validate,
)
from tnbn.model import format_time

from netgen import random_network


def iv(lo, hi):
    return TimeInterval(lo, hi)


# --- Allen relations ------------------------------------------------------

def test_allen_relation_on_a_three_interval_layout():
    rng = iv(0, 60)
    assert allen_relation(rng, iv(0, 10)) is AllenRelation.SI
    assert allen_relation(rng, iv(10, 30)) is AllenRelation.DI
    assert allen_relation(rng, iv(30, 60)) is AllenRelation.FI
    assert allen_relation(iv(0, 10), iv(10, 30)) is AllenRelation.M
    assert allen_relation(iv(10, 30), iv(30, 60)) is AllenRelation.M


def test_allen_relation_none_cases():
    assert allen_relation(iv(0, 10), iv(0, 10)) is AllenRelation.NONE
    assert allen_relation(iv(0, 10), iv(5, 15)) is AllenRelation.NONE
    assert allen_relation(iv(0, 10), iv(20, 30)) is AllenRelation.NONE
    # contained but sharing neither endpoint
    assert allen_relation(iv(5, 7), iv(0, 10)) is AllenRelation.NONE


def test_allen_relations_are_mutually_exclusive():
    # meets beats nothing else: [0,10] meets [10,30] and relates no other way
    assert allen_relation(iv(0, 10), iv(10, 30)) is AllenRelation.M
    assert allen_relation(iv(10, 30), iv(0, 10)) is AllenRelation.NONE


def test_interval_layout_of_fixture_nodes(accident_spec):
    vs = interval_layout(accident_spec.node("VS"))
    assert vs.range_relations == (AllenRelation.SI, AllenRelation.DI, AllenRelation.FI)
    assert vs.adjacent_relations == (AllenRelation.M, AllenRelation.M)
    pd = interval_layout(accident_spec.node("PD"))
    assert pd.range_relations == (AllenRelation.SI, AllenRelation.FI)
    assert pd.adjacent_relations == (AllenRelation.M,)


def test_interval_layout_of_instantaneous_node_is_empty(accident_spec):
    layout = interval_layout(accident_spec.node("C"))
    assert layout.range_relations == ()
    assert layout.adjacent_relations == ()


# --- interval resolution --------------------------------------------------

def test_resolve_interval_interior_points(accident_spec):
    vs = accident_spec.node("VS")
    assert resolve_interval(vs, 0) == 0
    assert resolve_interval(vs, 9.99) == 0
    assert resolve_interval(vs, 15) == 1
    assert resolve_interval(vs, 45) == 2


def test_resolve_interval_shared_bound_goes_to_the_later_interval(accident_spec):
    # bounds are half open: 10 belongs to [10,30], not [0,10]
    vs = accident_spec.node("VS")
    assert resolve_interval(vs, 10) == 1
    assert resolve_interval(vs, 30) == 2


def test_resolve_interval_last_interval_is_closed(accident_spec):
    vs = accident_spec.node("VS")
    assert resolve_interval(vs, 60) == 2


def test_resolve_interval_overflow(accident_spec):
    vs = accident_spec.node("VS")
    with pytest.raises(RangeOverflowError):
        resolve_interval(vs, 60.0001)
    with pytest.raises(RangeOverflowError):
        resolve_interval(vs, 1000)


def test_resolve_interval_rejects_negative_and_instantaneous(accident_spec):
    with pytest.raises(ValueError):
        resolve_interval(accident_spec.node("VS"), -1)
    with pytest.raises(ValueError):
        resolve_interval(accident_spec.node("C"), 5)


def test_resolve_interval_range_not_starting_at_zero():
    node = NodeSpec(
        "X", NodeKind.TEMPORAL, ("on",), "off", (iv(5, 8), iv(8, 12))
    )
    with pytest.raises(RangeOverflowError):
        resolve_interval(node, 2)
    assert resolve_interval(node, 5) == 0
    assert resolve_interval(node, 8) == 1
    assert resolve_interval(node, 12) == 1


# --- state enumeration ----------------------------------------------------

def test_state_enumeration_temporal_default_first(accident_spec):
    vs = accident_spec.node("VS")
    assert state_enumeration(vs) == (
        NodeState("normal"),
        NodeState("unstable", 0),
        NodeState("unstable", 1),
        NodeState("unstable", 2),
    )


def test_state_enumeration_instantaneous_without_default(accident_spec):
    c = accident_spec.node("C")
    assert state_enumeration(c) == (
        NodeState("severe"),
        NodeState("moderate"),
        NodeState("mild"),
    )


def test_state_enumeration_instantaneous_with_default():
    node = NodeSpec("S", NodeKind.INSTANTANEOUS, ("lit",), default_value="dark")
    assert state_enumeration(node) == (NodeState("dark"), NodeState("lit"))


def test_state_enumeration_rejects_broken_nodes():
    with pytest.raises(ValueError):
        state_enumeration(NodeSpec("T", NodeKind.TEMPORAL, ("x",), None, (iv(0, 1),)))
    with pytest.raises(ValueError):
        state_enumeration(NodeSpec("T", NodeKind.TEMPORAL, ("x",), "base", ()))


def test_state_labels_round_trip(accident_spec):
    vs = accident_spec.node("VS")
    for state in state_enumeration(vs):
        assert vs.parse_state_label(vs.state_label(state)) == state
    assert vs.state_label(NodeState("unstable", 1)) == "unstable@[10,30]"
    assert vs.parse_state_label("unstable@[10, 30]") == NodeState("unstable", 1)


def test_a_huge_whole_time_keeps_the_exponent_form():
    assert [format_time(t) for t in (0.0, 100, -3.0, 2.5, 9999999999999998.0)] == [
        "0", "100", "-3", "2.5", "9999999999999998",
    ]
    assert [format_time(t) for t in (1e16, -1e16, 1.5e17, 1e308)] == ["1e+16", "-1e+16", "1.5e+17", "1e+308"]
    # such a bound's label takes the exponent form, and any spelling loads by value
    node = NodeSpec("T", NodeKind.TEMPORAL, ("x",), "base", (iv(0, 1e20), iv(1e20, 1e308)))
    state = NodeState("x", 1)
    assert node.state_label(state) == "x@[1e+20,1e+308]"
    assert node.parse_state_label(node.state_label(state)) == state
    assert node.parse_state_label("x@[100000000000000000000, 1e308]") == state


def test_parse_state_label_rejects_unknown(accident_spec):
    vs = accident_spec.node("VS")
    with pytest.raises(UnknownStateError) as info:
        vs.parse_state_label("unstable@[5,9]")
    assert "unstable@[0,10]" in str(info.value)
    with pytest.raises(UnknownStateError):
        vs.parse_state_label("wobbly")
    with pytest.raises(UnknownStateError):
        accident_spec.node("C").parse_state_label("severe@[0,10]")


# --- network helpers ------------------------------------------------------

def test_network_lookup_helpers(accident_spec):
    assert accident_spec.parents("VS") == ("HI", "IB")
    assert accident_spec.children("C") == ("HI", "IB")
    assert accident_spec.ancestors(["VS"]) == {"C", "HI", "IB"}
    assert accident_spec.ancestors(["C"]) == set()
    with pytest.raises(UnknownNodeError):
        accident_spec.node("nope")


def test_parents_and_children_follow_edge_order_with_duplicates():
    edges = (("Z", "B"), ("A", "B"), ("A", "B"), ("A", "Z"), ("B", "A"))
    spec = _tiny_net(edges=edges)
    for nid in ("A", "B", "Z", "nope"):
        assert spec.parents(nid) == tuple(p for p, c in edges if c == nid)
        assert spec.children(nid) == tuple(c for p, c in edges if p == nid)
    assert spec.parents("B") == ("Z", "A", "A")
    assert spec.children("nope") == ()
    msgs = _messages(spec)
    assert any("edge declared more than once" in m for m in msgs)
    assert any("not a declared node" in m for m in msgs)


def test_toposort_declaration_order_breaks_ties(accident_spec):
    assert toposort(accident_spec) == ("C", "HI", "IB", "PD", "VS")


def _toposort_by_list_index(spec):
    """Reference order: ready nodes re-sorted by `ids.index` after every step."""
    ids = spec.node_ids()
    known = set(ids)
    indeg = {i: 0 for i in ids}
    for p, c in spec.edges:
        if p in known and c in known:
            indeg[c] += 1
    order = []
    ready = [i for i in ids if indeg[i] == 0]
    while ready:
        current = ready.pop(0)
        order.append(current)
        for child in spec.children(current):
            if child in known:
                indeg[child] -= 1
                if indeg[child] == 0:
                    ready.append(child)
        ready.sort(key=ids.index)
    return tuple(order) if len(order) == len(ids) else None


def test_toposort_ranks_a_duplicated_id_at_its_first_occurrence():
    x, b, c = (NodeSpec(i, NodeKind.INSTANTANEOUS, ("y", "n")) for i in "XBC")
    spec = NetworkSpec("dup", "hour", (x, b, c, b), (("X", "C"),), {})
    # B (first declared at 1) goes before C (at 2), though B is also declared at 3
    assert toposort(spec) == ("X", "B", "B", "C") == _toposort_by_list_index(spec)


def test_toposort_matches_list_index_tie_breaks_on_shuffled_declarations():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        spec = random_network(rng, max_nodes=12)
        nodes = tuple(spec.nodes[i] for i in rng.permutation(len(spec.nodes)))
        shuffled = NetworkSpec(spec.name, spec.time_unit, nodes, spec.edges, spec.tables)
        assert toposort(shuffled) == _toposort_by_list_index(shuffled) is not None


# --- validation -----------------------------------------------------------

def test_fixture_network_validates_clean(accident_spec):
    assert validate(accident_spec) == []


def _tiny_net(**overrides):
    """Two-node valid network to mutate in validation tests."""
    a = NodeSpec("A", NodeKind.INSTANTANEOUS, ("y", "n"))
    b = NodeSpec("B", NodeKind.TEMPORAL, ("hot",), "cold", (iv(0, 2), iv(2, 5)))
    fields = dict(
        name="tiny",
        time_unit="hour",
        nodes=(a, b),
        edges=(("A", "B"),),
        tables={
            "A": ConditionalTable("A", (), {(): (0.3, 0.7)}),
            "B": ConditionalTable(
                "B",
                ("A",),
                {
                    (NodeState("y"),): (0.2, 0.5, 0.3),
                    (NodeState("n"),): (0.9, 0.05, 0.05),
                },
            ),
        },
    )
    fields.update(overrides)
    return NetworkSpec(**fields)


def _messages(spec):
    return [str(v) for v in validate(spec)]


def test_tiny_net_is_valid():
    assert validate(_tiny_net()) == []


def test_validate_interval_gap():
    bad = NodeSpec("B", NodeKind.TEMPORAL, ("hot",), "cold", (iv(0, 2), iv(3, 5)))
    node_msgs = [m for m in _messages(_tiny_net(nodes=(_tiny_net().nodes[0], bad)))
                 if m.startswith("node B")]
    assert len(node_msgs) == 1
    assert "meet" in node_msgs[0]


def test_validate_interval_overlap():
    bad = NodeSpec("B", NodeKind.TEMPORAL, ("hot",), "cold", (iv(0, 3), iv(2, 5)))
    msgs = _messages(_tiny_net(nodes=(_tiny_net().nodes[0], bad)))
    assert any("meet" in m for m in msgs)


def test_validate_unsorted_intervals():
    bad = NodeSpec("B", NodeKind.TEMPORAL, ("hot",), "cold", (iv(2, 5), iv(0, 2)))
    msgs = _messages(_tiny_net(nodes=(_tiny_net().nodes[0], bad)))
    assert any("sorted" in m for m in msgs)


def test_validate_empty_or_negative_interval():
    base = _tiny_net().nodes[0]
    bad = NodeSpec("B", NodeKind.TEMPORAL, ("hot",), "cold", (iv(2, 2), iv(2, 5)))
    assert any("empty or reversed" in m for m in _messages(_tiny_net(nodes=(base, bad))))
    bad = NodeSpec("B", NodeKind.TEMPORAL, ("hot",), "cold", (iv(-1, 2), iv(2, 5)))
    assert any("before time 0" in m for m in _messages(_tiny_net(nodes=(base, bad))))


def test_a_bound_too_large_for_a_float_is_one_violation():
    # an int bound past the float range: no OverflowError, and no text of it
    base = _tiny_net().nodes[0]
    bad = NodeSpec("B", NodeKind.TEMPORAL, ("hot",), "cold", (iv(0, 10), iv(10, 10**400)))
    spec = _tiny_net(nodes=(base, bad))
    assert _messages(spec) == ["node B: interval 2 (counting from 1) has a bound too large for a float"]
    with pytest.raises(InvalidNetworkError, match="too large for a float"):
        compile_network(spec)


def test_intervals_empty_as_floats_are_empty():
    # distinct ints that round to one float: the sampler would see two empty
    # intervals, so validate reports both and skips the layout checks
    base = _tiny_net().nodes[0]
    t = 2**60
    bad = NodeSpec("B", NodeKind.TEMPORAL, ("hot",), "cold", (iv(t, t + 1), iv(t + 1, t + 2)))
    assert float(t) == float(t + 1) == float(t + 2)
    empty = f"node B: interval [{format_time(t)},{format_time(t)}] is empty or reversed"
    spec = _tiny_net(nodes=(base, bad))
    assert _messages(spec) == [empty, empty]
    with pytest.raises(InvalidNetworkError):
        compile_network(spec)


def test_validate_single_interval_node_is_legal():
    a = _tiny_net().nodes[0]
    b = NodeSpec("B", NodeKind.TEMPORAL, ("hot",), "cold", (iv(0, 5),))
    spec = _tiny_net(
        nodes=(a, b),
        tables={
            "A": ConditionalTable("A", (), {(): (0.3, 0.7)}),
            "B": ConditionalTable(
                "B",
                ("A",),
                {(NodeState("y"),): (0.2, 0.8), (NodeState("n"),): (0.9, 0.1)},
            ),
        },
    )
    assert validate(spec) == []
    layout = interval_layout(b)
    assert layout.range_relations == (AllenRelation.NONE,)
    assert layout.adjacent_relations == ()


def test_validate_temporal_needs_default_and_intervals():
    a = _tiny_net().nodes[0]
    no_default = NodeSpec("B", NodeKind.TEMPORAL, ("hot",), None, (iv(0, 2), iv(2, 5)))
    assert any("default" in m for m in _messages(_tiny_net(nodes=(a, no_default))))
    no_intervals = NodeSpec("B", NodeKind.TEMPORAL, ("hot",), "cold", ())
    assert any("interval" in m for m in _messages(_tiny_net(nodes=(a, no_intervals))))


def test_validate_instantaneous_must_not_have_intervals():
    a = NodeSpec("A", NodeKind.INSTANTANEOUS, ("y", "n"), None, (iv(0, 2),))
    assert any(
        "must not have intervals" in m
        for m in _messages(_tiny_net(nodes=(a, _tiny_net().nodes[1])))
    )


def test_validate_default_value_clashes():
    a = NodeSpec("A", NodeKind.INSTANTANEOUS, ("y", "n"), default_value="y")
    msgs = _messages(_tiny_net(nodes=(a, _tiny_net().nodes[1])))
    assert any("also appears in values" in m for m in msgs)


def test_validate_duplicate_values_and_empty_values():
    a = NodeSpec("A", NodeKind.INSTANTANEOUS, ("y", "y"))
    assert any("duplicate value" in m for m in _messages(_tiny_net(nodes=(a, _tiny_net().nodes[1]))))
    a = NodeSpec("A", NodeKind.INSTANTANEOUS, ())
    assert any("no values" in m for m in _messages(_tiny_net(nodes=(a, _tiny_net().nodes[1]))))


def test_validate_label_charset():
    a = NodeSpec("A x", NodeKind.INSTANTANEOUS, ("y", "n"))
    assert any("reserved" in m for m in _messages(_tiny_net(nodes=(a, _tiny_net().nodes[1]))))
    a = NodeSpec("A", NodeKind.INSTANTANEOUS, ("y@z", "n"))
    assert any("reserved" in m for m in _messages(_tiny_net(nodes=(a, _tiny_net().nodes[1]))))
    # an event log drops the rest of a line from "#"
    a = NodeSpec("A#2", NodeKind.INSTANTANEOUS, ("y", "n"))
    assert any("reserved" in m for m in _messages(_tiny_net(nodes=(a, _tiny_net().nodes[1]))))
    a = NodeSpec("A", NodeKind.INSTANTANEOUS, ("y#2", "n"))
    assert "node A: value 'y#2' contains whitespace or a reserved character (one of | @ = [ ] , #)" in (
        _messages(_tiny_net(nodes=(a, _tiny_net().nodes[1])))
    )
    a = NodeSpec("", NodeKind.INSTANTANEOUS, ("y", "n"))
    assert "node : node id must be a non-empty string" in _messages(
        _tiny_net(nodes=(a, _tiny_net().nodes[1]))
    )
    a = NodeSpec("A", NodeKind.INSTANTANEOUS, ("", "n"))
    assert "node A: value must be a non-empty string" in _messages(
        _tiny_net(nodes=(a, _tiny_net().nodes[1]))
    )


def test_validate_duplicate_node_ids():
    a = _tiny_net().nodes[0]
    msgs = _messages(_tiny_net(nodes=(a, a, _tiny_net().nodes[1])))
    assert any("more than once" in m for m in msgs)


def test_validate_edges():
    assert any(
        "not a declared node" in m for m in _messages(_tiny_net(edges=(("A", "Z"),)))
    )
    assert any(
        "self-loops" in m for m in _messages(_tiny_net(edges=(("A", "B"), ("A", "A"))))
    )
    assert any(
        "edge declared more than once" in m
        for m in _messages(_tiny_net(edges=(("A", "B"), ("A", "B"))))
    )


def test_validate_cycle():
    a = NodeSpec("A", NodeKind.INSTANTANEOUS, ("y", "n"))
    b = NodeSpec("B", NodeKind.INSTANTANEOUS, ("y", "n"))
    rows_ab = {
        (NodeState("y"),): (0.5, 0.5),
        (NodeState("n"),): (0.5, 0.5),
    }
    spec = NetworkSpec(
        "loop",
        "hour",
        (a, b),
        (("A", "B"), ("B", "A")),
        {
            "A": ConditionalTable("A", ("B",), rows_ab),
            "B": ConditionalTable("B", ("A",), rows_ab),
        },
    )
    assert any("cycle" in m for m in _messages(spec))
    assert toposort(spec) is None


def test_validate_table_problems():
    base = _tiny_net()
    # missing table
    assert any(
        "no conditional table" in m
        for m in _messages(_tiny_net(tables={"A": base.tables["A"]}))
    )
    # table for unknown node
    extra = dict(base.tables)
    extra["Z"] = ConditionalTable("Z", (), {(): (1.0,)})
    assert any("undeclared node" in m for m in _messages(_tiny_net(tables=extra)))
    # parent order mismatch
    tables = dict(base.tables)
    tables["B"] = ConditionalTable("B", (), {(): (0.2, 0.5, 0.3)})
    assert any("does not match" in m for m in _messages(_tiny_net(tables=tables)))
    # a table filed under another node's id
    tables = dict(base.tables)
    tables["A"] = ConditionalTable("B", (), {(): (0.3, 0.7)})
    assert _messages(_tiny_net(tables=tables)) == [
        "cpt A: table is keyed 'A' but names child 'B'"
    ]


def test_validate_rows():
    base = _tiny_net()
    good = base.tables["B"].rows

    missing = {k: v for k, v in good.items() if k != (NodeState("y"),)}
    tables = dict(base.tables)
    tables["B"] = ConditionalTable("B", ("A",), missing)
    assert any("missing row" in m for m in _messages(_tiny_net(tables=tables)))

    extra = dict(good)
    extra[(NodeState("maybe"),)] = (0.2, 0.5, 0.3)
    tables["B"] = ConditionalTable("B", ("A",), extra)
    assert any("unexpected row" in m for m in _messages(_tiny_net(tables=tables)))

    short = dict(good)
    short[(NodeState("y"),)] = (0.5, 0.5)
    tables["B"] = ConditionalTable("B", ("A",), short)
    assert any("expected 3" in m for m in _messages(_tiny_net(tables=tables)))

    negative = dict(good)
    negative[(NodeState("y"),)] = (-0.2, 0.9, 0.3)
    tables["B"] = ConditionalTable("B", ("A",), negative)
    assert any("outside [0, 1]" in m for m in _messages(_tiny_net(tables=tables)))

    # a parent state with no label is named by its value
    c = NodeSpec("C", NodeKind.INSTANTANEOUS, ("on", "off"))
    rows = {(s,): (0.5, 0.5) for s in state_enumeration(base.nodes[1])}
    rows[(NodeState("x", 9),)] = (0.5, 0.5)
    tables = {**base.tables, "C": ConditionalTable("C", ("B",), rows)}
    spec = _tiny_net(nodes=base.nodes + (c,), edges=base.edges + (("B", "C"),), tables=tables)
    assert _messages(spec) == ["cpt C: unexpected row for parent states (B='x')"]


def _short_table_net(counts, keys):
    """X under one parent per entry of `counts`, each with that many values;
    X's table holds one row per key, a tuple of value indices."""
    parents = [
        NodeSpec(f"P{i}", NodeKind.INSTANTANEOUS, tuple(f"v{k}" for k in range(n)))
        for i, n in enumerate(counts)
    ]
    x = NodeSpec("X", NodeKind.INSTANTANEOUS, ("a", "b"))
    tables = {p.id: ConditionalTable(p.id, (), {(): (1 / len(p.values),) * len(p.values)}) for p in parents}
    rows = {tuple(NodeState(f"v{k}") for k in key): (0.5, 0.5) for key in keys}
    tables["X"] = ConditionalTable("X", tuple(p.id for p in parents), rows)
    edges = tuple((p.id, "X") for p in parents)
    return NetworkSpec("short", "unit", (*parents, x), edges, tables)


def test_a_short_table_under_a_huge_parent_product_gets_one_count():
    spec = _short_table_net([10] * 6, [(k,) * 6 for k in range(3)])
    want = ["cpt X: has 3 rows for 1000000 parent-state tuples; 999997 are missing"]
    start = time.perf_counter()
    assert _messages(spec) == want
    assert time.perf_counter() - start < 2.0
    with pytest.raises(InvalidNetworkError) as err:
        compile_network(spec)
    assert [str(v) for v in err.value.violations] == want


def test_missing_rows_are_listed_up_to_a_thousand():
    # 7 * 11 * 13 = 1001 parent-state tuples
    listed = _messages(_short_table_net([7, 11, 13], [(0, 0, 0)]))
    assert len(set(listed)) == len(listed) == 1000
    assert all(m.startswith("cpt X: missing row for parent states (P0=") for m in listed)
    # one more missing, and an unexpected row, which is still listed
    counted = _messages(_short_table_net([7, 11, 13], [(0, 0, 99)]))
    assert counted == [
        "cpt X: has 1 rows for 1001 parent-state tuples; 1001 are missing",
        "cpt X: unexpected row for parent states (P0=v0, P1=v0, P2=v99)",
    ]


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_validate_rejects_non_finite_probabilities(bad):
    base = _tiny_net()
    rows = dict(base.tables["B"].rows)
    rows[(NodeState("y"),)] = (bad, 0.5, 0.3)
    tables = dict(base.tables)
    tables["B"] = ConditionalTable("B", ("A",), rows)
    assert _messages(_tiny_net(tables=tables)) == [
        "cpt B: row (A=y) has probabilities outside [0, 1]"
    ]


def test_validate_report_is_complete_and_ordered():
    # one network with many faults: every message, in order, pins the report
    a = NodeSpec("A", NodeKind.INSTANTANEOUS, ("y", "n"))
    b = NodeSpec("B", NodeKind.INSTANTANEOUS, ("p", "q", "r"))
    c = NodeSpec("C", NodeKind.TEMPORAL, ("hot",), "cold", (iv(0, 2), iv(2, 5)))
    y, n, p, q, r = (NodeState(v) for v in "ynpqr")
    spec = NetworkSpec(
        "faulty",
        "hour",
        (b, a, c, a, b),
        (("B", "C"), ("A", "C"), ("B", "C"), ("A", "C"), ("B", "Z")),
        {
            "A": ConditionalTable("A", (), {(): (0.3, 0.7)}),
            "B": ConditionalTable("B", (), {(): (0.2, 0.3, 0.5)}),
            "C": ConditionalTable(
                "C",
                ("A", "B"),
                {
                    (y, p): (0.5, 0.5, 0.5),
                    (y, q): (0.5, 0.5),
                    (n, p): (-0.1, 0.6, 0.5),
                    (y, r): (0.2, 0.3, 0.5),
                    (NodeState("maybe"), p): (0.2, 0.3, 0.5),
                },
            ),
            "W": ConditionalTable("W", (), {(): (1.0,)}),
        },
    )
    assert _messages(spec) == [
        "node A: node id declared more than once",
        "node B: node id declared more than once",
        "edge B->Z: endpoint 'Z' is not a declared node",
        "edge A->C: edge declared more than once",
        "edge B->C: edge declared more than once",
        "cpt W: table for an undeclared node",
        "cpt C: missing row for parent states (A=n, B=q)",
        "cpt C: missing row for parent states (A=n, B=r)",
        "cpt C: unexpected row for parent states (A=maybe, B=p)",
        "cpt C: row (A=n, B=p) has probabilities outside [0, 1]",
        "cpt C: row (A=y, B=p) sums to 1.5, not 1",
        "cpt C: row (A=y, B=q) has 2 entries, expected 3",
    ]


def test_validate_row_sum_tolerance():
    base = _tiny_net()

    def with_sum_shift(shift):
        rows = dict(base.tables["B"].rows)
        rows[(NodeState("y"),)] = (0.2 + shift, 0.5, 0.3)
        tables = dict(base.tables)
        tables["B"] = ConditionalTable("B", ("A",), rows)
        return _tiny_net(tables=tables)

    assert validate(with_sum_shift(5e-10)) == []
    bad = validate(with_sum_shift(2e-9))
    assert len(bad) == 1
    assert "sums to" in str(bad[0])


def test_violation_string_names_its_subject():
    bad = _tiny_net(edges=(("A", "Z"),))
    texts = _messages(bad)
    assert any(t.startswith("edge A->Z:") for t in texts)


# --- property tests -------------------------------------------------------

@st.composite
def interval_chains(draw):
    start = draw(st.integers(min_value=0, max_value=5))
    widths = draw(st.lists(st.integers(min_value=1, max_value=9), min_size=1, max_size=6))
    bounds = [start]
    for w in widths:
        bounds.append(bounds[-1] + w)
    return tuple(TimeInterval(float(a), float(b)) for a, b in zip(bounds, bounds[1:]))


@given(interval_chains(), st.floats(min_value=0, max_value=1))
def test_resolution_picks_the_unique_containing_interval(chain, frac):
    node = NodeSpec("T", NodeKind.TEMPORAL, ("x",), "base", chain)
    lo, hi = chain[0].lo, chain[-1].hi
    t = lo + frac * (hi - lo)
    idx = resolve_interval(node, t)
    last = len(chain) - 1
    holds = [
        chain[i].contains(t, closed_hi=(i == last)) for i in range(len(chain))
    ]
    assert holds[idx]
    assert sum(holds) == 1


@given(interval_chains())
def test_generated_chains_have_the_expected_layout(chain):
    node = NodeSpec("T", NodeKind.TEMPORAL, ("x",), "base", chain)
    layout = interval_layout(node)
    assert all(rel is AllenRelation.M for rel in layout.adjacent_relations)
    if len(chain) >= 2:
        assert layout.range_relations[0] is AllenRelation.SI
        assert layout.range_relations[-1] is AllenRelation.FI
        assert all(
            rel is AllenRelation.DI for rel in layout.range_relations[1:-1]
        )


@given(
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=1, max_value=4),
    st.booleans(),
)
def test_enumeration_size(n_values, n_intervals, temporal):
    values = tuple(f"v{i}" for i in range(n_values))
    if temporal:
        chain = tuple(TimeInterval(float(i), float(i + 1)) for i in range(n_intervals))
        node = NodeSpec("T", NodeKind.TEMPORAL, values, "base", chain)
        assert len(state_enumeration(node)) == 1 + n_values * n_intervals
    else:
        node = NodeSpec("T", NodeKind.INSTANTANEOUS, values)
        assert len(state_enumeration(node)) == n_values


@given(st.integers(min_value=0, max_value=10_000))
def test_random_networks_validate_clean(seed):
    spec = random_network(np.random.default_rng(seed))
    assert validate(spec) == []
