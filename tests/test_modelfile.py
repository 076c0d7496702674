import itertools
import json
import math
from collections import Counter
from importlib import resources

import numpy as np
import pytest

import tnbn.cli
import tnbn.model
import tnbn.modelfile

from tnbn import (
    ConditionalTable,
    ModelFormatError,
    NetworkSpec,
    NodeKind,
    NodeSpec,
    NodeState,
    ObservedEvent,
    TimeInterval,
    compile_network,
    load_event_log,
    load_network,
    network_from_dict,
    network_to_dict,
    parse_event_log,
    save_network,
    toposort,
    validate,
)

from netgen import random_network


# --- network round trips -----------------------------------------------------

def test_fixture_round_trip_in_memory(accident_spec):
    assert network_from_dict(network_to_dict(accident_spec)) == accident_spec


def test_fixture_round_trip_through_a_file(accident_spec, tmp_path):
    path = tmp_path / "net.json"
    save_network(accident_spec, path)
    assert load_network(path) == accident_spec
    # and the file is plain JSON
    data = json.loads(path.read_text())
    assert data["name"] == "accident"
    assert data["nodes"][4]["intervals"] == [[0, 10], [10, 30], [30, 60]]
    assert data["cpts"]["VS"]["parents"] == ["HI", "IB"]
    assert "true|gross" in data["cpts"]["VS"]["rows"]


def test_random_network_round_trip(tmp_path):
    spec = random_network(np.random.default_rng(2024), temporal_share=0.6)
    path = tmp_path / "net.json"
    save_network(spec, path)
    assert load_network(path) == spec


def _rewrite_rows(data, respell=None, reverse=False):
    """A copy of a network dict whose row keys are respelled part by part,
    or whose rows are listed in reverse order."""
    out = json.loads(json.dumps(data))
    for cpt in out["cpts"].values():
        items = list(cpt["rows"].items())
        if reverse:
            items.reverse()
        if respell is not None:
            items = [
                ("|".join(map(respell, key.split("|"))) if key else key, probs)
                for key, probs in items
            ]
        cpt["rows"] = dict(items)
    return out


def _respell(label):
    """A non-canonical spelling of a state label that parses to the same
    state: "x@[0,3]" becomes "x@[0.0, 3]", "x" becomes " x"."""
    value, sep, bounds = label.partition("@")
    if not sep:
        return f" {label}"
    lo, hi = bounds[1:-1].split(",")
    return f"{value}@[{float(lo)}, {hi}]"


def _row_labels(data):
    """Every (parent id, label text) named in a row key."""
    labels = Counter()
    for cpt in data["cpts"].values():
        for key_text in cpt["rows"]:
            if key_text:
                labels.update(zip(cpt["parents"], key_text.split("|")))
    return labels


def test_load_and_compile_check_each_node_once_and_parse_each_label_once(
    tmp_path, monkeypatch
):
    spec = random_network(np.random.default_rng(5), max_nodes=30, edge_share=0.6)
    canonical = network_to_dict(spec)
    labels = _row_labels(canonical)
    assert len(spec.nodes) >= 20 and max(labels.values()) > 10

    checks = Counter()
    node_violations = tnbn.model._node_violations

    def counted_violations(node):
        checks[node.id] += 1
        return node_violations(node)

    parses = Counter()
    parse_state_label = NodeSpec.parse_state_label

    def counted_parse(node, text):
        parses[node.id, text] += 1
        return parse_state_label(node, text)

    monkeypatch.setattr(tnbn.model, "_node_violations", counted_violations)
    monkeypatch.setattr(NodeSpec, "parse_state_label", counted_parse)
    # a file as save_network writes it parses no label; rows in another order
    # or spelled otherwise are parsed, each distinct label once
    reversed_rows = _rewrite_rows(canonical, reverse=True)
    respelled = _rewrite_rows(canonical, _respell)
    path = tmp_path / "net.json"
    for data, parsed in [
        (canonical, set()),
        (reversed_rows, set(labels)),
        (respelled, set(_row_labels(respelled))),
    ]:
        path.write_text(json.dumps(data))
        checks.clear()
        parses.clear()
        net = compile_network(load_network(path))

        assert net.spec == spec
        # load, validate and enumeration share one check per node
        assert checks == Counter({n.id: 1 for n in spec.nodes})
        assert parses == Counter(parsed)
        # validate and compile share one toposort
        assert net.topo is toposort(net.spec)


def _factor_bytes(net):
    return [(f.scope, f.values.shape, f.values.tobytes()) for f in net.factors]


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_row_order_and_label_spelling_give_the_same_network(seed):
    spec = random_network(
        np.random.default_rng(seed), n_nodes=25, temporal_share=0.6, edge_share=0.5
    )
    canonical = network_to_dict(spec)
    specs = [
        network_from_dict(data)
        for data in (
            canonical,
            _rewrite_rows(canonical, reverse=True),
            _rewrite_rows(canonical, _respell),
        )
    ]
    assert specs[0] == specs[1] == specs[2] == spec
    nets = [compile_network(s) for s in specs]
    assert nets[0].topo == nets[1].topo == nets[2].topo == toposort(spec)
    assert _factor_bytes(nets[0]) == _factor_bytes(nets[1]) == _factor_bytes(nets[2])


def _with_rows(spec, child, rows):
    tables = dict(spec.tables)
    tables[child] = ConditionalTable(child, spec.tables[child].parent_order, rows)
    return NetworkSpec(spec.name, spec.time_unit, spec.nodes, spec.edges, tables)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_validate_reports_the_same_problems_whatever_the_row_order(seed):
    spec = random_network(
        np.random.default_rng(seed), n_nodes=25, temporal_share=0.6, edge_share=0.5
    )
    child = max(spec.tables, key=lambda nid: len(spec.tables[nid].rows))
    rows = list(spec.tables[child].rows.items())
    assert len(rows) >= 4
    (k0, p0), (k1, p1), (k2, p2) = rows[0], rows[1], rows[-1]
    bogus = (NodeState("bogus"),) * len(k0)

    def missing(r):
        del r[k1]

    def extra(r):
        r[bogus] = p0
        r[k0 + k0[:1]] = p0

    def wrong_length(r):
        r[k2] = p2 + (0.0,)

    def out_of_range(r):
        r[k0] = (1.5, -0.5) + (0.0,) * (len(p0) - 2)

    def all_of_them(r):
        for defect in (missing, extra, wrong_length, out_of_range):
            defect(r)

    cases = [
        (missing, ["missing row"]),
        (extra, ["unexpected row", "unexpected row"]),
        (wrong_length, [f"has {len(p2) + 1} entries"]),
        (out_of_range, ["outside [0, 1]"]),
        (all_of_them, ["missing row", "unexpected row", "unexpected row", "", ""]),
    ]
    for defect, expected in cases:
        in_order = dict(rows)
        defect(in_order)
        reversed_rows = dict(reversed(list(in_order.items())))
        reports = [
            [str(v) for v in validate(_with_rows(spec, child, r))]
            for r in (in_order, reversed_rows)
        ]
        assert reports[0] == reports[1]
        assert len(reports[0]) == len(expected)
        for line, part in zip(reports[0], expected):
            assert line.startswith(f"cpt {child}: ") and part in line


def test_a_short_table_with_a_huge_parent_product_loads_without_enumerating_it(
    monkeypatch
):
    parents = [f"P{i}" for i in range(8)]
    values = [f"v{k}" for k in range(10)]
    data = {
        "name": "wide",
        "time_unit": "unit",
        "nodes": [{"id": p, "kind": "instantaneous", "values": values} for p in parents]
        + [{"id": "X", "kind": "instantaneous", "values": ["a", "b"]}],
        "edges": [[p, "X"] for p in parents],
        "cpts": {p: {"parents": [], "rows": {"": [0.1] * 10}} for p in parents},
    }
    data["cpts"]["X"] = {
        "parents": parents,
        "rows": {"|".join([v] * 8): [0.5, 0.5] for v in values[:3]},
    }

    product = itertools.product

    def small_product(*pools):
        pools = [tuple(p) for p in pools]
        assert math.prod(map(len, pools)) <= 100, "a 10**8 product was enumerated"
        return product(*pools)

    monkeypatch.setattr(itertools, "product", small_product)
    spec = network_from_dict(data)
    assert len(spec.tables["X"].rows) == 3


def test_fractional_interval_bounds_round_trip():
    node = NodeSpec(
        "T", NodeKind.TEMPORAL, ("x",), "base",
        (TimeInterval(0, 2.5), TimeInterval(2.5, 7.25)),
    )
    spec = NetworkSpec(
        "frac", "hour", (node,), (),
        {"T": ConditionalTable("T", (), {(): (0.5, 0.25, 0.25)})},
    )
    back = network_from_dict(network_to_dict(spec))
    assert back == spec
    assert node.state_label(NodeState("x", 0)) == "x@[0,2.5]"


def test_timed_state_labels_in_row_keys(accident_spec):
    # build a net whose child has a temporal parent, then round trip it
    parent = accident_spec.node("PD")
    child = NodeSpec("ALARM", NodeKind.INSTANTANEOUS, ("on", "off"))
    rows = {
        (NodeState("normal"),): (0.1, 0.9),
        (NodeState("dilated", 0),): (0.8, 0.2),
        (NodeState("dilated", 1),): (0.7, 0.3),
    }
    spec = NetworkSpec(
        "alarm", "minute", (parent, child), (("PD", "ALARM"),),
        {
            "PD": accident_spec.tables["PD"],
            "ALARM": ConditionalTable("ALARM", ("PD",), rows),
        },
    )
    # PD's own table keys on HI, which is absent here; swap in a root row
    spec = NetworkSpec(
        spec.name, spec.time_unit, spec.nodes, spec.edges,
        {
            "PD": ConditionalTable("PD", (), {(): (0.9, 0.06, 0.04)}),
            "ALARM": spec.tables["ALARM"],
        },
    )
    assert validate(spec) == []
    data = network_to_dict(spec)
    assert set(data["cpts"]["ALARM"]["rows"]) == {"normal", "dilated@[0,3]", "dilated@[3,5]"}
    assert network_from_dict(data) == spec


# --- format errors -------------------------------------------------------------

def _fixture_dict(accident_spec, **mutations):
    data = network_to_dict(accident_spec)
    data.update(mutations)
    return data


def test_top_level_shape_errors(accident_spec):
    with pytest.raises(ModelFormatError, match="top level"):
        network_from_dict([1, 2])
    data = _fixture_dict(accident_spec)
    del data["edges"]
    with pytest.raises(ModelFormatError, match="missing top-level"):
        network_from_dict(data)
    with pytest.raises(ModelFormatError, match="unknown top-level"):
        network_from_dict(_fixture_dict(accident_spec, extra=1))
    with pytest.raises(ModelFormatError, match="name must be a string"):
        network_from_dict(_fixture_dict(accident_spec, name=7))


def test_node_shape_errors(accident_spec):
    data = _fixture_dict(accident_spec)
    data["nodes"][0]["kind"] = "sometimes"
    with pytest.raises(ModelFormatError, match="kind"):
        network_from_dict(data)

    data = _fixture_dict(accident_spec)
    data["nodes"][0]["surprise"] = True
    with pytest.raises(ModelFormatError, match="unknown keys"):
        network_from_dict(data)

    data = _fixture_dict(accident_spec)
    data["nodes"][4]["intervals"][0] = [0, 10, 20]
    with pytest.raises(ModelFormatError, match=r"\[lo, hi\] pair"):
        network_from_dict(data)

    data = _fixture_dict(accident_spec)
    data["nodes"][4]["intervals"][0] = [0, "ten"]
    with pytest.raises(ModelFormatError) as info:
        network_from_dict(data)
    assert str(info.value) == "nodes[4].intervals[0] must be a number, got 'ten'"

    for value in (None, 3, True, "", {}):
        data = _fixture_dict(accident_spec)
        data["nodes"][4]["intervals"] = value
        with pytest.raises(ModelFormatError) as info:
            network_from_dict(data)
        assert str(info.value) == "nodes[4].intervals must be a list"


def test_edge_and_cpt_shape_errors(accident_spec):
    data = _fixture_dict(accident_spec)
    data["edges"][0] = ["C"]
    with pytest.raises(ModelFormatError, match=r"\[parent, child\] pair"):
        network_from_dict(data)

    data = _fixture_dict(accident_spec)
    data["cpts"]["HI"]["rows"]["severe"] = [0.9, True]
    with pytest.raises(ModelFormatError) as info:
        network_from_dict(data)
    assert str(info.value) == "cpts['HI'].rows['severe'][1] must be a number, got True"

    data = _fixture_dict(accident_spec)
    data["cpts"]["HI"]["parents"] = ["C", "IB"]
    with pytest.raises(ModelFormatError, match="parent states"):
        network_from_dict(data)

    data = _fixture_dict(accident_spec)
    data["cpts"]["HI"]["parents"] = ["NOPE"]
    with pytest.raises(ModelFormatError, match="not a declared node"):
        network_from_dict(data)

    data = _fixture_dict(accident_spec)
    rows = data["cpts"]["HI"]["rows"]
    rows["catastrophic"] = rows.pop("severe")
    with pytest.raises(ModelFormatError, match="cannot interpret"):
        network_from_dict(data)


def test_row_errors_name_the_row(accident_spec):
    # the row's place is formatted only when a row fails; the text is pinned
    def key_is_a_number(cpts):
        cpts["HI"]["rows"][7] = [0.5, 0.5]

    def extra_parent(cpts):
        cpts["HI"]["parents"].append("IB")

    def undeclared_parent(cpts):
        cpts["HI"]["parents"] = ["NOPE"]

    def unknown_label(cpts):
        cpts["HI"]["rows"]["catastrophic"] = cpts["HI"]["rows"].pop("severe")

    def row_is_text(cpts):
        cpts["HI"]["rows"]["severe"] = "0.9"

    def entry_is_text(cpts):
        cpts["HI"]["rows"]["severe"] = [0.9, 0.1, "x"]

    def root_entry_is_null(cpts):
        cpts["C"]["rows"][""] = [None]

    cases = [
        (key_is_a_number, "cpts['HI'].rows[7] key must be a string, got 7"),
        (extra_parent, "cpts['HI'].rows['severe']: key names 1 parent states but the table has 2 parents"),
        (undeclared_parent, "cpts['HI'].rows['severe']: parent 'NOPE' is not a declared node"),
        (unknown_label, "cpts['HI'].rows['catastrophic']: cannot interpret 'catastrophic': "
         "unknown state 'catastrophic' for node 'C'; legal states: severe, moderate, mild"),
        (row_is_text, "cpts['HI'].rows['severe'] must be a list of probabilities"),
        (entry_is_text, "cpts['HI'].rows['severe'][2] must be a number, got 'x'"),
        (root_entry_is_null, "cpts['C'].rows[''][0] must be a number, got None"),
    ]
    for mutate, message in cases:
        data = _fixture_dict(accident_spec)
        mutate(data["cpts"])
        with pytest.raises(ModelFormatError) as info:
            network_from_dict(data)
        assert str(info.value) == message


def test_a_clean_load_formats_no_row_text(monkeypatch):
    calls = []
    row_at = tnbn.modelfile._row_at

    def counted(*args):
        calls.append(args)
        return row_at(*args)

    monkeypatch.setattr(tnbn.modelfile, "_row_at", counted)
    spec = random_network(np.random.default_rng(7), n_nodes=30)
    assert network_from_dict(network_to_dict(spec)) == spec
    assert calls == []


_MUTATION_MENU = (None, True, 0, 1.5, "x", [], {}, [1], {"a": 1})


def _json_paths(value, path=()):
    yield path
    if isinstance(value, dict):
        children = value.items()
    elif isinstance(value, list):
        children = enumerate(value)
    else:
        children = ()
    for key, child in children:
        yield from _json_paths(child, path + (key,))


def _replaced(data, path, value):
    if not path:
        return value
    out = json.loads(json.dumps(data))
    target = out
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return out


def test_every_one_field_mutation_of_the_bundled_file_fails_typed(tmp_path, capsys):
    data = json.loads((resources.files("tnbn") / "data" / "accident.json").read_text())
    paths = list(_json_paths(data))
    assert len(paths) > 100
    path = tmp_path / "net.json"
    escapes = []
    for at in paths:
        for value in _MUTATION_MENU:
            mutated = _replaced(data, at, value)
            try:
                network_from_dict(mutated)
            except ModelFormatError:
                pass
            except Exception as err:
                escapes.append((at, value, "network_from_dict", repr(err)))
            path.write_text(json.dumps(mutated))
            try:
                code = tnbn.cli.main(["validate", str(path)])
            except Exception as err:
                escapes.append((at, value, "validate", repr(err)))
            else:
                if code not in (0, 1, 2):
                    escapes.append((at, value, "validate", code))
    capsys.readouterr()
    assert escapes == []


def test_semantic_problems_are_left_to_validate(accident_spec):
    # a bad row sum parses fine and is reported by validation instead
    data = _fixture_dict(accident_spec)
    data["cpts"]["HI"]["rows"]["severe"] = [0.9, 0.3]
    spec = network_from_dict(data)
    assert any("sums to" in str(v) for v in validate(spec))

    # a declared parent with no matching edge is also a validation problem
    data = _fixture_dict(accident_spec)
    data["cpts"]["PD"]["parents"] = ["IB"]
    data["cpts"]["PD"]["rows"] = {
        "gross": [0.9, 0.05, 0.05],
        "slight": [0.9, 0.05, 0.05],
        "none": [0.9, 0.05, 0.05],
    }
    spec = network_from_dict(data)
    assert any("does not match" in str(v) for v in validate(spec))

    # so is a parent listed twice
    data = _fixture_dict(accident_spec)
    labels = accident_spec.node("HI").state_labels()
    data["cpts"]["PD"]["parents"] = ["HI", "HI"]
    data["cpts"]["PD"]["rows"] = {
        f"{a}|{b}": [0.9, 0.05, 0.05] for a, b in itertools.product(labels, labels)
    }
    spec = network_from_dict(data)
    assert [str(v) for v in validate(spec)] == ["cpt PD: parent_order lists a parent twice"]


def test_load_network_reports_json_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"name": "x",\n  "oops\n}')
    with pytest.raises(ModelFormatError) as info:
        load_network(path)
    assert "line 2" in str(info.value)
    assert str(path) in str(info.value)


def test_load_network_prefixes_the_path(tmp_path):
    path = tmp_path / "short.json"
    path.write_text('{"name": "x"}')
    with pytest.raises(ModelFormatError) as info:
        load_network(path)
    assert str(path) in str(info.value)


# --- event logs -----------------------------------------------------------------

def test_parse_event_log_whitespace_and_tabs():
    text = "100 C severe\n115\tVS\tunstable\n"
    assert parse_event_log(text) == [
        ObservedEvent("C", "severe", 100.0),
        ObservedEvent("VS", "unstable", 115.0),
    ]


def test_parse_event_log_keeps_file_order():
    events = parse_event_log("115 VS unstable\n100 C severe\n")
    assert [e.node for e in events] == ["VS", "C"]


def test_parse_event_log_comments_and_blanks():
    text = "# intake\n\n100 C severe  # first report\n   \n"
    assert parse_event_log(text) == [ObservedEvent("C", "severe", 100.0)]


def test_parse_event_log_errors():
    with pytest.raises(ModelFormatError, match="line 1"):
        parse_event_log("100 C\n")
    with pytest.raises(ModelFormatError, match="not a number"):
        parse_event_log("soon C severe\n")
    with pytest.raises(ModelFormatError, match="line 2"):
        parse_event_log("100 C severe\n101 VS too many words\n")


@pytest.mark.parametrize("tc", ["nan", "inf", "-inf", "NaN", "Infinity"])
def test_parse_event_log_rejects_non_finite_timestamps(tc):
    with pytest.raises(ModelFormatError, match=f"line 2: timestamp '{tc}' is not finite"):
        parse_event_log(f"100 C severe\n{tc} VS unstable\n")


def test_load_event_log(tmp_path):
    path = tmp_path / "events.log"
    path.write_text("100\tC\tsevere\n")
    assert load_event_log(path) == [ObservedEvent("C", "severe", 100.0)]
    path.write_text("abc C severe\n")
    with pytest.raises(ModelFormatError) as info:
        load_event_log(path)
    assert str(path) in str(info.value)
