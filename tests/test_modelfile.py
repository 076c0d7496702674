import json
from collections import Counter

import numpy as np
import pytest

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


def test_load_and_compile_check_each_node_once_and_parse_each_label_once(
    tmp_path, monkeypatch
):
    spec = random_network(np.random.default_rng(5), max_nodes=30, edge_share=0.6)
    path = tmp_path / "net.json"
    save_network(spec, path)
    labels = Counter()
    for cpt in json.loads(path.read_text())["cpts"].values():
        for key_text in cpt["rows"]:
            if key_text:
                labels.update(zip(cpt["parents"], key_text.split("|")))
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
    net = compile_network(load_network(path))

    assert net.spec == spec
    # once by validate, once when the node's states are first enumerated
    assert checks == Counter({n.id: 2 for n in spec.nodes})
    assert parses == Counter(set(labels))


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
