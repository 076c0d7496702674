"""Reading and writing network definitions and event logs.

Networks are stored as JSON. States are written as plain labels; a timed
state of a temporal node is written "value@[lo,hi]". Conditional tables key
each row by the parent states joined with "|" (the empty string for root
nodes) and list the child probabilities in state-enumeration order.

Event logs are plain text, one event per line as "tc node value", split on
tabs when the line contains any, otherwise on whitespace. Timestamps must be
finite numbers. Blank lines and text after "#" are ignored. File order is
observation order.

Structural problems (unparseable JSON, wrong shapes, unknown state labels)
raise ModelFormatError; a file that parses into a well-formed but invalid
network is reported through `validate` instead.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Any, Union

from .errors import ModelFormatError, TNBNError
from .model import (
    ConditionalTable,
    NetworkSpec,
    NodeKind,
    NodeSpec,
    NodeState,
    TimeInterval,
)
from .session import ObservedEvent

_NODE_KEYS = {"id", "kind", "values", "default_value", "intervals"}
_TOP_KEYS = {"name", "time_unit", "nodes", "edges", "cpts"}


def _num(x: float) -> Union[int, float]:
    x = float(x)
    return int(x) if x.is_integer() else x


def network_to_dict(spec: NetworkSpec) -> dict:
    """JSON-ready dictionary for a network."""
    nodes = []
    for n in spec.nodes:
        entry: dict[str, Any] = {"id": n.id, "kind": n.kind.value, "values": list(n.values)}
        if n.default_value is not None:
            entry["default_value"] = n.default_value
        if n.intervals:
            entry["intervals"] = [[_num(iv.lo), _num(iv.hi)] for iv in n.intervals]
        nodes.append(entry)
    cpts = {}
    for nid, table in spec.tables.items():
        rows = {}
        for key, probs in table.rows.items():
            label = "|".join(
                spec.node(pid).state_label(state)
                for pid, state in zip(table.parent_order, key)
            )
            rows[label] = list(probs)
        cpts[nid] = {"parents": list(table.parent_order), "rows": rows}
    return {
        "name": spec.name,
        "time_unit": spec.time_unit,
        "nodes": nodes,
        "edges": [list(e) for e in spec.edges],
        "cpts": cpts,
    }


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise ModelFormatError(message)


def _string(value: Any, what: str) -> str:
    _expect(isinstance(value, str), f"{what} must be a string, got {value!r}")
    return value


def _number(value: Any, what: str) -> float:
    _expect(
        isinstance(value, (int, float)) and not isinstance(value, bool),
        f"{what} must be a number, got {value!r}",
    )
    return float(value)


def network_from_dict(data: Any) -> NetworkSpec:
    """Rebuild a network from its dictionary form.

    Raises ModelFormatError when the structure cannot be interpreted at all;
    semantic problems are left for `validate`.
    """
    _expect(isinstance(data, dict), "top level must be a JSON object")
    unknown = set(data) - _TOP_KEYS
    _expect(not unknown, f"unknown top-level keys: {sorted(unknown)}")
    missing = _TOP_KEYS - set(data)
    _expect(not missing, f"missing top-level keys: {sorted(missing)}")

    name = _string(data["name"], "name")
    time_unit = _string(data["time_unit"], "time_unit")

    _expect(isinstance(data["nodes"], list), "nodes must be a list")
    nodes: list[NodeSpec] = []
    for i, raw in enumerate(data["nodes"]):
        where = f"nodes[{i}]"
        _expect(isinstance(raw, dict), f"{where} must be an object")
        unknown = set(raw) - _NODE_KEYS
        _expect(not unknown, f"{where}: unknown keys {sorted(unknown)}")
        nid = _string(raw.get("id"), f"{where}.id")
        kind_text = _string(raw.get("kind"), f"{where}.kind")
        try:
            kind = NodeKind(kind_text)
        except ValueError:
            raise ModelFormatError(
                f"{where}.kind must be one of "
                f"{[k.value for k in NodeKind]}, got {kind_text!r}"
            ) from None
        values = raw.get("values")
        _expect(isinstance(values, list), f"{where}.values must be a list")
        values = tuple(_string(v, f"{where}.values[{j}]") for j, v in enumerate(values))
        default = raw.get("default_value")
        if default is not None:
            default = _string(default, f"{where}.default_value")
        intervals = []
        for j, pair in enumerate(raw.get("intervals", ())):
            at = f"{where}.intervals[{j}]"
            _expect(
                isinstance(pair, list) and len(pair) == 2,
                f"{at} must be a [lo, hi] pair",
            )
            intervals.append(TimeInterval(_number(pair[0], at), _number(pair[1], at)))
        nodes.append(NodeSpec(nid, kind, values, default, tuple(intervals)))
    by_id = {n.id: n for n in nodes}

    _expect(isinstance(data["edges"], list), "edges must be a list")
    edges: list[tuple[str, str]] = []
    for i, raw in enumerate(data["edges"]):
        where = f"edges[{i}]"
        _expect(
            isinstance(raw, list) and len(raw) == 2,
            f"{where} must be a [parent, child] pair",
        )
        edges.append((_string(raw[0], where), _string(raw[1], where)))

    _expect(isinstance(data["cpts"], dict), "cpts must be an object")
    tables: dict[str, ConditionalTable] = {}
    # (parent id, label text) -> state, so each distinct label is parsed once
    parsed: dict[tuple[str, str], NodeState] = {}
    for child, raw in data["cpts"].items():
        where = f"cpts[{child!r}]"
        _expect(isinstance(raw, dict), f"{where} must be an object")
        unknown = set(raw) - {"parents", "rows"}
        _expect(not unknown, f"{where}: unknown keys {sorted(unknown)}")
        parents = raw.get("parents")
        _expect(isinstance(parents, list), f"{where}.parents must be a list")
        parents = tuple(_string(p, f"{where}.parents[{j}]") for j, p in enumerate(parents))
        rows_raw = raw.get("rows")
        _expect(isinstance(rows_raw, dict), f"{where}.rows must be an object")
        rows: dict[tuple[NodeState, ...], tuple[float, ...]] = {}
        for key_text, probs_raw in rows_raw.items():
            at = f"{where}.rows[{key_text!r}]"
            key = _parse_row_key(by_id, parsed, parents, key_text, at)
            _expect(isinstance(probs_raw, list), f"{at} must be a list of probabilities")
            rows[key] = tuple(
                _number(p, f"{at}[{j}]") for j, p in enumerate(probs_raw)
            )
        tables[child] = ConditionalTable(child, parents, rows)

    return NetworkSpec(name, time_unit, tuple(nodes), tuple(edges), tables)


def _parse_row_key(
    by_id: dict[str, NodeSpec],
    parsed: dict[tuple[str, str], NodeState],
    parents: tuple[str, ...],
    key_text: Any,
    where: str,
) -> tuple[NodeState, ...]:
    key_text = _string(key_text, f"{where} key")
    parts = key_text.split("|") if key_text else []
    _expect(
        len(parts) == len(parents),
        f"{where}: key names {len(parts)} parent states but the table has "
        f"{len(parents)} parents",
    )
    key = []
    for pid, part in zip(parents, parts):
        state = parsed.get((pid, part))
        if state is None:
            node = by_id.get(pid)
            _expect(node is not None, f"{where}: parent {pid!r} is not a declared node")
            try:
                state = parsed[pid, part] = node.parse_state_label(part)
            except (TNBNError, ValueError) as err:
                raise ModelFormatError(f"{where}: cannot interpret {part!r}: {err}") from None
        key.append(state)
    return tuple(key)


def save_network(spec: NetworkSpec, path: Union[str, Path]) -> None:
    Path(path).write_text(json.dumps(network_to_dict(spec), indent=2) + "\n")


def load_network(path: Union[str, Path]) -> NetworkSpec:
    path = Path(path)
    text = path.read_text()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as err:
        raise ModelFormatError(
            f"{path}: line {err.lineno} column {err.colno}: {err.msg}"
        ) from None
    try:
        return network_from_dict(data)
    except ModelFormatError as err:
        raise ModelFormatError(f"{path}: {err}") from None


def parse_event_log(text: str) -> list[ObservedEvent]:
    """Parse "tc node value" lines into events, in file order."""
    events = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split("\t") if "\t" in line else line.split()
        parts = [p.strip() for p in parts if p.strip()]
        if len(parts) != 3:
            raise ModelFormatError(
                f"line {lineno}: expected 'tc node value', got {raw.strip()!r}"
            )
        tc_text, node, value = parts
        try:
            tc = float(tc_text)
        except ValueError:
            raise ModelFormatError(
                f"line {lineno}: timestamp {tc_text!r} is not a number"
            ) from None
        if not math.isfinite(tc):
            raise ModelFormatError(f"line {lineno}: timestamp {tc_text!r} is not finite")
        events.append(ObservedEvent(node, value, tc))
    return events


def load_event_log(path: Union[str, Path]) -> list[ObservedEvent]:
    path = Path(path)
    try:
        return parse_event_log(path.read_text())
    except ModelFormatError as err:
        raise ModelFormatError(f"{path}: {err}") from None
