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

import itertools
import json
import math
import operator
from importlib import resources
from pathlib import Path
from typing import Any, Callable, Optional, Union

from .errors import ModelFormatError, TNBNError
from .model import (
    ConditionalTable,
    NetworkSpec,
    NodeKind,
    NodeSpec,
    NodeState,
    TimeInterval,
    state_enumeration,
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
    if not isinstance(value, str):
        raise ModelFormatError(f"{what} must be a string, got {value!r}")
    return value


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _number(value: Any, what: str) -> float:
    if not _is_number(value):
        raise ModelFormatError(f"{what} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ModelFormatError(f"{what} is too large to convert to a float") from None


# A CPT row's place in the file is formatted only for an error message, so a
# clean load builds no string per row.
def _row_at(where: str, key_text: Any) -> str:
    return f"{where}.rows[{key_text!r}]"


def _row(where: str, key_text: Any, probs_raw: Any) -> tuple[float, ...]:
    """A row read entry by entry; the first bad entry raises ModelFormatError."""
    at = _row_at(where, key_text)
    _expect(isinstance(probs_raw, list), f"{at} must be a list of probabilities")
    return tuple(_number(p, f"{at}[{j}]") for j, p in enumerate(probs_raw))


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
        intervals_raw = raw.get("intervals", [])
        _expect(isinstance(intervals_raw, list), f"{where}.intervals must be a list")
        intervals = []
        for j, pair in enumerate(intervals_raw):
            at = f"{where}.intervals[{j}]"
            _expect(
                isinstance(pair, list) and len(pair) == 2,
                f"{at} must be a [lo, hi] pair",
            )
            intervals.append(TimeInterval(_number(pair[0], at), _number(pair[1], at)))
        nodes.append(NodeSpec(nid, kind, values, default, tuple(intervals)))
    # a duplicated id resolves to its first node, as in NetworkSpec.node, so
    # validation reports the duplicate rather than a row of the other node
    by_id = {n.id: n for n in reversed(nodes)}

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
        keys = _canonical_keys(by_id, parents, rows_raw)
        if keys is None:
            keys = (_parse_row_key(by_id, parsed, parents, t, where) for t in rows_raw)
        rows: dict[tuple[NodeState, ...], tuple[float, ...]] = {}
        for key, (key_text, probs_raw) in zip(keys, rows_raw.items()):
            # a row of numbers converts in one pass (exact ints and floats with
            # no Python call per entry); any other row, or one holding an int
            # too large for a float, is read entry by entry to name the bad one
            if isinstance(probs_raw, list) and (
                {int, float}.issuperset(map(type, probs_raw)) or all(map(_is_number, probs_raw))
            ):
                try:
                    rows[key] = tuple(map(float, probs_raw))
                    continue
                except OverflowError:
                    pass
            rows[key] = _row(where, key_text, probs_raw)
        tables[child] = ConditionalTable(child, parents, rows)

    return NetworkSpec(name, time_unit, tuple(nodes), tuple(edges), tables)


def _canonical_keys(
    by_id: dict[str, NodeSpec], parents: tuple[str, ...], rows_raw: dict
) -> Optional[list[tuple[NodeState, ...]]]:
    """The row keys of a table with one row per parent-state tuple, in
    enumeration order, with canonical labels; None for any other table. The
    row count is checked first, so a short table never forms the product."""
    nodes = [by_id.get(p) for p in parents]
    if any(n is None or n._row_labels is None for n in nodes):
        return None
    labels = [n._row_labels for n in nodes]
    if math.prod(map(len, labels)) != len(rows_raw):
        return None
    texts = map("|".join, itertools.product(*labels))
    if not all(map(operator.eq, rows_raw, texts)):
        return None
    return list(itertools.product(*(state_enumeration(n) for n in nodes)))


def _parse_row_key(
    by_id: dict[str, NodeSpec],
    parsed: dict[tuple[str, str], NodeState],
    parents: tuple[str, ...],
    key_text: Any,
    where: str,
) -> tuple[NodeState, ...]:
    if not isinstance(key_text, str):
        raise ModelFormatError(f"{_row_at(where, key_text)} key must be a string, got {key_text!r}")
    parts = key_text.split("|") if key_text else []
    if len(parts) != len(parents):
        raise ModelFormatError(
            f"{_row_at(where, key_text)}: key names {len(parts)} parent states but the "
            f"table has {len(parents)} parents"
        )
    key = []
    for pid, part in zip(parents, parts):
        state = parsed.get((pid, part))
        if state is None:
            node = by_id.get(pid)
            if node is None:
                raise ModelFormatError(
                    f"{_row_at(where, key_text)}: parent {pid!r} is not a declared node"
                )
            if node._violations:
                # kept as its text: validate reports the parent and skips
                # the tables it heads, so the file still gets a full report
                key.append(NodeState(part))
                continue
            try:
                state = parsed[pid, part] = node.parse_state_label(part)
            except (TNBNError, ValueError) as err:
                raise ModelFormatError(
                    f"{_row_at(where, key_text)}: cannot interpret {part!r}: {err}"
                ) from None
        key.append(state)
    return tuple(key)


def save_network(spec: NetworkSpec, path: Union[str, Path]) -> None:
    Path(path).write_text(json.dumps(network_to_dict(spec), indent=2) + "\n")


def _read(path: Union[str, Path], parse: Callable[[str], Any]) -> Any:
    """`parse` of the file's UTF-8 text, less one leading byte-order mark (as
    some editors write). A file that is not UTF-8, or that `parse` refuses,
    raises ModelFormatError naming the file."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as err:
        raise ModelFormatError(f"{path}: not UTF-8: {err}") from None
    try:
        return parse(text)
    except ModelFormatError as err:
        raise ModelFormatError(f"{path}: {err}") from None


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict:
    """A JSON object's dict; a key given twice raises ModelFormatError (a
    plain parse would keep the last value without a word)."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen: set[str] = set()
        for key, _ in pairs:
            if key in seen:
                raise ModelFormatError(f"duplicate key {key!r}")
            seen.add(key)
    return obj


def _parse_network(text: str) -> NetworkSpec:
    try:
        data = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as err:
        raise ModelFormatError(f"line {err.lineno} column {err.colno}: {err.msg}") from None
    except RecursionError:
        raise ModelFormatError("JSON nested too deeply to read") from None
    except ValueError as err:  # an integer past Python's digit limit
        raise ModelFormatError(f"cannot read a number: {err}") from None
    return network_from_dict(data)


def load_network(path: Union[str, Path]) -> NetworkSpec:
    return _read(path, _parse_network)


def accident_network() -> NetworkSpec:
    """Load the bundled five-node accident network (data/accident.json)."""
    text = (resources.files("tnbn") / "data" / "accident.json").read_text(encoding="utf-8")
    return _parse_network(text)


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
    return _read(path, parse_event_log)
