import json
import os
import re
import shutil
import subprocess
import sys
from importlib import resources
from importlib.metadata import EntryPoint
from pathlib import Path

import pytest

import tnbn
import tnbn.cli
import tnbn.session
from tnbn import (
    ModelFormatError,
    accident_network,
    load_network,
    parse_event_log,
    save_network,
)


@pytest.fixture(scope="module")
def model_path():
    return str(resources.files("tnbn") / "data" / "accident.json")


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "tnbn", *args], capture_output=True, text=True
    )


def test_accident_network_loads_the_packaged_file_from_any_directory(
    model_path, tmp_path, monkeypatch
):
    monkeypatch.chdir(tmp_path)
    first, second = accident_network(), accident_network()
    assert first == load_network(model_path)
    assert first == second and first is not second


def test_validate_ok(model_path):
    result = run_cli("validate", model_path)
    assert result.returncode == 0
    assert "ok (5 nodes, 5 edges)" in result.stdout


def test_validate_reports_problems(tmp_path, model_path):
    data = json.loads(open(model_path).read())
    data["cpts"]["HI"]["rows"]["severe"] = [0.9, 0.3]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    result = run_cli("validate", str(bad))
    assert result.returncode == 1
    assert "sums to" in result.stdout
    assert "1 problem(s)" in result.stdout


@pytest.mark.parametrize("bad", ["NaN", "Infinity"])
def test_validate_reports_non_finite_probabilities(tmp_path, model_path, bad):
    # json reads NaN and Infinity as floats, so only validation can catch them
    data = json.loads(open(model_path).read())
    data["cpts"]["C"]["rows"][""][0] = float(bad)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert bad in path.read_text()
    result = run_cli("validate", str(path))
    assert result.returncode == 1
    assert "cpt C: row () has probabilities outside [0, 1]" in result.stdout
    assert "1 problem(s)" in result.stdout


@pytest.mark.parametrize(
    "command", [["validate"], ["simulate"], ["evaluate", "-c", "leaf", "-n", "5"]]
)
def test_an_interval_ending_at_infinity_is_invalid(tmp_path, model_path, capsys, command):
    # json reads Infinity as a float; sampling a time in [30, inf] cannot work
    data = json.loads(open(model_path).read())
    vs = next(n for n in data["nodes"] if n["id"] == "VS")
    vs["intervals"][-1][1] = float("inf")
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert "[30, Infinity]" in path.read_text()
    assert tnbn.cli.main([command[0], str(path), *command[1:]]) == 1
    out, err = capsys.readouterr()
    assert "node VS: interval [30,inf] does not end at a finite time" in out + err


def test_infer_prior(model_path):
    result = run_cli("infer", model_path, "-q", "HI")
    assert result.returncode == 0
    assert "P(HI)" in result.stdout
    assert "true" in result.stdout
    assert "0.5120" in result.stdout
    assert "0.4880" in result.stdout


def test_infer_with_evidence(model_path):
    result = run_cli("infer", model_path, "-q", "C", "-e", "HI=true")
    assert result.returncode == 0
    assert "P(C | HI=true)" in result.stdout
    assert "0.6469" in result.stdout


def test_infer_with_timed_evidence(model_path):
    result = run_cli("infer", model_path, "-q", "HI", "-e", "VS=unstable@[10,30]")
    assert result.returncode == 0
    assert "P(HI | VS=unstable@[10,30])" in result.stdout


def test_infer_unknown_state_exits_1_and_lists_legal_states(model_path):
    result = run_cli("infer", model_path, "-q", "C", "-e", "HI=maybe")
    assert result.returncode == 1
    assert "legal states" in result.stderr
    assert "true" in result.stderr and "false" in result.stderr


def test_infer_unknown_node_exits_1(model_path):
    result = run_cli("infer", model_path, "-q", "XX")
    assert result.returncode == 1
    assert "no node" in result.stderr


def test_infer_malformed_evidence_exits_2(model_path):
    result = run_cli("infer", model_path, "-q", "C", "-e", "HI")
    assert result.returncode == 2
    assert "NODE=STATE" in result.stderr


def test_infer_impossible_evidence_exits_1(model_path):
    result = run_cli(
        "infer", model_path, "-q", "C",
        "-e", "HI=true", "-e", "VS=unstable@[10,30]",
    )
    assert result.returncode == 1
    assert "probability zero" in result.stderr
    # the query observed too: no point mass on impossible evidence
    result = run_cli(
        "infer", model_path, "-q", "HI",
        "-e", "HI=true", "-e", "PD=dilated@[3,5]",
    )
    assert result.returncode == 1
    assert "probability zero" in result.stderr


def test_successive_infer_calls_do_not_share_evidence(model_path, capsys):
    # the parser is built once, and --evidence appends to a list default
    assert tnbn.cli._build_parser() is tnbn.cli._build_parser()
    for _ in range(2):
        assert tnbn.cli.main(["infer", model_path, "-q", "C", "-e", "HI=true"]) == 0
        assert capsys.readouterr().out.startswith("P(C | HI=true)\n")
    assert tnbn.cli.main(["infer", model_path, "-q", "C"]) == 0
    assert capsys.readouterr().out.startswith("P(C)\n")


def test_a_duplicated_node_id_is_reported_by_validate(tmp_path, capsys):
    # B's rows name A's first declaration; the second one must not shadow it
    data = {
        "name": "dup",
        "time_unit": "minute",
        "nodes": [
            {"id": "A", "kind": "instantaneous", "values": ["x", "y"]},
            {"id": "A", "kind": "instantaneous", "values": ["p", "q"]},
            {"id": "B", "kind": "instantaneous", "values": ["u", "v"]},
        ],
        "edges": [["A", "B"]],
        "cpts": {
            "A": {"parents": [], "rows": {"": [0.5, 0.5]}},
            "B": {"parents": ["A"], "rows": {"x": [0.5, 0.5], "y": [0.5, 0.5]}},
        },
    }
    path = tmp_path / "dup.json"
    path.write_text(json.dumps(data))
    assert tnbn.cli.main(["validate", str(path)]) == 1
    out, err = capsys.readouterr()
    assert "node A: node id declared more than once" in out + err


@pytest.mark.parametrize(
    "node, old, new, code",
    [
        # no row key names PD's values, so the file loads and validate reports it
        ("PD", "dilated", "dilated#2", 1),
        # HI's and IB's row keys name C's values: they are kept as text, so
        # the file loads and validate reports C and skips the tables it heads
        ("C", "severe", "mild#2", 1),
    ],
)
def test_a_hash_in_a_label_is_refused(model_path, tmp_path, capsys, node, old, new, code):
    # an event log drops the rest of a line from "#", so "100 C mild#2"
    # would read as C = mild
    path = tmp_path / "hash.json"
    path.write_text(open(model_path).read().replace(f'"{old}"', f'"{new}"'))
    log = tmp_path / "intake.log"
    log.write_text(f"100 {node} {new}\n")
    reason = f"value '{new}' contains whitespace or a reserved character (one of | @ = [ ] , #)"
    for command in (["validate", str(path)], ["session", str(path), str(log)]):
        assert tnbn.cli.main(command) == code
        out, err = capsys.readouterr()
        assert reason in out + err
        assert "forecasts:" not in out


def test_a_hash_in_a_parent_value_is_reported_with_every_other_problem(model_path, tmp_path, capsys):
    data = json.loads(open(model_path).read().replace('"severe"', '"mild#2"'))
    data["cpts"]["PD"]["rows"]["false"] = [0.95, 0.025, 0.035]
    path = tmp_path / "two.json"
    path.write_text(json.dumps(data))
    log = tmp_path / "intake.log"
    log.write_text("100 HI true\n")
    reasons = (
        "node C: value 'mild#2' contains whitespace or a reserved character",
        "cpt PD: row (HI=false) sums to 1.01, not 1",
    )
    for command in (["validate", str(path)], ["session", str(path), str(log)]):
        assert tnbn.cli.main(command) == 1
        out, err = capsys.readouterr()
        assert all(reason in out + err for reason in reasons)
        assert "forecasts:" not in out


def test_missing_file_exits_2():
    result = run_cli("validate", "/no/such/file.json")
    assert result.returncode == 2


def test_unreadable_json_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("not json")
    result = run_cli("validate", str(bad))
    assert result.returncode == 2
    assert "line 1" in result.stderr


def _with_huge_number(model: str, *path) -> str:
    """The model text with the entry at `path` replaced by 10**400."""
    data = inner = json.loads(model)
    *outer, last = path
    for step in outer:
        inner = inner[step]
    inner[last] = "stand-in"
    return json.dumps(data).replace('"stand-in"', str(10**400))


# file name, its content made from the model's text, and what the error
# line says after the path
_UNREADABLE_INPUTS = {
    "model-not-utf8": ("bad.json", lambda m: b"\xff\xfe" + m.encode(), "not UTF-8: 'utf-8' codec"),
    "log-not-utf8": ("intake.log", lambda m: b"100\tC\tsev\xffre\n", "not UTF-8: 'utf-8' codec"),
    "deep-nesting": ("bad.json", lambda m: "[" * 200_000 + "]" * 200_000, "JSON nested too deeply"),
    "long-integer": ("bad.json", lambda m: m.replace('"accident"', "1" * 5000, 1), "cannot read a number"),
    "huge-bound": (
        "bad.json",
        lambda m: _with_huge_number(m, "nodes", 4, "intervals", 0, 0),
        "nodes[4].intervals[0] is too large to convert to a float",
    ),
    "huge-probability": (
        "bad.json",
        lambda m: _with_huge_number(m, "cpts", "HI", "rows", "severe", 0),
        "cpts['HI'].rows['severe'][0] is too large to convert to a float",
    ),
    # a second `severe` row for HI, which a plain JSON parse kept in silence
    "duplicate-row": (
        "bad.json",
        lambda m: m.replace('"severe": [\n          0.9,', '"severe": [0.7, 0.3],\n"severe": [0.9,', 1),
        "duplicate key 'severe'",
    ),
}


@pytest.mark.parametrize("case", list(_UNREADABLE_INPUTS))
def test_an_unreadable_input_file_exits_2_naming_it(case, model_path, tmp_path):
    if case == "long-integer" and not hasattr(sys, "get_int_max_str_digits"):
        pytest.skip("this Python reads integers of any length")
    name, make, says = _UNREADABLE_INPUTS[case]
    path = tmp_path / name
    text = make(Path(model_path).read_text(encoding="utf-8"))
    path.write_bytes(text if isinstance(text, bytes) else text.encode())
    if name.endswith(".log"):
        result = run_cli("session", model_path, str(path))
    else:
        result = run_cli("validate", str(path))
    assert result.returncode == 2
    assert result.stderr.startswith(f"error: {path}: {says}")
    assert result.stderr.count("\n") == 1 and "Traceback" not in result.stderr


def test_session_replay(model_path, tmp_path):
    log = tmp_path / "intake.log"
    log.write_text("100\tC\tsevere\n115\tVS\tunstable\n")
    result = run_cli("session", model_path, str(log))
    assert result.returncode == 0
    assert "anchor: C=severe at 100" in result.stdout
    assert "VS = unstable@[10,30] at 115, window [110,130]" in result.stdout
    assert "forecasts:" in result.stdout
    assert "P(PD)" in result.stdout


def test_session_with_pending_prints_scenarios(model_path, tmp_path):
    log = tmp_path / "intake.log"
    log.write_text("115 VS unstable\n")
    result = run_cli("session", model_path, str(log))
    assert result.returncode == 0
    assert "pending:" in result.stdout
    assert "interval unknown" in result.stdout
    assert "scenarios:" in result.stdout
    assert "VS=unstable@[0,10]" in result.stdout


def test_session_weighs_the_scenarios_once(model_path, tmp_path, monkeypatch, capsys):
    calls = []
    query = tnbn.session.marginals

    def counted(*args, **kwargs):
        calls.append(args)
        return query(*args, **kwargs)

    monkeypatch.setattr(tnbn.session, "marginals", counted)
    log = tmp_path / "intake.log"
    log.write_text("115 VS unstable\n")
    for extra in ([], ["--diagnose"]):
        calls.clear()
        assert tnbn.cli.main(["session", model_path, str(log), *extra]) == 0
        # one query on every unresolved node serves the printed scenarios
        # (VS) and the forecasts or the diagnosis (the others)
        assert [list(targets) for _, targets, _ in calls] == [["C", "HI", "IB", "PD", "VS"]]
        assert "scenarios:" in capsys.readouterr().out


PENDING_SESSION_HEAD = """\
anchor: VS=unstable at 115
resolved:
  (none)
pending:
  VS = unstable at 115, interval unknown
scenarios:
  0.5841  VS=unstable@[0,10]
  0.2093  VS=unstable@[10,30]
  0.2065  VS=unstable@[30,60]
"""

PENDING_SESSION_CAUSES = """\
  P(C)
    severe    0.4141
    moderate  0.3947
    mild      0.1913
  P(HI)
    true   0.5816
    false  0.4184
  P(IB)
    gross   0.5121
    slight  0.3976
    none    0.0903
"""

PENDING_SESSION_PD = """\
  P(PD)
    normal         0.4266
    dilated@[0,3]  0.5630  window [115,118]
    dilated@[3,5]  0.0105  window [118,120]
"""


@pytest.mark.parametrize("diagnose", [False, True])
def test_pending_session_output_is_pinned(model_path, tmp_path, capsys, diagnose):
    log = tmp_path / "intake.log"
    log.write_text("115 VS unstable\n")
    argv = ["session", model_path, str(log)] + (["--diagnose"] if diagnose else [])
    assert tnbn.cli.main(argv) == 0
    if diagnose:
        expected = PENDING_SESSION_HEAD + "diagnosis:\n" + PENDING_SESSION_CAUSES
    else:
        expected = (
            PENDING_SESSION_HEAD + "forecasts:\n" + PENDING_SESSION_CAUSES + PENDING_SESSION_PD
        )
    assert capsys.readouterr().out == expected


def test_session_reports_inconsistencies(model_path, tmp_path):
    log = tmp_path / "intake.log"
    log.write_text("100 C severe\n300 VS unstable\n")
    result = run_cli("session", model_path, str(log))
    assert result.returncode == 0
    assert "inconsistent:" in result.stdout
    assert "outside the covered range" in result.stdout


def test_session_prints_a_huge_time_in_exponent_form(model_path, tmp_path, capsys):
    log = tmp_path / "intake.log"
    log.write_text("100 C severe\n1e308 VS unstable\n")
    assert tnbn.cli.main(["session", model_path, str(log)]) == 0
    out = capsys.readouterr().out
    assert (
        "  VS = unstable at 1e+308: elapsed time 1e+308 lies outside the covered range [0,60] of node 'VS'\n"
        in out
    )
    assert max(len(line) for line in out.splitlines()) < 100


def test_session_diagnose_lists_causes_only(model_path, tmp_path):
    log = tmp_path / "intake.log"
    log.write_text("115 VS unstable\n")
    result = run_cli("session", model_path, str(log), "--diagnose")
    assert result.returncode == 0
    assert "diagnosis:" in result.stdout
    assert "P(C)" in result.stdout
    assert "P(PD)" not in result.stdout


def test_session_duplicate_event_exits_1(model_path, tmp_path):
    log = tmp_path / "intake.log"
    log.write_text("100 C severe\n101 C mild\n")
    result = run_cli("session", model_path, str(log))
    assert result.returncode == 1
    assert "already observed" in result.stderr


def test_session_bad_log_exits_2(model_path, tmp_path):
    log = tmp_path / "intake.log"
    log.write_text("100 C\n")
    result = run_cli("session", model_path, str(log))
    assert result.returncode == 2


def test_session_non_finite_timestamp_exits_2(model_path, tmp_path):
    log = tmp_path / "intake.log"
    log.write_text("nan C severe\n115 VS unstable\n")
    result = run_cli("session", model_path, str(log))
    assert result.returncode == 2
    assert "line 1" in result.stderr and "not finite" in result.stderr


# each is put in place of one field: empty, not finite, an unknown node or
# state, and a timed label with bounds that are not numbers
_FIELD_MENU = ("", "nan", "inf", "-inf", "ZZ", "maybe", "a@[x,y]")


def _field_mutations(fields):
    """Each field replaced by each menu value, each field dropped, one added."""
    for i in range(len(fields)):
        for value in _FIELD_MENU:
            yield fields[:i] + [value] + fields[i + 1 :]
        yield fields[:i] + fields[i + 1 :]
    yield fields + ["x"]


def _log_texts():
    lines = [["100", "C", "severe"], ["115", "VS", "unstable"], ["103", "PD", "normal"]]
    for i, line in enumerate(lines):
        for mutated in _field_mutations(line):
            for sep in (" ", "\t"):
                rows = [" ".join(other) for other in lines]
                rows[i] = sep.join(mutated)
                yield "\n".join(rows) + "\n"


def _evidence_texts():
    # node, value and, for a timed state, the interval's two bounds
    for node, value, bounds in (
        ("HI", "true", None),
        ("VS", "unstable", ["10", "30"]),
        ("PD", "dilated", ["0", "3"]),
    ):
        fields = [node, value] + (bounds or [])
        for mutated in _field_mutations(fields):
            head, tail = mutated[:2], mutated[2:]
            label = "=".join(head)
            yield label + (f"@[{','.join(tail)}]" if tail else "")


def test_every_malformed_log_line_fails_typed(model_path, tmp_path, capsys):
    texts = sorted(set(_log_texts()))
    assert len(texts) > 100
    path = tmp_path / "intake.log"
    escapes = []
    for text in texts:
        try:
            parse_event_log(text)
        except ModelFormatError:
            pass
        except Exception as err:
            escapes.append((text, "parse_event_log", repr(err)))
        path.write_text(text)
        for extra in ([], ["--diagnose"]):
            try:
                code = tnbn.cli.main(["session", model_path, str(path), *extra])
            except Exception as err:
                escapes.append((text, extra, repr(err)))
            else:
                if code not in (0, 1, 2):
                    escapes.append((text, extra, code))
    capsys.readouterr()
    assert escapes == []


def test_every_malformed_evidence_text_fails_typed(model_path, capsys):
    texts = sorted(set(_evidence_texts()))
    assert len(texts) > 80
    escapes = []
    for text in texts:
        for query in ("C", "VS"):
            argv = ["infer", model_path, "-q", query, f"--evidence={text}"]
            try:
                code = tnbn.cli.main(argv)
            except Exception as err:
                escapes.append((text, query, repr(err)))
            else:
                if code not in (0, 1, 2):
                    escapes.append((text, query, code))
    capsys.readouterr()
    assert escapes == []


def test_simulate_deterministic_output(model_path):
    first = run_cli("simulate", model_path, "-n", "2", "-s", "5")
    second = run_cli("simulate", model_path, "-n", "2", "-s", "5")
    assert first.returncode == 0
    assert first.stdout == second.stdout
    assert "# trajectory 0" in first.stdout
    assert "# trajectory 1" in first.stdout
    assert "node\tstate\ttime" in first.stdout


def test_simulate_writes_a_file(model_path, tmp_path):
    out = tmp_path / "runs.tsv"
    result = run_cli("simulate", model_path, "-n", "3", "-s", "5", "-o", str(out))
    assert result.returncode == 0
    assert "wrote 3 trajectories" in result.stdout
    assert out.read_text().count("# trajectory") == 3


def test_simulate_text_is_the_sampled_trajectories(model_path, tmp_path, capsys):
    net = tnbn.compile_network(load_network(model_path))
    blocks = []
    for t in range(3):
        seed = tnbn.trial_seed(5, t)
        lines = [f"# trajectory {t} (seed {seed})", "node\tstate\ttime"]
        for e in tnbn.sample_trajectory(net, seed).entries:
            time = "-" if e.time is None else f"{e.time:.3f}"
            lines.append(f"{e.node}\t{net.spec.node(e.node).state_label(e.state)}\t{time}")
        blocks.append("\n".join(lines) + "\n")
    want = "\n".join(blocks)  # one blank line between two trajectories
    assert tnbn.cli.main(["simulate", model_path, "-n", "3", "-s", "5"]) == 0
    assert capsys.readouterr().out == want
    out = tmp_path / "runs.tsv"
    assert tnbn.cli.main(["simulate", model_path, "-n", "3", "-s", "5", "-o", str(out)]) == 0
    assert capsys.readouterr().out == f"wrote 3 trajectories to {out}\n"
    assert out.read_text() == want


def test_simulate_prints_a_huge_time_in_exponent_form(model_path, tmp_path, capsys):
    data = json.loads(open(model_path).read())
    data["nodes"][4]["intervals"][2] = [30, 1e300]  # VS's last interval
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(data))
    assert tnbn.cli.main(["simulate", str(path), "-n", "20", "-s", "5"]) == 0
    times = [line.split("\t")[2] for line in capsys.readouterr().out.splitlines() if line.startswith("VS\t")]
    huge = [t for t in times if "e+" in t]
    assert huge and all(float(t) >= 30 and repr(float(t)) == t for t in huge)
    # any other time keeps three decimals
    assert all(t == "-" or re.fullmatch(r"\d+\.\d{3}", t) for t in times if t not in huge)
    assert max(map(len, times)) < 30


def test_simulate_into_a_directory_exits_2_before_sampling(model_path, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(tnbn.simulate, "_sample", pytest.fail)
    assert tnbn.cli.main(["simulate", model_path, "-n", "2", "-o", str(tmp_path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ")


def test_simulate_refuses_before_opening_the_output_or_sampling(model_path, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(tnbn.simulate, "_sample", pytest.fail)
    out = tmp_path / "runs.tsv"
    assert tnbn.cli.main(["simulate", model_path, "-n", "2", "-s", "-1", "-o", str(out)]) == 1
    assert not out.exists()
    assert tnbn.cli.main(["simulate", model_path, "-n", "2", "-o", str(tmp_path)]) == 2
    printed, err = capsys.readouterr()
    assert printed == ""
    assert err.splitlines()[0] == "error: seed must be a non-negative integer, got -1"


@pytest.mark.parametrize("trials", ["0", "-1"])
def test_simulate_without_trials_exits_1(model_path, capsys, trials):
    assert tnbn.cli.main(["simulate", model_path, "-n", trials]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert "trials must be at least 1" in err


@pytest.mark.parametrize("command", [["simulate", "-n", "2"], ["evaluate", "-c", "leaf", "-n", "2"]])
def test_a_negative_seed_exits_1_naming_the_seed(model_path, capsys, command):
    name, *options = command
    assert tnbn.cli.main([name, model_path, *options, "-s", "-1"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: seed must be a non-negative integer, got -1\n"


def test_evaluate_table(model_path):
    result = run_cli("evaluate", model_path, "-c", "root", "-n", "20", "-s", "2")
    assert result.returncode == 0
    assert "condition: root-observed" in result.stdout
    assert "Accuracy" in result.stdout
    assert "RBS" in result.stdout


def test_evaluate_json(model_path):
    result = run_cli(
        "evaluate", model_path, "-c", "leaf-observed", "-n", "10", "-s", "2", "--json"
    )
    assert result.returncode == 0
    data = json.loads(result.stdout)
    assert data["condition"] == "leaf-observed"
    assert data["trials"] == 10
    assert 0.0 <= data["rbs"]["mean"] <= 100.0


def test_evaluate_unknown_condition_exits_1(model_path):
    result = run_cli("evaluate", model_path, "-c", "sideways", "-n", "5")
    assert result.returncode == 1
    assert "unknown condition" in result.stderr


def test_evaluate_names_a_trial_whose_events_are_impossible(tmp_path):
    from test_simulate import IMPOSSIBLE_TRIAL, _contradicting_leaves

    path = tmp_path / "contradiction.json"
    save_network(_contradicting_leaves(), path)
    result = run_cli("evaluate", str(path), "-c", "leaf")
    assert result.returncode == 1
    assert result.stderr == f"error: {IMPOSSIBLE_TRIAL}\n"


PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def _check_console_script(tmp_path, env=None):
    path = tmp_path / "copy.json"
    save_network(accident_network(), path)
    result = subprocess.run(
        ["tnbn", "validate", str(path)], capture_output=True, text=True, env=env
    )
    assert result.returncode == 0, result.stderr
    assert "ok (5 nodes, 5 edges)" in result.stdout, result.stderr


def test_console_script_is_installed(tmp_path):
    """The `tnbn` command declared in pyproject.toml runs by name.

    Builds the launcher pip would install for the declared entry point, so
    the check needs no install and still fails if the declaration or `main`
    is broken.
    """
    tomllib = pytest.importorskip("tomllib")
    with PYPROJECT.open("rb") as fh:
        value = tomllib.load(fh)["project"]["scripts"]["tnbn"]
    entry = EntryPoint(name="tnbn", value=value, group="console_scripts")
    bindir = tmp_path / "bin"
    bindir.mkdir()
    script = bindir / "tnbn"
    script.write_text(
        f"#!{sys.executable}\n"
        "import sys\n"
        f"from {entry.module} import {entry.attr.split('.')[0]}\n"
        "if __name__ == '__main__':\n"
        f"    sys.exit({entry.attr}())\n"
    )
    script.chmod(0o755)
    env = dict(os.environ)
    env["PATH"] = os.pathsep.join([str(bindir), env.get("PATH", "")])
    env["PYTHONPATH"] = str(Path(tnbn.__file__).resolve().parent.parent)
    _check_console_script(tmp_path, env)


@pytest.mark.skipif(
    shutil.which("tnbn") is None, reason="tnbn console script not installed"
)
def test_installed_console_script_runs(tmp_path):
    _check_console_script(tmp_path)
