import json
import os
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
from tnbn import accident_network, save_network


@pytest.fixture(scope="module")
def model_path():
    return str(resources.files("tnbn") / "data" / "accident.json")


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "tnbn", *args], capture_output=True, text=True
    )


def test_bundled_model_matches_the_library_fixture(model_path):
    from tnbn import load_network

    assert load_network(model_path) == accident_network()


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


def test_missing_file_exits_2():
    result = run_cli("validate", "/no/such/file.json")
    assert result.returncode == 2


def test_unreadable_json_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("not json")
    result = run_cli("validate", str(bad))
    assert result.returncode == 2
    assert "line 1" in result.stderr


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
    weigh = tnbn.session.evidence_probability

    def counted(*args, **kwargs):
        calls.append(args)
        return weigh(*args, **kwargs)

    monkeypatch.setattr(tnbn.session, "evidence_probability", counted)
    log = tmp_path / "intake.log"
    log.write_text("115 VS unstable\n")
    assert tnbn.cli.main(["session", model_path, str(log)]) == 0
    # one weighing per candidate interval of VS, shared by printing and predict()
    assert len(calls) == 3
    assert "scenarios:" in capsys.readouterr().out


def test_session_reports_inconsistencies(model_path, tmp_path):
    log = tmp_path / "intake.log"
    log.write_text("100 C severe\n300 VS unstable\n")
    result = run_cli("session", model_path, str(log))
    assert result.returncode == 0
    assert "inconsistent:" in result.stdout
    assert "outside the covered range" in result.stdout


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
