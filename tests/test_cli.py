"""CLI tests: flows, exit codes, report shape, renders, determinism."""

import json
import os
import subprocess
import sys

import pytest

from divplan.cli import EXIT_EMPTY, EXIT_OK, EXIT_USAGE, SCHEMA_VERSION, main
from divplan.satplan import EXTERNAL_SOLVER_ENV

UNSOLVABLE = {
    "fluents": ["p", "q"],
    "actions": [{"name": "spin", "pre": [], "add": ["q"], "del": []}],
    "init": [],
    "goal": [["p"]],
    "budget": 3,
}

SOLVABLE = {
    "fluents": ["p"],
    "actions": [{"name": "win", "pre": ["!p"], "add": ["p"], "del": []}],
    "init": [],
    "goal": [["p"]],
    "budget": 2,
}


def run(*argv):
    return main(list(argv))


@pytest.fixture
def story_report(tmp_path):
    out = tmp_path / "story.json"
    code = run(
        "plan", "--domain", "story-tiny", "--backend", "sat", "--k", "3",
        "--out", str(out),
    )
    assert code == EXIT_OK
    return out


# ---------------------------------------------------------------------------
# plan
# ---------------------------------------------------------------------------


def test_plan_report_shape(story_report):
    doc = json.loads(story_report.read_text())
    assert doc["schema_version"] == SCHEMA_VERSION
    assert set(doc) == {"schema_version", "config", "result", "stats"}
    result = doc["result"]
    assert result["bdc"] == 3
    assert result["termination"] == "reached-k"
    assert len(result["plans"]) == len(result["behaviours"]) == 3
    stats = doc["stats"]
    assert stats["behaviour_calls"] == 3  # one per novel cell, none wasted
    assert stats["plan_calls"] == 0
    assert stats["plan_lengths"] == [len(p) for p in result["plans"]]


def test_plan_writes_to_stdout_when_no_out(capsys):
    code = run("plan", "--domain", "story-tiny", "--backend", "sat", "--k", "1")
    assert code == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["result"]["bdc"] == 1


def test_plan_search_backend_on_platformer(tmp_path):
    out = tmp_path / "plat.json"
    code = run(
        "plan", "--domain", "platformer", "--backend", "search", "--k", "2",
        "--out", str(out),
    )
    assert code == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["result"]["bdc"] == 2
    assert sorted(b[0] for b in doc["result"]["behaviours"]) == ["avoided", "killed"]
    assert doc["config"]["strategy"] == "breadth-first"


def test_plan_empty_set_exits_2(tmp_path, capsys):
    src = tmp_path / "unsolvable.json"
    src.write_text(json.dumps(UNSOLVABLE))
    code = run("plan", "--problem-json", str(src), "--backend", "sat", "--k", "2")
    assert code == EXIT_EMPTY
    doc = json.loads(capsys.readouterr().out)
    assert doc["result"]["plans"] == []
    assert doc["result"]["termination"] == "behaviours-exhausted-then-plans-exhausted"


def test_plan_problem_json_source(tmp_path, capsys):
    src = tmp_path / "solvable.json"
    src.write_text(json.dumps(SOLVABLE))
    code = run("plan", "--problem-json", str(src), "--backend", "sat", "--k", "1")
    assert code == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["result"]["plans"] == [["win"]]


def test_plan_pddl_source(tmp_path, capsys):
    # drive the same files the bundled story-tiny pack uses
    from importlib.resources import files

    data = files("divplan.domains") / "data"
    code = run(
        "plan",
        "--pddl-domain", str(data / "story-tiny-domain.pddl"),
        "--pddl-problem", str(data / "story-tiny-problem.pddl"),
        "--backend", "sat", "--k", "2",
    )
    assert code == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["result"]["bdc"] == 2


def test_plan_custom_space_file(tmp_path, capsys):
    src = tmp_path / "solvable.json"
    src.write_text(json.dumps(SOLVABLE))
    space = tmp_path / "space.json"
    space.write_text(
        json.dumps({"features": [{"kind": "goal-endings", "name": "endings"}]})
    )
    code = run(
        "plan", "--problem-json", str(src), "--backend", "sat", "--k", "1",
        "--space", str(space),
    )
    assert code == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["config"]["space"].endswith("space.json")


def test_plan_horizon_flags_bound_the_search(capsys):
    # story-tiny needs 3 steps; capping the horizon at 2 finds nothing
    code = run(
        "plan", "--domain", "story-tiny", "--backend", "sat", "--k", "1",
        "--horizon-max", "2",
    )
    assert code == EXIT_EMPTY


@pytest.mark.parametrize(
    "argv, fragment",
    [
        (("plan", "--backend", "sat"), "exactly one problem source"),
        (
            ("plan", "--domain", "story", "--problem-json", "x.json",
             "--backend", "sat"),
            "exactly one problem source",
        ),
        (("plan", "--domain", "nowhere", "--backend", "sat"), "unknown bundled domain"),
        (("plan", "--domain", "urban", "--backend", "sat"), "declarative"),
        (("plan", "--domain", "story", "--backend", "search"), "simulator"),
        (("plan", "--domain", "story", "--backend", "sat", "--k", "0"), "--k"),
        (
            ("plan", "--domain", "urban", "--backend", "search",
             "--node-budget", "0"),
            "node_budget",
        ),
        (
            ("plan", "--domain", "story", "--backend", "sat",
             "--horizon-min", "5", "--horizon-max", "3"),
            "horizon",
        ),
        (
            ("plan", "--pddl-domain", "only-half.pddl", "--backend", "sat"),
            "go together",
        ),
    ],
)
def test_plan_config_errors(capsys, argv, fragment):
    assert run(*argv) == EXIT_USAGE
    assert fragment in capsys.readouterr().err


def test_plan_broken_external_solver_is_a_usage_error(monkeypatch, capsys):
    # the "solver" prints no status line, so the bridge cannot read an answer
    monkeypatch.setenv(EXTERNAL_SOLVER_ENV, f"{sys.executable} -c pass")
    code = run("plan", "--domain", "story-tiny", "--backend", "sat")
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_plan_missing_file_is_a_usage_error(capsys):
    code = run(
        "plan", "--problem-json", "/no/such/file.json", "--backend", "sat"
    )
    assert code == EXIT_USAGE


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------


def test_validate_accepts_report_files(story_report, capsys):
    code = run("validate", "--domain", "story-tiny", "--plans", str(story_report))
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert out.count("valid") == 3


def test_validate_accepts_bare_label_lists(tmp_path, capsys):
    # a single plan as one flat list of labels
    plans = tmp_path / "plan.json"
    plans.write_text(json.dumps(["win"]))
    src = tmp_path / "prob.json"
    src.write_text(json.dumps(SOLVABLE))
    code = run("validate", "--problem-json", str(src), "--plans", str(plans))
    assert code == EXIT_OK
    assert "plan 0: valid" in capsys.readouterr().out


def test_validate_flags_truncated_plans(tmp_path, capsys):
    src = tmp_path / "prob.json"
    src.write_text(json.dumps(SOLVABLE))
    plans = tmp_path / "plans.json"
    plans.write_text(json.dumps({"plans": [[], ["win"]]}))
    code = run("validate", "--problem-json", str(src), "--plans", str(plans))
    assert code == EXIT_EMPTY
    out = capsys.readouterr().out
    assert "plan 0: INVALID" in out
    assert "plan 1: valid" in out


def test_validate_unknown_action_is_a_usage_error(tmp_path, capsys):
    src = tmp_path / "prob.json"
    src.write_text(json.dumps(SOLVABLE))
    plans = tmp_path / "plans.json"
    plans.write_text(json.dumps([["lose"]]))
    code = run("validate", "--problem-json", str(src), "--plans", str(plans))
    assert code == EXIT_USAGE
    assert "unknown action" in capsys.readouterr().err


def test_validate_rejects_simulator_domains(capsys, tmp_path):
    plans = tmp_path / "plans.json"
    plans.write_text(json.dumps([["noop"]]))
    code = run("validate", "--domain", "urban", "--plans", str(plans))
    assert code == EXIT_USAGE
    assert "declarative" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# render
# ---------------------------------------------------------------------------


def test_render_story_summary(story_report, capsys):
    code = run("render", str(story_report), "--what", "story-summary")
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "married" in out
    assert "behaviour-space occupancy:" in out


def test_render_platformer_overlay(tmp_path, capsys):
    out_path = tmp_path / "plat.json"
    assert run(
        "plan", "--domain", "platformer", "--backend", "search", "--k", "2",
        "--out", str(out_path),
    ) == EXIT_OK
    code = run("render", str(out_path), "--what", "platformer")
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "x" in out  # the stomped enemy marker
    assert "########################" in out
    assert "<killed>" in out and "<avoided>" in out


def test_render_rejects_wrong_domain(story_report, capsys):
    code = run("render", str(story_report), "--what", "urban-grid")
    assert code == EXIT_USAGE
    assert "urban" in capsys.readouterr().err


def test_render_rejects_unknown_schema(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"schema_version": 99}))
    code = run("render", str(bad), "--what", "story-summary")
    assert code == EXIT_USAGE
    assert "schema" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# determinism and packaging
# ---------------------------------------------------------------------------


def test_same_seed_same_bytes(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    argv = ("plan", "--domain", "story-tiny", "--backend", "sat", "--k", "3")
    assert run(*argv, "--out", str(a)) == EXIT_OK
    assert run(*argv, "--out", str(b)) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


def test_console_script_help():
    proc = subprocess.run(
        [sys.executable, "-m", "divplan.cli", "--help"],
        capture_output=True, text=True,
        # the package may be importable only through this process's sys.path
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert proc.returncode == 0
    for sub in ("plan", "validate", "render"):
        assert sub in proc.stdout
