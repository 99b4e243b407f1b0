"""CLI tests: flows, exit codes, report shape, renders, determinism."""

import json
import os
import subprocess
import sys
from importlib.resources import files

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from divplan import cli, ltl
from divplan.bspace import BehaviourSpace, goal_endings_feature, pbehaviour, value_to_json
from divplan.cli import EXIT_EMPTY, EXIT_OK, EXIT_USAGE, SCHEMA_VERSION, main
from divplan.core import Plan, validate_plan
from divplan.domains import get_domain
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
    assert "seed" not in doc["config"]
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
    assert not {"seed", "prune", "strategy"} & set(doc["config"])


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
    space_doc = {"features": [{"kind": "goal-endings", "name": "endings"}]}
    space = tmp_path / "space.json"
    space.write_text(json.dumps(space_doc))
    code = run(
        "plan", "--problem-json", str(src), "--backend", "sat", "--k", "1",
        "--space", str(space),
    )
    assert code == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["config"]["space"] == space_doc  # the document, not its path


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
            "--node-budget",
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
        (
            ("plan", "--domain", "story-tiny", "--backend", "sat",
             "--max-conflicts", "-3"),
            "--max-conflicts",
        ),
        # an option of the other backend is refused, not ignored
        (
            ("plan", "--domain", "platformer", "--k", "2", "--horizon-max", "3"),
            "--horizon-max is a sat option; the search backend does not read it",
        ),
        (
            ("plan", "--domain", "platformer", "--horizon-min", "0"),
            "--horizon-min is a sat option; the search backend",
        ),
        (
            ("plan", "--domain", "urban", "--max-conflicts", "10"),
            "--max-conflicts is a sat option; the search backend",
        ),
        (
            ("plan", "--domain", "story-tiny", "--node-budget", "10"),
            "--node-budget is a search option; the sat backend does not read it",
        ),
    ],
)
def test_plan_config_errors(capsys, argv, fragment):
    assert run(*argv) == EXIT_USAGE
    err = capsys.readouterr().err
    assert fragment in err and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ("plan", "--domain", "urban", "--k", "abc"),
        ("plan", "--domain", "urban", "--bogus"),
        ("plan", "--domain", "urban", "--backend", "dfs"),
        ("plan", "--domain", "urban", "--strategy", "depth-first"),
        ("validate", "--domain", "urban"),
        ("frobnicate",),
        (),
    ],
    ids=["bad-int", "unknown-option", "bad-choice", "removed-strategy",
         "missing-required", "unknown-command", "no-command"],
)
def test_a_malformed_command_line_is_one_error_line(capsys, argv):
    # exit 2 means "no plans", so argparse's own usage exit would mislead
    assert run(*argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        run("plan", "--help")
    assert exc.value.code == EXIT_OK
    assert "--node-budget" in capsys.readouterr().out


def test_plan_refuses_the_removed_external_solver(monkeypatch, capsys):
    # planning on with the built-in solver would ignore the variable silently
    monkeypatch.setenv(EXTERNAL_SOLVER_ENV, "minisat")
    code = run("plan", "--domain", "story-tiny", "--backend", "sat")
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert EXTERNAL_SOLVER_ENV in err and "gone" in err
    assert "Traceback" not in err


def _ltl_space(formula: str) -> str:
    values = [{"value": "killed", "formula": formula}]
    return json.dumps({"features": [{"kind": "ltl", "name": "e", "values": values}]})


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("{not json", "space.json"),
        (
            json.dumps({"features": [
                {"kind": "ltl", "name": "e", "values": [{"value": "killed"}]}
            ]}),
            "space.json: missing key 'formula'",
        ),
        (_ltl_space("F (killed"), "space.json"),
        (_ltl_space("F warp"), "warp"),
        ("[]", "space.json: a space must be a JSON object"),
        (
            json.dumps({"features": [5]}),
            "space.json: key 'features' must be a list of objects",
        ),
        (
            json.dumps({"features": 5}),
            "space.json: key 'features' must be a list of objects",
        ),
        (
            json.dumps({"features": [{"kind": "ltl", "name": "e", "values": 5}]}),
            "space.json: key 'features[0].values' must be a list of objects",
        ),
        (
            json.dumps({"features": [{"kind": "ltl", "name": "e", "values": [
                {"value": "killed", "formula": 5}
            ]}]}),
            "space.json: key 'features[0].values[0].formula' must be a string",
        ),
        (b"\xff\xfe{}", "space.json: 'utf-8' codec can't decode"),
    ],
    ids=[
        "not-json", "no-formula", "formula-syntax", "unknown-atom",
        "not-an-object", "feature-not-an-object", "features-not-a-list",
        "values-not-a-list", "formula-not-a-string", "not-utf-8",
    ],
)
def test_plan_bad_space_file_is_one_error_line(tmp_path, capsys, text, fragment):
    space = tmp_path / "space.json"
    space.write_bytes(text if isinstance(text, bytes) else text.encode())
    code = run(
        "plan", "--domain", "platformer", "--backend", "search",
        "--space", str(space),
    )
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert fragment in err


def _story_tiny(name: str) -> str:
    from importlib.resources import files

    return (files("divplan.domains") / "data" / name).read_text()


def _without(key: str) -> str:
    return json.dumps({k: v for k, v in SOLVABLE.items() if k != key})


OVERLAPPING = dict(
    SOLVABLE, actions=[{"name": "flip", "pre": [], "add": ["p"], "del": ["p"]}]
)


@pytest.mark.parametrize(
    "problem_json, domain_section, fragment",
    [
        ("{not json", None, "problem.json"),
        (_without("actions"), None, "problem.json: missing key 'actions'"),
        (_without("init"), None, "problem.json: missing key 'init'"),
        (_without("goal"), None, "problem.json: missing key 'goal'"),
        (json.dumps(OVERLAPPING), None, "overlap"),
        (
            json.dumps(dict(SOLVABLE, actions=5)),
            None,
            "problem.json: key 'actions' must be a list of objects",
        ),
        (
            json.dumps(dict(SOLVABLE, actions=["spin"])),
            None,
            "problem.json: key 'actions' must be a list of objects",
        ),
        (
            json.dumps(dict(SOLVABLE, actions=[{"name": "win", "add": "p"}])),
            None,
            "problem.json: key 'actions[0].add' must be a list of strings",
        ),
        (
            json.dumps(dict(SOLVABLE, init=["q(a, b c)"])),
            None,
            "problem.json: not a fluent: 'q(a, b c)'",
        ),
        (None, "(:domain)", "(:domain NAME)"),
        (None, "(:domain aladdin)", "'aladdin'"),
    ],
    ids=[
        "not-json", "no-actions", "no-init", "no-goal", "add-del-overlap",
        "actions-not-a-list", "action-not-an-object", "add-not-a-list",
        "spaced-argument", "empty-domain", "other-domain",
    ],
)
def test_plan_bad_problem_is_one_error_line(
    tmp_path, capsys, problem_json, domain_section, fragment
):
    if problem_json is not None:
        src = tmp_path / "problem.json"
        src.write_text(problem_json)
        source = ["--problem-json", str(src)]
    else:
        domain = tmp_path / "domain.pddl"
        domain.write_text(_story_tiny("story-tiny-domain.pddl"))
        problem = tmp_path / "problem.pddl"
        problem.write_text(
            _story_tiny("story-tiny-problem.pddl").replace(
                "(:domain story-tiny)", domain_section
            )
        )
        source = ["--pddl-domain", str(domain), "--pddl-problem", str(problem)]
    code = run("plan", *source, "--backend", "sat", "--k", "1")
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert fragment in err


URBAN_SCORES_SPACE = json.dumps({"features": [
    {"kind": "categorical-score", "name": "sustainability",
     "score": "sustainability"},
    {"kind": "categorical-score", "name": "diversity", "score": "diversity"},
]})


def test_space_file_scores_reproduce_the_bundled_urban_space(tmp_path, capsys):
    space = tmp_path / "space.json"
    space.write_text(URBAN_SCORES_SPACE)
    argv = ("plan", "--domain", "urban", "--backend", "search", "--k", "2")
    assert run(*argv) == EXIT_OK
    bundled = json.loads(capsys.readouterr().out)
    assert run(*argv, "--space", str(space)) == EXIT_OK
    from_file = json.loads(capsys.readouterr().out)
    assert json.dumps(from_file["result"]) == json.dumps(bundled["result"])
    assert from_file["stats"] == bundled["stats"]


@pytest.mark.parametrize("key, value", [("bins", [["LO", 0, 50], ["HI", 50, 100]]),
                                        ("suffix", "S")])
def test_space_file_bins_and_suffix_are_refused(tmp_path, capsys, key, value):
    doc = json.loads(URBAN_SCORES_SPACE)
    doc["features"][1][key] = value
    space = tmp_path / "space.json"
    space.write_text(json.dumps(doc))
    code = run("plan", "--domain", "urban", "--space", str(space), "--k", "1")
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"'features[1].{key}'" in err


def test_urban_scores_are_unknown_on_platformer(tmp_path, capsys):
    space = tmp_path / "space.json"
    space.write_text(URBAN_SCORES_SPACE)
    code = run(
        "plan", "--domain", "platformer", "--backend", "search",
        "--space", str(space),
    )
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "unknown score function 'sustainability'" in err


def test_plan_missing_file_is_a_usage_error(capsys):
    code = run(
        "plan", "--problem-json", "/no/such/file.json", "--backend", "sat"
    )
    assert code == EXIT_USAGE


def _no_planning(*args, **kwargs):
    pytest.fail("planned although the command line was already refused")


@pytest.mark.parametrize(
    "flags",
    [
        ("--domain", "story-tiny", "--backend", "sat", "--out", "{dir}"),
        (
            "--domain", "story-tiny", "--backend", "sat",
            "--out", "{dir}/missing/report.json",
        ),
        ("--problem-json", "{dir}", "--backend", "sat"),
        ("--domain", "platformer", "--backend", "search", "--space", "{dir}"),
    ],
    ids=["out", "out-missing-parent", "problem-json", "space"],
)
def test_plan_directory_path_is_one_error_line(tmp_path, capsys, monkeypatch, flags):
    monkeypatch.setattr(cli, "fbi", _no_planning)  # a bad path fails before planning
    code = run("plan", *(f.format(dir=tmp_path) for f in flags))
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(tmp_path) in err


def test_plan_pddl_that_is_not_text_is_one_error_line(tmp_path, capsys):
    domain = tmp_path / "domain.pddl"
    domain.write_bytes(b"(define \xff)")
    problem = tmp_path / "problem.pddl"
    problem.write_text(_story_tiny("story-tiny-problem.pddl"))
    code = run(
        "plan", "--pddl-domain", str(domain), "--pddl-problem", str(problem),
        "--backend", "sat",
    )
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(domain) in err


STORY_TINY_GOAL = """(:goal (exists (?c1 - char ?c2 - char)
           (and (married-to ?c2 ?c1) (not (= ?c1 ?c2)))))"""


def _trivial_goal_source(tmp_path, source: str) -> list:
    """A problem whose goal holds in every state, from JSON or from PDDL."""
    if source == "problem-json":
        src = tmp_path / "problem.json"
        src.write_text(json.dumps(dict(SOLVABLE, goal=[[]])))
        return ["--problem-json", str(src)]
    domain = tmp_path / "domain.pddl"
    domain.write_text(_story_tiny("story-tiny-domain.pddl"))
    text = _story_tiny("story-tiny-problem.pddl")
    assert STORY_TINY_GOAL in text
    problem = tmp_path / "problem.pddl"
    problem.write_text(text.replace(STORY_TINY_GOAL, "(:goal (= ala ala))"))
    return ["--pddl-domain", str(domain), "--pddl-problem", str(problem)]


@pytest.mark.parametrize("source", ["problem-json", "pddl"])
def test_plan_trivial_goal_is_one_error_line(tmp_path, capsys, source):
    code = run("plan", *_trivial_goal_source(tmp_path, source), "--backend", "sat")
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "non-trivial goal" in err


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("source", ["problem-json", "pddl"])
def test_validate_replays_plans_for_a_trivial_goal(tmp_path, capsys, source):
    plans = tmp_path / "plans.json"
    plans.write_text(json.dumps([[]]))
    argv = ("validate", *_trivial_goal_source(tmp_path, source), "--plans", str(plans))
    assert run(*argv) == EXIT_OK
    assert "plan 0: valid, 0 steps, goal reached" in capsys.readouterr().out


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


@pytest.mark.parametrize("name", ["platformer-k2", "urban-k2"])
def test_validate_replays_simulator_reports(capsys, name):
    domain = GOLDEN_RUNS[name][0]
    report = os.path.join(GOLDEN, f"{name}.json")
    assert run("validate", "--domain", domain, "--plans", report) == EXIT_OK
    out = capsys.readouterr().out.splitlines()
    steps = [len(p) for p in _golden_doc(name)["result"]["plans"]]
    assert out == [f"plan {i}: valid, {n} steps, goal reached" for i, n in enumerate(steps)]


STORY_TINY_PDDL = (
    "--pddl-domain", str(files("divplan.domains") / "data" / "story-tiny-domain.pddl"),
    "--pddl-problem", str(files("divplan.domains") / "data" / "story-tiny-problem.pddl"),
)


@pytest.mark.parametrize(
    "argv, report",
    [
        (("--domain", "urban"), "platformer-k2"),
        (("--domain", "story"), "story-tiny-sat-k60"),
        (STORY_TINY_PDDL, "story-tiny-sat-k60"),
    ],
    ids=["urban-for-platformer", "story-for-story-tiny", "pddl-for-story-tiny"],
)
def test_validate_refuses_a_report_from_another_source(capsys, argv, report):
    path = os.path.join(GOLDEN, f"{report}.json")
    assert run("validate", *argv, "--plans", path) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert path in err and repr(_golden_doc(report)["config"]["source"]) in err
    assert repr(argv[1]) in err


def test_validate_accepts_a_report_from_the_same_pddl_source(tmp_path, capsys):
    report = tmp_path / "report.json"
    assert run("plan", *STORY_TINY_PDDL, "--k", "3", "--out", str(report)) == EXIT_OK
    capsys.readouterr()
    assert run("validate", *STORY_TINY_PDDL, "--plans", str(report)) == EXIT_OK
    assert capsys.readouterr().out.count(": valid,") == 3



def test_form_feeds_and_vertical_tabs_in_a_pddl_file_are_whitespace(tmp_path, capsys):
    data = files("divplan.domains") / "data"
    domain = tmp_path / "domain.pddl"
    text = (data / "story-tiny-domain.pddl").read_text().replace("\n  (:", "\n\f(:")
    domain.write_text(text.replace(" ", "\v"))
    problem = str(data / "story-tiny-problem.pddl")
    argv = ("plan", "--pddl-domain", str(domain), "--pddl-problem", problem)
    assert run(*argv, "--k", "3") == EXIT_OK
    capsys.readouterr()
    domain.write_text(text + "\f)")
    assert run(*argv, "--k", "3") == EXIT_USAGE
    err = capsys.readouterr().err
    lines = text.count("\n")
    assert err == f"error: line {lines + 1}, col 2: unbalanced ')'\n"

# platformer-k2 plan 0 is 24 moves and plan 1 is 23, against BUDGET 40
BROKEN_PLATFORMER_PLANS = {
    "illegal-step": (lambda plans: ["right"] * 11, "step 10: 'right' is not a legal action"),
    "not-a-goal": (lambda plans: plans[1][:5], "final state is not a goal"),
    "over-budget": (lambda plans: ["noop"] * 20 + plans[0], "plan length 44 exceeds budget 40"),
}


@pytest.mark.parametrize("case", sorted(BROKEN_PLATFORMER_PLANS))
def test_validate_flags_a_broken_simulator_plan(tmp_path, capsys, case):
    edit, message = BROKEN_PLATFORMER_PLANS[case]
    plans = _golden_doc("platformer-k2")["result"]["plans"]
    path = tmp_path / "plans.json"
    path.write_text(json.dumps({"plans": [plans[1], edit(plans)]}))
    code = run("validate", "--domain", "platformer", "--plans", str(path))
    assert code == EXIT_EMPTY
    out = capsys.readouterr().out.splitlines()
    assert out == ["plan 0: valid, 23 steps, goal reached", f"plan 1: INVALID — {message}"]


@pytest.mark.parametrize(
    "text",
    ["{not json", '{"plans": 5}'],
    ids=["not-json", "plans-not-a-list"],
)
def test_validate_bad_plan_file_is_one_error_line(tmp_path, capsys, text):
    plans = tmp_path / "plans.json"
    plans.write_text(text)
    code = run("validate", "--domain", "story-tiny", "--plans", str(plans))
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(plans) in err


# ---------------------------------------------------------------------------
# render
# ---------------------------------------------------------------------------


def test_render_story_summary(story_report, capsys):
    code = run("render", str(story_report))
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
    code = run("render", str(out_path))
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "x" in out  # the stomped enemy marker
    assert "########################" in out
    assert "<killed>" in out and "<avoided>" in out


# story-tiny and platformer reports are rendered by the two tests above
@pytest.mark.parametrize(
    "domain, backend, marker",
    [("story", "sat", "married"), ("urban", "search", "scores: sustainability")],
    ids=["story", "urban"],
)
def test_render_picks_the_view_from_the_domain(
    tmp_path, capsys, domain, backend, marker
):
    report = tmp_path / "report.json"
    argv = ("plan", "--domain", domain, "--backend", backend, "--k", "1")
    assert run(*argv, "--out", str(report)) == EXIT_OK
    assert run("render", str(report)) == EXIT_OK
    assert marker in capsys.readouterr().out


@pytest.mark.parametrize(
    "domain, labels",
    [("platformer", ["right"] * 11), ("urban", ["convert-green"] * 40)],
    ids=["into-the-enemy", "past-the-budget"],
)
def test_render_refuses_an_illegal_plan(tmp_path, capsys, domain, labels):
    report = tmp_path / "report.json"
    argv = ("plan", "--domain", domain, "--backend", "search", "--k", "1")
    assert run(*argv, "--out", str(report)) == EXIT_OK
    doc = json.loads(report.read_text())
    doc["result"]["plans"] = [labels]  # step 10 walks into the enemy / past the budget
    report.write_text(json.dumps(doc))
    code = run("render", str(report))
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(report) in err and "plan 0 step 10" in err


@pytest.mark.parametrize("domain, k", [("urban", 12), ("platformer", 3)])
def test_a_bundled_simulator_pads_to_k_at_default_options(tmp_path, domain, k):
    # more plans than behaviours: loop two fills the rest, each plan new
    report = tmp_path / "report.json"
    assert run("plan", "--domain", domain, "--k", str(k), "--out", str(report)) == EXIT_OK
    result = json.loads(report.read_text())["result"]
    assert result["termination"] == "reached-k"
    assert len({tuple(plan) for plan in result["plans"]}) == k > result["bdc"]
    # every plan replays to a goal, and every annotation matches its replay
    assert run("validate", "--domain", domain, "--plans", str(report)) == EXIT_OK
    assert run("render", str(report)) == EXIT_OK


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda plan: ["fly-to-the-moon"], "unknown action 'fly-to-the-moon'"),
        (lambda plan: plan[:-1], "does not satisfy the goal"),
    ],
    ids=["unknown-label", "truncated"],
)
def test_render_refuses_a_story_plan_that_does_not_replay(
    story_report, capsys, edit, message
):
    doc = json.loads(story_report.read_text())
    doc["result"]["plans"][0] = edit(doc["result"]["plans"][0])
    story_report.write_text(json.dumps(doc))
    code = run("render", str(story_report))
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(story_report) in err and "plan 0: " in err and message in err


def _golden_doc(name):
    with open(os.path.join(GOLDEN, f"{name}.json")) as fh:
        return json.load(fh)


def _write_report(tmp_path, doc):
    report = tmp_path / "report.json"
    report.write_text(json.dumps(doc))
    return report


def _golden_report(tmp_path, name, edit):
    doc = _golden_doc(name)
    edit(doc["result"])
    return _write_report(tmp_path, doc)


@pytest.mark.parametrize(
    "edit",
    [
        lambda result: result["behaviours"].append(["killed"]),
        lambda result: result["behaviours"].pop(),
        lambda result: result["plans"].pop(),
    ],
    ids=["extra-behaviour", "missing-behaviour", "missing-plan"],
)
def test_render_refuses_plan_and_behaviour_lists_of_other_lengths(
    tmp_path, capsys, edit
):
    report = _golden_report(tmp_path, "platformer-k2", edit)
    assert run("render", str(report)) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(report) in err and " plans but " in err


@pytest.mark.parametrize(
    "name, message",
    [
        # plan 0 stomps the enemy, plan 1 never touches it
        ("platformer-k2", "<avoided> but replays to <killed>"),
        ("story-sat-k3", "<{married-to(aladdin,jasmine)}> but replays to "
                         "<{married-to(jasmine,aladdin)}>"),
        ("urban-k2", "<L | VH> but replays to <L | H>"),
    ],
)
def test_render_refuses_an_annotation_the_plan_does_not_replay_to(
    tmp_path, capsys, name, message
):
    def swap(result):
        result["behaviours"][:2] = result["behaviours"][1::-1]

    report = _golden_report(tmp_path, name, swap)
    assert run("render", str(report)) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"{report}: plan 0 is annotated {message}" in err


@pytest.mark.parametrize("case", ["not-a-goal", "over-budget"])
def test_render_refuses_a_plan_that_ends_off_goal_or_over_budget(tmp_path, capsys, case):
    edit, message = BROKEN_PLATFORMER_PLANS[case]

    def broken(result):
        result["plans"][1] = edit(result["plans"])

    report = _golden_report(tmp_path, "platformer-k2", broken)
    assert run("render", str(report)) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err == f"error: {report}: plan 1: {message}\n"


# "true" holds on every plan, so a plan that stomps the enemy is "killed"
# only because that value comes first
KILLED_OR_NOT = {"features": [{"kind": "ltl", "name": "enemy", "values": [
    {"value": "killed", "formula": "F killed"}, {"value": "other", "formula": "true"},
]}]}


@pytest.fixture
def space_report(tmp_path):
    """A platformer report planned with a --space file, and that file."""
    space, report = tmp_path / "space.json", tmp_path / "report.json"
    space.write_text(json.dumps(KILLED_OR_NOT))
    argv = ("plan", "--domain", "platformer", "--k", "2", "--space", str(space))
    assert run(*argv, "--out", str(report)) == EXIT_OK
    return report, space


def test_render_rebuilds_the_space_the_report_carries(space_report, capsys):
    report, space = space_report
    assert json.loads(report.read_text())["config"]["space"] == KILLED_OR_NOT
    space.unlink()
    assert run("render", str(report)) == EXIT_OK
    out = capsys.readouterr().out
    assert "<killed>: 1 plan(s)" in out and "<other>: 1 plan(s)" in out


def test_render_checks_annotations_against_a_space_file(space_report, capsys):
    report, _space = space_report
    doc = json.loads(report.read_text())
    assert doc["result"]["behaviours"] == [["killed"], ["other"]]
    doc["result"]["behaviours"].reverse()
    report.write_text(json.dumps(doc))
    assert run("render", str(report)) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err == f"error: {report}: plan 0 is annotated <other> but replays to <killed>\n"


def test_render_names_a_stored_space_that_describes_none(tmp_path, capsys):
    doc = _golden_doc("platformer-k2")
    doc["config"]["space"] = {"features": [{"kind": "ltl", "name": "e"}]}
    report = _write_report(tmp_path, doc)
    assert run("render", str(report)) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err == f"error: {report}: config.space: ltl feature needs at least one value\n"


@pytest.mark.parametrize("command", ["render", "validate"])
@pytest.mark.parametrize("version", [3, 4])
def test_older_schema_reports_are_refused(tmp_path, capsys, version, command):
    doc = _golden_doc("platformer-k2")
    doc["schema_version"] = version
    report = _write_report(tmp_path, doc)
    argv = {"render": (), "validate": ("--domain", "platformer", "--plans")}[command]
    assert run(command, *argv, str(report)) == EXIT_USAGE
    assert capsys.readouterr().err == f"error: unknown report schema version {version}\n"


def test_render_rejects_unbundled_source(tmp_path, capsys):
    src = tmp_path / "prob.json"
    src.write_text(json.dumps(SOLVABLE))
    report = tmp_path / "report.json"
    argv = ("plan", "--problem-json", str(src), "--backend", "sat")
    assert run(*argv, "--out", str(report)) == EXIT_OK
    code = run("render", str(report))
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "platformer, story, story-tiny, urban" in err


def test_render_rejects_unknown_schema(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"schema_version": 99}))
    code = run("render", str(bad))
    assert code == EXIT_USAGE
    assert "schema" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text",
    [
        "{not json",
        json.dumps({"schema_version": SCHEMA_VERSION}),
        json.dumps({
            "schema_version": SCHEMA_VERSION,
            "config": {"source": {"domain": "urban"}},
            "result": {"plans": [["bogus"]], "behaviours": [["x"]]},
        }),
    ],
    ids=["not-json", "no-config", "unknown-action"],
)
def test_render_bad_report_is_one_error_line(tmp_path, capsys, text):
    bad = tmp_path / "report.json"
    bad.write_text(text)
    code = run("render", str(bad))
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(bad) in err


# ---------------------------------------------------------------------------
# determinism and packaging
# ---------------------------------------------------------------------------


def test_same_seed_same_bytes(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    argv = ("plan", "--domain", "story-tiny", "--backend", "sat", "--k", "3")
    assert run(*argv, "--out", str(a)) == EXIT_OK
    assert run(*argv, "--out", str(b)) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


GOLDEN = os.path.join(os.path.dirname(__file__), "golden")
# tests/golden/<name>.json -> (domain, backend, k) of the run that wrote it.
# A change that alters a report on purpose regenerates its file and names
# the witness that changed; urban k=12 is left out for its run time.
GOLDEN_RUNS = {
    "story-sat-k3": ("story", "sat", "3"),
    "story-tiny-sat-k60": ("story-tiny", "sat", "60"),
    "platformer-k2": ("platformer", "search", "2"),
    "urban-k2": ("urban", "search", "2"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
def test_bundled_reports_match_the_golden_bytes(tmp_path, name):
    domain, backend, k = GOLDEN_RUNS[name]
    out = tmp_path / "report.json"
    argv = ("plan", "--domain", domain, "--backend", backend, "--k", k)
    assert run(*argv, "--out", str(out)) == EXIT_OK
    with open(os.path.join(GOLDEN, f"{name}.json"), "rb") as fh:
        assert out.read_bytes() == fh.read()


def test_contradictory_cells_leave_the_diagonal_and_the_golden_bytes(tmp_path):
    # two goal-endings features over story-tiny's goal: every off-diagonal
    # cell holds some goal fluent both true and false, so no plan realises it
    # and a clause forbidding it would be a tautology
    features = [{"kind": "goal-endings", "name": name} for name in ("a", "b")]
    space_path = tmp_path / "space.json"
    space_path.write_text(json.dumps({"features": features}))
    out = tmp_path / "report.json"
    argv = ("plan", "--domain", "story-tiny", "--backend", "sat", "--k", "6")
    assert run(*argv, "--space", str(space_path), "--out", str(out)) == EXIT_OK
    with open(os.path.join(GOLDEN, "story-tiny-sat-k6-two-endings.json"), "rb") as fh:
        assert out.read_bytes() == fh.read()
    result = json.loads(out.read_text())["result"]
    cells = result["behaviours"][: result["bdc"]]
    assert len(cells) == 3 and all(a == b for a, b in cells)
    assert len({tuple(a) for a, _b in cells}) == 3
    problem = get_domain("story-tiny")()[0]
    space = BehaviourSpace(
        tuple(goal_endings_feature(problem, name) for name in ("a", "b"))
    )
    for labels, behaviour in zip(result["plans"], result["behaviours"]):
        trace = validate_plan(problem, Plan(tuple(map(problem.action, labels))))
        assert [value_to_json(v) for v in pbehaviour(space, trace)] == behaviour


# golden run -> (domain, node budget): each budget is below the first sweep's
# node count with its duplicates but covers its distinct dedup keys; a
# breadth-first sweep drops duplicates unexpanded, so the run reaches k
BUDGETED_RUNS = {"platformer-k2": ("platformer", "500"), "urban-k2": ("urban", "15000")}


@pytest.mark.parametrize("name", sorted(BUDGETED_RUNS))
def test_a_budget_over_the_distinct_nodes_plans_the_golden_report(tmp_path, name):
    domain, budget = BUDGETED_RUNS[name]
    out = tmp_path / "report.json"
    argv = ("plan", "--domain", domain, "--k", "2", "--node-budget", budget)
    assert run(*argv, "--out", str(out)) == EXIT_OK
    doc, golden = json.loads(out.read_text()), _golden_doc(name)
    assert doc["result"]["termination"] == "reached-k"
    assert (doc["result"], doc["stats"]) == (golden["result"], golden["stats"])


# tests/golden/<name>.txt -> (report, render flags) of the render that wrote it
GOLDEN_RENDERS = {
    **{f"{name}.render": (name, ()) for name in GOLDEN_RUNS},
    "urban-k2.color.render": ("urban-k2", ("--color",)),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_RENDERS))
def test_render_matches_the_golden_text(capsys, name):
    report, flags = GOLDEN_RENDERS[name]
    assert run("render", os.path.join(GOLDEN, f"{report}.json"), *flags) == EXIT_OK
    with open(os.path.join(GOLDEN, f"{name}.txt"), "rb") as fh:
        assert capsys.readouterr().out.encode() == fh.read()


@pytest.mark.parametrize("name", ["story-sat-k3", "urban-k2"])
def test_plan_derives_the_backend_from_the_source(tmp_path, name):
    domain, _backend, k = GOLDEN_RUNS[name]
    out = tmp_path / "report.json"
    assert run("plan", "--domain", domain, "--k", k, "--out", str(out)) == EXIT_OK
    with open(os.path.join(GOLDEN, f"{name}.json"), "rb") as fh:
        assert out.read_bytes() == fh.read()


def test_two_runs_in_one_process_write_the_same_report(tmp_path):
    # criterion 9 with live SAT solvers: each run grounds its own problem, so
    # nothing the first run's solvers learned reaches the second
    argv = ("plan", "--domain", "story-tiny", "--backend", "sat", "--k", "60")
    paths = [tmp_path / f"report-{i}.json" for i in range(2)]
    for path in paths:
        assert run(*argv, "--out", str(path)) == EXIT_OK
    assert paths[0].read_bytes() == paths[1].read_bytes()


@pytest.mark.parametrize("name", ["platformer-k2", "urban-k2", "story-sat-k3"])
def test_reports_do_not_depend_on_the_hash_seed(tmp_path, name):
    # criterion 9 across processes: a state hashes its strings, which
    # PYTHONHASHSEED salts, so a report that followed hash order would
    # differ between seeds; a story state is a set of fluents, each hashed
    # as its (name, args) tuple
    domain, backend, k = GOLDEN_RUNS[name]
    reports = []
    for seed in ("0", "1"):
        out = tmp_path / f"report-{seed}.json"
        proc = subprocess.run(
            [sys.executable, "-B", "-m", "divplan.cli", "plan", "--domain", domain,
             "--backend", backend, "--k", k, "--out", str(out)],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path),
                 "PYTHONHASHSEED": seed},
        )
        assert proc.returncode == EXIT_OK, proc.stderr
        reports.append(out.read_bytes())
    with open(os.path.join(GOLDEN, f"{name}.json"), "rb") as fh:
        assert reports == [fh.read()] * 2


SRC_ALONE = """\
import os, pkgutil, sys
sys.path.insert(0, {src!r})
import divplan
for module in pkgutil.walk_packages(divplan.__path__, "divplan."):
    __import__(module.name)
from divplan import cli, ltl
code = cli.main(["plan", "--domain", "story-tiny", "--backend", "sat", "--k", "3"])
outside = sorted(
    name for name, module in sys.modules.items()
    if os.path.realpath(getattr(module, "__file__", None) or "").startswith(
        os.path.join({tests!r}, "")
    )
)
sys.exit(f"modules from tests/: {{outside}}" if outside else code)
"""


def test_src_runs_without_the_tests_directory(tmp_path):
    tests = os.path.dirname(os.path.realpath(__file__))
    src = os.path.join(os.path.dirname(tests), "src")
    proc = subprocess.run(
        [sys.executable, "-I", "-B", "-c", SRC_ALONE.format(src=src, tests=tests)],
        cwd=tmp_path, capture_output=True, text=True,
    )
    assert proc.returncode == EXIT_OK, proc.stderr
    assert json.loads(proc.stdout)["result"]["bdc"] == 3


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


# -- input nested too deep for a recursive reader ------------------------------------


def _nested_pddl(tmp_path, file_name, conjunction, depth):
    """story-tiny with one conjunction wrapped in `depth` more (and ...)."""
    text = _story_tiny(file_name)
    assert conjunction in text
    path = tmp_path / file_name
    path.write_text(text.replace(conjunction, "(and " * depth + conjunction + ")" * depth))
    return str(path)


def _deep_cases(tmp_path):
    deep_json = tmp_path / "deep.json"
    deep_json.write_text("[" * 200_000)
    deep = str(deep_json)
    domain = _nested_pddl(
        tmp_path, "story-tiny-domain.pddl", "(and (at ?c ?from) (not (= ?from ?to)))", 3000
    )
    problem = _nested_pddl(
        tmp_path, "story-tiny-problem.pddl",
        "(and (married-to ?c2 ?c1) (not (= ?c1 ?c2)))", 3000,
    )
    space = tmp_path / "space.json"
    space.write_text(_ltl_space("!" * 500 + "VL_S"))
    json_error = "maximum recursion depth exceeded while decoding a JSON array"
    data = os.path.join(os.path.dirname(cli.__file__), "domains", "data")
    return {
        "problem-json": (("plan", "--problem-json", deep), json_error),
        "space": (("plan", "--domain", "urban", "--space", deep), json_error),
        "plans": (("validate", "--domain", "story", "--plans", deep), json_error),
        "report": (("render", deep), json_error),
        "pddl-precondition": (
            ("plan", "--pddl-domain", domain, "--pddl-problem",
             os.path.join(data, "story-tiny-problem.pddl")),
            "nested deeper than",
        ),
        "pddl-goal": (
            ("plan", "--pddl-domain", os.path.join(data, "story-tiny-domain.pddl"),
             "--pddl-problem", problem),
            "nested deeper than",
        ),
        "ltl": (("plan", "--domain", "urban", "--space", str(space)), "nested deeper than"),
    }


@pytest.mark.parametrize(
    "case",
    ["problem-json", "space", "plans", "report", "pddl-precondition", "pddl-goal", "ltl"],
)
def test_deeply_nested_input_is_one_error_line(tmp_path, capsys, case):
    argv, fragment = _deep_cases(tmp_path)[case]
    assert run(*argv) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err and fragment in err


def test_formula_at_the_nesting_cap_plans_to_completion(tmp_path, capsys):
    # both values settle-or-not in the M sustainability bin, each formula
    # exactly MAX_FORMULA_DEPTH operators deep
    depth = ltl.MAX_FORMULA_DEPTH
    values = [
        {"value": "M", "formula": "F " * (depth - 1) + "G M_S"},
        {"value": "other", "formula": "! " + "F " * (depth - 2) + "G M_S"},
    ]
    space = tmp_path / "space.json"
    space.write_text(json.dumps({"features": [
        {"kind": "ltl", "name": "settles", "values": values}
    ]}))
    assert run("plan", "--domain", "urban", "--space", str(space), "--k", "2") == EXIT_OK
    result = json.loads(capsys.readouterr().out)["result"]
    assert result["termination"] == "reached-k"
    assert sorted(result["behaviours"]) == [["M"], ["other"]]


# -- random space documents ------------------------------------------------------------

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=8,
)
_FORMULAS = ("F killed", "G avoided", "true", "!killed U killed", "F (killed", "F warp")
# documents that reach past the top-level checks: feature lists over every kind
SPACE_LIKE = st.fixed_dictionaries({"features": st.lists(
    st.fixed_dictionaries({
        "kind": st.sampled_from(("goal-endings", "categorical-score", "ltl", "bins")),
        "name": st.sampled_from(("e", "f")) | JSON_VALUES,
        "score": st.sampled_from(("sustainability",)) | JSON_VALUES,
        "values": st.lists(st.fixed_dictionaries({
            "value": st.sampled_from(("killed", "avoided", "other")),
            "formula": st.sampled_from(_FORMULAS) | JSON_VALUES,
        }), max_size=3),
    }),
    max_size=2,
)})
SPACE_DOCS = JSON_VALUES | SPACE_LIKE
_SPACE_DOC_SETTINGS = settings(
    max_examples=60, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


def _exited_cleanly(code, capsys):
    err = capsys.readouterr().err
    if code == EXIT_USAGE:
        assert err.startswith("error: ") and err.count("\n") == 1, err
    else:  # a space whose cells the node budget cannot reach plans nothing
        assert code in (EXIT_OK, EXIT_EMPTY) and err == ""


@_SPACE_DOC_SETTINGS
@given(doc=SPACE_DOCS)
def test_any_space_file_plans_or_is_one_error_line(tmp_path, capsys, doc):
    space = tmp_path / "space.json"
    space.write_text(json.dumps(doc))
    argv = ("plan", "--domain", "platformer", "--k", "2", "--node-budget", "2000")
    _exited_cleanly(run(*argv, "--space", str(space)), capsys)


@_SPACE_DOC_SETTINGS
@given(doc=SPACE_DOCS)
def test_any_stored_space_renders_or_is_one_error_line(tmp_path, capsys, doc):
    report = _golden_doc("platformer-k2")
    report["config"]["space"] = doc
    _exited_cleanly(run("render", str(_write_report(tmp_path, report))), capsys)
