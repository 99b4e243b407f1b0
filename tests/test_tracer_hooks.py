"""The benchmark tracer (`bench/spans.py`) patches the program by attribute
name, so a renamed or deleted hook breaks every traced bench run; this
catches it without running one."""

import importlib
import os
from collections import Counter

from divplan import bspace, pddl, searchplan
from divplan.cli import EXIT_OK, main
from divplan.satplan import generators
from divplan.satplan.solver import Solver

BENCH = os.path.join(os.path.dirname(__file__), "..", "bench")


def test_tracer_install_finds_every_hook_and_undo_restores_it(monkeypatch):
    monkeypatch.syspath_prepend(BENCH)
    spans = importlib.import_module("spans")
    fbi = importlib.import_module("divplan.fbi")  # the package's fbi is the function
    owners = (pddl, generators, searchplan, bspace, fbi, Solver)
    before = [dict(vars(owner)) for owner in owners]
    undo = spans.Tracer().install()
    try:
        patched = {
            (owner.__name__, name)
            for owner, old in zip(owners, before)
            for name, value in vars(owner).items()
            if old.get(name) is not value
        }
    finally:
        undo()
    sat = "divplan.satplan.generators"
    assert {(sat, "encode"), (sat, "solve_task"), (sat, "decode")} <= patched
    # pddl.parse and pddl.ground time these three by name; the grounder's
    # helpers are not hooks
    hooks = {("divplan.pddl", name) for name in ("parse_domain", "parse_problem", "ground")}
    assert hooks <= patched
    assert ("Solver", "solve") in patched
    for owner, old in zip(owners, before):
        now = dict(vars(owner))
        assert now.keys() == old.keys(), owner.__name__
        for name, value in old.items():
            assert now[name] is value, (owner.__name__, name)


def test_the_sweep_calls_the_ltl_hooks_by_attribute(monkeypatch, tmp_path):
    # the tracer counts ltl.progress and ltl.final_eval by replacing
    # searchplan.progress and searchplan.final_eval; a sweep that bound them
    # elsewhere would read 0 calls in every traced run. Each distinct
    # (residuals, valuation key) pair of the bundled platformer k=2 run is
    # progressed once
    calls = Counter()

    def counted(name, real):
        def wrapper(*args):
            calls[name] += 1
            return real(*args)

        return wrapper

    for name in ("progress", "final_eval"):
        monkeypatch.setattr(searchplan, name, counted(name, getattr(searchplan, name)))
    argv = ["plan", "--domain", "platformer", "--backend", "search", "--k", "2"]
    assert main([*argv, "--out", str(tmp_path / "report.json")]) == EXIT_OK
    assert calls == {"progress": 6, "final_eval": 6}
