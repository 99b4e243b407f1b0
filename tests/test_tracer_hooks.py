"""The benchmark tracer (`bench/spans.py`) patches the program by attribute
name, so a renamed or deleted hook breaks every traced bench run; this
catches it without running one."""

import importlib
import os

from divplan import bspace, pddl, searchplan
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
    assert ("Solver", "solve") in patched
    for owner, old in zip(owners, before):
        now = dict(vars(owner))
        assert now.keys() == old.keys(), owner.__name__
        for name, value in old.items():
            assert now[name] is value, (owner.__name__, name)
