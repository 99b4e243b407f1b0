"""Checked UNSAT: every learned clause and every UNSAT answer of the
built-in solver follows by reverse unit propagation from the clauses loaded
and learned before it (`oracles.rup_failures`).

`SolverLog` wraps the solver's public load paths, `add_clause` and
`add_clauses`, and its `_analyze` and `solve`, the way the benchmark's
tracer wraps the solver. Each solver gets its own log: its input clauses,
its learned clauses, and each UNSAT answer as the clause of its negated
assumptions. Bit-identity with the old kernel guards the search only while
the search stays the same; this check also holds for a search that changes.
"""

import pytest

from divplan.bspace import BehaviourSpace, goal_endings_feature
from divplan.domains import get_domain
from divplan.fbi import fbi
from divplan.satplan import Solver, behaviour_generator_sat, plan_generator_sat

from oracles import RupChecker, rup_failures, seeded_tiny_cut, workloads


class SolverLog:
    """Per solver, the list of (kind, clause) that `rup_failures` reads."""

    def __init__(self, monkeypatch):
        self.logs: dict = {}
        self._loading = 0  # add_clause loads through add_clauses: log once
        for name in ("add_clause", "add_clauses"):
            monkeypatch.setattr(Solver, name, self._load(getattr(Solver, name), name))
        analyze, solve = Solver._analyze, Solver.solve

        def logged_analyze(solver, conflict):
            learnt, backjump = analyze(solver, conflict)
            self.of(solver).append(("learned", list(learnt)))
            return learnt, backjump

        def logged_solve(solver, max_conflicts=None, assumptions=()):
            model = solve(solver, max_conflicts, assumptions)
            if model is None:
                self.of(solver).append(("unsat", [-lit for lit in assumptions]))
            return model

        monkeypatch.setattr(Solver, "_analyze", logged_analyze)
        monkeypatch.setattr(Solver, "solve", logged_solve)

    def of(self, solver) -> list:
        return self.logs.setdefault(solver, [])

    def _load(self, real, name):
        def load(solver, arg):
            self._loading += 1
            try:
                real(solver, arg)
            finally:
                self._loading -= 1
            if not self._loading:  # logged once loaded: a refused clause is not
                batch = [arg] if name == "add_clause" else arg
                self.of(solver).extend(("input", list(clause)) for clause in batch)

        return load

    def kinds(self) -> dict:
        counts: dict = {}
        for log in self.logs.values():
            for kind, _clause in log:
                counts[kind] = counts.get(kind, 0) + 1
        return counts


def _run_fbi(problem, k, horizons):
    space = BehaviourSpace((goal_endings_feature(problem),))
    return fbi(
        k, space,
        lambda found: behaviour_generator_sat(problem, space, found, horizons),
        lambda existing: plan_generator_sat(problem, existing, horizons),
    )


RUNS = {
    # seeded story-tiny cuts at both caps, as the sat-exhaust workload runs them
    "cut-1-cap-6": lambda: (seeded_tiny_cut(1), workloads.EXHAUST_K, range(0, 7)),
    "cut-2-cap-7": lambda: (seeded_tiny_cut(2), workloads.EXHAUST_K, range(0, 8)),
    "story-k3": lambda: (get_domain("story")()[0], 3, range(0, 21)),
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_every_learned_clause_and_unsat_answer_checks(monkeypatch, name):
    problem, k, horizons = RUNS[name]()
    log = SolverLog(monkeypatch)
    _run_fbi(problem, k, horizons)
    counts = log.kinds()
    assert counts["learned"] > 0 and counts["unsat"] > 0, counts
    for solver_log in log.logs.values():
        assert rup_failures(solver_log) == []


def test_a_learned_clause_missing_a_literal_fails_the_check(monkeypatch):
    # a mutant _analyze drops the last literal of every seventh learned clause
    # of three or more; the run still ends, and the check names the lemmas
    analyze, seen = Solver._analyze, [0]

    def mutant(solver, conflict):
        learnt, backjump = analyze(solver, conflict)
        if len(learnt) > 2:
            seen[0] += 1
            if seen[0] % 7 == 0:
                learnt.pop()
        return learnt, backjump

    monkeypatch.setattr(Solver, "_analyze", mutant)
    log = SolverLog(monkeypatch)
    problem, k, horizons = RUNS["cut-2-cap-7"]()
    _run_fbi(problem, k, horizons)
    assert sum(len(rup_failures(solver_log)) for solver_log in log.logs.values()) > 0


def test_the_checker_on_hand_sized_clause_sets():
    checker = RupChecker()
    for clause in ([1, 2], [-1, 2], [1, -2], [3, 4, 5]):
        checker.add(clause)
    assert checker.implied([2]) and checker.implied([1])
    assert not checker.implied([3]) and not checker.implied([-1])
    assert checker.implied([3, 4, 5, 6]) and checker.implied([2, 7])
    checker.add([-1, -2])
    assert not checker.implied([])  # UNSAT, but not by unit propagation alone
    checker.add([2])  # a lemma checked above
    assert checker.implied([]) and checker.implied([-5])
    # an UNSAT answer under assumptions, and a bad one
    log = [("input", [1, 2]), ("input", [-1, 3]), ("input", [-2, 3]),
           ("unsat", [3]), ("unsat", [-3, 4]), ("learned", [3]), ("unsat", [])]
    assert rup_failures(log) == [4, 6]
    log = [("input", [-1, 2]), ("input", [-2, 3]), ("unsat", [-1, 3])]
    assert rup_failures(log) == []
    assert rup_failures([("input", []), ("unsat", [])]) == []
