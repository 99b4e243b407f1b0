"""Differential test of the literal-indexed CDCL kernel.

`ReferenceSolver` is the straightforward per-variable kernel that
`divplan.satplan.solver.Solver` replaced: truth values indexed by variable
and read through `_value`, watch lists in a dict rebuilt per falsified
literal, and a trail popped one literal at a time. The two must follow the
same search, so every model, every conflict count and the conflict at which
a budget runs out are compared for equality, not just satisfiability.

A live `Solver` that gets clauses between solves keeps its learned clauses
and phases, so its search differs from a fresh one; there the reference
gives only the SAT/UNSAT answer on the cumulative clauses.
"""

import os
import random
from typing import Iterable, Optional, Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divplan.domains import get_domain
from divplan.pddl import ground, load_domain, load_problem_file
from divplan.satplan import (
    CnfTask,
    ResourceLimit,
    Solver,
    decode,
    encode,
    forbid_behaviour,
    forbid_plan,
)

DATA = os.path.join(os.path.dirname(__file__), "..", "src", "divplan", "domains", "data")


class ReferenceSolver:
    """The per-variable CDCL kernel that `Solver` replaced, kept verbatim."""

    def __init__(
        self,
        num_vars: int,
        clauses: Iterable[Sequence[int]] = (),
        seed: int = 0,
        phases: Optional[Sequence[bool]] = None,
    ):
        self.num_vars = num_vars
        self.seed = seed
        self.assign: list = [None] * (num_vars + 1)
        self.level = [0] * (num_vars + 1)
        self.reason: list = [None] * (num_vars + 1)
        self.activity = [0.0] * (num_vars + 1)
        self.phase = list(phases) if phases is not None else [False] * (num_vars + 1)
        if phases is not None and len(self.phase) != num_vars + 1:
            raise ValueError("phases must have num_vars+1 entries (index 0 unused)")
        self.watches: dict = {}
        self.trail: list[int] = []
        self.trail_lim: list[int] = []
        self.qhead = 0
        self.ok = True
        self.var_inc = 1.0
        self.conflicts = 0
        for clause in clauses:
            self.add_clause(clause)

    # -- clause loading (pre-search, decision level 0) --

    def add_clause(self, lits: Sequence[int]) -> None:
        if not self.ok:
            return
        seen = set()
        out = []
        for lit in lits:
            if lit == 0 or abs(lit) > self.num_vars:
                raise ValueError(f"bad literal {lit}")
            if -lit in seen:
                return  # tautology
            if lit in seen:
                continue
            seen.add(lit)
            v = self._value(lit)
            if v is True:
                return  # already satisfied at level 0
            if v is False:
                continue  # falsified at level 0: drop the literal
            out.append(lit)
        if not out:
            self.ok = False
            return
        if len(out) == 1:
            self._enqueue(out[0], None)
            return
        self._watch(out)

    def _watch(self, clause: list) -> None:
        self.watches.setdefault(clause[0], []).append(clause)
        self.watches.setdefault(clause[1], []).append(clause)

    # -- assignment primitives --

    def _value(self, lit: int) -> Optional[bool]:
        v = self.assign[abs(lit)]
        if v is None:
            return None
        return v if lit > 0 else not v

    def _enqueue(self, lit: int, reason) -> bool:
        var = abs(lit)
        current = self.assign[var]
        if current is not None:
            return current == (lit > 0)
        self.assign[var] = lit > 0
        self.level[var] = len(self.trail_lim)
        self.reason[var] = reason
        self.trail.append(lit)
        return True

    def _propagate(self):
        """Unit propagation; returns a conflicting clause or None."""
        while self.qhead < len(self.trail):
            falsified = -self.trail[self.qhead]
            self.qhead += 1
            watchers = self.watches.get(falsified)
            if not watchers:
                continue
            self.watches[falsified] = keep = []
            i = 0
            n = len(watchers)
            while i < n:
                clause = watchers[i]
                i += 1
                if clause[0] == falsified:
                    clause[0], clause[1] = clause[1], clause[0]
                first = clause[0]
                if self._value(first) is True:
                    keep.append(clause)
                    continue
                for k in range(2, len(clause)):
                    if self._value(clause[k]) is not False:
                        clause[1], clause[k] = clause[k], clause[1]
                        self.watches.setdefault(clause[1], []).append(clause)
                        break
                else:
                    keep.append(clause)
                    if self._value(first) is False:
                        keep.extend(watchers[i:])
                        return clause
                    self._enqueue(first, clause)
        return None

    # -- conflict analysis (first unique implication point) --

    def _bump(self, var: int) -> None:
        self.activity[var] += self.var_inc
        if self.activity[var] > 1e100:
            for v in range(1, self.num_vars + 1):
                self.activity[v] *= 1e-100
            self.var_inc *= 1e-100

    def _analyze(self, conflict) -> tuple[list, int]:
        learnt = [0]  # slot 0 becomes the asserting literal
        seen = [False] * (self.num_vars + 1)
        counter = 0
        backjump = 0
        current = len(self.trail_lim)
        index = len(self.trail) - 1
        lit = None
        clause = conflict
        while True:
            start = 0 if lit is None else 1  # reasons keep the implied lit first
            for q in clause[start:]:
                v = abs(q)
                if not seen[v] and self.level[v] > 0:
                    seen[v] = True
                    self._bump(v)
                    if self.level[v] == current:
                        counter += 1
                    else:
                        learnt.append(q)
                        backjump = max(backjump, self.level[v])
            while not seen[abs(self.trail[index])]:
                index -= 1
            lit = self.trail[index]
            index -= 1
            seen[abs(lit)] = False
            counter -= 1
            if counter == 0:
                break
            clause = self.reason[abs(lit)]
        learnt[0] = -lit
        return learnt, backjump

    def _backtrack(self, target_level: int) -> None:
        while self.trail_lim and len(self.trail_lim) > target_level:
            boundary = self.trail_lim.pop()
            while len(self.trail) > boundary:
                lit = self.trail.pop()
                var = abs(lit)
                self.phase[var] = self.assign[var]
                self.assign[var] = None
                self.reason[var] = None
        self.qhead = len(self.trail)

    def _decide(self) -> Optional[int]:
        best = 0
        best_act = -1.0
        assign = self.assign
        activity = self.activity
        for v in range(1, self.num_vars + 1):
            if assign[v] is None and activity[v] > best_act:
                best = v
                best_act = activity[v]
        if best == 0:
            return None
        return best if self.phase[best] else -best

    def solve(self, max_conflicts: Optional[int] = None) -> Optional[list]:
        """A model as a list indexed by variable (index 0 unused), or None.

        Raises ResourceLimit when the conflict budget runs out first.
        """
        if not self.ok:
            return None
        restart_limit = 100.0
        since_restart = 0
        while True:
            conflict = self._propagate()
            if conflict is not None:
                self.conflicts += 1
                since_restart += 1
                if len(self.trail_lim) == 0:
                    return None
                if max_conflicts is not None and self.conflicts > max_conflicts:
                    raise ResourceLimit(f"exceeded {max_conflicts} conflicts")
                learnt, backjump = self._analyze(conflict)
                self._backtrack(backjump)
                if len(learnt) == 1:
                    self._enqueue(learnt[0], None)
                else:
                    # watch the asserting literal and one from the backjump level
                    for k in range(2, len(learnt)):
                        if self.level[abs(learnt[k])] > self.level[abs(learnt[1])]:
                            learnt[1], learnt[k] = learnt[k], learnt[1]
                    self._watch(learnt)
                    self._enqueue(learnt[0], learnt)
                self.var_inc /= 0.95
                continue
            if since_restart >= restart_limit:
                since_restart = 0
                restart_limit *= 1.5
                self._backtrack(0)
                continue
            lit = self._decide()
            if lit is None:
                return list(self.assign)
            self.trail_lim.append(len(self.trail))
            self._enqueue(lit, None)



def run(cls, num_vars, clauses, phases=None, max_conflicts=None):
    """(model or None or "budget", conflicts) of one fresh solver."""
    solver = cls(num_vars, clauses, phases=phases)
    try:
        outcome = solver.solve(max_conflicts)
    except ResourceLimit:
        outcome = "budget"
    return outcome, solver.conflicts


def assert_same_search(num_vars, clauses, phases=None, max_conflicts=None):
    expected = run(ReferenceSolver, num_vars, clauses, phases, max_conflicts)
    assert run(Solver, num_vars, clauses, phases, max_conflicts) == expected
    return expected


def pigeonhole(pigeons, holes):
    def var(p, h):
        return 1 + p * holes + h

    clauses = [[var(p, h) for h in range(holes)] for p in range(pigeons)]
    for h in range(holes):
        for p1 in range(pigeons):
            for p2 in range(p1 + 1, pigeons):
                clauses.append([-var(p1, h), -var(p2, h)])
    return pigeons * holes, clauses


@st.composite
def cnfs(draw):
    num_vars = draw(st.integers(1, 12))
    literal = st.integers(1, num_vars).flatmap(lambda v: st.sampled_from([v, -v]))
    clauses = draw(st.lists(st.lists(literal, min_size=1, max_size=5), max_size=60))
    phases = draw(
        st.none() | st.lists(st.booleans(), min_size=num_vars + 1, max_size=num_vars + 1)
    )
    max_conflicts = draw(st.none() | st.integers(0, 20))
    return num_vars, clauses, phases, max_conflicts


@given(cnfs())
@settings(max_examples=300, deadline=None)
def test_same_search_on_random_cnfs(case):
    assert_same_search(*case)


@pytest.mark.parametrize("pigeons, holes", [(3, 3), (5, 4), (6, 5), (7, 6)])
def test_same_search_through_restarts(pigeons, holes):
    num_vars, clauses = pigeonhole(pigeons, holes)
    outcome, _ = assert_same_search(num_vars, clauses)
    assert (outcome is None) == (pigeons > holes)


@pytest.mark.parametrize("budget", [0, 1, 57, 150, 400])
def test_budget_runs_out_at_the_same_conflict(budget):
    num_vars, clauses = pigeonhole(7, 6)  # UNSAT after 789 conflicts
    assert assert_same_search(num_vars, clauses, max_conflicts=budget) == (
        "budget",
        budget + 1,
    )


def tiny_story():
    d = load_domain(os.path.join(DATA, "story-tiny-domain.pddl"))
    return ground(d, load_problem_file(os.path.join(DATA, "story-tiny-problem.pddl"), d))


def aladdin():
    problem, _space = get_domain("story")()
    return problem


def fbi_rounds(problem, horizon, rounds):
    """Solve one encoded horizon, then keep forbidding the plan just found
    (and, every third round, its goal-fluent ending), comparing both kernels
    after each step; returns the outcomes."""
    task = encode(problem, horizon)
    goal_fluents = sorted(problem.goal.fluents())
    outcomes = []
    for step in range(rounds):
        outcome, _ = assert_same_search(
            task.num_vars, task.clauses, task.decision_phases()
        )
        outcomes.append(outcome)
        if outcome is None:
            break
        trace = decode(outcome, task)
        if step % 3 == 2:
            forbid_behaviour(task, {f: f in trace.final_state for f in goal_fluents}.items())
        else:
            forbid_plan(task, trace.plan.labels())
    return outcomes


@pytest.mark.parametrize("horizon", range(0, 7))
def test_same_search_on_story_tiny(horizon):
    outcomes = fbi_rounds(tiny_story(), horizon, rounds=12)
    assert outcomes[-1] is None or len(outcomes) == 12


@pytest.mark.parametrize("horizon", range(0, 4))
def test_same_search_on_aladdin(horizon):
    outcomes = fbi_rounds(aladdin(), horizon, rounds=4)
    assert (outcomes[0] is None) == (horizon < 3)


def incremental_fbi_rounds(problem, horizon, rounds):
    """fbi_rounds on one live solver: each forbidding clause is added after
    the solve that found its plan. Every answer must be the fresh reference's
    on the same cumulative clauses, and every model must satisfy them all."""
    task = encode(problem, horizon)
    phases = task.decision_phases()
    live = Solver(task.num_vars, task.clauses, phases=phases)
    goal_fluents = sorted(problem.goal.fluents())
    outcomes = []
    for step in range(rounds):
        model = live.solve()
        expected = ReferenceSolver(task.num_vars, task.clauses, phases=phases).solve()
        assert (model is None) == (expected is None)
        outcomes.append(model)
        if model is None:
            break
        for clause in task.clauses:
            assert any(model[abs(lit)] == (lit > 0) for lit in clause)
        trace = decode(model, task)
        if step % 3 == 2:
            clause = forbid_behaviour(
                task, {f: f in trace.final_state for f in goal_fluents}.items()
            )
        else:
            clause = forbid_plan(task, trace.plan.labels())
        live.add_clause(clause)
    return outcomes


@pytest.mark.parametrize("horizon", range(0, 7))
def test_live_solver_answers_on_story_tiny(horizon):
    outcomes = incremental_fbi_rounds(tiny_story(), horizon, rounds=12)
    assert outcomes[-1] is None or len(outcomes) == 12


@pytest.mark.parametrize("horizon", range(0, 4))
def test_live_solver_answers_on_aladdin(horizon):
    outcomes = incremental_fbi_rounds(aladdin(), horizon, rounds=4)
    assert (outcomes[0] is None) == (horizon < 3)


def assert_same_state(a, b):
    assert a.num_vars == b.num_vars and a.ok == b.ok
    assert a.val == b.val and a.trail == b.trail
    assert a.phase == b.phase and a.activity == b.activity
    assert a.watches == b.watches


@pytest.mark.parametrize("ordered", [False, True], ids=["all-orders", "one-order"])
@pytest.mark.parametrize("horizon", range(0, 7))
@pytest.mark.parametrize("pack", ["story", "story-tiny"])
def test_a_solver_grown_from_empty_is_the_one_built_with_its_clauses(
    pack, horizon, ordered
):
    # the generators load every solver as `grown` is loaded here; the
    # one-shot solve_task builds it in one call, as `built` is
    task = CnfTask(aladdin() if pack == "story" else tiny_story(), horizon)
    if ordered:
        task.keep_one_order()
    phases = task.decision_phases()
    grown = Solver(0)
    grown.add_vars(phases[1:])
    for clause in task.clauses:
        grown.add_clause(clause)
    built = Solver(task.num_vars, task.clauses, phases=phases)
    assert_same_state(grown, built)
    goal_fluents = sorted(task.goal_fluents)
    for _ in range(3):  # solve, forbid the ending found, solve again
        model = grown.solve(assumptions=(task.guard(horizon),))
        assert model == built.solve(assumptions=(task.guard(horizon),))
        assert grown.conflicts == built.conflicts
        assert_same_state(grown, built)
        if model is None:
            break
        final = decode(model, task).final_state
        clause = forbid_behaviour(task, {f: f in final for f in goal_fluents}.items())
        grown.add_clause(clause)
        built.add_clause(clause)


def test_budget_runs_out_at_the_same_conflict_on_an_encoded_task():
    task = encode(aladdin(), 2)  # UNSAT after 12 conflicts
    outcome = assert_same_search(
        task.num_vars, task.clauses, task.decision_phases(), max_conflicts=5
    )
    assert outcome == ("budget", 6)


@pytest.mark.parametrize("seed", range(8))
def test_same_search_on_random_3sat(seed):
    # 80 variables at clause ratio 4.25: up to a few hundred conflicts,
    # past the first restarts
    rng = random.Random(seed)
    clauses = [
        [v if rng.random() < 0.5 else -v for v in rng.sample(range(1, 81), 3)]
        for _ in range(340)
    ]
    assert_same_search(80, clauses)
