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

Two more references guard the level-0 load path of the live solver:
loading a batch one `add_clause` at a time, which every `add_clauses` load
must match state for state, and `full_scan_decide`, the decision scan over
every variable, whose picks the kept list of unfixed variables must match.
"""

import copy
import os
import random
from contextlib import nullcontext
from typing import Iterable, Optional, Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divplan.bspace import BehaviourSpace, goal_endings_feature
from divplan.domains import get_domain
from divplan.fbi import fbi
from divplan.pddl import ground, load_domain, load_problem_file
from divplan.satplan import (
    CnfTask,
    ResourceLimit,
    Solver,
    behaviour_generator_sat,
    decode,
    encode,
    forbid_behaviour,
    forbid_plan,
    generators,
    plan_generator_sat,
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


# -- the batch loader and the decision list ---------------------------------------


def full_scan_decide(solver):
    """`Solver._decide` as it was before it kept a list of the variables not
    fixed at level 0: a scan over every variable."""
    best = 0
    best_act = -1.0
    val = solver.val
    activity = solver.activity
    for v in range(1, solver.num_vars + 1):
        if val[v] is None and activity[v] > best_act:
            best = v
            best_act = activity[v]
    if best == 0:
        return None
    return best if solver.phase[best] else -best


class ScanSolver(Solver):
    """The solver with the full-scan decision."""

    _decide = full_scan_decide


def load_one_by_one(solver, clauses):
    for clause in clauses:
        solver.add_clause(clause)


def assert_same_load(a, b):
    """The state a load writes: values, levels, trail, queue head, `ok` and
    the watch lists, compared as literal lists in watch order."""
    assert a.num_vars == b.num_vars and a.ok == b.ok and a.qhead == b.qhead
    assert a.val == b.val and a.level == b.level and a.trail == b.trail
    assert a.watches == b.watches


class TwinSolver(Solver):
    """A solver that runs a shadow beside it: the shadow loads each batch one
    add_clause at a time and decides by the full scan. After every load the
    two must hold the same state, and every solve must give the same model
    and conflict count."""

    def __init__(self, num_vars):
        super().__init__(num_vars)
        self.shadow = ScanSolver(num_vars)
        self.solves = 0

    def add_vars(self, phases):
        super().add_vars(phases)
        self.shadow.add_vars(phases)

    def add_clauses(self, clauses):
        super().add_clauses(clauses)
        load_one_by_one(self.shadow, clauses)
        assert_same_load(self, self.shadow)

    def solve(self, max_conflicts=None, assumptions=()):
        model = super().solve(max_conflicts, assumptions)
        assert self.shadow.solve(max_conflicts, assumptions) == model
        assert self.shadow.conflicts == self.conflicts
        assert_same_load(self, self.shadow)
        self.solves += 1
        return model


def outcome_of(solver, max_conflicts=None, assumptions=()):
    try:
        return solver.solve(max_conflicts, assumptions)
    except ResourceLimit:
        return "budget"


@st.composite
def load_rounds(draw):
    """Batches of clauses that repeat no variable, units, contradictory units
    and now and then an empty clause among them, each batch followed by a
    solve under up to two assumptions, which leaves the solver above level 0."""
    num_vars = draw(st.integers(1, 10))

    def signed(variables):
        return [v if draw(st.booleans()) else -v for v in variables]

    def clause():
        return signed(draw(st.lists(st.integers(1, num_vars), min_size=1, max_size=4,
                                    unique=True)))

    rounds = []
    for _ in range(draw(st.integers(1, 5))):
        batch = [clause() for _ in range(draw(st.integers(1, 12)))]
        if draw(st.integers(0, 19)) == 0:
            batch.insert(draw(st.integers(0, len(batch))), [])
        assumptions = signed(draw(st.lists(st.integers(1, num_vars), max_size=2,
                                           unique=True)))
        rounds.append((batch, assumptions))
    return num_vars, rounds


@given(load_rounds())
@settings(max_examples=300, deadline=None)
def test_a_batch_loads_as_its_clauses_one_by_one(case):
    num_vars, rounds = case
    batched, single = Solver(num_vars), Solver(num_vars)
    for batch, assumptions in rounds:
        batched.add_clauses(batch)
        load_one_by_one(single, batch)
        assert_same_load(batched, single)
        model = batched.solve(assumptions=assumptions)
        assert single.solve(assumptions=assumptions) == model
        assert batched.conflicts == single.conflicts


@pytest.mark.parametrize("at", [0, 2, 3], ids=["first", "middle", "last"])
@pytest.mark.parametrize("bad", [0, 4, -4])
def test_a_bad_literal_anywhere_in_a_batch_loads_none_of_it(at, bad):
    batch = [[1], [-2, 3], [2, -1, 3]]
    batch.insert(at, [3, bad])
    solver = Solver(3)
    solver.solve()  # leaves the solver above level 0
    before = copy.deepcopy(solver)
    with pytest.raises(ValueError, match=f"bad literal {bad}"):
        solver.add_clauses(batch)
    assert_same_load(solver, before)
    assert solver.trail_lim == before.trail_lim


@pytest.mark.parametrize("pack, k", [("story", 3), ("story-tiny", 60)])
def test_the_generators_batches_load_as_their_clauses_one_by_one(monkeypatch, pack, k):
    # every batch _solve_horizon loads, and every solve after it, on a twin
    # that checks both against the one-by-one, full-scan shadow
    problem = get_domain(pack)()[0]
    twins = []

    def twin(num_vars):
        twins.append(TwinSolver(num_vars))
        return twins[-1]

    monkeypatch.setattr(generators, "Solver", twin)
    space = BehaviourSpace((goal_endings_feature(problem),))
    fbi(
        k, space,
        lambda found: behaviour_generator_sat(problem, space, found),
        lambda existing: plan_generator_sat(problem, existing),
    )
    assert twins and sum(t.solves for t in twins) >= k


@given(cnfs(), st.data())
@settings(max_examples=200, deadline=None)
def test_the_decision_list_picks_as_the_full_scan(case, data):
    # a solve, then units added between solves, then variables added after
    # a solve: every answer and conflict count is the full scan's
    num_vars, clauses, phases, max_conflicts = case
    kept = Solver(num_vars, clauses, phases=phases)
    scan = ScanSolver(num_vars, clauses, phases=phases)

    def solve_both():
        outcome = outcome_of(kept, max_conflicts)
        assert outcome_of(scan, max_conflicts) == outcome
        assert kept.conflicts == scan.conflicts

    solve_both()
    variable = st.integers(1, num_vars)
    for unit in data.draw(st.lists(variable.flatmap(lambda v: st.sampled_from([v, -v])),
                                   max_size=4)):
        for solver in (kept, scan):
            solver.add_clause([unit])
        solve_both()
    new_phases = data.draw(st.lists(st.booleans(), min_size=1, max_size=4))
    n = num_vars + len(new_phases)
    for solver in (kept, scan):
        solver.add_vars(new_phases)
        solver.add_clauses([[n, -1], [-n, 1]])
    solve_both()


def assert_lists_the_unfixed(solver):
    # after a model, the last pick listed exactly the variables level 0 left
    # free: a stale list picks the same, but scans what it need not
    fixed = solver.trail_lim[0] if solver.trail_lim else len(solver.trail)
    on_level_0 = {abs(lit) for lit in solver.trail[:fixed]}
    free = [v for v in range(1, solver.num_vars + 1) if v not in on_level_0]
    assert solver._free == free


def test_the_decision_list_follows_learned_units_and_added_variables():
    # this random 3-SAT instance learns a unit clause before its first model;
    # each later round adds a unit the last model keeps, then two variables,
    # and every pick of the live solver must be the full scan's
    picks, learned_units = [0], [0]

    class Checked(Solver):
        def _decide(self):
            lit = super()._decide()
            assert lit == full_scan_decide(self)
            picks[0] += 1
            return lit

        def _analyze(self, conflict):
            learnt, backjump = super()._analyze(conflict)
            learned_units[0] += len(learnt) == 1
            return learnt, backjump

    rng = random.Random(4)
    clauses = [
        [v if rng.random() < 0.5 else -v for v in rng.sample(range(1, 61), 3)]
        for _ in range(250)
    ]
    solver = Checked(60, clauses)
    model = solver.solve()
    assert learned_units[0] > 0
    assert_lists_the_unfixed(solver)
    for _ in range(4):
        v = rng.randint(1, 60)
        solver.add_clause([v if model[v] else -v])
        solver.add_vars([True, False])
        n = solver.num_vars
        solver.add_clauses([[n, n - 1, rng.randint(1, 60)], [-n, -(n - 1)]])
        model = solver.solve()
        assert model is not None
        assert_lists_the_unfixed(solver)
    assert picks[0] > 0
