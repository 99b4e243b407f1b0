"""SAT-backed behaviour and plan generators.

Both generators run one loop over an ascending horizon range. Each horizon
has its own base encoding plus the caller's forbidding clauses, so a plan of
length h is found at horizon h, never as a padded longer model.

Forbidding clauses only remove models, so a horizon proved UNSAT under a set
of them stays UNSAT under any superset. Each ground problem object keeps a
record of its closed horizons: for each horizon, the forbidding clause sets it
was proved UNSAT under. A call skips a horizon whose record holds a subset of
its own clauses, without encoding or solving it. Behaviour clauses (goal
fluents at the last step) and plan clauses (action variables) never coincide,
so a set recorded by one generator closes a horizon for the other only when
it is empty, i.e. when the base encoding itself is UNSAT.

The same record keeps one live built-in solver per (generator, horizon) that
last answered SAT, with the forbidding clauses loaded into it. A call whose
clauses include those adds only the missing ones and solves again, keeping
the learned clauses; any other call encodes the horizon afresh. A definitive
UNSAT or a budget run-out drops the solver, and a run-out records nothing.
The external solver is always called one-shot, through `solve_task`. The
record is kept by `core.record_of`: keyed by object identity, it dies with
its problem, so a fresh problem object plans as a first call does.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional

from ..bspace import (
    Behaviour,
    BehaviourSpace,
    GoalAssignment,
    SpaceConfigError,
    pbehaviour,
)
from ..core import (
    GeneratorTimeout, GroundProblem, Plan, PlanTrace, record_of, validate_plan,
)
from .encoding import (
    CnfTask,
    decode,
    encode,
    forbid_behaviour,
    forbid_plan,
    solve_task,
)
from .solver import ResourceLimit, Solver, external_solver_command

DEFAULT_HORIZONS = range(0, 21)


# id(problem) -> (closed, live), kept by core.record_of:
#   closed: horizon -> [forbidding clause sets it was proved UNSAT under]
#   live: (generator, horizon) -> (Solver, the forbidding clause set loaded)
_records: dict = {}


def _merged_assignment(space: BehaviourSpace, behaviour: Behaviour) -> Optional[dict]:
    """Combine per-feature goal-fluent assignments into one map.

    Returns None when two features contradict each other: such a cell can
    never be realised, so there is nothing to forbid.
    """
    merged: dict = {}
    for feature, value in zip(space.features, behaviour):
        for fluent, positive in feature.expression.assignment_for(value).items():
            if merged.setdefault(fluent, positive) != positive:
                return None
    return merged


def _check_goal_assignment_space(space: BehaviourSpace) -> None:
    for feature in space.features:
        if not isinstance(feature.expression, GoalAssignment):
            raise SpaceConfigError(
                f"feature {feature.name!r} is not expressed over goal-fluent "
                "assignments; use the simulator backend for temporal features"
            )


def _solve_horizon(
    live: dict,
    key: tuple,
    forbidding: CnfTask,
    clause_set: frozenset,
    max_conflicts: Optional[int],
) -> Optional[list]:
    """A model of the horizon's base encoding plus the forbidding clauses,
    or None when UNSAT; the built-in solver stays live only after SAT."""
    problem, h = forbidding.problem, forbidding.horizon
    if external_solver_command() is not None:
        task = encode(problem, h)
        task.clauses.extend(forbidding.clauses)
        return solve_task(task, max_conflicts=max_conflicts)
    solver, loaded = live.pop(key, (None, None))
    if solver is None or not loaded <= clause_set:
        task = encode(problem, h)
        solver = Solver(task.num_vars, task.clauses, phases=task.decision_phases())
        loaded = frozenset()
    for clause in forbidding.clauses:
        if tuple(clause) not in loaded:
            solver.add_clause(clause)
    model = solver.solve(max_conflicts)
    if model is not None:
        live[key] = (solver, clause_set)
    return model


def _first_trace(
    problem: GroundProblem,
    generator: str,
    horizon_range: Iterable[int],
    forbid: Callable[[CnfTask], None],
    check: Callable[[PlanTrace], None],
    max_conflicts: Optional[int],
) -> Optional[PlanTrace]:
    """The first checked trace over the horizons within the problem's budget.

    At each horizon: let forbid build the caller's clauses, skip the horizon
    if the problem's record closes it under a subset of them, else solve it,
    decode, replay the plan, and let check reject a trace the forbidding
    clauses should have excluded. None when every horizon is UNSAT.
    """
    closed, live = record_of(_records, problem, lambda: ({}, {}))
    fluent_order = tuple(sorted(problem.fluents))
    for h in horizon_range:
        if problem.budget is not None and h > problem.budget:
            continue
        # forbidding clauses and decoding need only the variable numbering
        forbidding = CnfTask(problem, h, fluent_order)
        forbid(forbidding)
        clause_set = frozenset(map(tuple, forbidding.clauses))
        if any(unsat <= clause_set for unsat in closed.get(h, ())):
            continue
        try:
            model = _solve_horizon(
                live, (generator, h), forbidding, clause_set, max_conflicts
            )
        except ResourceLimit as exc:
            raise GeneratorTimeout(str(exc)) from exc
        if model is None:
            closed.setdefault(h, []).append(clause_set)
            continue
        trace = decode(model, forbidding)
        if validate_plan(problem, trace.plan).states != trace.states:
            raise AssertionError(
                "decoded state sequence disagrees with plan execution; "
                "the encoding's frame axioms are broken"
            )
        check(trace)
        return trace
    return None


def behaviour_generator_sat(
    problem: GroundProblem,
    space: BehaviourSpace,
    found_behaviours: Iterable[Behaviour],
    horizon_range: Iterable[int] = DEFAULT_HORIZONS,
    *,
    seed: int = 0,
    max_conflicts: Optional[int] = None,
) -> Optional[PlanTrace]:
    """A valid trace whose behaviour is none of found_behaviours, or None.

    Horizons are tried in the given (ascending) order; each horizon's task
    carries one forbidding clause per already-found behaviour. seed is
    ignored (the solver is deterministic); ROADMAP item 1 step 3 removes it.
    """
    _check_goal_assignment_space(space)
    found = tuple(found_behaviours)
    assignments = []
    for behaviour in found:
        merged = _merged_assignment(space, behaviour)
        if merged is None:
            continue
        if not merged:
            # a cell with no constraining fluents covers every trace
            return None
        assignments.append(sorted((str(f), f, v) for f, v in merged.items()))
    forbidden = [{f: v for _, f, v in a} for a in sorted(assignments)]

    def forbid(task: CnfTask) -> None:
        for assignment in forbidden:
            forbid_behaviour(task, assignment)

    def check(trace: PlanTrace) -> None:
        behaviour = pbehaviour(space, trace)
        if behaviour in found:
            raise AssertionError(
                f"solver returned already-found behaviour {behaviour}; "
                "behaviour-forbidding clauses are broken"
            )

    return _first_trace(
        problem, "behaviour", horizon_range, forbid, check, max_conflicts
    )


def plan_generator_sat(
    problem: GroundProblem,
    existing_plans: Iterable[Plan],
    horizon_range: Iterable[int] = DEFAULT_HORIZONS,
    *,
    seed: int = 0,
    max_conflicts: Optional[int] = None,
) -> Optional[PlanTrace]:
    """A valid trace whose plan is not in existing_plans, or None.

    Only plans whose length equals the current horizon are forbidden at that
    horizon — others cannot be models there anyway. seed is ignored, as in
    behaviour_generator_sat.
    """
    existing = sorted(existing_plans, key=lambda p: p.labels())
    seen_labels = {plan.labels() for plan in existing}
    if () in seen_labels:
        # the empty plan is the only horizon-0 model and no clause excludes it
        horizon_range = (h for h in horizon_range if h != 0)

    def forbid(task: CnfTask) -> None:
        for plan in existing:
            if len(plan) == task.horizon:
                forbid_plan(task, plan)

    def check(trace: PlanTrace) -> None:
        if trace.plan.labels() in seen_labels:
            raise AssertionError(
                f"solver returned already-known plan {trace.plan.labels()}; "
                "plan-forbidding clauses are broken"
            )

    return _first_trace(problem, "plan", horizon_range, forbid, check, max_conflicts)
