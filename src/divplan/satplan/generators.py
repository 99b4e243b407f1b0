"""SAT-backed behaviour and plan generators.

Both generators run one loop over an ascending horizon range, and a plan of
length h is found at horizon h, never as a padded longer model. At each
horizon a caller forbids a list of items: for the behaviour generator, each
found behaviour's sorted (goal fluent, truth) pairs, and for the plan
generator, the label tuples of its plans of length h. At a fixed horizon the
items map one-to-one to the forbidding clauses, which `encoding.forbid_*`
build the same way for every item.

Forbidding clauses only remove models, so a horizon proved UNSAT under a set
of items stays UNSAT under any superset. Each ground problem object keeps a
record of its closed horizons: for each horizon, the item sets it was proved
UNSAT under. A call skips a horizon whose record holds a subset of its own
items, without building a clause or solving. The two generators' items
coincide only in the empty item (), whose clause is [¬g_h] for both, so a
set recorded by one generator closes a horizon for the other only when it
holds nothing else: when the steps alone, or the empty item, are UNSAT.

The behaviour generator's first UNSAT under a non-empty set turns on its
commutation reduction (`CnfTask.keep_one_order`) in the record: for the live
task's steps, every later step and every fresh behaviour task. Every final
state, hence every behaviour, survives it, and an empty-set UNSAT proved
under it still shows that no plan of that length reaches the goal, so the
closed-horizon record stays safe to share. The plan generator needs every
plan, so its tasks never carry the clauses.

The same record keeps one live built-in solver per (problem, generator) and
the growing task it was loaded from (`encoding.CnfTask`): each step is
encoded and loaded once, and learned clauses carry over between horizons
and calls. A solve at h runs under the assumption g_h, with the goal and the
items' clauses at h guarded by it; moving on past h retires g_h with a unit.
Within one generator the first open horizon only rises, so the solver
holds exactly steps 0..h-1 when it answers at h. A call that needs a horizon
below the task's, or that drops an item loaded at the task's horizon, starts
a fresh task and an empty solver. Fresh or live, a solver is loaded one way:
add_vars for the task's new variables, then one add_clauses call for the
new clauses, which the encoder builds with no variable repeated. A
budget run-out drops the solver and records nothing. The record is kept by
`core.record_of`: keyed by object identity, it dies with its problem
(neither task nor solver holds it), so a fresh problem object plans as a
first call does.
"""

from __future__ import annotations

from typing import Callable, Hashable, Iterable, Optional, Sequence

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
from .encoding import CnfTask, decode, forbid_behaviour, forbid_plan
# not called here: bench/spans.py's tracer patches these two names on this module
from .encoding import encode, solve_task
from .solver import ResourceLimit, Solver

DEFAULT_HORIZONS = range(0, 21)


# id(problem) -> (closed, live, ordered), kept by core.record_of:
#   closed: horizon -> [frozensets of forbidden items it was proved UNSAT under]
#   live: generator -> (CnfTask, the Solver loaded from it, the set of items
#         whose clauses it holds at the task's horizon)
#   ordered: the generators whose tasks keep one order of commuting actions
_records: dict = {}


def _check_goal_assignment_space(space: BehaviourSpace) -> None:
    for feature in space.features:
        if not isinstance(feature.expression, GoalAssignment):
            raise SpaceConfigError(
                f"feature {feature.name!r} is not expressed over goal-fluent "
                "assignments; use the simulator backend for temporal features"
            )


def _solve_horizon(
    live: dict,
    generator: str,
    problem: GroundProblem,
    horizon: int,
    forbidden: Sequence[Hashable],
    forbid: Callable[[CnfTask, Hashable], list],
    max_conflicts: Optional[int],
    ordered: bool,
) -> tuple:
    """(model or None, the task to decode it with): a model of the problem
    at this horizon with every forbidden item excluded, or None when UNSAT.
    A new task keeps one order of commuting actions when ordered is set.
    The built-in solver stays live unless its budget runs out."""
    task, solver, loaded = live.pop(generator, (None, None, None))
    if task is None or task.horizon > horizon or (
        task.horizon == horizon and not loaded.issubset(forbidden)
    ):
        task = CnfTask(problem, horizon)
        if ordered:
            task.keep_one_order()
        solver = Solver(0)
    elif task.horizon < horizon:
        task.advance(horizon)
    if solver.num_vars < task.num_vars:
        solver.add_vars(task.decision_phases()[solver.num_vars + 1 :])
        loaded = set()
    for item in forbidden:
        if item not in loaded:
            forbid(task, item)
            loaded.add(item)
    solver.add_clauses(task.clauses)
    task.clauses.clear()
    model = solver.solve(max_conflicts, assumptions=(task.guard(horizon),))
    live[generator] = (task, solver, loaded)
    return model, task


def _first_trace(
    problem: GroundProblem,
    generator: str,
    horizon_range: Iterable[int],
    forbidden_at: Callable[[int], Sequence[Hashable]],
    forbid: Callable[[CnfTask, Hashable], list],
    max_conflicts: Optional[int],
) -> Optional[PlanTrace]:
    """The first replayed trace over the horizons within the problem's budget.

    At each horizon: skip it if the problem's record closes it under a
    subset of the caller's forbidden items, else solve it with forbid
    building each item's clause, decode, and replay the plan. None when
    every horizon is UNSAT. The caller checks that the forbidding clauses
    excluded what it forbade.
    """
    closed, live, ordered = record_of(_records, problem, lambda: ({}, {}, set()))
    for h in horizon_range:
        if problem.budget is not None and h > problem.budget:
            continue
        forbidden = forbidden_at(h)
        items = frozenset(forbidden)
        if any(unsat <= items for unsat in closed.get(h, ())):
            continue
        try:
            model, task = _solve_horizon(
                live, generator, problem, h, forbidden, forbid, max_conflicts,
                generator in ordered,
            )
        except ResourceLimit as exc:
            raise GeneratorTimeout(str(exc)) from exc
        if model is None:
            closed.setdefault(h, []).append(items)
            if items and generator == "behaviour":
                ordered.add(generator)
                task.keep_one_order()  # loaded before the live solver's next solve
            continue
        trace = decode(model, task)
        if validate_plan(problem, trace.plan).states != trace.states:
            raise AssertionError(
                "decoded state sequence disagrees with plan execution; "
                "the encoding's frame axioms are broken"
            )
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

    Horizons are tried in the given (ascending) order; at each one, every
    already-found behaviour's (goal fluent, truth) pairs are forbidden. A
    cell with no pairs covers every trace and closes every horizon; a cell
    whose features contradict each other holds both truths of a fluent and
    forbids nothing. seed is ignored (the solver is deterministic); ROADMAP
    item 1 step 3 removes it.
    """
    _check_goal_assignment_space(space)
    found = tuple(found_behaviours)
    forbidden = sorted({
        tuple(sorted({
            pair
            for feature, value in zip(space.features, behaviour)
            for pair in feature.expression.assignment_for(value).items()
        }))
        for behaviour in found
    })
    trace = _first_trace(
        problem, "behaviour", horizon_range, lambda h: forbidden, forbid_behaviour,
        max_conflicts,
    )
    if trace is not None:
        behaviour = pbehaviour(space, trace)
        if behaviour in found:
            raise AssertionError(
                f"solver returned already-found behaviour {behaviour}; "
                "behaviour-forbidding clauses are broken"
            )
    return trace


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
    horizon — others cannot be models there anyway — so the empty plan
    closes horizon 0. seed is ignored, as in behaviour_generator_sat.
    """
    seen_labels = {plan.labels() for plan in existing_plans}
    of_length: dict = {}
    for labels in sorted(seen_labels):
        of_length.setdefault(len(labels), []).append(labels)
    trace = _first_trace(
        problem, "plan", horizon_range, lambda h: of_length.get(h, ()), forbid_plan,
        max_conflicts,
    )
    if trace is not None and trace.plan.labels() in seen_labels:
        raise AssertionError(
            f"solver returned already-known plan {trace.plan.labels()}; "
            "plan-forbidding clauses are broken"
        )
    return trace
