"""SAT-backed behaviour and plan generators.

Both generators run one loop over an ascending horizon range. Each horizon is
encoded afresh and carries the caller's forbidding clauses, so a plan of
length h is found at horizon h, never as a padded longer model. Every call
starts again at the bottom of the range and re-encodes each horizon, even one
an earlier call proved UNSAT: forbidding clauses only remove models, so such a
horizon stays UNSAT, and keeping it closed across calls is ROADMAP item 3.
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
from ..core import GeneratorTimeout, GroundProblem, Plan, PlanTrace, validate_plan
from .encoding import (
    CnfTask,
    decode,
    encode,
    forbid_behaviour,
    forbid_plan,
    solve_task,
)
from .solver import ResourceLimit

DEFAULT_HORIZONS = range(0, 21)


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


def _first_trace(
    problem: GroundProblem,
    horizon_range: Iterable[int],
    forbid: Callable[[CnfTask], None],
    check: Callable[[PlanTrace], None],
    seed: int,
    max_conflicts: Optional[int],
) -> Optional[PlanTrace]:
    """The first checked trace over the horizons within the problem's budget.

    At each horizon: encode, let forbid add the caller's clauses, solve,
    decode, replay the plan, and let check reject a trace the forbidding
    clauses should have excluded. None when every horizon is UNSAT.
    """
    for h in horizon_range:
        if problem.budget is not None and h > problem.budget:
            continue
        task = encode(problem, h)
        forbid(task)
        try:
            model = solve_task(task, seed=seed, max_conflicts=max_conflicts)
        except ResourceLimit as exc:
            raise GeneratorTimeout(str(exc)) from exc
        if model is None:
            continue
        trace = decode(model, task)
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
    carries one forbidding clause per already-found behaviour.
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

    return _first_trace(problem, horizon_range, forbid, check, seed, max_conflicts)


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
    horizon — others cannot be models there anyway.
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

    return _first_trace(problem, horizon_range, forbid, check, seed, max_conflicts)
