"""Sequential planning-as-satisfiability encoding and plan decoding.

One action per step. Variables: action a at step t (t < horizon) and fluent
f at step t (t <= horizon); goal selectors for a multi-disjunct goal come
after those. Clauses: init units, goal at the final step, exactly-one action
per step (pairwise at-most-one), action implications for preconditions and
effects, and positive/negative explanatory frame axioms. Plans shorter than
the horizon are the business of lower horizons — there is no no-op padding.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

from ..core import (
    Fluent,
    GroundAction,
    GroundProblem,
    Plan,
    PlanTrace,
)
from .solver import external_solver_command, solve, solve_external


class EncodingError(Exception):
    pass


class MalformedModel(EncodingError):
    """A model decoded to zero or multiple actions at some step."""


class HorizonMismatch(EncodingError):
    """forbid_plan needs a plan of exactly the task's horizon."""


@dataclass
class CnfTask:
    """A CNF planning task plus the variable maps needed to decode models."""

    problem: GroundProblem
    horizon: int
    clauses: list = field(default_factory=list)
    num_vars: int = 0
    fluent_order: tuple = ()
    # var = action_base + t*|A| + action_index, etc.; kept as plain dicts
    action_vars: dict = field(default_factory=dict)  # (action_index, t) -> var
    fluent_vars: dict = field(default_factory=dict)  # (Fluent, t) -> var

    def action_var(self, action_index: int, t: int) -> int:
        return self.action_vars[(action_index, t)]

    def fluent_var(self, fluent: Fluent, t: int) -> int:
        return self.fluent_vars[(fluent, t)]

    def add_clause(self, clause: Sequence[int]) -> list:
        clause = list(clause)
        if any(lit == 0 for lit in clause):
            raise ValueError("zero literal in clause")
        self.clauses.append(clause)
        return clause

    def decision_phases(self) -> list:
        """Initial solver phases: try actions True so search walks plans
        depth-first; everything else defaults to False."""
        phases = [False] * (self.num_vars + 1)
        for var in self.action_vars.values():
            phases[var] = True
        return phases


def encode(problem: GroundProblem, horizon: int) -> CnfTask:
    if horizon < 0:
        raise ValueError(f"horizon must be >= 0, got {horizon}")
    actions = problem.actions
    fluents = tuple(sorted(problem.fluents))
    n_a, n_f = len(actions), len(fluents)

    task = CnfTask(problem=problem, horizon=horizon, fluent_order=fluents)
    var = 0
    for t in range(horizon):
        for i in range(n_a):
            var += 1
            task.action_vars[(i, t)] = var
    for t in range(horizon + 1):
        for f in fluents:
            var += 1
            task.fluent_vars[(f, t)] = var
    task.num_vars = var

    fv = task.fluent_var
    av = task.action_var

    # init: closed world at step 0
    for f in fluents:
        task.add_clause([fv(f, 0) if f in problem.init else -fv(f, 0)])

    # goal at the final step
    if not problem.goal.is_trivial():
        disjuncts = problem.goal.disjuncts
        if len(disjuncts) == 1:
            for f, positive in disjuncts[0]:
                task.add_clause([fv(f, horizon) if positive else -fv(f, horizon)])
        else:
            selectors = []
            for disjunct in disjuncts:
                task.num_vars += 1
                s = task.num_vars
                selectors.append(s)
                for f, positive in disjunct:
                    lit = fv(f, horizon) if positive else -fv(f, horizon)
                    task.add_clause([-s, lit])
            task.add_clause(selectors)

    adders: dict = {f: [] for f in fluents}
    deleters: dict = {f: [] for f in fluents}
    for i, a in enumerate(actions):
        for f in sorted(a.add):
            adders[f].append(i)
        for f in sorted(a.delete):
            deleters[f].append(i)

    for t in range(horizon):
        # exactly one action
        task.add_clause([av(i, t) for i in range(n_a)])
        for i in range(n_a):
            for j in range(i + 1, n_a):
                task.add_clause([-av(i, t), -av(j, t)])
        # preconditions and effects
        for i, a in enumerate(actions):
            lit = -av(i, t)
            for f in sorted(a.pre_pos):
                task.add_clause([lit, fv(f, t)])
            for f in sorted(a.pre_neg):
                task.add_clause([lit, -fv(f, t)])
            for f in sorted(a.add):
                task.add_clause([lit, fv(f, t + 1)])
            for f in sorted(a.delete):
                task.add_clause([lit, -fv(f, t + 1)])
        # explanatory frame axioms: a change implies a cause
        for f in fluents:
            task.add_clause(
                [-fv(f, t + 1), fv(f, t)] + [av(i, t) for i in adders[f]]
            )
            task.add_clause(
                [fv(f, t + 1), -fv(f, t)] + [av(i, t) for i in deleters[f]]
            )
    return task


def decode(model: Sequence, task: CnfTask) -> PlanTrace:
    """Read the plan and state sequence off a satisfying model."""
    actions = []
    for t in range(task.horizon):
        chosen = [
            task.problem.actions[i]
            for i in range(len(task.problem.actions))
            if model[task.action_var(i, t)]
        ]
        if len(chosen) != 1:
            raise MalformedModel(f"step {t}: {len(chosen)} actions are true")
        actions.append(chosen[0])
    states = []
    for t in range(task.horizon + 1):
        states.append(
            frozenset(f for f in task.fluent_order if model[task.fluent_var(f, t)])
        )
    return PlanTrace(plan=Plan(tuple(actions)), states=tuple(states))


def forbid_behaviour(task: CnfTask, feature_assignments: Mapping[Fluent, bool]) -> list:
    """Exclude every model that reproduces this goal-fluent assignment at the
    final step: the clause is the disjunction of the flipped literals."""
    goal_fluents = task.problem.goal.fluents()
    clause = []
    for fluent in sorted(feature_assignments):
        if fluent not in goal_fluents:
            raise ValueError(f"{fluent} is not a goal fluent")
        var = task.fluent_var(fluent, task.horizon)
        clause.append(-var if feature_assignments[fluent] else var)
    if not clause:
        raise ValueError("empty behaviour assignment")
    return task.add_clause(clause)


def forbid_plan(task: CnfTask, plan: Plan) -> list:
    """Exclude this exact action sequence."""
    if len(plan) != task.horizon:
        raise HorizonMismatch(
            f"plan length {len(plan)} != task horizon {task.horizon}"
        )
    index_of = {a.name: i for i, a in enumerate(task.problem.actions)}
    clause = []
    for t, action in enumerate(plan):
        name = action.name if isinstance(action, GroundAction) else str(action)
        if name not in index_of:
            raise ValueError(f"plan step {t}: unknown action {name!r}")
        clause.append(-task.action_var(index_of[name], t))
    if not clause:
        # a zero-length plan at horizon 0 cannot be excluded by a clause over
        # action vars; the caller must stop offering horizon 0 instead
        raise HorizonMismatch("cannot forbid the empty plan at horizon 0")
    return task.add_clause(clause)


def solve_task(
    task: CnfTask,
    *,
    seed: int = 0,
    max_conflicts: Optional[int] = None,
) -> Optional[list]:
    """A satisfying model (list indexed by variable) or None for UNSAT.

    Uses the external solver named by DIVPLAN_EXTERNAL_SAT when that variable
    is set, otherwise the built-in one, seeded with action-first phases so the
    internal search walks candidate plans depth-first.
    """
    command = external_solver_command()
    if command is not None:
        return solve_external(command, task.num_vars, task.clauses)
    return solve(
        task.clauses,
        task.num_vars,
        seed=seed,
        max_conflicts=max_conflicts,
        phases=task.decision_phases(),
    )

