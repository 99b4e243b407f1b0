"""Sequential planning-as-satisfiability encoding and plan decoding.

One action per step. Variables are numbered by formula, with no lookup
table:

* action i (its index in problem.actions) at step t < horizon is
  1 + t*|A| + i;
* fluent f at step t <= horizon is 1 + horizon*|A| + t*|F| + index(f),
  where index(f) is f's position in sorted order;
* goal selectors for a multi-disjunct goal come after those, then
  ceil(log2 |A|) code bits per step.

So the action variables are 1..horizon*|A|, one row of |A| per step, and the
fluent variables one row of |F| per step after them. Clauses: init units,
goal at the final step, exactly-one action per step, action implications for
preconditions and effects, and positive/negative explanatory frame axioms.
Plans shorter than the horizon are the business of lower horizons — there is
no no-op padding.

At most one action per step uses the binary encoding (Frisch & Giannaros,
ModRef 2010): action i forces the step's code bits to spell i, so two true
actions disagree on some bit, and one true action still falsifies every other
by unit propagation. That is |A|*ceil(log2 |A|) clauses per step instead of
the pairwise |A|(|A|-1)/2, which made up 21,945 of the bundled story's 22,716
clauses per step. A sequential counter (Sinz, CP 2005) is also linear but adds
|A|-1 variables per step, which slowed search on the small story cuts.
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
from .solver import EXTERNAL_SOLVER_ENV, SatError, external_solver_command, solve_external


class EncodingError(Exception):
    pass


class MalformedModel(EncodingError):
    """A model decoded to zero or multiple actions at some step."""


class HorizonMismatch(EncodingError):
    """forbid_plan needs a plan of exactly the task's horizon."""


@dataclass
class CnfTask:
    """A CNF planning task plus the variable layout needed to decode models
    (the numbering formulas are in the module docstring; fluent_order gives
    index(f))."""

    problem: GroundProblem
    horizon: int
    fluent_order: tuple
    clauses: list = field(default_factory=list)
    num_vars: int = 0

    def __post_init__(self):
        self.fluent_index = {f: i for i, f in enumerate(self.fluent_order)}
        self.fluent_base = 1 + self.horizon * len(self.problem.actions)

    def action_var(self, action_index: int, t: int) -> int:
        return 1 + t * len(self.problem.actions) + action_index

    def fluent_var(self, fluent: Fluent, t: int) -> int:
        return self.fluent_base + t * len(self.fluent_order) + self.fluent_index[fluent]

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
        phases[1 : self.fluent_base] = [True] * (self.fluent_base - 1)
        return phases


def encode(problem: GroundProblem, horizon: int) -> CnfTask:
    if horizon < 0:
        raise ValueError(f"horizon must be >= 0, got {horizon}")
    actions = problem.actions
    fluents = tuple(sorted(problem.fluents))
    n_a, n_f = len(actions), len(fluents)

    task = CnfTask(problem=problem, horizon=horizon, fluent_order=fluents)
    task.num_vars = n_a * horizon + n_f * (horizon + 1)
    fv = task.fluent_var
    av = task.action_var
    # every literal below is a variable number, so none is zero
    add = task.clauses.append

    # init: closed world at step 0
    for f in fluents:
        add([fv(f, 0) if f in problem.init else -fv(f, 0)])

    # goal at the final step
    if not problem.goal.is_trivial():
        disjuncts = problem.goal.disjuncts
        if len(disjuncts) == 1:
            for f, positive in disjuncts[0]:
                add([fv(f, horizon) if positive else -fv(f, horizon)])
        else:
            selectors = []
            for disjunct in disjuncts:
                task.num_vars += 1
                s = task.num_vars
                selectors.append(s)
                for f, positive in disjunct:
                    lit = fv(f, horizon) if positive else -fv(f, horizon)
                    add([-s, lit])
            add(selectors)

    adders: dict = {f: [] for f in fluents}
    deleters: dict = {f: [] for f in fluents}
    for i, a in enumerate(actions):
        for f in sorted(a.add):
            adders[f].append(i)
        for f in sorted(a.delete):
            deleters[f].append(i)

    n_bits = max(n_a - 1, 0).bit_length()  # ceil(log2 |A|), 0 when |A| <= 1
    for t in range(horizon):
        # exactly one action: at least one, and at most one via the code bits
        add([av(i, t) for i in range(n_a)])
        bits = range(task.num_vars + 1, task.num_vars + 1 + n_bits)
        task.num_vars += n_bits
        for i in range(n_a):
            for k, b in enumerate(bits):
                add([-av(i, t), b if i >> k & 1 else -b])
        # preconditions and effects
        for i, a in enumerate(actions):
            lit = -av(i, t)
            for f in sorted(a.pre_pos):
                add([lit, fv(f, t)])
            for f in sorted(a.pre_neg):
                add([lit, -fv(f, t)])
            for f in sorted(a.add):
                add([lit, fv(f, t + 1)])
            for f in sorted(a.delete):
                add([lit, -fv(f, t + 1)])
        # explanatory frame axioms: a change implies a cause
        for f in fluents:
            add([-fv(f, t + 1), fv(f, t)] + [av(i, t) for i in adders[f]])
            add([fv(f, t + 1), -fv(f, t)] + [av(i, t) for i in deleters[f]])
    return task


def decode(model: Sequence, task: CnfTask) -> PlanTrace:
    """Read the plan and state sequence off a satisfying model."""
    actions = task.problem.actions
    n_a, n_f = len(actions), len(task.fluent_order)
    plan = []
    for t in range(task.horizon):
        row = model[1 + t * n_a : 1 + (t + 1) * n_a]
        chosen = [a for a, value in zip(actions, row) if value]
        if len(chosen) != 1:
            raise MalformedModel(f"step {t}: {len(chosen)} actions are true")
        plan.append(chosen[0])
    states = []
    for t in range(task.horizon + 1):
        start = task.fluent_base + t * n_f
        row = model[start : start + n_f]
        states.append(frozenset(f for f, value in zip(task.fluent_order, row) if value))
    return PlanTrace(plan=Plan(tuple(plan)), states=tuple(states))


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
    task: CnfTask, *, max_conflicts: Optional[int] = None
) -> Optional[list]:
    """A satisfying model (list indexed by variable) or None for UNSAT, from
    the external solver named by DIVPLAN_EXTERNAL_SAT; a SatError when that
    variable is unset.

    The built-in solver is not reached from here: the generators keep one
    live `Solver` per horizon instead. Only the built-in solver counts
    conflicts, so a conflict budget here is a SatError rather than a budget
    silently dropped.
    """
    command = external_solver_command()
    if command is None:
        raise SatError(f"no external solver: {EXTERNAL_SOLVER_ENV} is not set")
    if max_conflicts is not None:
        raise SatError(
            f"--max-conflicts {max_conflicts} applies only to the built-in "
            f"solver; unset {EXTERNAL_SOLVER_ENV} or drop the budget"
        )
    return solve_external(command, task.num_vars, task.clauses)

