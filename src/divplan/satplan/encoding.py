"""Sequential planning-as-satisfiability encoding and plan decoding.

One action per step. One encoding serves every horizon: it grows a step at
a time and nothing in a step mentions the horizon. Variables are numbered by
formula, with no lookup table. With F fluents, A actions, B = ceil(log2 A)
code bits, G = 1 plus the goal's disjunct count when it has two or more,
and the stride S = F + G + A + B:

* layer t starts at 1 + t*S. Fluent f is 1 + t*S + index(f), where
  index(f) is f's position in sorted order. The horizon guard g_t is
  1 + t*S + F, and the goal selectors of layer t follow it;
* step t follows layer t. Action i (its index in problem.actions) is
  1 + t*S + F + G + i, and the step's code bits follow the actions. Layer
  t+1 comes next.

So layer 0 holds the fluents, and step block t holds step t's actions, its
code bits and layer t+1. A task at horizon h has h*S + F + G variables.
Clauses: init units; for each step, exactly one action, action implications
for preconditions and effects, and positive/negative explanatory frame
axioms. The goal at h, and every clause that forbids a behaviour or a plan
at h, also holds the literal ¬g_h, so it binds only where g_h is assumed;
the one-shot `encode` asserts g_h with a unit. Every layer below the
horizon is retired: units set its guard and goal selectors False, which
switches off a goal encoded there before the task grew. Plans shorter than
the horizon are the business of lower horizons — there is no no-op padding.

At most one action per step uses the binary encoding (Frisch & Giannaros,
ModRef 2010): action i forces the step's code bits to spell i, so two true
actions disagree on some bit, and one true action still falsifies every other
by unit propagation. That is |A|*ceil(log2 |A|) clauses per step instead of
the pairwise |A|(|A|-1)/2, which made up 21,945 of the bundled story's 22,716
clauses per step. A sequential counter (Sinz, CP 2005) is also linear but adds
|A|-1 variables per step, which slowed search on the small story cuts.

`CnfTask.keep_one_order` adds a commutation reduction (Wehrle & Helmert,
ICAPS 2012). Two actions commute unless some fluent is read by one and
changed by the other, or added by one and deleted by the other; back to back
they then reach the same state in either order. Adjacent swaps turn any plan
into one of the same length and final state in which no commuting pair stands
out of problem.actions order, so forbidding such pairs keeps every final
state at every horizon, though not every plan. For action j, r_j is the first
index above j whose action does not commute with j, or 2^B when none does
(codes >= |A| never occur). At step t >= 1, a_j forbids a step-(t-1) code in
(j, r_j): one clause per aligned power-of-two block of that interval, ¬a_{j,t}
∨ (some fixed prefix bit of the block differs), at most 2B per action.
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence

from ..core import (
    Fluent,
    GroundAction,
    GroundProblem,
    Plan,
    PlanTrace,
)
from .solver import Solver


class EncodingError(Exception):
    pass


class MalformedModel(EncodingError):
    """A model decoded to zero or multiple actions at some step."""


class HorizonMismatch(EncodingError):
    """forbid_plan needs a plan of exactly the task's horizon."""


class CnfTask:
    """A CNF planning task that grows one step at a time, plus the variable
    layout needed to decode models (the numbering formulas are in the module
    docstring; fluent_order gives index(f)).

    `horizon` steps are encoded, and so is the goal at `horizon`, guarded by
    `guard(horizon)`. `clauses` holds the clauses emitted and not yet handed
    to a solver: all of them, for a one-shot task. The task keeps the
    problem's actions but not the problem itself, so a record that keeps a
    task does not keep its problem alive.

    After `keep_one_order()`, every step t >= 1 also carries the ordering
    clauses of the module docstring, which forbid an action right after a
    higher-indexed one it commutes with: every final state keeps a model,
    every plan does not.
    """

    def __init__(self, problem: GroundProblem, horizon: int = 0):
        self.actions = problem.actions
        self.action_index = {a.name: i for i, a in enumerate(self.actions)}
        self.fluent_order = tuple(sorted(problem.fluents))
        self.fluent_index = {f: i for i, f in enumerate(self.fluent_order)}
        goal = problem.goal
        self.goal_fluents = goal.fluents()
        self._disjuncts = () if goal.is_trivial() else goal.disjuncts
        n_a, n_f = len(self.actions), len(self.fluent_order)
        n_selectors = len(self._disjuncts) if len(self._disjuncts) > 1 else 0
        self.n_bits = max(n_a - 1, 0).bit_length()  # 0 when |A| <= 1
        self.layer_size = n_f + 1 + n_selectors  # F + G
        self.stride = self.layer_size + n_a + self.n_bits
        self._adders: dict = {f: [] for f in self.fluent_order}
        self._deleters: dict = {f: [] for f in self.fluent_order}
        for i, a in enumerate(self.actions):
            for f in sorted(a.add):
                self._adders[f].append(i)
            for f in sorted(a.delete):
                self._deleters[f].append(i)
        self._order: Optional[list] = None  # per action, its blocks' fixed bits

        # every literal below is a variable number, so none is zero
        self.clauses: list = [
            [self.fluent_var(f, 0) if f in problem.init else -self.fluent_var(f, 0)]
            for f in self.fluent_order
        ]
        self.horizon = 0
        self.advance(horizon)

    def fluent_var(self, fluent: Fluent, t: int) -> int:
        return 1 + t * self.stride + self.fluent_index[fluent]

    def guard(self, t: int) -> int:
        return 1 + t * self.stride + len(self.fluent_order)

    def action_var(self, action_index: int, t: int) -> int:
        return 1 + t * self.stride + self.layer_size + action_index

    def add_clause(self, clause: Sequence[int]) -> list:
        clause = list(clause)
        if any(lit == 0 for lit in clause):
            raise ValueError("zero literal in clause")
        self.clauses.append(clause)
        return clause

    def advance(self, horizon: int) -> None:
        """Grow to `horizon`: retire each layer below it (units set its guard
        and goal selectors False, so search never decides them), encode the
        missing steps, and guard the goal at `horizon`."""
        if horizon < self.horizon:
            raise ValueError(f"horizon {horizon} is below the task's {self.horizon}")
        add = self.clauses.append
        for t in range(self.horizon, horizon):
            for var in range(self.guard(t), self.action_var(0, t)):
                add([-var])
            self._add_step(t)
        self.horizon = horizon
        self.num_vars = horizon * self.stride + self.layer_size
        g = self.guard(horizon)
        disjuncts = self._disjuncts
        if len(disjuncts) == 1:
            for f, positive in disjuncts[0]:
                var = self.fluent_var(f, horizon)
                add([var if positive else -var, -g])
        elif disjuncts:
            selectors = range(g + 1, g + 1 + len(disjuncts))
            for s, disjunct in zip(selectors, disjuncts):
                for f, positive in disjunct:
                    var = self.fluent_var(f, horizon)
                    add([-s, var if positive else -var])
            add([*selectors, -g])

    def _add_step(self, t: int) -> None:
        fv = self.fluent_var
        av = self.action_var
        n_a = len(self.actions)
        add = self.clauses.append
        # exactly one action: at least one, and at most one via the code bits
        add([av(i, t) for i in range(n_a)])
        bits = range(av(n_a, t), av(n_a, t) + self.n_bits)
        for i in range(n_a):
            for k, b in enumerate(bits):
                add([-av(i, t), b if i >> k & 1 else -b])
        # preconditions and effects
        for i, a in enumerate(self.actions):
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
        for f in self.fluent_order:
            add([-fv(f, t + 1), fv(f, t)] + [av(i, t) for i in self._adders[f]])
            add([fv(f, t + 1), -fv(f, t)] + [av(i, t) for i in self._deleters[f]])
        if self._order is not None and t > 0:
            self._add_order(t)

    def keep_one_order(self) -> None:
        """Forbid commuting actions out of order at steps 1..horizon-1 and at
        every step encoded later; a second call does nothing."""
        if self._order is not None:
            return
        n_bits = self.n_bits
        self._order = []
        for j, r in enumerate(_commute_bounds(self.actions, 1 << n_bits)):
            blocks, lo = [], j + 1
            while lo < r:  # the largest aligned block at lo that fits below r
                size = lo & -lo
                while lo + size > r:
                    size >>= 1
                low = size.bit_length() - 1
                blocks.append([(k, lo >> k & 1) for k in range(low, n_bits)])
                lo += size
            self._order.append(blocks)
        for t in range(1, self.horizon):
            self._add_order(t)

    def _add_order(self, t: int) -> None:
        bits = self.action_var(len(self.actions), t - 1)  # step t-1's code
        add = self.clauses.append
        for j, blocks in enumerate(self._order):
            lit = -self.action_var(j, t)
            for block in blocks:
                add([lit] + [-(bits + k) if one else bits + k for k, one in block])

    def decision_phases(self) -> list:
        """Initial solver phases: try actions True so search walks plans
        depth-first; everything else defaults to False."""
        phases = [False] * (self.num_vars + 1)
        n_a = len(self.actions)
        for t in range(self.horizon):
            start = self.action_var(0, t)
            phases[start : start + n_a] = [True] * n_a
        return phases


def _commute_bounds(actions: Sequence[GroundAction], top: int) -> list:
    """r_j for each action j: the first index above j whose action does not
    commute with j, else top. Two actions commute unless some fluent plays
    different roles in them (read, added, deleted), so one right-to-left pass
    keeps the lowest index seen so far per (fluent, role)."""
    first: dict = {}
    bounds = [top] * len(actions)
    for j in range(len(actions) - 1, -1, -1):
        a = actions[j]
        roles = [(f, 0) for f in a.pre_pos | a.pre_neg]
        roles += [(f, 1) for f in a.add] + [(f, 2) for f in a.delete]
        clashes = [(f, other) for f, role in roles for other in {0, 1, 2} - {role}]
        bounds[j] = min([first.get(key, top) for key in clashes], default=top)
        first.update(dict.fromkeys(roles, j))
    return bounds


def encode(problem: GroundProblem, horizon: int) -> CnfTask:
    """The one-shot task at `horizon`: its goal asserted by the unit g_h."""
    task = CnfTask(problem, horizon)
    task.clauses.append([task.guard(horizon)])
    return task


def decode(model: Sequence, task: CnfTask) -> PlanTrace:
    """Read the plan and state sequence off a satisfying model."""
    actions = task.actions
    n_a, n_f = len(actions), len(task.fluent_order)
    plan = []
    for t in range(task.horizon):
        start = task.action_var(0, t)
        row = model[start : start + n_a]
        chosen = [a for a, value in zip(actions, row) if value]
        if len(chosen) != 1:
            raise MalformedModel(f"step {t}: {len(chosen)} actions are true")
        plan.append(chosen[0])
    states = []
    for t in range(task.horizon + 1):
        start = 1 + t * task.stride
        row = model[start : start + n_f]
        states.append(frozenset(f for f, value in zip(task.fluent_order, row) if value))
    return PlanTrace(plan=Plan(tuple(plan)), states=tuple(states))


def forbid_behaviour(task: CnfTask, feature_assignments: Mapping[Fluent, bool]) -> list:
    """Exclude every model that reproduces this goal-fluent assignment at the
    task's horizon: the clause is the disjunction of the flipped literals,
    guarded by the horizon's g."""
    clause = []
    for fluent in sorted(feature_assignments):
        if fluent not in task.goal_fluents:
            raise ValueError(f"{fluent} is not a goal fluent")
        var = task.fluent_var(fluent, task.horizon)
        clause.append(-var if feature_assignments[fluent] else var)
    if not clause:
        raise ValueError("empty behaviour assignment")
    return task.add_clause(clause + [-task.guard(task.horizon)])


def forbid_plan(task: CnfTask, plan: Plan) -> list:
    """Exclude this exact action sequence at the task's horizon, guarded by
    the horizon's g."""
    if len(plan) != task.horizon:
        raise HorizonMismatch(
            f"plan length {len(plan)} != task horizon {task.horizon}"
        )
    index_of = task.action_index
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
    return task.add_clause(clause + [-task.guard(task.horizon)])


def solve_task(
    task: CnfTask, *, max_conflicts: Optional[int] = None
) -> Optional[list]:
    """A satisfying model (list indexed by variable) or None for UNSAT, from a
    fresh built-in solver with the task's decision phases: the one-shot
    reference for the generators' live solvers, which never call it."""
    solver = Solver(task.num_vars, task.clauses, phases=task.decision_phases())
    return solver.solve(max_conflicts)
