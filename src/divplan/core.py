"""Grounded STRIPS planning model.

States are closed-world sets of fluents. Actions carry positive/negative
preconditions, add/delete effects, and a non-negative cost. Goals are stored
in DNF (a disjunction of literal conjunctions), which keeps goal checks and
SAT goal clauses uniform. A brute-force bounded plan enumerator is included
as the diversity oracle used by the tests.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from itertools import product
from typing import Iterable, Iterator, Optional, Union


class PlanningError(Exception):
    """Base class for plan-validation failures."""


class InapplicableAction(PlanningError):
    """A plan step's preconditions do not hold in the current state."""

    def __init__(self, message: str, index: Optional[int] = None):
        super().__init__(message)
        self.index = index


class GoalNotSatisfied(PlanningError):
    """The final state of a plan does not satisfy the goal formula."""


class BudgetExceeded(PlanningError):
    """A plan is longer than the problem's budget."""


class GeneratorTimeout(PlanningError):
    """A plan/behaviour generator hit its resource budget before an answer."""


_FLUENT_RE = re.compile(r"^\s*([a-zA-Z_][\w-]*)\s*(?:\(\s*([^()]*?)\s*\))?\s*$")


@dataclass(frozen=True, order=True)
class Fluent:
    """A ground atom in canonical form: lowercased name and argument tuple."""

    name: str
    args: tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "name", self.name.lower())
        object.__setattr__(self, "args", tuple(a.lower() for a in self.args))

    def __str__(self) -> str:
        if not self.args:
            return self.name
        return f"{self.name}({','.join(self.args)})"

    @classmethod
    def parse(cls, text: str) -> "Fluent":
        m = _FLUENT_RE.match(text)
        if m is None:
            raise ValueError(f"not a fluent: {text!r}")
        name, args = m.groups()
        if args is None or args == "":
            return cls(name)
        return cls(name, tuple(a.strip() for a in args.split(",")))


State = frozenset  # frozenset[Fluent]; everything absent is false


@dataclass(frozen=True)
class GroundAction:
    name: str
    pre_pos: frozenset = frozenset()
    pre_neg: frozenset = frozenset()
    add: frozenset = frozenset()
    delete: frozenset = frozenset()
    cost: float = 1.0

    def __post_init__(self):
        if self.add & self.delete:
            raise ValueError(f"action {self.name}: add and delete effects overlap")
        if self.cost < 0:
            raise ValueError(f"action {self.name}: negative cost {self.cost}")

    def fluents(self) -> frozenset:
        return self.pre_pos | self.pre_neg | self.add | self.delete

    def __str__(self) -> str:
        return self.name


Literal = tuple[Fluent, bool]


@dataclass(frozen=True)
class GoalFormula:
    """Disjunction of conjunctions of (fluent, polarity) literals."""

    disjuncts: tuple[tuple[Literal, ...], ...]

    def __post_init__(self):
        if not self.disjuncts:
            raise ValueError("goal formula must have at least one disjunct")

    @classmethod
    def trivial(cls) -> "GoalFormula":
        """The always-true goal used by horizon (budget) problems."""
        return cls(((),))

    @classmethod
    def conjunction(cls, literals: Iterable[Literal]) -> "GoalFormula":
        return cls((tuple(literals),))

    def is_trivial(self) -> bool:
        return any(len(d) == 0 for d in self.disjuncts)

    def fluents(self) -> frozenset:
        """The grounded goal fluents: every fluent appearing in the formula."""
        return frozenset(f for d in self.disjuncts for f, _ in d)

    def satisfied_by(self, state: State) -> bool:
        return any(
            all((f in state) == positive for f, positive in d)
            for d in self.disjuncts
        )


@dataclass(frozen=True)
class GroundProblem:
    fluents: frozenset
    actions: tuple[GroundAction, ...]
    init: State
    goal: GoalFormula
    budget: Optional[int] = None

    def __post_init__(self):
        if not self.init <= self.fluents:
            missing = sorted(str(f) for f in self.init - self.fluents)
            raise ValueError(f"init fluents outside the universe: {missing}")
        for a in self.actions:
            if not a.fluents() <= self.fluents:
                raise ValueError(f"action {a.name} uses fluents outside the universe")
        if not self.goal.fluents() <= self.fluents:
            raise ValueError("goal uses fluents outside the universe")
        names = [a.name for a in self.actions]
        if len(set(names)) != len(names):
            raise ValueError("action names must be unique")
        if self.budget is not None and self.budget < 1:
            raise ValueError(f"budget must be positive, got {self.budget}")

    def action(self, name: str) -> GroundAction:
        for a in self.actions:
            if a.name == name:
                return a
        raise KeyError(name)


PlanAction = Union[GroundAction, str]  # search-backend plans hold bare labels


@dataclass(frozen=True)
class Plan:
    """An ordered action sequence. Equality is exact sequence equality."""

    actions: tuple = ()

    def __len__(self) -> int:
        return len(self.actions)

    def __iter__(self) -> Iterator:
        return iter(self.actions)

    def __getitem__(self, i):
        return self.actions[i]

    def labels(self) -> tuple[str, ...]:
        return tuple(str(a) for a in self.actions)


@dataclass(frozen=True)
class PlanTrace:
    """A plan together with the state sequence it induces (states[0] = init).

    Simulator-backed traces additionally carry one proposition valuation per
    state so temporal features can be re-evaluated without re-simulation.
    """

    plan: Plan
    states: tuple
    valuations: Optional[tuple] = None

    def __post_init__(self):
        if len(self.states) != len(self.plan) + 1:
            raise ValueError("trace must have |plan|+1 states")
        if self.valuations is not None and len(self.valuations) != len(self.states):
            raise ValueError("one valuation per state required")

    @property
    def final_state(self):
        return self.states[-1]


def applicable(state: State, action: GroundAction) -> bool:
    return action.pre_pos <= state and not (action.pre_neg & state)


def apply(state: State, action: GroundAction) -> State:
    """Successor state, or InapplicableAction if a precondition is violated."""
    if not applicable(state, action):
        raise InapplicableAction(f"action {action.name} not applicable")
    return (state - action.delete) | action.add


def plan_cost(plan: Plan) -> float:
    """Sum of action costs; bare action labels count as unit cost."""
    return sum(getattr(a, "cost", 1.0) for a in plan)


def validate_plan(problem: GroundProblem, plan: Plan) -> PlanTrace:
    """Execute the plan from init and return the full trace.

    Raises InapplicableAction (with the failing index), GoalNotSatisfied, or
    BudgetExceeded when the plan is longer than the problem's budget.
    """
    if problem.budget is not None and len(plan) > problem.budget:
        raise BudgetExceeded(
            f"plan length {len(plan)} exceeds budget {problem.budget}"
        )
    states = [problem.init]
    for i, action in enumerate(plan):
        if not applicable(states[-1], action):
            raise InapplicableAction(
                f"step {i}: action {action.name} not applicable", index=i
            )
        states.append(apply(states[-1], action))
    if not problem.goal.satisfied_by(states[-1]):
        raise GoalNotSatisfied("final state does not satisfy the goal")
    return PlanTrace(plan=plan, states=tuple(states))


def enumerate_plans(problem: GroundProblem, max_len: int) -> list[Plan]:
    """All valid plans of length <= max_len, in deterministic order.

    Brute force over action sequences; intended as the test oracle at desk
    scale (max_len <= 8 for the bundled instances). Plans are ordered by
    length, then lexicographically by action position in problem.actions.
    """
    limit = max_len
    if problem.budget is not None:
        limit = min(limit, problem.budget)
    found: list[Plan] = []

    def extend(prefix: list[GroundAction], state: State) -> None:
        if problem.goal.satisfied_by(state):
            found.append(Plan(tuple(prefix)))
        if len(prefix) == limit:
            return
        for action in problem.actions:
            if applicable(state, action):
                prefix.append(action)
                extend(prefix, apply(state, action))
                prefix.pop()

    extend([], problem.init)
    found.sort(key=lambda p: (len(p), [problem.actions.index(a) for a in p]))
    return found


# -- JSON ground-problem format ----------------------------------------------
#
# {"fluents": ["p(a,b)", ...],          optional; derived when absent
#  "actions": [{"name": ..., "pre": ["p(a)", "!q(b)"],
#               "add": [...], "del": [...], "cost": 1}, ...],
#  "init": ["p(a)", ...],
#  "goal": [["p(a)", "!q(b)"], ...],    DNF, one inner list per disjunct
#  "budget": 10}                        optional


def _parse_signed(text: str) -> Literal:
    text = text.strip()
    if text.startswith("!"):
        return Fluent.parse(text[1:]), False
    return Fluent.parse(text), True


def problem_from_json(doc: dict) -> GroundProblem:
    actions = []
    for entry in doc["actions"]:
        pre = [_parse_signed(s) for s in entry.get("pre", [])]
        actions.append(
            GroundAction(
                name=entry["name"],
                pre_pos=frozenset(f for f, pos in pre if pos),
                pre_neg=frozenset(f for f, pos in pre if not pos),
                add=frozenset(Fluent.parse(s) for s in entry.get("add", [])),
                delete=frozenset(Fluent.parse(s) for s in entry.get("del", [])),
                cost=entry.get("cost", 1.0),
            )
        )
    init = frozenset(Fluent.parse(s) for s in doc["init"])
    goal = GoalFormula(
        tuple(
            tuple(_parse_signed(s) for s in disjunct)
            for disjunct in doc["goal"]
        )
    )
    declared = frozenset(Fluent.parse(s) for s in doc.get("fluents", []))
    universe = declared | init | goal.fluents()
    for a in actions:
        universe |= a.fluents()
    return GroundProblem(
        fluents=universe,
        actions=tuple(actions),
        init=init,
        goal=goal,
        budget=doc.get("budget"),
    )


def load_problem(path: str) -> GroundProblem:
    with open(path) as fh:
        return problem_from_json(json.load(fh))

