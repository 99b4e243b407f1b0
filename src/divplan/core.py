"""Grounded STRIPS planning model.

States are closed-world sets of fluents, each a ground atom held as the
tuple ``(name, args)``. Actions are tuples too: a name, positive and
negative preconditions, and add and delete effects. Goals are stored in DNF
(a disjunction of literal conjunctions), which keeps goal checks and SAT
goal clauses uniform.
"""

from __future__ import annotations

import json
import re
import weakref
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Optional


class PlanningError(Exception):
    """Base class for planning-model and plan-validation failures."""


class ProblemFormatError(PlanningError):
    """A ground-problem JSON file that does not describe a problem."""


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


# an ASCII name, as a non-ASCII letter can lowercase to a mark it cannot hold
_FLUENT_RE = re.compile(r"^\s*([a-zA-Z_][a-zA-Z0-9_-]*)\s*(?:\(\s*([^()]*?)\s*\))?\s*$")


class _FluentFields(NamedTuple):
    name: str
    args: tuple[str, ...] = ()


class Fluent(_FluentFields):
    """A ground atom in canonical form: lowercased name and argument tuple.

    A Fluent is the plain tuple ``(name, args)``: it equals that tuple, and
    hashes and sorts as it does, so sets of fluents hash and compare in C.
    """

    __slots__ = ()

    def __new__(cls, name: str, args: Iterable[str] = ()):
        return tuple.__new__(cls, (name.lower(), tuple(a.lower() for a in args)))

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
        args = args.split(",")
        if any(len(a.split()) != 1 for a in args):
            raise ValueError(f"not a fluent: {text!r} has an empty or spaced argument")
        return cls(name, tuple(a.strip() for a in args))


State = frozenset  # frozenset[Fluent]; everything absent is false


class _GroundActionFields(NamedTuple):
    name: str
    pre_pos: frozenset = frozenset()
    pre_neg: frozenset = frozenset()
    add: frozenset = frozenset()
    delete: frozenset = frozenset()


class GroundAction(_GroundActionFields):
    """A named action whose add and delete effects never overlap. It is the
    plain tuple of its five fields: it equals that tuple and hashes as it
    does, as the frozen dataclass it replaced did, so sets of actions, and
    the grounder's checks of them, run in C."""

    __slots__ = ()

    def __new__(cls, name: str, pre_pos=frozenset(), pre_neg=frozenset(),
                add=frozenset(), delete=frozenset()):
        if add & delete:
            raise ValueError(f"action {name}: add and delete effects overlap")
        return tuple.__new__(cls, (name, pre_pos, pre_neg, add, delete))

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
        used = frozenset().union(*[part for a in self.actions for part in a[1:]])
        if not used <= self.fluents:
            bad = next(a for a in self.actions if not a.fluents() <= self.fluents)
            raise ValueError(f"action {bad.name} uses fluents outside the universe")
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


def record_of(records: dict, obj, make):
    """The record kept in records for this very object, made on first use.

    Keyed by identity, not equality: an equal copy of obj has a record of
    its own. The entry leaves records when obj dies, so a record must never
    hold obj. An object without weak references gets a fresh record that
    only the current call sees.
    """
    key = id(obj)
    record = records.get(key)
    if record is None:
        record = make()
        try:
            weakref.finalize(obj, records.pop, key, None)
        except TypeError:
            return record
        records[key] = record
    return record


# -- JSON ground-problem format ----------------------------------------------
#
# {"fluents": ["p(a,b)", ...],          optional; derived when absent
#  "actions": [{"name": ..., "pre": ["p(a)", "!q(b)"],
#               "add": [...], "del": [...]}, ...],
#  "init": ["p(a)", ...],
#  "goal": [["p(a)", "!q(b)"], ...],    DNF, one inner list per disjunct
#  "budget": 10}                        optional


def _parse_signed(text: str) -> Literal:
    text = text.strip()
    if text.startswith("!"):
        return Fluent.parse(text[1:]), False
    return Fluent.parse(text), True


def _list_of(check):
    return lambda v: isinstance(v, list) and all(map(check, v))


def _is_str(value) -> bool:
    return isinstance(value, str)


# the JSON type each key must hold, keyed by its wording in error messages
_SHAPES = {
    "a string": _is_str,
    "a list of strings": _list_of(_is_str),
    "a list of lists of strings": _list_of(_list_of(_is_str)),
    "a list of objects": _list_of(lambda v: isinstance(v, dict)),
    "an integer or null": lambda v: v is None or type(v) is int,  # not bool
}
_REQUIRED = object()


def _field(doc: dict, key: str, shape: str, default=_REQUIRED, where: str = ""):
    """doc[key], or default when the key is absent, checked against its JSON
    type; a missing required key is a KeyError, a wrong type a ValueError."""
    value = doc[key] if default is _REQUIRED else doc.get(key, default)
    if not _SHAPES[shape](value):
        raise ValueError(f"key {where + key!r} must be {shape}")
    return value


def problem_from_json(doc: dict) -> GroundProblem:
    if not isinstance(doc, dict):
        raise ValueError("a problem must be a JSON object")
    strings = "a list of strings"
    actions = []
    for i, entry in enumerate(_field(doc, "actions", "a list of objects")):
        where = f"actions[{i}]."
        pre = [_parse_signed(s) for s in _field(entry, "pre", strings, [], where)]
        actions.append(
            GroundAction(
                name=_field(entry, "name", "a string", where=where),
                pre_pos=frozenset(f for f, pos in pre if pos),
                pre_neg=frozenset(f for f, pos in pre if not pos),
                add=frozenset(
                    Fluent.parse(s) for s in _field(entry, "add", strings, [], where)
                ),
                delete=frozenset(
                    Fluent.parse(s) for s in _field(entry, "del", strings, [], where)
                ),
            )
        )
    init = frozenset(Fluent.parse(s) for s in _field(doc, "init", strings))
    goal = GoalFormula(
        tuple(
            tuple(_parse_signed(s) for s in disjunct)
            for disjunct in _field(doc, "goal", "a list of lists of strings")
        )
    )
    declared = frozenset(Fluent.parse(s) for s in _field(doc, "fluents", strings, []))
    universe = declared | init | goal.fluents()
    for a in actions:
        universe |= a.fluents()
    return GroundProblem(
        fluents=universe,
        actions=tuple(actions),
        init=init,
        goal=goal,
        budget=_field(doc, "budget", "an integer or null", None),
    )


def read_json(path: str, error: type):
    """The document in a JSON file. Bad syntax, bytes that are not UTF-8 and
    nesting too deep to decode are one error(...) that names the file."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as exc:
            raise error(f"{path}: {exc}") from exc


def load_problem(path: str) -> GroundProblem:
    """problem_from_json over a file; a malformed file is a
    ProblemFormatError that names it."""
    doc = read_json(path, ProblemFormatError)
    try:
        return problem_from_json(doc)
    except KeyError as exc:
        raise ProblemFormatError(f"{path}: missing key {exc}") from exc
    except ValueError as exc:  # a key of the wrong type, or a model check
        raise ProblemFormatError(f"{path}: {exc}") from exc

