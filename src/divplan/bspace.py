"""Behaviour spaces: plan features, behaviour extraction, diversity counting.

A feature pairs a finite value domain with an extractor (trace -> value) and
a characterising expression per value: either a truth assignment over the
grounded goal fluents, or a finite-trace temporal formula. A behaviour space
is an ordered feature list; a plan's behaviour is the tuple of its feature
values, and the diversity count of a plan set is the number of distinct
behaviours in it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import prod
from typing import Callable, Iterator, Optional, Sequence

from .core import GroundProblem, PlanTrace, _field
from .ltl import (
    Always,
    And,
    Atom,
    Eventually,
    LtlFormula,
    Not,
    eval_finite,
    parse_formula,
)

CELL_CAP = 1_000_000  # enumerate_cells refuses larger spaces
HORIZON_VALUE = "l-reached"  # score undefined when the step budget ran out


class BspaceError(Exception):
    pass


class ExtractorRangeError(BspaceError):
    """An extractor produced a value outside its feature's domain."""


class SpaceTooLarge(BspaceError):
    pass


class SpaceConfigError(BspaceError):
    pass


# -- value domains ---------------------------------------------------------------


@dataclass(frozen=True)
class ExplicitDomain:
    """A small, explicitly listed value domain."""

    values: tuple

    def __post_init__(self):
        if not self.values:
            raise ValueError("feature domain must be non-empty")
        if len(set(self.values)) != len(self.values):
            raise ValueError("feature domain has duplicate values")

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self) -> Iterator:
        return iter(self.values)

    def __contains__(self, value) -> bool:
        return value in self.values


@dataclass(frozen=True)
class SubsetDomain:
    """All subsets of a fluent base, held symbolically (2^n values).

    Iteration is lazy, in binary-counter order over the sorted base, so the
    full power set is never materialised unless a caller walks it.
    """

    base: tuple

    def __post_init__(self):
        if not self.base:
            raise ValueError("subset domain needs a non-empty base")
        object.__setattr__(self, "base", tuple(sorted(self.base)))

    def __len__(self) -> int:
        return 2 ** len(self.base)

    def __iter__(self) -> Iterator:
        n = len(self.base)
        for mask in range(2**n):
            yield frozenset(self.base[i] for i in range(n) if mask >> i & 1)

    def __contains__(self, value) -> bool:
        try:
            return frozenset(value) <= frozenset(self.base)
        except TypeError:
            return False


# -- feature expressions (the characterising formula of each value) ---------------


@dataclass(frozen=True)
class GoalAssignment:
    """Values are goal-fluent subsets; each is characterised by the truth
    assignment mapping exactly the subset's fluents to true."""

    goal_fluents: tuple

    def assignment_for(self, value) -> dict:
        subset = frozenset(value)
        if not subset <= frozenset(self.goal_fluents):
            raise ExtractorRangeError(f"{sorted(map(str, subset))} not over the goal fluents")
        return {f: f in subset for f in self.goal_fluents}


@dataclass(frozen=True)
class TemporalFormula:
    """Values are characterised by finite-trace temporal formulas."""

    formulas: tuple  # ((value, LtlFormula), ...)

    def formula_for(self, value) -> LtlFormula:
        for v, f in self.formulas:
            if v == value:
                return f
        raise KeyError(value)


FeatureExpression = object  # GoalAssignment | TemporalFormula


@dataclass(frozen=True)
class Feature:
    """One behaviour dimension: value domain, extractor, expression.

    The extractor must be a pure function of the trace and always return a
    domain value; pbehaviour enforces the range check at extraction time.
    """

    name: str
    domain: object  # ExplicitDomain | SubsetDomain
    extractor: Callable[[PlanTrace], object]
    expression: FeatureExpression

    def __post_init__(self):
        if len(self.domain) == 0:
            raise ValueError(f"feature {self.name!r} has an empty domain")


@dataclass(frozen=True)
class BehaviourSpace:
    features: tuple

    def __post_init__(self):
        names = [f.name for f in self.features]
        if not names:
            raise ValueError("behaviour space needs at least one feature")
        if len(set(names)) != len(names):
            raise ValueError("feature names must be unique")

    @property
    def size(self) -> int:
        return prod(len(f.domain) for f in self.features)


@dataclass(frozen=True)
class Behaviour:
    """A cell of the behaviour space: one value per feature, in order."""

    values: tuple

    def __iter__(self):
        return iter(self.values)

    def __len__(self):
        return len(self.values)


def pbehaviour(space: BehaviourSpace, trace: PlanTrace) -> Behaviour:
    """Extract the trace's behaviour, one feature at a time."""
    values = []
    for feature in space.features:
        value = feature.extractor(trace)
        if value not in feature.domain:
            raise ExtractorRangeError(
                f"feature {feature.name!r} produced {value!r}, outside its domain"
            )
        values.append(value)
    return Behaviour(tuple(values))


def enumerate_cells(space: BehaviourSpace) -> Iterator[Behaviour]:
    """Every cell exactly once, in feature-major deterministic order."""
    if space.size > CELL_CAP:
        raise SpaceTooLarge(f"{space.size} cells exceed the cap of {CELL_CAP}")
    return map(Behaviour, product(*(f.domain for f in space.features)))


# -- the two case-study feature constructors ---------------------------------------


def goal_endings_feature(problem: GroundProblem, name: str = "possible-endings") -> Feature:
    """Which grounded goal fluents hold in the final state.

    The domain is the full power set of the goal fluents, held symbolically.
    Any valid trace's value, read as a truth assignment, satisfies the goal.
    """
    if problem.goal.is_trivial():
        raise ValueError("goal-endings feature needs a non-trivial goal")
    base = tuple(sorted(problem.goal.fluents()))

    def extract(trace: PlanTrace):
        return frozenset(f for f in base if f in trace.final_state)

    return Feature(
        name=name,
        domain=SubsetDomain(base),
        extractor=extract,
        expression=GoalAssignment(base),
    )


@dataclass(frozen=True)
class Bin:
    label: str
    lower: float
    upper: float


# the one bin table: the first bin is closed at 0, the rest are half-open (lower, upper]
DEFAULT_BINS = (
    Bin("VL", 0, 20),
    Bin("L", 20, 30),
    Bin("M", 30, 50),
    Bin("H", 50, 70),
    Bin("VH", 70, 90),
    Bin("ID", 90, 100),
)


def bin_label(bins: Sequence[Bin], score: float) -> str:
    if score == bins[0].lower:  # only the first bin is closed on the left
        return bins[0].label
    for b in bins:
        if b.lower < score <= b.upper:
            return b.label
    raise ExtractorRangeError(f"score {score} outside [0, 100]")


def categorical_score_feature(
    name: str,
    score_fn: Callable[[PlanTrace], Optional[float]],
    atom_suffix: str,
) -> Feature:
    """Bin a 0-100 trace score into the DEFAULT_BINS labels.

    score_fn may return None to mean "still undefined when the step budget
    ran out", which maps to the reserved horizon value. Each bin label is
    characterised by the temporal formula FG(label atom), the atom being
    "<label>_<atom_suffix>": the trace settles in that bin; the horizon
    value by FG of the horizon atom with every bin atom false.
    """
    labels = tuple(b.label for b in DEFAULT_BINS)

    def extract(trace: PlanTrace):
        score = score_fn(trace)
        if score is None:
            return HORIZON_VALUE
        return bin_label(DEFAULT_BINS, score)

    def settles(inner: LtlFormula) -> LtlFormula:
        return Eventually(Always(inner))

    formulas = []
    for label in labels:
        formulas.append((label, settles(Atom(f"{label}_{atom_suffix}"))))
    horizon_body: LtlFormula = Atom(HORIZON_VALUE)
    for label in labels:
        horizon_body = And(horizon_body, Not(Atom(f"{label}_{atom_suffix}")))
    formulas.append((HORIZON_VALUE, settles(horizon_body)))

    return Feature(
        name=name,
        domain=ExplicitDomain(labels + (HORIZON_VALUE,)),
        extractor=extract,
        expression=TemporalFormula(tuple(formulas)),
    )


def ltl_feature(name: str, values: Sequence[tuple]) -> Feature:
    """A feature defined directly by (value, formula) pairs.

    The extractor returns the first value whose formula holds on the trace's
    valuations; traces matching no formula are an extractor error. A value's
    search formula is its formula and no earlier value's, so where formulas
    overlap, a search for a value finds only traces extraction files under it.
    """
    pairs = tuple((v, f) for v, f in values)
    searched = []
    for i, (value, formula) in enumerate(pairs):
        for _, earlier in pairs[:i]:
            formula = And(formula, Not(earlier))
        searched.append((value, formula))

    def extract(trace: PlanTrace):
        if trace.valuations is None:
            raise ExtractorRangeError(
                f"feature {name!r} needs a trace with proposition valuations"
            )
        for value, formula in pairs:
            if eval_finite(formula, trace.valuations):
                return value
        raise ExtractorRangeError(f"feature {name!r}: no value's formula holds")

    return Feature(
        name=name,
        domain=ExplicitDomain(tuple(v for v, _ in pairs)),
        extractor=extract,
        expression=TemporalFormula(tuple(searched)),
    )


# -- JSON configuration -------------------------------------------------------------


def space_from_json(doc: dict, subject=None) -> BehaviourSpace:
    """Build a space over subject from its JSON description.

    Feature kinds: "goal-endings" (subject must be a ground problem),
    "categorical-score" (its "score" key names an entry of the subject's
    `scores` registry, which fixes the bins and atoms), and "ltl"
    (self-contained value/formula pairs). A key of the wrong JSON type is a
    ValueError naming it.
    """
    scores = getattr(subject, "scores", {})
    if not isinstance(doc, dict):
        raise ValueError("a space must be a JSON object")
    features = []
    for i, entry in enumerate(_field(doc, "features", "a list of objects", [])):
        where = f"features[{i}]."
        kind = entry.get("kind")
        if kind == "goal-endings":
            if not isinstance(subject, GroundProblem):
                raise SpaceConfigError("goal-endings feature needs a ground problem")
            name = _field(entry, "name", "a string", "possible-endings", where)
            features.append(goal_endings_feature(subject, name))
        elif kind == "categorical-score":
            for key in ("bins", "suffix"):
                if key in entry:
                    raise SpaceConfigError(
                        f"key {where + key!r} is not accepted: "
                        "the score fixes its bins and atoms"
                    )
            score = _field(entry, "score", "a string", where=where)
            if score not in scores:
                raise SpaceConfigError(f"unknown score function {score!r}")
            name = _field(entry, "name", "a string", where=where)
            features.append(scores[score](name))
        elif kind == "ltl":
            values = []
            items = _field(entry, "values", "a list of objects", [], where)
            for j, item in enumerate(items):
                at = f"{where}values[{j}]."
                value = _field(item, "value", "a string", where=at)
                formula = _field(item, "formula", "a string", where=at)
                values.append((value, parse_formula(formula)))
            if not values:
                raise SpaceConfigError("ltl feature needs at least one value")
            name = _field(entry, "name", "a string", where=where)
            features.append(ltl_feature(name, values))
        else:
            raise SpaceConfigError(f"unknown feature kind {kind!r}")
    return BehaviourSpace(tuple(features))


# -- serialisation helpers (reports need plain data) ---------------------------------


def value_to_json(value):
    """A feature value as report data: a sorted label list for a fluent set,
    otherwise its string form."""
    if isinstance(value, frozenset):
        return sorted(str(f) for f in value)
    return str(value)


def format_behaviour(values) -> str:
    """A report behaviour (value_to_json values) as "<a | {b, c}>"."""
    parts = []
    for value in values:
        if isinstance(value, list):
            parts.append("{" + ", ".join(value) + "}")
        else:
            parts.append(str(value))
    return "<" + " | ".join(parts) + ">"
