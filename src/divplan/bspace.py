"""Behaviour spaces: plan features, behaviour extraction, diversity counting.

A feature pairs a finite value domain with an extractor (trace -> value) and
a characterising expression per value: either a truth assignment over the
grounded goal fluents, or a finite-trace temporal formula. A behaviour space
is an ordered feature list; a plan's behaviour is the tuple of its feature
values, and the diversity count of a plan set is the number of distinct
behaviours in it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from math import prod
from typing import Callable, Iterator, Optional, Sequence

from .core import Fluent, GroundProblem, PlanTrace
from .ltl import Always, And, Atom, Eventually, LtlFormula, Not, eval_finite, parse_formula

DEFAULT_CELL_CAP = 1_000_000
HORIZON_VALUE = "l-reached"  # score undefined when the step budget ran out


class BspaceError(Exception):
    pass


class ExtractorRangeError(BspaceError):
    """An extractor produced a value outside its feature's domain."""


class BinGap(BspaceError):
    pass


class BinOverlap(BspaceError):
    pass


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

    def feature(self, name: str) -> Feature:
        for f in self.features:
            if f.name == name:
                return f
        raise KeyError(name)


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


def bdc(space: BehaviourSpace, traces) -> int:
    """Behaviour diversity count: distinct behaviours among the traces."""
    return len({pbehaviour(space, t) for t in traces})


def enumerate_cells(
    space: BehaviourSpace, cap: int = DEFAULT_CELL_CAP
) -> Iterator[Behaviour]:
    """Every cell exactly once, in feature-major deterministic order."""
    if space.size > cap:
        raise SpaceTooLarge(f"{space.size} cells exceed the cap of {cap}")
    domains = [list(f.domain) for f in space.features]

    def rec(i: int, prefix: tuple):
        if i == len(domains):
            yield Behaviour(prefix)
            return
        for v in domains[i]:
            yield from rec(i + 1, prefix + (v,))

    return rec(0, ())


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


DEFAULT_BINS = (
    Bin("VL", 0, 20),
    Bin("L", 20, 30),
    Bin("M", 30, 50),
    Bin("H", 50, 70),
    Bin("VH", 70, 90),
    Bin("ID", 90, 100),
)


def validate_bins(bins: Sequence[Bin]) -> tuple:
    """Bins must partition [0,100]: first closed at 0, then half-open (lo, up]."""
    bins = tuple(bins)
    if not bins:
        raise BinGap("empty bin table")
    if bins[0].lower != 0:
        raise BinGap(f"first bin starts at {bins[0].lower}, not 0")
    for prev, cur in zip(bins, bins[1:]):
        if cur.lower < prev.upper:
            raise BinOverlap(f"bins {prev.label!r} and {cur.label!r} overlap")
        if cur.lower > prev.upper:
            raise BinGap(f"gap between bins {prev.label!r} and {cur.label!r}")
    if bins[-1].upper != 100:
        raise BinGap(f"last bin ends at {bins[-1].upper}, not 100")
    for b in bins:
        if b.upper <= b.lower:
            raise BinGap(f"bin {b.label!r} is empty")
    labels = [b.label for b in bins]
    if len(set(labels)) != len(labels):
        raise BinOverlap("duplicate bin labels")
    return bins


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
    bins: Sequence[Bin] = DEFAULT_BINS,
    atom_suffix: Optional[str] = None,
) -> Feature:
    """Bin a 0-100 trace score into categorical values.

    score_fn may return None to mean "still undefined when the step budget
    ran out", which maps to the reserved horizon value. Each bin label is
    characterised by the temporal formula FG(label atom): the trace settles
    in that bin; the horizon value by FG of the horizon atom with every bin
    atom false.
    """
    bins = validate_bins(bins)
    suffix = atom_suffix if atom_suffix is not None else name
    labels = tuple(b.label for b in bins)

    def extract(trace: PlanTrace):
        score = score_fn(trace)
        if score is None:
            return HORIZON_VALUE
        return bin_label(bins, score)

    def settles(inner: LtlFormula) -> LtlFormula:
        return Eventually(Always(inner))

    formulas = []
    for label in labels:
        formulas.append((label, settles(Atom(f"{label}_{suffix}"))))
    horizon_body: LtlFormula = Atom(HORIZON_VALUE)
    for label in labels:
        horizon_body = And(horizon_body, Not(Atom(f"{label}_{suffix}")))
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
    valuations; traces matching no formula are an extractor error.
    """
    pairs = tuple((v, f) for v, f in values)

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
        expression=TemporalFormula(pairs),
    )


# -- JSON configuration -------------------------------------------------------------


def bins_from_json(entries) -> tuple:
    return validate_bins(tuple(Bin(label, lo, up) for label, lo, up in entries))


def space_from_json(
    doc: dict,
    problem: Optional[GroundProblem] = None,
    scores: Optional[dict] = None,
) -> BehaviourSpace:
    """Build a space from its JSON description.

    Feature kinds: "goal-endings" (needs the ground problem), "categorical-score"
    (needs a score registry entry named by its "score" key), and "ltl"
    (self-contained value/formula pairs).
    """
    features = []
    for entry in doc.get("features", []):
        kind = entry.get("kind")
        if kind == "goal-endings":
            if problem is None:
                raise SpaceConfigError("goal-endings feature needs a ground problem")
            features.append(
                goal_endings_feature(problem, entry.get("name", "possible-endings"))
            )
        elif kind == "categorical-score":
            if not scores or entry.get("score") not in scores:
                raise SpaceConfigError(
                    f"unknown score function {entry.get('score')!r}"
                )
            bins = (
                bins_from_json(entry["bins"]) if "bins" in entry else DEFAULT_BINS
            )
            features.append(
                categorical_score_feature(
                    entry["name"],
                    scores[entry["score"]],
                    bins=bins,
                    atom_suffix=entry.get("suffix"),
                )
            )
        elif kind == "ltl":
            values = [
                (item["value"], parse_formula(item["formula"]))
                for item in entry.get("values", [])
            ]
            if not values:
                raise SpaceConfigError("ltl feature needs at least one value")
            features.append(ltl_feature(entry["name"], values))
        else:
            raise SpaceConfigError(f"unknown feature kind {kind!r}")
    return BehaviourSpace(tuple(features))


def load_space(
    path: str,
    problem: Optional[GroundProblem] = None,
    scores: Optional[dict] = None,
) -> BehaviourSpace:
    with open(path) as fh:
        return space_from_json(json.load(fh), problem=problem, scores=scores)


# -- serialisation helpers (reports need plain data) ---------------------------------


def value_to_json(value):
    """A feature value as report data: a sorted label list for a fluent set,
    otherwise its string form."""
    if isinstance(value, frozenset):
        return sorted(str(f) for f in value)
    return str(value)


def behaviour_to_json(space: BehaviourSpace, behaviour: Behaviour) -> dict:
    return {
        feature.name: value_to_json(value)
        for feature, value in zip(space.features, behaviour.values)
    }
