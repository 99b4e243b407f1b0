"""A land-use grid that evolves under per-type conversion actions.

Cells carry one of five land uses (or are empty); each action applies one
type's conversion rule, rewriting a fixed fraction of that type's cells into
other uses. Two 0-100 scores summarise a grid: sustainability (share of
green/commercial/facility land) and diversity (normalised Shannon entropy of
the five use proportions). Planning is over a fixed action budget; every
plan runs the full budget and is judged by where the scores settle.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from functools import lru_cache
from importlib.resources import files
from typing import Optional, Sequence

from ..bspace import (
    DEFAULT_BINS,
    BehaviourSpace,
    bin_label,
    categorical_score_feature,
)
from ..core import PlanTrace

RESIDENTIAL = "R"
OFFICE = "O"
GREEN = "G"
COMMERCIAL = "C"
FACILITY = "F"
EMPTY = "E"

LAND_USES = (RESIDENTIAL, OFFICE, GREEN, COMMERCIAL, FACILITY)
CELL_CODES = LAND_USES + (EMPTY,)
SUSTAINABLE = frozenset({GREEN, COMMERCIAL, FACILITY})

LAND_USE_NAMES = {
    RESIDENTIAL: "residential",
    OFFICE: "office",
    GREEN: "green",
    COMMERCIAL: "commercial",
    FACILITY: "facility",
    EMPTY: "empty",
}


class UrbanError(Exception):
    pass


class EmptyGrid(UrbanError):
    """A score was requested for a grid with no used cells."""


@dataclass(frozen=True)
class UrbanGrid:
    width: int
    height: int
    cells: tuple  # row-major, one CELL_CODES letter per cell
    counter: int = 0

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise ValueError("grid dimensions must be positive")
        if len(self.cells) != self.width * self.height:
            raise ValueError(
                f"expected {self.width * self.height} cells, got {len(self.cells)}"
            )
        bad = sorted({c for c in self.cells if c not in CELL_CODES})
        if bad:
            raise ValueError(f"unknown cell codes: {bad}")
        if self.counter < 0:
            raise ValueError("step counter cannot be negative")

    def count(self, code: str) -> int:
        return self.cells.count(code)

    @property
    def used(self) -> int:
        return len(self.cells) - self.count(EMPTY)


@dataclass(frozen=True)
class ConversionRule:
    """Rewrite a fraction of one land use into others.

    ceil(fraction * count(source)) cells are affected, taken row-major from
    the top of the grid; they are split evenly over the targets with any
    remainder going to the first-listed target.
    """

    source: str
    targets: tuple
    fraction: float = 0.05

    def __post_init__(self):
        if self.source not in LAND_USES:
            raise ValueError(f"unknown source land use {self.source!r}")
        if not self.targets or any(t not in LAND_USES for t in self.targets):
            raise ValueError(f"bad conversion targets {self.targets!r}")
        if not 0 < self.fraction <= 1:
            raise ValueError("fraction must be in (0, 1]")

    @property
    def action(self) -> str:
        return f"convert-{LAND_USE_NAMES[self.source]}"


# The green-space rule is the canonical one; the other four follow its 5%,
# two-target pattern (see the project notes on reconstructed rules).
DEFAULT_RULES = (
    ConversionRule(GREEN, (COMMERCIAL, FACILITY)),
    ConversionRule(RESIDENTIAL, (COMMERCIAL, OFFICE)),
    ConversionRule(OFFICE, (GREEN, RESIDENTIAL)),
    ConversionRule(COMMERCIAL, (RESIDENTIAL, OFFICE)),
    ConversionRule(FACILITY, (OFFICE, GREEN)),
)

DEFAULT_BUDGET = 10


# -- scores --------------------------------------------------------------------


def sustainability_score(grid: UrbanGrid) -> float:
    """Share of used land that is green, commercial, or facility, 0-100."""
    used = grid.used
    if used == 0:
        raise EmptyGrid("sustainability is undefined on an all-empty grid")
    good = sum(grid.count(code) for code in sorted(SUSTAINABLE))
    return 100.0 * good / used


def diversity_score(grid: UrbanGrid) -> float:
    """Normalised Shannon entropy of the land-use mix, 0-100.

    Proportions are taken over used cells only; the maximum (100) is the
    even split across all five land uses.
    """
    used = grid.used
    if used == 0:
        raise EmptyGrid("diversity is undefined on an all-empty grid")
    entropy = 0.0
    for code in LAND_USES:
        p = grid.count(code) / used
        if p > 0:
            entropy -= p * math.log(p)
    # an exact even split can round to 100.00000000000001, past the top bin
    return min(100.0, 100.0 * entropy / math.log(len(LAND_USES)))


# -- dynamics ------------------------------------------------------------------


def urban_step(grid: UrbanGrid, action: str, rules: Sequence[ConversionRule] = DEFAULT_RULES) -> UrbanGrid:
    """Apply one conversion action; a step is consumed even when no source
    cells exist (the action is legal but vacuous)."""
    by_action = {rule.action: rule for rule in rules}
    if action not in by_action:
        raise ValueError(f"unknown action {action!r}; expected one of {sorted(by_action)}")
    rule = by_action[action]
    indices = [i for i, c in enumerate(grid.cells) if c == rule.source]
    if not indices:
        return replace(grid, counter=grid.counter + 1)
    affected = indices[: math.ceil(rule.fraction * len(indices))]
    share, remainder = divmod(len(affected), len(rule.targets))
    quotas = [share] * len(rule.targets)
    quotas[0] += remainder
    cells = list(grid.cells)
    cursor = 0
    for target, quota in zip(rule.targets, quotas):
        for i in affected[cursor : cursor + quota]:
            cells[i] = target
        cursor += quota
    return replace(grid, cells=tuple(cells), counter=grid.counter + 1)


class UrbanSimulator:
    """Search interface over grids: states are grids, actions are rules.

    Goal states are exactly those at the step budget, so every plan runs the
    full budget. Propositions expose one sustainability-bin atom, one
    diversity-bin atom, and the budget marker.
    """

    def __init__(
        self,
        grid0: UrbanGrid,
        rules: Sequence[ConversionRule] = DEFAULT_RULES,
        budget: int = DEFAULT_BUDGET,
    ):
        if budget < 1:
            raise ValueError("budget must be positive")
        self.grid0 = grid0
        self.rules = tuple(rules)
        self.budget = budget
        self.alphabet = tuple(
            f"{b.label}_S" for b in DEFAULT_BINS
        ) + tuple(f"{b.label}_D" for b in DEFAULT_BINS) + ("l-reached",)
        self._step = lru_cache(maxsize=None)(self._step_uncached)
        self._bins = lru_cache(maxsize=None)(self._bins_uncached)

    def initial(self) -> UrbanGrid:
        return self.grid0

    def legal_actions(self, grid: UrbanGrid):
        if grid.counter >= self.budget:
            return []
        return [rule.action for rule in self.rules]

    def _step_uncached(self, grid: UrbanGrid, action: str) -> UrbanGrid:
        return urban_step(grid, action, self.rules)

    def step(self, grid: UrbanGrid, action: str) -> UrbanGrid:
        return self._step(grid, action)

    def _bins_uncached(self, grid: UrbanGrid):
        return (
            bin_label(DEFAULT_BINS, sustainability_score(grid)),
            bin_label(DEFAULT_BINS, diversity_score(grid)),
        )

    def propositions(self, grid: UrbanGrid) -> dict:
        s_bin, d_bin = self._bins(grid)
        valuation = {atom: False for atom in self.alphabet}
        valuation[f"{s_bin}_S"] = True
        valuation[f"{d_bin}_D"] = True
        valuation["l-reached"] = grid.counter >= self.budget
        return valuation

    def is_goal(self, grid: UrbanGrid) -> bool:
        return grid.counter == self.budget


def urban_simulator(
    grid0: UrbanGrid,
    rules: Sequence[ConversionRule] = DEFAULT_RULES,
    budget: int = DEFAULT_BUDGET,
) -> UrbanSimulator:
    return UrbanSimulator(grid0, rules, budget)


def urban_space() -> BehaviourSpace:
    """Sustainability-bin x diversity-bin, judged on the final grid."""

    def final_grid_score(score):
        def on_trace(trace: PlanTrace) -> Optional[float]:
            return score(trace.final_state)

        return on_trace

    return BehaviourSpace(
        (
            categorical_score_feature(
                "sustainability", final_grid_score(sustainability_score), atom_suffix="S"
            ),
            categorical_score_feature(
                "diversity", final_grid_score(diversity_score), atom_suffix="D"
            ),
        )
    )


def bundled_grid() -> UrbanGrid:
    """The town map shipped with the package."""
    text = (files("divplan.domains") / "data" / "urban-grid.json").read_text()
    return grid_from_json(json.loads(text))


def urban_pack() -> tuple:
    """(simulator over the bundled grid, sustainability x diversity space)."""
    return urban_simulator(bundled_grid()), urban_space()


# -- JSON and rendering ----------------------------------------------------------


def grid_from_json(doc: dict) -> UrbanGrid:
    rows = doc["rows"]
    width, height = doc["width"], doc["height"]
    if len(rows) != height or any(len(row) != width for row in rows):
        raise ValueError("rows do not match the declared dimensions")
    return UrbanGrid(
        width=width,
        height=height,
        cells=tuple("".join(rows)),
        counter=doc.get("counter", 0),
    )


_ANSI = {
    COMMERCIAL: "\x1b[31m",  # red
    FACILITY: "\x1b[35m",  # purple
    GREEN: "\x1b[32m",  # green
    RESIDENTIAL: "\x1b[34m",  # blue
    OFFICE: "\x1b[33m",  # yellow
    EMPTY: "\x1b[90m",  # grey
}
_RESET = "\x1b[0m"


def render_grid(grid: UrbanGrid, color: bool = False) -> str:
    lines = []
    for r in range(grid.height):
        row = grid.cells[r * grid.width : (r + 1) * grid.width]
        if color:
            lines.append("".join(f"{_ANSI[c]}{c}{_RESET}" for c in row))
        else:
            lines.append("".join(row))
    return "\n".join(lines)
