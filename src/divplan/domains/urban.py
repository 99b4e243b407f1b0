"""A land-use grid that evolves under per-type conversion actions.

Cells carry one of five land uses (or are empty); each action applies one
type's conversion rule, rewriting a fixed fraction of that type's cells into
other uses. Two 0-100 scores summarise a grid: sustainability (share of
green/commercial/facility land) and diversity (normalised Shannon entropy of
the five use proportions). Planning is over a fixed action budget; every
plan runs the full budget and is judged by where the scores settle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from importlib.resources import files

from ..bspace import (
    DEFAULT_BINS,
    HORIZON_VALUE,
    BehaviourSpace,
    bin_label,
    categorical_score_feature,
    format_behaviour,
)

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


CONVERSION_FRACTION = 0.05


@dataclass(frozen=True)
class ConversionRule:
    """Rewrite CONVERSION_FRACTION of one land use into others.

    ceil(CONVERSION_FRACTION * count(source)) cells are affected, taken
    row-major from the top of the grid; they are split evenly over the
    targets with any remainder going to the first-listed target.
    """

    source: str
    targets: tuple

    @property
    def action(self) -> str:
        return f"convert-{LAND_USE_NAMES[self.source]}"


# The green-space rule is the canonical one; the other four follow its 5%,
# two-target pattern (see the project notes on reconstructed rules).
RULES = (
    ConversionRule(GREEN, (COMMERCIAL, FACILITY)),
    ConversionRule(RESIDENTIAL, (COMMERCIAL, OFFICE)),
    ConversionRule(OFFICE, (GREEN, RESIDENTIAL)),
    ConversionRule(COMMERCIAL, (RESIDENTIAL, OFFICE)),
    ConversionRule(FACILITY, (OFFICE, GREEN)),
)
_RULE_FOR_ACTION = {rule.action: rule for rule in RULES}

DEFAULT_BUDGET = 10

# a valuation's atoms: the sustainability bins, the diversity bins, the budget marker
ATOMS = tuple(f"{b.label}_{f}" for f in "SD" for b in DEFAULT_BINS) + (HORIZON_VALUE,)


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


def urban_step(grid: UrbanGrid, action: str) -> UrbanGrid:
    """Apply one conversion action; a step is consumed even when no source
    cells exist (the action is legal but vacuous)."""
    rule = _RULE_FOR_ACTION.get(action)
    if rule is None:
        raise ValueError(
            f"unknown action {action!r}; expected one of {sorted(_RULE_FOR_ACTION)}"
        )
    indices = [i for i, c in enumerate(grid.cells) if c == rule.source]
    if not indices:
        return _successor(grid, grid.cells)
    affected = indices[: math.ceil(CONVERSION_FRACTION * len(indices))]
    share, remainder = divmod(len(affected), len(rule.targets))
    quotas = [share] * len(rule.targets)
    quotas[0] += remainder
    cells = list(grid.cells)
    cursor = 0
    for target, quota in zip(rule.targets, quotas):
        for i in affected[cursor : cursor + quota]:
            cells[i] = target
        cursor += quota
    return _successor(grid, tuple(cells))


def _successor(grid: UrbanGrid, cells: tuple) -> UrbanGrid:
    """The grid after one step, holding cells. A rule keeps the shape and
    writes only land-use codes, so the successor skips the check
    `UrbanGrid.__post_init__` makes of grids that come from input."""
    succ = object.__new__(UrbanGrid)
    succ.__dict__.update(
        width=grid.width, height=grid.height, cells=cells, counter=grid.counter + 1
    )
    return succ


@lru_cache(maxsize=None)
def _valuation(s_bin: str, d_bin: str, reached: bool) -> dict:
    valuation = dict.fromkeys(ATOMS, False)
    valuation[f"{s_bin}_S"] = True
    valuation[f"{d_bin}_D"] = True
    valuation[HORIZON_VALUE] = reached
    return valuation


def _grid_valuation(grid: UrbanGrid, budget: int) -> dict:
    # grids in the same two bins on the same side of the budget share one
    # valuation dict, which keeps the memo small
    return _valuation(
        bin_label(DEFAULT_BINS, sustainability_score(grid)),
        bin_label(DEFAULT_BINS, diversity_score(grid)),
        grid.counter >= budget,
    )


def _final_grid_feature(score, atom_suffix: str):
    """name -> the categorical feature of score on a trace's final grid,
    over the bin atoms with this suffix that `propositions` assigns."""
    return lambda name: categorical_score_feature(
        name, lambda trace: score(trace.final_state), atom_suffix
    )


# Score features by name, judged on the final grid: the registry a
# categorical-score feature of a --space file names its "score" from.
SCORES = {
    "sustainability": _final_grid_feature(sustainability_score, "S"),
    "diversity": _final_grid_feature(diversity_score, "D"),
}


class UrbanSimulator:
    """Search interface over grids: states are grids, actions are rules.

    Goal states are exactly those at the step budget, so every plan runs the
    full budget. Propositions expose one sustainability-bin atom, one
    diversity-bin atom, and the budget marker.
    """

    scores = SCORES

    def __init__(self, grid0: UrbanGrid, budget: int = DEFAULT_BUDGET):
        if budget < 1:
            raise ValueError("budget must be positive")
        self.grid0 = grid0
        self.rules = RULES
        self.budget = budget
        # over a module function, so the simulator is not in a reference cycle
        self._propositions = lru_cache(maxsize=None)(_grid_valuation)

    def initial(self) -> UrbanGrid:
        return self.grid0

    def legal_actions(self, grid: UrbanGrid):
        if grid.counter >= self.budget:
            return []
        return [rule.action for rule in self.rules]

    def step(self, grid: UrbanGrid, action: str) -> UrbanGrid:
        return urban_step(grid, action)

    def propositions(self, grid: UrbanGrid) -> dict:
        """The grid's valuation, a dict shared with every caller and with
        grids in the same bins: read it, never mutate it."""
        return self._propositions(grid, self.budget)

    def is_goal(self, grid: UrbanGrid) -> bool:
        return grid.counter == self.budget


def urban_simulator(grid0: UrbanGrid, budget: int = DEFAULT_BUDGET) -> UrbanSimulator:
    return UrbanSimulator(grid0, budget)


def urban_space() -> BehaviourSpace:
    """Sustainability-bin x diversity-bin, judged on the final grid."""
    return BehaviourSpace(tuple(make(name) for name, make in SCORES.items()))


def bundled_grid() -> UrbanGrid:
    """The town map shipped with the package, one row of cell codes per line."""
    rows = (files("divplan.domains") / "data" / "urban-grid.txt").read_text().split()
    return UrbanGrid(len(rows[0]), len(rows), tuple("".join(rows)))


def urban_pack() -> tuple:
    """(simulator over the bundled grid, sustainability x diversity space)."""
    return urban_simulator(bundled_grid()), urban_space()


# -- rendering -----------------------------------------------------------------


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


def urban_view(sim: UrbanSimulator, plans, color: bool) -> list:
    """Render lines for replayed (states, behaviour) pairs: each plan's
    before/after grids and how its two scores moved."""
    legend = ", ".join(f"{code}={name}" for code, name in LAND_USE_NAMES.items())
    lines = [f"legend: {legend}", ""]
    start = sim.initial()
    before = render_grid(start, color=color).splitlines()
    for i, (states, behaviour) in enumerate(plans):
        state = states[-1]
        lines.append(
            f"plan {i} {format_behaviour(behaviour)}: {len(states) - 1} conversions"
        )
        after = render_grid(state, color=color).splitlines()
        lines.extend(f"  {b}   ->   {a}" for b, a in zip(before, after))
        lines.append(
            "  scores: sustainability "
            f"{sustainability_score(start):.1f} -> "
            f"{sustainability_score(state):.1f}, diversity "
            f"{diversity_score(start):.1f} -> {diversity_score(state):.1f}"
        )
        lines.append("")
    return lines
