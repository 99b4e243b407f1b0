"""A land-use grid that evolves under per-type conversion actions.

Cells carry one of five land uses (or are empty); each action applies one
type's conversion rule, rewriting a fixed fraction of that type's cells into
other uses. Two 0-100 scores summarise a grid: sustainability (share of
green/commercial/facility land) and diversity (normalised Shannon entropy of
the five use proportions). Planning is over a fixed action budget; every
plan runs the full budget and is judged by where the scores settle.

A grid is a `NamedTuple`, so the search hashes and compares it in C. Both
scores read only the land-use mix (five counts), which the grid carries: a
step reads the source count from it, finds only the few cells it rewrites
and moves those counts, and the simulator keys valuations by the mix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from importlib.resources import files
from typing import NamedTuple

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


class EmptyGrid(Exception):
    """A score was requested for a grid with no used cells."""


class _GridFields(NamedTuple):
    width: int
    height: int
    cells: tuple  # row-major, one CELL_CODES letter per cell
    counter: int
    mix: tuple  # the count of each land use, in LAND_USES order


class UrbanGrid(_GridFields):
    """A grid from input: `UrbanGrid(width, height, cells[, counter])`
    stores the cells as a tuple, checks its shape, cell codes and counter,
    and counts its land-use `mix`, so `len(grid)` is 5 and the repr shows
    the mix. `mix` is a function of `cells`, so equality stays exact."""

    __slots__ = ()

    def __new__(cls, width: int, height: int, cells, counter: int = 0):
        if width < 1 or height < 1:
            raise ValueError("grid dimensions must be positive")
        cells = tuple(cells)
        if len(cells) != width * height:
            raise ValueError(f"expected {width * height} cells, got {len(cells)}")
        mix = tuple(map(cells.count, LAND_USES))
        if sum(mix) + cells.count(EMPTY) != len(cells):
            bad = sorted({c for c in cells if c not in CELL_CODES})
            raise ValueError(f"unknown cell codes: {bad}")
        if counter < 0:
            raise ValueError("step counter cannot be negative")
        return _new_grid(cls, (width, height, cells, counter, mix))

    @classmethod
    def _make(cls, fields) -> UrbanGrid:
        """A checked grid from all five fields; a `mix` that is not the
        count of `cells` raises ValueError."""
        width, height, cells, counter, mix = fields
        grid = cls(width, height, cells, counter)
        if tuple(mix) != grid.mix:
            raise ValueError(f"mix {tuple(mix)} does not count the cells {grid.mix}")
        return grid

    def _replace(self, **changes) -> UrbanGrid:
        """A checked grid with these fields changed; the mix follows the
        cells, so changing `mix` itself is a TypeError."""
        width, height, cells, counter, _ = self
        fields = dict(width=width, height=height, cells=cells, counter=counter)
        return type(self)(**{**fields, **changes})

    def __getnewargs__(self) -> tuple:
        # copy and pickle rebuild a grid through the checked constructor
        return self[:4]

    def count(self, code: str) -> int:
        return self.cells.count(code)


_new_grid = tuple.__new__  # a grid without the checks of UrbanGrid.__new__


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
# action -> (source, its mix slot, ((target, its mix slot), ...))
_STEPS = {
    rule.action: (
        rule.source,
        LAND_USES.index(rule.source),
        tuple((target, LAND_USES.index(target)) for target in rule.targets),
    )
    for rule in RULES
}
ACTIONS = tuple(_STEPS)  # in RULES order

DEFAULT_BUDGET = 10

# a valuation's atoms: the sustainability bins, the diversity bins, the budget marker
ATOMS = tuple(f"{b.label}_{f}" for f in "SD" for b in DEFAULT_BINS) + (HORIZON_VALUE,)


# -- scores --------------------------------------------------------------------


def mix_scores(mix: tuple) -> tuple:
    """(sustainability, diversity) of a land-use mix, each 0-100.

    Sustainability is the share of used land that is green, commercial or
    facility. Diversity is the normalised Shannon entropy of the use
    proportions over used cells, 100 at the even split across all five.
    """
    used = sum(mix)
    if used == 0:
        raise EmptyGrid("scores are undefined on an all-empty grid")
    good = sum(n for code, n in zip(LAND_USES, mix) if code in SUSTAINABLE)
    entropy = 0.0
    for count in mix:
        p = count / used
        if p > 0:
            entropy -= p * math.log(p)
    # an exact even split can round to 100.00000000000001, past the top bin
    return 100.0 * good / used, min(100.0, 100.0 * entropy / math.log(len(LAND_USES)))


def sustainability_score(grid: UrbanGrid) -> float:
    return mix_scores(grid.mix)[0]


def diversity_score(grid: UrbanGrid) -> float:
    return mix_scores(grid.mix)[1]


# -- dynamics ------------------------------------------------------------------


def urban_step(grid: UrbanGrid, action: str) -> UrbanGrid:
    """Apply one conversion action; a step is consumed even when no source
    cells exist (the action is legal but vacuous)."""
    try:
        source, slot, targets = _STEPS[action]
    except KeyError:
        raise ValueError(
            f"unknown action {action!r}; expected one of {sorted(_STEPS)}"
        ) from None
    cells, mix = grid.cells, grid.mix
    found = mix[slot]
    if found:
        affected = math.ceil(CONVERSION_FRACTION * found)
        share, remainder = divmod(affected, len(targets))
        rewritten, counts = list(cells), list(mix)
        counts[slot] -= affected
        quota, i = share + remainder, -1  # the remainder goes to the first target
        for target, target_slot in targets:
            counts[target_slot] += quota
            for _ in range(quota):
                i = cells.index(source, i + 1)
                rewritten[i] = target
            quota = share
        cells, mix = tuple(rewritten), tuple(counts)
    # a rule keeps the shape, writes only land-use codes and moves the
    # counts it rewrites, so the successor skips the checks (and the
    # recount) `UrbanGrid.__new__` makes of grids that come from input
    return _new_grid(UrbanGrid, (grid.width, grid.height, cells, grid.counter + 1, mix))


def _mix_valuation(mix: tuple, reached: bool) -> dict:
    sustainability, diversity = mix_scores(mix)
    valuation = dict.fromkeys(ATOMS, False)
    valuation[f"{bin_label(sustainability)}_S"] = True
    valuation[f"{bin_label(diversity)}_D"] = True
    valuation[HORIZON_VALUE] = reached
    return valuation


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

    Actions come from `_STEPS`, the table `urban_step` reads, so `rules`
    configures nothing. Goal states are exactly those at the step budget, so
    every plan runs the full budget. Propositions expose one
    sustainability-bin atom, one diversity-bin atom, and the budget marker.
    """

    rules = RULES
    scores = SCORES

    def __init__(self, grid0: UrbanGrid, budget: int = DEFAULT_BUDGET):
        if budget < 1:
            raise ValueError("budget must be positive")
        self.grid0 = grid0
        self.budget = budget
        # over a module function, so the simulator is not in a reference
        # cycle; per simulator, so each request starts from a cold memo
        self._valuation = lru_cache(maxsize=None)(_mix_valuation)

    def initial(self) -> UrbanGrid:
        return self.grid0

    def legal_actions(self, grid: UrbanGrid):
        return () if grid.counter >= self.budget else ACTIONS

    def step(self, grid: UrbanGrid, action: str) -> UrbanGrid:
        return urban_step(grid, action)

    def propositions(self, grid: UrbanGrid) -> dict:
        """The grid's valuation, a dict shared with every caller and with
        grids of the same land-use mix: read it, never mutate it."""
        return self._valuation(grid.mix, grid.counter >= self.budget)

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
