"""Seeded request lists for the four benchmark workloads.

A workload turns a seed into a fixed list of `Request`s. A request is plain
data (PDDL text, grid rows, level text) plus the `fbi` parameters. The
program sees it only through its public entry points: `build` parses and
grounds PDDL, or constructs a grid or level and its simulator, and
`generators` builds the same generator partials `divplan plan` builds with
its default options.

Why each workload exists, and which layer it loads:

* sat-story: the bundled aladdin problem plus full-cast variants over every
  (characters, locations) shape in {4, 5} x {2, 3}. Each shape fixes the
  ground-action count (92 to 210), so the quadratic at-most-one encoding
  and the solver's clause loading dominate, and every seed does the same
  amount of encoding work.
* sat-exhaust: three-character, one-location cuts of story-tiny (12 ground
  actions) at horizon caps 6 and 7 with k above the cell count. The run
  proves the behaviours exhausted and pads with plans, so CDCL search and
  the UNSAT-heavy exhaustion proof dominate.
* search-urban: six 6x6 land-use grids, each a fixed land-use mix in a
  seeded layout, at budget 5 with k=12. Every behaviour call searches the
  open cells one at a time, so LTL progression dominates over the cached
  simulator step.
* search-platformer: the bundled level plus random levels at k=2: hundreds
  of short requests over a two-cell space with small formulas, so the
  simulator step dominates. This is the workload that bypasses LTL and
  sweep changes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial
from importlib.resources import files
from typing import Callable, Optional

from divplan import pddl
from divplan.bspace import BehaviourSpace, goal_endings_feature
from divplan.domains import platformer, urban
from divplan.satplan import behaviour_generator_sat, plan_generator_sat
from divplan.searchplan import (
    SearchConfig,
    behaviour_generator_ltl,
    plan_generator_ltl,
)

SAT = "sat"
SEARCH = "search"

STORY_CAST = ("aladdin", "jasmine", "genie", "jafar", "dragon")
STORY_PLACES = ("castle", "market", "cave")
STORY_SHAPES = ((4, 2), (4, 3), (5, 2), (5, 3))
STORY_K = 3
STORY_HORIZONS = range(0, 21)

TINY_CAST = ("ala", "jas", "gen", "jaf", "dra", "mor")
EXHAUST_CAPS = (6, 7)
# CDCL search time on a cut swings with the order of its names, so each cap
# gets several cuts and the list averages over that luck
EXHAUST_CUTS_PER_CAP = 3
EXHAUST_K = 60

# Land-use mixes (R, O, G, C, F, E counts), one per grid of the list: six
# uniform random 6x6 grids drawn once. A grid's dynamics and scores depend
# only on its mix, so fixing the mixes makes every seed's list do the same
# search work; the seed draws where each cell sits.
URBAN_MIXES = (
    (5, 4, 9, 7, 8, 3),
    (7, 6, 4, 5, 7, 7),
    (6, 7, 7, 4, 9, 3),
    (5, 4, 6, 5, 7, 9),
    (6, 5, 6, 5, 5, 9),
    (2, 7, 6, 6, 6, 9),
)
URBAN_SIDE = 6
URBAN_BUDGET = 5
URBAN_K = 12

PLATFORMER_LEVELS = 200
PLATFORMER_HEIGHT = 8
PLATFORMER_K = 2

GOAL = (
    "(:goal (exists (?c1 - char ?c2 - char)\n"
    "  (and (married-to ?c2 ?c1) (not (= ?c1 ?c2)))))"
)


def _data(name: str) -> str:
    return (files("divplan.domains") / "data" / name).read_text()


@dataclass(frozen=True)
class Request:
    """One `fbi` call's inputs, as data.

    For the sat backend `text` is the PDDL problem over the domain in
    `domain`, and `horizon_cap` bounds the horizon range. For the search
    backend `text` is the grid rows (urban) or the level map (platformer).
    """

    backend: str
    family: str
    k: int
    text: str
    domain: str = ""
    horizon_cap: int = 0

    @property
    def horizons(self) -> range:
        return range(0, self.horizon_cap + 1)


# -- instance generators ----------------------------------------------------------


def story_problem(rng: random.Random, n_chars: int, n_places: int) -> str:
    """A full-cast aladdin variant: seeded cast, start places and lamp holder."""
    cast = rng.sample(STORY_CAST, n_chars)
    places = rng.sample(STORY_PLACES, n_places)
    init = [f"(at {c} {rng.choice(places)})" for c in cast]
    init.append(f"(has-lamp {rng.choice(cast)})")
    return (
        "(define (problem aladdin-variant)\n"
        "  (:domain aladdin)\n"
        f"  (:objects {' '.join(cast)} - char {' '.join(places)} - loc)\n"
        f"  (:init {' '.join(init)})\n"
        f"  {GOAL})\n"
    )


def tiny_problem(rng: random.Random) -> str:
    """A three-character story-tiny cut: one place, seeded lamp holder."""
    cast = rng.sample(TINY_CAST, 3)
    init = [f"(at {c} home)" for c in cast]
    init.append(f"(has-lamp {rng.choice(cast)})")
    return (
        "(define (problem story-tiny-cut)\n"
        "  (:domain story-tiny)\n"
        f"  (:objects {' '.join(cast)} - char home - loc)\n"
        f"  (:init {' '.join(init)})\n"
        f"  {GOAL})\n"
    )


def urban_rows(rng: random.Random, mix: tuple) -> str:
    """A grid with the given land-use mix in a seeded layout, one row per line.

    No mix has a used-cell count that is a multiple of five: only such grids
    can reach an exact five-way even land-use split, on which
    `diversity_score` returns 100.00000000000001 and the bin lookup raises.
    """
    cells = [code for code, count in zip(urban.CELL_CODES, mix) for _ in range(count)]
    rng.shuffle(cells)
    return "\n".join(
        "".join(cells[r * URBAN_SIDE : (r + 1) * URBAN_SIDE])
        for r in range(URBAN_SIDE)
    )


def platformer_level(rng: random.Random) -> str:
    """Width 16-24, a floor, avatar at column 1, a seeded enemy column and
    0-2 non-overlapping three-tile platforms on one row."""
    width = rng.randint(16, 24)
    rows = [["."] * width for _ in range(PLATFORMER_HEIGHT)]
    rows[-1] = ["#"] * width
    rows[-2][1] = "A"
    rows[-2][rng.randint(5, width - 4)] = "E"
    for start in rng.sample(range(3, width - 3, 4), rng.randint(0, 2)):
        for col in range(start, start + 3):
            rows[-5][col] = "#"
    return "\n".join("".join(row) for row in rows)


# -- workloads ----------------------------------------------------------------------


def sat_story(seed: int) -> list:
    rng = random.Random(seed)
    domain = _data("aladdin-domain.pddl")
    texts = [_data("aladdin-problem.pddl")]
    texts += [story_problem(rng, c, p) for c, p in STORY_SHAPES]
    cap = STORY_HORIZONS.stop - 1
    return [Request(SAT, "story", STORY_K, t, domain, cap) for t in texts]


def sat_exhaust(seed: int) -> list:
    rng = random.Random(seed)
    domain = _data("story-tiny-domain.pddl")
    return [
        Request(SAT, "story-tiny", EXHAUST_K, tiny_problem(rng), domain, cap)
        for _ in range(EXHAUST_CUTS_PER_CAP)
        for cap in EXHAUST_CAPS
    ]


def search_urban(seed: int) -> list:
    rng = random.Random(seed)
    return [Request(SEARCH, "urban", URBAN_K, urban_rows(rng, mix)) for mix in URBAN_MIXES]


def search_platformer(seed: int) -> list:
    rng = random.Random(seed)
    texts = [_data("platformer-level.txt")]
    texts += [platformer_level(rng) for _ in range(PLATFORMER_LEVELS - 1)]
    return [Request(SEARCH, "platformer", PLATFORMER_K, t) for t in texts]


WORKLOADS = {
    "sat-story": sat_story,
    "sat-exhaust": sat_exhaust,
    "search-urban": search_urban,
    "search-platformer": search_platformer,
}


# -- turning a request into program inputs -----------------------------------------


def build(request: Request, wrap_sim: Optional[Callable] = None) -> tuple:
    """(subject, space): a ground problem or a simulator, and its space.

    This is the set-up a CLI user pays before planning starts. The module
    attributes are looked up at call time, so a tracer can wrap them.
    """
    if request.backend == SAT:
        domain = pddl.parse_domain(request.domain)
        problem = pddl.ground(domain, pddl.parse_problem(request.text, domain))
        return problem, BehaviourSpace((goal_endings_feature(problem),))
    if request.family == "urban":
        rows = request.text.split("\n")
        grid = urban.UrbanGrid(len(rows[0]), len(rows), tuple("".join(rows)))
        sim = urban.urban_simulator(grid, budget=URBAN_BUDGET)
        space = urban.urban_space()
    else:
        sim = platformer.PlatformerSimulator(platformer.parse_level(request.text))
        space = platformer.platformer_space()
    return (wrap_sim(sim) if wrap_sim else sim), space


def generators(request: Request, subject, space: BehaviourSpace) -> tuple:
    """The (behaviour, plan) generator pair `divplan plan` builds by default."""
    if request.backend == SAT:
        options = dict(horizon_range=request.horizons, seed=0, max_conflicts=None)
        return (
            partial(behaviour_generator_sat, subject, space, **options),
            partial(plan_generator_sat, subject, **options),
        )
    cfg = SearchConfig(
        strategy="breadth-first", node_budget=100_000, seed=0, prune=True
    )
    return (
        partial(behaviour_generator_ltl, subject, space, cfg=cfg),
        partial(plan_generator_ltl, subject, cfg=cfg),
    )
