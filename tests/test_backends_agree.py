"""One ground truth for both backends: each ground problem is planned by the
SAT generators and, behind `oracles.GroundSimulator`, by the search
generators, over the same cells.

The SAT side reads the cells as goal-fluent assignments
(`goal_endings_feature`); the search side reads the same cells as the
conjunctions of `FG l` of `oracles.temporal_endings_space`. Plans of every
length up to the cap count on both sides. Loop one must find exactly the
cells `goal_ending_cells` reaches, a run must end the same way on both
sides, and a run that exhausts its plans must return `enumerate_plans`.
"""

import pytest

from divplan.bspace import BehaviourSpace, goal_endings_feature
from divplan.domains.story import tiny_story_pack
from divplan.fbi import EXHAUSTED, fbi
from divplan.satplan import behaviour_generator_sat, plan_generator_sat
from divplan.searchplan import SearchConfig, behaviour_generator_ltl, plan_generator_ltl

from oracles import (
    GroundSimulator,
    choice_problem,
    enumerate_plans,
    goal_ending_cells,
    seeded_tiny_cut,
    temporal_endings_space,
    toggle_problem,
    two_switch_problem,
    workloads,
)

K = workloads.EXHAUST_K

CASES = {
    "toggle-6": (toggle_problem, 6),
    "two-switch-4": (two_switch_problem, 4),
    "choice-4": (choice_problem, 4),
    **{f"story-tiny-{cap}": (lambda: tiny_story_pack()[0], cap) for cap in (4, 5, 6)},
    # seeded cuts as the sat-exhaust workload draws them, both of its caps
    **{
        f"cut-{seed}-{cap}": (lambda seed=seed: seeded_tiny_cut(seed), cap)
        for seed, cap in ((1, 6), (2, 7), (3, 6), (4, 7))
    },
}


def sat_run(problem, cap):
    space = BehaviourSpace((goal_endings_feature(problem),))
    horizons = range(0, cap + 1)
    return fbi(
        K, space,
        lambda found: behaviour_generator_sat(problem, space, found, horizons),
        lambda existing: plan_generator_sat(problem, existing, horizons),
    )


def search_run(problem, cap):
    space, sim = temporal_endings_space(problem), GroundSimulator(problem, cap)
    config = SearchConfig()
    return fbi(
        K, space,
        lambda found: behaviour_generator_ltl(sim, space, found, config),
        lambda existing: plan_generator_ltl(sim, existing, config),
    )


@pytest.mark.parametrize("name", sorted(CASES))
def test_both_backends_find_the_oracle_cells_and_end_alike(name):
    make, cap = CASES[name]
    problem = make()
    cells = goal_ending_cells(problem, range(0, cap + 1))
    sat, search = sat_run(problem, cap), search_run(problem, cap)
    for result in (sat, search):
        assert result.bdc == len(cells)
        assert set(result.behaviours[: result.bdc]) == cells
        if result.termination == EXHAUSTED:
            assert {t.plan.labels() for t in result.plans} == {
                plan.labels() for plan in enumerate_plans(problem, cap)
            }
    assert sat.termination == search.termination

