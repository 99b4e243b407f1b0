import itertools
import random
from functools import partial

import pytest

from divplan.bspace import (
    BehaviourSpace,
    SpaceConfigError,
    enumerate_cells,
    goal_endings_feature,
    ltl_feature,
    pbehaviour,
)
from divplan.core import GeneratorTimeout, Plan, PlanTrace
from divplan.domains.platformer import (
    PlatformerSimulator,
    bundled_level,
    parse_level,
    platformer_space,
)
from divplan.domains.urban import (
    CELL_CODES,
    UrbanGrid,
    bundled_grid,
    urban_simulator,
    urban_space,
)
from divplan.fbi import fbi
from divplan.ltl import TRUE, UnknownAtom, eval_finite, mk_and, mk_not, parse_formula
from divplan.searchplan import (
    SearchConfig,
    SearchResult,
    behaviour_generator_ltl,
    constrained_search,
    plan_generator_ltl,
)
from oracles import CorridorSimulator, corridor_space, toggle_problem

END = parse_formula("F at-end")
KEY = parse_formula("F has-key")
NO_KEY = parse_formula("G !has-key")
IMPOSSIBLE = parse_formula("G !has-key & F has-key")
# the state does not remember a visit to the end, so this residual does
BOUNCE = parse_formula("F (at-end & F !at-end)")


def cfg(**kwargs):
    return SearchConfig(**kwargs)


# -- constrained_search ---------------------------------------------------------


def test_shortest_plan_first_with_breadth_first():
    result = constrained_search(CorridorSimulator(), (END,), cfg())
    assert result.trace.plan.labels() == ("right", "right", "right")
    assert result.definitive


def test_target_steers_the_plan():
    result = constrained_search(CorridorSimulator(), (KEY,), cfg())
    assert result.trace.plan.labels() == ("right", "right", "grab", "right")
    assert eval_finite(KEY, result.trace.valuations)


def test_contradictory_target_exhausts_definitively():
    result = constrained_search(CorridorSimulator(), (IMPOSSIBLE,), cfg())
    assert result.trace is None
    assert result.definitive
    assert result.stats.pruned > 0


def test_budget_starves_the_key_branch():
    # three steps only reach the end keyless; grabbing needs four
    result = constrained_search(CorridorSimulator(budget=3), (KEY,), cfg())
    assert result.trace is None
    assert result.definitive
    result = constrained_search(CorridorSimulator(budget=4), (KEY,), cfg())
    assert result.trace is not None


def test_node_budget_exhaustion_is_not_definitive():
    result = constrained_search(CorridorSimulator(), (KEY,), cfg(node_budget=2))
    assert result.trace is None
    assert not result.definitive
    assert result.stats.budget_exhausted


def test_atoms_outside_alphabet_rejected():
    with pytest.raises(UnknownAtom):
        constrained_search(CorridorSimulator(), (parse_formula("F warp"),), cfg())


def test_unknown_strategy_and_bad_budget_rejected():
    with pytest.raises(ValueError):
        SearchConfig(strategy="random-walk")
    with pytest.raises(ValueError):
        SearchConfig(node_budget=0)


def test_depth_first_also_finds_a_valid_plan():
    result = constrained_search(
        CorridorSimulator(), (KEY,), cfg(strategy="depth-first")
    )
    assert result.trace is not None
    assert eval_finite(KEY, result.trace.valuations)
    assert result.trace.states[-1][0] == 3


def test_pruning_never_changes_satisfiability():
    single = [(t,) for t in (END, KEY, NO_KEY, IMPOSSIBLE, parse_formula("FG at-end"))]
    swept = [
        (IMPOSSIBLE, NO_KEY, KEY),
        (IMPOSSIBLE, KEY, NO_KEY),
        (IMPOSSIBLE, parse_formula("FG at-end & G !at-end")),
        (parse_formula("G at-end"), parse_formula("FG at-end"), END),
    ]
    for targets in single + swept:
        pruned = constrained_search(CorridorSimulator(), targets, cfg(prune=True))
        unpruned = constrained_search(CorridorSimulator(), targets, cfg(prune=False))
        assert pruned.index == unpruned.index, targets
        assert (pruned.trace is None) == (unpruned.trace is None), targets
        if pruned.trace is not None:
            target = targets[pruned.index]
            assert eval_finite(target, pruned.trace.valuations)
            assert eval_finite(target, unpruned.trace.valuations)


def test_sweep_returns_the_first_realisable_target():
    result = constrained_search(CorridorSimulator(), (IMPOSSIBLE, NO_KEY, KEY), cfg())
    assert result.index == 1 and result.definitive
    assert result.trace.plan.labels() == ("right", "right", "right")
    result = constrained_search(CorridorSimulator(), (IMPOSSIBLE, BOUNCE), cfg())
    alone = constrained_search(CorridorSimulator(), (BOUNCE,), cfg())
    assert result.index == 1 and result.trace == alone.trace
    assert alone.trace.plan.labels() == ("right", "right", "right", "left", "right")
    result = constrained_search(CorridorSimulator(), (IMPOSSIBLE,) * 2, cfg())
    assert result.trace is None and result.index is None and result.definitive


def test_missing_proposition_is_an_unknown_atom():
    class Mute(CorridorSimulator):
        def propositions(self, state):
            return {"at-end": state[0] == 3}  # has-key is not assigned

    with pytest.raises(UnknownAtom):
        behaviour_generator_ltl(Mute(), corridor_space(), set(), cfg())


def test_search_is_deterministic():
    runs = [
        constrained_search(CorridorSimulator(), (KEY,), cfg()).trace.plan.labels()
        for _ in range(2)
    ]
    assert runs[0] == runs[1]


# -- behaviour_generator_ltl ------------------------------------------------------


def test_cells_visited_in_declaration_order():
    space = corridor_space()
    first = behaviour_generator_ltl(CorridorSimulator(), space, set(), cfg())
    assert pbehaviour(space, first).values == ("with-key",)
    second = behaviour_generator_ltl(
        CorridorSimulator(), space, {pbehaviour(space, first)}, cfg()
    )
    assert pbehaviour(space, second).values == ("without-key",)


def test_generator_exhausts_after_both_cells():
    space = corridor_space()
    found = set()
    for _ in range(2):
        trace = behaviour_generator_ltl(CorridorSimulator(), space, found, cfg())
        found.add(pbehaviour(space, trace))
    assert behaviour_generator_ltl(CorridorSimulator(), space, found, cfg()) is None


def test_generator_requires_temporal_features():
    space = BehaviourSpace((goal_endings_feature(toggle_problem()),))
    with pytest.raises(SpaceConfigError):
        behaviour_generator_ltl(CorridorSimulator(), space, set(), cfg())


def test_generator_surfaces_node_budget_as_timeout():
    with pytest.raises(GeneratorTimeout):
        behaviour_generator_ltl(
            CorridorSimulator(), corridor_space(), set(), cfg(node_budget=1)
        )


# -- plan_generator_ltl -----------------------------------------------------------


CORRIDOR_PLANS = {
    ("right", "right", "right"),
    ("right", "right", "grab", "right"),
    ("right", "left", "right", "right", "right"),
    ("right", "right", "left", "right", "right"),
    ("right", "right", "right", "left", "right"),
}


def test_plan_generator_enumerates_every_distinct_sequence():
    plans: list[Plan] = []
    while True:
        trace = plan_generator_ltl(CorridorSimulator(), plans, cfg())
        if trace is None:
            break
        assert trace.plan.labels() not in {p.labels() for p in plans}
        plans.append(trace.plan)
    assert {p.labels() for p in plans} == CORRIDOR_PLANS


def test_plan_generator_timeout():
    with pytest.raises(GeneratorTimeout):
        plan_generator_ltl(CorridorSimulator(), [], cfg(node_budget=1))


def test_plan_generator_is_deterministic():
    a = plan_generator_ltl(CorridorSimulator(), [], cfg())
    b = plan_generator_ltl(CorridorSimulator(), [], cfg())
    assert a.plan.labels() == b.plan.labels()


# -- the sweep against the per-cell search it replaced ---------------------------


def per_cell_generator(sim, space, found_behaviours, cfg):
    """One single-target search per open cell, in cell order."""
    found = set(found_behaviours)
    inconclusive = False
    for cell in enumerate_cells(space):
        if cell in found:
            continue
        target = TRUE
        for feature, value in zip(space.features, cell):
            target = mk_and(target, feature.expression.formula_for(value))
        result = constrained_search(sim, (target,), cfg)
        if result.trace is not None:
            return result.trace
        inconclusive = inconclusive or not result.definitive
    if inconclusive:
        raise GeneratorTimeout("node budget exhausted on some cell")
    return None


def run_fbi(bgen, sim, space, k, config):
    return fbi(
        k,
        space,
        partial(bgen, sim, space, cfg=config),
        partial(plan_generator_ltl, sim, cfg=config),
    )


def seeded_grid(seed, side=6):
    rng = random.Random(seed)
    return UrbanGrid(side, side, tuple(rng.choice(CELL_CODES) for _ in range(side * side)))


def seeded_level(seed):
    rng = random.Random(seed)
    width = rng.randint(12, 18)
    rows = [["."] * width for _ in range(6)]
    rows[-1] = ["#"] * width
    rows[-2][1] = "A"
    rows[-2][rng.randint(4, width - 3)] = "E"
    for col in range(rng.randint(3, width - 4), width - 1)[:3]:
        rows[-4][col] = "#"
    return parse_level("\n".join("".join(row) for row in rows))


def route_space():
    route = ltl_feature("route", (("bounced", BOUNCE), ("direct", mk_not(BOUNCE))))
    return BehaviourSpace((route,) + corridor_space().features)


def urban_case(grid, budget):
    return urban_simulator(grid, budget=budget), urban_space(), 12


def platformer_case(level):
    return PlatformerSimulator(level), platformer_space(), 2


SWEEP_CASES = {
    "urban-bundled": lambda: urban_case(bundled_grid(), 4),
    "urban-seed1": lambda: urban_case(seeded_grid(1), 5),
    "urban-seed2": lambda: urban_case(seeded_grid(2), 5),
    "urban-seed3": lambda: urban_case(seeded_grid(3), 5),
    "platformer-bundled": lambda: platformer_case(bundled_level()),
    "platformer-seed1": lambda: platformer_case(seeded_level(1)),
    "platformer-seed2": lambda: platformer_case(seeded_level(2)),
    "platformer-seed3": lambda: platformer_case(seeded_level(3)),
    "platformer-seed4": lambda: platformer_case(seeded_level(4)),
    "platformer-seed5": lambda: platformer_case(seeded_level(5)),
    "corridor": lambda: (CorridorSimulator(), corridor_space(), 3),
    "corridor-route": lambda: (CorridorSimulator(), route_space(), 5),
}


def replays(sim, space, trace, behaviour):
    state, states, valuations = sim.initial(), [], []
    for action in trace.plan.labels():
        states.append(state)
        valuations.append(dict(sim.propositions(state)))
        assert action in sim.legal_actions(state)
        state = sim.step(state, action)
    states.append(state)
    valuations.append(dict(sim.propositions(state)))
    assert sim.is_goal(state)
    assert tuple(states) == trace.states and tuple(valuations) == trace.valuations
    return pbehaviour(space, trace) == behaviour


@pytest.mark.parametrize("case", sorted(SWEEP_CASES))
def test_breadth_first_sweep_matches_per_cell_search(case):
    sim, space, k = SWEEP_CASES[case]()
    swept = run_fbi(behaviour_generator_ltl, sim, space, k, cfg())
    reference = run_fbi(per_cell_generator, sim, space, k, cfg())
    assert swept == reference


@pytest.mark.parametrize("case", sorted(SWEEP_CASES))
def test_depth_first_sweep_finds_the_same_behaviours(case):
    sim, space, k = SWEEP_CASES[case]()
    config = cfg(strategy="depth-first")
    swept = run_fbi(behaviour_generator_ltl, sim, space, k, config)
    reference = run_fbi(per_cell_generator, sim, space, k, config)
    assert swept.behaviours[: swept.bdc] == reference.behaviours[: reference.bdc]
    assert swept.bdc == reference.bdc
    for trace, behaviour in zip(swept.plans, swept.behaviours):
        assert replays(sim, space, trace, behaviour)


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_exhausting_sweep_finds_every_realisable_cell(seed):
    sim, space, _ = urban_case(seeded_grid(seed), 3)
    result = run_fbi(behaviour_generator_ltl, sim, space, space.size, cfg())
    assert result.bdc < space.size
    actions = sim.legal_actions(sim.initial())
    cells = set()
    for sequence in itertools.product(actions, repeat=sim.budget):
        states = [sim.initial()]
        for action in sequence:
            states.append(sim.step(states[-1], action))
        cells.add(pbehaviour(space, PlanTrace(Plan(sequence), tuple(states))))
    assert set(result.behaviours[: result.bdc]) == cells


def test_spent_node_budget_still_returns_a_realised_cell():
    # breadth-first meets the keyless goal (depth 3) before the keyed one (depth 4)
    sim, space = CorridorSimulator(), corridor_space()
    with pytest.raises(GeneratorTimeout):
        behaviour_generator_ltl(sim, space, set(), cfg(node_budget=5))
    later = behaviour_generator_ltl(sim, space, set(), cfg(node_budget=6))
    assert replays(sim, space, later, pbehaviour(space, later))
    assert pbehaviour(space, later).values == ("without-key",)
    first = behaviour_generator_ltl(sim, space, set(), cfg(node_budget=10))
    assert pbehaviour(space, first).values == ("with-key",)
