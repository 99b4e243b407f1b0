import pytest

from divplan.bspace import (
    BehaviourSpace,
    SpaceConfigError,
    goal_endings_feature,
    pbehaviour,
)
from divplan.core import GeneratorTimeout, Plan
from divplan.domains.tiny import (
    CorridorSimulator,
    corridor_space,
    toggle_problem,
)
from divplan.ltl import UnknownAtom, eval_finite, parse_formula
from divplan.searchplan import (
    SearchConfig,
    SearchResult,
    behaviour_generator_ltl,
    constrained_search,
    plan_generator_ltl,
)

END = parse_formula("F at-end")
KEY = parse_formula("F has-key")
NO_KEY = parse_formula("G !has-key")
IMPOSSIBLE = parse_formula("G !has-key & F has-key")


def cfg(**kwargs):
    return SearchConfig(**kwargs)


# -- constrained_search ---------------------------------------------------------


def test_shortest_plan_first_with_breadth_first():
    result = constrained_search(CorridorSimulator(), END, cfg())
    assert result.trace.plan.labels() == ("right", "right", "right")
    assert result.definitive


def test_target_steers_the_plan():
    result = constrained_search(CorridorSimulator(), KEY, cfg())
    assert result.trace.plan.labels() == ("right", "right", "grab", "right")
    assert eval_finite(KEY, result.trace.valuations)


def test_contradictory_target_exhausts_definitively():
    result = constrained_search(CorridorSimulator(), IMPOSSIBLE, cfg())
    assert result.trace is None
    assert result.definitive
    assert result.stats.pruned > 0


def test_budget_starves_the_key_branch():
    # three steps only reach the end keyless; grabbing needs four
    result = constrained_search(CorridorSimulator(budget=3), KEY, cfg())
    assert result.trace is None
    assert result.definitive
    result = constrained_search(CorridorSimulator(budget=4), KEY, cfg())
    assert result.trace is not None


def test_node_budget_exhaustion_is_not_definitive():
    result = constrained_search(CorridorSimulator(), KEY, cfg(node_budget=2))
    assert result.trace is None
    assert not result.definitive
    assert result.stats.budget_exhausted


def test_atoms_outside_alphabet_rejected():
    with pytest.raises(UnknownAtom):
        constrained_search(CorridorSimulator(), parse_formula("F warp"), cfg())


def test_unknown_strategy_and_bad_budget_rejected():
    with pytest.raises(ValueError):
        SearchConfig(strategy="random-walk")
    with pytest.raises(ValueError):
        SearchConfig(node_budget=0)


def test_depth_first_also_finds_a_valid_plan():
    result = constrained_search(CorridorSimulator(), KEY, cfg(strategy="depth-first"))
    assert result.trace is not None
    assert eval_finite(KEY, result.trace.valuations)
    assert result.trace.states[-1][0] == 3


def test_pruning_never_changes_satisfiability():
    for target in (END, KEY, NO_KEY, IMPOSSIBLE, parse_formula("FG at-end")):
        pruned = constrained_search(CorridorSimulator(), target, cfg(prune=True))
        unpruned = constrained_search(CorridorSimulator(), target, cfg(prune=False))
        assert (pruned.trace is None) == (unpruned.trace is None), target
        if pruned.trace is not None:
            assert eval_finite(target, pruned.trace.valuations)
            assert eval_finite(target, unpruned.trace.valuations)


def test_search_is_deterministic():
    runs = [
        constrained_search(CorridorSimulator(), KEY, cfg()).trace.plan.labels()
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
