import gc
import itertools
import json
import random
import weakref
from collections import Counter
from dataclasses import dataclass
from functools import partial

import pytest

from divplan import searchplan
from divplan.domains import platformer
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
from divplan.cli import EXIT_OK, _space_of, main
from divplan.domains import get_domain
from divplan.fbi import fbi
from divplan.ltl import (
    TRUE,
    FALSE,
    Atom,
    UnknownAtom,
    eval_finite,
    final_eval,
    mk_and,
    mk_not,
    parse_formula,
    progress,
)
from divplan.searchplan import (
    SearchConfig,
    SearchResult,
    behaviour_generator_ltl,
    constrained_search,
    plan_generator_ltl,
)
from oracles import (
    MONITOR_SHAPES,
    CorridorSimulator,
    corridor_space,
    per_call_plan_generator,
    per_call_sweep,
    random_formula,
    toggle_problem,
)

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


def cell_target(space, cell):
    target = TRUE
    for feature, value in zip(space.features, cell):
        target = mk_and(target, feature.expression.formula_for(value))
    return target


def per_cell_generator(sim, space, found_behaviours, cfg):
    """One single-target search per open cell, in cell order."""
    found = set(found_behaviours)
    inconclusive = False
    for cell in enumerate_cells(space):
        if cell in found:
            continue
        result = constrained_search(sim, (cell_target(space, cell),), cfg)
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


# -- the resumable plan walk against one fresh walk per call ----------------------


def plan_answers(generator, sim, config, calls, existing=()):
    """Each of `calls` answers to fbi-style calls whose plan list starts as
    existing and grows by every answer; a timeout is the answer "timeout"."""
    plans, answers = list(existing), []
    for _ in range(calls):
        try:
            trace = generator(sim, tuple(plans), config)
        except GeneratorTimeout:
            answers.append("timeout")
            continue
        answers.append(trace)
        if trace is not None:
            plans.append(trace.plan)
    return answers


WALK_CASES = {
    "corridor": lambda: CorridorSimulator(),
    "corridor-7": lambda: CorridorSimulator(budget=7),
    "urban-3x3": lambda: urban_simulator(seeded_grid(1, side=3), budget=3),
    "urban-4x4": lambda: urban_simulator(seeded_grid(2, side=4), budget=3),
}


@pytest.mark.parametrize("strategy", ["breadth-first", "depth-first"])
@pytest.mark.parametrize("case", sorted(WALK_CASES))
def test_resumed_plan_walk_matches_a_fresh_walk_per_call(case, strategy):
    config = cfg(strategy=strategy)
    reference = plan_answers(per_call_plan_generator, WALK_CASES[case](), config, 60)
    assert plan_answers(plan_generator_ltl, WALK_CASES[case](), config, 60) == reference
    # fbi's loop two starts from the plans loop one found, anywhere in the walk
    existing = [t.plan for t in reference[1:12:3] if t is not None]
    assert plan_answers(
        plan_generator_ltl, WALK_CASES[case](), config, 20, existing
    ) == plan_answers(per_call_plan_generator, WALK_CASES[case](), config, 20, existing)


@pytest.mark.parametrize("strategy", ["breadth-first", "depth-first"])
@pytest.mark.parametrize("node_budget", [1, 3, 4, 9, 20, 45, 120])
@pytest.mark.parametrize("case", ["corridor-7", "urban-3x3"])
def test_plan_walk_times_out_on_the_same_call(case, node_budget, strategy):
    config = cfg(strategy=strategy, node_budget=node_budget)
    answers = plan_answers(plan_generator_ltl, WALK_CASES[case](), config, 25)
    reference = plan_answers(per_call_plan_generator, WALK_CASES[case](), config, 25)
    assert answers == reference


def test_plan_walk_restarts_on_a_plan_list_that_does_not_extend():
    sim = urban_simulator(seeded_grid(1, side=3), budget=3)
    reference = urban_simulator(seeded_grid(1, side=3), budget=3)
    config = cfg()
    first = plan_answers(plan_generator_ltl, sim, config, 6)
    # a shorter list, then one missing a plan the walk passed in the middle
    for existing in ([], [first[0].plan], [t.plan for t in first if t is not first[2]]):
        assert plan_generator_ltl(sim, existing, config) == per_call_plan_generator(
            reference, existing, config
        )


def test_plan_walk_restarts_on_a_changed_config():
    sim, reference = CorridorSimulator(budget=7), CorridorSimulator(budget=7)
    plans = [t.plan for t in plan_answers(plan_generator_ltl, sim, cfg(), 4)]
    for config in (cfg(strategy="depth-first"), cfg(node_budget=50), cfg()):
        assert plan_generator_ltl(sim, plans, config) == per_call_plan_generator(
            reference, plans, config
        )


class Counting:
    """A simulator wrapper that counts the step and is_goal calls made."""

    def __init__(self, sim):
        self.sim, self.steps, self.goal_tests = sim, Counter(), 0

    def step(self, state, action):
        self.steps[state, action] += 1
        return self.sim.step(state, action)

    def is_goal(self, state):
        self.goal_tests += 1
        return self.sim.is_goal(state)

    def __getattr__(self, name):
        return getattr(self.sim, name)


def test_resumed_walk_visits_each_tree_node_once():
    sim = Counting(CorridorSimulator(budget=6))
    answers = plan_answers(plan_generator_ltl, sim, cfg(), 100)
    assert answers[-1] is None
    fresh = Counting(CorridorSimulator(budget=6))
    assert plan_answers(per_call_plan_generator, fresh, cfg(), 100) == answers
    # the per-call walk goes over the tree again on every call
    assert sim.goal_tests < fresh.goal_tests / 10
    assert max(sim.steps.values()) == 1


def answer(result):
    """What a sweep answers, without the node counts of how it got there."""
    return result.trace, result.index, result.definitive


@pytest.mark.parametrize("strategy", ["breadth-first", "depth-first"])
def test_sweeps_are_the_same_after_earlier_calls_on_the_simulator(strategy):
    config = cfg(strategy=strategy)
    space = route_space()
    cells = list(enumerate_cells(space))
    used = Counting(CorridorSimulator(budget=7))
    run_fbi(behaviour_generator_ltl, used, space, 8, config)
    for sweep in (cells, cells[1:], cells[::-1]):
        targets = tuple(cell_target(space, cell) for cell in sweep)
        again = constrained_search(used, targets, config)
        fresh = constrained_search(CorridorSimulator(budget=7), targets, config)
        assert answer(again) == answer(fresh)
    assert max(used.steps.values()) == 1


# -- the resumed sweep against one fresh sweep per call ---------------------------

SWEEP_SPACES = {
    "corridor": route_space,
    "corridor-7": route_space,
    "urban-3x3": urban_space,
    "urban-4x4": urban_space,
}


def checked_against_the_oracle(monkeypatch, reference, config=None):
    """Make every constrained_search call also ask per_call_sweep on the
    fresh simulator reference, under config if given; returns the list of
    (answer, oracle's answer) pairs the calls fill."""
    calls = []

    def both(sim, targets, own_config):
        result = real(sim, targets, own_config)
        oracle = per_call_sweep(reference, targets, config or own_config)
        calls.append((answer(result), answer(oracle)))
        return result

    real = searchplan.constrained_search
    monkeypatch.setattr(searchplan, "constrained_search", both)
    return calls


@pytest.mark.parametrize("strategy", ["breadth-first", "depth-first"])
@pytest.mark.parametrize("case", sorted(WALK_CASES))
def test_resumed_sweep_matches_a_fresh_sweep_per_call(monkeypatch, case, strategy):
    config = cfg(strategy=strategy)
    space = SWEEP_SPACES[case]()
    calls = checked_against_the_oracle(monkeypatch, WALK_CASES[case]())
    run_fbi(behaviour_generator_ltl, WALK_CASES[case](), space, space.size, config)
    assert len(calls) > 1
    assert [new for new, _ in calls] == [old for _, old in calls]


@pytest.mark.parametrize("strategy", ["breadth-first", "depth-first"])
@pytest.mark.parametrize("node_budget", [1, 3, 4, 9, 20, 45, 120])
@pytest.mark.parametrize("case", sorted(WALK_CASES))
def test_a_budgeted_resumed_sweep_answers_as_an_unbudgeted_one(
    monkeypatch, case, node_budget, strategy
):
    # a resumed call spends its budget from where the sweep paused, not from
    # the root, so it may answer where a fresh sweep per call runs out; it
    # never answers otherwise than a sweep with no budget
    config = cfg(strategy=strategy, node_budget=node_budget)
    space = SWEEP_SPACES[case]()
    reference = WALK_CASES[case]()
    calls = checked_against_the_oracle(monkeypatch, reference, cfg(strategy=strategy))
    resumed = run_fbi(behaviour_generator_ltl, WALK_CASES[case](), space, space.size, config)
    for (trace, index, definitive), unbudgeted in calls:
        if definitive:
            assert (trace, index, definitive) == unbudgeted
        elif trace is not None:
            assert index >= unbudgeted[1]
            if strategy == "breadth-first":
                target = (cell_target(space, pbehaviour(space, trace)),)
                assert trace == per_call_sweep(reference, target, cfg()).trace
    monkeypatch.setattr(searchplan, "constrained_search", per_call_sweep)
    per_call = run_fbi(behaviour_generator_ltl, reference, space, space.size, config)
    assert resumed.bdc >= per_call.bdc


@pytest.mark.parametrize("strategy", ["breadth-first", "depth-first"])
@pytest.mark.parametrize("case", sorted(WALK_CASES))
def test_resumed_sweep_matches_for_any_found_cell_order(case, strategy):
    # targets in cell order, as behaviour_generator_ltl passes them, and in
    # shuffled priority orders, in which a later call's witness may lie
    # below the goal node the sweep paused at
    config = cfg(strategy=strategy)
    space = SWEEP_SPACES[case]()
    cells = list(enumerate_cells(space))
    rng = random.Random(case)
    for priority in [cells, cells[::-1]] + [rng.sample(cells, len(cells)) for _ in range(2)]:
        found_order = rng.sample(cells, len(cells))
        sim, reference = WALK_CASES[case](), WALK_CASES[case]()
        for n in range(len(cells)):
            found = set(found_order[:n])
            targets = tuple(cell_target(space, c) for c in priority if c not in found)
            assert answer(constrained_search(sim, targets, config)) == answer(
                per_call_sweep(reference, targets, config)
            ), (priority, found_order, n)


def test_step_runs_once_per_transition_over_an_fbi_run():
    sim, space, _ = urban_case(seeded_grid(3, side=4), 3)
    counted = Counting(sim)
    result = run_fbi(behaviour_generator_ltl, counted, space, space.size, cfg())
    fresh = urban_simulator(seeded_grid(3, side=4), budget=3)
    assert result == run_fbi(behaviour_generator_ltl, fresh, space, space.size, cfg())
    assert len(result.plans) > result.bdc  # the plan walk ran too
    assert max(counted.steps.values()) == 1


@pytest.mark.parametrize("case", ["platformer-bundled", "platformer-seed1"])
def test_platformer_steps_each_pair_once_over_an_fbi_run(monkeypatch, case):
    # one kernel call computes every successor of a state, so each
    # (state, action) pair is stepped once when each state is passed once
    sim, space, k = SWEEP_CASES[case]()
    passes = Counter()

    def counted(level, state):
        passes[state] += 1
        return real(level, state)

    real = platformer._successors
    monkeypatch.setattr(platformer, "_successors", counted)
    result = run_fbi(behaviour_generator_ltl, sim, space, k + 1, cfg(node_budget=2000))
    assert result.bdc == k
    assert passes and max(passes.values()) == 1
    monkeypatch.setattr(platformer, "_successors", real)
    fresh = SWEEP_CASES[case]()[0]
    assert result == run_fbi(behaviour_generator_ltl, fresh, space, k + 1, cfg(node_budget=2000))


# -- the per-simulator record ------------------------------------------------------


def test_record_dies_with_its_simulator_without_the_cyclic_gc():
    for make, space in (
        (lambda: urban_simulator(seeded_grid(1, side=4), budget=3), urban_space()),
        (CorridorSimulator, corridor_space()),
    ):
        records = len(searchplan._records)
        gc.disable()
        try:
            sim = make()
            result = run_fbi(behaviour_generator_ltl, sim, space, space.size + 3, cfg())
            assert len(result.plans) > result.bdc  # the plan walk ran too
            assert len(searchplan._records) == records + 1
            alive = weakref.ref(sim)
            del sim
            assert alive() is None
            assert len(searchplan._records) == records
        finally:
            gc.enable()


class SlottedCorridor:
    """The corridor behind a simulator that cannot be weakly referenced."""

    __slots__ = ("_sim",)

    def __init__(self, budget=5):
        self._sim = CorridorSimulator(budget=budget)

    def __getattr__(self, name):
        return getattr(self._sim, name)


def test_simulator_without_weak_references_still_plans():
    sim = SlottedCorridor()
    with pytest.raises(TypeError):
        weakref.ref(sim)
    records = len(searchplan._records)
    assert run_fbi(behaviour_generator_ltl, sim, corridor_space(), 9, cfg()) == run_fbi(
        behaviour_generator_ltl, CorridorSimulator(), corridor_space(), 9, cfg()
    )
    assert len(searchplan._records) == records
    answers = plan_answers(plan_generator_ltl, sim, cfg(), 8)
    assert {t.plan.labels() for t in answers if t is not None} == CORRIDOR_PLANS


@dataclass
class FlakySimulator(CorridorSimulator):
    """The corridor, whose method named flaky raises once: on its call
    number fail_at. calls counts the calls of that method."""

    fail_at: int = 0
    calls: int = 0
    flaky: str = "step"

    def _call(self, method):
        if method == self.flaky:
            self.calls += 1
            if self.calls == self.fail_at:
                raise RuntimeError(f"the simulator's {method} failed once")

    def step(self, state, action):
        self._call("step")
        return super().step(state, action)

    def is_goal(self, state):
        self._call("is_goal")
        return super().is_goal(state)


@pytest.mark.parametrize("strategy", ["breadth-first", "depth-first"])
def test_an_exception_mid_walk_drops_the_walk(strategy):
    config = cfg(strategy=strategy)
    reference = plan_answers(
        per_call_plan_generator, CorridorSimulator(budget=7), config, 40
    )
    sim = FlakySimulator(budget=7)
    plans = [plan_generator_ltl(sim, [], config).plan]
    sim.fail_at = sim.calls + 1  # the next transition the walk asks for
    with pytest.raises(RuntimeError):
        while True:
            plans.append(plan_generator_ltl(sim, plans, config).plan)
    assert searchplan._records[id(sim)].walk is None
    assert [p.labels() for p in plans] == [
        t.plan.labels() for t in reference[: len(plans)]
    ]
    later = plan_answers(plan_generator_ltl, sim, config, 40 - len(plans), plans)
    assert later == reference[len(plans):]


@pytest.mark.parametrize("strategy", ["breadth-first", "depth-first"])
def test_an_exception_mid_sweep_drops_the_sweep(strategy):
    # the first sweep pauses at its shallow first target and leaves every
    # transition in the move table, so the resumed sweep fails in is_goal,
    # which it asks of every node it expands
    config = cfg(strategy=strategy)
    space = route_space()
    targets = tuple(cell_target(space, cell) for cell in enumerate_cells(space))[::-1]
    sim = FlakySimulator(budget=7, flaky="is_goal")
    constrained_search(sim, targets, config)
    record = searchplan._records[id(sim)]
    assert record.sweep is not None
    sim.fail_at = sim.calls + 3
    with pytest.raises(RuntimeError):
        constrained_search(sim, targets[1:], config)
    assert record.sweep is None
    reference = CorridorSimulator(budget=7)
    for rest in (targets[1:], targets[2:]):
        assert answer(constrained_search(sim, rest, config)) == answer(
            per_call_sweep(reference, rest, config)
        )
    assert record.sweep is not None


# -- what simplifying the sweep must not change ---------------------------------


def test_progression_memo_matches_direct_progression():
    # formula tuples from the samplers of criteria 6 and 7, advanced along
    # random valuation walks; each walk runs twice, so the second pass and
    # the four distinct valuations exercise the memo
    rng = random.Random(14)
    leaves = [Atom("a"), Atom("b"), TRUE, FALSE]
    for _ in range(60):
        targets = tuple(
            rng.choice(MONITOR_SHAPES) if rng.random() < 0.3
            else random_formula(rng, rng.randrange(4), leaves)
            for _ in range(rng.randint(1, 4))
        )
        table = searchplan._Progression(targets)
        roots = tuple(table.intern(target) for target in targets)
        walks = [
            [
                {atom: rng.random() < 0.5 for atom in ("a", "b", "unread")}
                for _ in range(rng.randint(1, 6))
            ]
            for _ in range(4)
        ]
        for walk in walks + walks:
            residuals = roots
            for valuation in walk:
                formulas = [table._formulas[rid] for rid in residuals]
                residuals, sats = table.advance(residuals, valuation)
                assert [table._formulas[rid] for rid in residuals] == [
                    progress(f, valuation) for f in formulas
                ]
                assert sats == tuple(final_eval(f, valuation) for f in formulas)
        # interning: one id per distinct formula
        assert len(set(table._formulas)) == len(table._formulas)


# SearchStats (expanded, pruned, deduplicated) of every sweep of the bundled
# urban k=12 and platformer k=8 runs, in call order: each later call of a run
# reads its witness from the sweep the first call paused
SWEEP_STATS = {
    ("urban", "breadth-first"): ((27866, 0, 18335),) + ((0, 0, 0),) * 11,
    ("urban", "depth-first"): ((27866, 0, 18335),) + ((0, 0, 0),) * 11,
    ("platformer", "breadth-first"): ((1065, 0, 771), (0, 0, 0)),
    ("platformer", "depth-first"): ((1516, 0, 1039), (0, 0, 0)),
}


@pytest.mark.parametrize("domain, strategy", sorted(SWEEP_STATS))
def test_bundled_sweeps_keep_their_node_counts(tmp_path, monkeypatch, domain, strategy):
    seen = []

    def counted(sim, targets, config):
        result = real(sim, targets, config)
        stats = result.stats
        seen.append((stats.expanded, stats.pruned, stats.deduplicated))
        return result

    real = searchplan.constrained_search
    monkeypatch.setattr(searchplan, "constrained_search", counted)
    k = "12" if domain == "urban" else "8"
    argv = ["plan", "--domain", domain, "--backend", "search", "--k", k,
            "--strategy", strategy]
    assert main([*argv, "--out", str(tmp_path / "report.json")]) == EXIT_OK
    assert tuple(seen) == SWEEP_STATS[domain, strategy]


# ltl values whose formulas overlap -> the cells loop one can realise: the
# bundled grid does not start in sustainability bin VL, so urban's "b" is empty
OVERLAPPING_LTL = {
    "urban": ([("a", "!VL_S"), ("b", "true")], [["a"]]),
    "platformer": ([("killed", "F killed"), ("other", "true")], [["killed"], ["other"]]),
}


@pytest.mark.parametrize("domain", sorted(OVERLAPPING_LTL))
def test_overlapping_ltl_values_plan_without_a_traceback(tmp_path, domain):
    values, cells = OVERLAPPING_LTL[domain]
    space_file = tmp_path / "space.json"
    space_file.write_text(json.dumps({"features": [{
        "kind": "ltl", "name": "f",
        "values": [{"value": v, "formula": f} for v, f in values],
    }]}))
    report = tmp_path / "report.json"
    argv = ["plan", "--domain", domain, "--k", "3", "--space", str(space_file)]
    assert main([*argv, "--out", str(report)]) == EXIT_OK
    doc = json.loads(report.read_text())
    result = doc["result"]
    assert result["behaviours"][: result["bdc"]] == cells
    sim, _space = get_domain(domain)()
    space = _space_of(doc["config"]["space"], sim, str(report))
    for labels, [value] in zip(result["plans"], cells):
        states = [sim.initial()]
        for label in labels:
            states.append(sim.step(states[-1], label))
        valuations = tuple(map(sim.propositions, states))
        trace = PlanTrace(Plan(tuple(labels)), tuple(states), valuations)
        assert pbehaviour(space, trace).values == (value,)
        assert eval_finite(space.features[0].expression.formula_for(value), valuations)
