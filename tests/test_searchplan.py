import gc
import itertools
import json
import random
import sys
import weakref
from collections import Counter, deque
from dataclasses import dataclass, field
from functools import partial

import pytest

from divplan import searchplan
from divplan.domains import platformer
from divplan.domains.story import tiny_story_pack
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
    urban_step,
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
    SearchStats,
    behaviour_generator_ltl,
    constrained_search,
    plan_generator_ltl,
)
from oracles import (
    MONITOR_SHAPES,
    CorridorSimulator,
    GroundSimulator,
    choice_problem,
    corridor_space,
    enumerate_plans,
    per_call_plan_generator,
    per_call_sweep,
    pop_time_sweep,
    random_formula,
    toggle_problem,
    two_switch_problem,
    workloads,
)

END = parse_formula("F at-end")
KEY = parse_formula("F has-key")
NO_KEY = parse_formula("G !has-key")
IMPOSSIBLE = parse_formula("G !has-key & F has-key")
# the state does not remember a visit to the end, so this residual does
BOUNCE = parse_formula("F (at-end & F !at-end)")


def cfg(**kwargs):
    return SearchConfig(**kwargs)


# prune=False only keeps branches every obligation has left, so each check
# of the sweep's answers and order holds with pruning off as well as on
PRUNE = pytest.mark.parametrize("prune", [True, False], ids=["pruned", "unpruned"])


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
    for strategy in ("random-walk", "depth-first"):
        with pytest.raises(ValueError):
            SearchConfig(strategy=strategy)
    with pytest.raises(ValueError):
        SearchConfig(node_budget=0)


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


@PRUNE
def test_proposition_missing_below_the_root_is_an_unknown_atom(prune):
    # the root's valuation assigns every atom, so the memo is read for the
    # first time at a child, whose missing atom must not leak as a KeyError
    class MuteAfterStart(CorridorSimulator):
        def propositions(self, state):
            if state == self.initial():
                return super().propositions(state)
            return {"at-end": state[0] == 3}

    with pytest.raises(UnknownAtom):
        constrained_search(MuteAfterStart(), (KEY,), cfg(prune=prune))
    with pytest.raises(UnknownAtom):
        behaviour_generator_ltl(MuteAfterStart(), corridor_space(), set(), cfg(prune=prune))


def test_a_search_with_no_targets_expands_nothing():
    # the first platformer call pauses its sweep with nodes on the frontier;
    # a call with no targets must neither walk it on nor drop it
    sim, space = get_domain("platformer")()
    config = cfg()
    behaviour_generator_ltl(sim, space, set(), config)
    sweep = searchplan._records[id(sim)].sweep
    paused = list(sweep.frontier)
    assert len(paused) == 28
    for simulator in (sim, get_domain("platformer")()[0]):
        assert constrained_search(simulator, (), config) == SearchResult(None, SearchStats(), None)
    assert searchplan._records[id(sim)].sweep is sweep
    assert list(sweep.frontier) == paused


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


@PRUNE
@pytest.mark.parametrize("case", sorted(SWEEP_CASES))
def test_breadth_first_sweep_matches_per_cell_search(case, prune):
    sim, space, k = SWEEP_CASES[case]()
    swept = run_fbi(behaviour_generator_ltl, sim, space, k, cfg(prune=prune))
    reference = run_fbi(per_cell_generator, sim, space, k, cfg(prune=prune))
    assert swept == reference


@PRUNE
@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_exhausting_sweep_finds_every_realisable_cell(seed, prune):
    sim, space, _ = urban_case(seeded_grid(seed), 3)
    result = run_fbi(behaviour_generator_ltl, sim, space, space.size, cfg(prune=prune))
    assert result.bdc < space.size
    actions = sim.legal_actions(sim.initial())
    cells = set()
    for sequence in itertools.product(actions, repeat=sim.budget):
        states = [sim.initial()]
        for action in sequence:
            states.append(sim.step(states[-1], action))
        cells.add(pbehaviour(space, PlanTrace(Plan(sequence), tuple(states))))
    assert set(result.behaviours[: result.bdc]) == cells


@pytest.mark.parametrize("kind", [list, str])
def test_list_and_string_cells_build_the_tuple_grid_and_plan_alike(kind):
    codes = "".join(seeded_grid(4, side=4).cells)
    grid, twin = UrbanGrid(4, 4, kind(codes)), UrbanGrid(4, 4, tuple(codes))
    assert type(grid.cells) is tuple
    assert grid == twin and hash(grid) == hash(twin) and repr(grid) == repr(twin)
    # convert-office is vacuous on "RG": its successor keeps the given cells
    pair = UrbanGrid(2, 1, kind("RG")), UrbanGrid(2, 1, ("R", "G"))
    assert pair[0] == pair[1] and hash(pair[0]) == hash(pair[1])
    assert urban_step(pair[0], "convert-office") == urban_step(pair[1], "convert-office")
    runs = [
        run_fbi(behaviour_generator_ltl, *urban_case(g, 3)[:2], 12, cfg())
        for g in (grid, twin)
    ]
    assert runs[0] == runs[1] and runs[0].bdc > 1


def test_spent_node_budget_still_returns_a_realised_cell():
    # breadth-first meets the keyless goal (depth 3) before the keyed one
    # (depth 4); the budget counts distinct dedup keys expanded, and a goal
    # is met when it is generated: the keyless one by the 3rd expansion,
    # its depth-2 parent, and the keyed one by the 5th, the key's cell
    sim, space = CorridorSimulator(), corridor_space()
    with pytest.raises(GeneratorTimeout):
        behaviour_generator_ltl(sim, space, set(), cfg(node_budget=2))
    later = behaviour_generator_ltl(sim, space, set(), cfg(node_budget=3))
    assert replays(sim, space, later, pbehaviour(space, later))
    assert pbehaviour(space, later).values == ("without-key",)
    first = behaviour_generator_ltl(sim, space, set(), cfg(node_budget=5))
    assert pbehaviour(space, first).values == ("with-key",)


# -- the plan memo against one fresh breadth-first walk per call -----------------


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


@PRUNE
@pytest.mark.parametrize("case", sorted(WALK_CASES))
def test_plan_answers_match_a_fresh_breadth_first_walk_per_call(case, prune):
    config = cfg(prune=prune)
    reference = plan_answers(per_call_plan_generator, WALK_CASES[case](), config, 60)
    assert plan_answers(plan_generator_ltl, WALK_CASES[case](), config, 60) == reference
    # fbi's loop two starts from the plans loop one found, anywhere in the order
    existing = [t.plan for t in reference[1:12:3] if t is not None]
    assert plan_answers(
        plan_generator_ltl, WALK_CASES[case](), config, 20, existing
    ) == plan_answers(per_call_plan_generator, WALK_CASES[case](), config, 20, existing)


@PRUNE
@pytest.mark.parametrize("case", sorted(WALK_CASES))
def test_a_node_budget_only_ever_delays_the_breadth_first_answer(case, prune):
    reference, unbudgeted = {}, WALK_CASES[case]()
    for node_budget in range(1, 121):
        sim, plans = WALK_CASES[case](), []
        config = cfg(node_budget=node_budget, prune=prune)
        for _ in range(25):
            key = tuple(p.labels() for p in plans)
            if key not in reference:
                reference[key] = per_call_plan_generator(unbudgeted, plans, cfg(prune=prune))
            try:
                trace = plan_generator_ltl(sim, plans, config)
            except GeneratorTimeout:
                continue
            assert trace == reference[key]
            if trace is None:
                break
            plans.append(trace.plan)


def test_a_budget_spent_on_one_call_carries_over_to_the_next():
    # the memo a timed-out call filled stays, so calls of budget 1 get there
    sim, answers = CorridorSimulator(), []
    while len(answers) < len(CORRIDOR_PLANS) + 1:
        try:
            trace = plan_generator_ltl(sim, [t.plan for t in answers], cfg(node_budget=1))
        except GeneratorTimeout:
            continue
        answers.append(trace)
    reference = plan_answers(per_call_plan_generator, CorridorSimulator(), cfg(), len(answers))
    assert answers == reference


def test_plan_answers_depend_only_on_the_plan_list():
    sim = urban_simulator(seeded_grid(1, side=3), budget=3)
    reference = urban_simulator(seeded_grid(1, side=3), budget=3)
    config = cfg()
    first = plan_answers(plan_generator_ltl, sim, config, 6)
    # a shorter list, then one missing a plan from the middle
    for existing in ([], [first[0].plan], [t.plan for t in first if t is not first[2]]):
        assert plan_generator_ltl(sim, existing, config) == per_call_plan_generator(
            reference, existing, config
        )


@dataclass
class Chain:
    """A budget-less simulator over the integers: two moves out of states
    0-2 and one out of each later state, each to the next integer, except
    none out of state end; goal_at is the one goal state."""

    goal_at: int = -1
    end: int = -1
    budget = None

    def initial(self):
        return 0

    def legal_actions(self, state):
        return [] if state == self.end else ["on", "off"][: 1 + (state < 3)]

    def step(self, state, action):
        return state + 1

    def propositions(self, state):
        return {}

    def is_goal(self, state):
        return state == self.goal_at


def test_a_budget_less_endless_tree_times_out_without_deep_recursion():
    # a memo that recursed once per step below would need ~200 frames here
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 60)
    try:
        with pytest.raises(GeneratorTimeout):
            plan_generator_ltl(Chain(), [], cfg(node_budget=20_000))
    finally:
        sys.setrecursionlimit(limit)


def test_a_budget_less_finite_tree_is_proved_exhausted():
    sim = Chain(goal_at=5, end=8)
    answers = plan_answers(plan_generator_ltl, sim, cfg(), 10)
    # two moves out of states 0-2 and one from there on: 8 paths to state 5
    assert [len(t.plan) for t in answers[:8]] == [5] * 8
    assert answers[8:] == [None, None]
    assert answers == plan_answers(per_call_plan_generator, Chain(5, 8), cfg(), 10)


@pytest.mark.parametrize(
    "problem, cap",
    [(toggle_problem, 7), (two_switch_problem, 4), (choice_problem, 4),
     (lambda: tiny_story_pack()[0], 4), (lambda: tiny_story_pack()[0], 5)],
    ids=["toggle", "two-switch", "choice", "story-tiny-4", "story-tiny-5"],
)
def test_plans_of_a_ground_problem_come_in_enumerate_plans_order(problem, cap):
    problem = problem()
    answers = plan_answers(plan_generator_ltl, GroundSimulator(problem, cap), cfg(), 200)
    plans = [t.plan for t in answers if t is not None]
    assert plans == enumerate_plans(problem, cap)
    assert answers[len(plans):] == [None] * (200 - len(plans))


class Counting:
    """A simulator wrapper that counts the step and is_goal calls made,
    per (state, action) and per state."""

    def __init__(self, sim):
        self.sim, self.steps, self.asked, self.goal_tests = sim, Counter(), Counter(), 0

    def step(self, state, action):
        self.steps[state, action] += 1
        return self.sim.step(state, action)

    def is_goal(self, state):
        self.goal_tests += 1
        self.asked[state] += 1
        return self.sim.is_goal(state)

    def __getattr__(self, name):
        return getattr(self.sim, name)


def test_the_plan_memo_asks_each_transition_once():
    sim = Counting(CorridorSimulator(budget=6))
    answers = plan_answers(plan_generator_ltl, sim, cfg(), 100)
    assert answers[-1] is None
    fresh = Counting(CorridorSimulator(budget=6))
    assert plan_answers(per_call_plan_generator, fresh, cfg(), 100) == answers
    # once per state (four cells, key or not), where the per-call walk
    # goes over the tree again on every call
    assert sim.goal_tests <= 8 < fresh.goal_tests
    assert max(sim.steps.values()) == 1


def answer(result):
    """What a sweep answers, without the node counts of how it got there."""
    return result.trace, result.index, result.definitive


@PRUNE
def test_sweeps_are_the_same_after_earlier_calls_on_the_simulator(prune):
    config = cfg(prune=prune)
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


@PRUNE
@pytest.mark.parametrize("case", sorted(WALK_CASES))
def test_resumed_sweep_matches_a_fresh_sweep_per_call(monkeypatch, case, prune):
    config = cfg(prune=prune)
    space = SWEEP_SPACES[case]()
    calls = checked_against_the_oracle(monkeypatch, WALK_CASES[case]())
    run_fbi(behaviour_generator_ltl, WALK_CASES[case](), space, space.size, config)
    assert len(calls) > 1
    assert [new for new, _ in calls] == [old for _, old in calls]


@PRUNE
@pytest.mark.parametrize("node_budget", [1, 3, 4, 9, 20, 45, 120])
@pytest.mark.parametrize("case", sorted(WALK_CASES))
def test_a_budgeted_resumed_sweep_answers_as_an_unbudgeted_one(
    monkeypatch, case, node_budget, prune
):
    # a resumed call spends its budget from where the sweep paused, not from
    # the root, so it may answer where a fresh sweep per call runs out; it
    # never answers otherwise than a sweep with no budget
    config = cfg(node_budget=node_budget, prune=prune)
    space = SWEEP_SPACES[case]()
    reference = WALK_CASES[case]()
    calls = checked_against_the_oracle(monkeypatch, reference, cfg(prune=prune))
    resumed = run_fbi(behaviour_generator_ltl, WALK_CASES[case](), space, space.size, config)
    for (trace, index, definitive), unbudgeted in calls:
        if definitive:
            assert (trace, index, definitive) == unbudgeted
        elif trace is not None:
            assert index >= unbudgeted[1]
            target = (cell_target(space, pbehaviour(space, trace)),)
            assert trace == per_call_sweep(reference, target, cfg(prune=prune)).trace
    monkeypatch.setattr(searchplan, "constrained_search", per_call_sweep)
    per_call = run_fbi(behaviour_generator_ltl, reference, space, space.size, config)
    assert resumed.bdc >= per_call.bdc


@PRUNE
@pytest.mark.parametrize("case", sorted(WALK_CASES))
def test_resumed_sweep_matches_for_any_found_cell_order(case, prune):
    # targets in cell order, as behaviour_generator_ltl passes them, and in
    # shuffled priority orders, in which a later call's witness may lie
    # below the goal node the sweep paused at
    config = cfg(prune=prune)
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


# -- the sweep against one that drops duplicates when they are popped ---------------


def dedup_case(name):
    """(simulator maker, space, k) of a WALK_CASES case, named walk-<case>,
    run to exhaustion, or of a SWEEP_CASES case."""
    if name.startswith("walk-"):
        space = SWEEP_SPACES[name[len("walk-"):]]()
        return WALK_CASES[name[len("walk-"):]], space, space.size
    _, space, k = SWEEP_CASES[name]()
    return (lambda: SWEEP_CASES[name]()[0]), space, k


DEDUP_CASES = sorted([f"walk-{name}" for name in WALK_CASES] + list(SWEEP_CASES))


def popped_keys(monkeypatch):
    """Make every sweep record the dedup key of each node it pops, with its
    monitor id read back as (state, residuals, sats); returns the list they
    fill."""
    keys = []
    real = searchplan._Sweep.__init__

    def recording(self, *args):
        real(self, *args)
        monitors = self.table.monitors

        class Recorded(deque):
            def popleft(self):
                node = super().popleft()
                keys.append((node[0], *monitors[node[5]]))
                return node

        self.frontier = Recorded(self.frontier)

    monkeypatch.setattr(searchplan._Sweep, "__init__", recording)
    return keys


def witness_parent(sim, trace):
    """The dedup key, as popped_keys records it, of the node whose children
    held trace's goal node, read back through the monitors of the sweep
    last paused on sim; None when the goal is the root."""
    if len(trace.states) == 1:
        return None
    table = searchplan._records[id(sim)].sweep.table
    monitor = table.start
    for valuation in trace.valuations[:-1]:
        monitor = next_monitor(table, monitor, valuation)
    return (trace.states[-2], *table.monitors[monitor])


@dataclass
class PopTimeLedger:
    """One sweep's calls against the pop-time sweep's, from the root on.

    The sweep tests a child for a witness when it generates it, so a call
    pauses right after it expands the parent of its first target's witness,
    where the pop-time sweep walks on until it pops the witness. Over the
    calls, expanded lists the keys the sweep expanded and first the keys
    the pop-time sweep popped for the first time, in order; expanded must
    be first up to cut, the end of the furthest witness parent so far, or
    all of first once the tree is exhausted."""

    prune: bool
    expanded: list = field(default_factory=list)
    first: list = field(default_factory=list)
    cut: int = 0
    again: int = 0  # pops of a key the pop-time sweep had popped before
    pruned_again: int = 0  # of which it pruned again, not dropped as a duplicate

    def check(self, sim, result, keys, oracle, popped):
        """result and keys, of one call on sim, against the pop-time
        sweep's answer and popped keys for the same call."""
        assert answer(result) == answer(oracle)
        met = set(self.first)
        fresh = [key for key in popped if key not in met and not met.add(key)]
        self.first += fresh
        self.again += len(popped) - len(fresh)
        self.pruned_again += len(popped) - len(fresh) - oracle.stats.deduplicated
        self.expanded += keys
        if result.index == 0:
            parent = witness_parent(sim, result.trace)
            if parent is not None:
                self.cut = max(self.cut, self.first.index(parent) + 1)
        else:  # targets[0] has no witness, so both sweeps ran the tree out
            assert result.definitive
            self.cut = len(self.first)
        assert self.expanded == self.first[: self.cut]
        assert result.stats.expanded == len(keys)
        dead = sum(not any(residuals) and not any(sats) for _, residuals, sats in keys)
        assert result.stats.pruned == (dead if self.prune else 0)

    def check_exhausted(self, results, oracles):
        """At exhaustion the sweep has dropped, as generated, each node the
        pop-time sweep popped again, and pruned each dead key once."""
        assert self.expanded == self.first
        assert sum(r.stats.deduplicated for r in results) == self.again
        assert sum(r.stats.pruned for r in results) == (
            sum(o.stats.pruned for o in oracles) - self.pruned_again
        )


def exhausted(result):
    return result.trace is None and result.definitive


@PRUNE
@pytest.mark.parametrize("case", DEDUP_CASES)
def test_sweep_expands_what_a_pop_time_sweep_expands_first(monkeypatch, case, prune):
    # through fbi's resumed calls: the sweep expands each dedup key once, in
    # the order and with the witnesses of the pop-time sweep, and stops one
    # parent short of the pop-time sweep's pause
    make, space, k = dedup_case(case)
    config, reference = cfg(prune=prune), make()
    keys, ledger, calls = popped_keys(monkeypatch), PopTimeLedger(prune), []

    def both(sim, targets, own_config):
        del keys[:]
        result = real(sim, targets, own_config)
        oracle, popped = pop_time_sweep(reference, targets, own_config)
        ledger.check(sim, result, keys, oracle, popped)
        calls.append((result, oracle))
        return result

    real = searchplan.constrained_search
    monkeypatch.setattr(searchplan, "constrained_search", both)
    run_fbi(behaviour_generator_ltl, make(), space, k, config)
    assert len(calls) > 1
    # on its first call every case meets a duplicate or stops short of the
    # pop-time sweep's pause, so it expands less
    assert calls[0][0].stats.expanded < calls[0][1].stats.expanded
    if exhausted(calls[-1][0]):
        ledger.check_exhausted(*zip(*calls))


@PRUNE
@pytest.mark.parametrize("case", DEDUP_CASES)
def test_a_pruning_sweep_expands_what_a_pop_time_sweep_expands_first(monkeypatch, case, prune):
    # one cell's target per fresh sweep, so with pruning on the branches that
    # cannot realise it are cut, and the pop-time sweep prunes a key each
    # time it pops it; with pruning off both sweeps walk them
    make, space, _ = dedup_case(case)
    config, keys = cfg(prune=prune), popped_keys(monkeypatch)
    for cell in enumerate_cells(space):
        targets, sim, ledger = (cell_target(space, cell),), make(), PopTimeLedger(prune)
        del keys[:]
        result = constrained_search(sim, targets, config)
        oracle, popped = pop_time_sweep(make(), targets, config)
        ledger.check(sim, result, keys, oracle, popped)
        if exhausted(result):
            ledger.check_exhausted([result], [oracle])


def bench_request(family, seed):
    """The benchmark's request for a `workloads.platformer_level` level or a
    `workloads.urban_rows` grid drawn for random.Random(seed)."""
    rng = random.Random(seed)
    if family == "platformer":
        text, k = workloads.platformer_level(rng), workloads.PLATFORMER_K
    else:
        mix = workloads.URBAN_MIXES[seed % len(workloads.URBAN_MIXES)]
        text, k = workloads.urban_rows(rng, mix), workloads.URBAN_K
    return workloads.Request(workloads.SEARCH, family, k, text)


def bench_fbi(request):
    sim, space = workloads.build(request)
    return fbi(request.k, space, *workloads.generators(request, sim, space))


@pytest.mark.parametrize(
    "family, seeds", [("platformer", range(20)), ("urban", range(3))], ids=["platformer", "urban"]
)
def test_fbi_on_benchmark_inputs_matches_a_pop_time_sweep(monkeypatch, family, seeds):
    # the benchmark's own build and generators, run over this sweep and then
    # over the pop-time sweep
    requests = [bench_request(family, seed) for seed in seeds]
    swept = [bench_fbi(request) for request in requests]
    calls = []

    def popping(sim, targets, config):
        calls.append(targets)
        return pop_time_sweep(sim, targets, config)[0]

    monkeypatch.setattr(searchplan, "constrained_search", popping)
    assert swept == [bench_fbi(request) for request in requests]
    assert len(calls) >= len(requests)
    assert all(result.bdc for result in swept)


@PRUNE
@pytest.mark.parametrize("case", DEDUP_CASES)
def test_a_sweep_asks_is_goal_at_most_once_per_dedup_key(case, prune):
    # over loop one of an fbi run, on one resumed sweep: a state is asked
    # once for each of its dedup keys whose monitor meets a target, at most
    make, space, k = dedup_case(case)
    sim, found = Counting(make()), set()
    while len(found) < k:
        trace = behaviour_generator_ltl(sim, space, found, cfg(prune=prune))
        if trace is None:
            break
        found.add(pbehaviour(space, trace))
    sweep = searchplan._records[id(sim)].sweep
    meeting = Counter(state for state, monitor in sweep.visited if sweep.table.met[monitor])
    assert sim.asked and sim.asked.keys() <= meeting.keys()
    assert all(sim.asked[state] <= meeting[state] for state in sim.asked)


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


@pytest.mark.parametrize("flaky", ["step", "is_goal"])
def test_plan_calls_after_a_simulator_raised_mid_call_match_the_reference(flaky):
    reference = plan_answers(per_call_plan_generator, CorridorSimulator(budget=7), cfg(), 40)
    sim = FlakySimulator(budget=7, flaky=flaky)
    plans = [plan_generator_ltl(sim, [], cfg()).plan]
    sim.fail_at = sim.calls + 1  # the next call the memo makes of it
    with pytest.raises(RuntimeError):
        while True:
            plans.append(plan_generator_ltl(sim, plans, cfg()).plan)
    assert [p.labels() for p in plans] == [
        t.plan.labels() for t in reference[: len(plans)]
    ]
    later = plan_answers(plan_generator_ltl, sim, cfg(), 40 - len(plans), plans)
    assert later == reference[len(plans):]


@PRUNE
def test_an_exception_mid_sweep_drops_the_sweep(prune):
    # the first sweep pauses at its shallow first target, and the resumed
    # sweep fails in is_goal, which it asks of each child it generates whose
    # monitor meets a target
    config = cfg(prune=prune)
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


def next_monitor(table, monitor, valuation):
    """The monitor after valuation, read from the memo as the sweep reads it."""
    try:
        return table.step[monitor, table.project(valuation)]
    except KeyError:
        return table.after(monitor, valuation)


def test_progression_memo_matches_direct_progression(monkeypatch):
    # formula tuples from the samplers of criteria 6 and 7, advanced along
    # random valuation walks; each walk runs twice, so the second pass and
    # the four distinct valuations exercise the memo, which progresses each
    # (residual tuple, valuation key) once whichever monitor carries it
    calls = []
    monkeypatch.setattr(searchplan, "progress", lambda f, v: calls.append(f) or progress(f, v))
    rng = random.Random(14)
    leaves = [Atom("a"), Atom("b"), TRUE, FALSE]
    for _ in range(60):
        targets = tuple(
            rng.choice(MONITOR_SHAPES) if rng.random() < 0.3
            else random_formula(rng, rng.randrange(4), leaves)
            for _ in range(rng.randint(1, 4))
        )
        table = searchplan._Progression(targets)
        del calls[:]
        progressed = set()
        start = table.monitors[table.start][0]
        assert [table._formulas[rid] for rid in start] == list(targets)
        walks = [
            [
                {atom: rng.random() < 0.5 for atom in ("a", "b", "unread")}
                for _ in range(rng.randint(1, 6))
            ]
            for _ in range(4)
        ]
        for walk in walks + walks:
            monitor = table.start
            for valuation in walk:
                formulas = [table._formulas[rid] for rid in table.monitors[monitor][0]]
                progressed.add((table.monitors[monitor][0], table.project(valuation)))
                monitor = next_monitor(table, monitor, valuation)
                residuals, sats = table.monitors[monitor]
                assert [table._formulas[rid] for rid in residuals] == [
                    progress(f, valuation) for f in formulas
                ]
                assert sats == tuple(final_eval(f, valuation) for f in formulas)
        assert len(calls) == sum(len(residuals) for residuals, _ in progressed)
        # interning: one id per distinct formula and per distinct monitor pair
        assert len(set(table._formulas)) == len(table._formulas)
        assert len(set(table.monitors)) == len(table.monitors)
        assert table._monitor_ids == {pair: m for m, pair in enumerate(table.monitors)}
        assert table._sources == {
            residuals: min(m for m, pair in enumerate(table.monitors) if pair[0] == residuals)
            for residuals, _ in table.monitors
        }
        # a monitor's stored facts are those of its pair
        for monitor, (residuals, sats) in enumerate(table.monitors):
            formulas = [table._formulas[rid] for rid in residuals]
            assert table.met[monitor] == tuple(i for i, sat in enumerate(sats) if sat)
            assert table.dead[monitor] == (
                all(f == FALSE for f in formulas) and True not in sats
            )


# SearchStats (expanded, pruned, deduplicated) of every sweep of the bundled
# urban k=12 and platformer k=8 runs, in call order: each later call of a run
# reads its witness from the sweep the first call paused. The sweep drops a
# duplicate and tests a goal when it is generated, so it expands each dedup
# key once, pauses after the parent of its first target's witness, and also
# counts the duplicates among that parent's children
SWEEP_STATS = {
    "urban": ((9531, 0, 18335),) + ((0, 0, 0),) * 11,
    "platformer": ((267, 0, 772), (0, 0, 0)),
}


@pytest.mark.parametrize("domain", sorted(SWEEP_STATS))
def test_bundled_sweeps_keep_their_node_counts(tmp_path, monkeypatch, domain):
    seen = []

    def counted(sim, targets, config):
        result = real(sim, targets, config)
        stats = result.stats
        seen.append((stats.expanded, stats.pruned, stats.deduplicated))
        return result

    real = searchplan.constrained_search
    monkeypatch.setattr(searchplan, "constrained_search", counted)
    k = "12" if domain == "urban" else "8"
    argv = ["plan", "--domain", domain, "--backend", "search", "--k", k]
    assert main([*argv, "--out", str(tmp_path / "report.json")]) == EXIT_OK
    assert tuple(seen) == SWEEP_STATS[domain]


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
