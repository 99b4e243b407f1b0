"""Tests for the bundled domains: urban grid, platformer, story, tiny."""

import copy
import itertools
import math
import pickle
import random
from collections import deque

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from divplan.bspace import bin_label, DEFAULT_BINS, HORIZON_VALUE
from divplan.core import validate_plan
from divplan.domains import get_domain, BUNDLED
from divplan.domains.platformer import (
    ACTIONS,
    AvatarDied,
    BUDGET as PLATFORMER_BUDGET,
    JUMP_IMPULSE,
    TERMINAL_VELOCITY,
    Level,
    LevelFormatError,
    PlatformerSimulator,
    PlatformerState,
    bundled_level,
    parse_level,
    platformer_space,
    platformer_step,
)
from divplan.domains.story import story_pack, tiny_story_pack
from divplan.domains.urban import (
    ATOMS,
    CELL_CODES,
    DEFAULT_BUDGET as URBAN_BUDGET,
    EMPTY,
    LAND_USES,
    RULES,
    EmptyGrid,
    UrbanGrid,
    UrbanSimulator,
    bundled_grid,
    diversity_score,
    render_grid,
    sustainability_score,
    urban_space,
    urban_step,
)
from oracles import (
    bdc,
    choice_problem,
    endings_space,
    enumerate_plans,
    reference_parse_level,
    reference_platformer_step,
    reference_scores,
    reference_urban_step,
    toggle_problem,
)


def grid(rows, counter=0):
    cells = tuple(code for row in rows for code in row)
    return UrbanGrid(width=len(rows[0]), height=len(rows), cells=cells, counter=counter)


# ---------------------------------------------------------------------------
# urban: scores
# ---------------------------------------------------------------------------


def test_sustainability_all_green_is_100():
    assert sustainability_score(grid(["GGGGG"])) == 100.0


def test_sustainability_all_residential_is_0():
    assert sustainability_score(grid(["RRRRR"])) == 0.0


def test_sustainability_mixed_example():
    # 30 green, 20 commercial, 10 facility, 40 residential over 100 cells
    rows = ["G" * 10] * 3 + ["C" * 10] * 2 + ["F" * 10] + ["R" * 10] * 4
    assert sustainability_score(grid(rows)) == 60.0


def test_sustainability_ignores_empty_cells():
    assert sustainability_score(grid(["GE"])) == 100.0
    assert sustainability_score(grid(["REEE"])) == 0.0


def test_diversity_equal_fifths_is_100():
    assert diversity_score(grid(["ROGCF"])) == pytest.approx(100.0, abs=1e-9)


def test_diversity_even_split_is_exactly_100_and_in_the_top_bin():
    # unclamped, the entropy ratio rounds to 100.00000000000001 here
    g = UrbanGrid(5, 1, tuple("ROGCF"))
    assert diversity_score(g) == 100.0
    assert bin_label(diversity_score(g)) == "ID"
    assert UrbanSimulator(g, budget=1).propositions(g)["ID_D"]


def test_diversity_single_use_is_0():
    assert diversity_score(grid(["GGGG"])) == 0.0


def test_diversity_half_half():
    expected = 100.0 * math.log(2) / math.log(5)
    assert diversity_score(grid(["GR"])) == pytest.approx(expected, abs=1e-9)


def test_diversity_ignores_empty_cells():
    assert diversity_score(grid(["GRE", "EEE"])) == diversity_score(grid(["GR"]))


@pytest.mark.parametrize("score_fn", [sustainability_score, diversity_score])
def test_scores_undefined_on_empty_grid(score_fn):
    with pytest.raises(EmptyGrid):
        score_fn(grid(["EEE", "EEE"]))


# ---------------------------------------------------------------------------
# urban: conversion steps
# ---------------------------------------------------------------------------


def test_convert_green_splits_with_remainder_to_first_target():
    # 100 green cells, 5% -> 5 affected, split over (C, F) as 3 + 2.
    g = grid(["G" * 10] * 10)
    after = urban_step(g, "convert-green")
    assert after.count("C") == 3
    assert after.count("F") == 2
    assert after.count("G") == 95
    assert after.counter == 1


def test_conversion_is_row_major():
    g = grid(["RRGG", "GGRR"])
    after = urban_step(g, "convert-green")
    # ceil(0.05 * 4) = 1: only the first green cell in row-major order moves.
    assert after.cells[2] != "G"
    assert after.cells[3] == "G"
    assert after.cells[:2] == ("R", "R")


def test_vacuous_conversion_still_counts_a_step():
    g = grid(["GGGG"])
    after = urban_step(g, "convert-facility")
    assert after.cells == g.cells
    assert after.counter == g.counter + 1


def test_conversion_preserves_cell_count():
    g = bundled_grid()
    for rule in RULES:
        after = urban_step(g, rule.action)
        assert len(after.cells) == len(g.cells)
        assert sum(after.count(c) for c in "ROGCFE") == g.width * g.height


def test_unknown_action_rejected():
    with pytest.raises(ValueError, match="unknown action"):
        urban_step(grid(["GG"]), "convert-lava")


def test_rules_cover_every_land_use():
    assert sorted(r.source for r in RULES) == sorted("CFGOR")


# ---------------------------------------------------------------------------
# urban: grids, serialisation, rendering
# ---------------------------------------------------------------------------


# every check a grid from input gets, with the message it raises
INVALID_GRIDS = [
    ((0, 2, ()), 0, "^grid dimensions must be positive$"),
    ((2, -1, ()), 0, "^grid dimensions must be positive$"),
    ((2, 2, ("G", "G")), 0, "^expected 4 cells, got 2$"),
    ((2, 1, ("G", "X")), 0, r"^unknown cell codes: \['X'\]$"),
    ((3, 1, tuple("GqX")), 0, r"^unknown cell codes: \['X', 'q'\]$"),
    ((1, 1, ("G",)), -1, "^step counter cannot be negative$"),
]


def test_grid_validation():
    for (width, height, cells), counter, message in INVALID_GRIDS:
        with pytest.raises(ValueError, match=message):
            UrbanGrid(width, height, cells, counter)


def test_stepped_grids_equal_checked_grids():
    start = bundled_grid()
    for rule in RULES:
        for second in RULES:
            succ = urban_step(urban_step(start, rule.action), second.action)
            checked = UrbanGrid(start.width, start.height, succ.cells, 2)
            assert succ == checked and hash(succ) == hash(checked)
            assert repr(succ) == repr(checked)


def test_replace_rebuilds_a_checked_grid_and_never_sets_the_mix():
    g = bundled_grid()
    assert g._replace(counter=4) == UrbanGrid(6, 6, g.cells, 4)
    greened = g._replace(cells=["G"] * 36)
    assert greened == UrbanGrid(6, 6, ("G",) * 36) and greened.mix == (0, 0, 36, 0, 0)
    with pytest.raises(ValueError, match=r"^unknown cell codes: \['X'\]$"):
        g._replace(cells=("X",) * 36)
    with pytest.raises(ValueError, match="^expected 36 cells, got 1$"):
        g._replace(cells=("G",))
    with pytest.raises(TypeError):
        g._replace(mix=(36, 0, 0, 0, 0))


def test_make_checks_the_fields_and_refuses_a_mix_of_other_cells():
    g = bundled_grid()
    assert UrbanGrid._make(tuple(g)) == g and UrbanGrid._make(list(g)) == g
    with pytest.raises(ValueError, match="does not count the cells"):
        UrbanGrid._make(g[:4] + ((36, 0, 0, 0, 0),))
    with pytest.raises(ValueError, match="^step counter cannot be negative$"):
        UrbanGrid._make((6, 6, g.cells, -1, g.mix))
    with pytest.raises(ValueError):
        UrbanGrid._make(g[:4])


def test_grids_copy_and_pickle_through_the_checked_constructor():
    g = urban_step(bundled_grid(), "convert-green")
    assert len(g) == 5 and repr(g).endswith(f"mix={g.mix})")
    for twin in (copy.copy(g), copy.deepcopy(g), pickle.loads(pickle.dumps(g))):
        assert type(twin) is UrbanGrid and twin == g and hash(twin) == hash(g)


def test_bundled_grid_composition():
    g = bundled_grid()
    assert (g.width, g.height, g.counter) == (6, 6, 0)
    assert render_grid(g).splitlines() == [
        "GGGGGG", "GGGGRR", "RRRRRR", "ROOOOC", "CCCFFF", "EEEEEE",
    ]
    counts = {c: g.count(c) for c in "GROCFE"}
    assert counts == {"G": 10, "R": 9, "O": 4, "C": 4, "F": 3, "E": 6}
    assert bin_label(sustainability_score(g)) == "H"
    assert bin_label(diversity_score(g)) == "ID"


def test_render_grid_plain_and_colored():
    g = bundled_grid()
    plain = render_grid(g)
    lines = plain.splitlines()
    assert len(lines) == 6 and all(len(l) == 6 for l in lines)
    assert set("".join(lines)) <= set("ROGCFE")
    colored = render_grid(g, color=True)
    assert "\x1b[32m" in colored  # green cells
    # stripping the escapes recovers the plain rendering
    import re

    assert re.sub(r"\x1b\[\d+m", "", colored) == plain


@st.composite
def urban_grids(draw):
    """Grids with sides 1-12 and any counter, drawn from a palette of at
    most six codes, repeats allowed: a one-code palette fills a grid with
    one land use, past the 40 source cells over which three convert."""
    width, height = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    palette = draw(st.lists(st.sampled_from(CELL_CODES), min_size=1, max_size=6))
    cells = draw(
        st.lists(st.sampled_from(palette), min_size=width * height, max_size=width * height)
    )
    return UrbanGrid(width, height, tuple(cells), draw(st.integers(0, 10**6)))


@settings(max_examples=300, deadline=None)
@given(urban_grids(), st.sampled_from([rule.action for rule in RULES]))
@example(UrbanGrid(9, 5, ("G",) * 45, 3), "convert-green")  # 3 convert: 2 + 1
@example(UrbanGrid(12, 12, ("R",) * 143 + ("E",), 0), "convert-residential")
def test_urban_step_matches_the_reference(grid0, action):
    succ, checked = urban_step(grid0, action), reference_urban_step(grid0, action)
    assert type(succ) is UrbanGrid
    assert (succ.cells, succ.counter) == (checked.cells, checked.counter)
    assert succ == checked and hash(succ) == hash(checked)
    assert repr(succ) == repr(checked)


def reference_valuation(grid, reached):
    """The valuation `propositions` should give, rebuilt from the
    cell-by-cell reference scores."""
    valuation = dict.fromkeys(ATOMS, False)
    for score, suffix in zip(reference_scores(grid), "SD"):
        valuation[f"{bin_label(score)}_{suffix}"] = True
    valuation[HORIZON_VALUE] = reached
    return valuation


def assert_propositions_match_the_reference(sim, grid):
    reached = grid.counter >= sim.budget
    if set(grid.cells) == {EMPTY}:
        with pytest.raises(EmptyGrid):
            sim.propositions(grid)
        with pytest.raises(EmptyGrid):
            reference_valuation(grid, reached)
    else:
        assert sim.propositions(grid) == reference_valuation(grid, reached)


@settings(max_examples=200, deadline=None)
@given(
    urban_grids(),
    st.lists(
        st.sampled_from([rule.action for rule in RULES]), min_size=1, max_size=URBAN_BUDGET
    ),
)
@example(UrbanGrid(7, 1, tuple("GGGRRCE"), 0), ["convert-green"] * 3)
def test_urban_runs_carry_the_mix_the_reference_recounts(grid0, actions):
    # a run to the budget: every successor's mix is its cells' count, the
    # grid is the reference's checked grid, and its valuation the reference's
    sim = UrbanSimulator(grid0, budget=grid0.counter + len(actions))
    grid = sim.initial()
    assert_propositions_match_the_reference(sim, grid)
    for action in actions:
        checked = reference_urban_step(grid, action)
        grid = sim.step(grid, action)
        assert grid.mix == tuple(map(grid.cells.count, LAND_USES))
        assert grid == checked and hash(grid) == hash(checked)
        assert_propositions_match_the_reference(sim, grid)
    assert sim.is_goal(grid)


def test_propositions_bin_every_4x4_mix_as_the_reference_scores():
    sim = UrbanSimulator(bundled_grid(), budget=1)
    mixes = 0
    # one sorted grid per multiset of 16 codes: every mix, all-empty included
    for cells in itertools.combinations_with_replacement(CELL_CODES, 16):
        mixes += 1
        g = UrbanGrid(4, 4, cells)
        if cells.count("E") == 16:
            with pytest.raises(EmptyGrid):
                sim.propositions(g)
            with pytest.raises(EmptyGrid):
                reference_scores(g)
            continue
        scores = reference_scores(g)
        assert (sustainability_score(g), diversity_score(g)) == scores
        s_bin, d_bin = (bin_label(score) for score in scores)
        props = sim.propositions(g)
        assert {atom for atom, held in props.items() if held} == {f"{s_bin}_S", f"{d_bin}_D"}
    assert mixes == 20349


# ---------------------------------------------------------------------------
# urban: simulator
# ---------------------------------------------------------------------------


def test_urban_simulator_goal_and_budget():
    sim = UrbanSimulator(bundled_grid())
    assert sim.budget == URBAN_BUDGET == 10
    state = sim.initial()
    assert not sim.is_goal(state)
    for _ in range(sim.budget):
        assert sim.legal_actions(state)
        state = sim.step(state, "convert-green")
    assert sim.is_goal(state)
    assert sim.legal_actions(state) == ()


def test_urban_propositions_one_bin_per_family():
    sim = UrbanSimulator(bundled_grid())
    state = sim.initial()
    for _ in range(3):
        props = sim.propositions(state)
        assert set(props) == set(ATOMS)
        s_bins = [a for a in props if a.endswith("_S") and props[a]]
        d_bins = [a for a in props if a.endswith("_D") and props[a]]
        assert len(s_bins) == 1 and len(d_bins) == 1
        assert props["l-reached"] == sim.is_goal(state)
        state = sim.step(state, "convert-residential")


def test_urban_propositions_are_shared_not_rebuilt():
    # the search keeps the returned valuation without copying it
    sim = UrbanSimulator(bundled_grid(), budget=1)
    grid = sim.initial()
    assert sim.propositions(grid) is sim.propositions(grid)
    done = sim.step(grid, "convert-green")
    assert sim.propositions(done) is not sim.propositions(grid)
    assert sim.propositions(done)["l-reached"]


def test_convert_green_moves_the_score_pair():
    sim = UrbanSimulator(bundled_grid())
    s0 = sim.initial()
    s1 = sim.step(s0, "convert-green")
    s2 = sim.step(s1, "convert-green")

    def pair(g):
        return (sustainability_score(g), diversity_score(g))

    assert pair(s0) != pair(s1) != pair(s2)
    # green -> commercial/facility keeps the sustainable share fixed
    assert sustainability_score(s0) == sustainability_score(s1)


def test_urban_space_shape():
    space = urban_space()
    # six bins per score plus the reserved still-undefined value
    assert space.size == (len(DEFAULT_BINS) + 1) ** 2
    assert [f.name for f in space.features] == ["sustainability", "diversity"]


# ---------------------------------------------------------------------------
# platformer: level parsing
# ---------------------------------------------------------------------------


def lvl(rows):
    return parse_level("\n".join(rows))


def test_parse_level_coordinates_are_bottom_up():
    level = lvl(["....", "A.E.", "####"])
    assert level.avatar_start == (0, 1)
    assert level.enemy_pos == (2, 1)
    assert level.is_solid(0, 0) and not level.is_solid(0, 1)


@pytest.mark.parametrize(
    "rows, message",
    [
        (["A.E", "##"], "equal width"),
        (["AAE", "###"], "avatar"),
        (["AEE", "###"], "enemy"),
        ([".E.", "###"], "needs one"),
        (["A..", "###"], "needs one"),
        (["A?E", "###"], "character"),
        # the first fault in map order is the one reported
        (["A.A?E", "#####"], "avatar"),
        (["A?A.E", "#####"], "character"),
        (["E.A..", "..A?.", "#####"], "avatar"),
        (["E..A.", "?.E..", "#####"], "character"),
        (["#A#E#", "##E##"], "enemy"),
    ],
)
def test_parse_level_rejects_malformed_maps(rows, message):
    with pytest.raises(LevelFormatError, match=message):
        lvl(rows)
    assert_parses_as_the_reference("\n".join(rows))


# characters str.splitlines ends a line at, besides "\n" and "\r\n"
LINE_BREAKS = "\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"


@pytest.mark.parametrize("ch", LINE_BREAKS)
def test_parse_level_refuses_a_line_break_inside_a_row(ch):
    with pytest.raises(LevelFormatError) as info:
        parse_level(f"A.{ch}E.\n#####")
    assert str(info.value) == f"unknown map character {ch!r}"
    with pytest.raises(LevelFormatError):
        parse_level(f"A.{ch}E.\n##")


def test_crlf_maps_parse_as_lf_maps():
    rows = ["....", "A.E.", "####"]
    level = lvl(rows)
    for text in (
        "\r\n".join(rows),
        "\r\n".join(rows) + "\r\n",
        "\r\n \r\n" + "\r\n".join(rows) + "\n\t\r\n",
    ):
        assert parse_level(text) == level
        assert_parses_as_the_reference(text)
    # only one "\r" before a "\n" ends the row
    with pytest.raises(LevelFormatError) as info:
        parse_level("\r\r\n".join(rows) + "\r\r\n")
    assert str(info.value) == "unknown map character '\\r'"


def test_bundled_level_shape():
    level = bundled_level()
    assert (level.width, level.height) == (24, 8)
    assert level.avatar_start == (1, 1)
    assert level.enemy_pos == (12, 1)


# ---------------------------------------------------------------------------
# platformer: physics
# ---------------------------------------------------------------------------

# Two hand-traced routes past the enemy, frozen move by move.
STOMP_PREFIX = ["right"] * 9 + ["jump", "right", "right", "noop", "noop"]
JUMP_OVER_PREFIX = ["right"] * 9 + ["jump", "right", "right", "right", "right"]


def run(sim, actions):
    state = sim.initial()
    states = [state]
    for action in actions:
        state = sim.step(state, action)
        states.append(state)
    return states


def test_stomp_kills_the_enemy():
    sim = PlatformerSimulator(bundled_level())
    states = run(sim, STOMP_PREFIX)
    assert states[-1].enemy_alive is False
    assert (states[-1].col, states[-1].row) == (12, 1)
    # the kill happens while falling from above, on the final descent
    assert all(s.enemy_alive for s in states[:-1])


def test_jump_over_leaves_the_enemy_alive():
    sim = PlatformerSimulator(bundled_level())
    states = run(sim, JUMP_OVER_PREFIX)
    assert states[-1].enemy_alive is True
    assert (states[-1].col, states[-1].row) == (14, 1)


@pytest.mark.parametrize(
    "prefix, extra_rights",
    [(STOMP_PREFIX, 11), (JUMP_OVER_PREFIX, 9)],
)
def test_both_routes_reach_the_goal_within_budget(prefix, extra_rights):
    sim = PlatformerSimulator(bundled_level())
    plan = prefix + ["right"] * extra_rights
    assert len(plan) <= sim.budget == PLATFORMER_BUDGET
    states = run(sim, plan)
    assert sim.is_goal(states[-1])
    assert all(not sim.is_goal(s) for s in states[:-1])


def test_walking_into_the_enemy_is_fatal():
    sim = PlatformerSimulator(bundled_level())
    states = run(sim, ["right"] * 10)
    assert (states[-1].col, states[-1].row) == (11, 1)
    with pytest.raises(AvatarDied):
        sim.step(states[-1], "right")


def test_legal_actions_filter_out_fatal_moves():
    sim = PlatformerSimulator(bundled_level())
    start = sim.initial()
    assert sim.legal_actions(start) == list(ACTIONS)
    beside_enemy = run(sim, ["right"] * 10)[-1]
    legal = sim.legal_actions(beside_enemy)
    assert "right" not in legal
    assert {"left", "jump", "noop"} <= set(legal)


def test_sideways_contact_is_not_a_stomp():
    # same-row contact dies even mid-air: only falling from above kills
    level = lvl(["A.E.", "####"])
    sim = PlatformerSimulator(level)
    state = sim.step(sim.initial(), "right")
    with pytest.raises(AvatarDied):
        platformer_step(level, state, "right")


def test_killed_and_avoided_are_complementary():
    sim = PlatformerSimulator(bundled_level())
    for prefix in (STOMP_PREFIX, JUMP_OVER_PREFIX):
        for state in run(sim, prefix):
            props = sim.propositions(state)
            assert props["killed"] != props["avoided"]


def test_killed_latches_once_true():
    sim = PlatformerSimulator(bundled_level())
    state = run(sim, STOMP_PREFIX)[-1]
    assert sim.propositions(state)["killed"]
    for action in ["left", "right", "jump", "noop"]:
        follow = sim.step(state, action)
        assert sim.propositions(follow)["killed"]


def test_two_noops_from_rest_give_equal_states():
    # a state is its own dedup key, so waiting in place must not change it
    sim = PlatformerSimulator(bundled_level())
    a = run(sim, ["noop"])[-1]
    b = run(sim, ["noop", "noop"])[-1]
    assert a == b and hash(a) == hash(b)


def test_platformer_space_orders_killed_first():
    space = platformer_space()
    assert space.size == 2
    (feature,) = space.features
    assert list(feature.domain) == ["killed", "avoided"]


# ---------------------------------------------------------------------------
# platformer: the one-pass kernel against the one-action reference step
# ---------------------------------------------------------------------------


def reference_successors(level, state) -> dict:
    """action -> successor, in ACTIONS order, for every action the
    reference step survives."""
    successors = {}
    for action in ACTIONS:
        try:
            successors[action] = reference_platformer_step(level, state, action)
        except AvatarDied:
            continue
    return successors


def reachable(level, limit=None) -> list:
    """States reachable from the start under the reference step, breadth
    first, at most `limit` of them."""
    col, row = level.avatar_start
    start = PlatformerState(col, row, 0, True)
    seen, order, queue = {start}, [], deque([start])
    while queue and (limit is None or len(order) < limit):
        state = queue.popleft()
        order.append(state)
        for succ in reference_successors(level, state).values():
            if succ not in seen:
                seen.add(succ)
                queue.append(succ)
    return order


def assert_matches_reference(level, states):
    sim = PlatformerSimulator(level)
    for state in states:
        expected = reference_successors(level, state)
        assert sim.legal_actions(state) == list(expected), state
        for action, succ in expected.items():
            assert sim.step(state, action) == succ, (state, action)
            assert platformer_step(level, state, action) == succ, (state, action)
        for action in ACTIONS:
            if action not in expected:
                with pytest.raises(AvatarDied, match="walked into the enemy at"):
                    platformer_step(level, state, action)


def bench_shaped_level(seed):
    """Width 16-24, height 8, a floor, the avatar at column 1, the enemy in
    a column in 5..width-4 and 0-2 three-tile platforms on one row."""
    rng = random.Random(seed)
    width = rng.randint(16, 24)
    rows = [["."] * width for _ in range(8)]
    rows[-1] = ["#"] * width
    rows[-2][1] = "A"
    rows[-2][rng.randint(5, width - 4)] = "E"
    for start in rng.sample(range(3, width - 3, 4), rng.randint(0, 2)):
        for col in range(start, start + 3):
            rows[-5][col] = "#"
    return parse_level("\n".join("".join(row) for row in rows))


@pytest.mark.parametrize("seed", [None, *range(8)])  # None: the bundled level
def test_successors_match_the_reference_on_every_reachable_state(seed):
    level = bundled_level() if seed is None else bench_shaped_level(seed)
    states = reachable(level)
    assert len(states) > 50
    assert_matches_reference(level, states)


# (rows, start state, action, successor or None where the avatar dies)
HAND_CASES = {
    # rising into a tile: stop below it, then fall
    "head-bump": (
        ["#..", "...", "A.E", "###"], (0, 1, 0, True), "jump", (0, 2, -1, True)
    ),
    # two cells a tick once falling at TERMINAL_VELOCITY
    "terminal-fall": (
        ["A..", "...", "...", "...", "...", "..E", "###"],
        (0, 4, TERMINAL_VELOCITY, True), "noop", (0, 2, TERMINAL_VELOCITY, True),
    ),
    # the enemy cell ends the fall and the landing squashes it
    "fall-onto-enemy": (
        ["A..", "...", "...", "E..", "###"], (0, 3, TERMINAL_VELOCITY, True),
        "noop", (0, 1, 0, False),
    ),
    # a floating enemy's cell ends a fall that would have gone past it
    "fall-stops-at-floating-enemy": (
        ["A..", "...", "E..", "...", "###"], (0, 3, TERMINAL_VELOCITY, True),
        "noop", (0, 2, TERMINAL_VELOCITY, False),
    ),
    # the enemy cell ends the fall, and moving on from it escapes it
    "fall-through-enemy-cell": (
        ["A..", "...", "...", "E..", "###"], (0, 3, TERMINAL_VELOCITY, True),
        "right", (1, 1, 0, True),
    ),
    # same-row contact in mid-air is fatal
    "mid-air-sideways": (
        ["A..", ".E.", "...", "###"], (0, 2, 0, True), "right", None
    ),
    # a jump off the ground carries the avatar up beside the enemy
    "jump-beside-enemy": (
        ["...", "...", "AE.", "###"], (0, 1, 0, True), "jump", (0, 3, 1, True)
    ),
}


@pytest.mark.parametrize("name", sorted(HAND_CASES))
def test_hand_traced_ticks(name):
    rows, start, action, expected = HAND_CASES[name]
    level, state = lvl(rows), PlatformerState(*start)
    if expected is None:
        with pytest.raises(AvatarDied):
            reference_platformer_step(level, state, action)
        assert action not in PlatformerSimulator(level).legal_actions(state)
    else:
        assert reference_platformer_step(level, state, action) == expected
    assert_matches_reference(level, [state])


def test_platformer_state_is_a_tuple_with_the_dataclass_repr():
    state = PlatformerState(col=1, row=2, vy=JUMP_IMPULSE, enemy_alive=True)
    assert state == (1, 2, JUMP_IMPULSE, True) and isinstance(state, tuple)
    assert repr(state) == "PlatformerState(col=1, row=2, vy=2, enemy_alive=True)"
    sim = PlatformerSimulator(bundled_level())
    assert sim.propositions(state) is sim.propositions(sim.initial())


LEVEL_CHARS = "#.AE? \n" + LINE_BREAKS


@st.composite
def level_grids(draw):
    """A map with one 'A' and one 'E', a few cells then overwritten with
    any of LEVEL_CHARS, so that some parse and some do not."""
    width, height = draw(st.integers(2, 10)), draw(st.integers(1, 6))
    cells = draw(st.lists(st.sampled_from("#."), min_size=width * height,
                          max_size=width * height))
    index = st.integers(0, width * height - 1)
    avatar, enemy = draw(st.lists(index, min_size=2, max_size=2, unique=True))
    cells[avatar], cells[enemy] = "A", "E"
    for i, ch in draw(st.lists(st.tuples(index, st.sampled_from(LEVEL_CHARS)), max_size=2)):
        cells[i] = ch
    return "\n".join("".join(cells[r * width:(r + 1) * width]) for r in range(height))


def assert_parses_as_the_reference(text):
    """parse_level and reference_parse_level return equal Levels, or raise
    the same LevelFormatError message."""
    try:
        expected = reference_parse_level(text)
    except LevelFormatError as exc:
        with pytest.raises(LevelFormatError) as info:
            parse_level(text)
        assert str(info.value) == str(exc)
        return
    assert parse_level(text) == expected


@given(st.one_of(st.text(alphabet=LEVEL_CHARS, max_size=80), level_grids()))
@settings(max_examples=200, deadline=None)
def test_level_text_parses_or_fails_cleanly_and_plays_like_the_reference(text):
    assert_parses_as_the_reference(text)
    try:
        level = parse_level(text)
    except LevelFormatError:
        return
    assert isinstance(level, Level)
    assert_matches_reference(level, reachable(level, limit=200))


# ---------------------------------------------------------------------------
# story and tiny instances
# ---------------------------------------------------------------------------


def test_story_pack_is_fully_ground():
    problem, space = story_pack()
    assert len(problem.actions) == 210
    assert space.size == 2**20  # 20 two-valued goal fluents


def test_tiny_story_pack_is_small():
    problem, space = tiny_story_pack()
    assert len(problem.actions) == 4
    assert space.size == 2**2


def test_choice_problem_realises_three_endings():
    problem = choice_problem()
    space = endings_space(problem)
    traces = [validate_plan(problem, p) for p in enumerate_plans(problem, max_len=3)]
    assert bdc(space, traces) == 3


def test_toggle_problem_plans_alternate():
    problem = toggle_problem()
    lengths = sorted(len(p) for p in enumerate_plans(problem, max_len=4))
    assert lengths == [1, 3]  # on; on-off-on


def test_domain_registry_lists_all_bundles():
    assert sorted(BUNDLED) == ["platformer", "story", "story-tiny", "urban"]
    assert get_domain("story") is story_pack
    with pytest.raises(KeyError, match="platformer"):
        get_domain("no-such-domain")
