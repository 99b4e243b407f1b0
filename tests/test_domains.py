"""Tests for the bundled domains: urban grid, platformer, story, tiny."""

import json
import math

import pytest

from divplan.bspace import bdc, bin_label, DEFAULT_BINS
from divplan.core import enumerate_plans, validate_plan
from divplan.domains import get_domain, BUNDLED
from divplan.domains.platformer import (
    ACTIONS,
    AvatarDied,
    DEFAULT_BUDGET as PLATFORMER_BUDGET,
    LevelFormatError,
    PlatformerSimulator,
    bundled_level,
    parse_level,
    platformer_space,
    platformer_step,
)
from divplan.domains.story import story_pack, tiny_story_pack
from divplan.domains.tiny import choice_problem, endings_space, toggle_problem
from divplan.domains.urban import (
    DEFAULT_BUDGET as URBAN_BUDGET,
    DEFAULT_RULES,
    EmptyGrid,
    UrbanGrid,
    UrbanSimulator,
    bundled_grid,
    diversity_score,
    grid_from_json,
    render_grid,
    sustainability_score,
    urban_space,
    urban_step,
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
    assert bin_label(DEFAULT_BINS, diversity_score(g)) == "ID"
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
    for rule in DEFAULT_RULES:
        after = urban_step(g, rule.action)
        assert len(after.cells) == len(g.cells)
        assert sum(after.count(c) for c in "ROGCFE") == g.width * g.height


def test_unknown_action_rejected():
    with pytest.raises(ValueError, match="unknown action"):
        urban_step(grid(["GG"]), "convert-lava")


def test_rules_cover_every_land_use():
    assert sorted(r.source for r in DEFAULT_RULES) == sorted("CFGOR")


# ---------------------------------------------------------------------------
# urban: grids, serialisation, rendering
# ---------------------------------------------------------------------------


def test_grid_validation():
    with pytest.raises(ValueError, match="dimensions"):
        UrbanGrid(width=0, height=2, cells=())
    with pytest.raises(ValueError, match="cell codes"):
        grid(["GX"])
    with pytest.raises(ValueError):
        UrbanGrid(width=2, height=2, cells=("G", "G"))


def test_grid_json_roundtrip():
    # the JSON form is plain data with one string per row
    doc = json.loads('{"width": 3, "height": 2, "rows": ["GRO", "CFE"], "counter": 4}')
    g = grid_from_json(doc)
    assert g == UrbanGrid(width=3, height=2, cells=tuple("GROCFE"), counter=4)
    assert render_grid(g).splitlines() == doc["rows"]
    assert grid_from_json({"width": 1, "height": 1, "rows": ["G"]}).counter == 0


def test_grid_json_rejects_mismatched_rows():
    with pytest.raises(ValueError):
        grid_from_json({"width": 3, "height": 2, "rows": ["GG", "GG"], "counter": 0})


def test_bundled_grid_composition():
    g = bundled_grid()
    assert (g.width, g.height) == (6, 6)
    counts = {c: g.count(c) for c in "GROCFE"}
    assert counts == {"G": 10, "R": 9, "O": 4, "C": 4, "F": 3, "E": 6}
    assert bin_label(DEFAULT_BINS, sustainability_score(g)) == "H"
    assert bin_label(DEFAULT_BINS, diversity_score(g)) == "ID"


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
    assert sim.legal_actions(state) == []


def test_urban_propositions_one_bin_per_family():
    sim = UrbanSimulator(bundled_grid())
    state = sim.initial()
    for _ in range(3):
        props = sim.propositions(state)
        assert set(props) == set(sim.alphabet)
        s_bins = [a for a in props if a.endswith("_S") and props[a]]
        d_bins = [a for a in props if a.endswith("_D") and props[a]]
        assert len(s_bins) == 1 and len(d_bins) == 1
        assert props["l-reached"] == sim.is_goal(state)
        state = sim.step(state, "convert-residential")


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
    ],
)
def test_parse_level_rejects_malformed_maps(rows, message):
    with pytest.raises(LevelFormatError, match=message):
        lvl(rows)


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


def test_digest_ignores_the_tick():
    sim = PlatformerSimulator(bundled_level())
    a = run(sim, ["noop"])[-1]
    b = run(sim, ["noop", "noop"])[-1]
    assert a != b  # ticks differ
    assert sim.digest(a) == sim.digest(b)


def test_platformer_space_orders_killed_first():
    space = platformer_space()
    assert space.size == 2
    (feature,) = space.features
    assert list(feature.domain) == ["killed", "avoided"]


# ---------------------------------------------------------------------------
# story and tiny instances
# ---------------------------------------------------------------------------


def test_story_pack_is_fully_ground():
    problem, feature = story_pack()
    assert len(problem.actions) == 210
    assert len(feature.domain) == 2**20  # 20 two-valued goal fluents


def test_tiny_story_pack_is_small():
    problem, feature = tiny_story_pack()
    assert len(problem.actions) == 4
    assert len(feature.domain) == 2**2


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
    assert get_domain("urban").kind == "simulator"
    assert get_domain("story").kind == "declarative"
    with pytest.raises(KeyError, match="platformer"):
        get_domain("no-such-domain")
