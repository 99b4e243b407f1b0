import os
import random
from types import SimpleNamespace

import pytest

from divplan import bspace
from divplan.bspace import (
    DEFAULT_BINS,
    Behaviour,
    BehaviourSpace,
    ExplicitDomain,
    ExtractorRangeError,
    Feature,
    GoalAssignment,
    SpaceConfigError,
    SpaceTooLarge,
    SubsetDomain,
    TemporalFormula,
    bin_label,
    categorical_score_feature,
    enumerate_cells,
    goal_endings_feature,
    ltl_feature,
    pbehaviour,
    space_from_json,
)
from divplan.core import Fluent, Plan, PlanTrace, validate_plan
from divplan.ltl import Always, Atom, Eventually, TRUE, eval_finite, parse_formula
from divplan.pddl import ground, load_domain, load_problem_file
from oracles import bdc, enumerate_plans, random_formula

DATA = os.path.join(os.path.dirname(__file__), "..", "src", "divplan", "domains", "data")


@pytest.fixture(scope="module")
def tiny_story():
    d = load_domain(os.path.join(DATA, "story-tiny-domain.pddl"))
    p = load_problem_file(os.path.join(DATA, "story-tiny-problem.pddl"), d)
    return ground(d, p)


def trace_with_valuations(valuations):
    states = tuple(frozenset() for _ in valuations)
    return PlanTrace(
        plan=Plan(tuple(f"a{i}" for i in range(len(valuations) - 1))),
        states=states,
        valuations=tuple(valuations),
    )


# -- bins ------------------------------------------------------------------------

def test_default_bins_cover_0_to_100():
    # a partition of [0, 100]: contiguous, non-empty bins with unique labels
    assert DEFAULT_BINS[0].lower == 0 and DEFAULT_BINS[-1].upper == 100
    for prev, cur in zip(DEFAULT_BINS, DEFAULT_BINS[1:]):
        assert prev.upper == cur.lower
    assert all(b.lower < b.upper for b in DEFAULT_BINS)
    assert len({b.label for b in DEFAULT_BINS}) == len(DEFAULT_BINS)
    assert bin_label(0) == "VL"
    assert bin_label(15) == "VL"
    assert bin_label(20) == "VL"
    assert bin_label(25) == "L"
    assert bin_label(30) == "L"
    assert bin_label(50) == "M"
    assert bin_label(60) == "H"
    assert bin_label(90) == "VH"
    assert bin_label(95) == "ID"
    assert bin_label(100) == "ID"


def test_score_out_of_range_is_an_error():
    with pytest.raises(ExtractorRangeError):
        bin_label(101)
    with pytest.raises(ExtractorRangeError):
        bin_label(-1)


# -- domains ----------------------------------------------------------------------

def test_subset_domain_is_lazy_and_ordered():
    base = (Fluent("p"), Fluent("q"))
    dom = SubsetDomain(base)
    assert len(dom) == 4
    listed = list(dom)
    assert listed[0] == frozenset()
    assert set(listed) == {
        frozenset(),
        frozenset({Fluent("p")}),
        frozenset({Fluent("q")}),
        frozenset({Fluent("p"), Fluent("q")}),
    }
    assert frozenset({Fluent("p")}) in dom
    assert frozenset({Fluent("zz")}) not in dom
    assert list(dom) == listed  # deterministic


def test_explicit_domain_rejects_duplicates():
    with pytest.raises(ValueError):
        ExplicitDomain(("x", "x"))
    with pytest.raises(ValueError):
        ExplicitDomain(())


# -- extraction and counting --------------------------------------------------------

def constant_feature(value="c"):
    return Feature(
        name="const",
        domain=ExplicitDomain((value,)),
        extractor=lambda trace: value,
        expression=TemporalFormula(((value, Atom("x")),)),
    )


def test_pbehaviour_constant_feature():
    space = BehaviourSpace((constant_feature(),))
    t = trace_with_valuations([{"x": True}])
    assert pbehaviour(space, t) == Behaviour(("c",))


def test_pbehaviour_range_check():
    bad = Feature(
        name="bad",
        domain=ExplicitDomain(("only",)),
        extractor=lambda trace: "other",
        expression=TemporalFormula((("only", Atom("x")),)),
    )
    with pytest.raises(ExtractorRangeError):
        pbehaviour(BehaviourSpace((bad,)), trace_with_valuations([{"x": True}]))


def test_bdc_counts_distinct_behaviours(tiny_story):
    feature = goal_endings_feature(tiny_story)
    space = BehaviourSpace((feature,))
    traces = [validate_plan(tiny_story, p) for p in enumerate_plans(tiny_story, 4)]
    assert bdc(space, []) == 0
    assert bdc(space, traces[:1]) == 1
    assert bdc(space, traces[:1] * 5) == 1  # duplicates don't count
    full = bdc(space, traces)
    assert full == 3  # either single marriage, or both
    assert full <= min(len(traces), space.size)
    # monotone under union
    assert bdc(space, traces[:3]) <= full


def test_goal_endings_extractor_satisfies_goal(tiny_story):
    feature = goal_endings_feature(tiny_story)
    for plan in enumerate_plans(tiny_story, 4):
        trace = validate_plan(tiny_story, plan)
        subset = feature.extractor(trace)
        state = frozenset(subset)
        assert tiny_story.goal.satisfied_by(state)
        assert subset in feature.domain


def test_goal_endings_assignment_expression(tiny_story):
    feature = goal_endings_feature(tiny_story)
    assert isinstance(feature.expression, GoalAssignment)
    m_ab = Fluent("married-to", ("ala", "jas"))
    m_ba = Fluent("married-to", ("jas", "ala"))
    assignment = feature.expression.assignment_for(frozenset({m_ab}))
    assert assignment == {m_ab: True, m_ba: False}
    with pytest.raises(ExtractorRangeError):
        feature.expression.assignment_for(frozenset({Fluent("bogus")}))


def test_goal_endings_requires_nontrivial_goal(tiny_story):
    from divplan.core import GoalFormula, GroundProblem

    trivial = GroundProblem(
        fluents=tiny_story.fluents,
        actions=tiny_story.actions,
        init=tiny_story.init,
        goal=GoalFormula.trivial(),
    )
    with pytest.raises(ValueError):
        goal_endings_feature(trivial)


# -- categorical score features ------------------------------------------------------

def test_categorical_feature_bins_and_horizon_value():
    scores = iter([15.0, 25.0, 95.0, None])
    feat = categorical_score_feature("s", lambda trace: next(scores), atom_suffix="S")
    t = trace_with_valuations([{"x": True}])
    assert feat.extractor(t) == "VL"
    assert feat.extractor(t) == "L"
    assert feat.extractor(t) == "ID"
    assert feat.extractor(t) == "l-reached"
    assert list(feat.domain) == ["VL", "L", "M", "H", "VH", "ID", "l-reached"]


def test_categorical_feature_expressions():
    feat = categorical_score_feature("s", lambda trace: 50.0, atom_suffix="S")
    assert feat.expression.formula_for("VL") == Eventually(Always(Atom("VL_S")))
    horizon = feat.expression.formula_for("l-reached")
    assert isinstance(horizon, Eventually) and isinstance(horizon.arg, Always)
    body = horizon.arg.arg
    text_atoms = set()
    stack = [body]
    while stack:
        node = stack.pop()
        if isinstance(node, Atom):
            text_atoms.add(node.name)
        elif hasattr(node, "arg"):
            stack.append(node.arg)
        else:
            stack.extend([node.left, node.right])
    assert text_atoms == {"l-reached", "VL_S", "L_S", "M_S", "H_S", "VH_S", "ID_S"}


# -- ltl features ---------------------------------------------------------------------

def killed_avoided_feature():
    return ltl_feature(
        "enemy",
        [
            ("killed", parse_formula("FG killed")),
            ("avoided", parse_formula("G avoided")),
        ],
    )


def test_ltl_feature_extracts_first_match():
    feat = killed_avoided_feature()
    killed_trace = trace_with_valuations(
        [{"killed": False, "avoided": True}, {"killed": True, "avoided": True}]
    )
    avoided_trace = trace_with_valuations(
        [{"killed": False, "avoided": True}, {"killed": False, "avoided": True}]
    )
    assert feat.extractor(killed_trace) == "killed"
    assert feat.extractor(avoided_trace) == "avoided"


def test_ltl_feature_needs_valuations(tiny_story):
    feat = killed_avoided_feature()
    trace = validate_plan(tiny_story, enumerate_plans(tiny_story, 3)[0])
    with pytest.raises(ExtractorRangeError):
        feat.extractor(trace)


def test_ltl_feature_no_match_is_an_error():
    feat = killed_avoided_feature()
    t = trace_with_valuations([{"killed": False, "avoided": False}])
    with pytest.raises(ExtractorRangeError):
        feat.extractor(t)


def test_ltl_search_formulas_pick_the_extracted_value():
    # with overlapping value formulas, exactly the value first-match
    # extraction returns has a search formula that holds, and none when no
    # value's formula holds
    rng = random.Random(15)
    leaves = (Atom("p"), Atom("q"), TRUE)
    for _ in range(400):
        pairs = [(f"v{j}", random_formula(rng, rng.randrange(3), leaves))
                 for j in range(rng.randint(1, 4))]
        feat = ltl_feature("f", pairs)
        trace = trace_with_valuations([
            {"p": rng.random() < 0.5, "q": rng.random() < 0.5}
            for _ in range(rng.randint(1, 5))
        ])
        holding = [
            value for value, formula in feat.expression.formulas
            if eval_finite(formula, trace.valuations)
        ]
        try:
            assert holding == [feat.extractor(trace)], pairs
        except ExtractorRangeError:
            assert holding == [], pairs


# -- spaces ------------------------------------------------------------------------

def test_space_size_and_unique_names():
    f1 = constant_feature()
    f2 = ltl_feature("x", [("v", Atom("x"))])
    assert BehaviourSpace((f1, f2)).size == 1 * 1
    with pytest.raises(ValueError):
        BehaviourSpace((f1, f1))
    with pytest.raises(ValueError):
        BehaviourSpace(())


def test_enumerate_cells_product_order():
    f1 = ltl_feature("ab", [("a", Atom("x")), ("b", Atom("y"))])
    f2 = ltl_feature("nums", [(1, Atom("x")), (2, Atom("y")), (3, Atom("x"))])
    space = BehaviourSpace((f1, f2))
    cells = list(enumerate_cells(space))
    assert len(cells) == 6
    assert cells[0] == Behaviour(("a", 1))
    assert cells[1] == Behaviour(("a", 2))
    assert cells[-1] == Behaviour(("b", 3))
    assert len(set(cells)) == 6


def test_enumerate_cells_single_feature():
    space = BehaviourSpace((killed_avoided_feature(),))
    assert [c.values for c in enumerate_cells(space)] == [("killed",), ("avoided",)]


def test_enumerate_cells_cap(tiny_story, monkeypatch):
    space = BehaviourSpace((goal_endings_feature(tiny_story),))
    assert len(list(enumerate_cells(space))) == 4
    monkeypatch.setattr(bspace, "CELL_CAP", 3)
    with pytest.raises(SpaceTooLarge):
        list(enumerate_cells(space))


# -- JSON configuration ----------------------------------------------------------------

# a subject whose score registry holds one score that is always 50
SCORED = SimpleNamespace(
    scores={"sustainability": lambda name: categorical_score_feature(
        name, lambda t: 50.0, atom_suffix="S"
    )}
)
ENEMY_LTL = {
    "kind": "ltl",
    "name": "enemy",
    "values": [
        {"value": "killed", "formula": "FG killed"},
        {"value": "avoided", "formula": "G avoided"},
    ],
}


def test_space_from_json_all_kinds(tiny_story):
    # goal-endings needs a ground problem and categorical-score a score
    # registry, which no one subject has, so the three kinds take two spaces
    doc = {"features": [{"kind": "goal-endings"}, ENEMY_LTL]}
    space = space_from_json(doc, tiny_story)
    assert [f.name for f in space.features] == ["possible-endings", "enemy"]
    assert space.size == 4 * 2
    scores = {"kind": "categorical-score", "name": "s", "score": "sustainability"}
    space = space_from_json({"features": [scores, ENEMY_LTL]}, SCORED)
    assert [f.name for f in space.features] == ["s", "enemy"]
    assert space.size == 7 * 2
    assert space.features[0].extractor(trace_with_valuations([{}])) == "M"


def test_space_from_json_errors(tiny_story):
    with pytest.raises(SpaceConfigError):
        space_from_json({"features": [{"kind": "goal-endings"}]})
    with pytest.raises(SpaceConfigError):
        space_from_json({"features": [{"kind": "goal-endings"}]}, SCORED)
    with pytest.raises(SpaceConfigError):
        space_from_json(
            {"features": [{"kind": "categorical-score", "name": "x", "score": "nope"}]},
            SCORED,
        )
    with pytest.raises(SpaceConfigError):
        space_from_json(
            {"features": [{"kind": "categorical-score", "name": "x",
                           "score": "sustainability"}]},
            tiny_story,
        )
    with pytest.raises(SpaceConfigError):
        space_from_json({"features": [{"kind": "mystery"}]})
    with pytest.raises(SpaceConfigError):
        space_from_json({"features": [{"kind": "ltl", "name": "x", "values": []}]})


@pytest.mark.parametrize(
    "key, value", [("bins", [["LO", 0, 50], ["HI", 50, 100]]), ("suffix", "S")]
)
def test_space_from_json_refuses_bins_and_suffix(key, value):
    # the score's registry entry fixes both; a file may not restate them
    entry = {"kind": "categorical-score", "name": "s", "score": "sustainability"}
    with pytest.raises(SpaceConfigError, match=f"'features\\[0\\].{key}'"):
        space_from_json({"features": [{**entry, key: value}]}, SCORED)
