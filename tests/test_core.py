import json

import pytest
from hypothesis import given, strategies as st

from divplan.core import (
    BudgetExceeded,
    Fluent,
    GoalFormula,
    GoalNotSatisfied,
    GroundAction,
    GroundProblem,
    InapplicableAction,
    Plan,
    applicable,
    apply,
    enumerate_plans,
    load_problem,
    plan_cost,
    problem_from_json,
    validate_plan,
)


def fl(text):
    return Fluent.parse(text)


# -- small fixed problems ------------------------------------------------------

P = fl("p")
ON = GroundAction("turn-on", pre_neg=frozenset({P}), add=frozenset({P}))
OFF = GroundAction("turn-off", pre_pos=frozenset({P}), delete=frozenset({P}))


def toggle_problem(budget=None):
    return GroundProblem(
        fluents=frozenset({P}),
        actions=(ON, OFF),
        init=frozenset(),
        goal=GoalFormula.conjunction([(P, True)]),
        budget=budget,
    )


G1, G2 = fl("g1"), fl("g2")
DO1 = GroundAction("do1", add=frozenset({G1}))
DO2 = GroundAction("do2", add=frozenset({G2}))


def choice_problem():
    return GroundProblem(
        fluents=frozenset({G1, G2}),
        actions=(DO1, DO2),
        init=frozenset(),
        goal=GoalFormula((((G1, True),), ((G2, True),))),
    )


# -- fluents -------------------------------------------------------------------

def test_fluent_parse_and_str_roundtrip():
    for text in ["p", "at(aladdin,castle)", "married-to(a,b)", "has_lamp(genie)"]:
        f = Fluent.parse(text)
        assert str(f) == text
        assert Fluent.parse(str(f)) == f


def test_fluent_canonical_lowercase():
    assert Fluent("At", ("Aladdin", "CASTLE")) == Fluent("at", ("aladdin", "castle"))
    assert Fluent.parse("At( Aladdin , Castle )") == fl("at(aladdin,castle)")


def test_fluent_rejects_garbage():
    for text in ["", "p(", "p)q", "(x)", "p(a,(b))"]:
        with pytest.raises(ValueError):
            Fluent.parse(text)


def test_fluent_ordering_is_total():
    fs = [fl("b"), fl("a(x)"), fl("a"), fl("a(w,z)")]
    assert sorted(fs) == [fl("a"), fl("a(w,z)"), fl("a(x)"), fl("b")]


# -- actions and goals ---------------------------------------------------------

def test_action_add_delete_overlap_rejected():
    with pytest.raises(ValueError):
        GroundAction("bad", add=frozenset({P}), delete=frozenset({P}))


def test_action_negative_cost_rejected():
    with pytest.raises(ValueError):
        GroundAction("bad", cost=-1.0)


def test_goal_dnf_semantics():
    goal = GoalFormula((((G1, True), (G2, False)), ((G2, True),)))
    assert goal.satisfied_by(frozenset({G1}))
    assert goal.satisfied_by(frozenset({G2}))
    assert goal.satisfied_by(frozenset({G1, G2}))  # second disjunct
    assert not goal.satisfied_by(frozenset())


def test_goal_trivial_and_fluents():
    assert GoalFormula.trivial().is_trivial()
    assert GoalFormula.trivial().satisfied_by(frozenset())
    goal = GoalFormula((((G1, True),), ((G2, False),)))
    assert goal.fluents() == frozenset({G1, G2})
    with pytest.raises(ValueError):
        GoalFormula(())


def test_problem_validation():
    with pytest.raises(ValueError):  # init outside universe
        GroundProblem(frozenset(), (), frozenset({P}), GoalFormula.trivial())
    with pytest.raises(ValueError):  # duplicate action names
        GroundProblem(
            frozenset({P}),
            (GroundAction("a", add=frozenset({P})), GroundAction("a")),
            frozenset(),
            GoalFormula.trivial(),
        )
    with pytest.raises(ValueError):  # non-positive budget
        GroundProblem(frozenset(), (), frozenset(), GoalFormula.trivial(), budget=0)


# -- state transitions ---------------------------------------------------------

def test_apply_semantics():
    s0 = frozenset()
    assert applicable(s0, ON) and not applicable(s0, OFF)
    s1 = apply(s0, ON)
    assert s1 == frozenset({P})
    assert applicable(s1, OFF) and not applicable(s1, ON)
    assert apply(s1, OFF) == frozenset()
    with pytest.raises(InapplicableAction):
        apply(s0, OFF)


def test_validate_plan_trace_and_errors():
    prob = toggle_problem(budget=3)
    trace = validate_plan(prob, Plan((ON, OFF, ON)))
    assert trace.states == (
        frozenset(),
        frozenset({P}),
        frozenset(),
        frozenset({P}),
    )
    assert trace.final_state == frozenset({P})

    with pytest.raises(GoalNotSatisfied):
        validate_plan(prob, Plan((ON, OFF)))
    with pytest.raises(BudgetExceeded):
        validate_plan(prob, Plan((ON, OFF, ON, OFF)))
    err = None
    try:
        validate_plan(prob, Plan((ON, ON)))
    except InapplicableAction as e:
        err = e
    assert err is not None and err.index == 1


def test_plan_cost_mixes_actions_and_labels():
    assert plan_cost(Plan((ON, "mystery", OFF))) == 3.0
    assert plan_cost(Plan()) == 0.0
    cheap = GroundAction("cheap", cost=0.25)
    assert plan_cost(Plan((cheap, cheap))) == 0.5


# -- plan enumeration oracle ---------------------------------------------------
# The expected plan sets below were worked out by hand; they pin down both
# membership and the (length, action-index) ordering.

def test_enumerate_toggle_hand_checked():
    prob = toggle_problem()
    assert enumerate_plans(prob, 0) == []
    assert enumerate_plans(prob, 2) == [Plan((ON,))]
    assert enumerate_plans(prob, 4) == [Plan((ON,)), Plan((ON, OFF, ON))]
    assert enumerate_plans(prob, 5) == [
        Plan((ON,)),
        Plan((ON, OFF, ON)),
        Plan((ON, OFF, ON, OFF, ON)),
    ]


def test_enumerate_choice_hand_checked():
    prob = choice_problem()
    assert enumerate_plans(prob, 1) == [Plan((DO1,)), Plan((DO2,))]
    # every length-2 sequence also ends in a goal state
    assert enumerate_plans(prob, 2) == [
        Plan((DO1,)),
        Plan((DO2,)),
        Plan((DO1, DO1)),
        Plan((DO1, DO2)),
        Plan((DO2, DO1)),
        Plan((DO2, DO2)),
    ]


def test_enumerate_respects_budget():
    prob = toggle_problem(budget=2)
    assert enumerate_plans(prob, 5) == [Plan((ON,))]


def test_enumerate_is_deterministic():
    prob = choice_problem()
    assert enumerate_plans(prob, 3) == enumerate_plans(prob, 3)


# -- JSON format ---------------------------------------------------------------

TOGGLE_DOC = {
    "fluents": ["p"],
    "actions": [
        {"name": "turn-on", "pre": ["!p"], "add": ["p"], "del": [], "cost": 1},
        {"name": "turn-off", "pre": ["p"], "add": [], "del": ["p"], "cost": 1},
    ],
    "init": [],
    "goal": [["p"]],
    "budget": 4,
}


def test_problem_json_roundtrip(tmp_path):
    prob = toggle_problem(budget=4)
    back = problem_from_json(TOGGLE_DOC)
    assert back.init == prob.init
    assert back.goal == prob.goal
    assert back.budget == prob.budget
    assert back.actions == prob.actions
    assert back.fluents == prob.fluents

    path = tmp_path / "toggle.json"
    path.write_text(json.dumps(TOGGLE_DOC))
    assert load_problem(str(path)) == back


def test_problem_json_signed_literals_and_defaults():
    doc = {
        "actions": [
            {"name": "a", "pre": ["p", "!q"], "add": ["q"], "del": ["p"]},
        ],
        "init": ["p"],
        "goal": [["q", "!p"]],
    }
    prob = problem_from_json(doc)
    act = prob.action("a")
    assert act.pre_pos == frozenset({fl("p")})
    assert act.pre_neg == frozenset({fl("q")})
    assert act.cost == 1.0
    assert prob.budget is None
    assert prob.goal.disjuncts == (((fl("q"), True), (fl("p"), False)),)
    trace = validate_plan(prob, Plan((act,)))
    assert trace.final_state == frozenset({fl("q")})


def test_problem_json_is_plain_data():
    # JSON text of plain lists and strings reads back to the problem
    text = json.dumps(
        {
            "actions": [{"name": "do1", "add": ["g1"]}, {"name": "do2", "add": ["g2"]}],
            "init": [],
            "goal": [["g1"], ["g2"]],
        }
    )
    assert problem_from_json(json.loads(text)) == choice_problem()


# -- properties ----------------------------------------------------------------

_POOL = [Fluent(f"f{i}") for i in range(6)]
_fluent_sets = st.frozensets(st.sampled_from(_POOL), max_size=4)


@st.composite
def _actions(draw):
    add = draw(_fluent_sets)
    delete = draw(_fluent_sets.map(lambda s: s - add))
    return GroundAction(
        name=draw(st.text("ab", min_size=1, max_size=3)),
        pre_pos=draw(_fluent_sets),
        pre_neg=draw(_fluent_sets),
        add=add,
        delete=delete,
    )


@given(state=_fluent_sets, action=_actions())
def test_apply_frame_property(state, action):
    if not applicable(state, action):
        return
    succ = apply(state, action)
    assert succ <= state | action.add
    for f in _POOL:
        if f not in action.add and f not in action.delete:
            assert (f in succ) == (f in state)
        elif f in action.add:
            assert f in succ
        else:
            assert f not in succ


@given(state=_fluent_sets, action=_actions())
def test_applicable_matches_precondition_definition(state, action):
    expected = action.pre_pos <= state and not (action.pre_neg & state)
    assert applicable(state, action) == expected
