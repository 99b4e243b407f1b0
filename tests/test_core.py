import copy
import gc
import json
import pickle
import weakref
from dataclasses import replace

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
    load_problem,
    problem_from_json,
    record_of,
    validate_plan,
)
from oracles import enumerate_plans


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
    assert Fluent.parse("p()") == Fluent("p")


def test_fluent_canonical_lowercase():
    assert Fluent("At", ("Aladdin", "CASTLE")) == Fluent("at", ("aladdin", "castle"))
    assert Fluent.parse("At( Aladdin , Castle )") == fl("at(aladdin,castle)")


def test_fluent_rejects_garbage():
    # empty or spaced arguments, and a name whose "\u0130" lowercases to "i"
    # plus a combining dot, which would not read back from the fluent's str
    garbage = ["p(,)", "p(a,,b)", "p(a,)", "q(a, b c)", "q(a\tb)", "a\u0130(x)"]
    for text in ["", "p(", "p)q", "(x)", "p(a,(b))"] + garbage:
        with pytest.raises(ValueError):
            Fluent.parse(text)


def test_fluent_ordering_is_total():
    fs = [fl("b"), fl("a(x)"), fl("a"), fl("a(w,z)")]
    assert sorted(fs) == [fl("a"), fl("a(w,z)"), fl("a(x)"), fl("b")]


_NAMES = st.text("abAB_-", min_size=1, max_size=3).filter(lambda t: t[0] not in "-")
_ARGS = st.lists(st.text("xyXY0", min_size=1, max_size=3), max_size=3)


@given(name=_NAMES, args=_ARGS)
def test_a_fluent_is_its_lowercased_name_and_args_tuple(name, args):
    # a Fluent equals the plain (name, args) tuple and hashes as it does,
    # which is also how the frozen dataclass it replaced hashed: sets of
    # fluents iterate, and reports list them, as before
    f = Fluent(name, args)
    key = (name.lower(), tuple(a.lower() for a in args))
    assert f == key and tuple(f) == key and type(f.args) is tuple
    assert (f.name, f.args) == key
    assert hash(f) == hash(key)
    assert Fluent.parse(str(f)) == f


@given(fluents=st.lists(st.builds(Fluent, _NAMES, _ARGS), max_size=6))
def test_fluents_sort_by_name_then_args(fluents):
    assert sorted(fluents) == sorted(fluents, key=lambda f: (f.name, f.args))


def test_fluent_repr_names_its_fields():
    assert repr(Fluent("At", ["Genie", "Cave"])) == "Fluent(name='at', args=('genie', 'cave'))"
    assert repr(Fluent("p")) == "Fluent(name='p', args=())"


# -- actions and goals ---------------------------------------------------------

def test_action_add_delete_overlap_rejected():
    message = "^action bad: add and delete effects overlap$"
    with pytest.raises(ValueError, match=message):
        GroundAction("bad", add=frozenset({P}), delete=frozenset({P}))
    with pytest.raises(ValueError, match=message):
        GroundAction("bad", frozenset(), frozenset(), frozenset({P, G1}), frozenset({P}))


_PARTS = st.frozensets(st.sampled_from([P, G1, G2]), max_size=2)
_ACTIONS = st.builds(
    lambda name, pre_pos, pre_neg, add, delete: GroundAction(
        name, pre_pos, pre_neg, add, delete - add
    ),
    st.sampled_from(["a", "b"]), _PARTS, _PARTS, _PARTS, _PARTS,
)


def _action_fields(a):
    return (a.name, a.pre_pos, a.pre_neg, a.add, a.delete)


@given(a=_ACTIONS, b=_ACTIONS)
def test_actions_are_equal_exactly_when_their_fields_are(a, b):
    # a GroundAction is the plain tuple of its fields, and hashes as the
    # frozen dataclass it replaced did: as that tuple
    assert (a == b) == (_action_fields(a) == _action_fields(b))
    assert a == _action_fields(a) and hash(a) == hash(_action_fields(a))
    if a == b:
        assert hash(a) == hash(b)
    assert (Plan((a, b)) == Plan((b, a))) == (a == b)
    assert hash(Plan((a, b))) == hash(((a, b),))


def test_plans_compare_and_hash_by_their_action_sequence():
    twin = GroundAction("turn-on", pre_neg=frozenset({fl("p")}), add=frozenset({fl("p")}))
    assert twin == ON and twin is not ON
    assert Plan((twin, OFF)) == Plan((ON, OFF)) != Plan((OFF, ON))
    assert hash(Plan((twin, OFF))) == hash(Plan((ON, OFF)))
    assert len({Plan((ON, OFF)), Plan((twin, OFF)), Plan((OFF, ON))}) == 2
    assert Plan((ON, OFF)).labels() == ("turn-on", "turn-off")


@pytest.mark.parametrize("action", [ON, OFF, GroundAction("noop")], ids=str)
def test_an_action_copies_and_pickles_to_an_equal_action(action):
    copies = [copy.copy(action), copy.deepcopy(action)] + [
        pickle.loads(pickle.dumps(action, protocol))
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1)
    ]
    for twin in copies:
        assert type(twin) is GroundAction
        assert twin == action and hash(twin) == hash(action)
        assert _action_fields(twin) == _action_fields(action)


def test_an_action_prints_as_its_name():
    assert str(ON) == "turn-on"
    assert str(GroundAction("move(aladdin,castle)")) == "move(aladdin,castle)"
    assert repr(GroundAction("noop")) == (
        "GroundAction(name='noop', pre_pos=frozenset(), pre_neg=frozenset(), "
        "add=frozenset(), delete=frozenset())"
    )


def test_the_universe_check_names_the_first_action_outside_it():
    problem = problem_from_json({
        "actions": [
            {"name": "inside", "add": ["g"]},
            {"name": "second", "pre": ["!x"], "add": ["g"]},
            {"name": "third", "add": ["y"]},
        ],
        "init": [],
        "goal": [["g"]],
    })
    with pytest.raises(ValueError, match="^action second uses fluents outside the universe$"):
        replace(problem, fluents=frozenset({fl("g")}))


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
    assert prob.budget is None
    assert prob.goal.disjuncts == (((fl("q"), True), (fl("p"), False)),)
    trace = validate_plan(prob, Plan((act,)))
    assert trace.final_state == frozenset({fl("q")})


def test_problem_json_ignores_an_action_cost():
    # actions carry no cost, so the key is read no more than any unknown key
    doc = {"actions": [{"name": "a", "add": ["p"]}], "init": [], "goal": [["p"]]}
    costed = copy.deepcopy(doc)
    costed["actions"][0]["cost"] = "x"
    assert problem_from_json(costed) == problem_from_json(doc)


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


def _fluent_text(names, args):
    return st.builds(
        lambda name, args, sep: f"{name}({sep.join(args)})" if args else name,
        st.sampled_from(names), st.lists(st.sampled_from(args), max_size=3),
        st.sampled_from([",", ", ", " ,"]),
    )


# fluent texts: one in eight is any text, one in eight a near miss whose
# name holds a non-ASCII capital or whose arguments are empty or spaced
_fluent_texts = st.integers(0, 7).flatmap(
    lambda roll: st.text(max_size=6) if roll == 0
    else _fluent_text(["p", "a\u0130"], ["a", "", " ", "b c", "a\t"]) if roll == 1
    else _fluent_text(["p", "At", "has_x-1"], ["a", "B", "x-1", "\u0130"])
)
_strings = st.lists(_fluent_texts, max_size=3)
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 4) | st.floats() | _fluent_texts,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["name", "add", "x"]), inner, max_size=2),
    max_leaves=6,
)
_actions_json = st.lists(
    st.fixed_dictionaries(
        {"name": st.sampled_from(["a", "b", "c"])},
        optional={"pre": _strings, "add": _strings, "del": _strings, "cost": _json_values},
    ),
    max_size=3,
    unique_by=lambda action: action["name"],
)


@st.composite
def _problem_docs(draw):
    """A problem-JSON document; one in five has a key, or one action's key,
    holding a JSON value of any shape."""
    doc = draw(
        st.fixed_dictionaries(
            {
                "actions": _actions_json,
                "init": _strings,
                "goal": st.lists(_strings, min_size=1, max_size=2),
            },
            optional={"fluents": _strings, "budget": st.none() | st.integers(0, 5)},
        )
    )
    if draw(st.integers(0, 4)) == 0:
        target = doc
        if doc["actions"] and draw(st.booleans()):
            target = draw(st.sampled_from(doc["actions"]))
        target[draw(st.sampled_from(sorted(target)))] = draw(_json_values)
    return doc


@given(doc=_problem_docs())
def test_problem_json_loads_or_raises_its_documented_error(doc):
    # load_problem turns exactly these two into one ProblemFormatError line
    try:
        problem = problem_from_json(doc)
    except (KeyError, ValueError):
        return
    for f in problem.fluents:
        assert all(arg and not any(c.isspace() for c in arg) for arg in f.args)
        assert Fluent.parse(str(f)) == f


# -- record_of: the per-object records both backends keep ------------------------


def test_record_of_keys_by_identity_and_dies_with_its_object():
    records, problem = {}, toggle_problem()
    record = record_of(records, problem, list)
    assert record_of(records, problem, list) is record
    twin = copy.copy(problem)
    assert twin == problem and record_of(records, twin, list) is not record
    assert len(records) == 2
    gc.disable()  # the entry goes when the object dies, not at a collection
    try:
        del problem
        assert len(records) == 1
    finally:
        gc.enable()


class Slotted:
    __slots__ = ()


def test_record_of_an_object_without_weak_references_is_per_call():
    records, obj = {}, Slotted()
    with pytest.raises(TypeError):
        weakref.ref(obj)
    first = record_of(records, obj, list)
    assert record_of(records, obj, list) is not first
    assert records == {}
