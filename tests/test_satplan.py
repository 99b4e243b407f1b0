import copy
import gc
import hashlib
import os
import textwrap
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from divplan.bspace import (
    BehaviourSpace,
    ExplicitDomain,
    Feature,
    SpaceConfigError,
    TemporalFormula,
    goal_endings_feature,
    pbehaviour,
)
from divplan.core import (
    Fluent,
    GeneratorTimeout,
    apply,
    applicable,
    GoalFormula,
    GroundAction,
    GroundProblem,
    Plan,
    validate_plan,
)
from divplan.domains import get_domain
from divplan.fbi import fbi
from divplan.ltl import TRUE
from divplan.pddl import ground, load_domain, load_problem_file, parse_problem
from divplan.satplan import (
    CnfTask,
    HorizonMismatch,
    MalformedModel,
    ResourceLimit,
    Solver,
    behaviour_generator_sat,
    decode,
    encode,
    forbid_behaviour,
    forbid_plan,
    generators,
    plan_generator_sat,
    solve_task,
)
import oracles
from oracles import choice_problem, enumerate_plans, goal_ending_cells

DATA = os.path.join(os.path.dirname(__file__), "..", "src", "divplan", "domains", "data")

ON = Fluent("on")


def toggle_problem(goal_on=True):
    return GroundProblem(
        fluents=frozenset([ON]),
        actions=(
            GroundAction("turn-on", pre_neg=frozenset([ON]), add=frozenset([ON])),
            GroundAction("turn-off", pre_pos=frozenset([ON]), delete=frozenset([ON])),
        ),
        init=frozenset(),
        goal=GoalFormula.conjunction([(ON, goal_on)]),
    )


def two_switch_problem():
    """Two independent switches; goal: both on. Exactly two length-2 plans."""
    a, b = Fluent("a"), Fluent("b")
    return GroundProblem(
        fluents=frozenset([a, b]),
        actions=(
            GroundAction("set-a", pre_neg=frozenset([a]), add=frozenset([a])),
            GroundAction("set-b", pre_neg=frozenset([b]), add=frozenset([b])),
        ),
        init=frozenset(),
        goal=GoalFormula.conjunction([(a, True), (b, True)]),
    )


def one_action_problem():
    """A single repeatable action; goal: its effect. One plan per horizon >= 1."""
    done = Fluent("done")
    return GroundProblem(
        fluents=frozenset([done]),
        actions=(GroundAction("tick", add=frozenset([done])),),
        init=frozenset(),
        goal=GoalFormula.conjunction([(done, True)]),
    )


def parallel_actions_problem(n):
    """n actions, all applicable at step 0, each setting its own fluent."""
    fluents = [Fluent(f"f{i}") for i in range(n)]
    return GroundProblem(
        fluents=frozenset(fluents),
        actions=tuple(GroundAction(f"a{i}", add=frozenset([f])) for i, f in enumerate(fluents)),
        init=frozenset(),
        goal=GoalFormula.trivial(),
    )


def _fresh_tiny_story():
    """story-tiny grounded anew: a problem object with no closed horizons."""
    d = load_domain(os.path.join(DATA, "story-tiny-domain.pddl"))
    return ground(d, load_problem_file(os.path.join(DATA, "story-tiny-problem.pddl"), d))


@pytest.fixture(scope="module")
def tiny_story():
    # one object for the module, so closed horizons carry over between tests
    return _fresh_tiny_story()


def exhaust_models(problem, horizon):
    """All decodable plans at exactly this horizon, via iterated forbidding."""
    task = encode(problem, horizon)
    plans = []
    while True:
        model = solve_task(task)
        if model is None:
            return plans
        trace = decode(model, task)
        validate_plan(problem, trace.plan)  # soundness on every model
        assert trace.states == validate_plan(problem, trace.plan).states
        plans.append(trace.plan)
        if horizon == 0:
            return plans  # the empty plan is the only possible model
        forbid_plan(task, trace.plan)


# -- encode/decode ------------------------------------------------------------


def test_horizon_zero_goal_already_true():
    problem = toggle_problem(goal_on=False)  # init: off, goal: off
    task = encode(problem, 0)
    model = solve_task(task)
    assert model is not None
    assert decode(model, task).plan.labels() == ()


def test_horizon_zero_goal_false_is_unsat():
    task = encode(toggle_problem(goal_on=True), 0)
    assert solve_task(task) is None


def test_negative_horizon_rejected():
    with pytest.raises(ValueError):
        encode(toggle_problem(), -1)


def test_encoding_grows_near_linearly_per_step():
    d = load_domain(os.path.join(DATA, "aladdin-domain.pddl"))
    problem = ground(d, load_problem_file(os.path.join(DATA, "aladdin-problem.pddl"), d))
    n_a, n_f = len(problem.actions), len(problem.fluents)
    literals = sum(
        len(a.pre_pos) + len(a.pre_neg) + len(a.add) + len(a.delete)
        for a in problem.actions
    )
    step = len(encode(problem, 2).clauses) - len(encode(problem, 1).clauses)
    # at-least-one, |A| code bits each, action implications, two frame axioms
    # per fluent; a pairwise at-most-one alone would add |A|(|A|-1)/2
    assert step <= n_a * ((n_a - 1).bit_length() + 1) + literals + 2 * n_f + 1


# (num_vars, clause digest) of encode at horizons 0-4: any change to the
# variable numbering or the clause order shows here
ENCODE_PINS = {
    "story": [
        (81, "68eae497586c00fe"),
        (380, "7c8d12f4a9838c39"),
        (679, "1e610a338e7ad760"),
        (978, "c13f2dd6da7f8e06"),
        (1277, "8b7c794bb01a0ddb"),
    ],
    "story-tiny": [
        (10, "5078ec7ea26a343f"),
        (26, "29a4b99e4bc75915"),
        (42, "ecaba320d0ee40eb"),
        (58, "912c6db7285cb4ac"),
        (74, "946938e617aa305e"),
    ],
    "choice": [
        (5, "02ab0aed7813a303"),
        (13, "55a5aa1b183825c2"),
        (21, "bd3f8249a5aac2cf"),
        (29, "55ab15ff3dcdd056"),
        (37, "b7ac4a2b26619b2e"),
    ],
}


def _pinned_problem(name):
    if name == "choice":
        return choice_problem()
    return get_domain(name)()[0]


@pytest.mark.parametrize("name", sorted(ENCODE_PINS))
def test_encoding_is_pinned(name):
    problem = _pinned_problem(name)
    for horizon, (num_vars, digest) in enumerate(ENCODE_PINS[name]):
        task = encode(problem, horizon)
        got = hashlib.sha256(repr(task.clauses).encode()).hexdigest()[:16]
        assert (task.num_vars, got) == (num_vars, digest), horizon
        # only actions start True in the decision phases, one row of |A| per
        # step, each row one stride after the last
        phases = task.decision_phases()
        n_a = len(problem.actions)
        rows = [task.action_var(0, t) for t in range(horizon)]
        assert [v for v, on in enumerate(phases) if on] == [
            start + i for start in rows for i in range(n_a)
        ]
        assert all(b - a == task.stride for a, b in zip(rows, rows[1:]))
        # each step adds one stride of variables, wherever it is encoded
        assert task.num_vars == horizon * task.stride + encode(problem, 0).num_vars
    # the layout is horizon-independent: a task grown one step at a time
    # holds every clause of the task built at its final horizon
    grown = CnfTask(problem)
    for horizon in range(1, 5):
        grown.advance(horizon)
    direct = CnfTask(problem, 4)
    assert grown.num_vars == direct.num_vars
    assert set(map(tuple, direct.clauses)) <= set(map(tuple, grown.clauses))


@pytest.mark.parametrize("horizon", range(0, 6))
def test_toggle_models_match_oracle(horizon):
    # the one-action and two-switch problems sit at the edges of the
    # at-most-one encoding: no code bits, and a single code bit
    for problem in (toggle_problem(), one_action_problem(), two_switch_problem()):
        oracle = {p.labels() for p in enumerate_plans(problem, horizon) if len(p) == horizon}
        got = {p.labels() for p in exhaust_models(problem, horizon)}
        assert got == oracle


@pytest.mark.parametrize("horizon", range(0, 5))
def test_tiny_story_models_match_oracle(tiny_story, horizon):
    oracle = {p.labels() for p in enumerate_plans(tiny_story, horizon) if len(p) == horizon}
    got = {p.labels() for p in exhaust_models(tiny_story, horizon)}
    assert got == oracle


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5, 8, 9])
def test_at_most_one_action_per_step(n):
    problem = parallel_actions_problem(n)
    base = encode(problem, 1)
    # two layers of n fluents and a guard, n actions and the code bits
    assert base.num_vars == 2 * (n + 1) + n + max(n - 1, 0).bit_length()

    def forced(*indices):
        task = encode(problem, 1)
        for i in indices:
            task.add_clause([task.action_var(i, 0)])
        return solve_task(task)

    if n == 0:
        assert solve_task(base) is None
    for i in range(n):
        model = forced(i)
        assert model is not None
        assert decode(model, base).plan.labels() == (f"a{i}",)
        for j in range(i + 1, n):
            assert forced(i, j) is None


def test_decode_hand_built_model():
    problem = toggle_problem()
    task = encode(problem, 1)
    # model: turn-on at step 0; on false at 0, true at 1
    model = [False] * (task.num_vars + 1)
    model[task.action_var(0, 0)] = True
    model[task.fluent_var(ON, 1)] = True
    trace = decode(model, task)
    assert trace.plan.labels() == ("turn-on",)
    assert trace.states == (frozenset(), frozenset([ON]))


def test_decode_rejects_step_without_action():
    problem = toggle_problem()
    task = encode(problem, 1)
    model = [False] * (task.num_vars + 1)
    with pytest.raises(MalformedModel):
        decode(model, task)


def test_decode_rejects_step_with_two_actions():
    problem = toggle_problem()
    task = encode(problem, 1)
    model = [False] * (task.num_vars + 1)
    model[task.action_var(0, 0)] = True
    model[task.action_var(1, 0)] = True
    with pytest.raises(MalformedModel):
        decode(model, task)


def test_goal_disjunction_reaches_either_branch(tiny_story):
    # the tiny story goal is a 2-disjunct DNF; both branches must be reachable
    assert len(tiny_story.goal.disjuncts) == 2
    finals = set()
    for plan in exhaust_models(tiny_story, 3):
        finals.add(frozenset(tiny_story.goal.fluents() & validate_plan(tiny_story, plan).final_state))
    assert len(finals) >= 2


# -- forbid_behaviour ----------------------------------------------------------


def test_forbid_behaviour_single_fluent():
    problem = toggle_problem()
    task = encode(problem, 1)
    forbid_behaviour(task, {ON: True})
    assert solve_task(task) is None  # the goal forces on=true


def test_forbid_behaviour_other_polarity_keeps_models():
    problem = toggle_problem()
    task = encode(problem, 1)
    forbid_behaviour(task, {ON: False})
    model = solve_task(task)
    assert model is not None
    assert decode(model, task).plan.labels() == ("turn-on",)


def test_forbid_all_assignments_exhausts_two_fluent_goal():
    a, b = Fluent("a"), Fluent("b")
    problem = GroundProblem(
        fluents=frozenset([a, b]),
        actions=(
            GroundAction("set-a", pre_neg=frozenset([a]), add=frozenset([a])),
            GroundAction("set-b", pre_neg=frozenset([b]), add=frozenset([b])),
        ),
        init=frozenset(),
        goal=GoalFormula(disjuncts=(((a, True),), ((b, True),))),
    )
    task = encode(problem, 2)
    for va in (False, True):
        for vb in (False, True):
            forbid_behaviour(task, {a: va, b: vb})
    assert solve_task(task) is None


def test_forbid_behaviour_rejects_non_goal_fluent():
    problem = toggle_problem()
    task = encode(problem, 1)
    with pytest.raises(ValueError):
        forbid_behaviour(task, {Fluent("elsewhere"): True})


def test_forbid_behaviour_rejects_empty_assignment():
    task = encode(toggle_problem(), 1)
    with pytest.raises(ValueError):
        forbid_behaviour(task, {})


# -- forbid_plan ---------------------------------------------------------------


def test_forbid_plan_requires_matching_horizon():
    problem = toggle_problem()
    task = encode(problem, 2)
    plan = Plan((problem.actions[0],))
    with pytest.raises(HorizonMismatch):
        forbid_plan(task, plan)


def test_forbid_plan_empty_plan_rejected():
    problem = toggle_problem(goal_on=False)
    task = encode(problem, 0)
    with pytest.raises(HorizonMismatch):
        forbid_plan(task, Plan(()))


def test_forbid_unique_plan_makes_unsat():
    problem = toggle_problem()
    task = encode(problem, 1)
    forbid_plan(task, Plan((problem.actions[0],)))
    assert solve_task(task) is None


def test_forbid_one_symmetric_plan_yields_the_other():
    problem = two_switch_problem()
    task = encode(problem, 2)
    first = decode(solve_task(task), task).plan
    forbid_plan(task, first)
    second = decode(solve_task(task), task).plan
    assert {first.labels(), second.labels()} == {("set-a", "set-b"), ("set-b", "set-a")}
    forbid_plan(task, second)
    assert solve_task(task) is None


# -- generators ----------------------------------------------------------------


def test_behaviour_generator_unconstrained(tiny_story):
    space = BehaviourSpace((goal_endings_feature(tiny_story),))
    trace = behaviour_generator_sat(tiny_story, space, set(), range(0, 6))
    assert trace is not None
    validate_plan(tiny_story, trace.plan)


def test_behaviour_generator_exhausts_realisable_cells(tiny_story):
    space = BehaviourSpace((goal_endings_feature(tiny_story),))
    found = set()
    traces = []
    while True:
        trace = behaviour_generator_sat(tiny_story, space, found, range(0, 6))
        if trace is None:
            break
        behaviour = pbehaviour(space, trace)
        assert behaviour not in found
        found.add(behaviour)
        traces.append(trace)
    # oracle: behaviours over all plans up to the same length bound
    oracle = {pbehaviour(space, validate_plan(tiny_story, p)) for p in enumerate_plans(tiny_story, 5)}
    assert found == oracle
    assert len(found) == 3


def test_behaviour_novelty_check_survives_one_shot_iterator(tiny_story, monkeypatch):
    # with forbidding switched off the solver hands back the found behaviour;
    # the novelty check must still see it when given a one-shot iterator
    space = BehaviourSpace((goal_endings_feature(tiny_story),))
    first = behaviour_generator_sat(tiny_story, space, (), range(0, 6))
    monkeypatch.setattr(generators, "forbid_behaviour", lambda task, assignment: None)
    with pytest.raises(AssertionError, match="already-found behaviour"):
        behaviour_generator_sat(
            tiny_story, space, iter([pbehaviour(space, first)]), range(0, 6)
        )


def test_behaviour_generator_rejects_temporal_space(tiny_story):
    feature = Feature(
        name="shape",
        domain=ExplicitDomain(("x",)),
        extractor=lambda trace: "x",
        expression=TemporalFormula((("x", TRUE),)),
    )
    with pytest.raises(SpaceConfigError):
        behaviour_generator_sat(tiny_story, BehaviourSpace((feature,)), set())


def test_behaviour_generator_respects_budget():
    # reaching the goal needs two steps, but the budget caps plans at one
    a, b = Fluent("a"), Fluent("b")
    problem = GroundProblem(
        fluents=frozenset([a, b]),
        actions=(
            GroundAction("set-a", pre_neg=frozenset([a]), add=frozenset([a])),
            GroundAction("set-b", pre_neg=frozenset([b]), add=frozenset([b])),
        ),
        init=frozenset(),
        goal=GoalFormula.conjunction([(a, True), (b, True)]),
        budget=1,
    )
    space = BehaviourSpace((goal_endings_feature(problem),))
    assert behaviour_generator_sat(problem, space, set(), range(0, 6)) is None


def test_plan_generator_walks_all_plans(tiny_story):
    oracle = {p.labels() for p in enumerate_plans(tiny_story, 3)}
    plans = []
    while True:
        trace = plan_generator_sat(tiny_story, plans, range(0, 4))
        if trace is None:
            break
        assert trace.plan.labels() not in {p.labels() for p in plans}
        plans.append(trace.plan)
    assert {p.labels() for p in plans} == oracle
    assert len(plans) == 4


def test_plan_generator_symmetric_pair():
    problem = two_switch_problem()
    first = plan_generator_sat(problem, [], range(0, 3))
    second = plan_generator_sat(problem, [first.plan], range(0, 3))
    third = plan_generator_sat(problem, [first.plan, second.plan], range(0, 3))
    assert {first.plan.labels(), second.plan.labels()} == {
        ("set-a", "set-b"),
        ("set-b", "set-a"),
    }
    assert third is None


def test_plan_generator_skips_forbidden_empty_plan():
    problem = toggle_problem(goal_on=False)  # empty plan reaches the goal
    first = plan_generator_sat(problem, [], range(0, 3))
    assert first.plan.labels() == ()
    second = plan_generator_sat(problem, [first.plan], range(0, 3))
    assert second is not None
    assert second.plan.labels() == ("turn-on", "turn-off")


def test_generators_are_deterministic(tiny_story):
    space = BehaviourSpace((goal_endings_feature(tiny_story),))
    a = behaviour_generator_sat(tiny_story, space, set(), range(0, 6))
    b = behaviour_generator_sat(tiny_story, space, set(), range(0, 6))
    assert a.plan.labels() == b.plan.labels()
    c = plan_generator_sat(tiny_story, [], range(0, 4))
    d = plan_generator_sat(tiny_story, [], range(0, 4))
    assert c.plan.labels() == d.plan.labels()


def test_generator_timeout_from_conflict_budget():
    problem = _fresh_tiny_story()
    space = BehaviourSpace((goal_endings_feature(problem),))
    with pytest.raises(GeneratorTimeout):
        behaviour_generator_sat(
            problem, space, set(), range(3, 4), max_conflicts=0
        )
    # the run-out dropped the solver and closed nothing: an unbudgeted call
    # still solves horizon 3
    assert generators._records[id(problem)] == ({}, {}, set())
    got = behaviour_generator_sat(problem, space, set(), range(3, 4))
    want = behaviour_generator_sat(copy.copy(problem), space, set(), range(3, 4))
    assert _labels(got) == _labels(want) is not None


# -- closed horizons and live solvers --------------------------------------------
# Two references. The fresh path gives every call its own copy of the problem,
# so its record is empty and its solver starts at the range's first horizon.
# The one-shot path is what one live solver per generator replaces: at each
# horizon a one-shot `encode` with the call's forbidding clauses, solved by a
# fresh Solver. Learned clauses and saved phases may pick other witnesses, so
# the live path must agree with it on the horizon of each answer (None when
# there is none), not on the witness.


def _tiny_cut(cast, lamp, places=("home",)):
    """A story-tiny cut: the cast at the first place, one holding the lamp."""
    d = load_domain(os.path.join(DATA, "story-tiny-domain.pddl"))
    init = " ".join(f"(at {c} {places[0]})" for c in cast)
    text = textwrap.dedent(f"""\
        (define (problem story-tiny-cut)
          (:domain story-tiny)
          (:objects {' '.join(cast)} - char {' '.join(places)} - loc)
          (:init {init} (has-lamp {lamp}))
          (:goal (exists (?c1 - char ?c2 - char)
                   (and (married-to ?c2 ?c1) (not (= ?c1 ?c2))))))
        """)
    return ground(d, parse_problem(text, d))


def _generator_pair(problem, horizons, fresh):
    space = BehaviourSpace((goal_endings_feature(problem),))
    subject = (lambda: copy.copy(problem)) if fresh else (lambda: problem)

    def bgen(found):
        return behaviour_generator_sat(subject(), space, found, horizons)

    def pgen(existing):
        return plan_generator_sat(subject(), existing, horizons)

    return space, bgen, pgen


def _labels(trace):
    return None if trace is None else trace.plan.labels()


def _length(trace):
    return None if trace is None else len(trace.plan)


def _one_shot_horizon(problem, horizons, forbid):
    """The first horizon with a model of a one-shot encode plus forbid's
    clauses, each solved by a fresh Solver; None when there is none. forbid
    returns False for a horizon it rules out without a clause."""
    for h in horizons:
        if problem.budget is not None and h > problem.budget:
            continue
        task = encode(problem, h)
        if forbid(task) is not False and solve_task(task) is not None:
            return h
    return None


def _forbid_behaviours(space, found):
    def forbid(task):
        for behaviour in found:
            forbid_behaviour(task, generators._merged_assignment(space, behaviour))

    return forbid


def _forbid_plans(existing):
    def forbid(task):
        for plan in existing:
            if len(plan) == task.horizon:
                if not plan:
                    return False  # only the empty plan is a horizon-0 model
                forbid_plan(task, plan)

    return forbid


def _assert_replays(problem, space, result):
    labels = [trace.plan.labels() for trace in result.plans]
    assert len(set(labels)) == len(labels)
    for trace, behaviour in zip(result.plans, result.behaviours):
        actions = tuple(problem.action(label) for label in trace.plan.labels())
        replayed = validate_plan(problem, Plan(actions))
        assert replayed.states == trace.states
        assert pbehaviour(space, replayed) == behaviour


@pytest.mark.parametrize(
    "cast, lamp, cap",
    [
        (("ala", "jas", "gen"), "jas", 6),
        (("mor", "dra", "jaf"), "mor", 7),
        (("ala", "gen", "jaf"), "gen", 6),
    ],
    ids=["ala-jas-gen-6", "mor-dra-jaf-7", "ala-gen-jaf-6"],
)
def test_live_solver_agrees_with_one_shot_solves(cast, lamp, cap):
    problem = _tiny_cut(cast, lamp)
    horizons = range(0, cap + 1)
    space = BehaviourSpace((goal_endings_feature(problem),))

    def bgen(found):
        trace = behaviour_generator_sat(problem, space, found, horizons)
        want = _one_shot_horizon(problem, horizons, _forbid_behaviours(space, found))
        assert _length(trace) == want
        return trace

    def pgen(existing):
        trace = plan_generator_sat(problem, existing, horizons)
        assert _length(trace) == _one_shot_horizon(problem, horizons, _forbid_plans(existing))
        return trace

    k = 60
    result = fbi(k, space, bgen, pgen)
    assert result.bdc < k
    assert set(result.behaviours[: result.bdc]) == goal_ending_cells(problem, horizons)
    _assert_replays(problem, space, result)


@pytest.mark.parametrize(
    "make, horizons, k",
    [
        (lambda: _tiny_cut(("ala", "jas", "gen"), "jas"), range(0, 7), 60),
        (lambda: _tiny_cut(("mor", "dra", "jaf"), "mor"), range(0, 8), 60),
        (two_switch_problem, range(0, 4), 10),
        (toggle_problem, range(0, 6), 10),
    ],
    ids=["cut-cap-6", "cut-cap-7", "two-switch", "toggle"],
)
def test_closed_horizons_keep_fbi_results(make, horizons, k):
    # learned clauses and saved phases may pick other witnesses, so the runs
    # agree on what any correct run must: counts, and the cells once exhausted
    problem = make()
    space = BehaviourSpace((goal_endings_feature(problem),))
    live = fbi(k, *_generator_pair(problem, horizons, fresh=False))
    fresh = fbi(k, *_generator_pair(problem, horizons, fresh=True))
    assert live.termination == fresh.termination
    assert live.bdc == fresh.bdc >= 1
    assert len(live.plans) == len(fresh.plans)
    if live.bdc < k:  # loop one ran out of behaviours
        cells = set(live.behaviours[: live.bdc])
        assert cells == set(fresh.behaviours[: fresh.bdc])
        assert cells == goal_ending_cells(problem, horizons)
    for result in (live, fresh):
        _assert_replays(problem, space, result)


def test_closed_horizons_answer_non_extending_calls_freshly():
    problem = _fresh_tiny_story()
    space = BehaviourSpace((goal_endings_feature(problem),))
    horizons = range(0, 6)
    found = []
    while (trace := behaviour_generator_sat(problem, space, found, horizons)):
        found.append(pbehaviour(space, trace))
    assert len(found) == 3
    # a smaller set after the full one, then a disjoint one: each drops an
    # item the live solver holds, so each starts a fresh solver
    for later in (found[:1], found[1:2], found[2:], [], found[:2]):
        got = behaviour_generator_sat(problem, space, later, horizons)
        assert pbehaviour(space, got) not in later
        want = _one_shot_horizon(problem, horizons, _forbid_behaviours(space, later))
        assert _length(got) == want is not None

    plans = []
    while (trace := plan_generator_sat(problem, plans, range(0, 4))):
        plans.append(trace.plan)
    assert len(plans) == 4
    for later in (plans[:1], plans[2:], [], plans[1:3]):
        got = plan_generator_sat(problem, later, range(0, 4))
        assert got.plan not in later
        want = _one_shot_horizon(problem, range(0, 4), _forbid_plans(later))
        assert _length(got) == want is not None


def test_a_descending_horizon_range_starts_a_fresh_solver():
    problem = _fresh_tiny_story()
    space = BehaviourSpace((goal_endings_feature(problem),))
    first = behaviour_generator_sat(problem, space, (), range(0, 6))
    assert len(first.plan) == 3
    _closed, live, _ordered = generators._records[id(problem)]
    _task, solver, _loaded = live["behaviour"]
    found = [pbehaviour(space, first)]
    # a range that starts above moves the same solver on to horizon 4
    above = behaviour_generator_sat(problem, space, found, range(4, 6))
    assert len(above.plan) == 4
    task, same, _loaded = live["behaviour"]
    assert same is solver and task.horizon == 4
    # back down: horizon 3 is open for this set but below the solver's steps
    again = behaviour_generator_sat(problem, space, found, range(0, 6))
    assert live["behaviour"][1] is not solver
    assert pbehaviour(space, again) not in found
    want = _one_shot_horizon(problem, range(0, 6), _forbid_behaviours(space, found))
    assert _length(again) == want == 3


def test_each_generator_proves_each_horizon_unsat_at_most_once(monkeypatch):
    problem = _fresh_tiny_story()
    space, bgen, pgen = _generator_pair(problem, range(0, 6), fresh=False)
    unsat = {"behaviour": [], "plan": []}

    def solve_horizon(live, generator, problem, horizon, *args):
        model, task = real_solve_horizon(live, generator, problem, horizon, *args)
        if model is None:
            unsat[generator].append(horizon)
        return model, task

    real_solve_horizon = generators._solve_horizon
    monkeypatch.setattr(generators, "_solve_horizon", solve_horizon)
    result = fbi(500, space, bgen, pgen)
    assert result.termination == "behaviours-exhausted-then-plans-exhausted"
    assert len(result.plans) > 100
    for kind, horizons in unsat.items():
        assert horizons, kind
        assert len(horizons) == len(set(horizons)), kind
    # the base encoding's UNSAT horizons, proved by the behaviour generator
    # with nothing forbidden, are skipped by the plan generator
    assert not set(unsat["plan"]) & {0, 1, 2}


def test_closed_horizon_record_dies_with_its_problem():
    problem = _fresh_tiny_story()
    space = BehaviourSpace((goal_endings_feature(problem),))
    trace = behaviour_generator_sat(problem, space, (), range(0, 4))
    assert len(trace.plan) == 3
    key = id(problem)
    closed, live, ordered = generators._records[key]
    assert set(closed) == {0, 1, 2}
    assert set(live) == {"behaviour"}  # the solver that found it
    task, _solver, loaded = live["behaviour"]
    assert task.horizon == 3 and loaded == set() and ordered == set()
    twin = copy.copy(problem)
    assert twin == problem and id(twin) not in generators._records
    del problem, closed, live, ordered, trace, task
    gc.collect()
    assert key not in generators._records


# -- commutation reduction --------------------------------------------------------
# Once the behaviour generator proves a horizon empty under a non-empty set,
# its tasks forbid an action right after a higher-indexed one it commutes
# with. The references: the commutation definition checked pair by pair and
# state by state, and brute-force plan enumeration.

def _lamp_problem():
    """light and dark clash only by effects: one adds what the other deletes."""
    lit, tick = Fluent("lit"), Fluent("tick")
    return GroundProblem(
        fluents=frozenset([lit, tick]),
        actions=(
            GroundAction("light", add=frozenset([lit])),
            GroundAction("dark", delete=frozenset([lit])),
            GroundAction("tick", add=frozenset([tick])),
        ),
        init=frozenset(),
        goal=GoalFormula.conjunction([(tick, True)]),
    )


REDUCTION_PROBLEMS = {
    "cut-one-place": lambda: _tiny_cut(("ala", "jas", "gen"), "jas"),
    "cut-two-places": lambda: _tiny_cut(("ala", "jas", "gen"), "ala", ("home", "park")),
    "story-tiny": _fresh_tiny_story,
    "story-tiny-two-places": lambda: _tiny_cut(("ala", "jas"), "ala", ("home", "park")),
    "toggle": oracles.toggle_problem,
    "two-switch": oracles.two_switch_problem,
    "choice": oracles.choice_problem,
    "lamp": _lamp_problem,
}
# the three-character cuts have too many plans of length 6 to enumerate
ENUMERABLE = sorted(set(REDUCTION_PROBLEMS) - {"cut-one-place", "cut-two-places"})


def _ordering_pairs(problem):
    """The (i, j) action index pairs that the ordering clauses forbid as
    steps 0 and 1, read off the clauses by evaluating each assignment."""
    task = CnfTask(problem, 2)
    task.clauses.clear()
    task.keep_one_order()
    n, n_bits = len(task.actions), task.n_bits
    assert len(task.clauses) <= 2 * n_bits * n
    assert all(len(clause) <= n_bits + 1 for clause in task.clauses)
    bits = task.action_var(n, 0)  # step 0's code
    pairs = set()
    for i in range(n):
        code = {bits + k if i >> k & 1 else -(bits + k) for k in range(n_bits)}
        for j in range(n):
            true = code | {task.action_var(j, 1)}
            if any(all(-lit in true for lit in clause) for clause in task.clauses):
                pairs.add((i, j))
    return pairs


def _commute(a, b):
    def changes(x):
        return x.add | x.delete

    def reads(x):
        return x.pre_pos | x.pre_neg

    return not (
        reads(a) & changes(b) or reads(b) & changes(a)
        or a.add & b.delete or b.add & a.delete
    )


def _reachable(problem):
    seen, frontier = {problem.init}, [problem.init]
    while frontier:
        state = frontier.pop()
        for action in problem.actions:
            if applicable(state, action) and (nxt := apply(state, action)) not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return seen


@pytest.mark.parametrize("name", sorted(REDUCTION_PROBLEMS))
def test_ordering_clauses_forbid_only_commuting_pairs(name):
    problem = REDUCTION_PROBLEMS[name]()
    actions = problem.actions
    pairs = _ordering_pairs(problem)
    # exactly the pairs below each action's first non-commuting successor
    want = set()
    for j, a in enumerate(actions):
        for i in range(j + 1, len(actions)):
            if not _commute(a, actions[i]):
                break
            want.add((i, j))
    assert pairs == want
    assert pairs or name == "toggle"
    # and each of them commutes wherever it runs
    checked = 0
    for state in _reachable(problem):
        for i, first in enumerate(actions):
            if not applicable(state, first):
                continue
            after = apply(state, first)
            for j, second in enumerate(actions):
                if (i, j) in pairs and applicable(after, second):
                    assert applicable(state, second)
                    swapped = apply(state, second)
                    assert applicable(swapped, first)
                    assert apply(swapped, first) == apply(after, second)
                    checked += 1
    assert checked or name == "toggle"


@pytest.mark.parametrize("name", ENUMERABLE)
def test_reduced_plans_reach_every_goal_ending(name):
    problem = REDUCTION_PROBLEMS[name]()
    pairs = _ordering_pairs(problem)
    index = {a.name: i for i, a in enumerate(problem.actions)}
    goal = problem.goal.fluents()
    ends = {}  # (horizon, reduced) -> goal-fluent projections
    for plan in enumerate_plans(problem, 6):
        steps = [index[a.name] for a in plan]
        reduced = not any(pair in pairs for pair in zip(steps, steps[1:]))
        end = validate_plan(problem, plan).states[-1] & goal
        ends.setdefault((len(plan), False), set()).add(end)
        if reduced:
            ends.setdefault((len(plan), True), set()).add(end)
    for h in range(7):
        assert ends.get((h, True)) == ends.get((h, False)), h
    # the generators, with the reduction switched on by the first exhaustion
    # proof, still reach every cell
    horizons = range(0, 7)
    cells = goal_ending_cells(problem, horizons)
    space = BehaviourSpace((goal_endings_feature(problem),))
    result = fbi(len(cells) + 3, *_generator_pair(problem, horizons, fresh=False))
    assert set(result.behaviours[: result.bdc]) == cells
    assert generators._records[id(problem)][2] == {"behaviour"}
    _assert_replays(problem, space, result)


@pytest.mark.parametrize("switched_at", [0, 1, 2])
def test_ordering_clauses_do_not_depend_on_when_they_are_switched_on(switched_at):
    problem = _tiny_cut(("ala", "jas"), "ala", ("home", "park"))

    def ordering_clauses(switch_at):
        """The clauses a task grown to horizon 4 gains by the switch."""
        tasks = [CnfTask(problem, switch_at) for _ in range(2)]
        tasks[0].keep_one_order()
        tasks[0].keep_one_order()  # a second call adds nothing
        counts = []
        for task in tasks:
            task.advance(4)
            counts.append(Counter(map(tuple, task.clauses)))
        return counts[0] - counts[1]

    want = ordering_clauses(4)
    assert want and ordering_clauses(switched_at) == want


def test_a_fresh_behaviour_task_after_the_switch_carries_the_clauses():
    problem = _fresh_tiny_story()
    space = BehaviourSpace((goal_endings_feature(problem),))
    found = []
    while (trace := behaviour_generator_sat(problem, space, found, range(0, 6))):
        found.append(pbehaviour(space, trace))
    _closed, live, ordered = generators._records[id(problem)]
    assert ordered == {"behaviour"}
    task = live["behaviour"][0]
    assert task._order is not None
    # a smaller set drops an item the live solver holds: a fresh solver
    behaviour_generator_sat(problem, space, found[:1], range(0, 6))
    fresh = live["behaviour"][0]
    assert fresh is not task and fresh._order is not None


def _bundled_fbi(domain, k):
    problem, _space = get_domain(domain)()
    space = BehaviourSpace((goal_endings_feature(problem),))
    fbi(
        k, space,
        lambda found: behaviour_generator_sat(problem, space, found),
        lambda existing: plan_generator_sat(problem, existing),
    )
    return generators._records[id(problem)][2]


def test_exhaustion_switches_the_reduction_on_and_story_k3_never_does():
    assert _bundled_fbi("story-tiny", 60) == {"behaviour"}
    assert _bundled_fbi("story", 3) == set()


@pytest.mark.parametrize(
    "cast, lamp, cap",
    [(("ala", "jas", "gen"), "jas", 6), (("mor", "dra", "jaf"), "mor", 7)],
    ids=["ala-jas-gen-6", "mor-dra-jaf-7"],
)
def test_the_reduced_live_solver_answers_as_a_fresh_full_one(monkeypatch, cast, lamp, cap):
    problem = _tiny_cut(cast, lamp)
    answers = []

    def solve_horizon(live, generator, problem, horizon, forbidden, forbid, *rest):
        model, task = real_solve_horizon(
            live, generator, problem, horizon, forbidden, forbid, *rest
        )
        if generator == "behaviour" and task._order is not None:
            fresh = encode(problem, horizon)  # no ordering clauses
            for item in forbidden:
                forbid(fresh, item)
            answers.append((horizon, model is None, solve_task(fresh) is None))
        return model, task

    real_solve_horizon = generators._solve_horizon
    monkeypatch.setattr(generators, "_solve_horizon", solve_horizon)
    fbi(60, *_generator_pair(problem, range(0, cap + 1), fresh=False))
    assert {unsat for _h, unsat, _want in answers} == {False, True}
    for horizon, unsat, want in answers:
        assert unsat == want, horizon


# -- solver --------------------------------------------------------------------


def test_empty_clause_set_is_sat():
    assert Solver(3, []).solve() is not None


def test_contradictory_units_unsat():
    assert Solver(1, [[1], [-1]]).solve() is None


def pigeonhole(pigeons, holes):
    def var(p, h):
        return 1 + p * holes + h

    clauses = [[var(p, h) for h in range(holes)] for p in range(pigeons)]
    for h in range(holes):
        for p1 in range(pigeons):
            for p2 in range(p1 + 1, pigeons):
                clauses.append([-var(p1, h), -var(p2, h)])
    return pigeons * holes, clauses


def test_pigeonhole_three_holes_unsat():
    num_vars, clauses = pigeonhole(4, 3)
    assert Solver(num_vars, clauses).solve() is None


def test_pigeonhole_assignment_exists_with_enough_holes():
    num_vars, clauses = pigeonhole(3, 3)
    model = Solver(num_vars, clauses).solve()
    assert model is not None
    for clause in clauses:
        assert any(model[abs(l)] == (l > 0) for l in clause)


def test_conflict_budget_raises():
    num_vars, clauses = pigeonhole(5, 4)
    with pytest.raises(ResourceLimit):
        Solver(num_vars, clauses).solve(max_conflicts=1)


def test_solver_is_deterministic():
    num_vars, clauses = pigeonhole(3, 3)
    assert Solver(num_vars, clauses).solve() == Solver(num_vars, clauses).solve()


def test_model_is_indexed_by_variable():
    # decode indexes models by variable: slot 0 unused, one bool per variable
    num_vars, clauses = pigeonhole(3, 3)
    model = Solver(num_vars, clauses).solve()
    assert len(model) == num_vars + 1
    assert model[0] is None
    assert all(isinstance(value, bool) for value in model[1:])
    assert Solver(0).solve() == [None]


def test_learned_clauses_survive_restarts():
    # big enough to force restarts (conflict interval starts at 100)
    num_vars, clauses = pigeonhole(6, 5)
    solver = Solver(num_vars, clauses)
    assert solver.solve() is None
    assert solver.conflicts > 100


def _brute_sat(num_vars, clauses):
    return any(
        all(any((mask >> (abs(l) - 1) & 1) == (l > 0) for l in clause) for clause in clauses)
        for mask in range(2**num_vars)
    )


def _satisfies(model, clauses):
    return all(any(model[abs(l)] == (l > 0) for l in clause) for clause in clauses)


@given(
    st.integers(1, 5).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.lists(
                    st.integers(1, n).flatmap(lambda v: st.sampled_from([v, -v])),
                    min_size=1,
                    max_size=3,
                ),
                max_size=12,
            ),
        )
    ),
    st.integers(0, 2**12 - 1),
    # assumption sets, one per solve in turn; literals are folded into 1..n
    st.lists(
        st.lists(st.integers(1, 5).flatmap(lambda v: st.sampled_from([v, -v])), max_size=3),
        min_size=1,
        max_size=4,
    ),
)
# units queued at level 0 after a SAT solve: each must propagate
@example((2, [[1, 2], [-1], [-2]]), 0b1, [[]])
@example((3, [[1, 2], [2, 3], [-2], [-3]]), 0b10, [[]])
# a unit that flips the previous model's decision
@example((3, [[-1, 2], [-2, 3], [1], [-3]]), 0b10, [[]])
# UNSAT under the assumptions, then SAT without them: the solver stays usable
@example((2, [[1, 2]]), 0b1, [[-1, -2]])
# an assumption already implied at level 0, then a contradicting one
@example((2, [[1], [-1, 2]]), 0b1, [[2, 1], [-2]])
@settings(max_examples=150, deadline=None)
def test_solver_agrees_with_truth_table(case, solve_after, assumption_sets):
    num_vars, clauses = case
    model = Solver(num_vars, clauses).solve()
    brute = _brute_sat(num_vars, clauses)
    assert (model is not None) == brute
    if model is not None:
        assert _satisfies(model, clauses)
    # the same clauses into one live solver that starts with no variables and
    # grows to each clause's; it solves after clause i when bit i of
    # solve_after is set and after the last one, first under the next
    # assumption set and then without it
    assumption_sets = [
        [(abs(l) - 1) % num_vars + 1 if l > 0 else -((abs(l) - 1) % num_vars + 1) for l in a]
        for a in assumption_sets
    ]
    live = Solver(0)
    solves = 0
    for i, clause in enumerate(clauses):
        live.add_vars([False] * max(0, max(map(abs, clause)) - live.num_vars))
        live.add_clause(clause)
        if not (solve_after >> i & 1 or i == len(clauses) - 1):
            continue
        assumptions = assumption_sets[solves % len(assumption_sets)]
        solves += 1
        live.add_vars([True] * max(0, max(map(abs, assumptions), default=0) - live.num_vars))
        units = [[lit] for lit in assumptions]
        model = live.solve(assumptions=assumptions)
        assert (model is not None) == _brute_sat(num_vars, clauses[: i + 1] + units)
        if model is not None:
            assert _satisfies(model, clauses[: i + 1] + units)
        assert live.ok or model is None and not _brute_sat(num_vars, clauses[: i + 1])
        if not live.ok:
            continue
        model = live.solve()
        assert (model is not None) == _brute_sat(num_vars, clauses[: i + 1])
        if model is None:
            assert not live.ok
            continue
        assert len(model) == live.num_vars + 1
        assert _satisfies(model, clauses[: i + 1])


def test_added_variables_keep_the_old_assignments():
    # level-0 values sit at both literal slots; growth must move the
    # negative slots with the variable count
    solver = Solver(2, [[-1], [1, 2]])
    assert solver.solve() == [None, False, True]
    solver.add_vars([True, False])
    assert solver.val[-1] is True and solver.val[-2] is False
    assert solver.solve() == [None, False, True, True, False]
    solver.add_clause([-2, -3, 4])
    assert solver.solve(assumptions=[3]) == [None, False, True, True, True]
    assert solver.solve(assumptions=[3, -4]) is None and solver.ok
    solver.add_clause([-3])
    assert solver.solve(assumptions=[3]) is None and solver.ok
    assert solver.solve() == [None, False, True, False, True]
    with pytest.raises(ValueError):
        solver.solve(assumptions=[5])


def test_conflict_budget_is_per_solve():
    num_vars, clauses = pigeonhole(7, 6)  # UNSAT after 789 conflicts
    s = num_vars + 1  # a selector that satisfies every clause
    solver = Solver(s, [clause + [s] for clause in clauses])
    assert solver.solve() is not None
    solver.add_clause([-s])
    for budget in (100, 0, 57):
        with pytest.raises(ResourceLimit):
            solver.solve(max_conflicts=budget)
        assert solver.conflicts == budget + 1  # counted within this call
    assert solver.solve() is None
    assert not solver.ok and solver.solve() is None
