import os
import sys
import textwrap

import pytest
from hypothesis import given, settings
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
    GoalFormula,
    GroundAction,
    GroundProblem,
    Plan,
    enumerate_plans,
    validate_plan,
)
from divplan.ltl import TRUE
from divplan.pddl import ground, load_domain, load_problem_file
from divplan.satplan import (
    EXTERNAL_SOLVER_ENV,
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
    parse_dimacs,
    parse_solver_output,
    plan_generator_sat,
    solve,
    solve_external,
    solve_task,
    to_dimacs,
)

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


@pytest.fixture(scope="module")
def tiny_story():
    d = load_domain(os.path.join(DATA, "story-tiny-domain.pddl"))
    p = load_problem_file(os.path.join(DATA, "story-tiny-problem.pddl"), d)
    return ground(d, p)


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


@pytest.mark.parametrize("horizon", range(0, 6))
def test_toggle_models_match_oracle(horizon):
    problem = toggle_problem()
    oracle = {p.labels() for p in enumerate_plans(problem, horizon) if len(p) == horizon}
    got = {p.labels() for p in exhaust_models(problem, horizon)}
    assert got == oracle


@pytest.mark.parametrize("horizon", range(0, 5))
def test_tiny_story_models_match_oracle(tiny_story, horizon):
    oracle = {p.labels() for p in enumerate_plans(tiny_story, horizon) if len(p) == horizon}
    got = {p.labels() for p in exhaust_models(tiny_story, horizon)}
    assert got == oracle


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


def test_generator_timeout_from_conflict_budget(tiny_story):
    space = BehaviourSpace((goal_endings_feature(tiny_story),))
    with pytest.raises(GeneratorTimeout):
        behaviour_generator_sat(
            tiny_story, space, set(), range(3, 4), max_conflicts=0
        )


# -- solver --------------------------------------------------------------------


def test_empty_clause_set_is_sat():
    assert solve([], 3) is not None


def test_contradictory_units_unsat():
    assert solve([[1], [-1]], 1) is None


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
    assert solve(clauses, num_vars) is None


def test_pigeonhole_assignment_exists_with_enough_holes():
    num_vars, clauses = pigeonhole(3, 3)
    model = solve(clauses, num_vars)
    assert model is not None
    for clause in clauses:
        assert any(model[abs(l)] == (l > 0) for l in clause)


def test_conflict_budget_raises():
    num_vars, clauses = pigeonhole(5, 4)
    with pytest.raises(ResourceLimit):
        solve(clauses, num_vars, max_conflicts=1)


def test_solver_is_deterministic():
    num_vars, clauses = pigeonhole(3, 3)
    assert solve(clauses, num_vars) == solve(clauses, num_vars)


def test_learned_clauses_survive_restarts():
    # big enough to force restarts (conflict interval starts at 100)
    num_vars, clauses = pigeonhole(6, 5)
    solver = Solver(num_vars, clauses)
    assert solver.solve() is None
    assert solver.conflicts > 100


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
    )
)
@settings(max_examples=150, deadline=None)
def test_solver_agrees_with_truth_table(case):
    num_vars, clauses = case
    model = solve(clauses, num_vars)
    brute = any(
        all(any((mask >> (abs(l) - 1) & 1) == (l > 0) for l in clause) for clause in clauses)
        for mask in range(2**num_vars)
    )
    assert (model is not None) == brute
    if model is not None:
        for clause in clauses:
            assert any(model[abs(l)] == (l > 0) for l in clause)


# -- DIMACS and the external bridge ---------------------------------------------


def test_dimacs_roundtrip():
    clauses = [[1, -2], [2, 3], [-1]]
    text = to_dimacs(3, clauses)
    num_vars, parsed = parse_dimacs(text)
    assert num_vars == 3
    assert parsed == clauses


def test_dimacs_roundtrip_of_encoded_task(tiny_story):
    task = encode(tiny_story, 3)
    num_vars, clauses = parse_dimacs(to_dimacs(task.num_vars, task.clauses))
    assert num_vars == task.num_vars
    assert clauses == [list(c) for c in task.clauses]


def test_parse_solver_output():
    assert parse_solver_output("s UNSATISFIABLE\n", 2) is None
    model = parse_solver_output("c comment\ns SATISFIABLE\nv 1 -2 0\n", 2)
    assert model[1:] == [True, False]  # slot 0 is unused, as internally
    with pytest.raises(Exception):
        parse_solver_output("garbage\n", 2)


STUB_SOLVER = textwrap.dedent(
    """\
    import sys
    sys.path.insert(0, {src!r})
    from divplan.satplan.solver import parse_dimacs, solve
    num_vars, clauses = parse_dimacs(open(sys.argv[1]).read())
    model = solve(clauses, num_vars)
    if model is None:
        print("s UNSATISFIABLE")
        sys.exit(20)
    print("s SATISFIABLE")
    lits = [v if model[v] else -v for v in range(1, num_vars + 1)]
    print("v " + " ".join(map(str, lits)) + " 0")
    sys.exit(10)
    """
)


@pytest.fixture
def stub_solver_cmd(tmp_path):
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    script = tmp_path / "stub_solver.py"
    script.write_text(STUB_SOLVER.format(src=os.path.abspath(src)))
    return f"{sys.executable} {script}"


def test_solve_external_sat_and_unsat(stub_solver_cmd):
    cmd = stub_solver_cmd.split()
    model = solve_external(cmd, 2, [[1, 2], [-1]])
    assert model is not None and model[2] and not model[1]
    assert solve_external(cmd, 1, [[1], [-1]]) is None


def test_generator_uses_external_solver(tiny_story, monkeypatch, stub_solver_cmd):
    monkeypatch.setenv(EXTERNAL_SOLVER_ENV, stub_solver_cmd)
    space = BehaviourSpace((goal_endings_feature(tiny_story),))
    found = set()
    while True:
        trace = behaviour_generator_sat(tiny_story, space, found, range(0, 6))
        if trace is None:
            break
        validate_plan(tiny_story, trace.plan)
        found.add(pbehaviour(space, trace))
    assert len(found) == 3
