"""Driver tests: oracle maximality on tiny instances, termination, contracts."""

import importlib
from functools import partial
from itertools import combinations

import pytest

from divplan import bspace
from divplan.core import (
    GeneratorTimeout,
    Plan,
    PlanTrace,
    validate_plan,
)
from divplan.domains.story import tiny_story_pack
from divplan.fbi import EXHAUSTED, INCONCLUSIVE, REACHED_K, FbiResult, fbi
from divplan.satplan import behaviour_generator_sat, plan_generator_sat
from divplan.searchplan import (
    SearchConfig,
    behaviour_generator_ltl,
    plan_generator_ltl,
)
from oracles import (
    CorridorSimulator,
    bdc,
    choice_problem,
    corridor_space,
    endings_space,
    enumerate_plans,
    toggle_problem,
)

HORIZONS = range(0, 7)  # keeps the SAT backend within the oracle's reach


def sat_gens(problem, space, horizons=HORIZONS, **kw):
    bgen = partial(behaviour_generator_sat, problem, space, horizon_range=horizons, **kw)
    pgen = partial(plan_generator_sat, problem, horizon_range=horizons, **kw)
    return bgen, pgen


def search_gens(sim, space, **cfg_kw):
    cfg = SearchConfig(**cfg_kw)
    bgen = partial(behaviour_generator_ltl, sim, space, cfg=cfg)
    pgen = partial(plan_generator_ltl, sim, cfg=cfg)
    return bgen, pgen


def run_label_plan(sim, labels):
    """Execute a bare label sequence on a simulator into a full trace."""
    states = [sim.initial()]
    for label in labels:
        states.append(sim.step(states[-1], label))
    return PlanTrace(
        plan=Plan(tuple(labels)),
        states=tuple(states),
        valuations=tuple(sim.propositions(s) for s in states),
    )


def oracle_max_bdc(space, traces, k):
    """Literal maximum diversity over every plan subset of size <= k."""
    best = 0
    for size in range(1, min(k, len(traces)) + 1):
        for combo in combinations(traces, size):
            best = max(best, bdc(space, combo))
    return best


# ---------------------------------------------------------------------------
# oracle maximality (tiny instances, exact)
# ---------------------------------------------------------------------------


def declarative_oracle(problem, space, max_len=6):
    return [validate_plan(problem, p) for p in enumerate_plans(problem, max_len)]


@pytest.mark.parametrize("k", [1, 2, 3])
def test_toggle_matches_oracle(k):
    problem = toggle_problem()
    space = endings_space(problem)
    traces = declarative_oracle(problem, space)
    result = fbi(k, space, *sat_gens(problem, space))
    assert result.bdc == oracle_max_bdc(space, traces, k)
    assert len(result.plans) == min(k, len(traces))


@pytest.mark.parametrize("k", [1, 2, 3, 5])  # 5 = space size + 1
def test_choice_matches_oracle(k):
    problem = choice_problem()
    space = endings_space(problem)
    traces = declarative_oracle(problem, space)
    result = fbi(k, space, *sat_gens(problem, space))
    assert result.bdc == oracle_max_bdc(space, traces, k)
    assert len(result.plans) == min(k, len(traces))


@pytest.mark.parametrize("k", [1, 2, 3, 5])
def test_tiny_story_matches_oracle(k):
    problem, space = tiny_story_pack()
    traces = declarative_oracle(problem, space)
    # hundreds of oracle plans: the subset maximum is min(k, distinct), since
    # any subset shows at most min(|subset|, distinct) behaviours and picking
    # one witness per behaviour attains it
    distinct = bdc(space, traces)
    oracle = min(k, distinct)
    # literal cross-check on one witness per behaviour plus padding
    witnesses, seen = [], set()
    for trace in traces:
        key = tuple(
            sorted(str(f) for f in space.features[0].extractor(trace))
        )
        if key not in seen:
            seen.add(key)
            witnesses.append(trace)
    assert oracle == oracle_max_bdc(space, witnesses + traces[:5], k)

    result = fbi(k, space, *sat_gens(problem, space))
    assert result.bdc == oracle
    assert len(result.plans) == min(k, len(traces))


@pytest.mark.parametrize("k", [1, 2, 3])
def test_corridor_matches_oracle(k):
    sim = CorridorSimulator()
    space = corridor_space()
    # the full plan set of the four-cell corridor within its 5-step budget
    all_plans = [
        ("right", "right", "right"),
        ("right", "right", "grab", "right"),
        ("right", "left", "right", "right", "right"),
        ("right", "right", "left", "right", "right"),
        ("right", "right", "right", "left", "right"),
    ]
    traces = [run_label_plan(sim, labels) for labels in all_plans]
    result = fbi(k, space, *search_gens(sim, space))
    assert result.bdc == oracle_max_bdc(space, traces, k)
    assert len(result.plans) == min(k, len(traces))


def test_monotone_in_k():
    problem = choice_problem()
    space = endings_space(problem)
    counts = [fbi(k, space, *sat_gens(problem, space)).bdc for k in range(1, 7)]
    assert counts == sorted(counts)
    sim = CorridorSimulator()
    cspace = corridor_space()
    counts = [fbi(k, cspace, *search_gens(sim, cspace)).bdc for k in range(1, 7)]
    assert counts == sorted(counts)


# ---------------------------------------------------------------------------
# termination reasons
# ---------------------------------------------------------------------------


def test_reached_k_with_novel_behaviours_only():
    problem = choice_problem()
    space = endings_space(problem)
    result = fbi(2, space, *sat_gens(problem, space))
    assert result.termination == REACHED_K
    assert result.bdc == 2 and len(result.plans) == 2


def test_exhausted_when_plans_run_out():
    problem = choice_problem()
    space = endings_space(problem)
    result = fbi(10, space, *sat_gens(problem, space))
    assert result.termination == EXHAUSTED
    assert result.bdc == 3 and len(result.plans) == 4
    # loop-one annotations are pairwise distinct; padding repeats them
    first = result.behaviours[: result.bdc]
    assert len(set(first)) == result.bdc
    assert set(result.behaviours[result.bdc :]) <= set(first)


def test_inconclusive_when_sat_budget_is_tiny():
    problem, space = tiny_story_pack()
    result = fbi(2, space, *sat_gens(problem, space, max_conflicts=0))
    assert result.termination == INCONCLUSIVE
    assert result.plans == ()


def test_inconclusive_when_search_budget_is_tiny():
    sim = CorridorSimulator()
    space = corridor_space()
    result = fbi(2, space, *search_gens(sim, space, node_budget=1))
    assert result.termination == INCONCLUSIVE


def test_inconclusive_in_the_padding_loop():
    problem = toggle_problem()
    space = endings_space(problem)
    trace = validate_plan(problem, enumerate_plans(problem, 1)[0])

    def bgen(found):
        return trace if not found else None

    def pgen(existing):
        raise GeneratorTimeout("padding ran out of budget")

    result = fbi(3, space, bgen, pgen)
    assert result.termination == INCONCLUSIVE
    assert len(result.plans) == 1 and result.bdc == 1


def test_unsolvable_problem_exhausts_with_nothing():
    problem = toggle_problem()
    space = endings_space(problem)
    result = fbi(2, space, lambda found: None, lambda existing: None)
    assert result.termination == EXHAUSTED
    assert result.plans == () and result.bdc == 0


# ---------------------------------------------------------------------------
# driver contract enforcement
# ---------------------------------------------------------------------------


def toggle_traces():
    problem = toggle_problem()
    plans = enumerate_plans(problem, 6)
    return problem, [validate_plan(problem, p) for p in plans]


def test_rejects_behaviour_generator_that_repeats_cells():
    problem, traces = toggle_traces()
    space = endings_space(problem)
    with pytest.raises(RuntimeError, match="novelty"):
        fbi(2, space, lambda found: traces[0], lambda existing: None)


def test_rejects_plan_generator_that_repeats_plans():
    problem, traces = toggle_traces()
    space = endings_space(problem)

    def bgen(found):
        return traces[0] if not found else None

    with pytest.raises(RuntimeError, match="freshness"):
        fbi(3, space, bgen, lambda existing: traces[0])


def test_rejects_padding_that_contradicts_exhaustion():
    # the behaviour generator claims one cell is all there is, then the
    # padding loop turns up a second cell: the final recount must explode
    problem = choice_problem()
    space = endings_space(problem)
    plans = enumerate_plans(problem, 2)
    traces = [validate_plan(problem, p) for p in plans]
    set_a = next(t for t in traces if t.plan.labels() == ("set-a",))
    set_b = next(t for t in traces if t.plan.labels() == ("set-b",))

    def bgen(found):
        return set_a if not found else None

    with pytest.raises(RuntimeError, match="recount"):
        fbi(2, space, bgen, lambda existing: set_b)


def test_each_plan_behaviour_is_extracted_once(monkeypatch):
    # three cells from loop one, then one padding plan that repeats a cell
    problem = choice_problem()
    space = endings_space(problem)
    traces = {
        p.labels(): validate_plan(problem, p) for p in enumerate_plans(problem, 2)
    }
    novel = iter([traces[("set-a",)], traces[("set-b",)], traces[("set-a", "set-b")]])
    padding = iter([traces[("set-b", "set-a")]])
    calls = []

    def counting(space, trace):
        calls.append(trace)
        return extract(space, trace)

    extract = bspace.pbehaviour
    # the package re-exports the fbi function under the module's name
    monkeypatch.setattr(importlib.import_module("divplan.fbi"), "pbehaviour", counting)
    monkeypatch.setattr(bspace, "pbehaviour", counting)
    result = fbi(4, space, lambda found: next(novel, None), lambda e: next(padding, None))
    assert result.termination == REACHED_K and result.bdc == 3
    assert len(calls) == len(result.plans) == 4


def test_k_must_be_positive():
    problem = toggle_problem()
    space = endings_space(problem)
    with pytest.raises(ValueError, match="k=0"):
        fbi(0, space, lambda f: None, lambda e: None)


# ---------------------------------------------------------------------------
# result type
# ---------------------------------------------------------------------------


def test_result_validation():
    with pytest.raises(ValueError, match="termination"):
        FbiResult(plans=(), behaviours=(), termination="gave-up")
    with pytest.raises(ValueError, match="annotation"):
        FbiResult(plans=(), behaviours=(None,), termination=REACHED_K)


def test_result_to_json_is_plain_data():
    problem = choice_problem()
    space = endings_space(problem)
    result = fbi(2, space, *sat_gens(problem, space))
    doc = result.to_json()
    assert set(doc) == {"plans", "behaviours", "bdc", "termination"}
    assert all(isinstance(p, list) for p in doc["plans"])
    assert all(isinstance(lbl, str) for p in doc["plans"] for lbl in p)
    # goal-ending values render as sorted fluent-name lists
    assert all(isinstance(b, list) and len(b) == 1 for b in doc["behaviours"])
    assert doc["bdc"] == 2 and doc["termination"] == REACHED_K


def test_search_backend_end_to_end_behaviours():
    sim = CorridorSimulator()
    space = corridor_space()
    result = fbi(2, space, *search_gens(sim, space))
    assert result.termination == REACHED_K
    assert result.bdc == 2
    values = {b.values[0] for b in result.behaviours}
    assert values == {"with-key", "without-key"}


def test_same_inputs_same_result():
    problem = choice_problem()
    space = endings_space(problem)
    a = fbi(3, space, *sat_gens(problem, space))
    b = fbi(3, space, *sat_gens(problem, space))
    assert [t.plan.labels() for t in a.plans] == [t.plan.labels() for t in b.plans]
    assert a.behaviours == b.behaviours and a.bdc == b.bdc
