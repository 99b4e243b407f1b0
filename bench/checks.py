"""Output checks, run outside every request's timed span.

Every plan is replayed from fresh inputs: a ground problem through
`core.validate_plan`, or a fresh simulator. Where a run claims that the
behaviours are exhausted, an oracle that does not use the backend under
test gives the true cell set.
"""

from __future__ import annotations

import filecmp
import itertools
import os
import tempfile

from divplan import cli
from divplan.bspace import Behaviour, pbehaviour
from divplan.core import Plan, PlanTrace, applicable, apply, validate_plan
from divplan.fbi import INCONCLUSIVE
from divplan.satplan import EXTERNAL_SOLVER_ENV

import workloads


def problems(request: workloads.Request, result) -> list:
    """Every way this fbi result breaks its contract; empty when it holds."""
    subject, space = workloads.build(request)
    found = []
    if result.termination == INCONCLUSIVE:
        found.append("ended inconclusive-budget")
    labels = [trace.plan.labels() for trace in result.plans]
    if len(set(labels)) != len(labels):
        found.append("plans are not pairwise distinct")
    loop_one = result.behaviours[: result.bdc]
    if len(set(loop_one)) != len(loop_one):
        found.append("loop-one behaviours are not pairwise distinct")
    for i, (trace, behaviour) in enumerate(zip(result.plans, result.behaviours)):
        try:
            replayed = _replay(request, subject, trace)
        except Exception as exc:  # any replay failure is a wrong plan
            found.append(f"plan {i} does not replay: {type(exc).__name__}: {exc}")
            continue
        if pbehaviour(space, replayed) != behaviour:
            found.append(f"plan {i}: annotation differs from its replayed behaviour")

    exhausted = result.bdc < request.k and result.termination != INCONCLUSIVE
    if exhausted and request.family in ORACLES:
        cells = ORACLES[request.family](request)
        if set(loop_one) != cells:
            found.append(
                f"claims {result.bdc} cells exhausted; the oracle finds {len(cells)}"
            )
    return found


def _replay(request, subject, trace) -> PlanTrace:
    if request.backend == workloads.SAT:
        actions = tuple(subject.action(label) for label in trace.plan.labels())
        replayed = validate_plan(subject, Plan(actions))
        if replayed.states != trace.states:
            raise ValueError("state sequence differs from the returned trace")
        return replayed
    sim = subject
    state = sim.initial()
    states, valuations = [state], [dict(sim.propositions(state))]
    for action in trace.plan.labels():
        if action not in sim.legal_actions(state):
            raise ValueError(f"illegal action {action!r} after {len(states) - 1} steps")
        state = sim.step(state, action)
        states.append(state)
        valuations.append(dict(sim.propositions(state)))
    if sim.budget is not None and len(trace.plan) > sim.budget:
        raise ValueError("plan is longer than the simulator budget")
    if not sim.is_goal(state):
        raise ValueError("final state is not a goal")
    if tuple(states) != trace.states or tuple(valuations) != trace.valuations:
        raise ValueError("states or valuations differ from the returned trace")
    return PlanTrace(Plan(trace.plan.actions), tuple(states), tuple(valuations))


def _story_cells(request) -> set:
    """Goal-fluent endings of every goal state reachable in exactly h steps,
    h up to the horizon cap, by breadth-first state enumeration."""
    problem, space = workloads.build(request)
    (feature,) = space.features
    base = feature.expression.goal_fluents
    cells, layer = set(), {problem.init}
    for depth in request.horizons:
        for state in layer:
            if problem.goal.satisfied_by(state):
                cells.add(frozenset(f for f in base if f in state))
        if depth < request.horizon_cap:
            layer = {
                apply(state, action)
                for state in layer
                for action in problem.actions
                if applicable(state, action)
            }
    return {Behaviour((cell,)) for cell in cells}


def _urban_cells(request) -> set:
    """Behaviours of all 5^budget action sequences through a fresh simulator."""
    sim, space = workloads.build(request)
    actions = [rule.action for rule in sim.rules]
    cells = set()
    for sequence in itertools.product(actions, repeat=sim.budget):
        states = [sim.initial()]
        for action in sequence:
            states.append(sim.step(states[-1], action))
        cells.add(pbehaviour(space, PlanTrace(Plan(sequence), tuple(states))))
    return cells


ORACLES = {"story-tiny": _story_cells, "urban": _urban_cells}


CLI_RUNS = {
    "sat-story": ["--domain", "story", "--backend", "sat", "--k", "3"],
    "search-platformer": ["--domain", "platformer", "--backend", "search", "--k", "2"],
}


def external_solver_set() -> bool:
    return bool(os.environ.get(EXTERNAL_SOLVER_ENV))


def cli_determinism(workload: str, root: str) -> list:
    """Run the bundled CLI case for this workload's backend twice in-process;
    the two reports must match byte for byte."""
    if workload not in CLI_RUNS:
        return []
    with tempfile.TemporaryDirectory(prefix=".bench-cli-", dir=root) as tmp:
        paths = [os.path.join(tmp, f"report-{i}.json") for i in range(2)]
        for path in paths:
            code = cli.main(["plan", *CLI_RUNS[workload], "--out", path])
            if code != cli.EXIT_OK:
                return [f"bundled CLI run exited {code}"]
        if not filecmp.cmp(*paths, shallow=False):
            return ["two bundled CLI reports differ"]
    return []
