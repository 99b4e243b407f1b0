"""Iterative driver that assembles a behaviourally diverse plan set.

The driver is generic over a backend: it only needs a behaviour generator
(produce a valid trace realising a behaviour outside a given set, or report
that none exists) and a plan generator (produce a valid trace whose action
sequence is new, or report that none exists). Both bundled backends conform:
see satplan.behaviour_generator_sat / plan_generator_sat and
searchplan.behaviour_generator_ltl / plan_generator_ltl.

The first loop collects one plan per distinct behaviour until either the
requested count is reached or the behaviours run out; each success bumps the
diversity count. The second loop pads the set with behaviour-repeating (but
plan-distinct) traces. A generator hitting its resource budget aborts the run
with an inconclusive verdict instead of passing off "don't know" as "none
left".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional

from .bspace import Behaviour, BehaviourSpace, bdc, pbehaviour, value_to_json
from .core import GeneratorTimeout, Plan, PlanTrace

REACHED_K = "reached-k"
EXHAUSTED = "behaviours-exhausted-then-plans-exhausted"
INCONCLUSIVE = "inconclusive-budget"
TERMINATIONS = (REACHED_K, EXHAUSTED, INCONCLUSIVE)

BehaviourGenerator = Callable[[Iterable[Behaviour]], Optional[PlanTrace]]
PlanGenerator = Callable[[Iterable[Plan]], Optional[PlanTrace]]


@dataclass(frozen=True)
class FbiResult:
    """A diverse plan set with one behaviour annotation per plan.

    bdc counts the distinct behaviours contributed by the first loop; the
    constructor re-derives it from the annotations and refuses to build an
    inconsistent result.
    """

    plans: tuple
    behaviours: tuple
    bdc: int
    termination: str

    def __post_init__(self):
        if self.termination not in TERMINATIONS:
            raise ValueError(f"unknown termination reason {self.termination!r}")
        if len(self.plans) != len(self.behaviours):
            raise ValueError("one behaviour annotation per plan required")
        if self.bdc != len(set(self.behaviours)):
            raise ValueError(
                f"bdc {self.bdc} disagrees with {len(set(self.behaviours))} "
                "distinct annotations"
            )

    def to_json(self) -> dict:
        return {
            "plans": [list(trace.plan.labels()) for trace in self.plans],
            "behaviours": [
                [value_to_json(v) for v in b] for b in self.behaviours
            ],
            "bdc": self.bdc,
            "termination": self.termination,
        }


def fbi(
    k: int,
    space: BehaviourSpace,
    behaviour_gen: BehaviourGenerator,
    plan_gen: PlanGenerator,
) -> FbiResult:
    """Collect up to k valid plans maximising distinct behaviours.

    Loop one asks behaviour_gen for a trace outside the behaviours found so
    far; every answer is a fresh cell, counted into bdc. Once behaviour_gen
    proves exhaustion (returns None), loop two pads the set to k via
    plan_gen, which may repeat behaviours but never exact plans. Either
    generator raising GeneratorTimeout ends the run as inconclusive: the
    plans gathered so far are returned, but no exhaustion claim is made.
    """
    if k < 1:
        raise ValueError(f"need at least one plan, got k={k}")

    plans: list[PlanTrace] = []
    behaviours: list[Behaviour] = []
    inconclusive = False

    while len(plans) < k:
        try:
            trace = behaviour_gen(tuple(behaviours))
        except GeneratorTimeout:
            inconclusive = True
            break
        if trace is None:
            break
        found = pbehaviour(space, trace)
        if found in behaviours:
            raise RuntimeError(
                f"behaviour generator revisited {found}; its novelty "
                "constraint is broken"
            )
        plans.append(trace)
        behaviours.append(found)

    loop_one_count = len(plans)

    if len(plans) < k and not inconclusive:
        while len(plans) < k:
            try:
                trace = plan_gen(tuple(t.plan for t in plans))
            except GeneratorTimeout:
                inconclusive = True
                break
            if trace is None:
                break
            if any(trace.plan == t.plan for t in plans):
                raise RuntimeError(
                    f"plan generator repeated {trace.plan.labels()}; its "
                    "freshness constraint is broken"
                )
            plans.append(trace)
            behaviours.append(pbehaviour(space, trace))

    if len(plans) == k:
        termination = REACHED_K
    elif inconclusive:
        termination = INCONCLUSIVE
    else:
        termination = EXHAUSTED

    recount = bdc(space, plans)
    if recount != loop_one_count:
        raise RuntimeError(
            f"diversity recount {recount} disagrees with the loop count "
            f"{loop_one_count}; a generator violated its contract"
        )
    return FbiResult(
        plans=tuple(plans),
        behaviours=tuple(behaviours),
        bdc=loop_one_count,
        termination=termination,
    )
