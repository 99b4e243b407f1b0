"""Hand-sized instances whose whole plan space fits in a brute-force oracle.

These exist for exact cross-checks: every plan, behaviour, and diversity
count can be enumerated independently and compared against what the real
machinery produces.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..bspace import BehaviourSpace, goal_endings_feature, ltl_feature
from ..core import Fluent, GoalFormula, GroundAction, GroundProblem
from ..ltl import Always, Atom, Eventually, Not

ON = Fluent("on")
A = Fluent("a")
B = Fluent("b")


def toggle_problem() -> GroundProblem:
    """One switch, goal on: a single realisable ending, odd-length plans."""
    return GroundProblem(
        fluents=frozenset([ON]),
        actions=(
            GroundAction("turn-on", pre_neg=frozenset([ON]), add=frozenset([ON])),
            GroundAction("turn-off", pre_pos=frozenset([ON]), delete=frozenset([ON])),
        ),
        init=frozenset(),
        goal=GoalFormula.conjunction([(ON, True)]),
    )


def two_switch_problem() -> GroundProblem:
    """Two switches, conjunctive goal: one ending, two shortest plans."""
    return GroundProblem(
        fluents=frozenset([A, B]),
        actions=(
            GroundAction("set-a", pre_neg=frozenset([A]), add=frozenset([A])),
            GroundAction("set-b", pre_neg=frozenset([B]), add=frozenset([B])),
        ),
        init=frozenset(),
        goal=GoalFormula.conjunction([(A, True), (B, True)]),
    )


def choice_problem() -> GroundProblem:
    """Two switches, disjunctive goal: three realisable endings."""
    return GroundProblem(
        fluents=frozenset([A, B]),
        actions=(
            GroundAction("set-a", pre_neg=frozenset([A]), add=frozenset([A])),
            GroundAction("set-b", pre_neg=frozenset([B]), add=frozenset([B])),
        ),
        init=frozenset(),
        goal=GoalFormula(disjuncts=(((A, True),), ((B, True),))),
    )


def endings_space(problem: GroundProblem) -> BehaviourSpace:
    return BehaviourSpace((goal_endings_feature(problem),))


@dataclass
class CorridorSimulator:
    """A four-cell hallway with an optional key pickup at the third cell.

    Reaching the last cell is the goal; whether the key was ever grabbed is
    the single behaviour dimension.
    """

    budget: int = 5

    def initial(self):
        return (0, False)

    def legal_actions(self, state):
        pos, key = state
        actions = []
        if pos > 0:
            actions.append("left")
        if pos < 3:
            actions.append("right")
        if pos == 2 and not key:
            actions.append("grab")
        return actions

    def step(self, state, action):
        pos, key = state
        if action == "left":
            return (pos - 1, key)
        if action == "right":
            return (pos + 1, key)
        if action == "grab":
            return (pos, True)
        raise ValueError(f"unknown action {action!r}")

    def propositions(self, state):
        return {"has-key": state[1], "at-end": state[0] == 3}

    def is_goal(self, state):
        return state[0] == 3


def corridor_space() -> BehaviourSpace:
    return BehaviourSpace(
        (
            ltl_feature(
                "key-pickup",
                (
                    ("with-key", Eventually(Atom("has-key"))),
                    ("without-key", Always(Not(Atom("has-key")))),
                ),
            ),
        )
    )
