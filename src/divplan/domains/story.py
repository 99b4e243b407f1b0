"""The bundled narrative-planning domain: who ends up married to whom.

Two instances ship with the package: the full five-character cast, whose
goal grounds to twenty ordered married-to pairs, and a two-character cut
kept small enough for brute-force test oracles.
"""

from __future__ import annotations

from importlib.resources import files

from ..bspace import BehaviourSpace, goal_endings_feature
from ..pddl import ground, parse_domain, parse_problem


def _data(name: str) -> str:
    return (files("divplan.domains") / "data" / name).read_text()


def _pack(domain_file: str, problem_file: str) -> tuple:
    domain = parse_domain(_data(domain_file))
    problem = ground(domain, parse_problem(_data(problem_file), domain))
    return problem, BehaviourSpace((goal_endings_feature(problem),))


def story_pack() -> tuple:
    """(ground problem, possible-endings space) for the full cast."""
    return _pack("aladdin-domain.pddl", "aladdin-problem.pddl")


def tiny_story_pack() -> tuple:
    """The two-character cut: 4 ground actions, oracle-enumerable."""
    return _pack("story-tiny-domain.pddl", "story-tiny-problem.pddl")
