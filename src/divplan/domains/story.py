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


def story_view(problem, plans, color: bool) -> list:
    """Render lines for replayed (states, behaviour) pairs: each plan's
    length and who ends up married to whom (no colours)."""
    lines = []
    for i, (states, behaviour) in enumerate(plans):
        endings = []
        for value in behaviour:
            items = value if isinstance(value, list) else [value]
            for item in items:
                if item.startswith("married-to(") and item.endswith(")"):
                    a, b = item[len("married-to(") : -1].split(",")
                    endings.append(f"{a.strip()} married {b.strip()}")
                else:
                    endings.append(item)
        summary = "; ".join(endings) if endings else "nobody married"
        lines.append(f"plan {i} ({len(states) - 1} steps): {summary}")
    lines.append("")
    return lines
