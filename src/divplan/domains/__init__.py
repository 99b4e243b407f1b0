"""Bundled case-study domains and the registry the CLI picks them from."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .platformer import platformer_pack
from .story import story_pack, tiny_story_pack
from .urban import urban_pack

DECLARATIVE = "declarative"  # a GroundProblem; planned with the SAT backend
SIMULATOR = "simulator"  # a Simulator; planned with the search backend


@dataclass(frozen=True)
class BundledDomain:
    name: str
    kind: str  # DECLARATIVE or SIMULATOR
    load: Callable[[], tuple]  # () -> (problem-or-simulator, BehaviourSpace)


BUNDLED = {
    d.name: d
    for d in (
        BundledDomain("story", DECLARATIVE, story_pack),
        BundledDomain("story-tiny", DECLARATIVE, tiny_story_pack),
        BundledDomain("urban", SIMULATOR, urban_pack),
        BundledDomain("platformer", SIMULATOR, platformer_pack),
    )
}


def get_domain(name: str) -> BundledDomain:
    try:
        return BUNDLED[name]
    except KeyError:
        raise KeyError(
            f"unknown bundled domain {name!r}; available: {sorted(BUNDLED)}"
        ) from None


__all__ = [
    "BUNDLED",
    "BundledDomain",
    "DECLARATIVE",
    "SIMULATOR",
    "get_domain",
]
