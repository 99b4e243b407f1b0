"""Bundled case-study domains and the registry the CLI picks them from."""

from __future__ import annotations

from typing import Callable

from .platformer import platformer_pack
from .story import story_pack, tiny_story_pack
from .urban import urban_pack

# name -> () -> (GroundProblem or simulator, BehaviourSpace)
BUNDLED = {
    "story": story_pack,
    "story-tiny": tiny_story_pack,
    "urban": urban_pack,
    "platformer": platformer_pack,
}


def get_domain(name: str) -> Callable[[], tuple]:
    try:
        return BUNDLED[name]
    except KeyError:
        raise KeyError(
            f"unknown bundled domain {name!r}; available: {sorted(BUNDLED)}"
        ) from None


__all__ = ["BUNDLED", "get_domain"]
