"""Bundled case-study domains, each with the view `render` draws its
reports in, and the registry the CLI picks them from."""

from __future__ import annotations

from typing import Callable

from .platformer import platformer_pack, platformer_view
from .story import story_pack, story_view, tiny_story_pack
from .urban import urban_pack, urban_view

# name -> (pack, view): pack() -> (GroundProblem or simulator, BehaviourSpace);
# view(subject, [(replayed states, report behaviour)], color) -> text lines
BUNDLED = {
    "story": (story_pack, story_view),
    "story-tiny": (tiny_story_pack, story_view),
    "urban": (urban_pack, urban_view),
    "platformer": (platformer_pack, platformer_view),
}


def get_domain(name: str) -> Callable[[], tuple]:
    """The pack of the bundled domain called name."""
    try:
        return BUNDLED[name][0]
    except KeyError:
        raise KeyError(
            f"unknown bundled domain {name!r}; available: {sorted(BUNDLED)}"
        ) from None


__all__ = ["BUNDLED", "get_domain"]
