"""A deterministic one-screen platformer with a single enemy.

The avatar starts at the left and must reach the rightmost column. One
stationary enemy blocks the path: landing on its cell from above removes it
(the `killed` proposition latches), touching it any other way is fatal.
Physics are discrete — a fixed jump impulse, unit gravity, and cell-by-cell
collision against the level's solid tiles.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib.resources import files
from typing import Optional

from ..bspace import BehaviourSpace, ltl_feature
from ..ltl import Always, Atom, Eventually

ACTIONS = ("left", "right", "jump", "noop")
JUMP_IMPULSE = 2
TERMINAL_VELOCITY = -2
DEFAULT_BUDGET = 40


class PlatformerError(Exception):
    pass


class AvatarDied(PlatformerError):
    """The avatar touched a live enemy other than by landing on it."""


class LevelFormatError(PlatformerError):
    pass


@dataclass(frozen=True)
class Level:
    """Static geometry plus the two start positions.

    Rows are numbered from the bottom (row 0 is the floor line); a map file
    lists the top row first. `solid` holds (col, row) tiles.
    """

    width: int
    height: int
    solid: frozenset
    avatar_start: tuple
    enemy_pos: tuple

    def is_solid(self, col: int, row: int) -> bool:
        return (col, row) in self.solid

    def in_bounds(self, col: int, row: int) -> bool:
        return 0 <= col < self.width and 0 <= row < self.height


@dataclass(frozen=True)
class PlatformerState:
    col: int
    row: int
    vy: int
    enemy_alive: bool
    tick: int = 0


def parse_level(text: str) -> Level:
    """Read an ASCII map: '#' solid, '.' air, 'A' avatar start, 'E' enemy."""
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise LevelFormatError("empty level map")
    width = len(lines[0])
    if any(len(line) != width for line in lines):
        raise LevelFormatError("all map rows must have equal width")
    height = len(lines)
    solid = set()
    avatar: Optional[tuple] = None
    enemy: Optional[tuple] = None
    for top_index, line in enumerate(lines):
        row = height - 1 - top_index
        for col, ch in enumerate(line):
            if ch == "#":
                solid.add((col, row))
            elif ch == "A":
                if avatar is not None:
                    raise LevelFormatError("more than one avatar start")
                avatar = (col, row)
            elif ch == "E":
                if enemy is not None:
                    raise LevelFormatError("more than one enemy")
                enemy = (col, row)
            elif ch != ".":
                raise LevelFormatError(f"unknown map character {ch!r}")
    if avatar is None or enemy is None:
        raise LevelFormatError("level needs one 'A' and one 'E'")
    return Level(
        width=width,
        height=height,
        solid=frozenset(solid),
        avatar_start=avatar,
        enemy_pos=enemy,
    )


def platformer_step(level: Level, state: PlatformerState, action: str) -> PlatformerState:
    """One physics tick: optional jump impulse, vertical motion with
    collisions, then horizontal motion, then enemy contact and gravity."""
    if action not in ACTIONS:
        raise ValueError(f"unknown action {action!r}; expected one of {ACTIONS}")
    col, row, vy = state.col, state.row, state.vy
    start_row = row
    on_ground = level.is_solid(col, row - 1) or row == 0

    if action == "jump" and on_ground:
        vy = JUMP_IMPULSE

    # vertical, cell by cell; stop on solids and on entering the enemy cell
    direction = 1 if vy > 0 else -1
    for _ in range(abs(vy)):
        nxt = row + direction
        if not level.in_bounds(col, nxt) or level.is_solid(col, nxt):
            vy = 0  # head bump or landing
            break
        row = nxt
        if state.enemy_alive and (col, row) == level.enemy_pos:
            break

    # horizontal
    dcol = {"left": -1, "right": 1}.get(action, 0)
    if dcol and level.in_bounds(col + dcol, row) and not level.is_solid(col + dcol, row):
        col += dcol

    # enemy contact
    enemy_alive = state.enemy_alive
    if enemy_alive and (col, row) == level.enemy_pos:
        if start_row > level.enemy_pos[1]:
            enemy_alive = False  # squashed from above
        else:
            raise AvatarDied(f"walked into the enemy at {level.enemy_pos}")

    # gravity
    if level.is_solid(col, row - 1) or row == 0:
        vy = 0
    else:
        vy = max(vy - 1, TERMINAL_VELOCITY)

    return PlatformerState(
        col=col, row=row, vy=vy, enemy_alive=enemy_alive, tick=state.tick + 1
    )


class PlatformerSimulator:
    """Search interface; fatal moves are simply not offered as legal."""

    def __init__(self, level: Level, budget: int = DEFAULT_BUDGET):
        if budget < 1:
            raise ValueError("budget must be positive")
        self.level = level
        self.budget = budget
        self.alphabet = ("killed", "avoided")

    def initial(self) -> PlatformerState:
        col, row = self.level.avatar_start
        return PlatformerState(col=col, row=row, vy=0, enemy_alive=True)

    def legal_actions(self, state: PlatformerState):
        legal = []
        for action in ACTIONS:
            try:
                platformer_step(self.level, state, action)
            except AvatarDied:
                continue
            legal.append(action)
        return legal

    def step(self, state: PlatformerState, action: str) -> PlatformerState:
        return platformer_step(self.level, state, action)

    def propositions(self, state: PlatformerState) -> dict:
        return {"killed": not state.enemy_alive, "avoided": state.enemy_alive}

    def is_goal(self, state: PlatformerState) -> bool:
        return state.col == self.level.width - 1

    def digest(self, state: PlatformerState):
        # ticks only count the budget; they don't affect the future
        return (state.col, state.row, state.vy, state.enemy_alive)


def platformer_space() -> BehaviourSpace:
    """One dimension: how the enemy encounter ends across the whole trace."""
    return BehaviourSpace(
        (
            ltl_feature(
                "enemy-encounter",
                (
                    ("killed", Eventually(Always(Atom("killed")))),
                    ("avoided", Always(Atom("avoided"))),
                ),
            ),
        )
    )


def bundled_level() -> Level:
    """The level shipped with the package."""
    return parse_level(
        (files("divplan.domains") / "data" / "platformer-level.txt").read_text()
    )


def platformer_pack() -> tuple:
    """(simulator over the bundled level, enemy-encounter space)."""
    return PlatformerSimulator(bundled_level()), platformer_space()
