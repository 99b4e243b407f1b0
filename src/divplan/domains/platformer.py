"""A deterministic one-screen platformer with a single enemy.

The avatar starts at the left and must reach the rightmost column. One
stationary enemy blocks the path: landing on its cell from above removes it
(the `killed` proposition latches), touching it any other way is fatal.
Physics are discrete — a fixed jump impulse, unit gravity, and cell-by-cell
collision against the level's solid tiles.

One kernel, `_successors`, steps a state under every action in one pass:
the ground check and the vertical motion without a jump are computed once
and shared by left, right and noop, and fatal actions are left out.
`platformer_step` reads one action from it. States are `NamedTuple`s, so
the search builds, hashes and compares them in C.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib.resources import files
from typing import NamedTuple, Optional

from ..bspace import BehaviourSpace, format_behaviour, ltl_feature
from ..ltl import Always, Atom, Eventually

ACTIONS = ("left", "right", "jump", "noop")
JUMP_IMPULSE = 2
TERMINAL_VELOCITY = -2
BUDGET = 40  # moves per plan
_KILLED = {"killed": True, "avoided": False}  # the two valuations, shared
_AVOIDED = {"killed": False, "avoided": True}


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


class PlatformerState(NamedTuple):
    """The avatar's cell and vertical speed, and whether the enemy lives.
    A tuple, so the search builds, hashes and compares states in C."""

    col: int
    row: int
    vy: int
    enemy_alive: bool


_TERRAIN = str.maketrans("", "", "#.")  # str.translate table deleting solid and air


def parse_level(text: str) -> Level:
    """Read an ASCII map: '#' solid, '.' air, 'A' avatar start, 'E' enemy.
    Rows end at '\n', less one '\r' before it; blank rows are skipped."""
    lines = [line.removesuffix("\r") for line in text.split("\n") if line.strip()]
    if not lines:
        raise LevelFormatError("empty level map")
    width = len(lines[0])
    if any(len(line) != width for line in lines):
        raise LevelFormatError("all map rows must have equal width")
    height = len(lines)
    solid = []
    avatar: Optional[tuple] = None
    enemy: Optional[tuple] = None
    for top_index, line in enumerate(lines):
        row = height - 1 - top_index
        if "#" in line:
            solid += [(col, row) for col, ch in enumerate(line) if ch == "#"]
        # the rest, in map order; a second 'A' or 'E' fails before its column
        for ch in line.translate(_TERRAIN):
            if ch == "A":
                if avatar is not None:
                    raise LevelFormatError("more than one avatar start")
                avatar = (line.index("A"), row)
            elif ch == "E":
                if enemy is not None:
                    raise LevelFormatError("more than one enemy")
                enemy = (line.index("E"), row)
            else:
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


_new_state = tuple.__new__  # a state without the Python-level NamedTuple.__new__


def _vertical(solid, height: int, col: int, row: int, vy: int, stop) -> tuple:
    """(row, vy) after moving vy cells up (vy > 0) or down, cell by cell:
    a solid tile or the level edge zeroes vy (head bump or landing), and
    entering row `stop` (the live enemy's cell in this column) ends the
    move."""
    step = 1 if vy > 0 else -1
    for _ in range(abs(vy)):
        row += step
        if not 0 <= row < height or (col, row) in solid:
            return row - step, 0
        if row == stop:
            break
    return row, vy


def _successors(level: Level, state: PlatformerState) -> dict:
    """action -> successor for every action that does not kill the avatar,
    in ACTIONS order. One physics tick: optional jump impulse, vertical
    motion with collisions, then horizontal motion, then enemy contact (a
    squash if the tick began above the enemy's row, else death) and
    gravity. Left, right and noop share one vertical motion; jump moves on
    its own only from the ground, and off it is noop."""
    col, row, vy, alive = state
    solid, width, height = level.solid, level.width, level.height
    ecol, erow = level.enemy_pos
    stop = erow if alive and ecol == col else None
    fall = _vertical(solid, height, col, row, vy, stop)
    on_ground = row == 0 or (col, row - 1) in solid
    leap = _vertical(solid, height, col, row, JUMP_IMPULSE, stop) if on_ground else fall
    successors = {}
    for action, dcol, (top, speed) in (
        ("left", -1, fall), ("right", 1, fall), ("jump", 0, leap), ("noop", 0, fall)
    ):
        cell = col + dcol
        if dcol and (not 0 <= cell < width or (cell, top) in solid):
            cell = col
        survives = alive
        if alive and cell == ecol and top == erow:
            if row <= erow:
                continue  # walked into the enemy
            survives = False  # squashed from above
        if top == 0 or (cell, top - 1) in solid:
            speed = 0
        else:
            speed = speed - 1 if speed > TERMINAL_VELOCITY else TERMINAL_VELOCITY
        successors[action] = _new_state(PlatformerState, (cell, top, speed, survives))
    return successors


def platformer_step(level: Level, state: PlatformerState, action: str) -> PlatformerState:
    """One physics tick of `action` (see `_successors`); AvatarDied if it
    kills the avatar."""
    if action not in ACTIONS:
        raise ValueError(f"unknown action {action!r}; expected one of {ACTIONS}")
    try:
        return _successors(level, state)[action]
    except KeyError:
        raise AvatarDied(f"walked into the enemy at {level.enemy_pos}") from None


class PlatformerSimulator:
    """Search interface; fatal moves are simply not offered as legal.

    `legal_actions` computes every successor of a state in one physics pass
    (`_successors`), and the simulator keeps the successors of the last
    state it saw, so `step` on that state returns them instead of stepping
    again. States are tuples and valuations are two shared dicts.
    """

    def __init__(self, level: Level):
        self.level = level
        self.budget = BUDGET
        self._last: tuple = (None, {})  # (state, action -> successor)

    def initial(self) -> PlatformerState:
        col, row = self.level.avatar_start
        return PlatformerState(col=col, row=row, vy=0, enemy_alive=True)

    def legal_actions(self, state: PlatformerState):
        successors = _successors(self.level, state)
        self._last = (state, successors)
        return list(successors)

    def step(self, state: PlatformerState, action: str) -> PlatformerState:
        last, successors = self._last
        if state is last and action in successors:
            return successors[action]
        return platformer_step(self.level, state, action)

    def propositions(self, state: PlatformerState) -> dict:
        return _AVOIDED if state.enemy_alive else _KILLED

    def is_goal(self, state: PlatformerState) -> bool:
        return state.col == self.level.width - 1


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


def platformer_view(sim: PlatformerSimulator, plans, color: bool) -> list:
    """Render lines for replayed (states, behaviour) pairs: the level with
    each plan's path, final avatar and enemy fate drawn in (no colours)."""
    level = sim.level
    lines = []
    for i, (states, behaviour) in enumerate(plans):
        state = states[-1]
        visited = {(s.col, s.row) for s in states}
        lines.append(f"plan {i} {format_behaviour(behaviour)}: {len(states) - 1} moves")
        for row in range(level.height - 1, -1, -1):
            chars = []
            for col in range(level.width):
                if (col, row) == (state.col, state.row):
                    chars.append("A")
                elif (col, row) == level.enemy_pos:
                    chars.append("E" if state.enemy_alive else "x")
                elif level.is_solid(col, row):
                    chars.append("#")
                elif (col, row) in visited:
                    chars.append("o")
                else:
                    chars.append(".")
            lines.append("  " + "".join(chars))
        lines.append("")
    lines.append("legend: A avatar (final), o path, E enemy, x stomped enemy")
    return lines
