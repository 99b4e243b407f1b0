"""Test-only references: hand-sized instances and brute-force oracles.

Nothing here is part of the installed package. The instances are small
enough that every plan, behaviour and diversity count can be enumerated
independently and compared with what the real machinery produces; the
functions are the straightforward versions the program's faster paths are
checked against.
"""

from __future__ import annotations

import importlib.util
import itertools
import math
import random
import re
import sys
from collections import deque
from dataclasses import dataclass, fields, replace
from operator import itemgetter
from pathlib import Path

from divplan import pddl
from divplan.bspace import (
    Behaviour,
    BehaviourSpace,
    TemporalFormula,
    goal_endings_feature,
    ltl_feature,
    pbehaviour,
)
from divplan.core import (
    Fluent,
    GeneratorTimeout,
    GoalFormula,
    GroundAction,
    GroundProblem,
    Plan,
    PlanTrace,
    State,
    applicable,
    apply,
    record_of,
)
from divplan.domains.platformer import (
    ACTIONS,
    JUMP_IMPULSE,
    TERMINAL_VELOCITY,
    AvatarDied,
    Level,
    LevelFormatError,
    PlatformerState,
)
from divplan.domains.urban import (
    CONVERSION_FRACTION,
    EMPTY,
    LAND_USES,
    RULES,
    SUSTAINABLE,
    EmptyGrid,
    UrbanGrid,
)
from divplan.ltl import (
    FALSE,
    TRUE,
    Always,
    And,
    Atom,
    Eventually,
    FalseFormula,
    LtlFormula,
    Not,
    Or,
    PropTrace,
    TrueFormula,
    UnknownAtom,
    _lookup,
    atoms,
    final_eval,
    mk_and,
    progress,
)
from divplan.pddl import (
    GoalAnd,
    GoalAtom,
    GoalExists,
    GoalOr,
    GroundingExplosion,
    LiteralAst,
    PddlError,
    PddlSyntaxError,
    _objects_by_type,
    _validate_problem,
)
from divplan.searchplan import (
    SearchResult,
    SearchStats,
    _moves,
    _trace,
)

# -- hand-sized declarative instances ------------------------------------------

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


# -- a hand-sized simulator ------------------------------------------------------


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


# -- the level parser, one character at a time ------------------------------------


def reference_parse_level(text: str) -> Level:
    """`platformer.parse_level` as it was before it scanned only the
    non-terrain characters: every character of every row is dispatched in
    map order, top row first. It is the reference for that scan, not for
    how rows are split, so it splits them as parse_level does."""
    lines = [line.removesuffix("\r") for line in text.split("\n") if line.strip()]
    if not lines:
        raise LevelFormatError("empty level map")
    width = len(lines[0])
    if any(len(line) != width for line in lines):
        raise LevelFormatError("all map rows must have equal width")
    height = len(lines)
    solid = set()
    avatar = enemy = None
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


# -- the platformer step, one action at a time -------------------------------------


def reference_platformer_step(
    level: Level, state: PlatformerState, action: str
) -> PlatformerState:
    """One physics tick: optional jump impulse, vertical motion with
    collisions, then horizontal motion, then enemy contact and gravity."""
    if action not in ACTIONS:
        raise ValueError(f"unknown action {action!r}; expected one of {ACTIONS}")

    def in_bounds(col: int, row: int) -> bool:
        return 0 <= col < level.width and 0 <= row < level.height

    col, row, vy = state.col, state.row, state.vy
    start_row = row
    on_ground = level.is_solid(col, row - 1) or row == 0

    if action == "jump" and on_ground:
        vy = JUMP_IMPULSE

    # vertical, cell by cell; stop on solids and on entering the enemy cell
    direction = 1 if vy > 0 else -1
    for _ in range(abs(vy)):
        nxt = row + direction
        if not in_bounds(col, nxt) or level.is_solid(col, nxt):
            vy = 0  # head bump or landing
            break
        row = nxt
        if state.enemy_alive and (col, row) == level.enemy_pos:
            break

    # horizontal
    dcol = {"left": -1, "right": 1}.get(action, 0)
    if dcol and in_bounds(col + dcol, row) and not level.is_solid(col + dcol, row):
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

    return PlatformerState(col=col, row=row, vy=vy, enemy_alive=enemy_alive)


# -- the urban step and scores, cell by cell --------------------------------------


def reference_urban_step(grid: UrbanGrid, action: str) -> UrbanGrid:
    """One conversion through a checked grid: list every source cell, take
    the first ceil(CONVERSION_FRACTION * n) of them row-major, and split
    them over the targets with the remainder going to the first."""
    rule = next((r for r in RULES if r.action == action), None)
    if rule is None:
        raise ValueError(f"unknown action {action!r}")
    indices = [i for i, c in enumerate(grid.cells) if c == rule.source]
    affected = indices[: math.ceil(CONVERSION_FRACTION * len(indices))]
    share, remainder = divmod(len(affected), len(rule.targets))
    quotas = [share] * len(rule.targets)
    quotas[0] += remainder
    cells = list(grid.cells)
    cursor = 0
    for target, quota in zip(rule.targets, quotas):
        for i in affected[cursor : cursor + quota]:
            cells[i] = target
        cursor += quota
    return UrbanGrid(grid.width, grid.height, tuple(cells), grid.counter + 1)


def reference_scores(grid: UrbanGrid) -> tuple:
    """(sustainability, diversity), each 0-100, counted cell by cell:
    the sustainable share of used land, and the Shannon entropy of the
    land-use proportions over used cells normalised by log 5."""
    used = len(grid.cells) - grid.cells.count(EMPTY)
    if used == 0:
        raise EmptyGrid("scores are undefined on an all-empty grid")
    good = sum(grid.cells.count(code) for code in sorted(SUSTAINABLE))
    entropy = 0.0
    for code in LAND_USES:
        p = grid.cells.count(code) / used
        if p > 0:
            entropy -= p * math.log(p)
    diversity = min(100.0, 100.0 * entropy / math.log(len(LAND_USES)))
    return 100.0 * good / used, diversity


# -- brute-force plan enumeration --------------------------------------------------


def bdc(space: BehaviourSpace, traces) -> int:
    """Behaviour diversity count: distinct behaviours among the traces."""
    return len({pbehaviour(space, t) for t in traces})


def enumerate_plans(problem: GroundProblem, max_len: int) -> list[Plan]:
    """All valid plans of length <= max_len, in deterministic order.

    Brute force over action sequences; intended as the test oracle at desk
    scale (max_len <= 8 for the bundled instances). Plans are ordered by
    length, then lexicographically by action position in problem.actions.
    """
    limit = max_len
    if problem.budget is not None:
        limit = min(limit, problem.budget)
    found: list[Plan] = []

    def extend(prefix: list[GroundAction], state: State) -> None:
        if problem.goal.satisfied_by(state):
            found.append(Plan(tuple(prefix)))
        if len(prefix) == limit:
            return
        for action in problem.actions:
            if applicable(state, action):
                prefix.append(action)
                extend(prefix, apply(state, action))
                prefix.pop()

    extend([], problem.init)
    found.sort(key=lambda p: (len(p), [problem.actions.index(a) for a in p]))
    return found


def goal_ending_cells(problem: GroundProblem, horizons) -> set:
    """The cells of `goal_endings_feature(problem)` that plans of a length in
    `horizons` reach: the goal-fluent ending of every goal state reachable in
    exactly h steps, by breadth-first state enumeration."""
    base = problem.goal.fluents()
    lengths = set(horizons)
    cells, layer = set(), {problem.init}
    for depth in range(max(lengths) + 1):
        if depth in lengths:
            for state in layer:
                if problem.goal.satisfied_by(state):
                    cells.add(Behaviour((frozenset(base & state),)))
        layer = {
            apply(state, action)
            for state in layer
            for action in problem.actions
            if applicable(state, action)
        }
    return cells


# -- the grounder, one LiteralAst and one Fluent per literal ------------------------


def reference_ground(domain, problem) -> GroundProblem:
    """`pddl.ground` as it was before it compiled schemas: every literal of
    every instantiation is substituted into a fresh LiteralAst and built
    into a fresh Fluent, and the goal is grounded the same way, with a
    marker for a goal that always holds rather than its DNF."""
    _validate_problem(domain, problem)
    by_type = _objects_by_type(domain, problem)
    dynamic = {
        l.pred for schema in domain.actions for l in (schema.add + schema.delete)
    }
    init = frozenset(_ground_fluent(l) for l in problem.init)

    total = 0
    for schema in domain.actions:
        count = 1
        for p in schema.params:
            count *= len(by_type.get(p.type, []))
        total += count
        if total > pddl.GROUND_ACTION_CAP:
            raise GroundingExplosion(
                f"the problem grounds to more than {pddl.GROUND_ACTION_CAP} actions"
            )

    actions = []
    for schema in domain.actions:
        pools = [by_type.get(p.type, []) for p in schema.params]
        for combo in itertools.product(*pools):
            binding = {p.name: obj for p, obj in zip(schema.params, combo)}
            ground_action = _instantiate(schema, binding, dynamic, init)
            if ground_action is not None:
                actions.append(ground_action)

    disjuncts = _goal_dnf(problem.goal, {}, by_type, dynamic, init)
    if disjuncts is _TRUE:
        goal = GoalFormula.trivial()
    elif not disjuncts:
        raise PddlError("goal is unsatisfiable after grounding")
    else:
        canonical = sorted({tuple(sorted(d)) for d in disjuncts}, key=lambda d: (len(d), d))
        goal = GoalFormula(tuple(canonical))

    universe = init | goal.fluents()
    for a in actions:
        universe |= a.fluents()
    return GroundProblem(
        fluents=frozenset(universe), actions=tuple(actions), init=init, goal=goal
    )


def _substitute(lit: LiteralAst, binding: dict) -> LiteralAst:
    return LiteralAst(lit.pred, tuple(binding.get(a, a) for a in lit.args), lit.positive)


def _ground_fluent(lit: LiteralAst) -> Fluent:
    return Fluent(lit.pred, lit.args)


def _instantiate(schema, binding, dynamic, init):
    pre_pos: set = set()
    pre_neg: set = set()
    for lit in schema.pre:
        glit = _substitute(lit, binding)
        if glit.pred == "=":
            if (glit.args[0] == glit.args[1]) != glit.positive:
                return None
            continue
        fluent = _ground_fluent(glit)
        if glit.pred not in dynamic:
            if (fluent in init) != glit.positive:
                return None
            continue
        (pre_pos if glit.positive else pre_neg).add(fluent)

    add = {_ground_fluent(_substitute(l, binding)) for l in schema.add}
    delete = {_ground_fluent(_substitute(l, binding)) for l in schema.delete}
    delete -= add  # add wins on overlap

    if schema.params:
        label = f"{schema.name}({','.join(binding[p.name] for p in schema.params)})"
    else:
        label = schema.name
    return GroundAction(
        name=label,
        pre_pos=frozenset(pre_pos),
        pre_neg=frozenset(pre_neg),
        add=frozenset(add),
        delete=frozenset(delete),
    )


# the grounder's old marker for a goal that always holds
_TRUE = "true"


def _dnf_and(left, right):
    if left is _TRUE:
        return right
    if right is _TRUE:
        return left
    out = []
    for dl in left:
        for dr in right:
            merged = dl | dr
            if len({f for f, _ in merged}) == len(merged):  # no p & !p
                out.append(merged)
    return out


def _goal_dnf(goal, binding, by_type, dynamic, init):
    """DNF as a list of frozensets of (Fluent, polarity), or the _TRUE marker."""
    if isinstance(goal, GoalAtom):
        lit = _substitute(goal.literal, binding)
        if lit.pred == "=":
            holds = (lit.args[0] == lit.args[1]) == lit.positive
            return _TRUE if holds else []
        fluent = _ground_fluent(lit)
        if lit.pred not in dynamic:
            holds = (fluent in init) == lit.positive
            return _TRUE if holds else []
        return [frozenset({(fluent, lit.positive)})]
    if isinstance(goal, GoalAnd):
        result = _TRUE
        for child in goal.children:
            result = _dnf_and(result, _goal_dnf(child, binding, by_type, dynamic, init))
        return result
    if isinstance(goal, GoalOr):
        out: list = []
        for child in goal.children:
            child_dnf = _goal_dnf(child, binding, by_type, dynamic, init)
            if child_dnf is _TRUE:
                return _TRUE
            out.extend(child_dnf)
        return out
    if isinstance(goal, GoalExists):
        pools = [by_type.get(p.type, []) for p in goal.params]
        out = []
        for combo in itertools.product(*pools):
            extended = dict(binding)
            extended.update({p.name: obj for p, obj in zip(goal.params, combo)})
            child_dnf = _goal_dnf(goal.body, extended, by_type, dynamic, init)
            if child_dnf is _TRUE:
                return _TRUE
            out.extend(child_dnf)
        return out
    raise TypeError(goal)


# -- the PDDL reader, one tokenizer over the whole text ----------------------------


@dataclass(frozen=True)
class RefSAtom:
    text: str
    line: int
    col: int


class RefSList(list):
    def __init__(self, line: int, col: int):
        super().__init__()
        self.line = line
        self.col = col


# a parenthesis, a comment or an atom; every other character is whitespace
_REF_TOKEN_RE = re.compile(r"[()]|;[^\n]*|[^\s();]+")


def _reference_tokenize(text: str):
    """(token, line, col) per parenthesis and atom. Lines are counted at
    ``\\n`` and columns in characters, so a tab is one column."""
    line, line_start, seen = 1, 0, 0
    for m in _REF_TOKEN_RE.finditer(text):
        tok, start = m.group(), m.start()
        newlines = text.count("\n", seen, start)
        if newlines:
            line += newlines
            line_start = text.rindex("\n", seen, start) + 1
        seen = start
        if tok[0] != ";":
            yield tok, line, start - line_start + 1


def reference_read_sexps(text: str) -> list:
    """`pddl._read_sexps` as it was before it read one line at a time: a
    whole-text tokenizer that counts the newlines before each token, and
    atoms as frozen dataclasses and lists as list subclasses."""
    stack: list = []
    top: list = []
    for tok, line, col in _reference_tokenize(text):
        if tok == "(":
            if len(stack) == pddl.MAX_NESTING:
                raise PddlSyntaxError(
                    f"lists nested deeper than {pddl.MAX_NESTING}", line, col
                )
            stack.append(RefSList(line, col))
        elif tok == ")":
            if not stack:
                raise PddlSyntaxError("unbalanced ')'", line, col)
            done = stack.pop()
            (stack[-1] if stack else top).append(done)
        else:
            atom = RefSAtom(tok.lower(), line, col)
            if stack:
                stack[-1].append(atom)
            else:
                top.append(atom)
    if stack:
        raise PddlSyntaxError("unbalanced '('", stack[-1].line, stack[-1].col)
    return top


# -- the plan walk, one fresh walk per call ----------------------------------------


def per_call_plan_generator(sim, existing_plans, cfg):
    """`searchplan.plan_generator_ltl` as a plain breadth-first tree walk from
    the root on every call that asks the simulator for every transition,
    returns the first goal trace whose plan is not in existing_plans, and
    counts its expansions against cfg.node_budget."""
    seen = {plan.labels() for plan in existing_plans}
    depth_cap = getattr(sim, "budget", None)
    init = sim.initial()
    frontier = deque([((), (init,), (sim.propositions(init),))])
    expanded = 0
    while frontier:
        if expanded >= cfg.node_budget:
            raise GeneratorTimeout("node budget exhausted")
        actions, states, valuations = frontier.popleft()
        expanded += 1
        if sim.is_goal(states[-1]) and Plan(actions).labels() not in seen:
            return PlanTrace(Plan(actions), states, valuations)
        if depth_cap is not None and len(actions) >= depth_cap:
            continue
        for action in sim.legal_actions(states[-1]):
            succ = sim.step(states[-1], action)
            frontier.append(
                (actions + (action,), states + (succ,),
                 valuations + (sim.propositions(succ),))
            )
    return None


class GroundSimulator:
    """A ground problem behind the Simulator protocol: states are fluent
    frozensets, moves are the applicable actions in problem.actions order,
    and the propositions are the goal fluents' truths keyed by their names."""

    def __init__(self, problem: GroundProblem, budget=None):
        self.problem, self.budget = problem, budget

    def initial(self):
        return self.problem.init

    def legal_actions(self, state):
        return [a for a in self.problem.actions if applicable(state, a)]

    def step(self, state, action):
        return apply(state, action)

    def propositions(self, state):
        return {str(fluent): fluent in state for fluent in self.problem.goal.fluents()}

    def is_goal(self, state):
        return self.problem.goal.satisfied_by(state)


_ROOT = Path(__file__).resolve().parent.parent
_DATA = _ROOT / "src" / "divplan" / "domains" / "data"


def _bench_workloads():
    """bench/workloads.py, loaded without putting bench/ on sys.path."""
    path = _ROOT / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _bench_workloads()


def seeded_tiny_cut(seed: int) -> GroundProblem:
    """The story-tiny cut the benchmark's `workloads.tiny_problem` draws for
    random.Random(seed), grounded."""
    domain = pddl.load_domain(str(_DATA / "story-tiny-domain.pddl"))
    text = workloads.tiny_problem(random.Random(seed))
    return pddl.ground(domain, pddl.parse_problem(text, domain))


def temporal_endings_space(problem: GroundProblem) -> BehaviourSpace:
    """`goal_endings_feature(problem)` with a temporal expression, for the
    search backend: each cell is the conjunction of `FG l` over its goal
    literals, which on a finite trace says l holds at the end."""
    feature = goal_endings_feature(problem)
    base = feature.domain.base
    formulas = []
    for value in feature.domain:
        formula = TRUE
        for fluent in base:
            atom = Atom(str(fluent))
            formula = mk_and(
                formula, Eventually(Always(atom if fluent in value else Not(atom)))
            )
        formulas.append((value, formula))
    return BehaviourSpace(
        (replace(feature, expression=TemporalFormula(tuple(formulas))),)
    )


# -- the behaviour sweep, one fresh sweep per call ---------------------------------


class _Progression:
    """`searchplan._Progression` as it was before nodes carried monitor ids:
    interned residual formulas and one memo, residual tuple x valuation key,
    that maps to the next residual tuple and the prefix's truth bits."""

    def __init__(self, targets):
        names = sorted(set().union(*map(atoms, targets)))
        self._project = itemgetter(*names) if names else (lambda valuation: ())
        self._formulas: list = [FALSE]
        self._ids: dict = {FALSE: 0}
        self._tuples: dict = {}  # (residual ids, valuation key) -> (ids, bits)

    def intern(self, formula: LtlFormula) -> int:
        rid = self._ids.get(formula)
        if rid is None:
            rid = self._ids[formula] = len(self._formulas)
            self._formulas.append(formula)
        return rid

    def advance(self, residuals: tuple, valuation) -> tuple:
        """(residual ids after valuation, truth of each if the trace ends there)."""
        try:
            key = (residuals, self._project(valuation))
        except KeyError as exc:
            raise UnknownAtom(f"atom {exc.args[0]!r} not assigned by valuation") from None
        hit = self._tuples.get(key)
        if hit is None:
            formulas = [self._formulas[rid] for rid in residuals]
            hit = self._tuples[key] = (
                tuple(self.intern(progress(f, valuation)) for f in formulas),
                tuple(final_eval(f, valuation) for f in formulas),
            )
        return hit



def per_call_sweep(sim, targets, cfg):
    """`searchplan.constrained_search` as it was before its sweep resumed:
    one breadth-first sweep from the root per call, which stops once
    targets[0] has a witness and stops tracking every target behind the
    best one found. It keeps a move table of its own, so it asks the
    simulator for every transition it needs."""
    stats = SearchStats()
    depth_cap = getattr(sim, "budget", None)
    frontier: deque = deque()
    push, pop = frontier.extend, frontier.popleft
    table = _Progression(targets)
    transitions: dict = {}
    # targets[:live] still lack a witness that beats the one already found
    live = len(targets)
    witness = None

    init = sim.initial()
    v0 = sim.propositions(init)
    roots = tuple(table.intern(target) for target in targets)
    push([(init, None, None, v0, 0, *table.advance(roots, v0))])
    visited: dict = {}  # dedup key -> shallowest depth seen

    while frontier:
        if stats.expanded >= cfg.node_budget:
            stats.budget_exhausted = True
            break
        node = pop()
        state, _, _, _, depth, residuals, sats = node
        stats.expanded += 1

        if True in sats[:live] and sim.is_goal(state):
            witness, live = _trace(node), sats.index(True)
            if live == 0:
                break
        residuals, sats = residuals[:live], sats[:live]

        if cfg.prune and not any(residuals) and not any(sats):
            stats.pruned += 1
            continue
        seen_key = (state, residuals, sats)
        seen = visited.get(seen_key)
        if seen is not None and seen <= depth:
            stats.deduplicated += 1
            continue
        visited[seen_key] = depth
        if depth_cap is not None and depth >= depth_cap:
            continue

        push([
            (succ, node, action, valuation, depth + 1,
             *table.advance(residuals, valuation))
            for action, succ, valuation in _moves(sim, transitions, state)
        ])
    return SearchResult(witness, stats, None if witness is None else live)


# -- the behaviour sweep, with duplicates dropped when popped ----------------------


class _PopTimeSweep:
    """`searchplan._Sweep` as it was before breadth-first sweeps dropped a
    duplicate when it was generated: every child is pushed, and a node whose
    dedup key was expanded at no greater depth is dropped when it is popped.
    Every target stays live. It keeps a move table of its own, and `keys`
    lists the dedup key of every node it has popped, in order."""

    def __init__(self, sim, targets, cfg):
        self.cfg = cfg
        self.targets = tuple(targets)
        self.witnesses: list = [None] * len(self.targets)
        self.frontier: deque = deque()
        self.push, self.pop = self.frontier.extend, self.frontier.popleft
        self.table = _Progression(self.targets)
        self.visited: dict = {}  # dedup key -> shallowest depth seen
        self.transitions: dict = {}
        self.keys: list = []
        init = sim.initial()
        v0 = sim.propositions(init)
        roots = tuple(self.table.intern(target) for target in self.targets)
        self.push([(init, None, None, v0, 0, *self.table.advance(roots, v0))])

    def walk(self, sim, first, stats):
        depth_cap = getattr(sim, "budget", None)
        cfg, witnesses, visited, table = self.cfg, self.witnesses, self.visited, self.table
        while self.frontier and (first is None or witnesses[first] is None):
            if stats.expanded >= cfg.node_budget:
                stats.budget_exhausted = True
                return
            node = self.pop()
            state, _, _, _, depth, residuals, sats = node
            stats.expanded += 1
            self.keys.append((state, residuals, sats))

            if True in sats and sim.is_goal(state):
                trace = None
                for i, sat in enumerate(sats):
                    if sat and witnesses[i] is None:
                        witnesses[i] = trace = trace or _trace(node)

            if cfg.prune and not any(residuals) and not any(sats):
                stats.pruned += 1
                continue
            seen_key = (state, residuals, sats)
            seen = visited.get(seen_key)
            if seen is not None and seen <= depth:
                stats.deduplicated += 1
                continue
            visited[seen_key] = depth
            if depth_cap is not None and depth >= depth_cap:
                continue

            self.push([
                (succ, node, action, valuation, depth + 1,
                 *table.advance(residuals, valuation))
                for action, succ, valuation in _moves(sim, self.transitions, state)
            ])


_pop_time_records: dict = {}  # id(sim) -> [the sweep the last call on sim paused]


def pop_time_sweep(sim, targets, cfg):
    """`searchplan.constrained_search` over `_PopTimeSweep`: a call resumes
    the sweep the last call on sim paused when cfg is equal and targets is a
    subsequence of its targets. Returns the SearchResult and the dedup keys
    of the nodes this call popped."""
    record = record_of(_pop_time_records, sim, lambda: [None])
    sweep, record[0] = record[0], None
    positions = None
    if sweep is not None and sweep.cfg == cfg:
        rest = iter(range(len(sweep.targets)))
        positions = [next((i for i in rest if sweep.targets[i] == t), None) for t in targets]
        positions = None if None in positions else positions
    if positions is None:
        sweep = _PopTimeSweep(sim, targets, cfg)
        positions = range(len(sweep.targets))
    stats, start = SearchStats(), len(sweep.keys)
    sweep.walk(sim, positions[0] if positions else None, stats)
    record[0] = sweep
    keys = sweep.keys[start:]
    for index, position in enumerate(positions):
        if sweep.witnesses[position] is not None:
            return SearchResult(sweep.witnesses[position], stats, index), keys
    return SearchResult(None, stats, None), keys


# -- temporal formulas: samplers, text form and per-position truth -----------------

# criterion 7's formula shapes, over the atoms a and b
MONITOR_SHAPES = (
    Eventually(Always(Atom("a"))),          # score settles in a bin
    Always(Atom("a")),                      # safety (avoided)
    Eventually(Atom("a")),                  # reachability (key pickup)
    Always(Not(Atom("a"))),                 # negative safety (never the key)
    Eventually(Always(And(Atom("a"), Not(Atom("b"))))),  # settles with other bins off
)


def random_formula(rng, depth: int, leaves) -> LtlFormula:
    """Criterion 6's sampler: a formula of depth exactly `depth` over leaves.
    One side of a binary node carries the full remaining depth, the other
    is free."""
    if depth == 0:
        return rng.choice(leaves)
    op = rng.choice([Not, Always, Eventually, And, Or])
    if op in (Not, Always, Eventually):
        return op(random_formula(rng, depth - 1, leaves))
    deep = random_formula(rng, depth - 1, leaves)
    free = random_formula(rng, rng.randrange(depth), leaves)
    return op(deep, free) if rng.random() < 0.5 else op(free, deep)



def format_formula(formula: LtlFormula) -> str:
    """Round-trippable text form: parse_formula(format_formula(f)) == f."""
    return _format(formula, 0)


def _format(f: LtlFormula, parent_level: int) -> str:
    # binding strength: | = 1, & = 2, unary = 3
    if isinstance(f, Atom):
        return f.name
    if isinstance(f, TrueFormula):
        return "true"
    if isinstance(f, FalseFormula):
        return "false"
    if isinstance(f, Or):
        # parser is left-associative, so a right-nested Or needs parentheses
        text = f"{_format(f.left, 1)} | {_format(f.right, 2)}"
        return f"({text})" if parent_level > 1 else text
    if isinstance(f, And):
        text = f"{_format(f.left, 2)} & {_format(f.right, 3)}"
        return f"({text})" if parent_level > 2 else text
    if isinstance(f, Not):
        return f"! {_format(f.arg, 3)}"
    if isinstance(f, Eventually) and isinstance(f.arg, Always):
        return f"FG {_format(f.arg.arg, 3)}"
    if isinstance(f, Always):
        return f"G {_format(f.arg, 3)}"
    if isinstance(f, Eventually):
        return f"F {_format(f.arg, 3)}"
    raise TypeError(f"not a formula: {f!r}")


def truth_vector(formula: LtlFormula, trace: PropTrace) -> list[bool]:
    """The formula's truth at each position of the trace.

    One list of booleans per subformula, with G and F filled from the last
    position backwards: the evaluation that `ltl.eval_finite`'s bitmasks
    replaced, kept as their differential reference.
    """
    n = len(trace)
    if isinstance(formula, Atom):
        return [bool(v[formula.name]) for v in trace]
    if isinstance(formula, TrueFormula):
        return [True] * n
    if isinstance(formula, FalseFormula):
        return [False] * n
    if isinstance(formula, Not):
        return [not x for x in truth_vector(formula.arg, trace)]
    if isinstance(formula, And):
        lv = truth_vector(formula.left, trace)
        rv = truth_vector(formula.right, trace)
        return [a and b for a, b in zip(lv, rv)]
    if isinstance(formula, Or):
        lv = truth_vector(formula.left, trace)
        rv = truth_vector(formula.right, trace)
        return [a or b for a, b in zip(lv, rv)]
    if isinstance(formula, Always):
        av = truth_vector(formula.arg, trace)
        out = [False] * n
        acc = True
        for i in range(n - 1, -1, -1):
            acc = av[i] and acc
            out[i] = acc
        return out
    if isinstance(formula, Eventually):
        av = truth_vector(formula.arg, trace)
        out = [False] * n
        acc = False
        for i in range(n - 1, -1, -1):
            acc = av[i] or acc
            out[i] = acc
        return out
    raise TypeError(f"not a formula: {formula!r}")


# -- the dataclass formula AST that ltl's tagged tuples replaced -----------------
# Nodes compare by class and fields, as Python-level dataclass methods; the
# functions below are ltl's progression, evaluation and simplifying
# constructors as they were written over them, kept as the differential
# reference for the tuple form.


@dataclass(frozen=True)
class RefAtom:
    name: str


@dataclass(frozen=True)
class RefNot:
    arg: object


@dataclass(frozen=True)
class RefAnd:
    left: object
    right: object


@dataclass(frozen=True)
class RefOr:
    left: object
    right: object


@dataclass(frozen=True)
class RefAlways:
    arg: object


@dataclass(frozen=True)
class RefEventually:
    arg: object


@dataclass(frozen=True)
class RefTrueFormula:
    pass


@dataclass(frozen=True)
class RefFalseFormula:
    pass


REF_TRUE = RefTrueFormula()
REF_FALSE = RefFalseFormula()

_TO_REF = {
    Atom: RefAtom,
    Not: RefNot,
    And: RefAnd,
    Or: RefOr,
    Always: RefAlways,
    Eventually: RefEventually,
    TrueFormula: RefTrueFormula,
    FalseFormula: RefFalseFormula,
}
_FROM_REF = {ref: kind for kind, ref in _TO_REF.items()}


def to_reference(formula: LtlFormula):
    """The reference node for a formula, read by its class and field names
    (never its tag)."""
    ref = _TO_REF[type(formula)]
    if ref is RefAtom:
        return RefAtom(formula.name)
    return ref(*(to_reference(getattr(formula, f.name)) for f in fields(ref)))


def from_reference(node) -> LtlFormula:
    kind = _FROM_REF[type(node)]
    if kind is Atom:
        return Atom(node.name)
    return kind(*(from_reference(getattr(node, f.name)) for f in fields(node)))


def reference_eval_finite(formula, trace: PropTrace) -> bool:
    if len(trace) == 0:
        raise ValueError("trace must be non-empty")
    return bool(_reference_mask(formula, trace, (1 << len(trace)) - 1) & 1)


def _reference_mask(formula, trace: PropTrace, full: int) -> int:
    if isinstance(formula, RefAtom):
        mask = 0
        for i, valuation in enumerate(trace):
            if _lookup(valuation, formula.name):
                mask |= 1 << i
        return mask
    if isinstance(formula, RefTrueFormula):
        return full
    if isinstance(formula, RefFalseFormula):
        return 0
    if isinstance(formula, RefNot):
        return full ^ _reference_mask(formula.arg, trace, full)
    if isinstance(formula, RefAnd):
        return _reference_mask(formula.left, trace, full) & _reference_mask(
            formula.right, trace, full
        )
    if isinstance(formula, RefOr):
        return _reference_mask(formula.left, trace, full) | _reference_mask(
            formula.right, trace, full
        )
    if isinstance(formula, RefAlways):
        cut = (full ^ _reference_mask(formula.arg, trace, full)).bit_length()
        return full >> cut << cut
    if isinstance(formula, RefEventually):
        return (1 << _reference_mask(formula.arg, trace, full).bit_length()) - 1
    raise TypeError(f"not a formula: {formula!r}")


def reference_mk_not(f):
    if isinstance(f, RefTrueFormula):
        return REF_FALSE
    if isinstance(f, RefFalseFormula):
        return REF_TRUE
    if isinstance(f, RefNot):
        return f.arg
    return RefNot(f)


def reference_mk_and(left, right):
    if isinstance(left, RefFalseFormula) or isinstance(right, RefFalseFormula):
        return REF_FALSE
    if isinstance(left, RefTrueFormula):
        return right
    if isinstance(right, RefTrueFormula):
        return left
    if left == right:
        return left
    if isinstance(right, RefAlways) and right.arg == left:
        return right
    if isinstance(left, RefAlways) and left.arg == right:
        return left
    return RefAnd(left, right)


def reference_mk_or(left, right):
    if isinstance(left, RefTrueFormula) or isinstance(right, RefTrueFormula):
        return REF_TRUE
    if isinstance(left, RefFalseFormula):
        return right
    if isinstance(right, RefFalseFormula):
        return left
    if left == right:
        return left
    if isinstance(right, RefEventually) and right.arg == left:
        return right
    if isinstance(left, RefEventually) and left.arg == right:
        return left
    return RefOr(left, right)


def reference_progress(formula, valuation):
    if isinstance(formula, RefAtom):
        return REF_TRUE if _lookup(valuation, formula.name) else REF_FALSE
    if isinstance(formula, (RefTrueFormula, RefFalseFormula)):
        return formula
    if isinstance(formula, RefNot):
        return reference_mk_not(reference_progress(formula.arg, valuation))
    if isinstance(formula, RefAnd):
        return reference_mk_and(
            reference_progress(formula.left, valuation),
            reference_progress(formula.right, valuation),
        )
    if isinstance(formula, RefOr):
        return reference_mk_or(
            reference_progress(formula.left, valuation),
            reference_progress(formula.right, valuation),
        )
    if isinstance(formula, RefAlways):
        return reference_mk_and(reference_progress(formula.arg, valuation), formula)
    if isinstance(formula, RefEventually):
        return reference_mk_or(reference_progress(formula.arg, valuation), formula)
    raise TypeError(f"not a formula: {formula!r}")


def reference_final_eval(formula, valuation) -> bool:
    if isinstance(formula, RefAtom):
        return _lookup(valuation, formula.name)
    if isinstance(formula, RefTrueFormula):
        return True
    if isinstance(formula, RefFalseFormula):
        return False
    if isinstance(formula, RefNot):
        return not reference_final_eval(formula.arg, valuation)
    if isinstance(formula, RefAnd):
        return reference_final_eval(formula.left, valuation) and reference_final_eval(
            formula.right, valuation
        )
    if isinstance(formula, RefOr):
        return reference_final_eval(formula.left, valuation) or reference_final_eval(
            formula.right, valuation
        )
    if isinstance(formula, (RefAlways, RefEventually)):
        return reference_final_eval(formula.arg, valuation)
    raise TypeError(f"not a formula: {formula!r}")


# -- checked UNSAT: forward reverse unit propagation -------------------------------


class RupChecker:
    """A clause set that answers whether a clause follows from it by reverse
    unit propagation: asserting the negation of every literal and
    propagating reaches a conflict (Goldberg & Novikov, DATE 2003; Van
    Gelder, ISAIM 2008). It shares no code with the solver: literals true
    under the assignment live in a set, and each clause of two or more
    literals is watched by its first two. The assignment at the root, where
    units and what they propagate stay for good, is kept between checks;
    each check adds its own literals above it and takes them back after."""

    def __init__(self):
        self.true: set = set()
        self.trail: list = []
        self.watches: dict = {}
        self.conflict = False  # the clauses propagate to a conflict at the root

    def add(self, clause) -> None:
        """Add an input clause, or a lemma that has been checked."""
        clause = list(dict.fromkeys(clause))
        true = self.true
        if self.conflict or any(lit in true or -lit in clause for lit in clause):
            return  # nothing to add: satisfied at the root, or a tautology
        open_lits = [lit for lit in clause if -lit not in true]
        if not open_lits:
            self.conflict = True
        elif len(open_lits) == 1:
            self.conflict = self._assign_and_propagate([open_lits[0]], len(self.trail))
        else:
            for lit in open_lits[:2]:
                self.watches.setdefault(lit, []).append(open_lits)

    def implied(self, clause) -> bool:
        """Whether clause follows from the clauses added so far by RUP."""
        if self.conflict:
            return True
        mark = len(self.trail)
        if any(lit in self.true for lit in clause):
            return True
        negated = [-lit for lit in dict.fromkeys(clause) if -lit not in self.true]
        conflict = self._assign_and_propagate(negated, mark)
        for lit in self.trail[mark:]:
            self.true.discard(lit)
        del self.trail[mark:]
        return conflict

    def _assign_and_propagate(self, lits, qhead: int) -> bool:
        true, trail, watches = self.true, self.trail, self.watches
        for lit in lits:
            if -lit in true:
                return True
            if lit not in true:
                true.add(lit)
                trail.append(lit)
        while qhead < len(trail):
            false = -trail[qhead]
            qhead += 1
            watching = watches.get(false, [])
            kept = []
            for i, clause in enumerate(watching):
                if clause[0] == false:
                    clause[0], clause[1] = clause[1], clause[0]
                if clause[0] in true:
                    kept.append(clause)
                    continue
                for k in range(2, len(clause)):
                    if -clause[k] not in true:
                        clause[1], clause[k] = clause[k], clause[1]
                        watches.setdefault(clause[1], []).append(clause)
                        break
                else:
                    kept.append(clause)
                    if -clause[0] in true:
                        watches[false] = kept + watching[i + 1 :]
                        return True
                    true.add(clause[0])
                    trail.append(clause[0])
            watches[false] = kept
        return False


def rup_failures(log) -> list:
    """The positions in a solver log whose claim does not follow by RUP
    from the clauses logged before it. Each entry is (kind, clause): kind
    "input" adds a clause, "learned" a lemma, and "unsat" an answer (the
    clause of the negated assumptions, or the empty clause without them).
    A lemma is added whether or not it checks, so one bad lemma fails
    once."""
    checker, failures = RupChecker(), []
    for position, (kind, clause) in enumerate(log):
        if kind != "input" and not checker.implied(clause):
            failures.append(position)
        if kind != "unsat":
            checker.add(clause)
    return failures
