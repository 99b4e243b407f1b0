"""Test-only references: hand-sized instances and brute-force oracles.

Nothing here is part of the installed package. The instances are small
enough that every plan, behaviour and diversity count can be enumerated
independently and compared with what the real machinery produces; the
functions are the straightforward versions the program's faster paths are
checked against.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from divplan.bspace import (
    Behaviour,
    BehaviourSpace,
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
)
from divplan.domains.platformer import (
    ACTIONS,
    JUMP_IMPULSE,
    TERMINAL_VELOCITY,
    AvatarDied,
    Level,
    PlatformerState,
)
from divplan.ltl import (
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
)
from divplan.searchplan import (
    SearchResult,
    SearchStats,
    _make_frontier,
    _moves,
    _Progression,
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


# -- the plan walk, one fresh walk per call ----------------------------------------


def per_call_plan_generator(sim, existing_plans, cfg):
    """`searchplan.plan_generator_ltl` as it was before its walk resumed: a
    plain tree walk from the root on every call that asks the simulator for
    every transition, returns the first goal trace whose plan is not in
    existing_plans, and counts its expansions against cfg.node_budget."""
    seen = {plan.labels() for plan in existing_plans}
    depth_cap = getattr(sim, "budget", None)
    init = sim.initial()
    frontier = deque([((), (init,), (sim.propositions(init),))])
    pop = frontier.popleft if cfg.strategy == "breadth-first" else frontier.pop
    expanded = 0
    while frontier:
        if expanded >= cfg.node_budget:
            raise GeneratorTimeout("node budget exhausted")
        actions, states, valuations = pop()
        expanded += 1
        if sim.is_goal(states[-1]) and Plan(actions).labels() not in seen:
            return PlanTrace(Plan(actions), states, valuations)
        if depth_cap is not None and len(actions) >= depth_cap:
            continue
        children = []
        for action in sim.legal_actions(states[-1]):
            succ = sim.step(states[-1], action)
            children.append(
                (actions + (action,), states + (succ,),
                 valuations + (sim.propositions(succ),))
            )
        if cfg.strategy == "depth-first":
            children.reverse()  # so the first legal action is explored first
        frontier.extend(children)
    return None


# -- the behaviour sweep, one fresh sweep per call ---------------------------------


def per_call_sweep(sim, targets, cfg):
    """`searchplan.constrained_search` as it was before its sweep resumed:
    one sweep from the root per call, which stops once targets[0] has a
    witness and stops tracking every target behind the best one found. It
    keeps a move table of its own, so it asks the simulator for every
    transition it needs."""
    stats = SearchStats()
    depth_cap = getattr(sim, "budget", None)
    push, pop, frontier = _make_frontier(cfg)
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
