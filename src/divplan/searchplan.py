"""Simulator-backed planning: forward tree search with temporal-formula pruning.

A search is one sweep of a black-box simulator's tree. It carries a tuple
of target formulas in priority order and looks for goal states whose
proposition trace satisfies one of them. Every target is progressed along
each branch, so a node carries, per target, the obligation that remains for
its subtree. A branch is cut once every live obligation has collapsed to
false and no live target is satisfied by the prefix itself. Nodes with the
same state and the same obligations have the same future, so the sweep,
breadth-first, expands one of them. It drops a duplicate when it is
generated (immediate duplicate detection), and it tests a child for a goal
then too (Russell & Norvig, AIMA 3rd ed., 3.4.1), so a call stops after it
expands its witness's parent, not after it pops the witness.

Formulas are interned to small ids, and so is a node's monitor (its residual
ids and prefix truth bits), so the dedup key is (state, monitor id) and one
memo maps a monitor id and a valuation to the next: the sweep builds the
targets' product automaton lazily (De Giacomo & Vardi, IJCAI 2013) and
prunes with it as in formula-progression planning (Bacchus & Kabanza, 2000).

Each simulator object has one record (`core.record_of`) that outlives the
calls on it. Its move table maps every state the search has expanded to its
(action, successor, valuation) triples, so each transition is asked of the
simulator once. Its sweep is the behaviour sweep of the last search, paused
once the call's first target had a witness, with the first witness of every
target it has met: a later call over fewer targets reads its answer from
there or walks on, instead of sweeping the tree again. Its memo says, for
each (state, steps) pair a plan call has looked below, whether some tree
node and some goal lie exactly that many steps below the state. A plan call
walks lengths 0, 1, ... and descends only where a goal may lie that deep,
so plans come shortest first, then in legal_actions order: top-k planning
over the state graph, not the tree (Katz, Sohrabi, Udrea & Winterer, 2018).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable, Optional, Protocol, Sequence

from .bspace import (
    Behaviour,
    BehaviourSpace,
    SpaceConfigError,
    TemporalFormula,
    enumerate_cells,
    pbehaviour,
)
from .core import GeneratorTimeout, Plan, PlanTrace, record_of
from .ltl import (
    FALSE,
    TRUE,
    LtlFormula,
    UnknownAtom,
    atoms,
    eval_finite,
    final_eval,
    mk_and,
    progress,
)

class Simulator(Protocol):
    """The black-box planning interface the search needs.

    `step` must be deterministic, `propositions` must assign every atom the
    search targets use, and states must be hashable, with equal states having
    the same observable future (propositions, goal status, transitions).
    `budget`, when set, caps plan length. `scores`, where a simulator has
    it, maps each score name a space file may give a categorical-score
    feature to a maker, feature name -> Feature, whose bins and atoms are
    the ones `propositions` assigns. Callers never mutate a valuation
    `propositions` returns, so a simulator may hand out one dict per state.
    The search remembers what `legal_actions`, `step` and `propositions`
    answered for a state for as long as the simulator object lives, so
    those answers must not change while it does. A behaviour sweep hashes
    and compares a state on every child it generates, so a tuple is the
    cheap choice of state: both bundled simulators' states are `NamedTuple`
    subclasses. It asks `is_goal` of a new child whose prefix meets a
    target when it generates it, so also of children it never expands.
    """

    budget: Optional[int]

    def initial(self): ...

    def legal_actions(self, state) -> Sequence: ...

    def step(self, state, action): ...

    def propositions(self, state) -> dict: ...

    def is_goal(self, state) -> bool: ...


@dataclass(frozen=True)
class SearchConfig:
    """How one search walks the tree.

    node_budget caps the work of one search call: for a behaviour call, the
    new expansions as SearchStats.expanded counts them (distinct dedup
    keys), so a call that resumes a paused sweep spends its budget from the
    pause, and one that reads a witness the sweep already met spends none;
    for a plan call, the (state, steps) pairs it adds to the record's memo;
    prune=False keeps monitor-violated branches (same answers, more nodes).
    seed is ignored (the search is deterministic), and strategy must be
    "breadth-first", the one sweep order; ROADMAP item 1 step 3 removes
    both.
    """

    strategy: str = "breadth-first"
    node_budget: int = 100_000
    seed: int = 0
    prune: bool = True

    def __post_init__(self):
        if self.strategy != "breadth-first":
            raise ValueError(
                f"unknown strategy {self.strategy!r}; the sweep is breadth-first"
            )
        if self.node_budget < 1:
            raise ValueError("node_budget must be >= 1")


@dataclass
class SearchStats:
    """What one behaviour call did, counted from where it resumed.

    expanded: nodes popped, each handled in full (pruned, or given its
    children, each new one checked for a witness). The sweep never pops a
    duplicate, so it expands each dedup key (state, monitor id) once.
    pruned: expanded nodes cut because every obligation had collapsed.
    deduplicated: children not pushed because their key was already pushed,
    so the count includes duplicates among the children of the node the
    call paused after.
    """

    expanded: int = 0
    pruned: int = 0
    deduplicated: int = 0
    budget_exhausted: bool = False


@dataclass(frozen=True)
class SearchResult:
    """Outcome of one sweep: the witness of the first target that has one.

    trace satisfies targets[index]; every target before index has no plan
    within the bounds, unless the node budget ran out.
    """

    trace: Optional[PlanTrace]
    stats: SearchStats
    index: Optional[int]

    @property
    def definitive(self) -> bool:
        """The sweep finished, so a None trace proves every target empty;
        False means the node budget ran out first."""
        return not self.stats.budget_exhausted


class _Progression:
    """The targets' product automaton, built lazily over monitor ids.

    A residual is an id into `_formulas`; FALSE is always id 0. `monitors[m]`
    is monitor m's (residual ids, prefix-sat bits) pair, `met[m]` the targets
    its prefix satisfies, `dead[m]` whether every residual is FALSE and none
    is met; `start` is the monitor before the first valuation. A valuation is
    keyed by the truth of the targets' atoms, the only atoms progression
    reads, and `step` maps (monitor id, valuation key) to the next monitor
    id: a child costs one lookup however many targets are live.
    """

    def __init__(self, targets: Sequence[LtlFormula]):
        names = sorted(set().union(*map(atoms, targets)))
        self.project = itemgetter(*names) if names else (lambda valuation: ())
        self._formulas: list = [FALSE]
        self._ids: dict = {FALSE: 0}
        self.monitors: list = []
        self._monitor_ids: dict = {}  # (residual ids, sat bits) -> monitor id
        self._sources: dict = {}  # residual ids -> the first monitor with them
        self.met: list = []
        self.dead: list = []
        self.step: dict = {}
        self.start = self._monitor(tuple(map(self.intern, targets)), ())

    def intern(self, formula: LtlFormula) -> int:
        rid = self._ids.get(formula)
        if rid is None:
            rid = self._ids[formula] = len(self._formulas)
            self._formulas.append(formula)
        return rid

    def _monitor(self, residuals: tuple, sats: tuple) -> int:
        mid = self._monitor_ids.get((residuals, sats))
        if mid is None:
            mid = self._monitor_ids[residuals, sats] = len(self.monitors)
            self.monitors.append((residuals, sats))
            self._sources.setdefault(residuals, mid)
            self.met.append(tuple(i for i, sat in enumerate(sats) if sat))
            self.dead.append(not any(residuals) and not any(sats))
        return mid

    def after(self, monitor: int, valuation) -> int:
        """The monitor after valuation, on a `step` miss. Monitors that share
        residuals share their next monitors, so they progress once."""
        try:
            key = self.project(valuation)
        except KeyError as exc:
            raise UnknownAtom(f"atom {exc.args[0]!r} not assigned by valuation") from None
        source = self._sources[self.monitors[monitor][0]]
        nxt = self.step.get((source, key))
        if nxt is None:
            formulas = [self._formulas[rid] for rid in self.monitors[source][0]]
            nxt = self.step[source, key] = self._monitor(
                tuple(self.intern(progress(f, valuation)) for f in formulas),
                tuple(final_eval(f, valuation) for f in formulas),
            )
        self.step[monitor, key] = nxt
        return nxt


# A search node is a tuple (state, parent node, action, valuation, depth,
# monitor id): the prefix is read back through the parent pointers only when
# a trace is wanted.
def _trace(node: tuple) -> PlanTrace:
    actions, states, valuations = [], [], []
    while node is not None:
        state, parent, action, valuation = node[:4]
        states.append(state)
        valuations.append(valuation)
        if parent is not None:
            actions.append(action)
        node = parent
    return PlanTrace(
        plan=Plan(tuple(reversed(actions))),
        states=tuple(reversed(states)),
        valuations=tuple(reversed(valuations)),
    )


class _Record:
    """What one simulator object has shown the search.

    moves: state -> ((action, successor, valuation), ...) in legal_actions
    order; below: (state, steps) -> _NODE | _GOAL bits, set when some tree
    node, or some goal, lies exactly that many steps below state; sweep:
    the behaviour sweep the last search paused, or None.
    """

    __slots__ = ("moves", "below", "sweep")

    def __init__(self):
        self.moves: dict = {}
        self.below: dict = {}
        self.sweep: Optional[_Sweep] = None


# id(sim) -> _Record, kept by core.record_of
_records: dict = {}

_NODE, _GOAL = 1, 2


def _moves(sim, table: dict, state) -> tuple:
    """state's (action, successor, valuation) triples, asked of sim once."""
    moves = table.get(state)
    if moves is None:
        moves = []
        for action in sim.legal_actions(state):
            succ = sim.step(state, action)
            moves.append((action, succ, sim.propositions(succ)))
        moves = table[state] = tuple(moves)
    return moves


class _Sweep:
    """One sweep over targets that pauses between calls.

    Every target stays live, so the dedup key (state, monitor id) holds
    every residual and a target's first witness is the same node whichever
    call reaches it. witnesses[i] is the first goal trace in generation
    order that satisfies targets[i], or None while the sweep has met none.
    """

    def __init__(self, sim, targets: Sequence[LtlFormula], cfg: SearchConfig):
        self.cfg = cfg
        self.targets = tuple(targets)
        self.witnesses: list = [None] * len(self.targets)
        self.table = _Progression(self.targets)
        init = sim.initial()
        v0 = sim.propositions(init)
        monitor = self.table.after(self.table.start, v0)
        self.visited: dict = {(init, monitor): 0}  # dedup key -> depth pushed at
        self.frontier = deque([(init, None, None, v0, 0, monitor)])
        if self.table.met[monitor] and sim.is_goal(init):
            self._meet(self.frontier[0])

    def _meet(self, goal: tuple) -> None:
        """Make goal the witness of each target its monitor meets that has none."""
        trace = None
        for i in self.table.met[goal[5]]:
            if self.witnesses[i] is None:
                self.witnesses[i] = trace = trace or _trace(goal)

    def positions(self, targets: Sequence[LtlFormula]) -> Optional[list]:
        """Where each of targets sits among this sweep's, matched in order,
        or None if they are not a subsequence of them."""
        rest = iter(range(len(self.targets)))
        positions = [next((i for i in rest if self.targets[i] == t), None) for t in targets]
        return None if None in positions else positions

    def walk(self, sim, transitions: dict, first: int, stats: SearchStats):
        """Expand nodes until targets[first] has a witness, the tree ends or
        this call's node budget runs out. A node is handled in full, its
        children pushed and each new one checked for a witness, so a call
        pauses right after it expands the parent of targets[first]'s witness.

        A child whose dedup key is already in visited is dropped: the FIFO
        pops nodes in the order they were generated, the first with a key
        at its shallowest depth, so pop-time checks would meet the same
        witnesses and expand the same nodes in the same order, only on to
        the witness itself."""
        depth_cap = getattr(sim, "budget", None)
        cfg, witnesses, visited, table = self.cfg, self.witnesses, self.visited, self.table
        frontier, prune = self.frontier, cfg.prune
        pop, push = frontier.popleft, frontier.extend
        memo, miss, project = table.step, table.after, table.project
        met, dead = table.met, table.dead
        expanded, deduplicated = stats.expanded, stats.deduplicated
        while frontier and witnesses[first] is None:
            if expanded >= cfg.node_budget:
                stats.budget_exhausted = True
                break
            node = pop()
            state, _, _, _, depth, monitor = node
            expanded += 1
            if prune and dead[monitor]:
                stats.pruned += 1
                continue
            if depth_cap is not None and depth >= depth_cap:
                continue

            moves = _moves(sim, transitions, state)
            children = []
            depth += 1
            for action, succ, valuation in moves:
                try:
                    after = memo[monitor, project(valuation)]
                except KeyError:  # a memo miss, or an atom valuation lacks
                    after = miss(monitor, valuation)
                key = (succ, after)
                if key in visited:
                    continue
                visited[key] = depth
                children.append((succ, node, action, valuation, depth, after))
                if met[after] and sim.is_goal(succ):
                    self._meet(children[-1])
            deduplicated += len(moves) - len(children)
            push(children)
        stats.expanded, stats.deduplicated = expanded, deduplicated


def constrained_search(
    sim, targets: Sequence[LtlFormula], cfg: SearchConfig
) -> SearchResult:
    """A goal-reaching trace that satisfies the first target it can: the
    witness of the lowest-index target found once targets[0] has a witness
    or the tree is exhausted.

    The sweep is resumable. A call goes on with the sweep the last call on
    this simulator object paused, when its cfg is equal and targets is a
    subsequence of that sweep's targets, as in `behaviour_generator_ltl`,
    whose open cells only shrink; a witness that sweep already met is read
    back without expanding a node. Any other call, and any call after one
    that raised, starts a sweep from the root over its own targets. Both
    give the same answer. The stats count only the nodes this call
    expanded; a call with no targets expands none and keeps the paused
    sweep.

    Nodes whose progressed obligations are all unsatisfiable — for the prefix
    as well as for every extension — are cut (cfg.prune=False keeps them,
    which never changes the answer, only the node count). A target atom
    that a valuation the sweep reads does not assign raises UnknownAtom.
    """
    if not targets:
        return SearchResult(None, SearchStats(), None)
    stats = SearchStats()
    record = record_of(_records, sim, _Record)
    sweep, record.sweep = record.sweep, None  # an exception drops the sweep
    positions = None
    if sweep is not None and sweep.cfg == cfg:
        positions = sweep.positions(targets)
    if positions is None:
        sweep = _Sweep(sim, targets, cfg)
        positions = range(len(sweep.targets))
    sweep.walk(sim, record.moves, positions[0], stats)
    record.sweep = sweep
    for index, position in enumerate(positions):
        if sweep.witnesses[position] is not None:
            return SearchResult(sweep.witnesses[position], stats, index)
    return SearchResult(None, stats, None)


def behaviour_generator_ltl(
    sim,
    space: BehaviourSpace,
    found_behaviours: Iterable[Behaviour],
    cfg: SearchConfig,
) -> Optional[PlanTrace]:
    """A trace realising some not-yet-found behaviour cell, or None.

    One sweep searches every open cell at once; a cell's target is the
    conjunction of its per-feature formulas, and cells take priority in
    feature-declaration order, so the call returns the first realisable
    open cell. The open cells only shrink over an fbi run, so every later
    call resumes the sweep the first one paused (see `constrained_search`). None means every open cell is proven empty. If the node
    budget runs out first, a cell already realised is still returned;
    otherwise the call fails loudly rather than feigning exhaustion.
    """
    for feature in space.features:
        if not isinstance(feature.expression, TemporalFormula):
            raise SpaceConfigError(
                f"feature {feature.name!r} is not expressed as temporal formulas; "
                "use the SAT backend for goal-assignment features"
            )
    found = set(found_behaviours)
    cells = [cell for cell in enumerate_cells(space) if cell not in found]
    if not cells:
        return None
    targets = []
    for cell in cells:
        target = TRUE
        for feature, value in zip(space.features, cell):
            target = mk_and(target, feature.expression.formula_for(value))
        targets.append(target)
    result = constrained_search(sim, targets, cfg)
    if result.trace is not None:
        trace, cell = result.trace, cells[result.index]
        if not eval_finite(targets[result.index], trace.valuations):
            raise AssertionError(
                f"search returned a trace violating its own target for {cell}"
            )
        if pbehaviour(space, trace) != cell:
            raise AssertionError(
                f"trace found for cell {cell} extracts to "
                f"{pbehaviour(space, trace)}; feature formulas and "
                "extractors disagree"
            )
        return trace
    if not result.definitive:
        raise GeneratorTimeout(
            f"node budget exhausted before any of {len(cells)} open cell(s) "
            "was realised or the space proven exhausted"
        )
    return None


def plan_generator_ltl(
    sim,
    existing_plans: Iterable[Plan],
    cfg: SearchConfig,
) -> Optional[PlanTrace]:
    """The first goal-reaching trace whose action sequence is new, shortest
    first and then in legal_actions order, or None once none is left.

    Distinct action sequences through the same states are distinct plans.
    For each length up to sim.budget, the call descends, with a stack of
    its own, into every child the memo does not show to lack a goal that
    many steps below, and it stops once no tree node lies that deep. The
    answer depends only on sim and existing_plans; cfg.node_budget caps the
    pairs the call adds to the memo.
    """
    seen = {plan.labels() for plan in existing_plans}
    record = record_of(_records, sim, _Record)
    below, table, cap = record.below, record.moves, getattr(sim, "budget", None)
    root = sim.initial()
    start = (None, root, sim.propositions(root))
    budget, length = cfg.node_budget, 0
    while cap is None or length <= cap:
        # path[i] is the move into depth i; branches[i] holds the moves out
        # of depth i - 1 not yet tried, and found[i] what those tried show
        path, branches, found = [], [iter((start,))], [0]
        while branches:
            left = length - len(path)  # steps below the next move's successor
            move = next(branches[-1], None)
            if move is None:  # every move out of path[-1] was tried
                branches.pop()
                bits = found.pop()
                if not path:
                    break
                pair = (path[-1][1], left + 1)
                if pair not in below:
                    if budget == 0:
                        raise GeneratorTimeout(
                            "node budget exhausted before a further plan "
                            "could be found or ruled out"
                        )
                    budget -= 1
                    below[pair] = bits
                if left < 0 and bits & _GOAL:  # path ends in a goal
                    actions, states, valuations = zip(*path)
                    if Plan(actions[1:]).labels() not in seen:
                        return PlanTrace(Plan(actions[1:]), states, valuations)
                path.pop()
                found[-1] |= bits
                continue
            bits = below.get((move[1], left))
            if bits is not None and not bits & _GOAL:
                found[-1] |= bits  # no goal lies that far below move[1]
                continue
            if left == 0 and bits is None:  # a leaf: no move out of it is tried
                bits = _NODE | (_GOAL if sim.is_goal(move[1]) else 0)
            path.append(move)
            branches.append(iter(_moves(sim, table, move[1]) if left else ()))
            found.append(bits if left == 0 else 0)
        if not below[root, length] & _NODE:
            return None
        length += 1
    return None
