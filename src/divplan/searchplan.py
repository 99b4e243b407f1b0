"""Simulator-backed planning: forward tree search with temporal-formula pruning.

The search walks a black-box simulator looking for goal states whose
proposition trace satisfies a target formula. The formula is progressed along
each branch, so a node carries the obligation that remains for its subtree;
a branch whose obligation has collapsed to false — and whose own prefix does
not already satisfy the target — can never contribute a plan and is cut.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Protocol, Sequence

from .bspace import (
    Behaviour,
    BehaviourSpace,
    SpaceConfigError,
    TemporalFormula,
    enumerate_cells,
    pbehaviour,
)
from .core import GeneratorTimeout, Plan, PlanTrace
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

# frontier orders: a FIFO queue (shortest plans first) or a LIFO stack
STRATEGIES = ("breadth-first", "depth-first")


class Simulator(Protocol):
    """The black-box planning interface the search needs.

    `step` must be deterministic, `propositions` must assign every atom in
    `alphabet`, and states must either be hashable or be condensed by an
    optional `digest(state)` method into something hashable that identifies
    the state's observable future (propositions, goal status, transitions).
    `budget`, when set, caps plan length.
    """

    alphabet: tuple
    budget: Optional[int]

    def initial(self): ...

    def legal_actions(self, state) -> Sequence: ...

    def step(self, state, action): ...

    def propositions(self, state) -> dict: ...

    def is_goal(self, state) -> bool: ...


@dataclass(frozen=True)
class SearchConfig:
    """How one search walks the tree.

    strategy is one of STRATEGIES; node_budget caps expansions per search;
    prune=False keeps monitor-violated branches (same answers, more nodes).
    seed is unused: both strategies are deterministic.
    """

    strategy: str = "breadth-first"
    node_budget: int = 100_000
    seed: int = 0
    prune: bool = True

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ValueError(
                f"unknown strategy {self.strategy!r}; pick one of {STRATEGIES}"
            )
        if self.node_budget < 1:
            raise ValueError("node_budget must be >= 1")


@dataclass
class SearchStats:
    expanded: int = 0
    pruned: int = 0
    deduplicated: int = 0
    budget_exhausted: bool = False

    def to_json(self) -> dict:
        return {
            "expanded": self.expanded,
            "pruned": self.pruned,
            "deduplicated": self.deduplicated,
            "budget_exhausted": self.budget_exhausted,
        }


@dataclass(frozen=True)
class SearchResult:
    """Outcome of one search: a trace, or None with a decisive/indecisive flag.

    definitive=True means the bounded plan space was fully examined (a None
    is a proof of absence); definitive=False means the node budget ran out.
    """

    trace: Optional[PlanTrace]
    definitive: bool
    stats: SearchStats


@dataclass(frozen=True)
class _Node:
    state: object
    actions: tuple
    states: tuple
    valuations: tuple
    residual: LtlFormula  # obligation for any continuation of this prefix
    prefix_sat: bool  # target truth if the trace stops here


def _digest_fn(sim) -> Callable:
    digest = getattr(sim, "digest", None)
    return digest if callable(digest) else (lambda state: state)


def _make_frontier(cfg: SearchConfig):
    """push/pop pair for the configured strategy: a FIFO queue or a stack."""
    if cfg.strategy == "breadth-first":
        queue: deque = deque()
        return queue.append, queue.popleft, queue
    stack: list = []
    return stack.append, stack.pop, stack


def _search(
    sim,
    target: LtlFormula,
    cfg: SearchConfig,
    *,
    deduplicate: bool = True,
    accept: Optional[Callable[[_Node], bool]] = None,
) -> SearchResult:
    stats = SearchStats()
    depth_cap = getattr(sim, "budget", None)
    digest = _digest_fn(sim)
    push, pop, frontier = _make_frontier(cfg)

    init = sim.initial()
    v0 = dict(sim.propositions(init))
    push(
        _Node(
            state=init,
            actions=(),
            states=(init,),
            valuations=(v0,),
            residual=progress(target, v0),
            prefix_sat=final_eval(target, v0),
        )
    )
    visited: dict = {}  # dedup key -> shallowest depth seen

    while frontier:
        if stats.expanded >= cfg.node_budget:
            stats.budget_exhausted = True
            return SearchResult(None, definitive=False, stats=stats)
        node = pop()
        stats.expanded += 1

        if node.prefix_sat and sim.is_goal(node.state):
            if accept is None or accept(node):
                trace = PlanTrace(
                    plan=Plan(node.actions),
                    states=node.states,
                    valuations=node.valuations,
                )
                return SearchResult(trace, definitive=True, stats=stats)

        if cfg.prune and node.residual is FALSE and not node.prefix_sat:
            stats.pruned += 1
            continue
        if deduplicate:
            key = (digest(node.state), node.residual, node.prefix_sat)
            depth = len(node.actions)
            seen = visited.get(key)
            if seen is not None and seen <= depth:
                stats.deduplicated += 1
                continue
            visited[key] = depth
        if depth_cap is not None and len(node.actions) >= depth_cap:
            continue

        children = []
        for action in sim.legal_actions(node.state):
            succ = sim.step(node.state, action)
            valuation = dict(sim.propositions(succ))
            children.append(
                _Node(
                    state=succ,
                    actions=node.actions + (action,),
                    states=node.states + (succ,),
                    valuations=node.valuations + (valuation,),
                    residual=progress(node.residual, valuation),
                    prefix_sat=final_eval(node.residual, valuation),
                )
            )
        if cfg.strategy == "depth-first":
            children.reverse()  # so the first legal action is explored first
        for child in children:
            push(child)
    return SearchResult(None, definitive=True, stats=stats)


def constrained_search(sim, target: LtlFormula, cfg: SearchConfig) -> SearchResult:
    """A goal-reaching trace whose propositions satisfy the target formula.

    Nodes whose progressed obligation is already unsatisfiable — for the
    prefix as well as for every extension — are cut (cfg.prune=False keeps
    them, which never changes the answer, only the node count).
    """
    missing = atoms(target) - set(sim.alphabet)
    if missing:
        raise UnknownAtom(
            f"target uses atoms outside the simulator alphabet: {sorted(missing)}"
        )
    return _search(sim, target, cfg)


def behaviour_generator_ltl(
    sim,
    space: BehaviourSpace,
    found_behaviours: Iterable[Behaviour],
    cfg: SearchConfig,
) -> Optional[PlanTrace]:
    """A trace realising some not-yet-found behaviour cell, or None.

    Cells are tried in feature-declaration order; each cell's target is the
    conjunction of its per-feature formulas. None means every remaining cell
    is proven empty; if any cell search ran out of node budget instead, the
    call fails loudly rather than feigning exhaustion.
    """
    for feature in space.features:
        if not isinstance(feature.expression, TemporalFormula):
            raise SpaceConfigError(
                f"feature {feature.name!r} is not expressed as temporal formulas; "
                "use the SAT backend for goal-assignment features"
            )
    found = set(found_behaviours)
    inconclusive = []
    for cell in enumerate_cells(space):
        if cell in found:
            continue
        target = TRUE
        for feature, value in zip(space.features, cell):
            target = mk_and(target, feature.expression.formula_for(value))
        result = constrained_search(sim, target, cfg)
        if result.trace is not None:
            trace = result.trace
            if not eval_finite(target, trace.valuations):
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
            inconclusive.append(cell)
    if inconclusive:
        raise GeneratorTimeout(
            f"node budget exhausted on {len(inconclusive)} cell(s) "
            "before the space could be proven exhausted"
        )
    return None


def plan_generator_ltl(
    sim,
    existing_plans: Iterable[Plan],
    cfg: SearchConfig,
) -> Optional[PlanTrace]:
    """A goal-reaching trace whose action sequence is new, or None.

    Pure tree search (no duplicate-state merging): distinct action sequences
    through the same states are distinct plans here.
    """
    seen = {plan.labels() for plan in existing_plans}

    def accept(node: _Node) -> bool:
        return tuple(str(a) for a in node.actions) not in seen

    result = _search(sim, TRUE, cfg, deduplicate=False, accept=accept)
    if result.trace is not None:
        return result.trace
    if not result.definitive:
        raise GeneratorTimeout(
            "node budget exhausted before a further plan could be found "
            "or ruled out"
        )
    return None
