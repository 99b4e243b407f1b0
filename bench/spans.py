"""Spans recorded by wrappers installed on the program from outside.

`Tracer.install()` replaces module attributes and `Solver` methods with
timing wrappers and returns a function that puts the originals back. Every
wrapped call is a frame on one stack, so a frame's self time is its
duration minus the time of the frames it called.

Calls made once or a few hundred times per request (generator calls,
encodes, solver runs, cell searches, behaviour extraction) are kept as
spans: name, start, end, parent id, request id, self time and a few
facts read off the call. Calls made up to millions of times per request
(clause loading, LTL progression, simulator methods) are leaf frames: they
are folded into their enclosing span as one (calls, time, self time) total
per name, so the trace stays small enough to keep in memory.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict
from dataclasses import dataclass, field

from divplan import bspace, pddl, searchplan
from divplan.satplan import generators as satgen
from divplan.satplan.solver import Solver

# the package re-exports the fbi function under the module's name
fbi = importlib.import_module("divplan.fbi")


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int
    request: int
    self_s: float
    info: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list = []
        # (enclosing span id, leaf name) -> [calls, seconds, self seconds]
        self.leaves: dict = defaultdict(lambda: [0, 0.0, 0.0])
        self.request = 0
        self._frames: list = [[0.0]]  # child time of each open frame
        self._open: list = [0]  # ids of the open spans; 0 is the root
        self._next_id = 1

    def span(self, name: str, fn, /, *args, info=None, **kwargs):
        """Call fn inside a span; info(args, kwargs, result, facts) records
        facts about a call that returned."""
        clock = time.perf_counter
        frames, open_spans = self._frames, self._open
        span_id = self._next_id
        self._next_id += 1
        parent = open_spans[-1]
        frame = [0.0]
        frames.append(frame)
        open_spans.append(span_id)
        facts: dict = {}
        start = clock()
        try:
            result = fn(*args, **kwargs)
            if info is not None:
                info(args, kwargs, result, facts)
            return result
        finally:
            end = clock()
            frames.pop()
            open_spans.pop()
            frames[-1][0] += end - start
            self.spans.append(
                Span(span_id, name, start, end, parent, self.request,
                     end - start - frame[0], facts)
            )

    def spanned(self, name: str, fn, info=None):
        def wrapped(*args, **kwargs):
            return self.span(name, fn, *args, info=info, **kwargs)

        return wrapped

    def leaf(self, name: str, fn):
        clock = time.perf_counter
        frames, open_spans, leaves = self._frames, self._open, self.leaves

        def wrapped(*args, **kwargs):
            frame = [0.0]
            frames.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds = clock() - start
                frames.pop()
                frames[-1][0] += seconds
                total = leaves[(open_spans[-1], name)]
                total[0] += 1
                total[1] += seconds
                total[2] += seconds - frame[0]

        return wrapped

    def install(self):
        """Wrap the program's layer boundaries; returns the undo function."""
        patches = [
            (pddl, "parse_domain", self.spanned("pddl.parse", pddl.parse_domain)),
            (pddl, "parse_problem", self.spanned("pddl.parse", pddl.parse_problem)),
            (pddl, "ground", self.spanned("pddl.ground", pddl.ground, _ground_facts)),
            (satgen, "encode", self.spanned("encode", satgen.encode, _encode_facts)),
            (satgen, "solve_task", self.spanned("solve_task", satgen.solve_task)),
            (satgen, "decode", self.spanned("decode", satgen.decode)),
            (satgen, "validate_plan", self.spanned("core.validate", satgen.validate_plan)),
            (Solver, "__init__", self.spanned("solver.load", Solver.__init__)),
            (Solver, "add_clause", self.leaf("solver.add_clause", Solver.add_clause)),
            (Solver, "solve", self.spanned("solver.search", Solver.solve, _solve_facts)),
            (searchplan, "constrained_search",
             self.spanned("search", searchplan.constrained_search, _search_facts)),
            (searchplan, "progress", self.leaf("ltl.progress", searchplan.progress)),
            (searchplan, "final_eval", self.leaf("ltl.final_eval", searchplan.final_eval)),
        ]
        for module in (searchplan, bspace):
            patches.append(
                (module, "eval_finite", self.leaf("ltl.eval_finite", module.eval_finite))
            )
        extract = self.spanned("bspace.extract", bspace.pbehaviour)
        for module in (bspace, fbi, satgen, searchplan):
            patches.append((module, "pbehaviour", extract))

        originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in patches]
        for owner, attr, wrapper in patches:
            setattr(owner, attr, wrapper)

        def undo():
            for owner, attr, original in originals:
                setattr(owner, attr, original)

        return undo

    def sim_proxy(self, sim):
        return SimProxy(sim, self)


class SimProxy:
    """A simulator whose five interface methods are timed leaf frames."""

    def __init__(self, sim, tracer: Tracer):
        self._sim = sim
        for method in ("initial", "legal_actions", "step", "propositions", "is_goal"):
            setattr(self, method, tracer.leaf(f"sim.{method}", getattr(sim, method)))

    def __getattr__(self, name):
        return getattr(self._sim, name)


def _ground_facts(args, kwargs, problem, facts):
    facts["actions"] = len(problem.actions)


def _encode_facts(args, kwargs, task, facts):
    facts["clauses"] = len(task.clauses)
    facts["vars"] = task.num_vars


def _solve_facts(args, kwargs, model, facts):
    facts["conflicts"] = args[0].conflicts
    facts["sat"] = model is not None


def _search_facts(args, kwargs, result, facts):
    stats = result.stats
    facts["expanded"] = stats.expanded
    facts["pruned"] = stats.pruned
    facts["deduplicated"] = stats.deduplicated
    facts["found"] = result.trace is not None
    facts["empty"] = result.trace is None and result.definitive
