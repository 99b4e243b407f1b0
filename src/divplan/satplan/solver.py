"""Conflict-driven SAT solver with two watched literals and 1UIP learning.

Self-contained and fully deterministic: decisions pick the highest-activity
variable (ties to the lowest index) with saved phases, restarts follow a
fixed geometric schedule, and no randomness is consulted anywhere. A conflict
budget turns long runs into ResourceLimit instead of open-ended search.

Literals are non-zero ints (DIMACS convention: v / -v). The search state is
indexed by literal: a list of length 2n+1 reaches slot `-v` at 2n+1-v through
Python's negative indexing, so the hot loops never take `abs`.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence


class SatError(Exception):
    pass


class ResourceLimit(SatError):
    """Conflict budget exhausted before an answer was reached."""


# named an external DIMACS solver, which is gone; `plan` refuses it rather
# than plan silently with this solver
EXTERNAL_SOLVER_ENV = "DIVPLAN_EXTERNAL_SAT"


class Solver:
    """Incremental CDCL solver: construct with a clause set, call solve(),
    then add clauses and solve again as often as needed.

    Clauses and variables are only ever added, so learned clauses,
    activities and saved phases stay sound and carry over to the next
    solve(). add_clause() and solve() return the search to decision level 0
    themselves when a previous solve() left it above. An UNSAT answer under
    assumptions leaves the solver as usable as before; one without them is
    final (`ok` turns False). `conflicts` counts the latest solve() call, so
    `max_conflicts` is a per-solve budget.

    - `val[lit]` is True, False or None; an assignment writes both `val[v]`
      and `val[-v]`, so a model is `val[:num_vars+1]`;
    - `level[lit]` and `reason[lit]` belong to the assignment that made `lit`
      true and are read only while `lit` is on the trail;
    - `watches[lit]` lists, in watch order, the clauses whose first two
      literals include `lit`; a clause that implied a literal keeps it first.
    Activities and saved phases stay indexed by variable.

    The search order is that of the per-variable kernel this replaced
    (kept in `tests/test_solver_kernel.py`): the same decisions, phases,
    activity bumps, restarts and learned-clause watches, hence the same
    conflict counts and models.
    """

    def __init__(
        self,
        num_vars: int,
        clauses: Iterable[Sequence[int]] = (),
        phases: Optional[Sequence[bool]] = None,
    ):
        self.num_vars = num_vars
        size = 2 * num_vars + 1
        self.val: list = [None] * size
        self.level = [0] * size
        self.reason: list = [None] * size
        self.watches: list = [[] for _ in range(size)]
        self.activity = [0.0] * (num_vars + 1)
        self.phase = list(phases) if phases is not None else [False] * (num_vars + 1)
        if phases is not None and len(self.phase) != num_vars + 1:
            raise ValueError("phases must have num_vars+1 entries (index 0 unused)")
        self.trail: list[int] = []
        self.trail_lim: list[int] = []
        self.qhead = 0
        self.ok = True
        self.var_inc = 1.0
        self.conflicts = 0
        for clause in clauses:
            self.add_clause(clause)

    # -- clause loading (at decision level 0, before or between solves) --

    def add_clause(self, lits: Sequence[int]) -> None:
        if not self.ok:
            return
        if self.trail_lim:
            self._backtrack(0)
        n = self.num_vars
        val = self.val
        seen = set()
        out = []
        for lit in lits:
            if lit == 0 or not -n <= lit <= n:
                raise ValueError(f"bad literal {lit}")
            if -lit in seen:
                return  # tautology
            if lit in seen:
                continue
            seen.add(lit)
            v = val[lit]
            if v:
                return  # already satisfied at level 0
            if v is False:
                continue  # falsified at level 0: drop the literal
            out.append(lit)
        if not out:
            self.ok = False
            return
        if len(out) == 1:
            self._enqueue(out[0], None)
            return
        self._watch(out)

    def add_vars(self, phases: Sequence[bool]) -> None:
        """Add len(phases) variables after the existing ones, with these
        saved phases. Each literal-indexed list gets its new slots at n+1,
        so slot `-v` of an old variable stays at 2n+1-v for the new n."""
        n, k = self.num_vars, len(phases)
        at = n + 1
        self.val[at:at] = [None] * (2 * k)
        self.level[at:at] = [0] * (2 * k)
        self.reason[at:at] = [None] * (2 * k)
        self.watches[at:at] = [[] for _ in range(2 * k)]
        self.activity.extend([0.0] * k)
        self.phase.extend(phases)
        self.num_vars = n + k

    def _watch(self, clause: list) -> None:
        self.watches[clause[0]].append(clause)
        self.watches[clause[1]].append(clause)

    # -- assignment primitives --

    def _enqueue(self, lit: int, reason) -> None:
        """Make the unassigned `lit` true at the current decision level."""
        self.val[lit] = True
        self.val[-lit] = False
        self.level[lit] = len(self.trail_lim)
        self.reason[lit] = reason
        self.trail.append(lit)

    def _propagate(self):
        """Unit propagation; returns a conflicting clause or None."""
        val = self.val
        level = self.level
        reason = self.reason
        watches = self.watches
        trail = self.trail
        push = trail.append
        current = len(self.trail_lim)
        qhead = self.qhead
        while qhead < len(trail):
            falsified = -trail[qhead]
            qhead += 1
            watchers = watches[falsified]
            if not watchers:
                continue
            # compact in place: watchers[:j] are the clauses that stay
            j = 0
            rest = iter(watchers)
            for clause in rest:
                if clause[0] == falsified:
                    clause[0] = clause[1]
                    clause[1] = falsified
                first = clause[0]
                if val[first]:
                    watchers[j] = clause
                    j += 1
                    continue
                for k in range(2, len(clause)):
                    lit = clause[k]
                    if val[lit] is not False:
                        clause[1] = lit
                        clause[k] = falsified
                        watches[lit].append(clause)
                        break
                else:
                    watchers[j] = clause
                    j += 1
                    if val[first] is False:
                        watchers[j:] = list(rest)
                        self.qhead = qhead
                        return clause
                    val[first] = True
                    val[-first] = False
                    level[first] = current
                    reason[first] = clause
                    push(first)
            del watchers[j:]
        self.qhead = qhead
        return None

    # -- conflict analysis (first unique implication point) --

    def _analyze(self, conflict) -> tuple[list, int]:
        level = self.level
        trail = self.trail
        activity = self.activity
        learnt = [0]  # slot 0 becomes the asserting literal
        seen = [False] * len(self.val)  # indexed by the true literal
        counter = 0
        backjump = 0
        current = len(self.trail_lim)
        index = len(trail) - 1
        clause = conflict
        start = 0
        while True:
            for q in clause[start:]:  # every literal but a reason's first is false
                true = -q
                if not seen[true] and level[true] > 0:
                    seen[true] = True
                    var = q if q > 0 else true
                    activity[var] += self.var_inc
                    if activity[var] > 1e100:
                        for v in range(1, self.num_vars + 1):
                            activity[v] *= 1e-100
                        self.var_inc *= 1e-100
                    if level[true] == current:
                        counter += 1
                    else:
                        learnt.append(q)
                        backjump = max(backjump, level[true])
            while not seen[trail[index]]:
                index -= 1
            lit = trail[index]
            index -= 1
            seen[lit] = False
            counter -= 1
            if counter == 0:
                break
            clause = self.reason[lit]
            start = 1  # reasons keep the implied lit first
        learnt[0] = -lit
        return learnt, backjump

    def _backtrack(self, target_level: int) -> None:
        trail_lim = self.trail_lim
        if len(trail_lim) > target_level:
            boundary = trail_lim[target_level]
            val = self.val
            phase = self.phase
            for lit in self.trail[boundary:]:
                if lit > 0:
                    phase[lit] = True
                else:
                    phase[-lit] = False
                val[lit] = val[-lit] = None
            del self.trail[boundary:]
            del trail_lim[target_level:]
        self.qhead = len(self.trail)

    def _decide(self) -> Optional[int]:
        best = 0
        best_act = -1.0
        val = self.val
        activity = self.activity
        for v in range(1, self.num_vars + 1):
            if val[v] is None and activity[v] > best_act:
                best = v
                best_act = activity[v]
        if best == 0:
            return None
        return best if self.phase[best] else -best

    def solve(
        self, max_conflicts: Optional[int] = None, assumptions: Sequence[int] = ()
    ) -> Optional[list]:
        """A model as a list of num_vars+1 bools indexed by variable (index 0
        is None), or None when the clauses are UNSAT under the assumptions.

        The assumptions are decided first, one decision level each, in the
        given order; a falsified one ends the solve as UNSAT with `ok` left
        True. Raises ResourceLimit when the conflict budget runs out first.
        """
        self.conflicts = 0
        n = self.num_vars
        for lit in assumptions:
            if lit == 0 or not -n <= lit <= n:
                raise ValueError(f"bad assumption {lit}")
        if not self.ok:
            return None
        if self.trail_lim:
            self._backtrack(0)
        val = self.val
        level = self.level
        restart_limit = 100.0
        since_restart = 0
        while True:
            conflict = self._propagate()
            if conflict is not None:
                self.conflicts += 1
                since_restart += 1
                if len(self.trail_lim) == 0:
                    self.ok = False
                    return None
                if max_conflicts is not None and self.conflicts > max_conflicts:
                    raise ResourceLimit(f"exceeded {max_conflicts} conflicts")
                learnt, backjump = self._analyze(conflict)
                self._backtrack(backjump)
                if len(learnt) == 1:
                    self._enqueue(learnt[0], None)
                else:
                    # watch the asserting literal and one from the backjump
                    # level; a false literal's level sits at its negation
                    for k in range(2, len(learnt)):
                        if level[-learnt[k]] > level[-learnt[1]]:
                            learnt[1], learnt[k] = learnt[k], learnt[1]
                    self._watch(learnt)
                    self._enqueue(learnt[0], learnt)
                self.var_inc /= 0.95
                continue
            if since_restart >= restart_limit:
                since_restart = 0
                restart_limit *= 1.5
                self._backtrack(0)
                continue
            depth = len(self.trail_lim)
            if depth < len(assumptions):
                lit = assumptions[depth]
                if val[lit] is False:
                    return None
                # an assumption already true still gets its own level
                self.trail_lim.append(len(self.trail))
                if val[lit] is None:
                    self._enqueue(lit, None)
                continue
            lit = self._decide()
            if lit is None:
                return self.val[: self.num_vars + 1]
            self.trail_lim.append(len(self.trail))
            self._enqueue(lit, None)
