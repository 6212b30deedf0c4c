"""SAT backends: external DIMACS solver processes and a bundled CDCL solver.

Every backend takes `solve(formula, budget=DEFAULT_BUDGET, assumptions=())`,
checks the budget with `check_budget`, and answers for the formula with
every assumption literal true; `solve` is the one entry point. The external
backend writes the formula, the assumptions as unit clauses, to a DIMACS
file for a solver process configured by a command template and parses
competition-style output ("s SATISFIABLE" / "s UNSATISFIABLE" status lines
and "v " value lines). The bundled backend is a watched-literal CDCL solver,
slower but dependency-free, and incremental: it keeps one solver state per
formula and decides the assumptions first.

Timeouts are results (UNKNOWN); process failures raise BackendError.
Every SAT model is re-checked against the clause list, and the
assumptions, before being returned.
"""

from __future__ import annotations

import enum
import os
import shutil
import signal
import subprocess
import tempfile
import time
import weakref
from dataclasses import dataclass

from .cnf import Formula

SOLVER_CMD_ENV = "SNOWPLAN_SOLVER_CMD"

# Solvers known to speak competition output, probed on PATH in this order.
KNOWN_SOLVERS = ("varisat", "kissat", "cadical", "glucose")


DEFAULT_BUDGET = 300.0   # seconds for a strategy run or a call given none
# About 23 days: an external solver is awaited by poll(), whose timeout is
# C-int milliseconds and overflows past 2,147,483 s.
MAX_BUDGET = 2_000_000.0


def check_budget(budget: float) -> float:
    """`budget`, once 0 < budget <= MAX_BUDGET (NaN and infinity fail)."""
    if not 0 < budget <= MAX_BUDGET:
        raise ValueError(f"budget must be in (0, {MAX_BUDGET:,.0f}] s: {budget!r}")
    return budget


class BackendError(Exception):
    """The solver backend misbehaved (crash, garbage output, bad template)."""


class Status(enum.Enum):
    SAT = "sat"
    UNSAT = "unsat"
    UNKNOWN = "unknown"


@dataclass
class SolveOutcome:
    status: Status
    model: dict[int, bool] | None = None


def check_model(formula: Formula, model: dict[int, bool]) -> bool:
    """True iff the assignment satisfies every clause; a variable the model
    leaves out is false."""
    n = formula.num_vars
    # value[lit] for every literal of the formula: +v at slot v, -v at
    # slot 2n+1-v, as in _CDCL
    value = [False] * (n + 1) + [True] * n
    for v, b in model.items():
        if b and 0 < v <= n:
            value[v] = True
            value[-v] = False
    for clause in formula.clauses:
        for lit in clause:
            if value[lit]:
                break
        else:
            return False
    return True


def _verified(formula: Formula, model: dict[int, bool],
              assumptions) -> SolveOutcome:
    """SAT with `model`, a value for every variable 1..n, once it satisfies
    the formula and the assumptions."""
    if not (check_model(formula, model)
            and all(model[abs(lit)] == (lit > 0) for lit in assumptions)):
        raise BackendError("backend returned an assignment that violates the formula")
    return SolveOutcome(Status.SAT, model)


def _with_units(formula: Formula, lits) -> Formula:
    """A one-shot copy of the formula with each literal as a unit clause."""
    copy = Formula()
    copy.num_vars = formula.num_vars
    copy.clauses = list(formula.clauses)
    for lit in lits:
        copy.add_clause([lit])
    return copy


class ExternalSolver:
    """One-shot solver over a DIMACS file via a configurable command template.

    The template must contain an "{input}" placeholder for the CNF file path.
    Each call writes a fresh file: the formula, plus one unit clause per
    assumption.
    """

    def __init__(self, command_template: str):
        if "{input}" not in command_template:
            raise BackendError(f"solver command template lacks {{input}}: {command_template!r}")
        self.command_template = command_template

    def __repr__(self) -> str:
        return f"ExternalSolver({self.command_template!r})"

    def solve(self, formula: Formula, budget: float = DEFAULT_BUDGET,
              assumptions=()) -> SolveOutcome:
        check_budget(budget)
        # built first, so a bad assumption raises before any file exists
        dimacs = _with_units(formula, assumptions).to_dimacs()
        with tempfile.NamedTemporaryFile(
            "w", suffix=".cnf", prefix="snowplan_", delete=False
        ) as handle:
            handle.write(dimacs)
            path = handle.name
        try:
            # not str.format: other braces in the template stay as written
            cmd = self.command_template.replace("{input}", path)
            try:
                # a session of its own, so a timeout can end the shell and
                # every process it started
                proc = subprocess.Popen(
                    cmd,
                    shell=True,
                    stdout=subprocess.PIPE,
                    stderr=subprocess.PIPE,
                    text=True,
                    start_new_session=True,
                )
            except OSError as exc:
                raise BackendError(f"failed to run solver: {exc}") from exc
            try:
                stdout, stderr = proc.communicate(timeout=budget)
            except subprocess.TimeoutExpired:
                return SolveOutcome(Status.UNKNOWN)
            finally:
                if proc.returncode is None:
                    _kill_group(proc)
            return self._parse(formula, assumptions, proc.returncode, stdout,
                               stderr)
        finally:
            os.unlink(path)

    def _parse(self, formula: Formula, assumptions, returncode: int,
               stdout: str, stderr: str) -> SolveOutcome:
        status = None
        values: list[int] = []
        for line in stdout.splitlines():
            if line.startswith("s "):
                token = line[2:].strip()
                if token == "SATISFIABLE":
                    status = Status.SAT
                elif token == "UNSATISFIABLE":
                    status = Status.UNSAT
                elif token == "UNKNOWN":
                    status = Status.UNKNOWN
            elif line.startswith("v ") or line == "v":
                try:
                    values.extend(int(tok) for tok in line[1:].split())
                except ValueError:
                    raise BackendError(f"bad value line: {line[:500]}") from None
        if status is None:
            raise BackendError(
                f"no status line from solver (exit {returncode}): "
                f"{stderr.strip()[:500] or stdout.strip()[:500]}"
            )
        if status is Status.SAT:
            assignment = {abs(v): v > 0 for v in values if v != 0}
            model = {v: assignment.get(v, False)
                     for v in range(1, formula.num_vars + 1)}
            return _verified(formula, model, assumptions)
        return SolveOutcome(status)


def _kill_group(proc: subprocess.Popen) -> None:
    """Kill the process group the solver leads, then reap the leader."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.communicate()


class InProcessSolver:
    """Bundled CDCL solver (watched literals, VSIDS, phase saving, restarts).

    It keeps one solver state per formula, for as long as the formula lives,
    and loads only the clauses appended since the last call, so a formula
    grown between calls keeps everything learnt so far. Formulas must only
    grow: variables and clauses are appended, never changed or removed.
    One thread at a time uses an InProcessSolver.
    """

    def __init__(self) -> None:
        self._states: weakref.WeakKeyDictionary[Formula, _CDCL] = (
            weakref.WeakKeyDictionary())

    def __repr__(self) -> str:
        return "InProcessSolver()"

    def solve(self, formula: Formula, budget: float = DEFAULT_BUDGET,
              assumptions=()) -> SolveOutcome:
        """SAT, UNSAT or UNKNOWN for the formula with every assumption true.

        UNSAT under assumptions says nothing about the formula alone, and
        neither it nor UNKNOWN changes later answers.
        """
        deadline = time.monotonic() + check_budget(budget)
        for lit in assumptions:
            if lit == 0 or abs(lit) > formula.num_vars:
                raise ValueError(f"assumption {lit} outside allocated variables")
        cdcl = self._states.get(formula)
        if cdcl is None:
            cdcl = self._states[formula] = _CDCL()
        cdcl.load(formula)
        result = cdcl.run(assumptions, deadline)
        if result is None:
            return SolveOutcome(Status.UNKNOWN)
        if result is False:
            return SolveOutcome(Status.UNSAT)
        return _verified(formula, result, assumptions)


class _CDCL:
    """Conflict-driven clause learning on flat arrays, after MiniSat.

    Literals are DIMACS ints and index the per-literal lists directly: a list
    of length 2n+1 maps +v to slot v and -v to slot 2n+1-v, so every literal
    must lie within +-1..n (as `Formula.add_clause` checks), and k new
    variables insert 2k slots at n+1. `val[lit]` is 1
    (true), -1 (false) or 0 (unassigned). Binary clauses live in implication
    lists (`bins[lit]` holds the literals forced once `lit` is false) and
    have the antecedent literal itself as reason; longer clauses are watched
    on their first two literals and are their own reason, implied literal
    first. Decisions come from an indexed VSIDS heap over variables with
    phase saving; restarts follow the Luby sequence. Every structure besides
    the clause lists is O(number of variables).

    The state lives across calls, after MiniSat's incremental interface:
    `load` adds the clauses appended to a formula since the last load, at
    decision level 0, in one pass per clause as MiniSat's `addClause` does.
    A binary clause over unassigned variables goes to `bins`, a longer one
    with no literal assigned and no variable repeated is watched as a copy,
    and a clause with a true literal is skipped, all inline. Every other
    clause goes through `_add_clause`, which also skips satisfied clauses,
    skips tautologies, drops false and repeated literals and enqueues
    units; both ways leave the same state.
    `run(assumptions, deadline)` decides the assumptions first, one level
    each, re-deciding them after every restart. Learnt clauses follow from
    the clauses alone, so they stay valid for every later call. run()
    returns a model dict, False for UNSAT (under the assumptions, or for
    good once `ok` is False), or None past the deadline.
    """

    def __init__(self) -> None:
        self.num_vars = 0
        self.loaded = 0                  # clauses of the formula read so far
        self.ok = True                   # False once UNSAT without assumptions
        self.val = [0]
        self.bins: list[list[int]] = [[]]
        self.watches: list[list[list[int]]] = [[]]
        self.level = [0]
        self.reason: list = [None]
        self.phase = [False]
        self.seen = [False]
        self.activity = [0.0]
        self.var_inc = 1.0
        self.heap: list[int] = []
        self.pos = [-1]                  # pos[v] = index in heap, -1 if out
        self.trail: list[int] = []
        self.trail_lim: list[int] = []
        self.qhead = 0
        # search counts over every call: conflicts met, branching
        # decisions made and literals implied by `_propagate`
        self.conflicts = 0
        self.decisions = 0
        self.propagations = 0

    def load(self, formula: Formula) -> None:
        """Take in the formula's new variables and new clauses."""
        n, k = self.num_vars, formula.num_vars - self.num_vars
        if k > 0:
            slots = 2 * k
            self.val[n + 1:n + 1] = [0] * slots
            self.bins[n + 1:n + 1] = [[] for _ in range(slots)]
            self.watches[n + 1:n + 1] = [[] for _ in range(slots)]
            self.level += [0] * k
            self.reason += [None] * k
            self.phase += [False] * k
            self.seen += [False] * k
            self.activity += [0.0] * k
            # activity 0 at the bottom of the heap keeps it valid
            self.pos += range(len(self.heap), len(self.heap) + k)
            self.heap += range(n + 1, n + k + 1)
            self.num_vars = n + k
        # the three common cases inline, as `_add_clause` would take them
        val, bins, watches = self.val, self.bins, self.watches
        assigned = val.__getitem__
        clauses = formula.clauses
        for i in range(self.loaded, len(clauses)):
            c = clauses[i]
            size = len(c)
            if size == 2:
                a, b = c
                va, vb = val[a], val[b]
                if not va and not vb:
                    if a != b and a != -b:
                        bins[a].append(b)
                        bins[b].append(a)
                        continue
                elif va > 0 or vb > 0:
                    continue    # satisfied at level 0
            elif size > 2:
                if not any(map(assigned, c)):
                    if len(set(map(abs, c))) == size:
                        c = c[:]
                        watches[c[0]].append(c)
                        watches[c[1]].append(c)
                        continue
                elif 1 in map(assigned, c):
                    continue    # satisfied at level 0
            self._add_clause(c)
        self.loaded = len(clauses)

    def _add_clause(self, clause: list[int]) -> None:
        """Add one clause at decision level 0: skip it when satisfied or a
        tautology, drop false and repeated literals, enqueue a unit, and
        clear `ok` when nothing is left."""
        val = self.val
        lits: list[int] = []
        for lit in clause:
            v = val[lit]
            if v > 0:
                return  # satisfied at level 0
            if not v:
                lits.append(lit)
        if len(lits) > 1:
            unique = set(lits)
            if any(-lit in unique for lit in lits):
                return  # tautology
            if len(unique) < len(lits):
                lits = list(dict.fromkeys(lits))
        if not lits:
            self.ok = False
        elif len(lits) == 1:
            self._enqueue(lits[0], None)
        elif len(lits) == 2:
            a, b = lits
            self.bins[a].append(b)
            self.bins[b].append(a)
        else:
            self.watches[lits[0]].append(lits)
            self.watches[lits[1]].append(lits)

    # -- VSIDS heap -----------------------------------------------------
    # `heap` is a max-heap of variables on `activity`, and pos[v] is v's
    # index in it. `_analyze` bumps and sifts up, and `_backtrack`
    # re-inserts, inline.

    def _heap_pop(self) -> int:
        heap, pos, act = self.heap, self.pos, self.activity
        top = heap[0]
        pos[top] = -1
        last = heap.pop()
        n = len(heap)
        if n:
            a = act[last]
            i = 0
            while True:
                child = 2 * i + 1
                if child >= n:
                    break
                if child + 1 < n and act[heap[child + 1]] > act[heap[child]]:
                    child += 1
                u = heap[child]
                if act[u] <= a:
                    break
                heap[i] = u
                pos[u] = i
                i = child
            heap[i] = last
            pos[last] = i
        return top

    # -- assignment -----------------------------------------------------

    def _enqueue(self, lit: int, reason) -> None:
        self.val[lit] = 1
        self.val[-lit] = -1
        v = lit if lit > 0 else -lit
        self.level[v] = len(self.trail_lim)
        self.reason[v] = reason
        self.trail.append(lit)

    def _propagate(self) -> list[int] | None:
        """Unit propagation; returns a conflicting clause or None."""
        val, level, reason, trail = self.val, self.level, self.reason, self.trail
        bins, watches = self.bins, self.watches
        lvl = len(self.trail_lim)
        head = self.qhead
        start = len(trail)
        while head < len(trail):
            false_lit = -trail[head]
            head += 1
            for other in bins[false_lit]:
                v = val[other]
                if not v:
                    val[other] = 1
                    val[-other] = -1
                    var = other if other > 0 else -other
                    level[var] = lvl
                    reason[var] = false_lit
                    trail.append(other)
                elif v < 0:
                    self.qhead = len(trail)
                    self.propagations += len(trail) - start
                    return [other, false_lit]
            ws = watches[false_lit]
            if not ws:
                continue
            i = j = 0
            n = len(ws)
            while i < n:
                c = ws[i]
                i += 1
                first = c[0]
                if first == false_lit:
                    first = c[1]
                    c[0] = first
                    c[1] = false_lit
                if val[first] > 0:
                    ws[j] = c
                    j += 1
                    continue
                for k in range(2, len(c)):
                    lit = c[k]
                    if val[lit] >= 0:
                        c[1] = lit
                        c[k] = false_lit
                        watches[lit].append(c)
                        break
                else:
                    ws[j] = c
                    j += 1
                    if val[first] < 0:
                        while i < n:
                            ws[j] = ws[i]
                            j += 1
                            i += 1
                        del ws[j:]
                        self.qhead = len(trail)
                        self.propagations += len(trail) - start
                        return c
                    val[first] = 1
                    val[-first] = -1
                    var = first if first > 0 else -first
                    level[var] = lvl
                    reason[var] = c
                    trail.append(first)
            del ws[j:]
        self.qhead = head
        self.propagations += len(trail) - start
        return None

    def _analyze(self, conflict: list[int]) -> tuple[list[int], int]:
        """First-UIP learning with local minimization; returns
        (learnt clause, backjump level), asserting literal first and a
        literal of the backjump level second.

        Each variable met above level 0 is bumped once: its activity grows
        by `var_inc` (past 1e100, every activity and `var_inc` scale by
        1e-100), then it sifts up the heap if it is in it."""
        seen, level, reason, trail = self.seen, self.level, self.reason, self.trail
        act, heap, pos = self.activity, self.heap, self.pos
        inc = self.var_inc
        cur = len(self.trail_lim)
        learnt: list[int] = []           # the literals below level `cur`
        marked: list[int] = []
        counter = 0
        idx = len(trail) - 1
        antecedents = conflict
        while True:
            for q in antecedents:
                v = q if q > 0 else -q
                if not seen[v] and level[v]:
                    seen[v] = True
                    marked.append(v)
                    a = act[v] + inc
                    act[v] = a
                    if a > 1e100:
                        act[:] = [x * 1e-100 for x in act]
                        inc = self.var_inc = inc * 1e-100
                        a = act[v]
                    i = pos[v]
                    if i > 0:            # in the heap and not its root
                        while i:
                            parent = (i - 1) >> 1
                            u = heap[parent]
                            if act[u] >= a:
                                break
                            heap[i] = u
                            pos[u] = i
                            i = parent
                        heap[i] = v
                        pos[v] = i
                    if level[v] == cur:
                        counter += 1
                    else:
                        learnt.append(q)
            p = trail[idx]
            while not seen[p if p > 0 else -p]:
                idx -= 1
                p = trail[idx]
            idx -= 1
            counter -= 1
            if not counter:
                break
            r = reason[p if p > 0 else -p]
            antecedents = (r,) if type(r) is int else r
        # drop literals whose reason lies inside the clause (lower levels
        # only, so every marked variable there is a clause literal)
        out = [-p]
        for q in learnt:
            r = reason[q if q > 0 else -q]
            if r is None:
                out.append(q)
            elif type(r) is int:
                x = r if r > 0 else -r
                if not seen[x] and level[x]:
                    out.append(q)
            else:
                for x in r:
                    if x < 0:
                        x = -x
                    if not seen[x] and level[x]:
                        out.append(q)
                        break
        for v in marked:
            seen[v] = False
        if len(out) == 1:
            return out, 0
        best = 1
        q = out[1]
        back = level[q if q > 0 else -q]
        for j in range(2, len(out)):
            q = out[j]
            lv = level[q if q > 0 else -q]
            if lv > back:
                best, back = j, lv
        out[1], out[best] = out[best], out[1]
        return out, back

    def _backtrack(self, target_level: int) -> None:
        """Undo every level above `target_level`, latest literal first:
        save each variable's phase and put it back in the heap, sifted
        up, if it is out."""
        if len(self.trail_lim) <= target_level:
            return
        val, phase, trail = self.val, self.phase, self.trail
        heap, pos, act = self.heap, self.pos, self.activity
        limit = self.trail_lim[target_level]
        for lit in reversed(trail[limit:]):
            val[lit] = 0
            val[-lit] = 0
            v = lit if lit > 0 else -lit
            phase[v] = lit > 0
            if pos[v] < 0:
                i = len(heap)
                heap.append(v)
                a = act[v]
                while i:
                    parent = (i - 1) >> 1
                    u = heap[parent]
                    if act[u] >= a:
                        break
                    heap[i] = u
                    pos[u] = i
                    i = parent
                heap[i] = v
                pos[v] = i
        del trail[limit:]
        del self.trail_lim[target_level:]
        self.qhead = limit

    def _decide(self) -> int | None:
        val, phase, heap = self.val, self.phase, self.heap
        while heap:
            v = self._heap_pop()
            if not val[v]:
                return v if phase[v] else -v
        return None

    def run(self, assumptions, deadline: float):
        if not self.ok:
            return False
        trail, trail_lim, val = self.trail, self.trail_lim, self.val
        conflicts = decisions = 0
        restart_at = 100
        luby_idx = 1
        try:
            while True:
                conflict = self._propagate()
                if conflict is not None:
                    conflicts += 1
                    if not trail_lim:
                        self.ok = False
                        return False
                    if not conflicts & 255 and time.monotonic() > deadline:
                        return None
                    learnt, back = self._analyze(conflict)
                    self._backtrack(back)
                    first = learnt[0]
                    if len(learnt) == 1:
                        self._enqueue(first, None)
                    elif len(learnt) == 2:
                        self.bins[first].append(learnt[1])
                        self.bins[learnt[1]].append(first)
                        self._enqueue(first, learnt[1])
                    else:
                        self.watches[first].append(learnt)
                        self.watches[learnt[1]].append(learnt)
                        self._enqueue(first, learnt)
                    self.var_inc /= 0.95
                    if conflicts >= restart_at:
                        luby_idx += 1
                        restart_at = conflicts + 100 * _luby(luby_idx)
                        self._backtrack(0)
                elif len(trail_lim) < len(assumptions):
                    lit = assumptions[len(trail_lim)]
                    if val[lit] < 0:
                        return False  # the assumptions contradict the formula
                    # one level per assumption, even one already true
                    trail_lim.append(len(trail))
                    if not val[lit]:
                        self._enqueue(lit, None)
                else:
                    if not decisions & 255 and time.monotonic() > deadline:
                        return None
                    decision = self._decide()
                    if decision is None:
                        return {v: val[v] > 0
                                for v in range(1, self.num_vars + 1)}
                    decisions += 1
                    trail_lim.append(len(trail))
                    self._enqueue(decision, None)
        finally:
            self.conflicts += conflicts
            self.decisions += decisions
            self._backtrack(0)


def _luby(i: int) -> int:
    """Term i (from 1) of the Luby sequence 1,1,2,1,1,2,4,1,1,2,... :
    2^(k-1) when i = 2^k - 1, else the term i - (2^(k-1) - 1) for the k
    with 2^(k-1) <= i < 2^k - 1."""
    while (i + 1) & i:
        i -= (1 << (i.bit_length() - 1)) - 1
    return (i + 1) >> 1


def default_backend():
    """Backend resolution: SNOWPLAN_SOLVER_CMD env, then PATH probe, then bundled."""
    template = os.environ.get(SOLVER_CMD_ENV)
    if template:
        return ExternalSolver(template)
    for name in KNOWN_SOLVERS:
        if shutil.which(name):
            return ExternalSolver(f"{name} {{input}}")
    return InProcessSolver()


def solve(formula: Formula, backend, budget: float = DEFAULT_BUDGET,
          assumptions=()) -> SolveOutcome:
    """Solve the formula on `backend` with every assumption literal true."""
    return backend.solve(formula, budget, assumptions)
