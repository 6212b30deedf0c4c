"""Solver backends: bundled CDCL, external process contract, verification."""

import gc
import math
import os
import random
import stat
import tempfile
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

from snowplan import solvers
from snowplan.cnf import Formula
from snowplan.encoder import EncodingConfig, Mode, ReachKind, encode
from snowplan.fixtures import list_fixtures, load_fixture
from snowplan.search import solve_hybrid, solve_sequential
from snowplan.solvers import (BackendError, ExternalSolver, InProcessSolver,
                              Status, _CDCL, _luby, check_model,
                              default_backend, solve, SOLVER_CMD_ENV)

from conftest import brute_force_models, is_satisfiable_brute, parse_dimacs


def _tiny(clauses, n):
    f = Formula()
    for _ in range(n):
        f.new_var()
    for c in clauses:
        f.add_clause(c)
    return f


def test_unit_sat():
    f = _tiny([[1]], 1)
    out = InProcessSolver().solve(f)
    assert out.status is Status.SAT
    assert out.model == {1: True}


def test_contradiction_unsat():
    f = _tiny([[1], [-1]], 1)
    assert InProcessSolver().solve(f).status is Status.UNSAT


def test_model_is_total_and_verified():
    f = _tiny([[1, 2]], 3)  # var 3 is unconstrained
    out = InProcessSolver().solve(f)
    assert out.status is Status.SAT
    assert set(out.model) == {1, 2, 3}
    assert check_model(f, out.model)


def test_cdcl_agrees_with_enumeration():
    rng = random.Random(42)
    solver = InProcessSolver()
    for _ in range(150):
        n = rng.randint(1, 9)
        f = Formula()
        for _ in range(n):
            f.new_var()
        for _ in range(rng.randint(1, 4 * n)):
            width = rng.randint(1, 3)
            f.add_clause(sorted({rng.choice([-1, 1]) * rng.randint(1, n)
                                 for _ in range(width)}))
        out = solver.solve(f)
        expect = is_satisfiable_brute(f)
        assert (out.status is Status.SAT) == expect
        if out.status is Status.SAT:
            assert check_model(f, out.model)


def _pigeonhole(pigeons, holes):
    """Every pigeon in some hole, no two pigeons sharing one."""
    f = Formula()
    x = [[f.new_var() for _ in range(holes)] for _ in range(pigeons)]
    for row in x:
        f.add_clause(row)
    for h in range(holes):
        for p in range(pigeons):
            for q in range(p + 1, pigeons):
                f.add_clause([-x[p][h], -x[q][h]])
    return f


@pytest.mark.parametrize("pigeons,holes,want", [(5, 4, Status.UNSAT),
                                                 (6, 6, Status.SAT)])
def test_cdcl_pigeonhole(pigeons, holes, want):
    """Small pigeonhole formulas need learning and backjumping to decide."""
    out = InProcessSolver().solve(_pigeonhole(pigeons, holes))
    assert out.status is want


def _check_heap(cdcl: _CDCL) -> None:
    """`heap` is a max-heap on `activity`, `pos` is its inverse (-1 for a
    variable out of it), and every unassigned variable is in it."""
    heap, pos, act = cdcl.heap, cdcl.pos, cdcl.activity
    for i, v in enumerate(heap):
        assert pos[v] == i
        assert not i or act[heap[(i - 1) >> 1]] >= act[v]
    assert sum(p >= 0 for p in pos[1:]) == len(heap)
    assert all(pos[v] >= 0 for v in range(1, cdcl.num_vars + 1)
               if not cdcl.val[v])


def test_vsids_heap_after_rescale():
    """With `var_inc` preset just below the 1e100 threshold, bumps soon
    push an activity past it and every activity scales down by 1e-100.
    The answer stays UNSAT, and the heap is intact afterwards."""
    cdcl = _CDCL()
    cdcl.var_inc = 0.99e100
    cdcl.load(_pigeonhole(6, 5))
    assert cdcl.run([], time.monotonic() + 60) is False
    assert cdcl.conflicts > 1 and cdcl.var_inc < 1e100   # it rescaled
    assert max(cdcl.activity) < 1e100
    _check_heap(cdcl)


def test_vsids_heap_between_calls():
    """The heap is intact after SAT calls and after UNSAT calls under
    assumptions, on one state that learns across them."""
    rng = random.Random(3)
    cdcl = _CDCL()
    cdcl.load(_pigeonhole(6, 6))
    for _ in range(20):
        lits = rng.sample(range(1, cdcl.num_vars + 1), 3)
        cdcl.run([rng.choice([-1, 1]) * v for v in lits],
                 time.monotonic() + 60)
        _check_heap(cdcl)
    assert cdcl.conflicts > 0


def test_cdcl_budget_is_unknown():
    """A formula far beyond the budget ends near the deadline as UNKNOWN."""
    start = time.monotonic()
    out = InProcessSolver().solve(_pigeonhole(10, 9), budget=0.2)
    assert out.status is Status.UNKNOWN
    assert out.model is None
    assert time.monotonic() - start < 5.0


def _script_solver(tmp_path: Path, body: str) -> str:
    path = tmp_path / "fakesolver.sh"
    path.write_text("#!/bin/sh\n" + body)
    path.chmod(path.stat().st_mode | stat.S_IXUSR)
    return f"{path} {{input}}"


def test_external_template_requires_placeholder():
    with pytest.raises(BackendError):
        ExternalSolver("solver-without-placeholder")


def test_external_sat_output_parsed(tmp_path):
    cmd = _script_solver(tmp_path, 'echo "s SATISFIABLE"\necho "v 1 -2 0"\n')
    f = _tiny([[1, -2]], 2)
    out = ExternalSolver(cmd).solve(f)
    assert out.status is Status.SAT
    assert out.model == {1: True, 2: False}


def test_external_template_keeps_other_braces(tmp_path):
    """Only {input} is substituted; any other brace field, and a doubled
    brace, reaches the solver unchanged."""
    cmd = _script_solver(
        tmp_path,
        'test "$1" = "{seed}" && test "$2" = "{{x}}" && test -s "$3"'
        ' && echo "s UNSATISFIABLE"\n')
    cmd = cmd.replace(" {input}", " {seed} '{{x}}' {input}")
    out = ExternalSolver(cmd).solve(_tiny([[1], [-1]], 1))
    assert out.status is Status.UNSAT


def test_external_unsat_output_parsed(tmp_path):
    cmd = _script_solver(tmp_path, 'echo "s UNSATISFIABLE"\n')
    out = ExternalSolver(cmd).solve(_tiny([[1], [-1]], 1))
    assert out.status is Status.UNSAT


def test_external_lying_solver_rejected(tmp_path):
    """A SAT claim whose model violates the formula is a backend error."""
    cmd = _script_solver(tmp_path, 'echo "s SATISFIABLE"\necho "v -1 0"\n')
    with pytest.raises(BackendError):
        ExternalSolver(cmd).solve(_tiny([[1]], 1))


def test_external_garbage_is_backend_error(tmp_path):
    """No status line, a value that is not an integer, and a status line
    with no status each raise BackendError."""
    for script in ('echo "no status here"\n',
                   'echo "s SATISFIABLE"\necho "v 1 x 0"\n',
                   'echo "s "\n'):
        cmd = _script_solver(tmp_path, script)
        with pytest.raises(BackendError):
            ExternalSolver(cmd).solve(_tiny([[1]], 1))


def test_external_timeout_is_unknown(tmp_path):
    cmd = _script_solver(tmp_path, "sleep 30\n")
    out = ExternalSolver(cmd).solve(_tiny([[1]], 1), budget=0.2)
    assert out.status is Status.UNKNOWN
    assert out.model is None


@pytest.mark.parametrize("budget", [0, -1, math.nan, math.inf, 3e6],
                         ids=["0", "-1", "nan", "inf", "3e6"])
@pytest.mark.parametrize("kind", ["in-process", "external"])
def test_backends_check_their_budget(kind, budget, tmp_path):
    """Each built-in backend accepts only a budget above zero and at most
    MAX_BUDGET seconds, whoever calls it."""
    backend = InProcessSolver() if kind == "in-process" else ExternalSolver(
        _script_solver(tmp_path, 'echo "s SATISFIABLE"\necho "v 1 0"\n'))
    with pytest.raises(ValueError, match="budget"):
        backend.solve(_tiny([[1]], 1), budget)


def test_external_bad_assumption_leaves_no_file(tmp_path, monkeypatch):
    """An assumption outside the formula fails before the DIMACS file is
    made, so no file is left in the temporary directory."""
    scratch = tmp_path / "tmp"
    scratch.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(scratch))
    cmd = _script_solver(tmp_path, 'echo "s UNSATISFIABLE"\n')
    with pytest.raises(ValueError):
        ExternalSolver(cmd).solve(_tiny([[1]], 1), 1.0, assumptions=[99])
    assert list(scratch.iterdir()) == []


def _running(pid: int) -> bool:
    """True while the process exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="needs /proc")
def test_external_timeout_kills_solver_children(tmp_path):
    """A timeout ends the solver's whole process group, not only the shell
    that started it."""
    pidfile = tmp_path / "child.pid"
    cmd = _script_solver(
        tmp_path, f"sh -c 'echo $$ > {pidfile}; exec sleep 30'\n")
    out = ExternalSolver(cmd).solve(_tiny([[1]], 1), budget=0.5)
    assert out.status is Status.UNKNOWN
    pid = int(pidfile.read_text())
    deadline = time.monotonic() + 5.0
    while _running(pid) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not _running(pid)


def test_default_backend_env_override(tmp_path, monkeypatch):
    cmd = _script_solver(tmp_path, 'echo "s UNSATISFIABLE"\n')
    monkeypatch.setenv(SOLVER_CMD_ENV, cmd)
    backend = default_backend()
    assert isinstance(backend, ExternalSolver)
    assert backend.command_template == cmd


def test_default_backend_falls_back_to_bundled(monkeypatch):
    monkeypatch.delenv(SOLVER_CMD_ENV, raising=False)
    monkeypatch.setenv("PATH", "/nonexistent")
    assert isinstance(default_backend(), InProcessSolver)


def test_solve_helper_uses_given_backend():
    out = solve(_tiny([[1]], 1), backend=InProcessSolver())
    assert out.status is Status.SAT


def test_session_backend_solves(backend):
    out = backend.solve(_tiny([[1, 2], [-1, -2], [1]], 2))
    assert out.status is Status.SAT
    assert out.model == {1: True, 2: False}


# -- incremental solving ------------------------------------------------


def _random_clause(rng, n):
    width = rng.randint(1, 3)
    return sorted({rng.choice([-1, 1]) * rng.randint(1, n)
                   for _ in range(width)})


def _agrees(formula, out, assumptions):
    models = [m for m in brute_force_models(formula)
              if all(m[abs(a)] == (a > 0) for a in assumptions)]
    assert (out.status is Status.SAT) == bool(models)
    if out.status is Status.SAT:
        assert check_model(formula, out.model)
        assert all(out.model[abs(a)] == (a > 0) for a in assumptions)


def test_incremental_agrees_with_enumeration():
    """One solver state per formula, grown between calls (variables and
    clauses) and asked under random assumptions, answers like enumeration."""
    rng = random.Random(7)
    solver = InProcessSolver()
    for _ in range(60):
        f = Formula()
        for _ in range(rng.randint(1, 4)):
            f.new_var()
        for _ in range(8):
            for _ in range(rng.randint(0, 2)):
                if f.num_vars < 10:
                    f.new_var()
            for _ in range(rng.randint(0, 3)):
                f.add_clause(_random_clause(rng, f.num_vars))
            assumptions = sorted({rng.choice([-1, 1]) * rng.randint(1, f.num_vars)
                                  for _ in range(rng.randint(0, 3))})
            _agrees(f, solver.solve(f, assumptions=assumptions), assumptions)


def test_unsat_under_assumptions_and_unknown_leave_no_trace():
    """Neither an UNSAT answer under assumptions nor a budget UNKNOWN
    changes what later calls on the same formula answer."""
    solver = InProcessSolver()
    f = _pigeonhole(10, 9)
    # guard every clause by s: the formula is SAT, and UNSAT under s
    s = f.new_var()
    f.clauses = [c + [-s] for c in f.clauses]
    out = solver.solve(f, budget=0.2, assumptions=[s])
    assert out.status is Status.UNKNOWN
    assert solver.solve(f, assumptions=[-s]).status is Status.SAT
    x, y = f.new_var(), f.new_var()
    f.add_clause([x, y])
    f.add_clause([-x, y])
    assert solver.solve(f, assumptions=[-y]).status is Status.UNSAT
    assert solver.solve(f, assumptions=[-s, x]).status is Status.SAT
    out = solver.solve(f, assumptions=[-s])
    assert out.status is Status.SAT and out.model[y]
    f.add_clause([-y])
    assert solver.solve(f).status is Status.UNSAT
    assert solver.solve(f, assumptions=[-s]).status is Status.UNSAT


def test_assumption_outside_variables_rejected():
    with pytest.raises(ValueError):
        InProcessSolver().solve(_tiny([[1]], 1), assumptions=[2])


def test_one_shot_backend_gets_assumptions_as_units(tmp_path):
    """ExternalSolver writes the formula plus one unit clause per assumption
    to its DIMACS file and leaves the caller's formula as it was; solving
    the formula with those units answers like enumeration under the
    assumptions."""
    seen, answer = tmp_path / "seen.cnf", tmp_path / "answer"
    external = ExternalSolver(_script_solver(
        tmp_path, f'cp "$1" {seen}\ncat {answer}\n'))
    rng = random.Random(11)
    for _ in range(80):
        n = rng.randint(1, 7)
        f = _tiny([_random_clause(rng, n) for _ in range(rng.randint(1, 3 * n))], n)
        clauses = [list(c) for c in f.clauses]
        assumptions = sorted({rng.choice([-1, 1]) * rng.randint(1, n)
                              for _ in range(rng.randint(1, 3))})
        units = clauses + [[lit] for lit in assumptions]
        answer.write_text(_competition_output(
            InProcessSolver().solve(_tiny(units, n))))
        out = solve(f, backend=external, assumptions=assumptions)
        assert parse_dimacs(seen.read_text()) == (n, units)
        assert f.clauses == clauses            # the caller's formula is unchanged
        _agrees(f, out, assumptions)


def _competition_output(outcome) -> str:
    if outcome.status is Status.UNSAT:
        return "s UNSATISFIABLE\n"
    values = " ".join(str(v if b else -v) for v, b in outcome.model.items())
    return f"s SATISFIABLE\nv {values} 0\n"


def test_external_model_violating_assumption_rejected(tmp_path):
    """A model that satisfies the formula but not an assumption is a
    backend error, not a SAT answer."""
    cmd = _script_solver(tmp_path, 'echo "s SATISFIABLE"\necho "v 1 2 0"\n')
    f = _tiny([[1, 2]], 2)
    assert ExternalSolver(cmd).solve(f).status is Status.SAT
    with pytest.raises(BackendError):
        ExternalSolver(cmd).solve(f, assumptions=[-2])


def test_luby_sequence():
    """Restarts follow Luby, Sinclair & Zuckerman's sequence."""
    want = [1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8,
            1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8, 16]
    assert [_luby(i) for i in range(1, 32)] == want


def test_one_state_per_formula_until_collected():
    """Calls on one formula share one state, which honours the clauses
    appended between them; another formula gets its own state, and a
    collected formula's state goes with it."""
    solver = InProcessSolver()
    f = _tiny([[1, 2]], 2)
    assert solver.solve(f).status is Status.SAT
    state = solver._states[f]
    f.add_clause([-1])
    f.add_clause([-2])
    assert solver.solve(f).status is Status.UNSAT
    assert solver._states[f] is state and len(solver._states) == 1
    g = _tiny([[1]], 1)
    assert solver.solve(g).status is Status.SAT
    assert len(solver._states) == 2
    del f
    gc.collect()
    assert len(solver._states) == 1


# -- clause loading -----------------------------------------------------


def _load_per_clause(cdcl: _CDCL, formula: Formula) -> None:
    """The reference load: grow the variables, then one `_add_clause` per
    new clause."""
    start = cdcl.loaded
    cdcl.load(SimpleNamespace(num_vars=formula.num_vars, clauses=[]))
    for clause in formula.clauses[start:]:
        cdcl._add_clause(clause)
    cdcl.loaded = len(formula.clauses)


def _loaded_state(cdcl: _CDCL):
    return (cdcl.bins, [[tuple(c) for c in ws] for ws in cdcl.watches],
            cdcl.trail, cdcl.ok)


def _configs():
    yield Mode.FULL, ReachKind.PATH
    for mode in (Mode.COLLAPSED, Mode.PARALLEL, Mode.DESCEND):
        for reach in ReachKind:
            yield mode, reach


@pytest.mark.parametrize("name", list_fixtures())
def test_load_matches_per_clause_reference(name):
    """`load` leaves the state that one `_add_clause` per clause leaves, on
    every fixture, mode and reach (FULL with PATH only) at T = 0..3. Each
    formula grows by extension with a solve in between, so later loads
    meet literals assigned at level 0."""
    level = load_fixture(name).level
    for mode, reach in _configs():
        fast, ref = _CDCL(), _CDCL()
        encoding = None
        for T in range(4):
            encoding = encode(level, EncodingConfig(mode, T, reach), encoding)
            formula = encoding.formula
            fast.load(formula)
            _load_per_clause(ref, formula)
            assert _loaded_state(fast) == _loaded_state(ref), (mode, reach, T)
            deadline = time.monotonic() + 60
            result = fast.run([encoding.goal], deadline)
            assert result is not None, (mode, reach, T)
            assert ref.run([encoding.goal], deadline) == result
            if result is False:
                formula.add_clause([-encoding.goal])
        assert fast.trail, (mode, reach)


# Level 0 holds 1 and 6 true and 2 false; 3, 4 and 5 are unassigned.
UNITS = [[1], [-2], [6]]


@pytest.mark.parametrize("clause,bins,watched,trail,ok", [
    ([3, 4], {3: [4], 4: [3]}, [], [], True),
    ([3, 3], {}, [], [3], True),                     # repeated literal
    ([3, -3], {}, [], [], True),                     # tautology
    ([1, 3], {}, [], [], True),                      # satisfied at level 0
    ([-1, 3], {}, [], [3], True),                    # false literal: unit
    ([3, 2], {}, [], [3], True),
    ([-1, 2], {}, [], [], False),                    # empty
    ([3, 4, 5], {}, [(3, 4, 5)], [], True),
    ([3, 4, 3], {3: [4], 4: [3]}, [], [], True),     # repeated literal
    ([3, 4, 5, 4], {}, [(3, 4, 5)], [], True),
    ([3, 4, -3], {}, [], [], True),                  # tautology
    ([3, 4, 1], {}, [], [], True),                   # satisfied at level 0
    ([3, 1], {}, [], [], True),                      # satisfied, 2nd literal
    ([3, 4, 5, 1], {}, [], [], True),                # satisfied, last literal
    ([3, -1, 4, 5], {}, [(3, 4, 5)], [], True),      # false literal dropped
    ([3, -1, 4], {3: [4], 4: [3]}, [], [], True),
    ([-1, 3, 2], {}, [], [3], True),                 # reduced to a unit
    ([-1, 2, -6], {}, [], [], False),                # reduced to empty
], ids=lambda v: str(v).replace(" ", ""))
def test_load_simplifies_at_level_0(clause, bins, watched, trail, ok):
    """A clause loaded after the units lands where its simplification at
    level 0 puts it, as the per-clause reference puts it; a watched clause
    is a copy, so the solver never reorders the formula's own clause."""
    formula = _tiny(UNITS + [clause], 6)
    fast, ref = _CDCL(), _CDCL()
    fast.load(formula)
    _load_per_clause(ref, formula)
    assert _loaded_state(fast) == _loaded_state(ref)
    lits = [lit for v in range(1, 7) for lit in (v, -v)]
    assert {lit: fast.bins[lit] for lit in lits if fast.bins[lit]} == bins
    held = {id(c): c for ws in fast.watches for c in ws}
    assert sorted(tuple(c) for c in held.values()) == watched
    assert all(c is not formula.clauses[-1] for c in held.values())
    for c in held.values():
        assert all(c in fast.watches[lit] for lit in c[:2])
    assert fast.trail == [1, -2, 6] + trail
    assert fast.ok is ok


# -- search counts ------------------------------------------------------

# (conflicts, decisions, propagations) summed over every solver state of a
# run with the bundled CDCL, from the first version that counted them. A
# change to the search (decisions, learning, restarts) moves them; it
# updates them here and says why, as for FORMULA_DIGESTS.
SEARCH_COUNTS = {
    "soko_three/full": (393, 872, 149346),
    "snow_tiny3/hybrid-tree": (120, 500, 10273),
}


def test_search_counts_are_pinned(monkeypatch):
    """FULL deepening on soko_three and hybrid with TREE on snow_tiny3
    make exactly the pinned conflicts, decisions and propagations."""
    states = []

    class Counted(_CDCL):
        def __init__(self):
            super().__init__()
            states.append(self)

    monkeypatch.setattr(solvers, "_CDCL", Counted)
    runs = {
        "soko_three/full": lambda backend: solve_sequential(
            load_fixture("soko_three").level, Mode.FULL, backend=backend),
        "snow_tiny3/hybrid-tree": lambda backend: solve_hybrid(
            load_fixture("snow_tiny3").level, ReachKind.TREE,
            backend=backend),
    }
    counts = {}
    for key, run in runs.items():
        states.clear()
        bounds, _ = run(InProcessSolver())
        assert bounds.lower == bounds.upper, key
        counts[key] = tuple(sum(getattr(s, name) for s in states) for name in
                            ("conflicts", "decisions", "propagations"))
    assert counts == SEARCH_COUNTS
