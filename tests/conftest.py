"""Shared test helpers: brute-force CNF enumeration, a DIMACS parser,
action literals and the solver backend."""

from __future__ import annotations

from itertools import product

import pytest

from snowplan.cnf import Formula
from snowplan.game import ActionKind, Direction, ObjectAction
from snowplan.solvers import default_backend


def brute_force_models(formula: Formula) -> list[dict[int, bool]]:
    """All satisfying total assignments, by exhaustive enumeration."""
    n = formula.num_vars
    out = []
    for bits in product([False, True], repeat=n):
        model = {v: bits[v - 1] for v in range(1, n + 1)}
        if all(any(model[abs(lit)] == (lit > 0) for lit in clause)
               for clause in formula.clauses):
            out.append(model)
    return out


def is_satisfiable_brute(formula: Formula) -> bool:
    n = formula.num_vars
    for bits in product([False, True], repeat=n):
        model = {v: bits[v - 1] for v in range(1, n + 1)}
        if all(any(model[abs(lit)] == (lit > 0) for lit in clause)
               for clause in formula.clauses):
            return True
    return False


def parse_dimacs(text: str) -> tuple[int, list[list[int]]]:
    """Parse DIMACS CNF text into (variable count, clause list): the
    writer's independent oracle, token by token."""
    num_vars = None
    clauses: list[list[int]] = []
    pending: list[int] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise ValueError(f"bad DIMACS header: {line!r}")
            num_vars = int(parts[2])
            continue
        for tok in line.split():
            lit = int(tok)
            if lit == 0:
                clauses.append(pending)
                pending = []
            else:
                pending.append(lit)
    if pending:
        raise ValueError("unterminated clause in DIMACS input")
    if num_vars is None:
        raise ValueError("missing DIMACS header")
    return num_vars, clauses


def action_lit(encoding, t: int, kind: str, cell, direction: str) -> int:
    """The literal of an object action at step t, read from the encoding's
    action list (COLLAPSED, PARALLEL and DESCEND); `kind` and `direction`
    are spelt as in fixture flags, e.g. "roll" and "E"."""
    action = ObjectAction(ActionKind(kind), cell, Direction[direction])
    return dict(encoding.actions[t])[action]


@pytest.fixture(scope="session")
def backend():
    """One shared solver backend for the whole run."""
    return default_backend()
