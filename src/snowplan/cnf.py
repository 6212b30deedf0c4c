"""CNF construction: variable pool, clause list, cardinality constraints, DIMACS."""

from __future__ import annotations

from itertools import combinations


class RegistryError(Exception):
    """A semantic variable name was registered twice."""


class Formula:
    """A CNF formula under construction.

    Variables are dense positive integers starting at 1; literals are signed
    ints in DIMACS convention. Named variables are tracked in an injective
    registry so models can be decoded back into domain terms.
    """

    def __init__(self) -> None:
        self.num_vars = 0
        self.clauses: list[list[int]] = []
        self.name_to_var: dict[str, int] = {}
        self.var_to_name: dict[int, str] = {}
        self._aux_count = 0

    def new_var(self, name: str | None = None) -> int:
        """Allocate a fresh variable, optionally registered under `name`."""
        if name is None:
            self._aux_count += 1
            name = f"_aux{self._aux_count}"
        if name in self.name_to_var:
            raise RegistryError(f"variable name already registered: {name!r}")
        self.num_vars += 1
        self.name_to_var[name] = self.num_vars
        self.var_to_name[self.num_vars] = name
        return self.num_vars

    def var(self, name: str) -> int:
        return self.name_to_var[name]

    def add_clause(self, lits: list[int]) -> None:
        for lit in lits:
            if lit == 0 or abs(lit) > self.num_vars:
                raise ValueError(f"literal {lit} outside allocated variables")
        self.clauses.append(list(lits))

    def force_unsat(self) -> None:
        """Append the empty clause, marking the formula as trivially UNSAT."""
        self.clauses.append([])

    # -- cardinality ----------------------------------------------------

    def exactly_one(self, lits: list[int]) -> None:
        """Pairwise exactly-one: one ALO clause plus k(k-1)/2 AMO clauses."""
        if not lits:
            raise ValueError("exactly_one over an empty literal list")
        self.add_clause(list(lits))
        for a, b in combinations(lits, 2):
            self.add_clause([-a, -b])

    def at_most_k(self, lits: list[int], k: int) -> None:
        """Sequential-counter at-most-k (unit negations for k=0)."""
        if k < 0:
            raise ValueError("at_most_k with negative bound")
        n = len(lits)
        if k >= n:
            return
        if k == 0:
            for lit in lits:
                self.add_clause([-lit])
            return
        # Sinz counter: reg[i][j] <=> at least j+1 of lits[0..i] are true.
        reg = [[self.new_var() for _ in range(k)] for _ in range(n - 1)]
        self.add_clause([-lits[0], reg[0][0]])
        for j in range(1, k):
            self.add_clause([-reg[0][j]])
        for i in range(1, n - 1):
            self.add_clause([-lits[i], reg[i][0]])
            self.add_clause([-reg[i - 1][0], reg[i][0]])
            for j in range(1, k):
                self.add_clause([-lits[i], -reg[i - 1][j - 1], reg[i][j]])
                self.add_clause([-reg[i - 1][j], reg[i][j]])
            self.add_clause([-lits[i], -reg[i - 1][k - 1]])
        self.add_clause([-lits[n - 1], -reg[n - 2][k - 1]])

    def at_least_k(self, lits: list[int], k: int) -> None:
        """One clause for k=1, else the dual of at_most_k via negation."""
        if k < 0:
            raise ValueError("at_least_k with negative bound")
        if k == 0:
            return
        if k > len(lits):
            self.force_unsat()
            return
        if k == 1:
            self.add_clause(list(lits))
            return
        self.at_most_k([-lit for lit in lits], len(lits) - k)

    # -- serialization --------------------------------------------------

    def to_dimacs(self) -> str:
        lines = [f"p cnf {self.num_vars} {len(self.clauses)}"]
        for clause in self.clauses:
            lines.append(" ".join(str(lit) for lit in clause) + " 0")
        return "\n".join(lines) + "\n"


def parse_dimacs(text: str) -> tuple[int, list[list[int]]]:
    """Parse DIMACS CNF text into (variable count, clause list)."""
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
