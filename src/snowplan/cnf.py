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

    def new_var(self, name: str | None = None) -> int:
        """Allocate a fresh variable, optionally registered under `name`."""
        if name is not None:
            if name in self.name_to_var:
                raise RegistryError(f"variable name already registered: {name!r}")
            self.name_to_var[name] = self.num_vars + 1
        self.num_vars += 1
        return self.num_vars

    def var(self, name: str) -> int:
        return self.name_to_var[name]

    def _check(self, *lit_lists) -> None:
        n = self.num_vars
        for lits in lit_lists:
            for lit in lits:
                if lit == 0 or abs(lit) > n:
                    raise ValueError(f"literal {lit} outside allocated variables")

    def add_clause(self, lits: list[int]) -> None:
        self._check(lits)
        self.clauses.append(list(lits))

    # -- gadgets ----------------------------------------------------------
    # Each gadget checks its literals once, then appends its clauses. Every
    # clause of `exactly_one` starts with `guard`, so it binds only while
    # each guard literal is false. Clauses are built by list concatenation, which sizes
    # them exactly; star-unpacking would over-allocate every clause.

    def exactly_one(self, lits: list[int], guard=()) -> None:
        """Pairwise exactly-one: one ALO clause plus k(k-1)/2 AMO clauses;
        with no literals, the clause `guard` (which must not be empty)."""
        if not lits and not guard:
            raise ValueError("exactly_one over an empty literal list")
        self._check(guard, lits)
        head = list(guard)
        self.clauses.append(head + lits)
        self._pairwise(lits, head)

    def at_most_one(self, lits: list[int]) -> None:
        """Pairwise at-most-one: k(k-1)/2 binary clauses."""
        self._check(lits)
        self._pairwise(lits, [])

    def _pairwise(self, lits: list[int], head: list[int]) -> None:
        self.clauses.extend(head + [-a, -b] for a, b in combinations(lits, 2))

    def define_or(self, y: int, lits: list[int]) -> None:
        """y <-> OR(lits): [-l, y] per literal, then [-y] + lits."""
        self._check((y,), lits)
        self.clauses.extend([-lit, y] for lit in lits)
        self.clauses.append([-y] + lits)

    def define_and(self, y: int, lits: list[int]) -> None:
        """y <-> AND(lits): [-y, l] per literal, then the negated lits + [y]."""
        self._check((y,), lits)
        self.clauses.extend([-y, lit] for lit in lits)
        self.clauses.append([-lit for lit in lits] + [y])

    # -- cardinality ----------------------------------------------------

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
        if not 0 <= k <= len(lits):
            raise ValueError(f"at_least_k bound {k} outside 0..{len(lits)}")
        if k == 0:
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
