"""CNF construction: variable pool, clause list, cardinality constraints, DIMACS.

A formula owns its clause lists: `Formula.add_clause` appends the list it
is given, not a copy. A caller therefore passes a list that nothing else
holds (a list display, a concatenation or a `list(...)` copy), and no one
changes a clause once it is in `clauses`. Every gadget here builds fresh
lists or copies the caller's.
"""

from __future__ import annotations

from itertools import combinations, repeat


# An at-most-one over this many literals or more is a Sinz ladder (3k-4
# clauses, k-1 fresh variables); a narrower one stays pairwise (k(k-1)/2
# clauses, no variables). Measured: from 64 only the per-step object-action
# choices of wide levels become ladders (k = 84-121 on six snowman
# fixtures, 152-457 on 60-cell rooms), which halves encode time on those
# rooms and leaves every FULL formula as it was. A ladder from k = 8 also
# caught FULL's per-step agent exactly-one (k = 10-26 on the fixtures) and
# doubled FULL deepening time, almost all of it on soko_three (k = 24).
LADDER_MIN = 64


class Formula:
    """A CNF formula under construction.

    Variables are dense positive integers starting at 1; literals are signed
    ints in DIMACS convention.
    """

    def __init__(self) -> None:
        self.num_vars = 0
        self.clauses: list[list[int]] = []

    def new_var(self) -> int:
        """Allocate a fresh variable."""
        self.num_vars += 1
        return self.num_vars

    def _check(self, *lit_lists) -> None:
        n = self.num_vars
        for lits in lit_lists:
            for lit in lits:
                if lit == 0 or abs(lit) > n:
                    raise ValueError(f"literal {lit} outside allocated variables")

    def add_clause(self, lits: list[int]) -> None:
        """Append `lits` itself, not a copy, once every literal lies within
        +-1..n: the formula owns the list from then on."""
        n = self.num_vars
        for lit in lits:
            if not 0 < abs(lit) <= n:
                raise ValueError(f"literal {lit} outside allocated variables")
        self.clauses.append(lits)

    # -- gadgets ----------------------------------------------------------
    # Each gadget checks its literals once, then appends its clauses. Every
    # clause of `exactly_one` starts with `guard`, so it binds only while
    # each guard literal is false. Clauses are built by list concatenation, which sizes
    # them exactly; star-unpacking would over-allocate every clause.

    def exactly_one(self, lits: list[int], guard=()) -> None:
        """Exactly-one: one ALO clause, then the at-most-one of
        `at_most_one`; with no literals, the clause `guard` (which must not
        be empty)."""
        if not lits and not guard:
            raise ValueError("exactly_one over an empty literal list")
        self._check(guard, lits)
        head = list(guard)
        self.clauses.append(head + lits)
        self._at_most_one(lits, head)

    def at_most_one(self, lits: list[int]) -> None:
        """At-most-one: k(k-1)/2 binary clauses below LADDER_MIN literals,
        else a Sinz ladder of 3k-4 clauses over k-1 fresh variables."""
        self._check(lits)
        self._at_most_one(lits, [])

    def _at_most_one(self, lits: list[int], head: list[int]) -> None:
        if len(lits) >= LADDER_MIN:
            self._counter(lits, 1, head)
            return
        # each pair of negated literals, in order, as a fresh list
        pairs = map(list, combinations([-lit for lit in lits], 2))
        self.clauses.extend(map(head.__add__, pairs) if head else pairs)

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
        if k >= len(lits):
            return
        self._check(lits)
        if k == 0:
            self.clauses.extend([-lit] for lit in lits)
        else:
            self._counter(lits, k, [])

    def _counter(self, lits: list[int], k: int, head: list[int]) -> None:
        """Sinz's sequential counter (CP 2005): at most k of `lits`, for
        1 <= k < len(lits), each clause prefixed by `head`. reg[i][j] is a
        fresh variable, implied when at least j+1 of lits[0..i]
        are true."""
        n = len(lits)
        base = self.num_vars + 1
        self.num_vars += (n - 1) * k
        reg = [range(base + i * k, base + (i + 1) * k) for i in range(n - 1)]
        out = self.clauses
        out.append(head + [-lits[0], reg[0][0]])
        out.extend(head + [-reg[0][j]] for j in range(1, k))
        for i in range(1, n - 1):
            lit, prev, cur = -lits[i], reg[i - 1], reg[i]
            out.append(head + [lit, cur[0]])
            out.append(head + [-prev[0], cur[0]])
            for j in range(1, k):
                out.append(head + [lit, -prev[j - 1], cur[j]])
                out.append(head + [-prev[j], cur[j]])
            out.append(head + [lit, -prev[k - 1]])
        out.append(head + [-lits[n - 1], -reg[n - 2][k - 1]])

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
        """DIMACS CNF text: the header, then one line per clause, an empty
        clause as " 0".

        Each literal's text comes from one table indexed by the literal
        itself, as in `solvers._CDCL`: "v " at slot v and "-v " at slot
        2n+1-v. So every literal must lie within +-1..n, as `add_clause`
        and the gadgets check: a literal put into `clauses` past that check
        prints as wrong text, and only far out of range raises IndexError."""
        n = self.num_vars
        pos = [f"{v} " for v in range(n + 1)]
        text = pos + ["-" + t for t in reversed(pos[1:])]
        # the clauses' texts, built without a Python step per literal
        lines = list(map("".join, map(map, repeat(text.__getitem__),
                                      self.clauses)))
        if "" in lines:
            lines = [line or " " for line in lines]
        header = f"p cnf {n} {len(lines)}\n"
        lines.append("")
        return header + "0\n".join(lines)
