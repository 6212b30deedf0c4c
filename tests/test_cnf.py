"""CNF construction primitives: variable pool, cardinality, DIMACS."""

import random
from itertools import combinations

import pytest

from snowplan.cnf import LADDER_MIN, Formula
from snowplan.encoder import EncodingConfig, Mode, ReachKind, encode
from snowplan.fixtures import load_fixture
from snowplan.solvers import InProcessSolver, Status

from conftest import brute_force_models, parse_dimacs


def test_dense_allocation_from_one():
    f = Formula()
    assert [f.new_var() for _ in range(3)] == [1, 2, 3]
    assert f.num_vars == 3


def test_add_clause_validates_literals():
    f = Formula()
    f.new_var()
    with pytest.raises(ValueError):
        f.add_clause([0])
    with pytest.raises(ValueError):
        f.add_clause([2])


def test_add_clause_keeps_the_given_list():
    """The formula owns the list it is given: no copy is made."""
    f = Formula()
    f.new_var()
    clause = [1]
    f.add_clause(clause)
    assert f.clauses[0] is clause


@pytest.mark.parametrize("gadget", [
    lambda f, lits, guard: f.at_least_k(lits, 1),
    lambda f, lits, guard: f.at_least_k(lits, 2),
    lambda f, lits, guard: f.exactly_one(lits),
    lambda f, lits, guard: f.exactly_one(lits, guard),
    lambda f, lits, guard: f.exactly_one([], guard),
    lambda f, lits, guard: f.define_or(5, lits),
    lambda f, lits, guard: f.define_and(5, lits),
], ids=["at_least_1", "at_least_2", "exactly_one", "exactly_one_guarded",
        "guard_only", "define_or", "define_and"])
def test_gadgets_keep_no_caller_list(gadget):
    """A gadget hands `add_clause` no list of its caller's, so changing
    the caller's lists after the call leaves the formula as it was."""
    f = Formula()
    for _ in range(5):
        f.new_var()
    lits, guard = [1, -2, 3, 4], [-5]
    gadget(f, lits, guard)
    before = [list(c) for c in f.clauses]
    lits[:] = [5]
    guard[:] = [2, 3]
    assert f.clauses == before


def test_exactly_one_singleton():
    f = Formula()
    x = f.new_var()
    f.exactly_one([x])
    assert f.clauses == [[x]]


def test_exactly_one_pair_shape():
    f = Formula()
    x, y = f.new_var(), f.new_var()
    f.exactly_one([x, y])
    assert f.clauses == [[x, y], [-x, -y]]


def test_exactly_one_clause_count_k4():
    f = Formula()
    lits = [f.new_var() for _ in range(4)]
    f.exactly_one(lits)
    assert len(f.clauses) == 1 + 6  # one ALO plus k(k-1)/2 AMO


def test_exactly_one_empty_rejected():
    with pytest.raises(ValueError):
        Formula().exactly_one([])


def test_gadget_clauses_start_with_guard():
    f = Formula()
    lits = [f.new_var() for _ in range(4)]
    guard = [-f.new_var(), f.new_var()]
    f.exactly_one(lits, guard)
    assert len(f.clauses) == 1 + 6
    assert f.clauses[0] == guard + lits
    assert all(clause[:2] == guard for clause in f.clauses)
    assert sorted(sorted(c[2:]) for c in f.clauses[1:7]) == sorted(
        sorted([-a, -b]) for a, b in combinations(lits, 2))


def test_exactly_one_empty_with_guard_is_guard_clause():
    f = Formula()
    g = f.new_var()
    f.exactly_one([], [-g])
    assert f.clauses == [[-g]]


def test_at_most_one_unguarded_is_pairwise():
    f = Formula()
    lits = [f.new_var() for _ in range(3)]
    f.at_most_one(lits)
    assert f.clauses == [[-a, -b] for a, b in combinations(lits, 2)]
    f.at_most_one(lits[:1])
    f.at_most_one([])
    assert len(f.clauses) == 3


@pytest.mark.parametrize("k", [0, 1, 2, LADDER_MIN - 1])
@pytest.mark.parametrize("guarded", [False, True])
def test_pairwise_at_most_one_is_the_ordered_pair_list(k, guarded):
    """Below LADDER_MIN the at-most-one is [-a, -b] after the guard for
    each pair of literals in order, and every clause is a fresh list that
    neither another clause nor the caller holds."""
    f = Formula()
    guard = [-f.new_var(), f.new_var()] if guarded else []
    lits = [(-1) ** i * f.new_var() for i in range(k)]
    if guarded:
        f.exactly_one(lits, guard)
        assert f.clauses[0] == guard + lits
        pairs = f.clauses[1:]
    else:
        f.at_most_one(lits)
        pairs = f.clauses
    assert pairs == [guard + [-lits[i], -lits[j]]
                     for i in range(k) for j in range(i + 1, k)]
    assert all(type(clause) is list for clause in pairs)
    held = f.clauses + [lits, guard]
    assert len({id(clause) for clause in held}) == len(held)


def test_exactly_one_below_ladder_is_pairwise():
    k = LADDER_MIN - 1
    f = Formula()
    lits = [f.new_var() for _ in range(k)]
    f.exactly_one(lits)
    assert f.num_vars == k
    assert f.clauses == [lits] + [[-a, -b] for a, b in combinations(lits, 2)]


@pytest.mark.parametrize("guard", [(), (-1, 2)])
def test_exactly_one_from_ladder_min_is_a_ladder(guard):
    k = LADDER_MIN
    f = Formula()
    f.new_var()
    f.new_var()
    lits = [f.new_var() for _ in range(k)]
    f.exactly_one(lits, list(guard))
    assert f.num_vars == 2 + k + (k - 1)
    assert len(f.clauses) == 1 + 3 * k - 4
    assert f.clauses[0] == list(guard) + lits
    assert all(clause[:len(guard)] == list(guard) for clause in f.clauses)

    counter = Formula()
    counter.new_var()
    counter.new_var()
    counter.at_most_k([counter.new_var() for _ in range(k)], 1)
    assert [c[len(guard):] for c in f.clauses[1:]] == counter.clauses
    assert counter.num_vars == f.num_vars


@pytest.mark.parametrize("k", [LADDER_MIN, LADDER_MIN + 1])
def test_guarded_ladder_semantics(k):
    """A guard literal g prefixes every clause: with g false exactly one of
    the literals holds; with g true any assignment of them extends."""
    f = Formula()
    g = f.new_var()
    lits = [f.new_var() for _ in range(k)]
    f.exactly_one(lits, [g])
    solver = InProcessSolver()

    def status(true_lits, guard_lit):
        pinned = [lit if lit in true_lits else -lit for lit in lits]
        return solver.solve(f, assumptions=[guard_lit] + pinned).status

    for lit in lits:
        assert status({lit}, -g) is Status.SAT
    assert status(set(), -g) is Status.UNSAT
    for i, j in [(0, 1), (0, k - 1), (k - 2, k - 1), (k // 2, k - 1), (1, k // 2)]:
        assert status({lits[i], lits[j]}, -g) is Status.UNSAT, (i, j)
    assert status(set(lits), g) is Status.SAT


@pytest.mark.parametrize("k", [0, 1, 2, 3])
@pytest.mark.parametrize("gadget,truth", [("define_or", any), ("define_and", all)])
def test_definitions_match_truth_table(gadget, truth, k):
    """Every assignment of y and the k inputs satisfies the clauses iff
    y equals OR (or AND) of the inputs; a negated input counts negated."""
    from itertools import product

    f = Formula()
    y = f.new_var()
    xs = [f.new_var() for _ in range(k)]
    lits = [-x if i % 2 else x for i, x in enumerate(xs)]
    getattr(f, gadget)(y, lits)
    for bits in product([False, True], repeat=k + 1):
        value = dict(zip([y] + xs, bits))

        def holds(lit):
            return value[abs(lit)] == (lit > 0)

        sat = all(any(holds(lit) for lit in clause) for clause in f.clauses)
        assert sat == (holds(y) == truth(holds(lit) for lit in lits)), bits


@pytest.mark.parametrize("call", [
    lambda f: f.exactly_one([1, 2], [-3]),
    lambda f: f.exactly_one([1, 3], [-2]),
    lambda f: f.exactly_one([1, 0]),
    lambda f: f.at_most_one([-3, 1]),
    lambda f: f.define_or(3, [1, 2]),
    lambda f: f.define_or(1, [2, -3]),
    lambda f: f.define_and(-3, [1]),
    lambda f: f.define_and(1, [0, 2]),
])
def test_gadget_rejects_out_of_range_literal(call):
    f = Formula()
    f.new_var()
    f.new_var()
    f.add_clause([1, 2])
    with pytest.raises(ValueError):
        call(f)
    assert f.clauses == [[1, 2]]


def test_at_most_zero_is_unit_negations():
    f = Formula()
    x, y = f.new_var(), f.new_var()
    f.at_most_k([x, y], 0)
    assert sorted(map(tuple, f.clauses)) == [(-y,), (-x,)]


def test_at_most_k_vacuous():
    f = Formula()
    lits = [f.new_var() for _ in range(3)]
    f.at_most_k(lits, 3)
    assert f.clauses == []


def test_at_most_one_of_three_model_count():
    f = Formula()
    lits = [f.new_var() for _ in range(3)]
    f.at_most_k(lits, 1)
    models = brute_force_models(f)
    projected = {tuple(m[abs(x)] for x in lits) for m in models}
    assert projected == {p for p in projected if sum(p) <= 1}
    assert len(projected) == 4


def test_at_least_k_units_and_duals():
    f = Formula()
    x = f.new_var()
    f.at_least_k([x], 1)
    assert f.clauses == [[x]]
    h = Formula()
    lits = [h.new_var() for _ in range(5)]
    h.at_least_k(lits, 1)
    assert h.clauses == [lits] and h.num_vars == 5
    g = Formula()
    lits = [g.new_var() for _ in range(3)]
    g.at_least_k(lits, 3)
    assert sorted(map(tuple, g.clauses)) == [(l,) for l in lits]


def test_at_least_two_of_three_model_count():
    f = Formula()
    lits = [f.new_var() for _ in range(3)]
    f.at_least_k(lits, 2)
    projected = {tuple(m[abs(x)] for x in lits) for m in brute_force_models(f)}
    assert len(projected) == 4
    assert all(sum(p) >= 2 for p in projected)


@pytest.mark.parametrize("n,k", [(n, k) for n in range(1, 7) for k in range(n + 1)])
def test_cardinality_matches_brute_force(n, k):
    """An assignment extends to a model of at_most_k iff it has <= k true.

    The auxiliary counter variables are quantified away by solving with the
    base assignment pinned as unit clauses.
    """
    from itertools import product

    solver = InProcessSolver()
    for bits in product([False, True], repeat=n):
        f = Formula()
        lits = [f.new_var() for _ in range(n)]
        f.at_most_k(lits, k)
        for lit, bit in zip(lits, bits):
            f.add_clause([lit if bit else -lit])
        sat = solver.solve(f).status is Status.SAT
        assert sat == (sum(bits) <= k), (bits, k)


def test_negative_bounds_rejected():
    f = Formula()
    x = f.new_var()
    with pytest.raises(ValueError):
        f.at_most_k([x], -1)
    with pytest.raises(ValueError):
        f.at_least_k([x], -1)
    with pytest.raises(ValueError):
        f.at_least_k([x], 2)


def test_dimacs_format():
    f = Formula()
    f.new_var()
    f.new_var()
    f.add_clause([1, -2])
    assert f.to_dimacs() == "p cnf 2 1\n1 -2 0\n"


def test_dimacs_empty():
    assert Formula().to_dimacs() == "p cnf 0 0\n"
    f = Formula()
    f.add_clause([])
    assert f.to_dimacs() == "p cnf 0 1\n 0\n"


def _reference_dimacs(formula: Formula) -> str:
    """The writer in its plain form: every literal's str, one at a time."""
    lines = [f"p cnf {formula.num_vars} {len(formula.clauses)}"]
    lines += [" ".join(str(lit) for lit in clause) + " 0"
              for clause in formula.clauses]
    return "\n".join(lines) + "\n"


def _random_formula(rng: random.Random, n: int, m: int,
                    empty_at=()) -> Formula:
    """n variables and m clauses of width 0-5 whose literals lie in
    +-1..n, +-1 and +-n often among them; the clauses at `empty_at` are
    empty, and every clause is empty when n is 0."""
    f = Formula()
    for _ in range(n):
        f.new_var()
    for i in range(m):
        width = 0 if i in empty_at or not n else rng.choice([0, 1, 1, 2, 3, 5])
        f.add_clause([rng.choice([-1, 1]) * rng.choice([1, n, rng.randint(1, n)])
                      for _ in range(width)])
    return f


def _random_formulas():
    """Formulas with no variables, no clauses, and empty clauses first,
    in the middle and last, next to random ones of every width."""
    rng = random.Random(7)
    yield Formula()
    yield _random_formula(rng, 0, 3)
    yield _random_formula(rng, 5, 0)
    for _ in range(60):
        n = rng.choice([1, 2, 9, 10, 99, 1000, 12345])
        m = rng.randint(1, 20)
        ends = [0, m // 2, m - 1]
        yield _random_formula(rng, n, m, rng.sample(ends, rng.randint(0, 3)))


def test_dimacs_matches_the_reference_writer():
    for f in _random_formulas():
        assert f.to_dimacs() == _reference_dimacs(f)


def test_dimacs_round_trip():
    """Every clause comes back in order, empty ones included."""
    for f in _random_formulas():
        assert parse_dimacs(f.to_dimacs()) == (f.num_vars, f.clauses)


def test_dimacs_round_trip_of_a_fixture_encoding():
    """A COLLAPSED encoding with ladders comes back clause for clause."""
    level = load_fixture("snow_tiny1").level
    f = encode(level, EncodingConfig(Mode.COLLAPSED, 2, ReachKind.PATH)).formula
    lits = [lit for clause in f.clauses for lit in clause]
    assert min(lits) < 0 and max(map(abs, lits)) == f.num_vars
    assert parse_dimacs(f.to_dimacs()) == (f.num_vars, f.clauses)


def test_pigeonhole_unsat():
    """Four pigeons into three holes via exactly_one/at_most_k."""
    f = Formula()
    cell = {(p, h): f.new_var() for p in range(4) for h in range(3)}
    for p in range(4):
        f.exactly_one([cell[p, h] for h in range(3)])
    for h in range(3):
        f.at_most_k([cell[p, h] for p in range(4)], 1)
    assert InProcessSolver().solve(f).status is Status.UNSAT
