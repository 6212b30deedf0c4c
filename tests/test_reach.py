"""Reachability encodings: soundness, exactness, equivalence, size bounds."""

import random
from itertools import combinations, product

import pytest

from snowplan.cnf import Formula
from snowplan.reach import (Graph, _acyclic, _arcs, _justified, bfs_reachable,
                            encode_dag, encode_path, encode_spanning_tree,
                            grid_graph)
from snowplan.solvers import InProcessSolver, Status

SOLVER = InProcessSolver()


def _sat(formula):
    return SOLVER.solve(formula).status is Status.SAT


def _solve(formula):
    return SOLVER.solve(formula)


def _arc_lits(graph, source):
    """The arc literals of `_justified` on a fresh formula. DAG and TREE
    begin with that call, so on a fresh formula of their own they allocate
    the same literals."""
    return _justified(Formula(), graph, source, None)[1]


# -- DAG ----------------------------------------------------------------


def test_dag_isolated_vertices_unsat():
    g = Graph(2, ())
    f = Formula()
    reach = encode_dag(f, g, 0)
    f.add_clause([reach[1]])
    assert not _sat(f)


def test_dag_path_graph_model():
    g = Graph(3, ((0, 1), (1, 2)))
    f = Formula()
    reach = encode_dag(f, g, 0)
    f.add_clause([reach[2]])
    out = _solve(f)
    assert out.status is Status.SAT
    assert out.model[reach[0]] and out.model[reach[1]]
    arcs = _arc_lits(g, 0)
    assert out.model[arcs[0, 1]] and out.model[arcs[1, 2]]


def test_dag_disconnected_cycle_unsat():
    """A component without the source cannot justify itself."""
    g = Graph(3, ((1, 2),))
    f = Formula()
    reach = encode_dag(f, g, 0)
    f.add_clause([reach[1]])
    assert not _sat(f)


def test_dag_model_reach_subset_of_bfs():
    rng = random.Random(3)
    for _ in range(30):
        n = rng.randint(2, 6)
        edges = tuple({(rng.randrange(n), rng.randrange(n))
                       for _ in range(rng.randint(1, 2 * n))} -
                      {(v, v) for v in range(n)})
        g = Graph(n, edges)
        reachable = bfs_reachable(g, 0)
        for target in range(n):
            f = Formula()
            reach = encode_dag(f, g, 0)
            f.add_clause([reach[target]])
            out = _solve(f)
            assert (out.status is Status.SAT) == (target in reachable)
            if out.status is Status.SAT:
                assert {v for v in range(n) if out.model[reach[v]]} <= reachable


# -- acyclicity gadget --------------------------------------------------


def _has_cycle(n, arcs):
    """Depth-first search for a directed cycle."""
    out = {v: [] for v in range(n)}
    for u, v in arcs:
        out[u].append(v)
    state = [0] * n  # 0 unvisited, 1 on the stack, 2 done

    def visit(v):
        state[v] = 1
        for w in out[v]:
            if state[w] == 1 or (state[w] == 0 and visit(w)):
                return True
        state[v] = 2
        return False

    return any(state[v] == 0 and visit(v) for v in range(n))


def _acyclic_formula(g):
    f = Formula()
    lits = {(u, v): f.new_var() for u, v in _arcs(g)}
    _acyclic(f, g, lits)
    return f, lits


def _arc_subsets(g, rng, samples):
    """Every arc subset of a graph with at most 12 arcs, else a seeded
    sample: half uniform at density p, half acyclic (forward arcs of a
    random vertex ranking) plus at most one backward arc."""
    arcs = _arcs(g)
    if len(arcs) <= 12:
        for mask in range(1 << len(arcs)):
            yield [a for i, a in enumerate(arcs) if mask >> i & 1]
        return
    for _ in range(samples):
        if rng.random() < 0.5:
            p = rng.random()
            yield [a for a in arcs if rng.random() < p]
            continue
        rank = list(range(g.num_vertices))
        rng.shuffle(rank)
        forward = [a for a in arcs if rank[a[0]] < rank[a[1]] and rng.random() < 0.8]
        backward = [a for a in arcs if rank[a[0]] > rank[a[1]]]
        yield forward + rng.sample(backward, min(len(backward), rng.randint(0, 1)))


def _first_disagreement(g, f, lits, rng, samples=300):
    """The first arc subset where forcing its arcs true is SAT although DFS
    finds a cycle, or UNSAT although it finds none; None if all agree."""
    for subset in _arc_subsets(g, rng, samples):
        out = SOLVER.solve(f, assumptions=[lits[a] for a in subset])
        if (out.status is Status.SAT) == _has_cycle(g.num_vertices, subset):
            return subset
    return None


C6 = Graph(6, tuple((i, (i + 1) % 6) for i in range(6)))
K4 = Graph(4, tuple(combinations(range(4), 2)))
WHEEL = Graph(6, tuple((0, i) for i in range(1, 6))
              + tuple((i, i % 5 + 1) for i in range(1, 6)))
GRID3 = grid_graph([(r, c) for r in range(3) for c in range(3)])


@pytest.mark.parametrize("g", [C6, GRID3, K4, WHEEL], ids=["c6", "grid3", "k4", "wheel"])
def test_acyclic_gadget_sat_iff_no_cycle(g):
    f, lits = _acyclic_formula(g)
    assert _first_disagreement(g, f, lits, random.Random(7)) is None


def test_acyclic_gadget_fill_edges():
    """Min-degree elimination fills these graphs, except the complete K4."""
    for g in (C6, GRID3, WHEEL):
        assert sum(len(later) for _, later in g.elimination) > len(g.edges)
    assert sum(len(later) for _, later in K4.elimination) == len(K4.edges)
    # ties break by vertex index: C6 eliminates 0 first and joins 1 to 5
    assert C6.elimination[0] == (0, (1, 5))


def test_acyclic_gadget_random_graphs():
    rng = random.Random(17)
    for _ in range(30):
        n = rng.randint(2, 6)
        edges = tuple({tuple(sorted(rng.sample(range(n), 2)))
                       for _ in range(rng.randint(1, 2 * n))})
        g = Graph(n, edges)
        f, lits = _acyclic_formula(g)
        assert _first_disagreement(g, f, lits, rng, samples=100) is None, edges


def test_acyclic_gadget_needs_every_triangle_clause():
    """Deleting any one transitivity clause from a copy of the C6 formula
    lets some directed cycle through, and the check above catches it."""
    f, lits = _acyclic_formula(C6)
    triangles = [i for i, clause in enumerate(f.clauses) if len(clause) == 3]
    assert len(triangles) == 8
    for drop in triangles:
        mutant = Formula()
        mutant.num_vars = f.num_vars
        mutant.clauses = [c for i, c in enumerate(f.clauses) if i != drop]
        subset = _first_disagreement(C6, mutant, lits, random.Random(7))
        assert subset is not None and _has_cycle(6, subset), drop


# -- path ---------------------------------------------------------------


def test_path_source_equals_target():
    g = grid_graph([(0, 0), (0, 1), (0, 2)])
    f = Formula()
    encode_path(f, g, 0, 0)
    assert _sat(f)


def test_path_corridor_unique_assignment():
    g = grid_graph([(0, 0), (0, 1), (0, 2)])
    f = Formula()
    reach = encode_path(f, g, 0, 2)
    out = _solve(f)
    assert out.status is Status.SAT
    assert all(out.model[reach[v]] for v in range(3))


def test_path_gated_column_unsat():
    cells = [(r, c) for r in range(3) for c in range(3)]
    g = grid_graph(cells)
    f = Formula()
    gate = {}
    middle = {i for i, (r, c) in enumerate(g.cell_of) if c == 1}
    for v in range(g.num_vertices):
        lit = f.new_var()
        f.add_clause([-lit] if v in middle else [lit])
        gate[v] = lit
    src = next(i for i, cell in enumerate(g.cell_of) if cell == (1, 0))
    tgt = next(i for i, cell in enumerate(g.cell_of) if cell == (1, 2))
    encode_path(f, g, src, tgt, gate)
    assert not _sat(f)


@pytest.mark.parametrize("g", [C6, K4, WHEEL], ids=["c6", "k4", "wheel"])
def test_path_agrees_with_bfs_off_the_grid(g):
    """PATH reads only the neighbour lists, so it is exact on any simple
    graph: SAT iff the target is reachable through the free vertices, for
    every source, target and free set holding the source."""
    n = g.num_vertices
    for source, target in product(range(n), repeat=2):
        f = Formula()
        gate = {v: f.new_var() for v in range(n)}
        encode_path(f, g, source, target, gate)
        for mask in range(1 << n):
            free = {v for v in range(n) if mask >> v & 1}
            if source not in free:
                continue
            out = SOLVER.solve(f, assumptions=[gate[v] if v in free else -gate[v]
                                               for v in range(n)])
            assert ((out.status is Status.SAT)
                    == (target in bfs_reachable(g, source, free))), (source, target, free)


# -- spanning tree ------------------------------------------------------


def test_tree_single_vertex():
    g = Graph(1, ())
    f = Formula()
    reach = encode_spanning_tree(f, g, 0)
    out = _solve(f)
    assert out.status is Status.SAT
    assert out.model[reach[0]]


def test_tree_path_graph_every_model_full():
    g = Graph(3, ((0, 1), (1, 2)))
    f = Formula()
    encode_spanning_tree(f, g, 0)
    # no model may mark any vertex unreachable
    for v in range(3):
        probe = Formula()
        reach = encode_spanning_tree(probe, g, 0)
        probe.add_clause([-reach[v]])
        assert not _sat(probe)
    out = _solve(f)
    tree = _arc_lits(g, 0)
    assert out.model[tree[0, 1]] and out.model[tree[1, 2]]


def test_tree_two_components_never_reach():
    g = Graph(4, ((0, 1), (2, 3)))
    f = Formula()
    reach = encode_spanning_tree(f, g, 0)
    for v in (2, 3):
        f.add_clause([reach[v]])
    assert not _sat(f)


def _random_gated_instance(rng):
    rows, cols = rng.randint(2, 3), rng.randint(2, 4)
    cells = [(r, c) for r in range(rows) for c in range(cols)]
    keep = [c for c in cells if rng.random() < 0.85] or cells[:1]
    g = grid_graph(keep)
    free = {v for v in range(g.num_vertices) if rng.random() < 0.75}
    source = rng.randrange(g.num_vertices)
    free.add(source)
    return g, source, free


def _const_gate(f, free, n):
    gate = {}
    for v in range(n):
        lit = f.new_var()
        f.add_clause([lit] if v in free else [-lit])
        gate[v] = lit
    return gate


def test_tree_exactness_random_gated_graphs():
    """Forced reach flags of the spanning-tree encoding equal BFS exactly."""
    rng = random.Random(11)
    for _ in range(200):
        g, source, free = _random_gated_instance(rng)
        reachable = bfs_reachable(g, source, free)
        base = Formula()
        encode_spanning_tree(base, g, source, _const_gate(base, free, g.num_vertices))
        assert _sat(base)
        for v in range(g.num_vertices):
            probe = Formula()
            reach = encode_spanning_tree(
                probe, g, source, _const_gate(probe, free, g.num_vertices))
            want = v in reachable
            probe.add_clause([-reach[v]] if want else [reach[v]])
            assert not _sat(probe), (g, source, free, v)


def test_dag_and_path_agree_with_bfs_random():
    rng = random.Random(13)
    for _ in range(60):
        g, source, free = _random_gated_instance(rng)
        reachable = bfs_reachable(g, source, free)
        for target in range(g.num_vertices):
            fd = Formula()
            reach = encode_dag(fd, g, source, _const_gate(fd, free, g.num_vertices))
            fd.add_clause([reach[target]])
            assert _sat(fd) == (target in reachable)
            fp = Formula()
            encode_path(fp, g, source, target,
                        _const_gate(fp, free, g.num_vertices))
            assert _sat(fp) == (target in reachable)


def test_bfs_oracle_basics():
    g = grid_graph([(0, 0), (0, 1), (0, 2)])
    assert bfs_reachable(g, 0) == {0, 1, 2}
    assert bfs_reachable(Graph(1, ()), 0) == {0}
    with pytest.raises(ValueError):
        bfs_reachable(g, 0, free={1, 2})


# -- size bounds --------------------------------------------------------


def _counts(encoder, size):
    cells = [(r, c) for r in range(size) for c in range(size)]
    g = grid_graph(cells)
    f = Formula()
    if encoder is encode_path:
        encoder(f, g, 0, g.num_vertices - 1)
    else:
        encoder(f, g, 0)
    return g, f.num_vars, len(f.clauses)


@pytest.mark.parametrize("encoder", [encode_dag, encode_spanning_tree])
def test_quadratic_family_size_bounds(encoder):
    """Vars O(N^2) and clauses O(N*M) with a bounded constant across sizes."""
    ratios_v, ratios_c = [], []
    for size in range(2, 9):
        g, nvars, nclauses = _counts(encoder, size)
        n, m = g.num_vertices, len(g.edges)
        ratios_v.append(nvars / (n * n))
        ratios_c.append(nclauses / (n * m))
    assert max(ratios_v) <= 2.0
    assert max(ratios_c) <= 10.0
    # the ratio is flat, not growing: the largest grid is no worse than 2x
    # the smallest
    assert ratios_c[-1] <= 2 * ratios_c[0]
    assert ratios_v[-1] <= 2 * ratios_v[0]


ROOM = grid_graph([(r, c) for r in range(7) for c in range(9)
                   if (r, c) not in {(2, 2), (2, 6), (4, 4)}])


def _ord_count(graph):
    """Two `ord` variables per chordal-completion edge."""
    return 2 * sum(len(later) for _, later in graph.elimination)


@pytest.mark.parametrize("encoder", [encode_dag, encode_spanning_tree])
def test_dag_tree_linear_size_bound(encoder):
    """`ord` variables and clauses per call stay under a flat constant times
    n on the 7x9 three-pillar room and on k x k grids, k = 4..12.

    The ratios still rise slowly with k: a k x k grid has treewidth k, so
    every elimination order leaves cliques of about k vertices. An
    all-pairs order has n - 1 `ord` variables per vertex (143 at k = 12)
    and breaks the bound from k = 4.
    """
    graphs = [ROOM] + [grid_graph([(r, c) for r in range(k) for c in range(k)])
                       for k in range(4, 13)]
    for g in graphs:
        n = g.num_vertices
        f = Formula()
        encoder(f, g, 0)
        ords = _ord_count(g)
        # reach literals, arc literals, the source literal, then `ord`
        assert f.num_vars == n + len(_arcs(g)) + 1 + ords
        assert ords <= 13 * n, (n, ords)
        assert len(f.clauses) <= 72 * n, (n, len(f.clauses))
    assert _ord_count(ROOM) == 430


def test_path_linear_size_bound():
    ratios_v, ratios_c = [], []
    for size in range(2, 9):
        g, nvars, nclauses = _counts(encode_path, size)
        n = g.num_vertices
        ratios_v.append(nvars / n)
        ratios_c.append(nclauses / n)
    assert max(ratios_v) <= 2.0
    assert max(ratios_c) <= 10.0
    # the per-vertex clause ratio converges (small grids are all boundary
    # cells with fewer neighbours, so the ratio rises then flattens)
    increments = [b - a for a, b in zip(ratios_c, ratios_c[1:])]
    assert increments[-1] < increments[0]
    assert increments[-1] < 0.3
