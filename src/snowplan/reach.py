"""Graph reachability CNF encodings: DAG, path, and spanning tree.

Graphs are undirected. All three encoders append to a caller-owned Formula
and return a dict mapping each vertex to its reach literal. Cells can be
disabled dynamically through a Gate of per-vertex "free" literals; the source
is always constrained to be free. Sources (and the path encoding's target)
are maps vertex -> indicator literal, as inside planning encodings where the
agent position is itself a variable; a fixed vertex v is accepted too, and
becomes {v: lit} with a fresh literal lit fixed true.

DAG justifies each reached vertex by an acyclic choice of incoming arcs, so
every model's reach set lies inside the reachable set. TREE is DAG plus its
exactness clauses, which make the reach set equal the reachable set. Both
forbid cycles with one vertex-elimination gadget (Rankooh & Rintanen, AAAI
2022): order variables exist only on the edges of a chordal completion of
the graph, and transitivity is stated only on its triangles. Their size is
at most the number of vertices times d^2, d the most later neighbours any
vertex has at its elimination (1-4 on the fixtures, 7 on a 60-cell room),
where the all-pairs order was quadratic in the vertices.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

from .cnf import Formula

# Endpoint: a fixed vertex, or a map from vertex to indicator literal.
Endpoint = int | dict[int, int]
# Gate: None (always free) or vertex -> "free" literal.
Gate = dict[int, int] | None


@dataclass(frozen=True)
class Graph:
    num_vertices: int
    edges: tuple[tuple[int, int], ...]
    cell_of: tuple[tuple[int, int], ...] | None = None  # vertex -> (row, col)

    def __post_init__(self):
        for u, v in self.edges:
            if u == v:
                raise ValueError(f"self-loop on vertex {u}")
            if not (0 <= u < self.num_vertices and 0 <= v < self.num_vertices):
                raise ValueError(f"edge ({u},{v}) references invalid vertex")

    @cached_property
    def neighbors(self) -> tuple[tuple[int, ...], ...]:
        """Neighbours of each vertex, deduplicated and sorted."""
        out: list[set[int]] = [set() for _ in range(self.num_vertices)]
        for u, v in self.edges:
            out[u].add(v)
            out[v].add(u)
        return tuple(tuple(sorted(s)) for s in out)

    @cached_property
    def elimination(self) -> tuple[tuple[int, tuple[int, ...]], ...]:
        """Min-degree elimination order, each vertex with its later neighbours.

        Eliminating a vertex joins its remaining neighbours pairwise (fill
        edges) and removes it. The pairs (v, u), u a later neighbour of v,
        are the edges of a chordal completion of the graph, each listed once,
        and the later neighbours of every v form a clique in it. Ties break
        toward the lower vertex index, so the order never varies.
        """
        adj = [set(nb) for nb in self.neighbors]
        remaining = set(range(self.num_vertices))
        order = []
        while remaining:
            v = min(remaining, key=lambda x: (len(adj[x]), x))
            later = tuple(sorted(adj[v]))
            for a, b in combinations(later, 2):
                adj[a].add(b)
                adj[b].add(a)
            for u in later:
                adj[u].discard(v)
            remaining.discard(v)
            order.append((v, later))
        return tuple(order)


def grid_graph(open_cells) -> Graph:
    """Undirected grid graph over the given open (row, col) cells."""
    cells = sorted(set(open_cells))
    index = {c: i for i, c in enumerate(cells)}
    edges = []
    for (r, c), i in index.items():
        for nb in ((r + 1, c), (r, c + 1)):
            j = index.get(nb)
            if j is not None:
                edges.append((i, j))
    return Graph(len(cells), tuple(edges), cell_of=tuple(cells))


def bfs_reachable(graph: Graph, source: int, free: set[int] | None = None) -> set[int]:
    """Exact set of vertices reachable from source through free vertices."""
    if free is not None and source not in free:
        raise ValueError("source vertex is not free")
    nbs = graph.neighbors
    seen = {source}
    queue = deque([source])
    while queue:
        v = queue.popleft()
        for w in nbs[v]:
            if w not in seen and (free is None or w in free):
                seen.add(w)
                queue.append(w)
    return seen


def _endpoint_lits(formula: Formula, end: Endpoint, num_vertices: int) -> dict[int, int]:
    """An endpoint as vertex -> indicator literal. A fixed vertex gets a
    fresh literal fixed true; callers allocate it after their own variables,
    so a map endpoint adds nothing."""
    if not isinstance(end, int):
        return end
    if not 0 <= end < num_vertices:
        raise ValueError(f"endpoint vertex {end} out of range")
    lit = formula.new_var()
    formula.add_clause([lit])
    return {end: lit}


def _assert_endpoint_free(formula: Formula, ends: dict[int, int], gate: Gate) -> None:
    if gate is None:
        return
    for v, ind in ends.items():
        formula.add_clause([-ind, gate[v]])


def _arcs(graph: Graph) -> list[tuple[int, int]]:
    """Each edge in both directions, deduplicated and sorted."""
    return [(u, v) for u, nb in enumerate(graph.neighbors) for v in nb]


def _acyclic(formula: Formula, graph: Graph,
             arc_lits: dict[tuple[int, int], int]) -> None:
    """Forbid every directed cycle among the arcs whose literal is true.

    Vertex elimination: a strict order `ord` on the edges of the graph's
    chordal completion, with `ord[u,v] -> not ord[v,u]`, `arc -> ord`, and,
    when v is eliminated, `ord[u,v] & ord[v,w] -> ord[u,w]` for each ordered
    pair (u, w) of its later neighbours. Each chordal edge costs two
    variables and one clause, each eliminated vertex with d later neighbours
    d(d-1) clauses.

    Sound: a cycle of true arcs is a cycle of true `ord` pairs. Let v be its
    first-eliminated vertex, u -> v -> w. Then u and w are later neighbours
    of v, so (u, w) is a chordal edge and transitivity sets `ord[u,w]`: the
    shortcut u -> w is a shorter cycle of true `ord` pairs. Shortcutting
    down to length two contradicts `ord[u,w] -> not ord[w,u]`. Complete: if
    the true arcs are acyclic, `ord` set from one topological order of all
    vertices satisfies every clause.
    """
    ordv: dict[tuple[int, int], int] = {}
    for v, later in graph.elimination:
        for u in later:
            ordv[v, u] = formula.new_var()
            ordv[u, v] = formula.new_var()
            formula.add_clause([-ordv[v, u], -ordv[u, v]])
    for arc, lit in arc_lits.items():
        formula.add_clause([-lit, ordv[arc]])
    for v, later in graph.elimination:
        for u in later:
            into = -ordv[u, v]
            for w in later:
                if w != u:
                    formula.add_clause([into, -ordv[v, w], ordv[u, w]])


def _justified(formula: Formula, graph: Graph, source: Endpoint,
               gate: Gate) -> tuple[dict, dict, dict]:
    """The clauses DAG and TREE share: reach literals justified by an
    acyclic choice of arcs. Returns the reach literals, the arc literals
    and the source map.

    Each edge gives two arcs, one per direction. The source is reached and
    free. Every reached non-source vertex is free and selects an incoming
    arc, whose tail is reached and whose head is free, and `_acyclic`
    forbids a cycle of selected arcs. So following selected arcs backwards
    from any reached vertex ends at the source through free cells.
    """
    n = graph.num_vertices
    r = {v: formula.new_var() for v in range(n)}
    arcs = {arc: formula.new_var() for arc in _arcs(graph)}
    src = _endpoint_lits(formula, source, n)

    _assert_endpoint_free(formula, src, gate)
    for v in range(n):
        ind = src.get(v)
        if ind:
            formula.add_clause([-ind, r[v]])
        incoming = [arcs[u, v] for u in graph.neighbors[v]]
        formula.add_clause([-r[v]] + incoming + ([ind] if ind else []))
        if gate is not None:
            formula.add_clause([-r[v], gate[v]])

    for (u, v), lit in arcs.items():
        formula.add_clause([-lit, r[u]])
        if gate is not None:
            formula.add_clause([-lit, gate[v]])
    _acyclic(formula, graph, arcs)
    return r, arcs, src


def encode_dag(formula: Formula, graph: Graph, source: Endpoint,
               gate: Gate = None) -> dict[int, int]:
    """Acyclic-justification reachability: the reach literals of `_justified`.

    Sound for st-queries: with a unit r[t] asserted, the formula is SAT iff t
    is reachable from the source through free cells; in every model the
    true-r set is a subset of the reachable set.
    """
    return _justified(formula, graph, source, gate)[0]


def _at_least_two(formula: Formula, guard: list[int], lits: list[int]) -> None:
    if len(lits) < 2:
        formula.add_clause(list(guard))
        return
    for omit in range(len(lits)):
        formula.add_clause(guard + lits[:omit] + lits[omit + 1:])


def _at_most_two(formula: Formula, guard: list[int], lits: list[int]) -> None:
    for trip in combinations(lits, 3):
        formula.add_clause(guard + [-a for a in trip])


def encode_path(formula: Formula, graph: Graph, source: Endpoint, target: Endpoint,
                gate: Gate = None) -> dict[int, int]:
    """Path-membership encoding: endpoints degree one, interior degree two.

    SAT iff the target is reachable from the source through free cells.
    Models may additionally contain cycles disconnected from the path.
    """
    n = graph.num_vertices
    nbs = graph.neighbors

    p = {v: formula.new_var() for v in range(n)}
    src = _endpoint_lits(formula, source, n)
    tgt = _endpoint_lits(formula, target, n)
    _assert_endpoint_free(formula, src, gate)
    _assert_endpoint_free(formula, tgt, gate)

    for ends in (src, tgt):
        for v, ind in ends.items():
            formula.add_clause([-ind, p[v]])

    for v in range(n):
        if gate is not None:
            formula.add_clause([-p[v], gate[v]])
        s_ind, t_ind = src.get(v), tgt.get(v)
        pn = [p[w] for w in nbs[v]]
        # degree one at one endpoint, two inside the path, and free at a
        # vertex that is both source and target
        if s_ind:
            formula.exactly_one(pn, [-p[v], -s_ind] + ([t_ind] if t_ind else []))
        if t_ind:
            formula.exactly_one(pn, [-p[v], -t_ind] + ([s_ind] if s_ind else []))
        interior = [-p[v]] + [ind for ind in (s_ind, t_ind) if ind]
        _at_least_two(formula, interior, pn)
        _at_most_two(formula, interior, pn)

    return p


def encode_spanning_tree(formula: Formula, graph: Graph, source: Endpoint,
                         gate: Gate = None) -> dict[int, int]:
    """Spanning-tree reachability: DAG plus exactness clauses.

    Each model's true-r set equals the source's connected component within
    the free cells. The `_justified` arcs, read as tree[u,v] (u is the
    parent of v), form a tree rooted at the source, and these clauses make
    it span the component: reachability propagates across free edges, the
    source parents each free neighbour, each vertex has at most one parent
    and the source has none, and a parent arc's child is reached.
    """
    r, tree, src = _justified(formula, graph, source, gate)
    for (u, v), t in tree.items():
        gated = [] if gate is None else [-gate[v]]
        formula.add_clause([-r[u]] + gated + [r[v]])
        ind = src.get(u)
        if ind:
            formula.add_clause([-ind] + gated + [t])
        formula.add_clause([-t, r[v]])
    for v, nb in enumerate(graph.neighbors):
        parents = [tree[u, v] for u in nb]
        formula.at_most_one(parents)
        ind = src.get(v)
        if ind:
            for t in parents:
                formula.add_clause([-ind, -t])
    return r
