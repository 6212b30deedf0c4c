"""Graph reachability CNF encodings: DAG, grid path, and spanning tree.

Graphs are undirected. All three encoders append to a caller-owned Formula
and return a dict mapping each vertex to its reach literal. Cells can be
disabled dynamically through a Gate of per-vertex "free" literals; the source
is always constrained to be free. Sources (and the path encoding's target)
may be a fixed vertex or a map vertex -> indicator literal, for use inside
planning encodings where the agent position is itself a variable.

Registry naming: "r[v{tag}]", "edge[u,v{tag}]", "ord[u,v{tag}]",
"tree[u,v{tag}]", "path[v{tag}]" where tag carries e.g. the timestep.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
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

    @property
    def is_grid(self) -> bool:
        return self.cell_of is not None

    def neighbors(self) -> list[list[int]]:
        """Neighbours of each vertex, deduplicated and sorted."""
        out: list[set[int]] = [set() for _ in range(self.num_vertices)]
        for u, v in self.edges:
            out[u].add(v)
            out[v].add(u)
        return [sorted(s) for s in out]


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
    nbs = graph.neighbors()
    seen = {source}
    queue = deque([source])
    while queue:
        v = queue.popleft()
        for w in nbs[v]:
            if w not in seen and (free is None or w in free):
                seen.add(w)
                queue.append(w)
    return seen


def _source_lits(source: Endpoint, num_vertices: int) -> dict[int, int | None]:
    """Normalize an endpoint: vertex -> literal, True for a fixed vertex."""
    if isinstance(source, int):
        if not 0 <= source < num_vertices:
            raise ValueError(f"endpoint vertex {source} out of range")
        return {source: None}  # None marks "constant true"
    return dict(source)


def _assert_endpoint_free(formula: Formula, ends: dict[int, int | None], gate: Gate) -> None:
    if gate is None:
        return
    for v, ind in ends.items():
        if ind is None:
            formula.add_clause([gate[v]])
        else:
            formula.add_clause([-ind, gate[v]])


def encode_dag(formula: Formula, graph: Graph, source: Endpoint,
               gate: Gate = None, tag: str = "") -> dict[int, int]:
    """Acyclic-justification reachability (edge selection + strict partial order).

    Sound for st-queries: with a unit r[t] asserted, the formula is SAT iff t
    is reachable from the source through free cells; in every model the
    true-r set is a subset of the reachable set. Each edge gives two arcs,
    one per direction, each with its own edge variable.
    """
    n = graph.num_vertices
    arcs = sorted(set(graph.edges) | {(v, u) for u, v in graph.edges})
    src = _source_lits(source, n)

    r = {v: formula.new_var(f"r[{v}{tag}]") for v in range(n)}
    e = {(u, v): formula.new_var(f"edge[{u},{v}{tag}]") for u, v in arcs}
    ordv = {(u, v): formula.new_var(f"ord[{u},{v}{tag}]")
            for u in range(n) for v in range(n) if u != v}

    _assert_endpoint_free(formula, src, gate)
    incoming: dict[int, list[int]] = {v: [] for v in range(n)}
    for u, v in arcs:
        incoming[v].append(e[(u, v)])

    for v in range(n):
        ind = src.get(v, False)
        if ind is None:
            formula.add_clause([r[v]])
        elif ind:
            formula.add_clause([-ind, r[v]])
        # justification: r_v -> some selected incoming edge (or being source)
        clause = [-r[v]] + incoming[v]
        if ind is None:
            clause = None  # source needs no justification
        elif ind:
            clause = clause + [ind]
        if clause is not None:
            formula.add_clause(clause)
        if gate is not None:
            formula.add_clause([-r[v], gate[v]])

    for u, v in arcs:
        formula.add_clause([-e[(u, v)], r[u]])
        formula.add_clause([-e[(u, v)], ordv[(u, v)]])
        formula.add_clause([-e[(u, v)], -ordv[(v, u)]])
        if gate is not None:
            formula.add_clause([-e[(u, v)], gate[v]])
        for w in range(n):
            if w != u and w != v:
                formula.add_clause([-e[(u, v)], -ordv[(v, w)], ordv[(u, w)]])

    return r


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
                gate: Gate = None, tag: str = "") -> dict[int, int]:
    """Grid path-membership encoding: endpoints degree one, interior degree two.

    SAT iff the target is reachable from the source through free cells.
    Models may additionally contain cycles disconnected from the path.
    """
    if not graph.is_grid:
        raise ValueError("path encoding requires grid metadata")
    n = graph.num_vertices
    nbs = graph.neighbors()
    src = _source_lits(source, n)
    tgt = _source_lits(target, n)

    p = {v: formula.new_var(f"path[{v}{tag}]") for v in range(n)}
    _assert_endpoint_free(formula, src, gate)
    _assert_endpoint_free(formula, tgt, gate)

    for ends in (src, tgt):
        for v, ind in ends.items():
            if ind is None:
                formula.add_clause([p[v]])
            else:
                formula.add_clause([-ind, p[v]])

    for v in range(n):
        if gate is not None:
            formula.add_clause([-p[v], gate[v]])
        s_ind = src.get(v, False)
        t_ind = tgt.get(v, False)
        pn = [p[w] for w in nbs[v]]
        if s_ind is None and t_ind is None:
            continue  # fixed source == target: no degree constraint
        if s_ind is None or t_ind is None:
            # fixed endpoint (and the other endpoint is not fixed here)
            other = t_ind if s_ind is None else s_ind
            guard = [-p[v]] + ([other] if other else [])
            formula.exactly_one(pn, guard)
            continue
        guards_interior = [-p[v]]
        if s_ind:
            guards_interior.append(s_ind)
        if t_ind:
            guards_interior.append(t_ind)
        if s_ind:
            formula.exactly_one(pn, [-p[v], -s_ind] + ([t_ind] if t_ind else []))
        if t_ind:
            formula.exactly_one(pn, [-p[v], -t_ind] + ([s_ind] if s_ind else []))
        _at_least_two(formula, guards_interior, pn)
        _at_most_two(formula, guards_interior, pn)

    return p


def encode_spanning_tree(formula: Formula, graph: Graph, source: Endpoint,
                         gate: Gate = None, tag: str = "") -> dict[int, int]:
    """Spanning-tree reachability: exact in every model.

    Each model's true-r set equals the source's connected component within
    the free cells: a tree of parent edges rooted at the source covers every
    reachable vertex, and unreachability propagates into disconnected areas.
    """
    n = graph.num_vertices
    nbs = graph.neighbors()
    src = _source_lits(source, n)

    r = {v: formula.new_var(f"r[{v}{tag}]") for v in range(n)}
    t = {(u, v): formula.new_var(f"tree[{u},{v}{tag}]")
         for u in range(n) for v in range(n) if u != v}

    _assert_endpoint_free(formula, src, gate)

    def free(v: int) -> int | None:
        return None if gate is None else gate[v]

    # (1) the source is reachable
    for v, ind in src.items():
        formula.add_clause([r[v]] if ind is None else [-ind, r[v]])

    arcs = [(u, v) for u, v in graph.edges] + [(v, u) for u, v in graph.edges]
    for u, v in arcs:
        # (2) reachability propagates across edges, gated on the destination
        clause = [-r[u], r[v]]
        if gate is not None:
            clause = [-r[u], -gate[v], r[v]]
        formula.add_clause(clause)
        # (3) the source parents each of its free neighbours
        ind = src.get(u, False)
        head = [] if ind is None else [-ind]
        if ind is not False:
            clause = head + [t[(u, v)]]
            if gate is not None:
                clause = head + [-gate[v], t[(u, v)]]
            formula.add_clause(clause)

    for v in range(n):
        ind = src.get(v, False)
        parents = [t[(u, v)] for u in nbs[v]]
        # (4) every reachable non-source vertex has an in-tree parent
        if ind is not None:
            clause = [-r[v]] + parents + ([ind] if ind else [])
            formula.add_clause(clause)
        # (5) at most one parent; the source has none
        formula.at_most_one(parents)
        if ind is None:
            for u in nbs[v]:
                formula.add_clause([-t[(u, v)]])
        elif ind:
            for u in nbs[v]:
                formula.add_clause([-ind, -t[(u, v)]])
        if gate is not None:
            formula.add_clause([-r[v], gate[v]])

    # (6) transitivity of tree paths, and no cycles (w == u forbids 2-cycles)
    for u, v in arcs:
        for w in range(n):
            if w == v:
                continue
            if w == u:
                formula.add_clause([-t[(u, v)], -t[(v, u)]])
            else:
                formula.add_clause([-t[(u, v)], -t[(v, w)], t[(u, w)]])
                formula.add_clause([-t[(u, v)], -t[(v, w)], -t[(w, u)]])

    # (7) any vertex on a tree path is reachable
    for u, v in graph.edges:
        for a, b in ((u, v), (v, u)):
            formula.add_clause([-t[(a, b)], r[u]])
            formula.add_clause([-t[(a, b)], r[v]])
            if gate is not None:
                formula.add_clause([-t[(a, b)], gate[b]])

    return r
