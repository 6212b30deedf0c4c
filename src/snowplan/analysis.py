"""Relaxed push geometry: what one ball or box can do when every other
object is ignored.

Every object action moves one ball or box one cell, from l to l + d, with
the agent on the pushing cell l - d. Ignoring the other objects and the
agent's route, that needs only both cells to be floor. Two tables follow:

- `object_distances`: per ball or box, the fewest such pushes from its
  start cell to each cell, a lower bound on the object actions that bring
  it there. `lower_bound` sums them into a bound on a level's optimum.
- `live_cells`: the cells with a push route to a target, a cell every
  object must end on (a goal, or a cell three balls can reach). An object
  pushed anywhere else can never finish: Sokoban's dead squares.

`slots` combines both into the one table of object-action slots the
encoder creates, each with the first step it can happen at.
"""

from collections import Counter, deque

from .game import ActionKind, Direction, ObjectAction
from .levels import BallSize, Cell, GameTag, Level


def push_directions(level: Level, cell: Cell) -> list[Direction]:
    """The directions an object at `cell` can be pushed in: those whose
    destination and pushing cell are both floor."""
    r, c = cell
    return [d for d in Direction
            if not level.is_wall(d.apply(cell))
            and not level.is_wall((r - d.value[0], c - d.value[1]))]


def push_distances(level: Level, start: Cell) -> dict[Cell, int]:
    """The fewest pushes from `start` to each cell an object can be pushed
    to from there (breadth-first search)."""
    dist = {start: 0}
    queue = deque(dist)
    while queue:
        cell = queue.popleft()
        for d in push_directions(level, cell):
            nxt = d.apply(cell)
            if nxt not in dist:
                dist[nxt] = dist[cell] + 1
                queue.append(nxt)
    return dist


def object_distances(level: Level) -> list[dict[Cell, int]]:
    """`push_distances` from each ball (stacks in level order, each bottom
    to top) or box (in sorted order) alone. Balls stacked on one cell
    share one table."""
    starts = ([cell for cell, sizes in level.stacks for _ in sizes]
              if level.game is GameTag.SNOWMAN else sorted(level.boxes))
    tables = {cell: push_distances(level, cell) for cell in set(starts)}
    return [tables[cell] for cell in starts]


def live_cells(level: Level, dists: list[dict[Cell, int]]) -> frozenset[Cell]:
    """The cells from which some sequence of relaxed pushes reaches a
    target (a breadth-first search of reversed pushes); every floor cell
    when there is no target, so nothing is pruned.

    Every object ends on a target: Sokoban boxes on goals, snowballs on a
    cell that three balls share, so on one that at least three of `dists`
    (`object_distances`) reach. Each cell an object occupies on the way
    is therefore live.
    """
    if level.game is GameTag.SOKOBAN:
        live = set(level.goals)
    else:
        reached = Counter(cell for dist in dists for cell in dist)
        live = {cell for cell, balls in reached.items() if balls >= 3}
    queue = deque(live)
    while queue:
        r, c = queue.popleft()
        for d in Direction:
            # an object pushed in d lands here from `prev`, the agent behind it
            dr, dc = d.value
            prev = (r - dr, c - dc)
            if (prev not in live and not level.is_wall(prev)
                    and not level.is_wall((r - 2 * dr, c - 2 * dc))):
                live.add(prev)
                queue.append(prev)
    return frozenset(live) or level.floor


def slots(level: Level) -> list[tuple[ObjectAction, int]]:
    """Every object action the relaxation allows, each with the first step
    it can happen at: ball cells in sorted order, then `push_directions`
    order, then ROLL, PUSH, POP.

    The ball cell l and its destination must both be live (`live_cells`).
    A ROLL needs only a ball or box at l, so it opens at the nearest one's
    distance to l: l is in GraphPlan's B_t, the cells some object can
    occupy at step t, exactly from that step on. A PUSH needs a second
    ball at the destination, a POP one at l: each opens at the first step
    a ball that did not start large can be at l while another ball is
    there, and never if no such pair exists. The pushed ball, or the top
    popped off a stack, is never large: a large ball never shrinks and
    never tops a stack.
    """
    dists = object_distances(level)
    live = live_cells(level, dists)
    # each cell's balls or boxes nearest first, as (pushes, index)
    near: dict[Cell, list[tuple[int, int]]] = {}
    for i, dist in enumerate(dists):
        for cell, n in dist.items():
            near.setdefault(cell, []).append((n, i))
    for balls in near.values():
        balls.sort()
    sizes = [size for _, stack in level.stacks for size in stack]
    large = {i for i, size in enumerate(sizes) if size is BallSize.LARGE}
    out = []
    for l in sorted(near.keys() & live):
        here = near[l]
        movable = [(n, i) for n, i in here if i not in large]
        for d in push_directions(level, l):
            b = d.apply(l)
            if b not in live:
                continue
            out.append((ObjectAction(ActionKind.ROLL, l, d), here[0][0]))
            if level.game is GameTag.SOKOBAN:
                continue
            for kind, other in ((ActionKind.PUSH, near.get(b, [])),
                                (ActionKind.POP, here)):
                opens = _pair_step(movable, other)
                if opens is not None:
                    out.append((ObjectAction(kind, l, d), opens))
    return out


def _pair_step(first: list[tuple[int, int]],
               second: list[tuple[int, int]]) -> int | None:
    """The least max(m, n) over (m, i) in `first` and (n, j) in `second`
    with i != j, both lists nearest first; None if no such pair. Some
    optimal pair lies in the first two of each: past them, each list
    still has a nearer entry whose index differs from the other side's."""
    return min((max(m, n) for m, i in first[:2] for n, j in second[:2]
                if i != j), default=None)


def lower_bound(level: Level) -> int | None:
    """A lower bound on the object actions of any plan; None when the
    relaxation already has no solution.

    Sokoban: the cheapest assignment of boxes to distinct goals, each box
    paying its push distance to its goal (the minimum-matching bound of
    Junghanns & Schaeffer's Rolling Stone). One snowman: the cheapest cell
    where its three balls can meet, each paying its push distance there.
    With more snowmen the bound is 0.
    """
    if level.game is GameTag.SOKOBAN:
        goals = sorted(level.goals)
        if len(level.boxes) > len(goals):
            return None
        if not level.boxes:
            return 0
        # no assignment of finite distances costs this much
        far = len(level.boxes) * len(level.floor)
        total = _min_assignment([[dist.get(goal, far) for goal in goals]
                                 for dist in object_distances(level)])
        return total if total < far else None
    if sum(len(sizes) for _, sizes in level.stacks) != 3:
        return 0
    dists = object_distances(level)
    return min((sum(d[cell] for d in dists) for cell in dists[0]
                if all(cell in d for d in dists)), default=None)


def _min_assignment(cost: list[list[int]]) -> int:
    """The least total cost of giving each row its own column, for no more
    rows than columns: the Hungarian method with potentials, O(n^2 m)."""
    n, m = len(cost), len(cost[0])
    INF = float("inf")
    row_pot, col_pot = [0] * (n + 1), [0] * (m + 1)
    owner = [0] * (m + 1)    # owner[j]: the row given column j (1-based), 0 none
    for i in range(1, n + 1):
        # grow a shortest augmenting path from row i through column 0
        owner[0], j0 = i, 0
        slack = [INF] * (m + 1)
        prev = [0] * (m + 1)
        used = [False] * (m + 1)
        while owner[j0]:
            used[j0] = True
            i0, delta, j1 = owner[j0], INF, 0
            for j in range(1, m + 1):
                if not used[j]:
                    reduced = cost[i0 - 1][j - 1] - row_pot[i0] - col_pot[j]
                    if reduced < slack[j]:
                        slack[j], prev[j] = reduced, j0
                    if slack[j] < delta:
                        delta, j1 = slack[j], j
            for j in range(m + 1):
                if used[j]:
                    row_pot[owner[j]] += delta
                    col_pot[j] -= delta
                else:
                    slack[j] -= delta
            j0 = j1
        while j0:
            owner[j0] = owner[prev[j0]]
            j0 = prev[j0]
    return sum(cost[owner[j] - 1][j - 1] for j in range(1, m + 1) if owner[j])
