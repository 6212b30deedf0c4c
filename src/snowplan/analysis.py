"""Relaxed push geometry: what one ball or box can do when every other
object is ignored.

Every object action moves one ball or box one cell, from l to l + d, with
the agent on the pushing cell l - d. Ignoring the other objects and the
agent's route, that needs only both cells to be floor. The fewest such
pushes from an object's start cell to a cell is then a lower bound on the
object actions that bring it there. The encoder prunes its object-action
slots with these distances, and `lower_bound` sums them into a bound on a
level's optimum.
"""

from collections import deque

from .game import Direction
from .levels import Cell, GameTag, Level


def push_directions(level: Level, cell: Cell) -> list[Direction]:
    """The directions an object at `cell` can be pushed in: those whose
    destination and pushing cell are both floor."""
    r, c = cell
    return [d for d in Direction
            if not level.is_wall(d.apply(cell))
            and not level.is_wall((r - d.value[0], c - d.value[1]))]


def push_distances(level: Level, starts) -> dict[Cell, int]:
    """The fewest pushes from the nearest of the `starts` to each cell an
    object can be pushed to from there (breadth-first search)."""
    dist = {cell: 0 for cell in starts}
    queue = deque(dist)
    while queue:
        cell = queue.popleft()
        for d in push_directions(level, cell):
            nxt = d.apply(cell)
            if nxt not in dist:
                dist[nxt] = dist[cell] + 1
                queue.append(nxt)
    return dist


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
        boxes, goals = sorted(level.boxes), sorted(level.goals)
        if len(boxes) > len(goals):
            return None
        if not boxes:
            return 0
        # no assignment of finite distances costs this much
        far = len(boxes) * len(level.floor)
        cost = []
        for box in boxes:
            dist = push_distances(level, [box])
            cost.append([dist.get(goal, far) for goal in goals])
        total = _min_assignment(cost)
        return total if total < far else None
    balls = [cell for cell, sizes in level.stacks for _ in sizes]
    if len(balls) != 3:
        return 0
    dists = [push_distances(level, [cell]) for cell in balls]
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
