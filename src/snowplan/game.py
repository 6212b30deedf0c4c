"""Exact executable semantics of both games: step, goal test, plan replay,
and a brute-force optimal oracle used to freeze expected values.

The oracle shares no logic with the CNF planner: it is plain BFS over
simulator states (with agent positions collapsed to reachable regions for
the object-action metric).
"""

from __future__ import annotations

import enum
from collections import deque
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property

from .levels import BallSize, Cell, GameTag, Level


class Direction(enum.Enum):
    N = (-1, 0)
    S = (1, 0)
    E = (0, 1)
    W = (0, -1)

    def apply(self, cell: Cell) -> Cell:
        return (cell[0] + self.value[0], cell[1] + self.value[1])


class ActionKind(enum.Enum):
    MOVE = "move"
    ROLL = "roll"
    PUSH = "push"
    POP = "pop"


@dataclass(frozen=True)
class ObjectAction:
    """One ball or box moved one cell: the agent stands on the pushing cell
    and acts in `direction` on the object at `cell`."""

    kind: ActionKind     # ROLL, PUSH or POP
    cell: Cell           # the ball/box cell being acted on
    direction: Direction

    @cached_property
    def pushing_cell(self) -> Cell:
        dr, dc = self.direction.value
        return (self.cell[0] - dr, self.cell[1] - dc)

    @cached_property
    def destination(self) -> Cell:
        return self.direction.apply(self.cell)


class Metric(enum.Enum):
    MOVES = "moves"
    OBJECT_ACTIONS = "object_actions"


@dataclass(frozen=True)
class GameState:
    agent: Cell
    snow: frozenset[Cell]
    stacks: tuple[tuple[Cell, tuple[BallSize, ...]], ...]
    boxes: frozenset[Cell]

    def stack_map(self) -> dict[Cell, tuple[BallSize, ...]]:
        return dict(self.stacks)

    def occupied(self, cell: Cell) -> bool:
        """A ball stack or box sits on the cell."""
        return cell in self.boxes or any(c == cell for c, _ in self.stacks)


def initial_state(level: Level) -> GameState:
    return GameState(
        agent=level.agent,
        snow=level.snow,
        stacks=level.stacks,
        boxes=level.boxes,
    )


def _grow(size: BallSize) -> BallSize:
    return BallSize(min(size + 1, BallSize.LARGE))


def _with_stacks(state: GameState, stacks: dict[Cell, tuple[BallSize, ...]],
                 agent: Cell, snow: frozenset[Cell]) -> GameState:
    return GameState(
        agent=agent,
        snow=snow,
        stacks=tuple(sorted(stacks.items())),
        boxes=state.boxes,
    )


def classify(level: Level, state: GameState, direction: Direction):
    """Return (ActionKind, successor GameState), or None when rejected."""
    here = state.agent
    ahead = direction.apply(here)
    if level.is_wall(ahead):
        return None

    if level.game is GameTag.SOKOBAN:
        if ahead in state.boxes:
            beyond = direction.apply(ahead)
            if level.is_wall(beyond) or beyond in state.boxes:
                return None
            boxes = (state.boxes - {ahead}) | {beyond}
            return ActionKind.ROLL, GameState(ahead, state.snow, state.stacks, boxes)
        return ActionKind.MOVE, GameState(ahead, state.snow, state.stacks, state.boxes)

    stacks = state.stack_map()
    if ahead not in stacks:
        return ActionKind.MOVE, _with_stacks(state, stacks, ahead, state.snow)

    beyond = direction.apply(ahead)
    if level.is_wall(beyond):
        return None
    stack = stacks[ahead]

    if len(stack) == 1:
        ball = stack[0]
        if beyond not in stacks:
            # roll: ball advances, growing on snow (snow always removed)
            size = _grow(ball) if beyond in state.snow else ball
            del stacks[ahead]
            stacks[beyond] = (size,)
            return ActionKind.ROLL, _with_stacks(
                state, stacks, ahead, state.snow - {beyond})
        top = stacks[beyond][-1]
        if ball < top:
            del stacks[ahead]
            stacks[beyond] = stacks[beyond] + (ball,)
            return ActionKind.PUSH, _with_stacks(state, stacks, ahead, state.snow)
        return None

    # stack of two or more: pop the top ball; agent stays put
    if beyond in stacks:
        return None
    top = stack[-1]
    size = _grow(top) if beyond in state.snow else top
    stacks[ahead] = stack[:-1]
    stacks[beyond] = (size,)
    return ActionKind.POP, _with_stacks(state, stacks, here, state.snow - {beyond})


def step(level: Level, state: GameState, direction: Direction):
    """Single transition; None means the move is rejected."""
    result = classify(level, state, direction)
    return None if result is None else result[1]


def is_goal(level: Level, state: GameState) -> bool:
    if level.game is GameTag.SOKOBAN:
        return state.boxes <= level.goals
    return all(len(stack) == 3 for _, stack in state.stacks)


@dataclass
class ReplayResult:
    state: GameState
    rejected_at: int | None = None

    @property
    def ok(self) -> bool:
        return self.rejected_at is None


def run_plan(level: Level, moves) -> ReplayResult:
    """Fold step over the move sequence, reporting the first rejection."""
    state = initial_state(level)
    for i, move in enumerate(moves):
        nxt = step(level, state, move)
        if nxt is None:
            return ReplayResult(state, rejected_at=i)
        state = nxt
    return ReplayResult(state)


# -- brute-force optimal oracle ----------------------------------------


def walks(level: Level, state: GameState
          ) -> dict[Cell, tuple[Cell, Direction] | None]:
    """Breadth-first walks from the agent that disturb no object: each
    reachable floor cell maps to the cell and direction it is first entered
    from, the agent's own cell to None."""
    came_from: dict[Cell, tuple[Cell, Direction] | None] = {state.agent: None}
    queue = deque([state.agent])
    while queue:
        cell = queue.popleft()
        for d in Direction:
            nb = d.apply(cell)
            if (nb not in came_from and not level.is_wall(nb)
                    and not state.occupied(nb)):
                came_from[nb] = (cell, d)
                queue.append(nb)
    return came_from


def agent_region(level: Level, state: GameState) -> set[Cell]:
    """Floor cells the agent can walk to without disturbing any object."""
    return set(walks(level, state))


def _region_key(level: Level, state: GameState) -> GameState:
    return GameState(
        agent=min(agent_region(level, state)),
        snow=state.snow,
        stacks=state.stacks,
        boxes=state.boxes,
    )


class OracleCapError(Exception):
    """The oracle saw more states than its cap before finishing."""


def oracle_optimal(level: Level, metric: Metric, cap: int = 1_000_000) -> int | None:
    """Exact optimum by BFS over simulator states: primitive moves, or
    object actions with the agent's cell collapsed to its walking region.
    None means every reachable state was seen and none is a goal: the level
    has no plan. Raises OracleCapError once more than `cap` states are seen."""
    start, successors = initial_state(level), _moves
    if metric is Metric.OBJECT_ACTIONS:
        start, successors = _region_key(level, start), _object_actions
    if is_goal(level, start):
        return 0
    seen = {start}
    queue = deque([(start, 0)])
    while queue:
        state, dist = queue.popleft()
        for nxt in successors(level, state):
            if nxt in seen:
                continue
            if is_goal(level, nxt):
                return dist + 1
            seen.add(nxt)
            if len(seen) > cap:
                raise OracleCapError(f"oracle saw more than {cap} states")
            queue.append((nxt, dist + 1))
    return None


def _moves(level: Level, state: GameState) -> Iterator[GameState]:
    """The states one primitive move leads to."""
    for d in Direction:
        nxt = step(level, state, d)
        if nxt is not None:
            yield nxt


def _object_actions(level: Level, state: GameState) -> Iterator[GameState]:
    """The region-keyed states one object action leads to."""
    for pos in agent_region(level, state):
        placed = GameState(pos, state.snow, state.stacks, state.boxes)
        for d in Direction:
            result = classify(level, placed, d)
            if result is not None and result[0] is not ActionKind.MOVE:
                yield _region_key(level, result[1])
