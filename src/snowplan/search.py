"""Solving strategies: iterative deepening, parallel ascend for an upper
bound, plan serialization, and sequential descend with noops.

The hybrid driver chains all three: find a minimal-horizon parallel plan
(its action count is an upper bound), serialize it into primitive moves,
then probe strictly shorter sequential horizons with noop padding until an
UNSAT answer certifies optimality. Because a satisfiable probe may contain
several trailing noops, the upper bound can drop by more than one per
iteration.

Every strategy run keeps one live formula and hands it to one backend, so
an incremental backend keeps what it learnt from one horizon to the next:
deepening appends a layer per horizon and assumes that horizon's goal
literal, and descend encodes once and assumes its goal literal and the
noops at the tail.
"""

from __future__ import annotations

import enum
import time
from collections import deque
from dataclasses import dataclass, field

from . import encoder as enc
from .encoder import EncodingConfig, Mode, ReachKind
from .game import (ActionKind, Direction, GameState, classify, initial_state,
                   is_goal, run_plan, step)
from .levels import Cell, Level
from .plans import ObjectAction, ParallelPlan, Plan, SequentialPlan, Step, decode
from .solvers import Status, default_backend, solve


class SerializationError(Exception):
    """A parallel step could not be serialized; this indicates an encoder
    bug (the forall-step contract guarantees a valid ordering exists)."""


class BoundStatus(enum.Enum):
    OPTIMAL = "optimal"
    BOUNDED = "bounded"
    UNKNOWN = "unknown"


@dataclass
class Bounds:
    lower: int | None
    upper: int | None
    status: BoundStatus
    phase_times: dict[str, float] = field(default_factory=dict)
    horizon_times: list[float] = field(default_factory=list)

    def __post_init__(self):
        if self.lower is not None and self.upper is not None:
            if self.lower > self.upper:
                raise ValueError("lower bound exceeds upper bound")
        if self.status is BoundStatus.OPTIMAL and self.lower != self.upper:
            raise ValueError("optimal bounds must coincide")


@dataclass(frozen=True)
class BudgetPolicy:
    solve_budget: float = 300.0   # wall clock per SAT call
    total_budget: float = 3600.0  # wall clock per strategy run
    horizon_cap: int = 500

    def __post_init__(self):
        if self.solve_budget <= 0 or self.total_budget <= 0 or self.horizon_cap <= 0:
            raise ValueError("budgets must be positive")


class _Clock:
    def __init__(self, policy: BudgetPolicy):
        self.policy = policy
        self.start = time.monotonic()

    def remaining(self) -> float:
        return self.policy.total_budget - (time.monotonic() - self.start)

    def call_budget(self) -> float:
        return max(0.0, min(self.policy.solve_budget, self.remaining()))

    @property
    def exhausted(self) -> bool:
        return self.remaining() <= 0


def _deepen(level: Level, mode: Mode, reach: ReachKind, clock: _Clock,
            backend) -> tuple[Bounds, Plan | None]:
    """Iterative deepening from T = 0; first SAT horizon is minimal.

    One formula grows by a layer per horizon, and each SAT call assumes
    that horizon's goal literal. After UNSAT the goal at T is false for
    good, which the unit clause -goal[T] records.
    """
    if backend is None:
        backend = default_backend()
    times: list[float] = []
    lower = 0
    encoding = None
    for T in range(clock.policy.horizon_cap + 1):
        if clock.exhausted:
            break
        encoding = enc.encode(level, EncodingConfig(mode, T, reach), encoding)
        outcome = solve(encoding.formula, clock.call_budget(), backend,
                        assumptions=[encoding.goal])
        times.append(outcome.elapsed)
        if outcome.status is Status.SAT:
            bounds = Bounds(T, T, BoundStatus.OPTIMAL, horizon_times=times)
            return bounds, decode(encoding, outcome.model)
        if outcome.status is Status.UNKNOWN:
            break
        encoding.formula.add_clause([-encoding.goal])
        lower = T + 1
    return Bounds(lower, None, BoundStatus.BOUNDED, horizon_times=times), None


def solve_sequential(level: Level, mode: Mode = Mode.COLLAPSED,
                     reach: ReachKind = ReachKind.PATH,
                     policy: BudgetPolicy = BudgetPolicy(),
                     backend=None) -> tuple[Bounds, Plan | None]:
    """Optimal moves (FULL) or object actions (COLLAPSED) by deepening."""
    if mode not in (Mode.FULL, Mode.COLLAPSED):
        raise ValueError("solve_sequential expects FULL or COLLAPSED mode")
    return _deepen(level, mode, reach, _Clock(policy), backend)


def ascend_parallel(level: Level, reach: ReachKind = ReachKind.TREE,
                    policy: BudgetPolicy = BudgetPolicy(),
                    backend=None, clock: _Clock | None = None
                    ) -> tuple[Bounds, ParallelPlan | None]:
    """Minimal parallel horizon; the plan's action count is an upper bound.

    `clock` defaults to a fresh one for `policy`.
    """
    bounds, plan = _deepen(level, Mode.PARALLEL, reach,
                           clock or _Clock(policy), backend)
    if plan is None:
        return Bounds(None, None, BoundStatus.UNKNOWN,
                      horizon_times=bounds.horizon_times), None
    ub = plan.object_action_count
    return Bounds(None, ub, BoundStatus.BOUNDED,
                  horizon_times=bounds.horizon_times), plan


# -- serialization ------------------------------------------------------


def _walk(level: Level, state: GameState, target: Cell) -> list[Direction] | None:
    """Shortest obstacle-free walk from the agent to target, as directions."""
    if state.agent == target:
        return []
    seen = {state.agent: None}
    queue = deque([state.agent])
    while queue:
        cell = queue.popleft()
        for d in Direction:
            nxt = d.apply(cell)
            if nxt in seen or level.is_wall(nxt) or state.occupied(nxt):
                continue
            seen[nxt] = (cell, d)
            if nxt == target:
                path = []
                while seen[nxt] is not None:
                    cell, d = seen[nxt]
                    path.append(d)
                    nxt = cell
                return path[::-1]
            queue.append(nxt)
    return None


def _step_order(step_actions: frozenset[ObjectAction]) -> list[ObjectAction]:
    order = list(Direction)
    return sorted(step_actions, key=lambda a: (a.cell, order.index(a.direction)))


def serialize(level: Level, plan: ParallelPlan) -> list[Direction]:
    """Flatten a parallel plan: walk to each pushing cell, then act.

    Actions within a step are ordered row-major by acted cell; jumps become
    plain walks. The result replays to the same final state the encoder
    promised, or a SerializationError is raised.
    """
    state = initial_state(level)
    moves: list[Direction] = []

    def walk_to(target: Cell) -> None:
        nonlocal state
        path = _walk(level, state, target)
        if path is None:
            raise SerializationError(
                f"no walk from {state.agent} to {target}")
        for d in path:
            state = step(level, state, d)
            moves.append(d)

    for i, st in enumerate(plan.steps):
        if st.jump is not None:
            walk_to(st.jump)
            continue
        for action in _step_order(st.actions):
            walk_to(action.pushing_cell)
            result = classify(level, state, action.direction)
            if result is None or result[0] is ActionKind.MOVE:
                raise SerializationError(
                    f"step {i}: {action.kind} at {action.cell} does not "
                    f"classify as an object action")
            state = result[1]
            moves.append(action.direction)
    return moves


# -- descend ------------------------------------------------------------


def descend(level: Level, upper: int, policy: BudgetPolicy = BudgetPolicy(),
            backend=None, clock: _Clock | None = None
            ) -> tuple[Bounds, ParallelPlan | None]:
    """Probe strictly below a known upper bound until UNSAT proves it optimal.

    A satisfiable probe's non-noop action count becomes the new upper bound,
    which can therefore drop by more than one per iteration. One DESCEND
    formula at horizon upper-1 serves every probe: each probe assumes its
    goal literal, the probe for a bound u below it also assumes noop[u-1],
    and since noops are forced to the tail, at most u-1 actions remain.
    Reachability is always PATH. `clock` defaults to a fresh one for
    `policy`.
    """
    clock = clock or _Clock(policy)
    if backend is None:
        backend = default_backend()
    times: list[float] = []
    best: ParallelPlan | None = None
    encoding = None
    top = upper
    while upper > 0:
        if clock.exhausted:
            return Bounds(None, upper, BoundStatus.BOUNDED,
                          horizon_times=times), best
        if encoding is None:
            encoding = enc.encode(level, EncodingConfig(Mode.DESCEND, top - 1))
        tail = [encoding.builder.noops[upper - 1]] if upper < top else []
        outcome = solve(encoding.formula, clock.call_budget(), backend,
                        assumptions=[encoding.goal] + tail)
        times.append(outcome.elapsed)
        if outcome.status is Status.UNKNOWN:
            return Bounds(None, upper, BoundStatus.BOUNDED,
                          horizon_times=times), best
        if outcome.status is Status.UNSAT:
            return Bounds(upper, upper, BoundStatus.OPTIMAL,
                          horizon_times=times), best
        plan = decode(encoding, outcome.model)
        if plan.object_action_count >= upper:
            raise SerializationError("descend probe failed to shrink the plan")
        upper = plan.object_action_count
        best = plan
    return Bounds(0, 0, BoundStatus.OPTIMAL, horizon_times=times), best


def solve_hybrid(level: Level, ascend_reach: ReachKind = ReachKind.TREE,
                 policy: BudgetPolicy = BudgetPolicy(),
                 backend=None) -> tuple[Bounds, list[Direction] | None]:
    """Parallel ascend, serialize, then sequential descend with noops.

    Ascend uses `ascend_reach`; descend always encodes PATH. Both phases
    share one clock, so `policy.total_budget` bounds the run.
    """
    clock = _Clock(policy)
    t0 = time.monotonic()
    up_bounds, parallel_plan = ascend_parallel(level, ascend_reach, policy,
                                               backend, clock)
    ascend_time = time.monotonic() - t0
    if parallel_plan is None:
        return Bounds(None, None, BoundStatus.UNKNOWN,
                      phase_times={"ascend": ascend_time},
                      horizon_times=up_bounds.horizon_times), None
    moves = _replayed(level, serialize(level, parallel_plan), "parallel")
    upper = parallel_plan.object_action_count
    if upper == 0:
        return Bounds(0, 0, BoundStatus.OPTIMAL,
                      phase_times={"ascend": ascend_time, "descend": 0.0},
                      horizon_times=up_bounds.horizon_times), []
    t1 = time.monotonic()
    down_bounds, best = descend(level, upper, policy, backend, clock)
    phase = {"ascend": ascend_time, "descend": time.monotonic() - t1}
    if best is not None:
        moves = _replayed(level, serialize(level, best), "descend")
    bounds = Bounds(down_bounds.lower, down_bounds.upper, down_bounds.status,
                    phase_times=phase,
                    horizon_times=up_bounds.horizon_times
                    + down_bounds.horizon_times)
    return bounds, moves


def _replayed(level: Level, moves: list[Direction], source: str) -> list[Direction]:
    """The moves, once the simulator confirms they reach the goal."""
    result = run_plan(level, moves)
    if not result.ok:
        raise SerializationError(f"serialized {source} plan rejected by the "
                                 f"simulator at move {result.rejected_at}")
    if not is_goal(level, result.state):
        raise SerializationError(f"serialized {source} plan misses the goal")
    return moves
