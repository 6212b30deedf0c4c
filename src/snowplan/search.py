"""Solving strategies: iterative deepening, parallel ascend for an upper
bound, plan serialization, and sequential descend with noops.

The hybrid driver chains all three: find a minimal-horizon parallel plan
(its action count is an upper bound), serialize it into primitive moves,
then probe strictly shorter sequential horizons with noop padding until an
UNSAT answer certifies optimality or the upper bound meets the static
lower bound of `analysis.lower_bound`. When ascend's plan already meets
that bound, descend encodes nothing and makes no SAT call. Because a
satisfiable probe may contain several trailing noops, the upper bound can
drop by more than one per iteration.

Every strategy ends in `Bounds`, whose status follows from its lower and
upper bound, and in a list of moves that the simulator has replayed to the
goal. A strategy run is one `Run`: its deadline, its backend, its SAT calls
and its phase times. The strategies make their own; the phases
`ascend_parallel` and `descend` take the one they share. Ascend returns
its plan alone, and `run.bounds` reports the bounds. Every run keeps
one live formula and hands it to its backend, so an incremental backend
keeps what it learnt from one horizon to the next: deepening appends a
layer per horizon and assumes that horizon's goal literal, and descend
encodes once and assumes its goal literal and the noops at the tail.
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass, field

from . import encoder as enc
from .analysis import lower_bound
from .encoder import EncodingConfig, Mode, ReachKind
from .game import (Direction, GameState, classify, initial_state, is_goal,
                   run_plan, step, walks)
from .levels import Cell, Level
from .plans import ObjectAction, ParallelPlan, decode
from .solvers import (DEFAULT_BUDGET, SolveOutcome, Status, check_budget,
                      default_backend, solve)


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
    phase_times: dict[str, float] = field(default_factory=dict)
    horizon_times: list[float] = field(default_factory=list)

    def __post_init__(self):
        if self.lower is not None and self.upper is not None:
            if self.lower > self.upper:
                raise ValueError("lower bound exceeds upper bound")

    @property
    def status(self) -> BoundStatus:
        """UNKNOWN with neither bound, OPTIMAL when they meet, else BOUNDED."""
        if self.lower is None and self.upper is None:
            return BoundStatus.UNKNOWN
        if self.lower == self.upper:
            return BoundStatus.OPTIMAL
        return BoundStatus.BOUNDED


class Run:
    """One strategy run, the whole contract between a strategy and a solver:
    the deadline its budget sets, the backend (resolved once, here), every
    SAT call with the seconds it took, the seconds of each phase, and the
    `Bounds` the run reports. The hybrid's ascend and descend share one run."""

    def __init__(self, budget: float = DEFAULT_BUDGET, backend=None):
        self.deadline = time.monotonic() + check_budget(budget)
        self.backend = default_backend() if backend is None else backend
        self.times: list[float] = []
        self.phase_times: dict[str, float] = {}

    def remaining(self) -> float:
        return self.deadline - time.monotonic()

    def sat_call(self, encoding: enc.Encoding, extra=()) -> SolveOutcome:
        """One SAT call on the encoding under its goal literal and `extra`,
        within what is left of the run; none, and UNKNOWN, once it is spent."""
        budget = self.remaining()
        if budget <= 0:
            return SolveOutcome(Status.UNKNOWN)
        start = time.monotonic()
        outcome = solve(encoding.formula, self.backend, budget,
                        assumptions=[encoding.goal, *extra])
        self.times.append(time.monotonic() - start)
        return outcome

    def bounds(self, lower: int | None, upper: int | None) -> Bounds:
        """The bounds so far, with one horizon time per SAT call made and
        the seconds of each phase run so far."""
        return Bounds(lower, upper, dict(self.phase_times), list(self.times))


# The deepest horizon `_deepen` tries: a level with no plan would otherwise
# deepen until the clock stops it, until a proof of no plan replaces the cap.
HORIZON_CAP = 500


def _deepen(level: Level, mode: Mode, reach: ReachKind,
            run: Run) -> tuple[int, list[Direction] | ParallelPlan | None]:
    """Iterative deepening from T = 0; the first SAT horizon is minimal.

    Returns that horizon and its plan, or, when the clock, the solver or
    the horizon cap stops the search first, the lowest horizon not refuted
    and None. One formula grows by a layer per horizon, and each SAT call
    assumes that horizon's goal literal. After UNSAT the goal at T is false
    for good, which the unit clause -goal[T] records.
    """
    encoding, T = None, 0
    while T <= HORIZON_CAP and run.remaining() > 0:
        encoding = enc.encode(level, EncodingConfig(mode, T, reach), encoding)
        outcome = run.sat_call(encoding)
        if outcome.status is Status.SAT:
            return T, decode(encoding, outcome.model)
        if outcome.status is Status.UNKNOWN:
            break
        encoding.formula.add_clause([-encoding.goal])
        T += 1
    return T, None


def solve_sequential(level: Level, mode: Mode = Mode.COLLAPSED,
                     reach: ReachKind = ReachKind.PATH,
                     budget: float = DEFAULT_BUDGET,
                     backend=None) -> tuple[Bounds, list[Direction] | None]:
    """Optimal moves (FULL) or object actions (COLLAPSED) by deepening.

    The moves are FULL's as decoded, or the serialized COLLAPSED plan;
    either way the simulator has replayed them to the goal. A run that ends
    without a plan reports the lowest horizon not refuted or the static
    bound of `analysis.lower_bound`, whichever is higher: every object
    action is one move, so the bound holds for FULL too.
    """
    if mode not in (Mode.FULL, Mode.COLLAPSED):
        raise ValueError("solve_sequential expects FULL or COLLAPSED mode")
    run = Run(budget, backend)
    horizon, plan = _deepen(level, mode, reach, run)
    if plan is None:
        return run.bounds(max(horizon, lower_bound(level) or 0), None), None
    moves = plan if mode is Mode.FULL else serialize(level, plan)
    return run.bounds(horizon, horizon), _replayed(level, moves, mode.value)


def ascend_parallel(level: Level, reach: ReachKind,
                    run: Run) -> ParallelPlan | None:
    """A plan at the minimal parallel horizon, whose action count is an
    upper bound, or None once the run is spent; the SAT calls and the
    phase time go to `run`."""
    start = time.monotonic()
    _, plan = _deepen(level, Mode.PARALLEL, reach, run)
    run.phase_times["ascend"] = time.monotonic() - start
    return plan


# -- serialization ------------------------------------------------------


def _walk(level: Level, state: GameState, target: Cell) -> list[Direction] | None:
    """Shortest obstacle-free walk from the agent to target, as directions."""
    came_from = walks(level, state)
    if target not in came_from:
        return None
    path = []
    while came_from[target] is not None:
        target, d = came_from[target]
        path.append(d)
    return path[::-1]


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
            if result is None or result[0] is not action.kind:
                raise SerializationError(
                    f"step {i}: {action.kind.value} at {action.cell} does "
                    f"not classify as that action")
            state = result[1]
            moves.append(action.direction)
    return moves


# -- descend ------------------------------------------------------------


def descend(level: Level, upper: int, run: Run,
            lower: int = 0) -> tuple[Bounds, ParallelPlan | None]:
    """Probe strictly below a known upper bound until it meets `lower`, a
    known lower bound, or UNSAT proves it optimal.

    A satisfiable probe's non-noop action count becomes the new upper bound,
    which can therefore drop by more than one per iteration. One DESCEND
    formula at horizon upper-1 serves every probe, and it is encoded only
    if upper exceeds lower: each probe assumes its goal literal, the probe
    for a bound u below it also assumes noop[u-1], and since noops are
    forced to the tail, at most u-1 actions remain. Reachability is always
    PATH. A run cut short reports `lower` and the last upper bound.
    """
    start = time.monotonic()
    best: ParallelPlan | None = None
    encoding = None
    top = upper
    while upper > lower and run.remaining() > 0:
        if encoding is None:
            encoding = enc.encode(level, EncodingConfig(Mode.DESCEND, top - 1))
        tail = [encoding.noops[upper - 1]] if upper < top else []
        outcome = run.sat_call(encoding, tail)
        if outcome.status is Status.UNKNOWN:
            break
        if outcome.status is Status.UNSAT:
            lower = upper
            break
        plan = decode(encoding, outcome.model)
        if plan.object_action_count >= upper:
            raise SerializationError("descend probe failed to shrink the plan")
        if plan.object_action_count < lower:
            raise SerializationError("descend plan falls below the lower bound")
        upper = plan.object_action_count
        best = plan
    run.phase_times["descend"] = time.monotonic() - start
    return run.bounds(lower, upper), best


def solve_hybrid(level: Level, ascend_reach: ReachKind = ReachKind.TREE,
                 budget: float = DEFAULT_BUDGET,
                 backend=None) -> tuple[Bounds, list[Direction] | None]:
    """Parallel ascend, serialize, then sequential descend with noops down
    to the static lower bound (`analysis.lower_bound`).

    Ascend uses `ascend_reach`; descend always encodes PATH, and it makes
    no SAT call when ascend's plan already meets the bound. A run that ends
    in ascend without a plan reports the bound as its lower bound. Both
    phases share one run, so `budget` bounds the whole run, the horizon
    times list ascend's SAT calls, then descend's, and the phase times hold
    both.
    """
    run = Run(budget, backend)
    bound = lower_bound(level)
    plan = ascend_parallel(level, ascend_reach, run)
    if plan is None:
        return run.bounds(bound, None), None
    moves = _replayed(level, serialize(level, plan), "serialized parallel")
    bounds, best = descend(level, plan.object_action_count, run, bound or 0)
    if best is not None:
        moves = _replayed(level, serialize(level, best), "serialized descend")
    return bounds, moves


def _replayed(level: Level, moves: list[Direction], source: str) -> list[Direction]:
    """The moves of a `source` plan, once the simulator confirms they
    reach the goal."""
    result = run_plan(level, moves)
    if not result.ok:
        raise SerializationError(f"{source} plan rejected by the simulator "
                                 f"at move {result.rejected_at}")
    if not is_goal(level, result.state):
        raise SerializationError(f"{source} plan misses the goal")
    return moves
