"""Search strategies: deepening, ascend/serialize/descend, and the hybrid."""

import math
import time

import pytest

from snowplan import search
from snowplan.analysis import lower_bound
from snowplan.bench import run_instance
from snowplan.encoder import EncodingConfig, Mode, ReachKind, encode
from snowplan.fixtures import load_fixture
from snowplan.game import ActionKind, Direction, is_goal, run_plan
from snowplan.plans import ObjectAction, ParallelPlan, Step, to_lurd
from snowplan.search import (Bounds, BoundStatus, SerializationError,
                             Run, _deepen, ascend_parallel, descend,
                             serialize, solve_hybrid, solve_sequential)
from snowplan.solvers import (DEFAULT_BUDGET, InProcessSolver, SolveOutcome,
                              Status, solve)

FAST = 120.0


def test_bounds_validation():
    with pytest.raises(ValueError):
        Bounds(3, 2)
    for lower, upper, status in [(None, None, BoundStatus.UNKNOWN),
                                 (None, 3, BoundStatus.BOUNDED),
                                 (2, None, BoundStatus.BOUNDED),
                                 (2, 3, BoundStatus.BOUNDED),
                                 (3, 3, BoundStatus.OPTIMAL),
                                 (0, 0, BoundStatus.OPTIMAL)]:
        assert Bounds(lower, upper).status is status, (lower, upper)
    level = load_fixture("snow_pop").level
    for budget in (0, math.nan, math.inf):
        with pytest.raises(ValueError):
            solve_sequential(level, budget=budget)


def test_solve_sequential_full_matches_oracle(backend):
    fx = load_fixture("soko_corridor")
    bounds, moves = solve_sequential(fx.level, Mode.FULL, budget=FAST,
                                     backend=backend)
    assert bounds.status is BoundStatus.OPTIMAL
    assert bounds.upper == fx.moves_optimal
    assert len(moves) == fx.moves_optimal
    assert is_goal(fx.level, run_plan(fx.level, moves).state)


def test_solve_sequential_collapsed_matches_oracle(backend):
    fx = load_fixture("snow_pop")
    bounds, moves = solve_sequential(fx.level, Mode.COLLAPSED, budget=FAST,
                                     backend=backend)
    assert bounds.status is BoundStatus.OPTIMAL
    assert bounds.upper == fx.object_actions_optimal
    lurd = to_lurd(fx.level, moves)       # the serialized COLLAPSED plan
    assert sum(1 for ch in lurd if ch.isupper()) == fx.object_actions_optimal
    assert is_goal(fx.level, run_plan(fx.level, moves).state)


def test_solve_sequential_rejects_other_modes():
    fx = load_fixture("snow_pop")
    with pytest.raises(ValueError):
        solve_sequential(fx.level, Mode.PARALLEL)


# The minimal parallel horizon of every solvable fixture, the same for each
# reach encoding. Ascend's action count is not pinned: it is whichever model
# the solver finds first at that horizon.
PARALLEL_HORIZON = {
    "snow_done": 0, "soko_pair": 1,
    "snow_pop": 2, "soko_corridor": 2, "soko_l": 2, "soko_room": 2,
    "snow_tiny3": 3, "soko_two": 3,
    "snow_pop2": 4, "snow_tiny1": 4, "snow_tiny2": 4, "soko_three": 4,
    "snow_grow": 5,
}


@pytest.mark.parametrize("reach", list(ReachKind))
def test_ascend_upper_bound_is_sound(reach, backend):
    for name, horizon in PARALLEL_HORIZON.items():
        fx = load_fixture(name)
        run = Run(FAST, backend)
        plan = ascend_parallel(fx.level, reach, run)
        bounds = run.bounds(None, plan.object_action_count)
        assert bounds.status is BoundStatus.BOUNDED, name
        assert bounds.upper >= fx.object_actions_optimal, name
        assert len(plan.steps) == horizon, name
        moves = serialize(fx.level, plan)
        assert is_goal(fx.level, run_plan(fx.level, moves).state), name


def test_serialize_single_action_plan():
    fx = load_fixture("soko_corridor")    # #@$-.#
    plan = ParallelPlan([
        Step(actions=frozenset({ObjectAction(ActionKind.ROLL, (1, 2), Direction.E)})),
        Step(actions=frozenset({ObjectAction(ActionKind.ROLL, (1, 3), Direction.E)})),
    ])
    moves = serialize(fx.level, plan)
    assert moves == [Direction.E, Direction.E]
    assert is_goal(fx.level, run_plan(fx.level, moves).state)


def test_serialize_inserts_walks():
    fx = load_fixture("soko_pair")
    # push each box once; the agent must walk between the two rows
    plan = ParallelPlan([Step(actions=frozenset({
        ObjectAction(ActionKind.ROLL, (1, 2), Direction.E),
        ObjectAction(ActionKind.ROLL, (3, 2), Direction.E),
    }))])
    moves = serialize(fx.level, plan)
    assert len(moves) > 2                  # pushes plus connecting walks
    assert is_goal(fx.level, run_plan(fx.level, moves).state)


def test_serialize_jump_becomes_walk():
    fx = load_fixture("soko_corridor")
    plan = ParallelPlan([Step(jump=(1, 1))])
    assert serialize(fx.level, plan) == []     # already standing there


def test_serialize_rejects_misclassified_action():
    """A step that claims PUSH for a ball the simulator rolls is rejected,
    not serialized as a roll."""
    fx = load_fixture("snow_pop")         # a lone small ball at (2, 3)
    plan = ParallelPlan([Step(actions=frozenset(
        {ObjectAction(ActionKind.PUSH, (2, 3), Direction.E)}))])
    with pytest.raises(SerializationError, match="push at"):
        serialize(fx.level, plan)


def test_serialize_rejects_impossible_action():
    fx = load_fixture("soko_corridor")
    plan = ParallelPlan([
        Step(actions=frozenset({ObjectAction(ActionKind.ROLL, (1, 2), Direction.W)}))])
    with pytest.raises(SerializationError):
        serialize(fx.level, plan)


def test_descend_confirms_optimum(backend):
    fx = load_fixture("snow_pop")
    opt = fx.object_actions_optimal
    bounds, plan = descend(fx.level, opt, Run(FAST, backend))
    assert bounds.status is BoundStatus.OPTIMAL
    assert (bounds.lower, bounds.upper) == (opt, opt)
    assert plan is None                    # no probe succeeded


def test_descend_multi_step_drop(backend):
    """From a padded upper bound the probe jumps straight to the optimum:
    a satisfiable shorter horizon already carries trailing noops."""
    fx = load_fixture("soko_corridor")
    opt = fx.object_actions_optimal
    bounds, plan = descend(fx.level, opt + 3, Run(FAST, backend))
    assert bounds.status is BoundStatus.OPTIMAL
    assert bounds.upper == opt
    # one SAT probe that skips several bounds, then the UNSAT certificate
    assert len(bounds.horizon_times) < (opt + 3 - opt) + 2
    assert plan is not None and plan.object_action_count == opt


def test_descend_zero_upper_bound(backend):
    fx = load_fixture("snow_done")
    bounds, plan = descend(fx.level, 0, Run(FAST, backend))
    assert (bounds.lower, bounds.upper) == (0, 0)
    assert bounds.status is BoundStatus.OPTIMAL


@pytest.mark.parametrize("name", ["snow_pop", "soko_corridor", "soko_pair",
                                  "snow_tiny3"])
def test_hybrid_matches_oracle(name, backend):
    fx = load_fixture(name)
    bounds, moves = solve_hybrid(fx.level, budget=FAST, backend=backend)
    assert bounds.status is BoundStatus.OPTIMAL
    assert bounds.upper == fx.object_actions_optimal
    lurd = to_lurd(fx.level, moves)
    assert sum(1 for ch in lurd if ch.isupper()) == fx.object_actions_optimal
    assert is_goal(fx.level, run_plan(fx.level, moves).state)


def test_hybrid_solved_at_start(backend):
    fx = load_fixture("snow_done")
    bounds, moves = solve_hybrid(fx.level, budget=FAST, backend=backend)
    assert (bounds.lower, bounds.upper) == (0, 0)
    assert moves == []


def test_hybrid_records_phase_times(backend):
    fx = load_fixture("snow_pop")
    bounds, _ = solve_hybrid(fx.level, budget=FAST, backend=backend)
    assert set(bounds.phase_times) == {"ascend", "descend"}
    assert all(t >= 0 for t in bounds.phase_times.values())
    assert bounds.horizon_times


@pytest.mark.parametrize("name", ["soko_three", "snow_pop"])
@pytest.mark.parametrize("mode,reach", [(Mode.FULL, ReachKind.PATH)]
                         + [(Mode.PARALLEL, r) for r in ReachKind])
def test_incremental_deepening_matches_one_shot(name, mode, reach):
    """Growing one formula under goal assumptions finds the same minimal
    horizon as a one-shot solve of a fresh encoding and solver per horizon."""
    level = load_fixture(name).level

    def sat_at(T):
        fresh = encode(level, EncodingConfig(mode, T, reach))
        return solve(fresh.formula, backend=InProcessSolver(),
                     assumptions=[fresh.goal]).status is Status.SAT

    one_shot = next(T for T in range(31) if sat_at(T))
    run = Run(FAST, InProcessSolver())
    horizon, plan = _deepen(level, mode, reach, run)
    assert horizon == one_shot
    assert plan is not None
    assert len(run.times) == one_shot + 1


class _CountingBackend:
    """The bundled solver, logging the phase of each call it answers."""

    def __init__(self):
        self.inner = InProcessSolver()
        self.calls: list[str] = []
        self.phase = ""

    def solve(self, formula, budget=DEFAULT_BUDGET, assumptions=()):
        self.calls.append(self.phase)
        return self.inner.solve(formula, budget, assumptions)


def test_spent_run_makes_no_call():
    """Once nothing of the run is left, a SAT call is UNKNOWN without
    reaching the backend, and no time is logged."""
    counting = _CountingBackend()
    run = Run(0.05, counting)
    encoding = encode(load_fixture("soko_corridor").level,
                      EncodingConfig(Mode.COLLAPSED, 1))
    time.sleep(0.1)
    assert run.sat_call(encoding).status is Status.UNKNOWN
    assert counting.calls == [] and run.times == []


def test_horizon_times_count_every_sat_call(monkeypatch):
    """Each strategy reports one horizon time per SAT call it made; the
    hybrid lists ascend's calls first, then descend's. The hybrid runs on
    snow_tiny1 with PATH, where ascend's plan (6 actions) lies above both
    the optimum (5) and the static bound (4), so descend has to probe."""
    fx = load_fixture("soko_pair")
    level, opt = fx.level, fx.object_actions_optimal
    counting = _CountingBackend()
    for mode in (Mode.FULL, Mode.COLLAPSED):
        counting.calls.clear()
        bounds, _ = solve_sequential(level, mode, budget=FAST,
                                     backend=counting)
        assert len(bounds.horizon_times) == len(counting.calls) > 1
    counting.calls.clear()
    run = Run(FAST, counting)
    ascend_parallel(level, ReachKind.TREE, run)
    assert len(run.times) == len(counting.calls) > 0
    counting.calls.clear()
    bounds, _ = descend(level, opt + 2, Run(FAST, counting))
    assert len(bounds.horizon_times) == len(counting.calls) > 1

    # solve_hybrid calls both phases by module name, so wrappers see them
    counting.calls.clear()
    ascended = []

    def ascend(level, reach, run):
        counting.phase = "ascend"
        plan = ascend_parallel(level, reach, run)
        ascended.extend(run.times)
        return plan

    def descend_(*args, **kwargs):
        counting.phase = "descend"
        return descend(*args, **kwargs)

    monkeypatch.setattr(search, "ascend_parallel", ascend)
    monkeypatch.setattr(search, "descend", descend_)
    bounds, _ = solve_hybrid(load_fixture("snow_tiny1").level, ReachKind.PATH,
                             FAST, counting)
    assert bounds.status is BoundStatus.OPTIMAL
    ups = len(ascended)
    assert counting.calls == ["ascend"] * ups + ["descend"] * (
        len(counting.calls) - ups)
    assert len(counting.calls) > ups > 0
    assert len(bounds.horizon_times) == len(counting.calls)
    assert bounds.horizon_times[:ups] == ascended


def test_hybrid_skips_descend_at_the_bound(monkeypatch):
    """soko_pair's ascend plan meets its static bound (2), so descend
    builds no DESCEND encoding and makes no SAT call."""
    level = load_fixture("soko_pair").level
    assert lower_bound(level) == 2
    modes = []

    def encode_(level, config, extend=None):
        modes.append(config.mode)
        return encode(level, config, extend)

    monkeypatch.setattr(search.enc, "encode", encode_)
    counting = _CountingBackend()
    ascended = ascend_parallel(level, ReachKind.TREE, Run(FAST, counting))
    ups = len(counting.calls)
    assert ascended.object_action_count == 2
    bounds, moves = solve_hybrid(level, budget=FAST, backend=counting)
    assert (bounds.lower, bounds.upper) == (2, 2)
    assert len(counting.calls) == 2 * ups
    assert len(bounds.horizon_times) == ups
    assert Mode.DESCEND not in modes
    assert is_goal(level, run_plan(level, moves).state)


def test_descend_stops_at_its_lower_bound():
    """At its lower bound descend makes no call; a plan below the bound
    (soko_corridor's optimum is 2) means the bound is wrong."""
    counting = _CountingBackend()
    level = load_fixture("soko_corridor").level
    bounds, plan = descend(level, 3, Run(FAST, counting), lower=3)
    assert (bounds.lower, bounds.upper) == (3, 3)
    assert plan is None and counting.calls == [] and bounds.horizon_times == []
    with pytest.raises(SerializationError, match="below the lower bound"):
        descend(level, 5, Run(FAST, counting), lower=3)


class _UnknownBackend:
    """Answers UNKNOWN to every call on a formula other than the first it
    is given, or to every call with `always`. Ascend grows its one formula
    in place, so in a hybrid run the other formula is descend's."""

    def __init__(self, always=False):
        self.inner = InProcessSolver()
        self.always = always
        self.ascend = None

    def solve(self, formula, budget=DEFAULT_BUDGET, assumptions=()):
        self.ascend = self.ascend or formula
        if self.always or formula is not self.ascend:
            return SolveOutcome(Status.UNKNOWN)
        return self.inner.solve(formula, budget, assumptions)


def test_bounded_hybrid_record_carries_the_static_bound():
    """snow_tiny1 with PATH: ascend's plan has 6 actions and the static
    bound is 4. With descend cut short, the record reports both; with
    ascend cut short, it reports the bound alone."""
    level = load_fixture("snow_tiny1").level
    run = run_instance(level, "snow_tiny1", ReachKind.PATH, limit=FAST,
                       backend=_UnknownBackend())
    assert not run.solved and run.record.lurd is not None
    assert (run.record.lb, run.record.ub, run.record.status) == (
        4, 6, "bounded")
    run = run_instance(level, "snow_tiny1", ReachKind.PATH, limit=FAST,
                       backend=_UnknownBackend(always=True))
    assert (run.record.lb, run.record.ub, run.record.status) == (
        4, None, "bounded")


@pytest.mark.parametrize("mode", [Mode.FULL, Mode.COLLAPSED])
def test_cut_short_sequential_run_reports_the_static_bound(mode):
    """soko_pair's static bound is 2: a sequential run whose every call is
    UNKNOWN refutes no horizon, yet reports that bound as its lower one."""
    level = load_fixture("soko_pair").level
    assert lower_bound(level) == 2
    bounds, moves = solve_sequential(level, mode, budget=FAST,
                                     backend=_UnknownBackend(always=True))
    assert moves is None
    assert (bounds.lower, bounds.upper) == (2, None)
    assert bounds.status is BoundStatus.BOUNDED


class _SlowBackend:
    """Answers correctly, but each call lasts 60% of its budget."""

    def solve(self, formula, budget=DEFAULT_BUDGET, assumptions=()):
        start = time.monotonic()
        out = InProcessSolver().solve(formula, assumptions=assumptions)
        time.sleep(max(0.0, 0.6 * budget - (time.monotonic() - start)))
        return out


def test_hybrid_total_budget_covers_both_phases():
    """Ascend and descend share one clock: a run whose ascend spends most
    of the budget leaves descend only the rest."""
    fx = load_fixture("snow_pop")
    budget = 1.0
    start = time.monotonic()
    bounds, _ = solve_hybrid(fx.level, budget=budget, backend=_SlowBackend())
    assert time.monotonic() - start < budget + 0.4
    if bounds.upper is not None:
        assert bounds.upper >= fx.object_actions_optimal


@pytest.mark.parametrize("name", ["snow_selfblock", "snow_ring"])
@pytest.mark.parametrize("mode, status", [("hybrid", BoundStatus.UNKNOWN),
                                          (Mode.COLLAPSED, BoundStatus.BOUNDED)],
                         ids=["hybrid", "collapsed"])
def test_null_optimum_ends_without_plan_within_budget(name, mode, status,
                                                      backend):
    """A level with no solution ends with no plan, at the clock or the
    horizon cap, and within the budget plus one second."""
    level = load_fixture(name).level
    start = time.monotonic()
    if mode == "hybrid":
        bounds, moves = solve_hybrid(level, ReachKind.PATH, 1.0, backend)
    else:
        bounds, moves = solve_sequential(level, mode, ReachKind.PATH, 1.0,
                                         backend)
    assert time.monotonic() - start < 1.0 + 1.0
    assert moves is None and bounds.upper is None
    assert bounds.status is status
    if status is BoundStatus.BOUNDED:
        assert isinstance(bounds.lower, int)
