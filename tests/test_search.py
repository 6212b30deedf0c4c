"""Search strategies: deepening, ascend/serialize/descend, and the hybrid."""

import math
import time

import pytest

from snowplan import search
from snowplan.encoder import EncodingConfig, Mode, ReachKind, encode
from snowplan.fixtures import load_fixture
from snowplan.game import ActionKind, Direction, is_goal, run_plan
from snowplan.plans import ObjectAction, ParallelPlan, Step, to_lurd
from snowplan.search import (Bounds, BoundStatus, SerializationError,
                             _deepen, _Run, ascend_parallel, descend,
                             serialize, solve_hybrid, solve_sequential)
from snowplan.solvers import InProcessSolver, Status, solve

FAST = 120.0


def test_bounds_validation():
    with pytest.raises(ValueError):
        Bounds(3, 2, BoundStatus.BOUNDED)
    with pytest.raises(ValueError):
        Bounds(1, 2, BoundStatus.OPTIMAL)
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


@pytest.mark.parametrize("reach", list(ReachKind))
def test_ascend_upper_bound_is_sound(reach, backend):
    fx = load_fixture("soko_pair")
    bounds, plan = ascend_parallel(fx.level, reach, FAST, backend)
    assert bounds.status is BoundStatus.BOUNDED
    assert bounds.upper >= fx.object_actions_optimal
    moves = serialize(fx.level, plan)
    assert is_goal(fx.level, run_plan(fx.level, moves).state)


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
    bounds, plan = descend(fx.level, opt, budget=FAST, backend=backend)
    assert bounds.status is BoundStatus.OPTIMAL
    assert (bounds.lower, bounds.upper) == (opt, opt)
    assert plan is None                    # no probe succeeded


def test_descend_multi_step_drop(backend):
    """From a padded upper bound the probe jumps straight to the optimum:
    a satisfiable shorter horizon already carries trailing noops."""
    fx = load_fixture("soko_corridor")
    opt = fx.object_actions_optimal
    bounds, plan = descend(fx.level, opt + 3, budget=FAST, backend=backend)
    assert bounds.status is BoundStatus.OPTIMAL
    assert bounds.upper == opt
    # one SAT probe that skips several bounds, then the UNSAT certificate
    assert len(bounds.horizon_times) < (opt + 3 - opt) + 2
    assert plan is not None and plan.object_action_count == opt


def test_descend_zero_upper_bound(backend):
    fx = load_fixture("snow_done")
    bounds, plan = descend(fx.level, 0, budget=FAST, backend=backend)
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
    run = _Run(FAST, InProcessSolver())
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

    def solve(self, formula, budget=None, assumptions=()):
        self.calls.append(self.phase)
        return self.inner.solve(formula, budget, assumptions)


def test_horizon_times_count_every_sat_call(monkeypatch):
    """Each strategy reports one horizon time per SAT call it made; the
    hybrid lists ascend's calls first, then descend's."""
    fx = load_fixture("soko_pair")
    level, opt = fx.level, fx.object_actions_optimal
    counting = _CountingBackend()
    for mode in (Mode.FULL, Mode.COLLAPSED):
        counting.calls.clear()
        bounds, _ = solve_sequential(level, mode, budget=FAST,
                                     backend=counting)
        assert len(bounds.horizon_times) == len(counting.calls) > 1
    counting.calls.clear()
    bounds, _ = ascend_parallel(level, budget=FAST, backend=counting)
    assert len(bounds.horizon_times) == len(counting.calls) > 0
    counting.calls.clear()
    bounds, _ = descend(level, opt + 2, budget=FAST, backend=counting)
    assert len(bounds.horizon_times) == len(counting.calls) > 1

    # solve_hybrid calls both phases by module name, so wrappers see them
    counting.calls.clear()
    ascended = []

    def ascend(*args, **kwargs):
        counting.phase = "ascend"
        out = ascend_parallel(*args, **kwargs)
        ascended.extend(out[0].horizon_times)
        return out

    def descend_(*args, **kwargs):
        counting.phase = "descend"
        return descend(*args, **kwargs)

    monkeypatch.setattr(search, "ascend_parallel", ascend)
    monkeypatch.setattr(search, "descend", descend_)
    bounds, _ = solve_hybrid(level, budget=FAST, backend=counting)
    assert bounds.status is BoundStatus.OPTIMAL
    ups = len(ascended)
    assert counting.calls == ["ascend"] * ups + ["descend"] * (
        len(counting.calls) - ups)
    assert len(counting.calls) > ups > 0
    assert len(bounds.horizon_times) == len(counting.calls)
    assert bounds.horizon_times[:ups] == ascended


class _SlowBackend:
    """Answers correctly, but each call lasts 60% of its budget."""

    def solve(self, formula, budget=None, assumptions=()):
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
