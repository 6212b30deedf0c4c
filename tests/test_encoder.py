"""Encoder correctness: minimal horizons match the oracle, modes agree
across reachability encodings, and the descend/noop machinery behaves."""

import pytest

from snowplan.encoder import (EncodingConfig, Mode, ReachKind, encode,
                              encode_collapsed, encode_descend, encode_full,
                              encode_parallel)
from snowplan.fixtures import load_fixture
from snowplan.game import Direction, is_goal, run_plan
from snowplan.plans import decode
from snowplan.search import serialize
from snowplan.solvers import Status, solve

REACHES = list(ReachKind)


def _status(encoding, backend):
    return solve(encoding.formula, backend=backend).status


def _sat(encoding, backend):
    return _status(encoding, backend) is Status.SAT


def _min_horizon(encode_at, opt, backend):
    """Check UNSAT strictly below opt and SAT at opt."""
    for T in range(opt):
        assert _status(encode_at(T), backend) is Status.UNSAT, T
    outcome = solve(encode_at(opt).formula, backend=backend)
    assert outcome.status is Status.SAT
    return outcome


def test_horizon_zero_solved_level(backend):
    fx = load_fixture("snow_done")
    for make in (encode_full, lambda l, T: encode_collapsed(l, T)):
        assert _sat(make(fx.level, 0), backend)


def test_horizon_zero_unsolved_level(backend):
    fx = load_fixture("snow_pop")
    assert _status(encode_full(fx.level, 0), backend) is Status.UNSAT
    assert _status(encode_collapsed(fx.level, 0), backend) is Status.UNSAT


@pytest.mark.parametrize("name", ["snow_pop", "soko_corridor"])
def test_full_minimal_horizon_is_oracle_moves(name, backend):
    fx = load_fixture(name)
    _min_horizon(lambda T: encode_full(fx.level, T), fx.moves_optimal, backend)


@pytest.mark.parametrize("name", ["snow_pop", "soko_corridor", "soko_l"])
@pytest.mark.parametrize("reach", REACHES)
def test_collapsed_minimal_horizon_is_oracle_actions(name, reach, backend):
    fx = load_fixture(name)
    _min_horizon(lambda T: encode_collapsed(fx.level, T, reach),
                 fx.object_actions_optimal, backend)


@pytest.mark.parametrize("reach", REACHES)
def test_parallel_packs_independent_actions(reach, backend):
    """Two non-interfering pushes fit into a single parallel step."""
    fx = load_fixture("soko_pair")
    assert fx.object_actions_optimal == 2
    outcome = _min_horizon(
        lambda T: encode_parallel(fx.level, T, reach), 1, backend)
    encoding = encode_parallel(fx.level, 1, reach)
    plan = decode(encoding, solve(encoding.formula, backend=backend).model)
    assert plan.object_action_count == 2
    assert len(plan.steps) == 1


@pytest.mark.parametrize("reach", REACHES)
def test_parallel_never_beats_collapsed(reach, backend):
    fx = load_fixture("snow_pop")
    opt = fx.object_actions_optimal
    parallel_min = next(
        T for T in range(opt + 1)
        if _sat(encode_parallel(fx.level, T, reach), backend))
    assert parallel_min <= opt


def test_descend_probes(backend):
    """At the optimum: SAT with no noops. Below: UNSAT. Padded: trailing
    noops keep the non-noop count at the optimum."""
    fx = load_fixture("snow_pop")
    opt = fx.object_actions_optimal
    outcome = solve(encode_descend(fx.level, opt).formula, backend=backend)
    assert outcome.status is Status.SAT
    encoding = encode_descend(fx.level, opt)
    plan = decode(encoding, solve(encoding.formula, backend=backend).model)
    assert plan.object_action_count == opt

    assert _status(encode_descend(fx.level, opt - 1), backend) is Status.UNSAT

    # a padded horizon stays satisfiable even when the action count is
    # capped at the optimum: the surplus steps become trailing noops
    padded = encode_descend(fx.level, opt + 2, action_budget=opt)
    out = solve(padded.formula, backend=backend)
    assert out.status is Status.SAT
    plan = decode(padded, out.model)
    assert plan.object_action_count == opt
    assert len(plan.steps) == opt      # the two noop steps were skipped


def test_descend_action_budget(backend):
    fx = load_fixture("snow_pop")
    opt = fx.object_actions_optimal
    tight = encode_descend(fx.level, opt + 2, action_budget=opt)
    assert _sat(tight, backend)
    too_tight = encode_descend(fx.level, opt + 2, action_budget=opt - 1)
    assert not _sat(too_tight, backend)


def _action_var(encoding, kind, cell, direction, t):
    return encoding.var(f"{kind}[{cell[0]},{cell[1]},{direction},{t}]")


def test_interference_pair_not_parallelizable(backend):
    """Two rolls that are individually feasible cannot share a step: each
    one's destination blocks the other's pushing-cell approach."""
    fx = load_fixture("snow_ring")
    (k1, r1, c1, d1), (k2, r2, c2, d2) = fx.flags["interference_pair"]
    for kind, r, c, d in ((k1, r1, c1, d1), (k2, r2, c2, d2)):
        enc = encode_parallel(fx.level, 1, assert_goal=False)
        enc.formula.add_clause([_action_var(enc, kind, (r, c), d, 0)])
        assert _sat(enc, backend)
    enc = encode_parallel(fx.level, 1, assert_goal=False)
    enc.formula.add_clause([_action_var(enc, k1, (r1, c1), d1, 0)])
    enc.formula.add_clause([_action_var(enc, k2, (r2, c2), d2, 0)])
    assert not _sat(enc, backend)


def test_interference_pair_matches_simulator():
    """The simulator agrees: neither ordering of the two rolls works in
    sequence without extra actions in between."""
    from snowplan.game import classify, initial_state, agent_region
    from snowplan.plans import ObjectAction

    fx = load_fixture("snow_ring")
    pair = [ObjectAction(k, (r, c), Direction[d])
            for k, r, c, d in fx.flags["interference_pair"]]
    for first, second in (pair, pair[::-1]):
        state = initial_state(fx.level)
        assert first.pushing_cell in agent_region(fx.level, state)
        from snowplan.game import GameState
        placed = GameState(first.pushing_cell, state.snow, state.stacks,
                           state.boxes)
        result = classify(fx.level, placed, first.direction)
        assert result is not None
        after = result[1]
        assert second.pushing_cell not in agent_region(fx.level, after)


def test_self_blocking_action_needs_jump(backend):
    """An action whose own destination cuts the agent's approach is
    infeasible in one parallel step but feasible after a jump."""
    fx = load_fixture("snow_selfblock")
    kind, r, c, d = fx.flags["self_block_action"]
    jr, jc = fx.flags["jump_cell"]

    enc = encode_parallel(fx.level, 1, assert_goal=False)
    enc.formula.add_clause([_action_var(enc, kind, (r, c), d, 0)])
    assert not _sat(enc, backend)

    enc = encode_parallel(fx.level, 2, assert_goal=False)
    enc.formula.add_clause([enc.var(f"jump[{jr},{jc},0]")])
    enc.formula.add_clause([_action_var(enc, kind, (r, c), d, 1)])
    assert _sat(enc, backend)


@pytest.mark.parametrize("reach", REACHES)
def test_reach_kinds_agree_on_status(reach, backend):
    """Same SAT/UNSAT answer for every reachability encoding, per horizon."""
    fx = load_fixture("snow_tiny3")
    opt = fx.object_actions_optimal
    for T in (opt - 1, opt):
        want = T >= opt
        assert _sat(encode_collapsed(fx.level, T, reach), backend) is want


def test_invariants_do_not_change_status(backend):
    fx = load_fixture("snow_pop")
    opt = fx.object_actions_optimal
    for T, want in ((opt - 1, False), (opt, True)):
        enc = encode_collapsed(fx.level, T, invariants_on=False)
        assert _sat(enc, backend) is want
    opt = fx.moves_optimal
    for invariants_on in (True, False):
        for T, want in ((opt - 1, False), (opt, True)):
            enc = encode_full(fx.level, T, invariants_on=invariants_on)
            assert _sat(enc, backend) is want, (invariants_on, T)


@pytest.mark.parametrize("mode", list(Mode))
def test_extension_appends_layers_once(mode, backend):
    """An incremental encoding grown horizon by horizon holds the one-shot
    encoding's variables plus one goal[T] per horizon, and under goal[T]
    answers like the one-shot encoding at T."""
    fx = load_fixture("snow_pop")
    opt = fx.moves_optimal if mode is Mode.FULL else fx.object_actions_optimal
    encoding = None
    for T in range(opt + 1):
        encoding = encode(fx.level, EncodingConfig(mode, T), encoding,
                          incremental=True)
        assert encoding.goal == encoding.var(f"goal[{T}]")
        one_shot = encode(fx.level, EncodingConfig(mode, T))
        assert encoding.formula.num_vars == one_shot.formula.num_vars + T + 1
        out = solve(encoding.formula, backend=backend,
                    assumptions=[encoding.goal])
        assert out.status is _status(one_shot, backend)
    plan = decode(encoding, out.model)
    moves = plan.moves if mode is Mode.FULL else serialize(fx.level, plan)
    assert is_goal(fx.level, run_plan(fx.level, moves).state)


def test_extension_rejects_other_configs():
    level = load_fixture("snow_pop").level
    one_shot = encode(level, EncodingConfig(Mode.COLLAPSED, 1))
    with pytest.raises(ValueError):
        encode(level, EncodingConfig(Mode.COLLAPSED, 2), one_shot)
    grown = encode(level, EncodingConfig(Mode.COLLAPSED, 1), incremental=True)
    with pytest.raises(ValueError):
        encode(level, EncodingConfig(Mode.COLLAPSED, 2, ReachKind.DAG), grown)
    with pytest.raises(ValueError):
        encode(level, EncodingConfig(Mode.DESCEND, 2, action_budget=1),
               incremental=True)
