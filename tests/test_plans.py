"""Model decoding, LURD strings, and run records."""

import pytest

from snowplan.encoder import EncodingConfig, Mode, ReachKind, encode
from snowplan.fixtures import load_fixture
from snowplan.game import ActionKind, Direction
from snowplan.plans import (DecodeError, LurdError, ObjectAction, ParallelPlan,
                            RunRecord, Step, parse_lurd, to_lurd,
                            validate_lurd, decode)
from snowplan.solvers import Status, solve


def test_step_validation():
    act = ObjectAction(ActionKind.ROLL, (1, 2), Direction.E)
    with pytest.raises(ValueError):
        Step()                                   # empty step
    with pytest.raises(ValueError):
        Step(actions=frozenset({act}), jump=(1, 1))


def test_object_action_geometry():
    act = ObjectAction(ActionKind.PUSH, (2, 3), Direction.N)
    assert act.pushing_cell == (3, 3)
    assert act.destination == (1, 3)


def test_decode_full_model(backend):
    fx = load_fixture("soko_corridor")
    encoding = encode(fx.level, EncodingConfig(Mode.FULL, fx.moves_optimal))
    out = solve(encoding.formula, backend=backend, assumptions=[encoding.goal])
    assert out.status is Status.SAT
    moves = decode(encoding, out.model)
    assert all(isinstance(d, Direction) for d in moves)
    assert len(moves) == fx.moves_optimal
    assert to_lurd(fx.level, moves) == "RR"


def test_decode_collapsed_model(backend):
    fx = load_fixture("snow_pop")
    encoding = encode(fx.level, EncodingConfig(Mode.COLLAPSED,
                                               fx.object_actions_optimal))
    out = solve(encoding.formula, backend=backend, assumptions=[encoding.goal])
    plan = decode(encoding, out.model)
    assert isinstance(plan, ParallelPlan)
    assert all(len(step.actions) == 1 for step in plan.steps)
    assert plan.object_action_count == fx.object_actions_optimal


def test_decode_parallel_model(backend):
    fx = load_fixture("soko_pair")
    encoding = encode(fx.level, EncodingConfig(Mode.PARALLEL, 1, ReachKind.TREE))
    out = solve(encoding.formula, backend=backend, assumptions=[encoding.goal])
    plan = decode(encoding, out.model)
    assert plan.object_action_count == 2


def test_decode_zero_horizon(backend):
    fx = load_fixture("snow_done")
    encoding = encode(fx.level, EncodingConfig(Mode.COLLAPSED, 0))
    out = solve(encoding.formula, backend=backend, assumptions=[encoding.goal])
    plan = decode(encoding, out.model)
    assert plan.steps == []


def test_parse_lurd_round_trip():
    parsed = parse_lurd("lUrD")
    assert parsed == [(Direction.W, False), (Direction.N, True),
                      (Direction.E, False), (Direction.S, True)]


def test_parse_lurd_rejects_garbage():
    with pytest.raises(LurdError):
        parse_lurd("luxd")


def test_to_lurd_assigns_case_by_simulation():
    level = load_fixture("soko_corridor").level   # #@$-.# corridor
    moves = [Direction.E, Direction.E]
    assert to_lurd(level, moves) == "RR"          # both moves push the box


def test_to_lurd_rejects_invalid_plan():
    level = load_fixture("soko_corridor").level
    with pytest.raises(LurdError):
        to_lurd(level, [Direction.N])


def test_validate_lurd_success():
    level = load_fixture("soko_corridor").level
    summary = validate_lurd(level, "RR")
    assert summary == {"goal": True, "moves": 2, "object_actions": 2}


def test_validate_lurd_catches_wrong_case():
    level = load_fixture("soko_corridor").level
    with pytest.raises(LurdError, match="case annotation"):
        validate_lurd(level, "Rr")


def test_validate_lurd_not_at_goal():
    level = load_fixture("soko_two").level
    # single legal non-solving walk
    moves = to_lurd(level, [d for d in Direction
                            if level.is_wall(d.apply(level.agent))
                            is False][:1])
    summary = validate_lurd(level, moves)
    assert summary["goal"] is False


def test_run_record_round_trip():
    record = RunRecord(instance="x", game="sokoban", mode="hybrid",
                       reach="path", lb=2, ub=2, status="optimal",
                       horizon_times=[0.1, 0.2], seed=7, backend="default",
                       lurd="RR")
    again = RunRecord.from_json(record.to_json())
    assert again == record


def test_run_record_from_json_needs_required_fields():
    """A truncated line raises; absent optional fields take their
    defaults."""
    with pytest.raises(TypeError):
        RunRecord.from_json("{}")
    line = ('{"instance": "x", "game": "sokoban", "mode": "hybrid", '
            '"reach": "path", "lb": 2, "ub": 2, "status": "optimal"}')
    record = RunRecord.from_json(line)
    assert (record.horizon_times, record.phase_times, record.backend) == (
        [], {}, "")


def test_run_record_stable_key_ignores_timing():
    a = RunRecord("x", "sokoban", "hybrid", "path", 2, 2, "optimal",
                  horizon_times=[0.1], lurd="RR")
    b = RunRecord("x", "sokoban", "hybrid", "path", 2, 2, "optimal",
                  horizon_times=[9.9], lurd="RR")
    assert a != b
    assert a.stable_key() == b.stable_key()
    c = RunRecord("x", "sokoban", "hybrid", "path", 2, 3, "bounded",
                  horizon_times=[0.1], lurd="RR")
    assert a.stable_key() != c.stable_key()


# -- decode errors ------------------------------------------------------


def _model(fixture, mode, horizon, backend):
    """A solved encoding and a copy of its model, ready to corrupt."""
    level = load_fixture(fixture).level
    encoding = encode(level, EncodingConfig(mode, horizon))
    out = solve(encoding.formula, backend=backend, assumptions=[encoding.goal])
    assert out.status is Status.SAT
    decode(encoding, out.model)          # the true model decodes
    return encoding, dict(out.model)


@pytest.mark.parametrize("count", [0, 2])
def test_decode_rejects_direction_count(count, backend):
    encoding, model = _model("soko_corridor", Mode.FULL, 2, backend)
    dirs = list(encoding.dirs[1].values())
    for i, var in enumerate(dirs):
        model[var] = i < count
    with pytest.raises(DecodeError, match=f"{count} directions set at step 1"):
        decode(encoding, model)


def test_decode_rejects_two_jumps(backend):
    encoding, model = _model("soko_pair", Mode.PARALLEL, 1, backend)
    for var in list(encoding.jumps[0].values())[:2]:
        model[var] = True
    for *_, var in encoding.actions[0]:
        model[var] = False
    with pytest.raises(DecodeError, match="two jump destinations at step 0"):
        decode(encoding, model)


def test_decode_rejects_jump_with_object_action(backend):
    encoding, model = _model("soko_pair", Mode.PARALLEL, 1, backend)
    assert any(model[var] for *_, var in encoding.actions[0])
    model[next(iter(encoding.jumps[0].values()))] = True
    with pytest.raises(DecodeError, match="jump step 0 also carries"):
        decode(encoding, model)


def test_decode_rejects_noop_with_action(backend):
    encoding, model = _model("soko_corridor", Mode.DESCEND, 3, backend)
    t = next(t for t, noop in enumerate(encoding.noops) if not model[noop])
    model[encoding.noops[t]] = True
    with pytest.raises(DecodeError, match=f"noop step {t} also carries"):
        decode(encoding, model)


def test_decode_rejects_two_sequential_actions(backend):
    encoding, model = _model("snow_pop", Mode.COLLAPSED, 2, backend)
    model[next(var for *_, var in encoding.actions[0] if not model[var])] = True
    with pytest.raises(DecodeError, match="sequential step 0 has multiple"):
        decode(encoding, model)


@pytest.mark.parametrize("mode", [Mode.COLLAPSED, Mode.PARALLEL])
def test_decode_rejects_empty_step(mode, backend):
    encoding, model = _model("soko_corridor", mode, 2, backend)
    jumps = encoding.jumps[1].values() if mode is Mode.PARALLEL else ()
    for var in [var for *_, var in encoding.actions[1]] + list(jumps):
        model[var] = False
    with pytest.raises(DecodeError, match="step 1 has no action"):
        decode(encoding, model)

