"""Game semantics: moves, rolls, pushes, pops, snow growth, and the oracle."""

import pytest

from snowplan.fixtures import load_fixture
from snowplan.game import (ActionKind, Direction, Metric, OracleCapError,
                           agent_region, classify, initial_state, is_goal,
                           oracle_optimal, run_plan)
from snowplan.levels import BallSize, GameTag, parse_level

E, W, N, S = Direction.E, Direction.W, Direction.N, Direction.S


def snow(text):
    return parse_level(text, GameTag.SNOWMAN)


def soko(text):
    return parse_level(text, GameTag.SOKOBAN)


def test_move_and_wall_rejection():
    level = snow("######\n#p-7-#\n######\n")
    state = initial_state(level)
    assert classify(level, state, N) is None
    kind, nxt = classify(level, state, E)
    assert kind is ActionKind.MOVE
    assert nxt.agent == (1, 2)


def test_roll_moves_ball_and_agent():
    level = snow("######\n#p1--#\n#--6-#\n######\n")
    state = initial_state(level)
    kind, nxt = classify(level, state, E)
    assert kind is ActionKind.ROLL
    assert nxt.agent == (1, 2)
    assert nxt.stack_map()[(1, 3)] == (BallSize.SMALL,)


def test_roll_grows_on_snow_and_clears_it():
    level = snow("######\n#p1.-#\n#--6-#\n######\n")
    state = initial_state(level)
    kind, nxt = classify(level, state, E)
    assert kind is ActionKind.ROLL
    assert nxt.stack_map()[(1, 3)] == (BallSize.MEDIUM,)
    assert (1, 3) not in nxt.snow


def test_large_ball_does_not_grow():
    level = snow("######\n#p4.-#\n#-12-#\n######\n")
    state = initial_state(level)
    kind, nxt = classify(level, state, E)
    assert kind is ActionKind.ROLL
    assert nxt.stack_map()[(1, 3)] == (BallSize.LARGE,)
    assert (1, 3) not in nxt.snow      # snow is consumed regardless


def test_push_small_onto_bigger():
    level = snow("######\n#p12-#\n#--4-#\n######\n")
    state = initial_state(level)
    kind, nxt = classify(level, state, E)
    assert kind is ActionKind.PUSH
    assert nxt.agent == (1, 2)
    assert nxt.stack_map()[(1, 3)] == (BallSize.MEDIUM, BallSize.SMALL)


def test_push_equal_or_bigger_rejected():
    level = snow("######\n#p21-#\n#--4-#\n######\n")
    state = initial_state(level)
    assert classify(level, state, E) is None
    level2 = snow("######\n#p11-#\n#--4-#\n######\n")
    assert classify(level2, initial_state(level2), E) is None


def test_pop_top_off_stack_agent_stays():
    level = snow("######\n#p3-1#\n######\n")
    state = initial_state(level)
    kind, nxt = classify(level, state, E)
    assert kind is ActionKind.POP
    assert nxt.agent == (1, 1)          # popping does not move the agent
    stacks = nxt.stack_map()
    assert stacks[(1, 2)] == (BallSize.MEDIUM,)
    assert stacks[(1, 3)] == (BallSize.SMALL,)


def test_pop_onto_snow_grows():
    level = snow("######\n#p3.1#\n######\n")
    state = initial_state(level)
    kind, nxt = classify(level, state, E)
    assert kind is ActionKind.POP
    assert nxt.stack_map()[(1, 3)] == (BallSize.MEDIUM,)
    assert (1, 3) not in nxt.snow


def test_pop_blocked_by_occupied_cell():
    level = snow("######\n#p32-#\n######\n")
    state = initial_state(level)
    assert classify(level, state, E) is None


def test_sokoban_push_and_block():
    level = soko("######\n#@$-.#\n######\n")
    state = initial_state(level)
    kind, nxt = classify(level, state, E)
    assert kind is ActionKind.ROLL
    assert nxt.boxes == {(1, 3)}
    assert nxt.agent == (1, 2)
    blocked = soko("#####\n#@$.#\n#####\n")
    st = initial_state(blocked)
    kind, done = classify(blocked, st, E)
    assert done.boxes == {(1, 3)}
    # pushing into a wall is rejected
    assert classify(blocked, done, E) is None


def test_sokoban_box_chain_rejected():
    level = soko("#######\n#@$$..#\n#######\n")
    assert classify(level, initial_state(level), E) is None


def test_goal_tests():
    done = snow("#####\n#p7-#\n#####\n")
    assert is_goal(done, initial_state(done))
    partial = snow("#####\n#p34#\n#####\n")
    assert not is_goal(partial, initial_state(partial))
    soko_done = soko("#####\n#@*-#\n#####\n")
    assert is_goal(soko_done, initial_state(soko_done))


def test_run_plan_reports_rejection_index():
    level = snow("######\n#p-7-#\n######\n")
    result = run_plan(level, [E, N])
    assert not result.ok
    assert result.rejected_at == 1


def test_run_plan_success():
    level = soko("######\n#@$-.#\n######\n")
    result = run_plan(level, [E, E])
    assert result.ok
    assert is_goal(level, result.state)


def test_agent_region_blocked_by_objects():
    level = snow("#######\n#p-7--#\n#######\n")
    region = agent_region(level, initial_state(level))
    assert region == {(1, 1), (1, 2)}


def test_oracle_moves_fixture_values():
    for name in ("snow_tiny1", "soko_corridor", "snow_pop"):
        fx = load_fixture(name)
        assert oracle_optimal(fx.level, Metric.MOVES) == fx.moves_optimal


def test_oracle_object_actions_fixture_values():
    for name in ("snow_tiny1", "soko_two", "snow_pop"):
        fx = load_fixture(name)
        assert (oracle_optimal(fx.level, Metric.OBJECT_ACTIONS)
                == fx.object_actions_optimal)


def test_oracle_solved_at_start_is_zero():
    fx = load_fixture("snow_done")
    assert oracle_optimal(fx.level, Metric.MOVES) == 0
    assert oracle_optimal(fx.level, Metric.OBJECT_ACTIONS) == 0


def test_oracle_past_cap_raises():
    """Past its cap the oracle raises rather than answer: its None means
    only that the level has no plan."""
    fx = load_fixture("snow_tiny1")
    with pytest.raises(OracleCapError):
        oracle_optimal(fx.level, Metric.MOVES, cap=2)
