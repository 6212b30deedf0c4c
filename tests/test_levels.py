"""Level parsing, rendering round-trips, and validation errors."""

import pytest

from snowplan.encoder import Mode
from snowplan.fixtures import FIXTURE_DIR
from snowplan.game import Metric, is_goal, oracle_optimal, run_plan
from snowplan.levels import (SUFFIXES, BallSize, GameTag, ParseError,
                             parse_level, render)
from snowplan.search import BoundStatus, solve_hybrid, solve_sequential

SNOW_TEXT = """\
#######
#p-1--#
#-2.4-#
#--7--#
#######
"""

SOKO_TEXT = """\
######
#@$-.#
######
"""


def test_parse_snowman_basic():
    level = parse_level(SNOW_TEXT, GameTag.SNOWMAN)
    assert level.game is GameTag.SNOWMAN
    assert level.agent == (1, 1)
    assert level.snow == {(2, 3)}
    stacks = level.stack_map()
    assert stacks[(1, 3)] == (BallSize.SMALL,)
    assert stacks[(2, 2)] == (BallSize.MEDIUM,)
    assert stacks[(2, 4)] == (BallSize.LARGE,)
    assert stacks[(3, 3)] == (BallSize.LARGE, BallSize.MEDIUM, BallSize.SMALL)
    assert level.snowman_count == 2


def test_snowman_round_trip():
    level = parse_level(SNOW_TEXT, GameTag.SNOWMAN)
    assert render(level) == SNOW_TEXT


def test_snowman_agent_on_snow():
    level = parse_level("#####\n#P7-#\n#####\n", GameTag.SNOWMAN)
    assert level.agent in level.snow
    assert render(level) == "#####\n#P7-#\n#####\n"


def test_snowman_all_digits_round_trip():
    text = "#########\n#1234567#\n#p------#\n#########\n"
    # 1+1+2+1+2+2+3 = 12 balls, divisible by 3
    level = parse_level(text, GameTag.SNOWMAN)
    assert render(level) == text


@pytest.mark.parametrize("bad", [
    "",
    "#####\n#p7#\n#####\n",        # not rectangular
    "#####\n#pp7#\n#####\n",       # duplicate agent
    "#####\n#-17#\n#####\n",       # missing agent
    "#####\n#p17#\n#####\n",       # ball count not divisible by 3
    "#####\n#p?7#\n#####\n",       # unknown character
    "####\n#p7#\n#--#\n-###\n",    # hole in the border
    "#####\n#p$7#\n#####\n",       # a Sokoban glyph
])
def test_parse_snowman_rejects(bad):
    with pytest.raises(ParseError):
        parse_level(bad, GameTag.SNOWMAN)


def test_parse_sokoban_basic():
    level = parse_level(SOKO_TEXT, GameTag.SOKOBAN)
    assert level.game is GameTag.SOKOBAN
    assert level.agent == (1, 1)
    assert level.boxes == {(1, 2)}
    assert level.goals == {(1, 4)}
    assert level.stacks == ()


def test_sokoban_round_trip():
    level = parse_level(SOKO_TEXT, GameTag.SOKOBAN)
    assert render(level) == SOKO_TEXT


def test_sokoban_overlay_glyphs():
    level = parse_level("######\n#+$*-#\n######\n", GameTag.SOKOBAN)
    assert level.agent == (1, 1)
    assert level.agent in level.goals
    assert level.boxes == {(1, 2), (1, 3)}
    assert (1, 3) in level.goals
    assert render(level) == "######\n#+$*-#\n######\n"


def test_sokoban_pads_ragged_lines():
    level = parse_level("#####\n#@$.#\n####\n", GameTag.SOKOBAN)
    assert level.rows == 3 and level.cols == 5
    assert (2, 4) in level.walls       # padded exterior cell counts as wall


def test_sokoban_exterior_becomes_wall():
    text = "-#####\n-#@$.#\n-#####\n"
    level = parse_level(text, GameTag.SOKOBAN)
    assert (0, 0) in level.walls
    assert (1, 0) in level.walls
    assert (1, 2) == level.agent
    # the exterior spreads past the border: (1,1) joins it through (1,0)
    level = parse_level("  ####\n  #@ #\n###$ #\n#  . #\n######\n",
                        GameTag.SOKOBAN)
    assert (1, 1) in level.walls
    assert len(level.floor) == 8
    assert oracle_optimal(level, Metric.OBJECT_ACTIONS) == 1


@pytest.mark.parametrize("bad", [
    "#####\n#@$-#\n#####\n",   # more boxes than goals
    "######\n#@$$.#\n######\n",  # two boxes, one goal
    "#####\n#@@.#\n#####\n",   # needs a box; also duplicate agent
    "#####\n#-$.#\n#####\n",   # missing agent
    "#####\n#@x.#\n#####\n",   # unknown character
    "######\n#@$7.#\n######\n",  # a snowman glyph
    "  ####\n $#@.#\n  ####\n",     # a box outside the walls
])
def test_parse_sokoban_rejects(bad):
    with pytest.raises(ParseError):
        parse_level(bad, GameTag.SOKOBAN)


# two boxes, three goals: the middle goal lies between the boxes
SPARE_GOALS = "########\n#.-$.$-#\n#--.-@-#\n########\n"


def test_sokoban_spare_goals_round_trip():
    level = parse_level(SPARE_GOALS, GameTag.SOKOBAN)
    assert (len(level.boxes), len(level.goals)) == (2, 3)
    assert render(level) == SPARE_GOALS


@pytest.mark.parametrize("mode", ["hybrid", Mode.COLLAPSED])
def test_sokoban_spare_goals_solve_to_the_oracle(mode, backend):
    level = parse_level(SPARE_GOALS, GameTag.SOKOBAN)
    assert oracle_optimal(level, Metric.OBJECT_ACTIONS) == 3
    if mode == "hybrid":
        bounds, moves = solve_hybrid(level, budget=60.0, backend=backend)
    else:
        bounds, moves = solve_sequential(level, mode, budget=60.0,
                                         backend=backend)
    assert bounds.status is BoundStatus.OPTIMAL and bounds.upper == 3
    assert is_goal(level, run_plan(level, moves).state)


def test_every_fixture_file_round_trips():
    paths = [p for p in sorted(FIXTURE_DIR.iterdir()) if p.suffix in SUFFIXES]
    assert len(paths) >= 15
    for path in paths:
        text = path.read_text()
        assert render(parse_level(text, SUFFIXES[path.suffix])) == text, path.name


def test_parse_level_dispatch():
    assert parse_level(SNOW_TEXT, GameTag.SNOWMAN).game is GameTag.SNOWMAN
    assert parse_level(SOKO_TEXT, GameTag.SOKOBAN).game is GameTag.SOKOBAN


def test_floor_and_is_wall():
    level = parse_level(SOKO_TEXT, GameTag.SOKOBAN)
    assert (1, 1) in level.floor
    assert (0, 0) not in level.floor
    assert level.is_wall((0, 0))
    assert level.is_wall((-1, 3))      # out of bounds counts as wall
    assert not level.is_wall((1, 3))
