"""The relaxed push geometry and the static lower bound it gives."""

import ast
import dataclasses
import itertools
import random
from pathlib import Path

import pytest

from snowplan import analysis
from snowplan.analysis import (_min_assignment, live_cells, lower_bound,
                               object_distances, push_directions,
                               push_distances)
from snowplan.fixtures import gen_random_level, list_fixtures, load_fixture
from snowplan.game import Direction, Metric, oracle_optimal
from snowplan.levels import GameTag, parse_level

# the two fixtures where one ball pays extra pushes the relaxation ignores
LOOSE = {"snow_pop2": (4, 5), "snow_tiny1": (4, 5)}


@pytest.mark.parametrize("name", list_fixtures())
def test_bound_against_fixture_optimum(name):
    """Equal to the frozen optimum on every solvable fixture but two, below
    it on those, and None on both levels with no solution."""
    fx = load_fixture(name)
    bound, opt = lower_bound(fx.level), fx.object_actions_optimal
    if opt is None:
        assert bound is None
    elif name in LOOSE:
        assert (bound, opt) == LOOSE[name]
    else:
        assert bound == opt


@pytest.mark.parametrize("game", list(GameTag))
def test_bound_below_oracle_on_random_rooms(game):
    """Open 6x6 rooms (three balls or two boxes) that the oracle solves."""
    solved = 0
    for seed in range(1, 31):
        level = gen_random_level(seed, dims=(6, 6), density=0.0, game=game,
                                 objects=3 if game is GameTag.SNOWMAN else 2)
        opt = oracle_optimal(level, Metric.OBJECT_ACTIONS)
        if opt is not None:
            solved += 1
            assert lower_bound(level) <= opt, seed
    assert solved >= 3


def test_sokoban_bound_is_a_matching_not_greedy():
    """Two boxes and three goals in one row: a greedy pick gives the west
    box the goal between the boxes (1 push) and leaves the east box 4
    pushes to the far west goal, 5 in all. The matching sends the west box
    west (2) and the east box onto the middle goal (1), the optimum 3."""
    level = parse_level("########\n#. $.$ #\n#  . @ #\n########",
                        GameTag.SOKOBAN)
    assert lower_bound(level) == 3
    assert oracle_optimal(level, Metric.OBJECT_ACTIONS) == 3
    assert lower_bound(dataclasses.replace(level, goals=frozenset())) is None


def test_min_assignment_matches_every_permutation():
    rng = random.Random(7)
    for _ in range(300):
        rows = rng.randint(1, 4)
        cols = rng.randint(rows, 5)
        cost = [[rng.randint(0, 9) for _ in range(cols)] for _ in range(rows)]
        best = min(sum(cost[i][j] for i, j in enumerate(perm))
                   for perm in itertools.permutations(range(cols), rows))
        assert _min_assignment(cost) == best, cost


def test_push_distances_follow_the_walls():
    """soko_corridor (#@$-.#): the box goes one cell west, or two east, and
    no further west, where no pushing cell lies behind it."""
    level = load_fixture("soko_corridor").level
    assert push_directions(level, (1, 2)) == [Direction.E, Direction.W]
    assert push_directions(level, (1, 1)) == []
    assert push_distances(level, (1, 2)) == {
        (1, 2): 0, (1, 3): 1, (1, 1): 1, (1, 4): 2}


def test_object_distances_one_table_per_ball():
    """snow_pop: the large and medium stacked at (1,4) share one table;
    the small at (2,3) has its own."""
    level = load_fixture("snow_pop").level
    large, medium, small = object_distances(level)
    assert large is medium and large == push_distances(level, (1, 4))
    assert small == push_distances(level, (2, 3))


def test_live_cells_are_those_with_a_push_route_to_a_target():
    """soko_corridor (#@$-.#): the goal (1,4) is reached from (1,3) and
    (1,2); the west cell (1,1) has no pushing cell behind it. A Sokoban
    level with no goal, and a snowman level where no cell is reachable by
    three balls, have no target: every floor cell is live."""
    level = load_fixture("soko_corridor").level
    assert live_cells(level, object_distances(level)) == {
        (1, 2), (1, 3), (1, 4)}
    no_goal = dataclasses.replace(level, goals=frozenset())
    assert live_cells(no_goal, object_distances(no_goal)) == no_goal.floor
    for name in ("snow_ring", "snow_selfblock"):
        level = load_fixture(name).level
        assert live_cells(level, object_distances(level)) == level.floor


def test_live_cells_hold_every_oracle_solvable_start():
    """Every ball or box of a solvable fixture starts on a live cell, and
    every Sokoban goal is live."""
    for name in list_fixtures():
        fx = load_fixture(name)
        if fx.object_actions_optimal is None:
            continue
        level = fx.level
        live = live_cells(level, object_distances(level))
        starts = {cell for cell, _ in level.stacks} | level.boxes
        assert starts <= live, name
        if level.game is GameTag.SOKOBAN:
            assert level.goals <= live, name



def test_pair_step_is_the_best_pair_of_distinct_balls():
    """`_pair_step` reads only the first two entries of each nearest-first
    list, yet equals the best over every pair of distinct balls."""
    rng = random.Random(5)
    for _ in range(500):
        first, second = (sorted((rng.randrange(5), i)
                                for i in rng.sample(range(6), rng.randrange(5)))
                         for _ in range(2))
        best = min((max(m, n) for m, i in first for n, j in second if i != j),
                   default=None)
        assert analysis._pair_step(first, second) == best


def test_bound_with_two_snowmen_is_zero():
    level = parse_level("#######\n#p1-2-#\n#-4-1-#\n#-2-4-#\n#######",
                        GameTag.SNOWMAN)
    assert level.snowman_count == 2
    assert lower_bound(level) == 0


def test_module_does_no_work_at_import():
    """Only `collections` and snowplan modules are imported, and the module
    body defines functions and nothing else."""
    tree = ast.parse(Path(analysis.__file__).read_text())
    for node in tree.body:
        if isinstance(node, ast.ImportFrom):
            assert node.level == 1 or node.module == "collections"
        elif isinstance(node, ast.Import):
            assert [a.name for a in node.names] == ["collections"]
        elif isinstance(node, ast.Expr):
            assert isinstance(node.value, ast.Constant)    # the docstring
        else:
            assert isinstance(node, ast.FunctionDef), ast.dump(node)
