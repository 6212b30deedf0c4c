"""Curated micro-levels with frozen oracle optima, and the fuzzing corpus
generator. Frozen fixtures pin expected values computed by the brute-force
oracle before any planner run; regenerating them must never change numbers
silently (that is a test failure, not a refresh).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

from .game import Metric, OracleCapError, oracle_optimal
from .levels import FORMATS, BallSize, GameTag, Level, parse_level, render

FIXTURE_DIR = Path(__file__).resolve().parent.parent.parent / "fixtures"


class FixtureError(Exception):
    pass


@dataclass
class Fixture:
    name: str
    level: Level
    moves_optimal: int | None
    object_actions_optimal: int | None
    flags: dict


def gen_random_level(seed: int, dims: tuple[int, int] = (5, 5),
                     density: float = 0.3, game: GameTag = GameTag.SNOWMAN,
                     objects: int = 3) -> Level:
    """Reproducible random level; solvability is not guaranteed."""
    rows, cols = dims
    if rows > 6 or cols > 6:
        raise ValueError("random levels are capped at 6x6 for oracle tractability")
    rng = random.Random(seed)
    interior = [(r, c) for r in range(1, rows - 1) for c in range(1, cols - 1)]
    floor = [c for c in interior if rng.random() >= density]
    needed = objects + 1 if game is GameTag.SNOWMAN else 2 * objects + 1
    if len(floor) < needed:
        raise FixtureError("wall density leaves too few floor cells")
    rng.shuffle(floor)
    agent, rest = floor[0], floor[1:]
    walls = {(r, c) for r in range(rows) for c in range(cols)
             if (r, c) not in floor}
    if game is GameTag.SNOWMAN:
        sizes = [BallSize(s) for s in ([1, 2, 3] * ((objects + 2) // 3))[:objects]]
        stacks = tuple(sorted(
            (cell, (size,)) for cell, size in zip(rest[:objects], sizes)))
        snow = frozenset(c for c in rest[objects:] if rng.random() < 0.2)
        return Level(rows, cols, frozenset(walls), snow, stacks,
                     frozenset(), frozenset(), agent, GameTag.SNOWMAN)
    boxes = frozenset(rest[:objects])
    goals = frozenset(rest[objects:2 * objects])
    return Level(rows, cols, frozenset(walls), frozenset(), (), boxes,
                 goals, agent, GameTag.SOKOBAN)


def freeze_fixture(level: Level, name: str, directory: Path | None = None,
                   cap: int = 1_000_000, flags: dict | None = None) -> Fixture:
    """Compute oracle optima and write the fixture file plus metadata
    sidecar. A level with no plan freezes with `None` (JSON `null`) optima;
    one whose oracle search passes `cap` states raises FixtureError."""
    directory = FIXTURE_DIR if directory is None else directory
    directory.mkdir(parents=True, exist_ok=True)
    try:
        moves = oracle_optimal(level, Metric.MOVES, cap)
        actions = oracle_optimal(level, Metric.OBJECT_ACTIONS, cap)
    except OracleCapError:
        raise FixtureError(f"oracle cap exceeded for fixture {name!r}") from None
    fixture = Fixture(name, level, moves, actions, flags or {})
    (directory / (name + FORMATS[level.game].suffix)).write_text(render(level))
    meta = {
        "name": name,
        "game": level.game.value,
        "moves_optimal": moves,
        "object_actions_optimal": actions,
        "flags": fixture.flags,
    }
    (directory / (name + ".json")).write_text(json.dumps(meta, indent=2) + "\n")
    return fixture


def load_fixture(name: str, directory: Path | None = None) -> Fixture:
    directory = FIXTURE_DIR if directory is None else directory
    meta = json.loads((directory / (name + ".json")).read_text())
    game = GameTag(meta["game"])
    text = (directory / (name + FORMATS[game].suffix)).read_text()
    return Fixture(
        name=name,
        level=parse_level(text, game),
        moves_optimal=meta["moves_optimal"],
        object_actions_optimal=meta["object_actions_optimal"],
        flags=meta.get("flags", {}),
    )


def list_fixtures(directory: Path | None = None) -> list[str]:
    directory = FIXTURE_DIR if directory is None else directory
    return sorted(p.stem for p in directory.glob("*.json"))
