"""Fixture corpus integrity and the random level generator."""

import json

import pytest

from snowplan.fixtures import (FIXTURE_DIR, FixtureError, freeze_fixture,
                               gen_random_level, list_fixtures, load_fixture)
from snowplan.levels import GameTag, parse_level, render


def test_corpus_is_present():
    names = list_fixtures()
    assert len(names) >= 15
    frozen = [n for n in names
              if load_fixture(n).object_actions_optimal is not None]
    assert len(frozen) >= 10


def test_frozen_values_still_match_oracle(tmp_path):
    """The sidecar numbers were computed before the planner existed; the
    oracle must still reproduce them exactly. Re-freezing every fixture,
    with its own flags, writes back the committed files byte for byte,
    the levels with no plan (`null` optima) included."""
    names = list_fixtures()
    for name in names:
        fx = load_fixture(name)
        freeze_fixture(fx.level, name, tmp_path, flags=fx.flags)
    committed = [p for p in sorted(FIXTURE_DIR.iterdir()) if p.stem in names]
    assert len(committed) == 2 * len(names)
    for path in committed:
        assert (tmp_path / path.name).read_bytes() == path.read_bytes(), path.name


def test_freeze_round_trip(tmp_path):
    level = parse_level("######\n#@$-.#\n######\n", GameTag.SOKOBAN)
    fx = freeze_fixture(level, "demo", tmp_path, flags={"k": 1})
    assert (fx.moves_optimal, fx.object_actions_optimal) == (2, 2)
    again = load_fixture("demo", tmp_path)
    assert render(again.level) == render(level)
    assert again.object_actions_optimal == 2
    assert again.flags == {"k": 1}
    meta = json.loads((tmp_path / "demo.json").read_text())
    assert meta["game"] == "sokoban"


def test_freeze_cap_exceeded(tmp_path):
    level = parse_level("######\n#@$-.#\n######\n", GameTag.SOKOBAN)
    with pytest.raises(FixtureError):
        freeze_fixture(level, "capped", tmp_path, cap=1)


def test_gen_random_level_reproducible():
    a = gen_random_level(5)
    b = gen_random_level(5)
    assert a == b
    assert a != gen_random_level(6)
    assert a.game is GameTag.SNOWMAN


def test_gen_random_level_sokoban_shape():
    level = gen_random_level(9, game=GameTag.SOKOBAN, objects=2)
    assert len(level.boxes) == 2
    assert len(level.goals) == 2
    assert level.agent not in level.walls


def test_gen_random_level_size_cap():
    with pytest.raises(ValueError):
        gen_random_level(1, dims=(7, 7))
