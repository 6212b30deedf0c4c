"""Benchmark harness: discovery, PAR-2 scoring, and error isolation."""

import json
from dataclasses import replace
from pathlib import Path

import pytest

from snowplan import bench, search
from snowplan.bench import (BenchReport, BenchRun, discover_levels,
                            load_level_file, par2_score, run_bench,
                            run_instance)
from snowplan.encoder import ReachKind
from snowplan.fixtures import FIXTURE_DIR, load_fixture
from snowplan.levels import FORMATS, GameTag, parse_level
from snowplan.game import ActionKind, Direction
from snowplan.plans import ObjectAction, ParallelPlan, RunRecord, Step
from snowplan.solvers import SOLVER_CMD_ENV


def test_par2_arithmetic():
    assert par2_score([1.0, 2.0], 0, 10.0) == 3.0
    assert par2_score([1.0], 1, 10.0) == 21.0
    assert par2_score([], 0, 10.0) == 0.0


def test_report_par2_and_timeouts():
    report = BenchReport(limit=10.0, runs=[
        BenchRun("a", "path", True, 1.0),
        BenchRun("b", "path", False, 10.0),
        BenchRun("a", "tree", True, 2.0),
    ])
    assert report.par2("path") == 1.0 + 20.0
    assert report.par2("tree") == 2.0
    assert report.par2() == 23.0
    assert report.timeouts("path") == 1
    summary = report.summary()
    assert summary["path"] == {"par2": 21.0, "timeouts": 1, "instances": 2}


def test_discover_levels_filters_by_suffix(tmp_path):
    (tmp_path / "a.snw").write_text("#####\n#p7-#\n#####\n")
    (tmp_path / "b.xsb").write_text("#####\n#@*-#\n#####\n")
    (tmp_path / "c.txt").write_text("ignored")
    found = discover_levels(tmp_path)
    assert [(p.name, g) for p, g in found] == [
        ("a.snw", GameTag.SNOWMAN), ("b.xsb", GameTag.SOKOBAN)]


def test_load_level_file_infers_game():
    level = load_level_file(FIXTURE_DIR / "soko_corridor.xsb")
    assert level.game is GameTag.SOKOBAN
    with pytest.raises(ValueError) as info:
        load_level_file(Path("nope.txt"))
    assert all(fmt.suffix in str(info.value) for fmt in FORMATS.values())


def test_run_instance_produces_record(backend):
    fx = load_fixture("soko_corridor")
    run = run_instance(fx.level, "soko_corridor", ReachKind.TREE,
                       backend=backend)
    assert run.solved
    assert run.error is None
    record = run.record
    assert record.status == "optimal"
    assert record.ub == fx.object_actions_optimal
    assert record.lurd == "RR"


def test_record_names_resolved_default_backend(monkeypatch, tmp_path):
    """With no backend passed, no solver command set and no solver on PATH,
    the record names the bundled solver that ran."""
    monkeypatch.delenv(SOLVER_CMD_ENV, raising=False)
    monkeypatch.setenv("PATH", str(tmp_path))
    fx = load_fixture("soko_corridor")
    run = run_instance(fx.level, "soko_corridor", ReachKind.PATH)
    assert run.solved
    assert run.record.backend == "InProcessSolver()"


def test_hybrid_record_carries_phase_times(backend):
    """A hybrid record holds its ascend and descend seconds as a timing
    field: stable_key leaves them out, and old lines without them load."""
    fx = load_fixture("soko_pair")
    record = run_instance(fx.level, "soko_pair", ReachKind.DAG,
                          backend=backend).record
    assert set(record.phase_times) == {"ascend", "descend"}
    assert all(t >= 0 for t in record.phase_times.values())
    assert RunRecord.from_json(record.to_json()) == record
    assert record.stable_key() == replace(record, phase_times={}).stable_key()
    assert "phase_times" not in json.loads(record.stable_key())
    old = json.loads(record.to_json())
    del old["phase_times"]
    assert RunRecord.from_json(json.dumps(old)).phase_times == {}


@pytest.mark.parametrize("mode", ["full", "collapsed"])
def test_sequential_plan_short_of_goal_is_an_error(mode, monkeypatch):
    """A FULL or COLLAPSED plan is replayed against the goal, as hybrid's
    moves are: an OPTIMAL answer whose plan stops short is an error."""
    fx = load_fixture("soko_corridor")          # #@$-.#, optimum RR
    short = ([Direction.E] if mode == "full" else
             ParallelPlan([Step(actions=frozenset(
                 {ObjectAction(ActionKind.ROLL, (1, 2), Direction.E)}))]))

    def stops_short(level, mode, reach, run):
        return 1, short

    monkeypatch.setattr(search, "_deepen", stops_short)
    run = run_instance(fx.level, "soko_corridor", ReachKind.PATH, mode)
    assert not run.solved
    assert run.record is None
    assert "misses the goal" in run.error


def test_run_instance_isolates_errors():
    fx = load_fixture("soko_corridor")

    class Exploding:
        def solve(self, formula, budget=None, assumptions=()):
            raise RuntimeError("boom")

    run = run_instance(fx.level, "soko_corridor", ReachKind.TREE,
                       backend=Exploding())
    assert not run.solved
    assert "boom" in run.error


def test_run_bench_directory(tmp_path, backend):
    (tmp_path / "one.xsb").write_text("######\n#@$-.#\n######\n")
    (tmp_path / "bad.snw").write_text("not a level")
    report = run_bench(tmp_path, [ReachKind.TREE], backend=backend)
    by_name = {run.instance: run for run in report.runs}
    assert by_name["one"].solved
    assert not by_name["bad"].solved
    assert by_name["bad"].error is not None
    assert report.summary()["tree"]["instances"] == 2


def test_run_bench_parses_each_level_once(tmp_path, backend, monkeypatch):
    """One parse per file; a parse error is one failed run per reach."""
    (tmp_path / "one.xsb").write_text("######\n#@$-.#\n######\n")
    (tmp_path / "bad.snw").write_text("not a level")
    parsed = []

    def counting_parse(text, game):
        parsed.append(game)
        return parse_level(text, game)

    monkeypatch.setattr(bench, "parse_level", counting_parse)
    reaches = [ReachKind.TREE, ReachKind.DAG]
    report = run_bench(tmp_path, reaches, backend=backend)
    assert len(parsed) == 2
    bad = [run for run in report.runs if run.instance == "bad"]
    assert sorted(run.reach for run in bad) == ["dag", "tree"]
    assert all(not run.solved and run.error for run in bad)
    assert all(run.solved for run in report.runs if run.instance == "one")
