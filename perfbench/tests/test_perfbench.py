"""Self-tests of the benchmark: statistics, scoring, inputs, tracing, gate.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import random

import pytest

import spans
import speed
import stats
import workloads
from snowplan import bench, cnf, encoder, reach, search, solvers
from snowplan.plans import RunRecord
from snowplan.solvers import InProcessSolver


def _task(workload: str, key: str, seed: int = 1) -> workloads.Task:
    tasks = workloads.build_tasks(workload, seed, spans.Untraced())
    return next(t for t in tasks if t.key == key)


def _run(task: workloads.Task, tracer=None) -> workloads.Outcome:
    if tracer is None:
        return workloads.judge(task, workloads.execute(task, InProcessSolver(), 1))
    with tracer.installed():
        result = workloads.execute(task, InProcessSolver(), 1)
    return workloads.judge(task, result)


# -- statistics ---------------------------------------------------------


@pytest.mark.parametrize("n", [11, 12, 20, 33, 50])
def test_tail_leaves_ten_samples_beyond(n):
    samples = random.Random(n).sample(range(1000), n)
    value, pct, count = stats.tail(samples)
    assert count == n
    assert sum(1 for x in samples if x > value) == stats.TAIL_BEYOND
    assert pct == pytest.approx(100 * (n - 10) / n)


def test_tail_of_small_samples_is_the_maximum():
    assert stats.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)
    assert stats.tail(list(range(10))) == (9, 100.0, 10)
    assert stats.tail(list(range(11))) == (0, pytest.approx(100 / 11), 11)
    with pytest.raises(ValueError):
        stats.tail([])


# -- scoring ------------------------------------------------------------


def test_pass_par2_agrees_with_bench():
    task = _task("hybrid-corpus", "soko_pair/path")
    runtimes = [0.5, 1.25, 7.0, 0.125]
    solved = [True, False, True, False]
    outcomes = [workloads.Outcome(task, t, s, [], "") for t, s in zip(runtimes, solved)]
    report = bench.BenchReport(limit=task.limit, runs=[
        bench.BenchRun("x", "path", s, t) for t, s in zip(runtimes, solved)])
    expected = bench.par2_score([0.5, 7.0], 2, task.limit)
    assert workloads.pass_par2(outcomes) == pytest.approx(expected)
    assert report.par2() == pytest.approx(expected)
    for o in outcomes:
        o.ref = 100 * o.runtime
    assert workloads.pass_par2(outcomes, 100 * task.limit) == pytest.approx(
        100 * expected)


def test_median_outcomes_keep_every_failure():
    task = _task("hybrid-corpus", "soko_pair/path")
    passes = [[workloads.Outcome(task, t, ok, errs, "k", ref=10 * t)]
              for t, ok, errs in [(3.0, True, []), (1.0, False, ["bad"]),
                                  (2.0, True, [])]]
    (out,) = workloads.median_outcomes(passes)
    assert (out.runtime, out.ref) == (2.0, 20.0)
    assert not out.solved and out.errors == ["bad"]


# -- speed probe --------------------------------------------------------


def test_probe_is_taken_out_of_the_region():
    probe = speed.SpeedProbe()
    # before the region, inside it, and one straddling its end
    probe.probes = [(0.0, 0.002), (1.0, 0.001), (1.5, 0.003), (1.999, 0.002)]
    seconds, ref = probe.measure(1, 0.5, 2.0)
    assert seconds == pytest.approx(1.5 - 0.001 - 0.003)
    assert ref == pytest.approx(seconds / 0.002)


def test_probe_runs_on_a_timer_and_stops():
    import signal
    import time

    probe = speed.SpeedProbe(interval=0.005)
    with probe.running():
        mark = probe.mark()
        start = time.perf_counter()
        while time.perf_counter() - start < 0.1:
            speed.reference_loop(100)
        end = time.perf_counter()
    count = len(probe.probes)
    assert count - mark >= 3
    seconds, ref = probe.measure(mark, start, end)
    assert 0 < seconds < end - start and ref > 0
    time.sleep(0.02)
    assert len(probe.probes) == count
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


# -- inputs -------------------------------------------------------------


def test_seed_reproduces_encode_rooms():
    def rooms(seed):
        tasks = workloads.build_tasks("encode-wide", seed, spans.Untraced())
        return [t.key for t in tasks], {t.level for t in tasks}

    assert rooms(7) == rooms(7)
    assert rooms(7)[1] != rooms(8)[1]
    keys, levels = rooms(7)
    assert len(keys) == len(set(keys)) == 20
    for level in levels:
        assert len(level.floor) == (workloads.ROOM_ROWS * workloads.ROOM_COLS
                                    - len(workloads.ROOM_PILLARS))


def test_seed_only_orders_fixture_workloads():
    a = workloads.build_tasks("hybrid-corpus", 1, spans.Untraced())
    b = workloads.build_tasks("hybrid-corpus", 2, spans.Untraced())
    assert sorted(t.key for t in a) == sorted(t.key for t in b)
    assert len(a) == 27


# -- tracing ------------------------------------------------------------


def test_wrappers_are_transparent_and_removed():
    targets = [(encoder, "encode"), (reach, "encode_path"), (search, "solve"),
               (solvers, "check_model"), (cnf.Formula, "exactly_one"),
               (search, "descend")]
    before = [getattr(owner, attr) for owner, attr in targets]
    task = _task("hybrid-corpus", "soko_two/dag")
    plain = _run(task)
    tracer = spans.Tracer()
    traced = _run(task, tracer)
    assert traced.stable == plain.stable and not plain.errors
    assert [getattr(owner, attr) for owner, attr in targets] == before
    layer = spans.layer_metrics(tracer)
    assert layer["solvers.calls"] == plain.horizons
    assert layer["encoder.calls"] == layer["solvers.calls"]

    room = _task("encode-wide", "room0-sokoban/parallel/tree")
    assert _run(room, spans.Tracer()).stable == _run(room).stable


def test_layer_isolation():
    tracer = spans.Tracer()
    _run(_task("full-deepen", "soko_pair"), tracer)
    layer = spans.layer_metrics(tracer)
    assert layer["reach.calls"] == 0 and layer["solvers.calls"] > 0

    tracer = spans.Tracer()
    _run(_task("encode-wide", "room0-sokoban/collapsed/dag"), tracer)
    layer = spans.layer_metrics(tracer)
    assert layer["solvers.calls"] == 0
    assert 0 < layer["reach.clauses"] < layer["encoder.clauses"]
    assert layer["cnf.dimacs_mb"] > 0


def test_self_time_subtracts_children():
    tracer = spans.Tracer()
    with tracer.span("search.run"):
        with tracer.span("encoder.full"):
            pass
    (_, s0, e0, _, _), (_, s1, e1, parent, _) = tracer.spans
    assert parent == 0
    assert tracer.self_time("search") == pytest.approx((e0 - s0) - (e1 - s1))


# -- correctness gate ---------------------------------------------------


def _record(**fields) -> bench.BenchRun:
    base = dict(instance="x", game="sokoban", mode="hybrid", reach="path",
                lb=2, ub=2, status="optimal", lurd=None)
    base.update(fields)
    return bench.BenchRun("x", "path", True, 0.1, RunRecord(**base))


def test_gate_accepts_a_correct_run_and_flags_wrong_ones():
    task = _task("hybrid-corpus", "soko_pair/path")
    good = workloads.execute(task, InProcessSolver(), 1)
    assert workloads.check_run(task, good) == []
    lurd = good.record.lurd
    assert workloads.check_run(task, _record(lb=1, ub=3, lurd=lurd))
    assert workloads.check_run(task, _record(lurd=lurd[:-1]))
    assert workloads.check_run(task, _record(lurd=None))
    assert workloads.check_run(task, bench.BenchRun("x", "path", False, 0.1,
                                                    error="boom"))


def test_encode_gate_checks_the_dimacs_header():
    task = _task("encode-wide", "room0-sokoban/full/path")
    formula, text, runtime = workloads.execute(task, None, 1)
    assert workloads.judge(task, (formula, text, runtime)).errors == []
    bad = text.replace("p cnf ", "p cnf 1", 1)
    assert workloads.judge(task, (formula, bad, runtime)).errors
