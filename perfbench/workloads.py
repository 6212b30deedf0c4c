"""The three benchmark workloads: their inputs, how one task runs, and the
correctness gate applied to each task's output.

Every workload is a fixed list of tasks (one pass). The seed only orders
the tasks and, for `encode-wide`, draws the generated rooms; the program
under test sees nothing but the resulting levels. Each workload is built so
that one layer dominates it and another barely shows (see README.md).
"""

from __future__ import annotations

import hashlib
import json
import random
import statistics
import time
from dataclasses import dataclass

from snowplan import bench, encoder, levels, plans
from snowplan.encoder import EncodingConfig, Mode, ReachKind
from snowplan.fixtures import FIXTURE_DIR, list_fixtures
from snowplan.levels import GameTag, Level

WORKLOADS = ("hybrid-corpus", "full-deepen", "encode-wide")

# Per-run wall-clock limit of the solving workloads (the `snowplan bench`
# default).
SOLVE_LIMIT = 60.0

# Left out of hybrid-corpus for run length only: together they take about
# 25 s of a 33 s full-corpus pass on 2 cores, and a run needs room for
# several passes.
HYBRID_LEFT_OUT = ("snow_pop2", "snow_tiny1", "snow_tiny2", "soko_three")
# FULL deepening on snow_tiny3 takes about 48 s and on snow_grow, snow_pop2
# and snow_tiny1 41-345 s, so full-deepen keeps the fixtures below.
FULL_FIXTURES = ("soko_pair", "soko_two", "soko_three", "snow_pop")

ENCODE_HORIZON = 2
# The room shape is fixed (7 x 9 with three pillars: 60 floor cells), so
# every seed gives formulas of the same size; the seed places the agent, the
# objects and the snow.
ROOM_ROWS, ROOM_COLS = 7, 9
ROOM_PILLARS = ((2, 2), (2, 6), (4, 4))


@dataclass(frozen=True)
class Task:
    key: str                  # unique within a pass, e.g. "soko_three/dag"
    level: Level
    mode: str                 # "hybrid", "full", or an encoder mode for encode tasks
    reach: ReachKind
    expected: int | None = None   # frozen optimum; None for encode tasks
    limit: float | None = None    # None for encode tasks


@dataclass
class Outcome:
    task: Task
    runtime: float            # seconds
    solved: bool              # OPTIMAL and correct, or a correct encode
    errors: list[str]
    stable: str               # must repeat exactly across passes
    horizons: int = 0
    clauses: int = 0
    dimacs_bytes: int = 0
    ref: float = 0.0          # runtime in reference units (see speed.py)


# -- inputs -------------------------------------------------------------


def _fixture(name: str, tracer) -> tuple[Level, dict]:
    meta = json.loads((FIXTURE_DIR / f"{name}.json").read_text())
    game = GameTag(meta["game"])
    suffix = ".snw" if game is GameTag.SNOWMAN else ".xsb"
    text = (FIXTURE_DIR / (name + suffix)).read_text()
    with tracer.span("levels.parse"):
        level = levels.parse_level(text, game)
    return level, meta


def room_text(rng: random.Random, game: GameTag) -> str:
    """An open walled room with seeded object and snow placement."""
    grid = [["-"] * ROOM_COLS for _ in range(ROOM_ROWS)]
    for r, c in ROOM_PILLARS:
        grid[r][c] = "#"
    free = [(r, c) for r in range(ROOM_ROWS) for c in range(ROOM_COLS)
            if grid[r][c] == "-"]
    rng.shuffle(free)
    if game is GameTag.SOKOBAN:
        marks = "@$$$..."
    else:  # one snowman: small, medium and large ball, snow on a third
        marks = "p124" + "." * (len(free) // 3)
    for (r, c), ch in zip(free, marks):
        grid[r][c] = ch
    wall = "#" * (ROOM_COLS + 2)
    return "\n".join([wall] + ["#" + "".join(row) + "#" for row in grid]
                     + [wall]) + "\n"


def build_tasks(workload: str, seed: int, tracer) -> list[Task]:
    """Parse or generate the workload's levels and order its tasks by seed.

    `tracer` provides `span(name)`; level parsing is timed under it.
    """
    rng = random.Random(seed)
    tasks: list[Task] = []
    if workload == "hybrid-corpus":
        for name in list_fixtures():
            if name in HYBRID_LEFT_OUT:
                continue
            level, meta = _fixture(name, tracer)
            if meta["object_actions_optimal"] is None:
                continue
            tasks += [Task(f"{name}/{r.value}", level, "hybrid", r,
                           meta["object_actions_optimal"], SOLVE_LIMIT)
                      for r in ReachKind]
    elif workload == "full-deepen":
        for name in FULL_FIXTURES:
            level, meta = _fixture(name, tracer)
            tasks.append(Task(name, level, "full", ReachKind.PATH,
                              meta["moves_optimal"], SOLVE_LIMIT))
    elif workload == "encode-wide":
        for i, game in enumerate((GameTag.SOKOBAN, GameTag.SNOWMAN)):
            text = room_text(rng, game)
            with tracer.span("levels.parse"):
                level = levels.parse_level(text, game)
            for mode in Mode:
                reaches = [ReachKind.PATH] if mode is Mode.FULL else ReachKind
                tasks += [Task(f"room{i}-{game.value}/{mode.value}/{r.value}",
                               level, mode.value, r) for r in reaches]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(tasks)
    return tasks


# -- one task -----------------------------------------------------------


def execute(task: Task, backend, seed: int):
    """The timed part of a task: one solver run, or one encode plus DIMACS."""
    if task.limit is not None:
        return bench.run_instance(task.level, task.key, task.reach, task.mode,
                                  task.limit, seed, backend)
    start = time.perf_counter()
    formula = encoder.encode(
        task.level, EncodingConfig(Mode(task.mode), ENCODE_HORIZON,
                                   task.reach)).formula
    text = formula.to_dimacs()
    return formula, text, time.perf_counter() - start


def judge(task: Task, result) -> Outcome:
    """Check a task's output; runs outside the timed region."""
    if task.limit is None:
        return _judge_encode(task, *result)
    errors = check_run(task, result)
    record = result.record
    return Outcome(
        task, result.runtime,
        solved=not errors and record.status == "optimal",
        errors=errors,
        stable="" if record is None else record.stable_key(),
        horizons=0 if record is None else len(record.horizon_times))


def median_outcomes(passes: list[list[Outcome]]) -> list[Outcome]:
    """Per task, its median seconds and median reference units over passes.

    A task counts as solved only if it was solved in every pass, and its
    errors are those of all passes, so the median hides no failure.
    """
    med = statistics.median
    out = []
    for runs in zip(*passes):
        first = runs[0]
        out.append(Outcome(first.task, med(o.runtime for o in runs),
                           solved=all(o.solved for o in runs),
                           errors=[e for o in runs for e in o.errors],
                           stable=first.stable, horizons=first.horizons,
                           clauses=first.clauses,
                           dimacs_bytes=first.dimacs_bytes,
                           ref=med(o.ref for o in runs)))
    return out


def pass_par2(outcomes: list[Outcome], limit_ref: float | None = None) -> float:
    """PAR-2 of a pass: solved runtimes plus twice the limit per unsolved run.

    In seconds by default; with `limit_ref`, the limit in reference units,
    it scores the runs' reference units instead. Encode tasks have no limit
    and are always solved when correct.
    """
    if limit_ref is None:
        solved = [o.runtime for o in outcomes if o.solved]
        limit = outcomes[0].task.limit or 0.0
    else:
        solved = [o.ref for o in outcomes if o.solved]
        limit = limit_ref
    return bench.par2_score(solved, len(outcomes) - len(solved), limit)


def check_run(task: Task, run: bench.BenchRun) -> list[str]:
    if run.error is not None or run.record is None:
        return [f"raised: {run.error}"]
    rec = run.record
    errors = []
    if rec.lb is not None and rec.lb > task.expected:
        errors.append(f"lower bound {rec.lb} above the optimum {task.expected}")
    if rec.ub is not None and rec.ub < task.expected:
        errors.append(f"upper bound {rec.ub} below the optimum {task.expected}")
    if rec.status == "optimal" and rec.ub != task.expected:
        errors.append(f"OPTIMAL {rec.ub} differs from the optimum {task.expected}")
    if rec.status == "optimal" and rec.lurd is None:
        errors.append("OPTIMAL without a plan")
    if rec.lurd is not None:
        try:
            replay = plans.validate_lurd(task.level, rec.lurd)
        except plans.LurdError as exc:
            return errors + [f"LURD fails replay: {exc}"]
        length = replay["moves" if task.mode == "full" else "object_actions"]
        if not replay["goal"]:
            errors.append("LURD does not reach the goal")
        if length != rec.ub:
            errors.append(f"LURD length {length} differs from ub {rec.ub}")
    return errors


def _judge_encode(task: Task, formula, text: str, runtime: float) -> Outcome:
    clauses = len(formula.clauses)
    header = f"p cnf {formula.num_vars} {clauses}"
    errors = []
    if text[:text.index("\n")] != header:
        errors.append(f"DIMACS header is not {header!r}")
    if text.count("\n") != clauses + 1:
        errors.append("DIMACS body does not hold one line per clause")
    digest = hashlib.sha256(text.encode()).hexdigest()
    return Outcome(task, runtime, solved=not errors, errors=errors,
                   stable=f"{header} {digest}", clauses=clauses,
                   dimacs_bytes=len(text))
