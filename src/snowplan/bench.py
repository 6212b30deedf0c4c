"""Batch benchmarking with PAR-2 scoring.

Each (instance, reach-encoding) pair is solved under a per-instance wall
clock limit. The PAR-2 score of an encoding is the sum of the runtimes of
solved instances plus twice the limit for every unsolved one; lower is
better. Instances that error are counted as unsolved and reported.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path

from .encoder import Mode, ReachKind
from .levels import SUFFIXES, GameTag, Level, parse_level
from .plans import RunRecord, to_lurd
from .search import (DEFAULT_BUDGET, Bounds, BoundStatus, check_budget,
                     solve_hybrid, solve_sequential)
from .solvers import default_backend


@dataclass
class BenchRun:
    instance: str
    reach: str
    solved: bool
    runtime: float
    record: RunRecord | None = None
    error: str | None = None


@dataclass
class BenchReport:
    limit: float
    runs: list[BenchRun] = field(default_factory=list)

    def par2(self, reach: str | None = None) -> float:
        runs = [run for run in self.runs if reach is None or run.reach == reach]
        return par2_score([run.runtime for run in runs if run.solved],
                          sum(1 for run in runs if not run.solved), self.limit)

    def timeouts(self, reach: str | None = None) -> int:
        return sum(1 for run in self.runs
                   if (reach is None or run.reach == reach) and not run.solved)

    def summary(self) -> dict[str, dict]:
        reaches = sorted({run.reach for run in self.runs})
        return {r: {"par2": self.par2(r), "timeouts": self.timeouts(r),
                    "instances": sum(1 for x in self.runs if x.reach == r)}
                for r in reaches}


def par2_score(runtimes: list[float], unsolved: int, limit: float) -> float:
    """PAR-2: solved runtimes plus twice the limit per unsolved instance."""
    return sum(runtimes) + 2 * limit * unsolved


def discover_levels(directory: Path) -> list[tuple[Path, GameTag]]:
    found = []
    for path in sorted(directory.iterdir()):
        game = SUFFIXES.get(path.suffix)
        if game is not None:
            found.append((path, game))
    return found


def load_level_file(path: Path, game: GameTag | None = None) -> Level:
    if game is None:
        game = SUFFIXES.get(path.suffix)
        if game is None:
            raise ValueError(f"cannot infer game from suffix of {path.name}; "
                             f"expected one of {', '.join(SUFFIXES)}")
    return parse_level(path.read_text(), game)


def run_instance(level: Level, instance: str, reach: ReachKind,
                 mode: str = "hybrid", limit: float = DEFAULT_BUDGET,
                 seed: int | None = None, backend=None) -> BenchRun:
    """Solve one instance under the limit, returning a scored run. `mode`
    is "hybrid", "full" or "collapsed"."""
    check_budget(limit)
    if backend is None:
        backend = default_backend()
    start = time.monotonic()
    try:
        bounds, record = _dispatch(level, instance, reach, mode, limit,
                                   seed, backend)
    except Exception as exc:  # noqa: BLE001 - harness must keep going
        return BenchRun(instance, reach.value, False,
                        time.monotonic() - start, error=str(exc))
    runtime = time.monotonic() - start
    solved = bounds.status is BoundStatus.OPTIMAL
    return BenchRun(instance, reach.value, solved, runtime, record)


def _dispatch(level: Level, instance: str, reach: ReachKind, mode: str,
              limit: float, seed, backend) -> tuple[Bounds, RunRecord]:
    if mode == "hybrid":
        bounds, moves = solve_hybrid(level, reach, limit, backend)
    else:
        bounds, moves = solve_sequential(level, Mode(mode), reach, limit,
                                         backend)
    lurd = None if moves is None else to_lurd(level, moves)
    record = RunRecord(
        instance=instance,
        game=level.game.value,
        mode=mode,
        reach=reach.value,
        lb=bounds.lower,
        ub=bounds.upper,
        status=bounds.status.value,
        horizon_times=[round(x, 6) for x in bounds.horizon_times],
        seed=seed,
        backend=repr(backend),
        lurd=lurd,
        phase_times={k: round(x, 6) for k, x in bounds.phase_times.items()},
    )
    return bounds, record


def run_bench(directory: Path, reaches: list[ReachKind],
              mode: str = "hybrid", limit: float = DEFAULT_BUDGET,
              seed: int | None = None, backend=None) -> BenchReport:
    """Run every (instance, reach) pair; failures are recorded, not fatal."""
    report = BenchReport(limit=check_budget(limit))
    for path, game in discover_levels(directory):
        try:
            level = parse_level(path.read_text(), game)
        except Exception as exc:  # noqa: BLE001
            report.runs.extend(BenchRun(path.stem, reach.value, False, 0.0,
                                        error=str(exc)) for reach in reaches)
            continue
        for reach in reaches:
            report.runs.append(run_instance(level, path.stem, reach, mode,
                                            limit, seed, backend))
    return report
