"""The benchmark loop: set-up, passes, correctness and drift checks, metrics.

Entered through run.py, which puts the snowplan sources on the import path.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

import spans
import stats
import workloads
from speed import SpeedProbe
from snowplan.solvers import InProcessSolver

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# Set-up is measured in this many fresh interpreters; the median is reported.
SETUP_REPEATS = 7
SETUP_TIMEOUT = 120
# Counts that must repeat exactly between two traced passes.
EXACT_COUNTS = ("encoder.clauses", "reach.clauses", "solvers.sat.calls",
                "solvers.unsat.calls")


def main(args) -> int:
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; expected one of "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.setup_only:
        signal.alarm(SETUP_TIMEOUT)  # the parent waits without a timeout
        workloads.build_tasks(args.workload, args.seed, spans.Untraced())
        return 0
    return Bench(args).run()


@dataclass
class Pass:
    traced: bool
    wall: float               # summed task seconds of the pass
    outcomes: list
    tracer: object


class Bench:
    def __init__(self, args):
        self.args = args
        # pinned, so a solver on PATH or SNOWPLAN_SOLVER_CMD cannot change
        # what is measured
        self.backend = InProcessSolver()
        # runs during untraced passes only, so spans hold no probe time
        self.probe = SpeedProbe()

    def run(self) -> int:
        args = self.args
        setup_tracer = spans.Tracer() if args.trace else spans.Untraced()
        tasks = workloads.build_tasks(args.workload, args.seed, setup_tracer)

        # pass kinds (True = traced): a traced run starts with one untraced
        # pass, for the overhead, and two traced ones, for the exact counts
        kinds = [False, True, True] if args.trace else [False]
        passes: list[Pass] = []
        start = time.perf_counter()
        longest = 0.0
        while True:
            if len(passes) < len(kinds):
                traced = kinds[len(passes)]
            else:
                traced = bool(args.trace) and not passes[-1].traced
            began = time.perf_counter()
            passes.append(self.run_pass(tasks, traced))
            # stop before a pass that would end after --seconds
            now = time.perf_counter()
            longest = max(longest, now - began)
            if len(passes) >= len(kinds) and now - start + longest > args.seconds:
                break

        outcomes = [o for p in passes for o in p.outcomes]
        errors = [f"{o.task.key}: {e}" for o in outcomes for e in o.errors]
        drift = self.drift(passes)
        env = self.environment(len(tasks))
        untraced = [p for p in passes if not p.traced]
        traced = [p for p in passes if p.traced]

        print(f"workload {args.workload} seed {args.seed} trace {args.trace} "
              f"passes {len(untraced)} untraced + {len(traced)} traced, "
              f"{len(tasks)} tasks each")
        print("env " + json.dumps(env, sort_keys=True))
        if args.trace:
            metrics = self.layer_metrics(setup_tracer, untraced, traced)
            OUT.mkdir(exist_ok=True)
            path = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"
            spans.write_spans(path, {"workload": args.workload,
                                     "seed": args.seed, **env},
                              [setup_tracer] + [p.tracer for p in traced])
            print(f"spans written to {path.relative_to(ROOT)}")
        else:
            metrics = self.end_to_end(untraced, outcomes, self.measure_setup())
            print(f"detail probe_ms.median {self.probe.median_s() * 1e3:.6g} ms "
                  f"({len(self.probe.probes)} probes)")
        for problem in errors + drift:
            print("FAIL " + problem)
        failed = sum(1 for o in outcomes if o.errors) + len(drift)
        correct = failed == 0
        print(json.dumps({"correct": correct, "attempted": len(outcomes),
                          "failed": failed, "metrics": metrics}))
        return 0 if correct else 1

    # -- measurement ----------------------------------------------------

    def measure_setup(self) -> float:
        """Median wall time of a fresh interpreter that imports snowplan and
        builds this workload's inputs: process start to the first timed call."""
        cmd = [sys.executable, str(HERE / "run.py"), "--workload",
               self.args.workload, "--seed", str(self.args.seed), "--setup-only"]
        times = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            # a blocking wait: Popen.wait(timeout) polls in steps of up to
            # 50 ms, which would quantize the measurement
            child = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.DEVNULL)
            code = child.wait()
            times.append(time.perf_counter() - start)
            if code != 0:
                raise subprocess.CalledProcessError(code, cmd)
        return statistics.median(times)

    def run_pass(self, tasks, traced: bool) -> Pass:
        """Run every task once, in order, one at a time.

        An untraced pass runs under the speed probe, and each task gets its
        seconds (probes taken out) and its reference units.
        """
        tracer = spans.Tracer() if traced else spans.Untraced()
        probing = nullcontext() if traced else self.probe.running()
        timed = 0.0
        outcomes = []
        with tracer.installed(), probing:
            for i, task in enumerate(tasks):
                tracer.run_id = i
                root = "task" if task.limit is None else "search.run"
                # every task starts from a collected heap, so a collector
                # pause does not land on whichever task the seed put next
                gc.collect()
                mark = self.probe.mark()
                start = time.perf_counter()
                with tracer.span(root):
                    result = workloads.execute(task, self.backend, self.args.seed)
                end = time.perf_counter()
                outcome = workloads.judge(task, result)
                if traced:
                    outcome.runtime = end - start
                else:
                    outcome.runtime, outcome.ref = self.probe.measure(
                        mark, start, end)
                timed += outcome.runtime
                outcomes.append(outcome)
                del result
        return Pass(traced, timed, outcomes, tracer)

    def drift(self, passes) -> list[str]:
        """Differences from the first pass in what must repeat exactly."""
        problems = []
        first = passes[0].outcomes
        for n, later in enumerate(passes[1:], 1):
            for a, b in zip(first, later.outcomes):
                if a.stable != b.stable:
                    problems.append(f"pass {n}: {a.task.key} record differs "
                                    "from pass 0")
                if a.horizons != b.horizons:
                    problems.append(f"pass {n}: {a.task.key} searched "
                                    f"{b.horizons} horizons, pass 0 {a.horizons}")
        counted = [spans.layer_metrics(p.tracer) for p in passes if p.traced]
        for n, layer in enumerate(counted[1:], 1):
            for key in EXACT_COUNTS:
                if layer[key] != counted[0][key]:
                    problems.append(f"traced pass {n}: {key} {layer[key]} "
                                    f"differs from {counted[0][key]}")
        return problems

    # -- metrics --------------------------------------------------------

    def end_to_end(self, untraced, outcomes, setup_s) -> dict:
        medians = workloads.median_outcomes([p.outcomes for p in untraced])
        limit_ref = (medians[0].task.limit or 0.0) / self.probe.median_s()
        metrics = {
            "wall_ref": (sum(o.ref for o in medians), "ref"),
            "par2_ref": (workloads.pass_par2(medians, limit_ref), "ref"),
            "solved_frac": (sum(o.solved for o in outcomes) / len(outcomes),
                            "ratio"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024, "MB"),
            "setup_s": (setup_s, "s"),
        }
        for name, (value, unit) in metrics.items():
            print(f"metric {name} {value:.6g} {unit}")
        self.details(medians)
        return {name: {"value": value, "unit": unit}
                for name, (value, unit) in metrics.items()}

    def details(self, medians) -> None:
        """Workload-specific end-to-end figures, printed but not gated."""
        par2 = workloads.pass_par2
        times = [o.runtime for o in medians]
        print(f"detail errors {sum(len(o.errors) for o in medians)} count")
        print(f"detail wall_s {sum(times):.6g} s")
        print(f"detail par2_s {par2(medians):.6g} s")
        value, pct, n = stats.tail(times)
        print(f"detail instance_s.p50 {statistics.median(times):.6g} s")
        print(f"detail instance_s.tail {value:.6g} s (p{pct:.1f} of n={n} tasks"
              + (", the maximum: 10 or fewer tasks)" if n <= stats.TAIL_BEYOND
                 else ")"))
        if medians[0].task.mode == "hybrid":
            for reach in ("path", "dag", "tree"):
                value = par2([o for o in medians if o.task.reach.value == reach])
                print(f"detail par2_s.{reach} {value:.6g} s")
        elif medians[0].task.limit is None:
            clauses = sum(o.clauses for o in medians)
            mb = sum(o.dimacs_bytes for o in medians) / 1e6
            print(f"detail formula_clauses {clauses} count")
            print(f"detail dimacs_mb {mb:.6g} MB")

    def layer_metrics(self, setup_tracer, untraced, traced) -> dict:
        med = statistics.median
        per_pass = [spans.layer_metrics(p.tracer) for p in traced]
        metrics = {key: med([m[key] for m in per_pass]) for key in per_pass[0]}
        metrics["search.horizons"] = med(
            [sum(o.horizons for o in p.outcomes) / len(p.outcomes)
             for p in traced])
        metrics["levels.parse_s"] = setup_tracer.busy("levels.parse")
        metrics["trace.overhead_s"] = (med([p.wall for p in traced])
                                       - med([p.wall for p in untraced]))
        out = {}
        for name, value in metrics.items():
            unit = spans.unit_of(name)
            print(f"layer {name} {value:.6g} {unit}")
            out[name] = {"value": value, "unit": unit}
        return out

    def environment(self, tasks: int) -> dict:
        return {
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "commit": _commit(),
            "backend": repr(self.backend),
            "jobs": 1,
            "tasks_per_pass": tasks,
        }


def _commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_file = ROOT / ".git" / ref[5:]
        if ref_file.is_file():
            return ref_file.read_text().strip()
        packed = ROOT / ".git" / "packed-refs"
        if packed.is_file():
            for line in packed.read_text().splitlines():
                if line.endswith(" " + ref[5:]):
                    return line.split()[0]
        return "unknown"
    return ref


if __name__ == "__main__":
    sys.exit(main())
