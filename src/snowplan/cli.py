"""Command-line surface: solve, bench, encode, validate.

Config precedence is flags > SNOWPLAN_* environment variables > defaults.
Recognized variables: SNOWPLAN_SOLVER_CMD (backend command template with an
{input} placeholder, also honored by the library), SNOWPLAN_TIMEOUT (seconds
for each level's whole run), SNOWPLAN_MODE, SNOWPLAN_REACH. With --seed, a
{seed} in the solver template (from --solver-cmd or SNOWPLAN_SOLVER_CMD)
becomes the seed; only the CLI does this.

Exit codes: 0 for an optimal result (and for a valid solution in
`validate`), 2 when only bounds were obtained, 1 on errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .bench import load_level_file, run_bench, run_instance
from .encoder import EncodingConfig, Mode, ReachKind, encode
from .levels import GameTag, ParseError
from .plans import LurdError, validate_lurd
from .solvers import DEFAULT_BUDGET, BackendError, ExternalSolver

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_BOUNDED = 2


def _env(name: str, fallback: str) -> str:
    return os.environ.get(f"SNOWPLAN_{name}", fallback)


def _backend_from(args):
    template = args.solver_cmd
    if template:
        if args.seed is not None:
            template = template.replace("{seed}", str(args.seed))
        return ExternalSolver(template)
    return None  # library default: env template, PATH probe, bundled CDCL


def _timeout(args) -> float:
    """The --timeout flag, else SNOWPLAN_TIMEOUT, else the default budget;
    `run_instance` and `run_bench` check it before any run."""
    value = _env("TIMEOUT", str(DEFAULT_BUDGET))
    try:
        return float(value) if args.timeout is None else args.timeout
    except ValueError:
        raise ValueError(f"SNOWPLAN_TIMEOUT is not a number: {value!r}") from None


def _game_flag(value: str | None) -> GameTag | None:
    return None if value is None else GameTag(value)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="snowplan",
        description="SAT-based optimal solver for Sokoban and snowman-building puzzles.")
    sub = parser.add_subparsers(dest="command", required=True)

    def level_flags(p):
        p.add_argument("--game", choices=[g.value for g in GameTag],
                       help="level format (default: infer from file suffix)")
        p.add_argument("--reach", default=_env("REACH", "path"),
                       choices=[r.value for r in ReachKind])

    def run_flags(p):
        level_flags(p)
        p.add_argument("--timeout", type=float, default=None,
                       help="wall-clock seconds for the whole run of each level"
                       f" (default: SNOWPLAN_TIMEOUT, else {DEFAULT_BUDGET:g})")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--solver-cmd", default=os.environ.get("SNOWPLAN_SOLVER_CMD"),
                       help="backend command template with {input} placeholder")

    p_solve = sub.add_parser("solve", help="solve one level to optimality")
    p_solve.add_argument("level", type=Path)
    p_solve.add_argument("--mode", default=_env("MODE", "hybrid"),
                         choices=["full", "collapsed", "hybrid"])
    p_solve.add_argument("--emit", default="both",
                         choices=["lurd", "record", "both"])
    run_flags(p_solve)

    p_bench = sub.add_parser("bench", help="benchmark a directory of levels")
    p_bench.add_argument("directory", type=Path)
    p_bench.add_argument("--mode", default=_env("MODE", "hybrid"),
                         choices=["full", "collapsed", "hybrid"])
    p_bench.add_argument("--all-reach", action="store_true",
                         help="run every reachability encoding, not just --reach "
                              "(--mode full, which has none, runs once)")
    run_flags(p_bench)

    p_enc = sub.add_parser("encode", help="emit DIMACS for one horizon")
    p_enc.add_argument("level", type=Path)
    p_enc.add_argument("--mode", default="collapsed",
                       choices=[m.value for m in Mode])
    p_enc.add_argument("--horizon", type=int, required=True)
    p_enc.add_argument("--output", type=Path, default=None,
                       help="write DIMACS here instead of stdout")
    level_flags(p_enc)

    p_val = sub.add_parser("validate", help="replay a LURD solution string")
    p_val.add_argument("level", type=Path)
    p_val.add_argument("lurd", help="solution string over lurdLURD")
    p_val.add_argument("--game", choices=[g.value for g in GameTag])
    return parser


def cmd_solve(args) -> int:
    level = load_level_file(args.level, _game_flag(args.game))
    run = run_instance(level, args.level.stem, ReachKind(args.reach),
                       args.mode, _timeout(args), args.seed,
                       _backend_from(args))
    if run.error is not None:
        print(f"error: {run.error}", file=sys.stderr)
        return EXIT_ERROR
    record = run.record
    if args.emit in ("lurd", "both") and record.lurd is not None:
        print(record.lurd)
    if args.emit in ("record", "both"):
        print(record.to_json())
    return EXIT_OK if run.solved else EXIT_BOUNDED


def cmd_bench(args) -> int:
    reaches = list(ReachKind) if args.all_reach else [ReachKind(args.reach)]
    report = run_bench(args.directory, reaches, args.mode, _timeout(args),
                       args.seed, _backend_from(args))
    if not report.runs:
        print("warning: no level files found", file=sys.stderr)
    for run in report.runs:
        if run.record is not None:
            print(run.record.to_json())
        elif run.error is not None:
            print(f"error [{run.instance}/{run.reach}]: {run.error}",
                  file=sys.stderr)
    print(json.dumps({"limit": report.limit, "summary": report.summary()},
                     sort_keys=True))
    return EXIT_OK


def cmd_encode(args) -> int:
    level = load_level_file(args.level, _game_flag(args.game))
    config = EncodingConfig(Mode(args.mode), args.horizon,
                            ReachKind(args.reach))
    encoding = encode(level, config)
    encoding.formula.add_clause([encoding.goal])
    text = encoding.formula.to_dimacs()
    if args.output is None:
        sys.stdout.write(text)
    else:
        args.output.write_text(text)
    return EXIT_OK


def cmd_validate(args) -> int:
    level = load_level_file(args.level, _game_flag(args.game))
    summary = validate_lurd(level, args.lurd)
    print(json.dumps(summary, sort_keys=True))
    return EXIT_OK if summary["goal"] else EXIT_BOUNDED


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handler = {"solve": cmd_solve, "bench": cmd_bench,
               "encode": cmd_encode, "validate": cmd_validate}[args.command]
    try:
        return handler(args)
    except (ParseError, LurdError, BackendError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
