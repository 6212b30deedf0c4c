"""snowplan benchmark: one workload, one seed, a closed loop of passes.

    python3 perfbench/run.py --workload hybrid-corpus --seed 1 --seconds 20 --trace 0

Run from the repository root. The program is imported from `src/` and driven
in this process, one task at a time, on the bundled CDCL backend. Every task
output is checked; the last stdout line is one JSON object with `correct`,
`attempted`, `failed` and `metrics` (end-to-end metrics with `--trace 0`,
per-layer metrics with `--trace 1`). The exit code is 0 only when every
output was correct and every repeated pass matched the first.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="import and build the inputs, then exit")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "snowplan").is_dir():
        print(f"snowplan sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import harness

    return harness.main(args)


if __name__ == "__main__":
    sys.exit(main())
