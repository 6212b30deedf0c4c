"""The benchmark's tracer (`perfbench/spans.py`) wraps module attributes by
name. A renamed attribute breaks only traced benchmark runs, so this checks
that every seam it wraps exists and that leaving the tracer restores it."""

import importlib
from pathlib import Path

from snowplan import cnf, encoder, reach, search, solvers

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

SEAMS = [(search, "solve"), (search, "decode"), (search, "ascend_parallel"),
         (search, "descend"), (search, "serialize"), (encoder, "encode"),
         (reach, "encode_path"), (reach, "encode_dag"),
         (reach, "encode_spanning_tree"), (cnf.Formula, "exactly_one"),
         (cnf.Formula, "at_most_k"), (cnf.Formula, "to_dimacs"),
         (solvers, "check_model")]


def test_tracer_wraps_and_restores_every_seam(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    originals = {seam: getattr(*seam) for seam in SEAMS}
    with spans.Tracer().installed() as tracer:
        assert {(owner, attr) for owner, attr, _ in tracer._saved} == set(SEAMS)
        assert all(getattr(*seam) is not fn for seam, fn in originals.items())
    assert all(getattr(*seam) is fn for seam, fn in originals.items())
