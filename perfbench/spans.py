"""In-memory span tracing around the public functions of each snowplan layer.

A `Tracer` replaces module attributes with wrappers while it is installed
and puts the originals back when it is removed, so traced and untraced
passes can alternate in one process. Nothing under `src/` is edited: every
wrapper lives here and records, at the layer boundary, a span (name, start,
end, parent, run id) plus the counts that belong to that call.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext

from snowplan import cnf, encoder, reach, search, solvers


class Tracer:
    def __init__(self) -> None:
        # span: [name, start, end, parent index or -1, run id]
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.run_id = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- spans ----------------------------------------------------------

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.run_id])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][2] = time.perf_counter()

    def busy(self, prefix: str) -> float:
        """Summed duration of spans whose name equals or extends `prefix`."""
        return sum(end - start for name, start, end, _, _ in self.spans
                   if name == prefix or name.startswith(prefix + "."))

    def self_time(self, layer: str) -> float:
        """Summed self time (duration minus direct children) of a layer's spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return sum(end - start - child[i]
                   for i, (name, start, end, _, _) in enumerate(self.spans)
                   if name.split(".", 1)[0] == layer)

    # -- wrappers -------------------------------------------------------

    def _patch(self, owner, attr: str, name, after=None) -> None:
        """Wrap owner.attr; `name` is a span name or a function of the args,
        `after(result, args, seconds, before)` records counts."""
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            before = _clause_count(args)
            span_name = name(args) if callable(name) else name
            start = time.perf_counter()
            with tracer.span(span_name):
                result = original(*args, **kwargs)
            if after is not None:
                after(result, args, time.perf_counter() - start, before)
            return result

        self._saved.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        counts = self.counts

        def added(key):
            def after(result, args, seconds, before):
                counts[key + ".calls"] += 1
                counts[key + ".clauses"] += _clause_count(args) - before
            return after

        def encoded(result, args, seconds, before):
            counts["encoder.calls"] += 1
            counts["encoder.clauses"] += len(result.formula.clauses)
            counts["encoder.vars"] += result.formula.num_vars

        def dimacs(result, args, seconds, before):
            counts["cnf.dimacs_bytes"] += len(result)

        def solved(outcome, args, seconds, before):
            formula = args[0]
            status = outcome.status.value
            counts["solvers.calls"] += 1
            counts[f"solvers.{status}.calls"] += 1
            counts[f"solvers.{status}.busy_s"] += seconds
            counts["solvers.input_clauses"] += len(formula.clauses)

        self._patch(encoder, "encode",
                    lambda args: "encoder." + args[1].mode.value, encoded)
        for fn in ("encode_path", "encode_dag", "encode_spanning_tree"):
            self._patch(reach, fn, "reach." + fn, added("reach"))
        self._patch(cnf.Formula, "exactly_one", "cnf.exactly_one",
                    added("cnf.exactly_one"))
        self._patch(cnf.Formula, "at_most_k", "cnf.at_most_k",
                    added("cnf.at_most_k"))
        self._patch(cnf.Formula, "to_dimacs", "cnf.to_dimacs", dimacs)
        self._patch(search, "solve", "solvers.solve", solved)
        self._patch(solvers, "check_model", "solvers.check")
        self._patch(search, "decode", "plans.decode")
        self._patch(search, "ascend_parallel", "search.ascend")
        self._patch(search, "descend", "search.descend")
        self._patch(search, "serialize", "search.serialize")

    def remove(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.remove()


class Untraced:
    """Stand-in for a Tracer when a pass runs without tracing."""

    run_id = -1

    def span(self, name: str):
        return nullcontext()

    def installed(self):
        return nullcontext()


def write_spans(path, header: dict, tracers: list[Tracer]) -> None:
    """One JSON header line, then one line per span tagged with its pass."""
    with open(path, "w") as out:
        out.write(json.dumps(header, sort_keys=True) + "\n")
        for i, tracer in enumerate(tracers):
            for name, start, end, parent, run in tracer.spans:
                out.write(json.dumps({"pass": i, "name": name, "start": start,
                                      "end": end, "parent": parent,
                                      "run": run}) + "\n")


def _clause_count(args) -> int:
    """Clause count of the formula a call extends (first arg), else 0."""
    if args and isinstance(args[0], cnf.Formula):
        return len(args[0].clauses)
    return 0


def unit_of(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_share", "_ratio")):
        return "ratio"
    if name.endswith("_mb"):
        return "MB"
    return "count"


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer counts and busy times of one traced pass.

    Busy times are inclusive of the layers a call reaches into (an encoder
    span contains its reach and cnf spans); `search.self_s` is the search
    layer's own time, with every wrapped child layer taken out.
    """
    c, busy = tracer.counts, tracer.busy
    decided = c["solvers.sat.calls"] + c["solvers.unsat.calls"]
    metrics = {
        "encoder.calls": c["encoder.calls"],
        "encoder.busy_s": busy("encoder"),
        **{f"encoder.{mode.value}.busy_s": busy("encoder." + mode.value)
           for mode in encoder.Mode},
        "encoder.clauses": c["encoder.clauses"],
        "encoder.vars": c["encoder.vars"],
        "encoder.clauses_per_s": _ratio(c["encoder.clauses"], busy("encoder")),
        "reach.calls": c["reach.calls"],
        "reach.busy_s": busy("reach"),
        "reach.clauses": c["reach.clauses"],
        "reach.clause_share": _ratio(c["reach.clauses"], c["encoder.clauses"]),
        "cnf.exactly_one.clauses": c["cnf.exactly_one.clauses"],
        "cnf.exactly_one.busy_s": busy("cnf.exactly_one"),
        # every exactly_one call adds one at-least-one clause; the rest are AMO
        "cnf.amo_share": _ratio(c["cnf.exactly_one.clauses"]
                                - c["cnf.exactly_one.calls"],
                                c["encoder.clauses"]),
        "cnf.at_most_k.clauses": c["cnf.at_most_k.clauses"],
        "cnf.to_dimacs_s": busy("cnf.to_dimacs"),
        "cnf.dimacs_mb": c["cnf.dimacs_bytes"] / 1e6,
        "solvers.calls": c["solvers.calls"],
        "solvers.busy_s": busy("solvers.solve"),
        "solvers.sat.calls": c["solvers.sat.calls"],
        "solvers.unsat.calls": c["solvers.unsat.calls"],
        "solvers.unknown.calls": c["solvers.unknown.calls"],
        "solvers.sat.busy_s": c["solvers.sat.busy_s"],
        "solvers.unsat.busy_s": c["solvers.unsat.busy_s"],
        "solvers.check_s": busy("solvers.check"),
        "solvers.input_clauses": c["solvers.input_clauses"],
        "solvers.useful_ratio": _ratio(decided, c["solvers.calls"]),
        "plans.decode_s": busy("plans.decode"),
        "search.ascend_s": busy("search.ascend"),
        "search.descend_s": busy("search.descend"),
        "search.serialize_s": busy("search.serialize"),
        "search.self_s": tracer.self_time("search"),
    }
    return metrics
