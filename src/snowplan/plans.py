"""Decode SAT models into plans, LURD solution strings, and run records.

FULL models decode to a list of directions (one primitive move each). Every
other mode decodes to a parallel plan: a list of steps, each holding a set
of object actions or a single jump; collapsed-mode models decode to
parallel form with singleton steps, so one serializer covers both.

LURD strings use one character per move: l/u/r/d for plain walks, uppercase
when the move manipulates an object (roll, push, pop, or a box push). Case
is assigned by re-simulation, never trusted from the model.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields

from .encoder import Encoding, Mode
from .game import (ActionKind, Direction, ObjectAction, classify, initial_state,
                   is_goal, run_plan)
from .levels import Cell, Level

_LETTER = {Direction.W: "l", Direction.N: "u", Direction.E: "r", Direction.S: "d"}
_DIRECTION = {v: k for k, v in _LETTER.items()}


class DecodeError(Exception):
    """The model sets a step's action literals in a way no plan step can
    take: two directions, two jumps, a jump or noop with object actions,
    several actions in a sequential step, or nothing at all."""


class LurdError(Exception):
    """A solution string failed to replay or carries wrong annotations."""


@dataclass(frozen=True)
class Step:
    """One parallel timestep: a set of object actions, or a single jump."""

    actions: frozenset[ObjectAction] = frozenset()
    jump: Cell | None = None

    def __post_init__(self):
        if self.jump is not None and self.actions:
            raise ValueError("a jump step carries no object actions")
        if self.jump is None and not self.actions:
            raise ValueError("empty step")


@dataclass
class ParallelPlan:
    steps: list[Step]

    @property
    def object_action_count(self) -> int:
        return sum(len(step.actions) for step in self.steps)


def decode(encoding: Encoding, model: dict[int, bool]
           ) -> list[Direction] | ParallelPlan:
    """Read the true action literals of steps 0..T-1 back out of a verified
    model, from the encoding's per-step action lists."""
    if encoding.config.mode is Mode.FULL:
        return _decode_full(encoding, model)
    return _decode_object_plan(encoding, model)


def _decode_full(encoding: Encoding, model: dict[int, bool]) -> list[Direction]:
    moves = []
    for t, dirs in enumerate(encoding.dirs[:encoding.config.horizon]):
        chosen = [d for d, var in dirs.items() if model[var]]
        if len(chosen) != 1:
            raise DecodeError(f"{len(chosen)} directions set at step {t}")
        moves.append(chosen[0])
    return moves


def _decode_object_plan(encoding: Encoding, model: dict[int, bool]) -> ParallelPlan:
    mode = encoding.config.mode
    steps: list[Step] = []
    for t in range(encoding.config.horizon):
        actions = frozenset(action for action, var in encoding.actions[t]
                            if model[var])
        jumps = ([cell for cell, var in encoding.jumps[t].items() if model[var]]
                 if mode is Mode.PARALLEL else [])
        if mode is Mode.DESCEND and model[encoding.noops[t]]:
            if actions:
                raise DecodeError(f"noop step {t} also carries actions")
            continue
        if len(jumps) > 1:
            raise DecodeError(f"two jump destinations at step {t}")
        if jumps:
            if actions:
                raise DecodeError(f"jump step {t} also carries object actions")
            steps.append(Step(jump=jumps[0]))
        elif actions:
            if mode is not Mode.PARALLEL and len(actions) > 1:
                raise DecodeError(f"sequential step {t} has multiple actions")
            steps.append(Step(actions=actions))
        else:
            raise DecodeError(f"step {t} has no action, jump, or noop")
    return ParallelPlan(steps)


# -- LURD strings -------------------------------------------------------


def to_lurd(level: Level, moves: list[Direction]) -> str:
    """Render a move sequence, uppercasing object-manipulating moves."""
    state = initial_state(level)
    chars = []
    for i, move in enumerate(moves):
        result = classify(level, state, move)
        if result is None:
            raise LurdError(f"plan rejected at move {i}")
        kind, state = result
        letter = _LETTER[move]
        chars.append(letter if kind is ActionKind.MOVE else letter.upper())
    return "".join(chars)


def parse_lurd(text: str) -> list[tuple[Direction, bool]]:
    """Parse a solution string into (direction, claims-object-action) pairs."""
    out = []
    for i, ch in enumerate(text):
        if ch.lower() not in _DIRECTION:
            raise LurdError(f"bad character {ch!r} at index {i}")
        out.append((_DIRECTION[ch.lower()], ch.isupper()))
    return out


def validate_lurd(level: Level, text: str) -> dict:
    """Replay a solution string, checking goal and case annotations.

    Returns a summary dict; raises LurdError on rejection or a case
    mismatch against the simulator's action classification.
    """
    parsed = parse_lurd(text)
    moves = [d for d, _ in parsed]
    result = run_plan(level, moves)
    if not result.ok:
        raise LurdError(f"move {result.rejected_at} rejected by the simulator")
    rendered = to_lurd(level, moves)
    if rendered != text:
        diff = next(i for i, (a, b) in enumerate(zip(rendered, text)) if a != b)
        raise LurdError(f"case annotation mismatch at index {diff}: "
                        f"expected {rendered[diff]!r}, got {text[diff]!r}")
    return {
        "goal": is_goal(level, result.state),
        "moves": len(moves),
        "object_actions": sum(1 for ch in rendered if ch.isupper()),
    }


# -- run records --------------------------------------------------------

# timing fields are excluded when comparing records for determinism
TIMING_FIELDS = ("horizon_times", "phase_times")


@dataclass
class RunRecord:
    """One line of machine-readable output per solver run.

    `reach` is the reachability encoding the run was asked for; in a
    hybrid run that is ascend's, and descend always encodes PATH.
    `horizon_times` holds one wall time per SAT call, ascend's calls first,
    then descend's. `lb` and `ub` are null when the run has no such bound.
    A hybrid run on a level that `analysis.lower_bound` proves has no plan
    also reports a null `lb`: no status says "infeasible" yet.
    """

    instance: str
    game: str
    mode: str
    reach: str
    lb: int | None
    ub: int | None
    status: str
    horizon_times: list[float] = field(default_factory=list)
    seed: int | None = None
    backend: str = ""
    lurd: str | None = None
    phase_times: dict[str, float] = field(default_factory=dict)  # seconds per phase

    def to_json(self) -> str:
        return json.dumps({k: getattr(self, k) for k in RECORD_FIELDS},
                          sort_keys=True)

    @classmethod
    def from_json(cls, line: str) -> "RunRecord":
        """Load a `to_json` line. Absent optional fields take their
        defaults; an absent required field raises TypeError."""
        data = json.loads(line)
        return cls(**{k: data[k] for k in RECORD_FIELDS if k in data})

    def stable_key(self) -> str:
        """Record identity with timing fields stripped."""
        data = {k: getattr(self, k) for k in RECORD_FIELDS
                if k not in TIMING_FIELDS}
        return json.dumps(data, sort_keys=True)


RECORD_FIELDS = tuple(f.name for f in fields(RunRecord))
