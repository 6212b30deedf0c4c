"""Decode SAT models into plans, LURD solution strings, and run records.

A sequential plan is a list of directions (one primitive move each). A
parallel plan is a list of steps, each holding a set of object actions or a
single jump; collapsed-mode models decode to parallel form with singleton
steps, so one serializer covers both.

LURD strings use one character per move: l/u/r/d for plain walks, uppercase
when the move manipulates an object (roll, push, pop, or a box push). Case
is assigned by re-simulation, never trusted from the model.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field

from .encoder import Encoding, Mode
from .game import ActionKind, Direction, classify, initial_state, is_goal, run_plan
from .levels import Cell, Level

_LETTER = {Direction.W: "l", Direction.N: "u", Direction.E: "r", Direction.S: "d"}
_DIRECTION = {v: k for k, v in _LETTER.items()}

_ACTION_RE = re.compile(r"^(roll|push|pop)\[(\d+),(\d+),([NSEW]),(\d+)\]$")
_JUMP_RE = re.compile(r"^jump\[(\d+),(\d+),(\d+)\]$")
_DIR_RE = re.compile(r"^dir\[([NSEW]),(\d+)\]$")
_NOOP_RE = re.compile(r"^noop\[(\d+)\]$")


class DecodeError(Exception):
    """The model's action variables are inconsistent with the registry."""


class LurdError(Exception):
    """A solution string failed to replay or carries wrong annotations."""


@dataclass(frozen=True)
class ObjectAction:
    kind: str            # "roll" | "push" | "pop"
    cell: Cell           # the ball/box cell being acted on
    direction: Direction

    @property
    def pushing_cell(self) -> Cell:
        dr, dc = self.direction.value
        return (self.cell[0] - dr, self.cell[1] - dc)

    @property
    def destination(self) -> Cell:
        return self.direction.apply(self.cell)


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
class SequentialPlan:
    moves: list[Direction]


@dataclass
class ParallelPlan:
    steps: list[Step]

    @property
    def object_action_count(self) -> int:
        return sum(len(step.actions) for step in self.steps)


Plan = SequentialPlan | ParallelPlan


def decode(encoding: Encoding, model: dict[int, bool]) -> Plan:
    """Read the true action literals back out of a verified model."""
    if encoding.config.mode is Mode.FULL:
        return _decode_full(encoding, model)
    return _decode_object_plan(encoding, model)


def _decode_full(encoding: Encoding, model: dict[int, bool]) -> SequentialPlan:
    by_t: dict[int, Direction] = {}
    for name, var in encoding.formula.name_to_var.items():
        match = _DIR_RE.match(name)
        if match and model[var]:
            t = int(match.group(2))
            if t in by_t:
                raise DecodeError(f"two directions set at step {t}")
            by_t[t] = Direction[match.group(1)]
    T = encoding.config.horizon
    if sorted(by_t) != list(range(T)):
        raise DecodeError(f"direction variables do not cover steps 0..{T - 1}")
    return SequentialPlan([by_t[t] for t in range(T)])


def _decode_object_plan(encoding: Encoding, model: dict[int, bool]) -> ParallelPlan:
    actions: dict[int, set[ObjectAction]] = {}
    jumps: dict[int, Cell] = {}
    noops: set[int] = set()
    for name, var in encoding.formula.name_to_var.items():
        if not model[var]:
            continue
        if match := _ACTION_RE.match(name):
            kind, r, c, d, t = match.groups()
            actions.setdefault(int(t), set()).add(
                ObjectAction(kind, (int(r), int(c)), Direction[d]))
        elif match := _JUMP_RE.match(name):
            r, c, t = match.groups()
            t = int(t)
            if t in jumps:
                raise DecodeError(f"two jump destinations at step {t}")
            jumps[t] = (int(r), int(c))
        elif match := _NOOP_RE.match(name):
            noops.add(int(match.group(1)))
    steps: list[Step] = []
    for t in range(encoding.config.horizon):
        if t in noops:
            if t in actions or t in jumps:
                raise DecodeError(f"noop step {t} also carries actions")
            continue
        if t in jumps:
            if t in actions:
                raise DecodeError(f"jump step {t} also carries object actions")
            steps.append(Step(jump=jumps[t]))
        elif t in actions:
            if encoding.config.mode is not Mode.PARALLEL and len(actions[t]) > 1:
                raise DecodeError(f"sequential step {t} has multiple actions")
            steps.append(Step(actions=frozenset(actions[t])))
        else:
            raise DecodeError(f"step {t} has no action, jump, or noop")
    return ParallelPlan(steps)


# -- LURD strings -------------------------------------------------------


def to_lurd(level: Level, plan: SequentialPlan) -> str:
    """Render a move sequence, uppercasing object-manipulating moves."""
    state = initial_state(level)
    chars = []
    for i, move in enumerate(plan.moves):
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
    rendered = to_lurd(level, SequentialPlan(moves))
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

RECORD_FIELDS = ("instance", "game", "mode", "reach", "lb", "ub", "status",
                 "horizon_times", "seed", "backend", "lurd", "phase_times")

# timing fields are excluded when comparing records for determinism
TIMING_FIELDS = ("horizon_times", "phase_times")


@dataclass
class RunRecord:
    """One line of machine-readable output per solver run."""

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
        data = json.loads(line)
        data.setdefault("horizon_times", [])
        data.setdefault("phase_times", {})
        return cls(**{k: data.get(k) for k in RECORD_FIELDS})

    def stable_key(self) -> str:
        """Record identity with timing fields stripped."""
        data = {k: getattr(self, k) for k in RECORD_FIELDS
                if k not in TIMING_FIELDS}
        return json.dumps(data, sort_keys=True)
