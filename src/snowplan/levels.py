"""Puzzle level parsing and representation for both games.

Snowman text format: '#' wall, '-' plain floor, '.' snow floor, digits 1..7
for ball stacks (1 small, 2 medium, 3 small-on-medium, 4 large,
5 small-on-large, 6 medium-on-large, 7 full snowman), 'p' agent on plain
floor, 'P' agent on snow. Sokoban levels use the community XSB convention.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass
from functools import cached_property

Cell = tuple[int, int]


class ParseError(Exception):
    pass


class BallSize(enum.IntEnum):
    SMALL = 1
    MEDIUM = 2
    LARGE = 3


class GameTag(enum.Enum):
    SNOWMAN = "snowman"
    SOKOBAN = "sokoban"


# stack tuples are bottom-to-top, sizes strictly decreasing
_DIGIT_STACKS: dict[str, tuple[BallSize, ...]] = {
    "1": (BallSize.SMALL,),
    "2": (BallSize.MEDIUM,),
    "3": (BallSize.MEDIUM, BallSize.SMALL),
    "4": (BallSize.LARGE,),
    "5": (BallSize.LARGE, BallSize.SMALL),
    "6": (BallSize.LARGE, BallSize.MEDIUM),
    "7": (BallSize.LARGE, BallSize.MEDIUM, BallSize.SMALL),
}
_STACK_DIGITS = {v: k for k, v in _DIGIT_STACKS.items()}


@dataclass(frozen=True)
class Level:
    rows: int
    cols: int
    walls: frozenset[Cell]
    snow: frozenset[Cell]
    stacks: tuple[tuple[Cell, tuple[BallSize, ...]], ...]
    boxes: frozenset[Cell]
    goals: frozenset[Cell]
    agent: Cell
    game: GameTag

    @cached_property
    def floor(self) -> frozenset[Cell]:
        return frozenset(
            (r, c)
            for r in range(self.rows)
            for c in range(self.cols)
            if (r, c) not in self.walls
        )

    @property
    def snowman_count(self) -> int:
        return sum(len(s) for _, s in self.stacks) // 3

    def stack_map(self) -> dict[Cell, tuple[BallSize, ...]]:
        return dict(self.stacks)

    def is_wall(self, cell: Cell) -> bool:
        r, c = cell
        if not (0 <= r < self.rows and 0 <= c < self.cols):
            return True
        return cell in self.walls


def _split_rectangular(text: str, pad: bool) -> list[str]:
    lines = text.replace("\r\n", "\n").rstrip("\n").split("\n")
    if not lines or not any(lines):
        raise ParseError("empty level text")
    width = max(len(line) for line in lines)
    if pad:
        return [line.ljust(width) for line in lines]
    if any(len(line) != width for line in lines):
        raise ParseError("level text is not rectangular")
    return lines


def _check_border(level: Level) -> None:
    for r in range(level.rows):
        for c in (0, level.cols - 1):
            if (r, c) not in level.walls:
                raise ParseError(f"border cell ({r},{c}) is not a wall")
    for c in range(level.cols):
        for r in (0, level.rows - 1):
            if (r, c) not in level.walls:
                raise ParseError(f"border cell ({r},{c}) is not a wall")


def parse_snowman(text: str) -> Level:
    lines = _split_rectangular(text, pad=False)
    walls, snow = set(), set()
    stacks: dict[Cell, tuple[BallSize, ...]] = {}
    agent = None
    for r, line in enumerate(lines):
        for c, ch in enumerate(line):
            cell = (r, c)
            if ch == "#":
                walls.add(cell)
            elif ch == "-":
                pass
            elif ch == ".":
                snow.add(cell)
            elif ch in _DIGIT_STACKS:
                stacks[cell] = _DIGIT_STACKS[ch]
            elif ch in ("p", "P"):
                if agent is not None:
                    raise ParseError("duplicate agent")
                agent = cell
                if ch == "P":
                    snow.add(cell)
            else:
                raise ParseError(f"unknown character {ch!r} at ({r},{c})")
    if agent is None:
        raise ParseError("missing agent")
    ball_count = sum(len(s) for s in stacks.values())
    if ball_count % 3 != 0:
        raise ParseError(f"ball count {ball_count} not divisible by 3")
    level = Level(
        rows=len(lines),
        cols=len(lines[0]),
        walls=frozenset(walls),
        snow=frozenset(snow),
        stacks=tuple(sorted(stacks.items())),
        boxes=frozenset(),
        goals=frozenset(),
        agent=agent,
        game=GameTag.SNOWMAN,
    )
    _check_border(level)
    return level


def render_snowman(level: Level) -> str:
    stacks = level.stack_map()
    rows = []
    for r in range(level.rows):
        row = []
        for c in range(level.cols):
            cell = (r, c)
            if cell in level.walls:
                row.append("#")
            elif cell in stacks:
                row.append(_STACK_DIGITS[stacks[cell]])
            elif cell == level.agent:
                row.append("P" if cell in level.snow else "p")
            elif cell in level.snow:
                row.append(".")
            else:
                row.append("-")
        rows.append("".join(row))
    return "\n".join(rows) + "\n"


def parse_sokoban_xsb(text: str) -> Level:
    lines = _split_rectangular(text, pad=True)
    rows, cols = len(lines), len(lines[0])
    walls, boxes, goals = set(), set(), set()
    agent = None
    for r, line in enumerate(lines):
        for c, ch in enumerate(line):
            cell = (r, c)
            if ch == "#":
                walls.add(cell)
            elif ch in (" ", "-"):
                pass
            elif ch == "@":
                if agent is not None:
                    raise ParseError("duplicate agent")
                agent = cell
            elif ch == "+":
                if agent is not None:
                    raise ParseError("duplicate agent")
                agent = cell
                goals.add(cell)
            elif ch == "$":
                boxes.add(cell)
            elif ch == "*":
                boxes.add(cell)
                goals.add(cell)
            elif ch == ".":
                goals.add(cell)
            else:
                raise ParseError(f"unknown character {ch!r} at ({r},{c})")
    if agent is None:
        raise ParseError("missing agent")
    if len(boxes) != len(goals):
        raise ParseError(f"{len(boxes)} boxes but {len(goals)} goals")
    # exterior floor (connected to the frame) counts as wall
    exterior = _exterior_cells(rows, cols, walls)
    if agent in exterior or boxes & exterior or goals & exterior:
        raise ParseError("agent, box, or goal outside the walls")
    level = Level(
        rows=rows,
        cols=cols,
        walls=frozenset(walls | exterior),
        snow=frozenset(),
        stacks=(),
        boxes=frozenset(boxes),
        goals=frozenset(goals),
        agent=agent,
        game=GameTag.SOKOBAN,
    )
    _check_border(level)
    return level


def _exterior_cells(rows: int, cols: int, walls: set[Cell]) -> set[Cell]:
    seen: set[Cell] = set()
    queue: deque[Cell] = deque()
    for r in range(rows):
        for c in (0, cols - 1):
            if (r, c) not in walls:
                seen.add((r, c))
                queue.append((r, c))
    for c in range(cols):
        for r in (0, rows - 1):
            if (r, c) not in walls:
                seen.add((r, c))
                queue.append((r, c))
    while queue:
        r, c = queue.popleft()
        for nb in ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)):
            if (0 <= nb[0] < rows and 0 <= nb[1] < cols
                    and nb not in walls and nb not in seen):
                seen.add(nb)
                queue.append(nb)
    return seen


def render_sokoban_xsb(level: Level) -> str:
    rows = []
    for r in range(level.rows):
        row = []
        for c in range(level.cols):
            cell = (r, c)
            if cell in level.walls:
                row.append("#")
            elif cell == level.agent:
                row.append("+" if cell in level.goals else "@")
            elif cell in level.boxes:
                row.append("*" if cell in level.goals else "$")
            elif cell in level.goals:
                row.append(".")
            else:
                row.append("-")
        rows.append("".join(row))
    return "\n".join(rows) + "\n"


def render(level: Level) -> str:
    if level.game is GameTag.SNOWMAN:
        return render_snowman(level)
    return render_sokoban_xsb(level)


def parse_level(text: str, game: GameTag) -> Level:
    if game is GameTag.SNOWMAN:
        return parse_snowman(text)
    return parse_sokoban_xsb(text)
