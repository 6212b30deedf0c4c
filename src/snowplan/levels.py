"""Puzzle level parsing and representation for both games.

Each text format is one `LevelFormat` table in `FORMATS`: its file suffix,
the marks each glyph puts on a cell, and whether ragged lines are padded.
`parse_level` reads every format through its table and `render` inverts it.

Snowman text format (`.snw`): '#' wall, '-' plain floor, '.' snow floor,
digits 1..7 for ball stacks (1 small, 2 medium, 3 small-on-medium, 4 large,
5 small-on-large, 6 medium-on-large, 7 full snowman), 'p' agent on plain
floor, 'P' agent on snow. Sokoban levels (`.xsb`) use the community XSB
convention; a level may have spare goals, but not more boxes than goals.
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


# The marks a glyph can put on its cell; a ball stack is a mark of its own.
WALL, SNOW, AGENT, BOX, GOAL = "wall", "snow", "agent", "box", "goal"
Mark = str | tuple[BallSize, ...]


@dataclass(frozen=True)
class LevelFormat:
    """One level text format. `glyphs` maps each glyph to the marks it puts
    on its cell; where two glyphs put the same marks, `render` writes the
    first. With `pad`, ragged lines are padded with floor and floor joined
    to the frame lies outside the level and becomes wall; without it,
    ragged text is rejected."""
    game: GameTag
    suffix: str
    glyphs: dict[str, tuple[Mark, ...]]
    pad: bool


FORMATS = {fmt.game: fmt for fmt in (
    LevelFormat(GameTag.SNOWMAN, ".snw", pad=False, glyphs={
        "#": (WALL,), "-": (), ".": (SNOW,), "p": (AGENT,), "P": (AGENT, SNOW),
        **{digit: (stack,) for digit, stack in _DIGIT_STACKS.items()}}),
    LevelFormat(GameTag.SOKOBAN, ".xsb", pad=True, glyphs={
        "#": (WALL,), "-": (), " ": (), ".": (GOAL,), "$": (BOX,),
        "*": (BOX, GOAL), "@": (AGENT,), "+": (AGENT, GOAL)}),
)}
SUFFIXES = {fmt.suffix: game for game, fmt in FORMATS.items()}


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


def _border(rows: int, cols: int) -> list[Cell]:
    return ([(r, c) for r in range(rows) for c in (0, cols - 1)]
            + [(r, c) for c in range(cols) for r in (0, rows - 1)])


def _exterior_cells(rows: int, cols: int, walls: set[Cell]) -> set[Cell]:
    seen = {cell for cell in _border(rows, cols) if cell not in walls}
    queue = deque(seen)
    while queue:
        r, c = queue.popleft()
        for nb in ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)):
            if (0 <= nb[0] < rows and 0 <= nb[1] < cols
                    and nb not in walls and nb not in seen):
                seen.add(nb)
                queue.append(nb)
    return seen


def parse_level(text: str, game: GameTag) -> Level:
    fmt = FORMATS[game]
    lines = _split_rectangular(text, fmt.pad)
    rows, cols = len(lines), len(lines[0])
    marked: dict[str, set[Cell]] = {WALL: set(), SNOW: set(), AGENT: set(),
                                    BOX: set(), GOAL: set()}
    stacks: dict[Cell, tuple[BallSize, ...]] = {}
    for r, line in enumerate(lines):
        for c, ch in enumerate(line):
            marks = fmt.glyphs.get(ch)
            if marks is None:
                raise ParseError(f"unknown character {ch!r} at ({r},{c})")
            for mark in marks:
                if isinstance(mark, tuple):
                    stacks[(r, c)] = mark
                elif mark == AGENT and marked[AGENT]:
                    raise ParseError("duplicate agent")
                else:
                    marked[mark].add((r, c))
    if not marked[AGENT]:
        raise ParseError("missing agent")
    (agent,) = marked[AGENT]
    ball_count = sum(len(s) for s in stacks.values())
    if ball_count % 3 != 0:
        raise ParseError(f"ball count {ball_count} not divisible by 3")
    walls, boxes, goals = marked[WALL], marked[BOX], marked[GOAL]
    if len(boxes) > len(goals):
        raise ParseError(f"{len(boxes)} boxes but {len(goals)} goals")
    if fmt.pad:
        exterior = _exterior_cells(rows, cols, walls)
        if agent in exterior or boxes & exterior or goals & exterior:
            raise ParseError("agent, box, or goal outside the walls")
        walls |= exterior
    for r, c in _border(rows, cols):
        if (r, c) not in walls:
            raise ParseError(f"border cell ({r},{c}) is not a wall")
    return Level(rows=rows, cols=cols, walls=frozenset(walls),
                 snow=frozenset(marked[SNOW]), stacks=tuple(sorted(stacks.items())),
                 boxes=frozenset(boxes), goals=frozenset(goals), agent=agent,
                 game=game)


def render(level: Level) -> str:
    glyphs = FORMATS[level.game].glyphs.items()
    glyph_of = {frozenset(marks): glyph for glyph, marks in reversed(glyphs)}
    marked = [(WALL, level.walls), (SNOW, level.snow), (AGENT, {level.agent}),
              (BOX, level.boxes), (GOAL, level.goals)]
    marked += [(stack, {cell}) for cell, stack in level.stacks]
    marks_at: list[list[set[Mark]]] = [[set() for _ in range(level.cols)]
                                       for _ in range(level.rows)]
    for mark, cells in marked:
        for r, c in cells:
            marks_at[r][c].add(mark)
    return "".join("".join(glyph_of[frozenset(marks)] for marks in row) + "\n"
                   for row in marks_at)
