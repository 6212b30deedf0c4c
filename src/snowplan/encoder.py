"""Bounded-horizon planning encoder: compile a level and horizon T into CNF.

Four modes are supported. FULL is the plain sequential encoding with one
move/roll/push/pop per step. COLLAPSED drops walking: each step is one object
action whose pushing cell must be reachable from the agent's position, with
reachability encoded per timestep. PARALLEL allows several non-interfering
object actions per step under forall-step semantics (any ordering of a step
serializes), plus an exclusive jump action. DESCEND is COLLAPSED with a noop
action so horizons below a known upper bound can be probed.

`encode` returns an `Encoding`: the formula together with the tables that
hold its literals, the state variables keyed by (cell, t) and the per-step
action lists a plan is read from. Passed back as `extend`, it grows in
place to a later horizon.

In COLLAPSED, PARALLEL and DESCEND, step t has an object action only for a
slot of `analysis.slots` open by step t (`Encoding.slots`): a ball cell
and destination that are not dead, a ball or box that can be at the ball
cell by step t, and for PUSH and POP a second ball that can be at the
destination or at the ball cell by then. Decoders and tests must not
assume an action for every floor cell. Each step has one reachability
fragment (PATH: one copy per ball in PARALLEL), which a PARALLEL jump
reads too.

Solved without `goal[T]`, a COLLAPSED, PARALLEL or DESCEND formula allows
any T-step run that never moves a ball onto a dead cell (one with no push
route to a goal, or to a cell three balls can reach), nor off one. No plan
visits a dead cell, so under `goal[T]` the answers are those of the
unpruned formula. FULL prunes nothing and allows any T-step run.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import combinations

from . import analysis, reach
from . import levels as lv
from .cnf import Formula
from .game import ActionKind, Direction, ObjectAction
from .levels import Cell, GameTag, Level


class Mode(enum.Enum):
    FULL = "full"
    COLLAPSED = "collapsed"
    PARALLEL = "parallel"
    DESCEND = "descend"


class ReachKind(enum.Enum):
    PATH = "path"
    DAG = "dag"
    TREE = "tree"


@dataclass(frozen=True)
class EncodingConfig:
    mode: Mode
    horizon: int
    reach: ReachKind = ReachKind.PATH

    def __post_init__(self):
        if self.horizon < 0:
            raise ValueError("horizon must be >= 0")


def encode(level: Level, config: EncodingConfig,
           extend: Encoding | None = None) -> Encoding:
    """Compile a level up to `config.horizon`.

    The goal at the horizon is a set of clauses guarded by a fresh `goal[T]`
    variable (`Encoding.goal`): solve under the assumption `goal[T]` for a
    plan that reaches the goal at T, or without it for any T-step run that
    never moves a ball onto a dead cell (see the module docstring). Pass
    the result back as `extend` to grow it in place to a later horizon;
    layers already in `extend` are not encoded again, and the config may
    differ from its config only in a higher horizon.
    """
    if extend is None:
        return Encoding(level, config)
    last = extend.config
    if (level is not extend.level or config.horizon <= last.horizon
            or replace(config, horizon=last.horizon) != last):
        raise ValueError("an extension may only raise the horizon")
    extend._grow(config, last.horizon + 1)
    return extend


class Encoding:
    """A formula built one time layer at a time, with everything needed to
    decode its models. Layer t holds the state variables at t and, for
    t > 0, the transition t-1 -> t with its frame axioms.

    `config` and `goal` belong to the last horizon built. Each transition
    appends the action literals a plan is read from to the lists of its
    mode: `dirs` (FULL), `actions` (the others, as `_object_actions`
    returns them), `jumps` (PARALLEL), `noops` (DESCEND)."""

    def __init__(self, level: Level, config: EncodingConfig):
        self.level = level
        self.formula = Formula()
        self.graph = reach.grid_graph(level.floor)
        self.vertex = {cell: i for i, cell in enumerate(self.graph.cell_of)}
        self.cells = sorted(level.floor)
        self.snowman = level.game is GameTag.SNOWMAN
        self.kinds = ((ActionKind.ROLL, ActionKind.PUSH, ActionKind.POP)
                      if self.snowman else (ActionKind.ROLL,))
        self.dirs: list[dict[Direction, int]] = []
        self.actions: list[list[tuple[ObjectAction, int]]] = []
        self.jumps: list[dict[Cell, int]] = []
        self.noops: list[int] = []

        # state variables, keyed (cell, t)
        self.snow: dict[tuple[Cell, int], int] = {}
        self.bs: dict[tuple[Cell, int], int] = {}
        self.bm: dict[tuple[Cell, int], int] = {}
        self.bl: dict[tuple[Cell, int], int] = {}
        self.box: dict[tuple[Cell, int], int] = {}
        self.agent: dict[tuple[Cell, int], int] = {}
        self.free: dict[tuple[Cell, int], int] = {}

        # frame-axiom licensors, keyed (cell, t)
        self.ball_arrive: dict[tuple[Cell, int], list[int]] = {}
        self.ball_leave: dict[tuple[Cell, int], list[int]] = {}
        self.snow_clear: dict[tuple[Cell, int], list[int]] = {}
        self.agent_in: dict[tuple[Cell, int], list[int]] = {}
        self.agent_out: dict[tuple[Cell, int], list[int]] = {}
        self._grow(config, 0)

    def _grow(self, config: EncodingConfig, first: int) -> None:
        """Append layers first..config.horizon, then the goal at the
        horizon."""
        self.config = config
        for t in range(first, config.horizon + 1):
            self._state_layer(t)
            if t:
                self._transition(t - 1)
        self.goal = self._goal(config.horizon)

    def _state_layer(self, t: int) -> None:
        self._make_state_vars(t)
        if self.config.mode is not Mode.FULL:
            self._make_free_vars(t)
        if t == 0:
            self._initial_state()
        # implied by the frame axioms in FULL, but stated so the solver
        # propagates it
        self.formula.exactly_one([self.agent[cell, t] for cell in self.cells])
        if self.snowman:
            self._invariants(t)

    def _transition(self, t: int) -> None:
        if self.config.mode is Mode.FULL:
            self._full_step(t)
            self._agent_frame_axioms(t)
        elif self.config.mode is Mode.PARALLEL:
            self._parallel_step(t)
        else:
            self._collapsed_step(t)
        self._frame_axioms(t)

    # -- shared helpers -------------------------------------------------

    def _flags(self, cell: Cell, t: int) -> list[int]:
        if self.snowman:
            return [self.bs[cell, t], self.bm[cell, t], self.bl[cell, t]]
        return [self.box[cell, t]]

    def _lic(self, table, cell: Cell, t: int, var: int) -> None:
        table.setdefault((cell, t), []).append(var)

    def _make_state_vars(self, t: int) -> None:
        formula = self.formula
        for cell in self.cells:
            self.agent[cell, t] = formula.new_var()
            if self.snowman:
                self.snow[cell, t] = formula.new_var()
                self.bs[cell, t] = formula.new_var()
                self.bm[cell, t] = formula.new_var()
                self.bl[cell, t] = formula.new_var()
            else:
                self.box[cell, t] = formula.new_var()

    def _make_free_vars(self, t: int) -> None:
        """free[v,t] is true iff no ball/box occupies v at time t."""
        formula = self.formula
        for cell in self.cells:
            fv = formula.new_var()
            self.free[cell, t] = fv
            formula.define_or(-fv, self._flags(cell, t))

    def _initial_state(self) -> None:
        def fix(var: int, value: bool) -> None:
            self.formula.add_clause([var if value else -var])

        stacks = self.level.stack_map()
        for cell in self.cells:
            fix(self.agent[cell, 0], cell == self.level.agent)
            if self.snowman:
                fix(self.snow[cell, 0], cell in self.level.snow)
                sizes = set(stacks.get(cell, ()))
                fix(self.bs[cell, 0], lv.BallSize.SMALL in sizes)
                fix(self.bm[cell, 0], lv.BallSize.MEDIUM in sizes)
                fix(self.bl[cell, 0], lv.BallSize.LARGE in sizes)
            else:
                fix(self.box[cell, 0], cell in self.level.boxes)

    def _goal(self, T: int) -> int:
        """A new variable goal[T], and the goal at T as clauses that hold
        while it is true."""
        formula = self.formula
        guard = formula.new_var()
        if self.snowman:
            # no partial snowman anywhere: the three size flags agree per cell
            for cell in self.cells:
                s, m, l = self.bs[cell, T], self.bm[cell, T], self.bl[cell, T]
                formula.add_clause([-guard, -s, m])
                formula.add_clause([-guard, -m, s])
                formula.add_clause([-guard, -m, l])
                formula.add_clause([-guard, -l, m])
        else:
            for cell in self.cells:
                if cell not in self.level.goals:
                    formula.add_clause([-guard, -self.box[cell, T]])
        return guard

    def _invariants(self, t: int) -> None:
        """Snowball counting: larges never exceed, smalls never undercut,
        the snowman count."""
        count = self.level.snowman_count
        formula = self.formula
        formula.at_most_k([self.bl[cell, t] for cell in self.cells], count)
        formula.at_least_k([self.bs[cell, t] for cell in self.cells], count)

    # -- object-action effect tables ------------------------------------

    def _object_action(self, kind: ActionKind, l: Cell, d: Direction, t: int,
                       needs=()) -> int:
        """A new `kind` variable implying each literal of `needs`, then the
        effects of moving the ball at l one cell in d."""
        formula = self.formula
        a = formula.new_var()
        for lit in needs:
            formula.add_clause([-a, lit])
        self._EFFECTS[kind](self, a, l, d.apply(l), t)
        return a

    def _land(self, a: int, b: Cell, t: int, table) -> None:
        """The ball landing on the empty cell b: each row (pre, out) of the
        table says that, while a and every literal of pre hold, the size
        flag `out` is the only one set at b at t+1."""
        formula = self.formula
        for pre, out in table:
            head = [-a] + [-p for p in pre]
            formula.add_clause(head + [out[b, t + 1]])
            for other in (self.bs, self.bm, self.bl):
                if other is not out:
                    formula.add_clause(head + [-other[b, t + 1]])

    def _roll_clauses(self, a: int, l: Cell, b: Cell, t: int) -> None:
        """Ball at l advances to the empty cell b, growing on snow."""
        formula = self.formula
        bs, bm, bl, sn = self.bs, self.bm, self.bl, self.snow
        self._record_move_licensors(a, l, b, t)
        formula.exactly_one(self._flags(l, t), [-a])
        for flag in self._flags(b, t):
            formula.add_clause([-a, -flag])
        for flag in self._flags(l, t + 1):
            formula.add_clause([-a, -flag])
        if not self.snowman:
            formula.add_clause([-a, self.box[b, t + 1]])
            return
        formula.add_clause([-a, -sn[b, t + 1]])
        self._land(a, b, t, (
            ([bs[l, t], sn[b, t]], bm),
            ([bs[l, t], -sn[b, t]], bs),
            ([bm[l, t], sn[b, t]], bl),
            ([bm[l, t], -sn[b, t]], bm),
            ([bl[l, t]], bl),
        ))

    def _push_clauses(self, a: int, l: Cell, b: Cell, t: int) -> None:
        """Single ball at l stacks onto the strictly-bigger top at b."""
        formula = self.formula
        bs, bm, bl = self.bs, self.bm, self.bl
        # the pushed ball is not large, and it is alone at l
        formula.add_clause([-a, bs[l, t], bm[l, t]])
        formula.add_clause([-a, -bl[l, t]])
        formula.add_clause([-a, -bs[l, t], -bm[l, t]])
        for flag in self._flags(l, t + 1):
            formula.add_clause([-a, -flag])
        # receiving stack's top must be strictly bigger than the pushed ball
        formula.add_clause([-a, -bs[b, t]])
        formula.add_clause([-a, -bs[l, t], bm[b, t], bl[b, t]])
        formula.add_clause([-a, -bm[l, t], -bm[b, t]])
        formula.add_clause([-a, -bm[l, t], bl[b, t]])
        # the pushed flag appears at b; everything else at b is unchanged
        formula.add_clause([-a, -bs[l, t], bs[b, t + 1]])
        formula.add_clause([-a, -bm[l, t], bm[b, t + 1]])
        formula.add_clause([-a, -bm[l, t], -bs[b, t + 1]])
        formula.add_clause([-a, -bs[l, t], -bm[b, t], bm[b, t + 1]])
        formula.add_clause([-a, -bs[l, t], bm[b, t], -bm[b, t + 1]])
        formula.add_clause([-a, -bl[b, t], bl[b, t + 1]])
        formula.add_clause([-a, bl[b, t], -bl[b, t + 1]])
        self._lic(self.ball_leave, l, t, a)
        self._lic(self.ball_arrive, b, t, a)

    def _pop_clauses(self, a: int, l: Cell, b: Cell, t: int) -> None:
        """Top of a stack of >= 2 at l advances to the empty cell b."""
        formula = self.formula
        bs, bm, bl, sn = self.bs, self.bm, self.bl, self.snow
        # at least two balls at l
        for x, y in combinations(self._flags(l, t), 2):
            formula.add_clause([-a, x, y])
        for flag in self._flags(b, t):
            formula.add_clause([-a, -flag])
        formula.add_clause([-a, -sn[b, t + 1]])
        # stacks list larger sizes below, so the top is the smallest flag
        # present; a stack of two or more never has a large top
        formula.add_clause([-a, -bs[l, t], -bs[l, t + 1]])
        formula.add_clause([-a, bs[l, t], -bm[l, t + 1]])
        formula.add_clause([-a, -bs[l, t], -bm[l, t], bm[l, t + 1]])
        formula.add_clause([-a, -bl[l, t], bl[l, t + 1]])
        self._land(a, b, t, (
            ([bs[l, t], sn[b, t]], bm),
            ([bs[l, t], -sn[b, t]], bs),
            ([-bs[l, t], sn[b, t]], bl),
            ([-bs[l, t], -sn[b, t]], bm),
        ))
        self._record_move_licensors(a, l, b, t)

    def _record_move_licensors(self, a: int, l: Cell, b: Cell, t: int) -> None:
        self._lic(self.ball_leave, l, t, a)
        self._lic(self.ball_arrive, b, t, a)
        if self.snowman:
            self._lic(self.snow_clear, b, t, a)

    _EFFECTS = {ActionKind.ROLL: _roll_clauses, ActionKind.PUSH: _push_clauses,
                ActionKind.POP: _pop_clauses}

    # -- frame axioms ---------------------------------------------------

    def _frame(self, now: int, nxt: int, rise: list[int],
               fall: list[int]) -> None:
        """A flag true at t+1 but not at t needs a literal of `rise`; one
        true at t but not at t+1 needs a literal of `fall`."""
        self.formula.add_clause([now, -nxt] + rise)
        self.formula.add_clause([-now, nxt] + fall)

    def _frame_axioms(self, t: int) -> None:
        """A state flip between t and t+1 needs a licensing action at t."""
        for cell in self.cells:
            arrive = self.ball_arrive.get((cell, t), [])
            leave = self.ball_leave.get((cell, t), [])
            if self.snowman:
                self._frame(self.snow[cell, t], self.snow[cell, t + 1], [],
                            self.snow_clear.get((cell, t), []))
            for now, nxt in zip(self._flags(cell, t),
                                self._flags(cell, t + 1)):
                self._frame(now, nxt, arrive, leave)

    def _agent_frame_axioms(self, t: int) -> None:
        for cell in self.cells:
            self._frame(self.agent[cell, t], self.agent[cell, t + 1],
                        self.agent_in.get((cell, t), []),
                        self.agent_out.get((cell, t), []))

    # -- FULL mode ------------------------------------------------------

    def _agent_steps(self, a: int, cell: Cell, m: Cell, t: int) -> None:
        """Under a, the agent steps from cell to m."""
        self.formula.add_clause([-a, -self.agent[cell, t + 1]])
        self.formula.add_clause([-a, self.agent[m, t + 1]])
        self._lic(self.agent_out, cell, t, a)
        self._lic(self.agent_in, m, t, a)

    def _full_step(self, t: int) -> None:
        formula = self.formula
        dirs = {d: formula.new_var() for d in Direction}
        self.dirs.append(dirs)
        formula.exactly_one(list(dirs.values()))
        for cell in self.cells:
            for d in Direction:
                m = d.apply(cell)
                if self.level.is_wall(m):
                    # wall straight ahead: this direction is unavailable
                    formula.add_clause([-self.agent[cell, t], -dirs[d]])
                    continue
                here = (self.agent[cell, t], dirs[d])
                mo = formula.new_var()
                cases = [mo]
                for lit in here:
                    formula.add_clause([-mo, lit])
                self._agent_steps(mo, cell, m, t)
                for flag in self._flags(m, t):
                    formula.add_clause([-mo, -flag])
                if not self.level.is_wall(d.apply(m)):
                    for kind in self.kinds:
                        a = self._object_action(kind, m, d, t, here)
                        cases.append(a)
                        if kind is ActionKind.POP:
                            formula.add_clause([-a, self.agent[cell, t + 1]])
                        else:
                            self._agent_steps(a, cell, m, t)
                # acting here in this direction requires one of the cases
                formula.add_clause([-self.agent[cell, t], -dirs[d]] + cases)

    # -- collapsed-family modes -----------------------------------------

    @cached_property
    def slots(self) -> list[tuple[ObjectAction, int]]:
        """Every object action the relaxation allows, with the first step
        it can happen at (`analysis.slots`)."""
        return analysis.slots(self.level)

    def _object_actions(self, t: int) -> list[tuple[ObjectAction, int]]:
        """Create this step's object-action variables and their clauses,
        one per slot open by step t.

        Each acts on the ball at its cell l; the agent acts from the pushing
        cell p = l - d and the ball heads to b = l + d (all three on floor).
        """
        out = [(a, self._object_action(a.kind, a.cell, a.direction, t))
               for a, opens in self.slots if opens <= t]
        self.actions.append(out)
        return out

    def _agent_effects_sequential(self, actions, t: int) -> None:
        """COLLAPSED/DESCEND: the agent's next position is determined."""
        for action, a in actions:
            stand = (action.pushing_cell if action.kind is ActionKind.POP
                     else action.cell)
            self.formula.add_clause([-a, self.agent[stand, t + 1]])

    def _attach_reach(self, actions, t: int,
                      gate: dict[int, int]) -> dict[int, int]:
        """Require each action's pushing cell reachable from the agent, and
        return a literal per vertex that implies it is reachable.

        DAG and TREE give every cell a reach variable, and that map is
        returned. PATH needs explicit targets: one copy per ball aims at each
        acting step's pushing cell (sequential modes use one copy, PARALLEL
        one per ball), and a copy with no target is released through its
        selector literal (noop steps have no target). The targets of copy 0
        are returned.
        """
        formula = self.formula
        source = {self.vertex[cell]: self.agent[cell, t] for cell in self.cells}
        if self.config.reach is not ReachKind.PATH:
            encode_reach = (reach.encode_dag if self.config.reach is ReachKind.DAG
                            else reach.encode_spanning_tree)
            by_copy = [encode_reach(formula, self.graph, source, gate)]
        else:
            copies = 1
            if self.config.mode is Mode.PARALLEL:
                balls = sum(len(s) for _, s in self.level.stacks)
                copies = max(1, balls or len(self.level.boxes))
            by_copy = []
            for _ in range(copies):
                tgt = {v: formula.new_var()
                       for v in range(self.graph.num_vertices)}
                formula.at_most_one(list(tgt.values()))
                sel = formula.new_var()
                formula.define_or(sel, list(tgt.values()))
                # a path from the source to the target while sel holds; the
                # source copy is empty otherwise
                src = {}
                for v, ind in source.items():
                    src[v] = formula.new_var()
                    formula.define_and(src[v], [ind, sel])
                reach.encode_path(formula, self.graph, src, tgt, gate)
                by_copy.append(tgt)
        for action, a in actions:
            p = self.vertex[action.pushing_cell]
            formula.add_clause([-a] + [tgt[p] for tgt in by_copy])
        return by_copy[0]

    def _collapsed_step(self, t: int) -> None:
        formula = self.formula
        actions = self._object_actions(t)
        avars = [a for _, a in actions]
        if self.config.mode is Mode.DESCEND:
            noop = formula.new_var()
            for cell in self.cells:
                formula.add_clause([-noop, -self.agent[cell, t],
                              self.agent[cell, t + 1]])
            formula.exactly_one(avars + [noop])
            # once idle, stay idle: pushes all noops to the tail of the plan
            if self.noops:
                formula.add_clause([-self.noops[-1], noop])
            self.noops.append(noop)
        elif avars:
            formula.exactly_one(avars)
        else:
            formula.add_clause([])    # no ball can move: no step is possible
        self._agent_effects_sequential(actions, t)
        gate = {self.vertex[cell]: self.free[cell, t] for cell in self.cells}
        self._attach_reach(actions, t, gate)

    def _parallel_step(self, t: int) -> None:
        formula = self.formula
        actions = self._object_actions(t)
        avars = [a for _, a in actions]
        # direct interference: the balls' source/destination cells of two
        # simultaneous actions must not intersect. Pairs (i, j), i < j, in
        # lexicographic order, found through the actions at each cell
        at_cell: dict[Cell, list[int]] = {}
        for j, (action, _) in enumerate(actions):
            for cell in (action.cell, action.destination):
                at_cell.setdefault(cell, []).append(j)
        for i, (action, a) in enumerate(actions):
            later = {j for cell in (action.cell, action.destination)
                     for j in at_cell[cell] if j > i}
            for j in sorted(later):
                formula.add_clause([-a, -actions[j][1]])
        # exclusive jump action; at most one, since each jump[c,t] implies
        # agent[c,t+1] and the agent's exactly-one at t+1 allows one cell
        jumps = {cell: formula.new_var() for cell in self.cells}
        self.jumps.append(jumps)
        jumping = formula.new_var()
        formula.define_or(jumping, list(jumps.values()))
        for a in avars:
            formula.add_clause([-jumping, -a])
        formula.add_clause(avars + list(jumps.values()))  # no idle steps
        # agent moves only by jumping
        for cell in self.cells:
            formula.add_clause([-jumps[cell], self.agent[cell, t + 1]])
            formula.add_clause([-self.agent[cell, t], jumping,
                          self.agent[cell, t + 1]])
        # object actions see cells occupied now or next as obstacles. A jump
        # step moves no ball, so the frame axioms give free[t+1] = free[t]
        # and this gate is the time-t gate there: the jump cell needs only
        # the actions' reach (for PATH, copy 0, which no action needs while
        # jumping)
        gate = {}
        for cell in self.cells:
            g = formula.new_var()
            formula.define_and(g, [self.free[cell, t], self.free[cell, t + 1]])
            gate[self.vertex[cell]] = g
        reached = self._attach_reach(actions, t, gate)
        for cell, j in jumps.items():
            formula.add_clause([-j, reached[self.vertex[cell]]])
