"""Encoder correctness: minimal horizons match the oracle, modes agree
across reachability encodings, and the descend/noop machinery behaves."""

import hashlib

import pytest

from snowplan import analysis
from snowplan.analysis import live_cells, object_distances, push_directions
from snowplan.encoder import Encoding, EncodingConfig, Mode, ReachKind, encode
from snowplan.fixtures import gen_random_level, list_fixtures, load_fixture
from snowplan.game import (ActionKind, Direction, Metric, ObjectAction,
                           agent_region, initial_state, is_goal,
                           oracle_optimal, run_plan)
from snowplan.levels import GameTag, parse_level
from snowplan.plans import decode
from snowplan.search import serialize
from snowplan.solvers import Status, solve

from conftest import action_lit

REACHES = list(ReachKind)


def _solve(encoding, backend, goal=True):
    """Solve under the encoding's goal literal, or with no goal at all."""
    return solve(encoding.formula, backend=backend,
                 assumptions=[encoding.goal] if goal else [])


def _status(encoding, backend, goal=True):
    return _solve(encoding, backend, goal).status


def _sat(encoding, backend, goal=True):
    return _status(encoding, backend, goal) is Status.SAT


def _min_horizon(encode_at, opt, backend):
    """Check UNSAT strictly below opt and SAT at opt."""
    for T in range(opt):
        assert _status(encode_at(T), backend) is Status.UNSAT, T
    outcome = _solve(encode_at(opt), backend)
    assert outcome.status is Status.SAT
    return outcome


def test_horizon_zero_solved_level(backend):
    fx = load_fixture("snow_done")
    for mode in (Mode.FULL, Mode.COLLAPSED):
        assert _sat(encode(fx.level, EncodingConfig(mode, 0)), backend)


def test_horizon_zero_unsolved_level(backend):
    fx = load_fixture("snow_pop")
    for mode in (Mode.FULL, Mode.COLLAPSED):
        encoding = encode(fx.level, EncodingConfig(mode, 0))
        assert _status(encoding, backend) is Status.UNSAT


@pytest.mark.parametrize("name", ["snow_pop", "soko_corridor"])
def test_full_minimal_horizon_is_oracle_moves(name, backend):
    fx = load_fixture(name)
    _min_horizon(lambda T: encode(fx.level, EncodingConfig(Mode.FULL, T)),
                 fx.moves_optimal, backend)


@pytest.mark.parametrize("name", ["snow_pop", "soko_corridor", "soko_l"])
@pytest.mark.parametrize("reach", REACHES)
def test_collapsed_minimal_horizon_is_oracle_actions(name, reach, backend):
    fx = load_fixture(name)
    _min_horizon(
        lambda T: encode(fx.level, EncodingConfig(Mode.COLLAPSED, T, reach)),
        fx.object_actions_optimal, backend)


@pytest.mark.parametrize("reach", REACHES)
def test_parallel_packs_independent_actions(reach, backend):
    """Two non-interfering pushes fit into a single parallel step."""
    fx = load_fixture("soko_pair")
    assert fx.object_actions_optimal == 2
    outcome = _min_horizon(
        lambda T: encode(fx.level, EncodingConfig(Mode.PARALLEL, T, reach)),
        1, backend)
    encoding = encode(fx.level, EncodingConfig(Mode.PARALLEL, 1, reach))
    plan = decode(encoding, _solve(encoding, backend).model)
    assert plan.object_action_count == 2
    assert len(plan.steps) == 1


@pytest.mark.parametrize("reach", REACHES)
def test_parallel_never_beats_collapsed(reach, backend):
    fx = load_fixture("snow_pop")
    opt = fx.object_actions_optimal
    parallel_min = next(
        T for T in range(opt + 1)
        if _sat(encode(fx.level, EncodingConfig(Mode.PARALLEL, T, reach)),
                backend))
    assert parallel_min <= opt


def test_descend_probes(backend):
    """At the optimum: SAT with no noops. Below: UNSAT. Padded: with
    noop[opt] assumed, the surplus steps become trailing noops and the
    non-noop count stays at the optimum; with noop[opt-1] it is UNSAT."""
    fx = load_fixture("snow_pop")
    opt = fx.object_actions_optimal
    encoding = encode(fx.level, EncodingConfig(Mode.DESCEND, opt))
    outcome = _solve(encoding, backend)
    assert outcome.status is Status.SAT
    plan = decode(encoding, outcome.model)
    assert plan.object_action_count == opt

    below = encode(fx.level, EncodingConfig(Mode.DESCEND, opt - 1))
    assert _status(below, backend) is Status.UNSAT

    padded = encode(fx.level, EncodingConfig(Mode.DESCEND, opt + 2))
    out = solve(padded.formula, backend=backend,
                assumptions=[padded.goal, padded.noops[opt]])
    assert out.status is Status.SAT
    plan = decode(padded, out.model)
    assert plan.object_action_count == opt
    assert len(plan.steps) == opt      # the two noop steps were skipped
    out = solve(padded.formula, backend=backend,
                assumptions=[padded.goal, padded.noops[opt - 1]])
    assert out.status is Status.UNSAT


def test_interference_pair_not_parallelizable(backend):
    """Two rolls that are individually feasible cannot share a step: each
    one's destination blocks the other's pushing-cell approach."""
    fx = load_fixture("snow_ring")
    (k1, r1, c1, d1), (k2, r2, c2, d2) = fx.flags["interference_pair"]
    config = EncodingConfig(Mode.PARALLEL, 1, ReachKind.TREE)
    for kind, r, c, d in ((k1, r1, c1, d1), (k2, r2, c2, d2)):
        enc = encode(fx.level, config)
        enc.formula.add_clause([action_lit(enc, 0, kind, (r, c), d)])
        assert _sat(enc, backend, goal=False)
    enc = encode(fx.level, config)
    enc.formula.add_clause([action_lit(enc, 0, k1, (r1, c1), d1)])
    enc.formula.add_clause([action_lit(enc, 0, k2, (r2, c2), d2)])
    assert not _sat(enc, backend, goal=False)


def test_interference_pair_matches_simulator():
    """The simulator agrees: neither ordering of the two rolls works in
    sequence without extra actions in between."""
    from snowplan.game import classify

    fx = load_fixture("snow_ring")
    pair = [ObjectAction(ActionKind(k), (r, c), Direction[d])
            for k, r, c, d in fx.flags["interference_pair"]]
    for first, second in (pair, pair[::-1]):
        state = initial_state(fx.level)
        assert first.pushing_cell in agent_region(fx.level, state)
        from snowplan.game import GameState
        placed = GameState(first.pushing_cell, state.snow, state.stacks,
                           state.boxes)
        result = classify(fx.level, placed, first.direction)
        assert result is not None
        after = result[1]
        assert second.pushing_cell not in agent_region(fx.level, after)


def test_self_blocking_action_needs_jump(backend):
    """An action whose own destination cuts the agent's approach is
    infeasible in one parallel step but feasible after a jump."""
    fx = load_fixture("snow_selfblock")
    kind, r, c, d = fx.flags["self_block_action"]
    jr, jc = fx.flags["jump_cell"]

    enc = encode(fx.level, EncodingConfig(Mode.PARALLEL, 1, ReachKind.TREE))
    enc.formula.add_clause([action_lit(enc, 0, kind, (r, c), d)])
    assert not _sat(enc, backend, goal=False)

    enc = encode(fx.level, EncodingConfig(Mode.PARALLEL, 2, ReachKind.TREE))
    enc.formula.add_clause([enc.jumps[0][jr, jc]])
    enc.formula.add_clause([action_lit(enc, 1, kind, (r, c), d)])
    assert _sat(enc, backend, goal=False)


@pytest.mark.parametrize("reach", REACHES)
@pytest.mark.parametrize("name", ["snow_pop", "soko_room"])
def test_jump_reads_the_actions_reach(name, reach, backend, monkeypatch):
    """A jump shares the actions' reachability fragment. That is sound
    because a jump step moves no ball, so the actions' gate free[t] and
    free[t+1] is the time-t gate there. PARALLEL at T = 1: under each
    jump[c,0], no free[x,1] can differ from free[x,0] (UNSAT), and the jump
    alone is SAT exactly when the agent can walk to c. The step attaches
    one fragment, not a second one for the jump."""
    level = load_fixture(name).level
    attached = []
    attach = Encoding._attach_reach

    def counted(self, actions, t, gate):
        attached.append(t)
        return attach(self, actions, t, gate)

    monkeypatch.setattr(Encoding, "_attach_reach", counted)
    encoding = encode(level, EncodingConfig(Mode.PARALLEL, 1, reach))
    assert attached == [0]
    formula = encoding.formula
    differ = formula.new_var()
    flips = []
    for cell in encoding.cells:
        now, nxt = encoding.free[cell, 0], encoding.free[cell, 1]
        flip = formula.new_var()
        formula.add_clause([-flip, now, nxt])
        formula.add_clause([-flip, -now, -nxt])
        flips.append(flip)
    formula.add_clause([-differ] + flips)
    region = agent_region(level, initial_state(level))
    for cell, jump in encoding.jumps[0].items():
        assert solve(formula, backend=backend, assumptions=[
            jump, differ]).status is Status.UNSAT, cell
        want = Status.SAT if cell in region else Status.UNSAT
        assert solve(formula, backend=backend,
                     assumptions=[jump]).status is want, cell


@pytest.mark.parametrize("reach", REACHES)
def test_reach_kinds_agree_on_status(reach, backend):
    """Same SAT/UNSAT answer for every reachability encoding, per horizon."""
    fx = load_fixture("snow_tiny3")
    opt = fx.object_actions_optimal
    for T in (opt - 1, opt):
        want = T >= opt
        encoding = encode(fx.level, EncodingConfig(Mode.COLLAPSED, T, reach))
        assert _sat(encoding, backend) is want


def test_invariants_do_not_change_status(backend, monkeypatch):
    """The snowball-count invariants prune no plan: with them patched out,
    the minimal horizons stay the same."""
    fx = load_fixture("snow_pop")
    cases = ((Mode.COLLAPSED, fx.object_actions_optimal),
             (Mode.FULL, fx.moves_optimal))
    with_invariants = {}
    for mode, opt in cases:
        with_invariants[mode] = encode(fx.level, EncodingConfig(mode, opt))
        for T, want in ((opt - 1, False), (opt, True)):
            enc = encode(fx.level, EncodingConfig(mode, T))
            assert _sat(enc, backend) is want, (mode, T)
    monkeypatch.setattr(Encoding, "_invariants", lambda self, t: None)
    for mode, opt in cases:
        bare = encode(fx.level, EncodingConfig(mode, opt))
        assert (len(bare.formula.clauses)
                < len(with_invariants[mode].formula.clauses))
        for T, want in ((opt - 1, False), (opt, True)):
            enc = encode(fx.level, EncodingConfig(mode, T))
            assert _sat(enc, backend) is want, (mode, T)


@pytest.mark.parametrize("mode", list(Mode))
def test_extension_appends_layers_once(mode, backend):
    """An encoding grown horizon by horizon holds a fresh encoding's
    variables plus the goal[t] of each earlier horizon t, its newest
    variable is goal[T], and under goal[T] it answers like a fresh encoding
    at T."""
    fx = load_fixture("snow_pop")
    opt = fx.moves_optimal if mode is Mode.FULL else fx.object_actions_optimal
    encoding = None
    for T in range(opt + 1):
        encoding = encode(fx.level, EncodingConfig(mode, T), encoding)
        assert encoding.goal == encoding.formula.num_vars
        fresh = encode(fx.level, EncodingConfig(mode, T))
        assert encoding.formula.num_vars == fresh.formula.num_vars + T
        out = _solve(encoding, backend)
        assert out.status is _status(fresh, backend)
    plan = decode(encoding, out.model)
    moves = plan if mode is Mode.FULL else serialize(fx.level, plan)
    assert is_goal(fx.level, run_plan(fx.level, moves).state)


def test_extension_rejects_other_configs():
    """Any encoding can be grown in place to a later horizon, but not to
    the same or an earlier one, nor to another mode or reach."""
    level = load_fixture("snow_pop").level
    fresh = encode(level, EncodingConfig(Mode.COLLAPSED, 1))
    grown = encode(level, EncodingConfig(Mode.COLLAPSED, 2), fresh)
    assert grown is fresh and grown.config.horizon == 2
    assert grown.goal == grown.formula.num_vars
    for horizon in (1, 2):
        with pytest.raises(ValueError):
            encode(level, EncodingConfig(Mode.COLLAPSED, horizon), grown)
    with pytest.raises(ValueError):
        encode(level, EncodingConfig(Mode.COLLAPSED, 3, ReachKind.DAG), grown)
    with pytest.raises(ValueError):
        encode(level, EncodingConfig(Mode.DESCEND, 3), grown)


# -- action slots pruned to the cells a ball can reach ---------------------

PRUNED_MODES = (Mode.COLLAPSED, Mode.PARALLEL, Mode.DESCEND)


def _live(level):
    """The live cells, every floor cell when the relaxation has no target."""
    return live_cells(level, object_distances(level))


def _ball_cells(level, t):
    """B_t: the cells some ball or box can be pushed to in t pushes."""
    return frozenset(cell for dist in object_distances(level)
                     for cell, n in dist.items() if n <= t)


def _unpruned_slots(level):
    """The table of `analysis.slots` with B_t and the pair rule off: every
    slot whose ball cell and destination are live, open at step 0."""
    live = _live(level)
    kinds = ((ActionKind.ROLL, ActionKind.PUSH, ActionKind.POP)
             if level.game is GameTag.SNOWMAN else (ActionKind.ROLL,))
    return [(ObjectAction(kind, cell, d), 0) for cell in sorted(live)
            for d in push_directions(level, cell) if d.apply(cell) in live
            for kind in kinds]


def _random_draws(count=20):
    """Open 6x6 rooms, snowman (three balls) on odd seeds and Sokoban (two
    boxes) on even ones, with their oracle optima."""
    draws = []
    for seed in range(1, count + 1):
        game = GameTag.SNOWMAN if seed % 2 else GameTag.SOKOBAN
        level = gen_random_level(seed, dims=(6, 6), density=0.0, game=game,
                                 objects=3 if seed % 2 else 2)
        draws.append(pytest.param(
            level, oracle_optimal(level, Metric.OBJECT_ACTIONS),
            id=f"random{seed}"))
    return draws


def _soundness_cases():
    fixtures = [load_fixture(name) for name in list_fixtures()]
    return [pytest.param(fx.level, fx.object_actions_optimal, id=fx.name)
            for fx in fixtures] + _random_draws()


def _statuses(level, mode, reach, top, backend, unpruned, monkeypatch):
    """Status at T = 0..top of one formula grown layer by layer, each with
    and without goal[T]."""
    out = []
    encoding = None
    with monkeypatch.context() as m:
        if unpruned:
            m.setattr(analysis, "slots", _unpruned_slots)
        for T in range(top + 1):
            encoding = encode(level, EncodingConfig(mode, T, reach), encoding)
            out.append((_status(encoding, backend),
                        _status(encoding, backend, goal=False)))
    return out


@pytest.mark.parametrize("level,opt", _soundness_cases())
def test_pruning_keeps_every_status(level, opt, backend, monkeypatch):
    """Pruned and unpruned formulas (every live slot open at step 0, so
    neither B_t nor the pair rule prunes) agree on SAT/UNSAT at
    T = 0..opt (0..3 with no optimum) in every pruned mode and reach
    encoding, with and without the goal."""
    top = 3 if opt is None else opt
    for mode in PRUNED_MODES:
        for reach in REACHES:
            pruned = _statuses(level, mode, reach, top, backend, False,
                               monkeypatch)
            every_cell = _statuses(level, mode, reach, top, backend, True,
                                   monkeypatch)
            assert pruned == every_cell, (mode, reach)


def _formula(level, config):
    encoding = encode(level, config)
    return encoding.formula.clauses, encoding.formula.num_vars


@pytest.mark.parametrize("name", list_fixtures())
def test_full_formulas_ignore_ball_cells(name, monkeypatch):
    level = load_fixture(name).level
    configs = [EncodingConfig(Mode.FULL, T) for T in range(3)]
    pruned = [_formula(level, config) for config in configs]
    monkeypatch.setattr(analysis, "slots", _unpruned_slots)
    assert [_formula(level, config) for config in configs] == pruned


def _action_count(encoding):
    return sum(map(len, encoding.actions))


def test_actions_only_on_live_ball_cells(monkeypatch):
    """soko_pair PARALLEL at T=2: two rolls at step 0 (each box east; west
    lies the dead corner (1,1) or (3,1)), six at step 1, instead of one
    per floor cell."""
    level = load_fixture("soko_pair").level
    config = EncodingConfig(Mode.PARALLEL, 2)
    assert _action_count(encode(level, config)) == 8
    monkeypatch.setattr(analysis, "slots", _unpruned_slots)
    assert _action_count(encode(level, config)) > 12


def test_ball_cells_grow_one_push_per_step():
    """soko_corridor (#@$-.#): the box can go one cell west or east at
    step 0, one more east at step 1, and then no further (the west cell has
    no pushing cell behind it, the east end is a wall). A roll opens at the
    step its cell joins B_t: east from (1,2) at 0, either way from (1,3) at
    1 (west from (1,2) leads into the dead cell (1,1))."""
    level = load_fixture("soko_corridor").level
    row = [frozenset((1, c) for c in cols)
           for cols in ([2], [1, 2, 3], [1, 2, 3, 4], [1, 2, 3, 4])]
    assert [_ball_cells(level, t) for t in range(4)] == row
    assert {(a.cell, a.direction.name): opens
            for a, opens in analysis.slots(level)} == {
        ((1, 2), "E"): 0, ((1, 3), "E"): 1, ((1, 3), "W"): 1}


# -- slots pruned by the two-way push analysis: pairs and dead cells -------


def _slots(level, T, kind=None, mode=Mode.COLLAPSED):
    """(kind, ball cell, direction, step) of every object action of the
    mode's formula at horizon T, or of those of one kind ("roll", ...)."""
    encoding = encode(level, EncodingConfig(mode, T))
    return {(a.kind.value, a.cell, a.direction.name, t)
            for t, actions in enumerate(encoding.actions) for a, _ in actions
            if kind in (None, a.kind.value)}


def _walled_draws():
    """5x5 rooms with a tenth of the interior walled, snowman (three balls)
    and Sokoban (two boxes), that the oracle solves. A returned optimum is
    exact: the breadth-first search found it."""
    draws = []
    for game in GameTag:
        for seed in range(1, 101):
            level = gen_random_level(seed, dims=(5, 5), density=0.1, game=game,
                                     objects=3 if game is GameTag.SNOWMAN else 2)
            opt = oracle_optimal(level, Metric.OBJECT_ACTIONS)
            if opt is not None:
                draws.append(pytest.param(level, opt,
                                          id=f"{game.value}{seed}"))
    return draws


def _solvable_cases():
    fixtures = [load_fixture(name) for name in list_fixtures()]
    return [pytest.param(fx.level, fx.object_actions_optimal, id=fx.name)
            for fx in fixtures
            if fx.object_actions_optimal is not None] + _walled_draws()


@pytest.mark.parametrize("level,opt", _solvable_cases())
def test_pruned_collapsed_optimum_is_the_oracles(level, opt, backend):
    """With pairs and dead cells pruned, COLLAPSED is UNSAT under the goal
    below the oracle optimum and SAT at it, grown by extension."""
    encoding = None
    for T in range(opt + 1):
        encoding = encode(level, EncodingConfig(Mode.COLLAPSED, T), encoding)
        want = Status.SAT if T == opt else Status.UNSAT
        assert _status(encoding, backend) is want, T


def test_walled_draws_have_dead_cells():
    """The draws above exercise the dead-cell rule: in each, some cell a
    ball or box can reach is dead."""
    draws = _walled_draws()
    assert len(draws) >= 5
    for draw in draws:
        level = draw.values[0]
        reached = set().union(*object_distances(level))
        assert reached - _live(level), draw.id


def test_pop_at_step_zero_only_on_an_initial_stack():
    """At step 0 a POP needs two balls on its cell, so only a starting
    stack of two or more can pop (snow_pop2: the small on the medium at
    (2,2), every direction the walls allow); a lone ball cannot."""
    for name in list_fixtures():
        level = load_fixture(name).level
        stacks = {cell for cell, sizes in level.stacks if len(sizes) >= 2}
        pops = {cell for _, cell, _, t in _slots(level, 1, "pop") if t == 0}
        assert pops <= stacks, name
    pops = {(cell, d) for _, cell, d, t in
            _slots(load_fixture("snow_pop2").level, 1, "pop") if t == 0}
    assert pops == {((2, 2), "E"), ((2, 2), "S"), ((2, 2), "W")}


def test_push_needs_a_second_ball_within_t_pushes():
    """snow_tiny3 (#p----#/#-1-2-#/#--4--#): the small at (2,2) can be
    pushed east onto (2,3) only from step 1, when the medium at (2,4) can
    be there after one push; the medium, pushed west onto (2,3), likewise
    waits for the small."""
    slots = _slots(load_fixture("snow_tiny3").level, 3, "push")
    assert {t for _, cell, d, t in slots if (cell, d) == ((2, 2), "E")} == {1, 2}
    assert {t for _, cell, d, t in slots if (cell, d) == ((2, 4), "W")} == {1, 2}


def test_a_large_ball_is_never_pushed():
    """A large ball never shrinks, so it is never the pushed ball: beside
    the medium at step 0, the medium may be pushed onto the large but not
    the large onto the medium. In snow_tiny3 no push acts on the large's
    cell (3,3) before step 2, when the small can be there."""
    level = parse_level("#######\n#p----#\n#-42-1#\n#-----#\n#######",
                        GameTag.SNOWMAN)
    assert _slots(level, 1, "push") == {("push", (2, 3), "W", 0)}
    slots = _slots(load_fixture("snow_tiny3").level, 3, "push")
    assert {t for _, cell, _, t in slots if cell == (3, 3)} == {2}


@pytest.mark.parametrize("mode", PRUNED_MODES)
def test_no_slot_moves_a_box_onto_a_dead_cell(mode):
    """#####/#@ $#/#  .#/#####: the box sits in a dead corner and gets no
    slot at all. soko_pair's boxes never roll west, into the dead corners
    (1,1) and (3,1), from which no push leads back to a goal."""
    level = parse_level("#####\n#@ $#\n#  .#\n#####", GameTag.SOKOBAN)
    assert (1, 3) not in _live(level)
    assert _slots(level, 3, mode=mode) == set()
    level = load_fixture("soko_pair").level
    assert {(1, 1), (3, 1)}.isdisjoint(_live(level))
    slots = _slots(level, 3, mode=mode)
    assert slots and all(d != "W" for _, cell, d, _ in slots
                         if cell in ((1, 2), (3, 2)))


@pytest.mark.parametrize("name", ["snow_ring", "snow_selfblock"])
def test_no_target_keeps_every_slot(name):
    """No cell is reachable by all three balls, so the relaxation has no
    target: nothing counts as dead, and every cell of B_t rolls in every
    direction the walls allow."""
    level = load_fixture(name).level
    assert _live(level) == level.floor
    rolls = _slots(level, 3, "roll", Mode.PARALLEL)
    assert rolls == {("roll", cell, d.name, t) for t in range(3)
                     for cell in _ball_cells(level, t)
                     for d in push_directions(level, cell)}


@pytest.mark.parametrize("mode", list(Mode))
def test_level_without_movable_object(mode, backend):
    """With no box, no object action is live. COLLAPSED then has no step at
    all (an empty clause, not an exception); FULL walks, PARALLEL jumps and
    DESCEND idles. The goal holds from T = 0."""
    level = parse_level("#####\n#@  #\n#####", GameTag.SOKOBAN)
    encoding = None
    for T in range(3):
        encoding = encode(level, EncodingConfig(mode, T), encoding)
        fresh = encode(level, EncodingConfig(mode, T))
        want = Status.SAT if T == 0 or mode is not Mode.COLLAPSED else Status.UNSAT
        assert _status(fresh, backend) is want, T
        assert _status(fresh, backend, goal=False) is want, T
        assert _status(encoding, backend, goal=False) is want, T
        assert _action_count(fresh) == 0 or mode is Mode.FULL


def _table_literals(encoding):
    """Every literal in the encoding's tables: the state variables, the
    per-step action lists and the goal."""
    lits = []
    for table in (encoding.agent, encoding.snow, encoding.bs, encoding.bm,
                  encoding.bl, encoding.box, encoding.free):
        lits += table.values()
    for dirs in encoding.dirs:
        lits += dirs.values()
    for actions in encoding.actions:
        lits += [a for _, a in actions]
    for jumps in encoding.jumps:
        lits += jumps.values()
    return lits + encoding.noops + [encoding.goal]


@pytest.mark.parametrize("name", list_fixtures())
def test_action_lists_match_registry(name):
    """The encoding's tables are its only registry of variables. At
    T = 0..3, grown by extension in every mode and reach encoding: each
    literal in them is its own variable, the action lists the plan decoder
    reads hold one literal per slot open by each step (in slot order), and
    FULL has one direction literal per Direction per step."""
    level = load_fixture(name).level
    slots = analysis.slots(level)
    for mode in Mode:
        for reach in REACHES:
            encoding = None
            for T in range(4):
                encoding = encode(level, EncodingConfig(mode, T, reach),
                                  encoding)
                lits = _table_literals(encoding)
                assert len(set(lits)) == len(lits), (mode, reach, T)
                assert all(0 < lit <= encoding.formula.num_vars
                           for lit in lits), (mode, reach, T)
                full = mode is Mode.FULL
                assert [list(dirs) for dirs in encoding.dirs] == (
                    [list(Direction)] * T if full else []), (mode, reach, T)
                assert [[a for a, _ in actions]
                        for actions in encoding.actions] == (
                    [] if full else [[a for a, opens in slots if opens <= t]
                                     for t in range(T)]), (mode, reach, T)
                assert len(encoding.jumps) == (T if mode is Mode.PARALLEL
                                               else 0)
                assert len(encoding.noops) == (T if mode is Mode.DESCEND
                                               else 0)


# Per mode, sha256 over the per-formula digests below, in loop order. A
# change that alters formulas on purpose updates the values of its modes and
# says why. Last change: the variable-name registry left the hash (variables
# have no names any more); the DIMACS text and goal literal of every formula
# are those of the previous values.
FORMULA_DIGESTS = {
    Mode.FULL:
        "6162dafb793abaa461b665d07f922c63da49bcdc38495a2e439509b4a2c92d95",
    Mode.COLLAPSED:
        "eea3e4015ab6298d1fa7ade32dba2b2f26fe42e526913dcca9bdc5a293e278ee",
    Mode.PARALLEL:
        "d6ee665301ec1fcd5cf744c038348ecbfc4b3292342fcf6dbf2f8382eaa7df92",
    Mode.DESCEND:
        "27b38fe0b2c5a8efc7a31292e77400c7193181adecb921b608fae30075b5e189",
}


def test_formulas_are_pinned():
    """Every fixture, mode and reach encoding at T = 0..3, grown by
    extension, gives byte-identical formulas: the DIMACS text and the goal
    literal are hashed."""
    levels = [load_fixture(name).level for name in list_fixtures()]
    totals = {}
    for mode in Mode:
        digests = []
        for level in levels:
            for reach in REACHES:
                encoding = None
                for T in range(4):
                    encoding = encode(level, EncodingConfig(mode, T, reach),
                                      encoding)
                    h = hashlib.sha256()
                    h.update(encoding.formula.to_dimacs().encode())
                    h.update(str(encoding.goal).encode())
                    digests.append(h.hexdigest())
        assert len(digests) == 180
        totals[mode] = hashlib.sha256("".join(digests).encode()).hexdigest()
    assert totals == FORMULA_DIGESTS
