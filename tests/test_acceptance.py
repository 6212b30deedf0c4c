"""Acceptance gate: nine end-to-end criteria, one test (and one pass/fail
line) each. Run with -v for the per-criterion verdict lines, or -s to see
the printed [acceptance] summaries.

Criterion 7 needs the five full-game levels, which are not redistributable
and therefore not bundled. Drop them into assets/ as andy.snw, tanya.snw,
rebecca.snw, lucy.snw, and lydia.snw to enable it; it skips otherwise.
"""

import itertools
import random
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from snowplan.bench import BenchReport, BenchRun, par2_score, run_bench
from snowplan.cnf import Formula
from snowplan.encoder import EncodingConfig, Mode, ReachKind, encode
from snowplan.fixtures import FIXTURE_DIR, gen_random_level, list_fixtures, load_fixture
from snowplan.game import (ActionKind, GameState, classify, initial_state,
                           is_goal, run_plan)
from snowplan.levels import GameTag
from snowplan.plans import RunRecord, decode, validate_lurd
from snowplan.reach import (bfs_reachable, encode_dag, encode_path,
                            encode_spanning_tree, grid_graph)
from snowplan.search import (BoundStatus, Run, descend, solve_hybrid,
                             solve_sequential)
from snowplan.solvers import InProcessSolver, Status, solve

from conftest import action_lit

ASSET_DIR = Path(__file__).resolve().parent.parent / "assets"


@contextmanager
def _verdict(number: int, label: str):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number} ({label}): FAIL")
        raise
    print(f"[acceptance] criterion {number} ({label}): PASS")


# -- criterion 1: reachability exactness --------------------------------


def _random_small_graph(rng):
    """Random gated grid-subset graph with at most 12 vertices."""
    while True:
        rows, cols = rng.randint(2, 4), rng.randint(2, 4)
        cells = [(r, c) for r in range(rows) for c in range(cols)
                 if rng.random() < 0.85]
        if not cells:
            continue
        g = grid_graph(cells)
        if g.num_vertices <= 12:
            break
    free = {v for v in range(g.num_vertices) if rng.random() < 0.75}
    source = rng.randrange(g.num_vertices)
    free.add(source)
    return g, source, free


def _gate(f, free, n):
    gate = {}
    for v in range(n):
        lit = f.new_var()
        f.add_clause([lit] if v in free else [-lit])
        gate[v] = lit
    return gate


def test_criterion_1_reachability_exact():
    """All three reachability encodings agree with BFS on 200 random
    graphs of at most 12 vertices, for every source/target pair."""
    with _verdict(1, "reachability exactness"):
        rng = random.Random(2024)
        solver = InProcessSolver()
        for _ in range(200):
            g, source, free = _random_small_graph(rng)
            n = g.num_vertices
            reachable = bfs_reachable(g, source, free)
            for target in range(n):
                want = target in reachable
                fd = Formula()
                frag = encode_dag(fd, g, source, _gate(fd, free, n))
                fd.add_clause([frag[target]])
                assert (solver.solve(fd).status is Status.SAT) == want
                fp = Formula()
                encode_path(fp, g, source, target, _gate(fp, free, n))
                assert (solver.solve(fp).status is Status.SAT) == want
                ft = Formula()
                frag = encode_spanning_tree(ft, g, source, _gate(ft, free, n))
                ft.add_clause([-frag[target]] if want else [frag[target]])
                assert solver.solve(ft).status is Status.UNSAT
        print("[acceptance]   200 random graphs, 3 encodings, all exact")


# -- criterion 2: size bounds -------------------------------------------


def test_criterion_2_size_bounds():
    """Path stays linear per vertex; dag/tree stay within their quadratic
    budgets, with flat constants across grid sizes 2x2 through 8x8."""
    with _verdict(2, "encoding size bounds"):
        for size in range(2, 9):
            cells = [(r, c) for r in range(size) for c in range(size)]
            g = grid_graph(cells)
            n, m = g.num_vertices, len(g.edges)

            f = Formula()
            encode_path(f, g, 0, n - 1)
            assert f.num_vars <= 2 * n
            assert len(f.clauses) <= 10 * n

            f = Formula()
            encode_dag(f, g, 0)
            assert f.num_vars <= 2 * n * n
            assert len(f.clauses) <= 10 * n * m

            f = Formula()
            encode_spanning_tree(f, g, 0)
            assert f.num_vars <= 2 * n * n
            assert len(f.clauses) <= 10 * n * m


# -- criterion 3: fixture agreement -------------------------------------


def test_criterion_3_fixture_agreement(backend):
    """On every frozen fixture the planner reproduces the oracle optima:
    FULL for moves, COLLAPSED and the hybrid (each under all three
    reachability encodings) for object actions. Budget: five minutes."""
    with _verdict(3, "planner matches oracle on fixtures"):
        start = time.monotonic()
        budget = 280.0
        names = [n for n in list_fixtures()
                 if load_fixture(n).object_actions_optimal is not None]
        assert len(names) >= 10
        for name in names:
            fx = load_fixture(name)
            bounds, plan = solve_sequential(fx.level, Mode.FULL,
                                            budget=budget, backend=backend)
            assert bounds.status is BoundStatus.OPTIMAL, name
            assert bounds.upper == fx.moves_optimal, name
            assert run_plan(fx.level, plan).ok
            for reach in ReachKind:
                bounds, _ = solve_sequential(fx.level, Mode.COLLAPSED, reach,
                                             budget, backend)
                assert bounds.upper == fx.object_actions_optimal, (name, reach)
                bounds, moves = solve_hybrid(fx.level, ascend_reach=reach,
                                             budget=budget, backend=backend)
                assert bounds.status is BoundStatus.OPTIMAL, (name, reach)
                assert bounds.upper == fx.object_actions_optimal, (name, reach)
                assert is_goal(fx.level, run_plan(fx.level, moves).state)
        elapsed = time.monotonic() - start
        assert elapsed < 300.0
        print(f"[acceptance]   {len(names)} fixtures x 7 configurations "
              f"in {elapsed:.1f}s")


# -- criterion 4: forall-step serializability ---------------------------


def _apply_in_order(level, state, actions):
    """Walk to each pushing cell and act, in the given order; None if any
    walk or action fails."""
    from snowplan.search import _walk

    for action in actions:
        path = _walk(level, state, action.pushing_cell)
        if path is None:
            return None
        for d in path:
            result = classify(level, state, d)
            if result is None or result[0] is not ActionKind.MOVE:
                return None
            state = result[1]
        result = classify(level, state, action.direction)
        if result is None or result[0] is ActionKind.MOVE:
            return None
        state = result[1]
    return state


def _objects_only(state: GameState):
    return (state.snow, state.stacks, state.boxes)


def _cap_step_width(encoding, k):
    """At most k object actions per step, added on top of the encoding."""
    for actions in encoding.actions:
        encoding.formula.at_most_k([a for _, a in actions], k)


def test_criterion_4_forall_step_serializability(backend):
    """Every ordering of every parallel step replays in the simulator and
    lands in the same state, over at least 500 fuzzed parallel models."""
    with _verdict(4, "forall-step serializability"):
        checked = 0
        seed = 0
        while checked < 500:
            seed += 1
            game = GameTag.SNOWMAN if seed % 3 else GameTag.SOKOBAN
            try:
                level = gen_random_level(seed, dims=(5, 5), game=game,
                                         objects=3)
            except Exception:
                continue
            T = 1 + seed % 2
            encoding = encode(level, EncodingConfig(Mode.PARALLEL, T,
                                                    ReachKind.TREE))
            _cap_step_width(encoding, 3)
            outcome = solve(encoding.formula, backend=backend)
            if outcome.status is not Status.SAT:
                continue
            plan = decode(encoding, outcome.model)
            state = initial_state(level)
            for step in plan.steps:
                if step.jump is not None:
                    state = GameState(step.jump, state.snow, state.stacks,
                                      state.boxes)
                    continue
                assert 1 <= len(step.actions) <= 3
                results = []
                for perm in itertools.permutations(step.actions):
                    nxt = _apply_in_order(level, state, perm)
                    assert nxt is not None, (seed, step)
                    results.append(_objects_only(nxt))
                assert len(set(results)) == 1, (seed, step)
                final = _apply_in_order(level, state, sorted(
                    step.actions, key=lambda a: (a.cell, a.direction.name)))
                state = final
            checked += 1
        print(f"[acceptance]   {checked} parallel models, every step "
              "ordering replayed")


# -- criterion 5: worked-example reconstructions ------------------------


def test_criterion_5_example_reconstructions(backend):
    """The two reconstructed interference examples behave as documented:
    a pair of individually-feasible rolls that cannot share a step, and a
    self-blocking roll that becomes feasible after a jump."""
    with _verdict(5, "example reconstructions"):
        fx = load_fixture("snow_ring")
        pair = fx.flags["interference_pair"]
        one_step = EncodingConfig(Mode.PARALLEL, 1, ReachKind.TREE)
        singles_ok = []
        for kind, r, c, d in pair:
            enc = encode(fx.level, one_step)
            enc.formula.add_clause([action_lit(enc, 0, kind, (r, c), d)])
            singles_ok.append(
                solve(enc.formula, backend=backend).status is Status.SAT)
        assert singles_ok == [True, True]
        enc = encode(fx.level, one_step)
        for kind, r, c, d in pair:
            enc.formula.add_clause([action_lit(enc, 0, kind, (r, c), d)])
        assert solve(enc.formula, backend=backend).status is Status.UNSAT

        fx = load_fixture("snow_selfblock")
        kind, r, c, d = fx.flags["self_block_action"]
        jr, jc = fx.flags["jump_cell"]
        enc = encode(fx.level, one_step)
        enc.formula.add_clause([action_lit(enc, 0, kind, (r, c), d)])
        assert solve(enc.formula, backend=backend).status is Status.UNSAT
        enc = encode(fx.level, EncodingConfig(Mode.PARALLEL, 2, ReachKind.TREE))
        enc.formula.add_clause([enc.jumps[0][jr, jc]])
        enc.formula.add_clause([action_lit(enc, 1, kind, (r, c), d)])
        assert solve(enc.formula, backend=backend).status is Status.SAT


# -- criterion 6: descend drops several bounds at once ------------------


def test_criterion_6_descend_multi_step_drop(backend):
    """Starting three above the optimum, one satisfiable probe drops the
    upper bound straight to the optimum before the UNSAT certificate."""
    with _verdict(6, "descend multi-step drop"):
        fx = load_fixture("soko_corridor")
        opt = fx.object_actions_optimal
        bounds, plan = descend(fx.level, opt + 3, Run(backend=backend))
        assert bounds.status is BoundStatus.OPTIMAL
        assert bounds.upper == opt
        # fewer probes than single-step decrements would need
        assert len(bounds.horizon_times) <= 2
        assert plan is not None and plan.object_action_count == opt


# -- criterion 7: full-game levels (optional assets) --------------------

GAME_OPTIMA = {"andy": 6, "tanya": 5, "rebecca": 6, "lucy": 8, "lydia": 7}
KNOWN_SOLUTION = "lluRurDlldddrUluRuurrrdLulD"   # 6 object actions


def test_criterion_7_full_game_levels(backend):
    missing = [n for n in GAME_OPTIMA if not (ASSET_DIR / f"{n}.snw").exists()]
    if missing:
        print(f"[acceptance] criterion 7 (full-game levels): SKIP "
              f"(missing assets/{{{','.join(sorted(missing))}}}.snw)")
        pytest.skip("full-game level assets not provided")
    with _verdict(7, "full-game levels"):
        from snowplan.bench import load_level_file

        for name, want in GAME_OPTIMA.items():
            level = load_level_file(ASSET_DIR / f"{name}.snw")
            start = time.monotonic()
            bounds, moves = solve_hybrid(level, budget=60.0, backend=backend)
            assert time.monotonic() - start <= 60.0, name
            assert bounds.status is BoundStatus.OPTIMAL, name
            assert bounds.upper == want, name
        andy = load_level_file(ASSET_DIR / "andy.snw")
        summary = validate_lurd(andy, KNOWN_SOLUTION)
        assert summary["goal"] is True
        assert summary["object_actions"] == 6


# -- criterion 8: PAR-2 scoring -----------------------------------------


def test_criterion_8_par2_scoring(tmp_path, backend):
    """PAR-2 arithmetic on a synthetic three-instance benchmark, plus the
    empty-directory warning path."""
    with _verdict(8, "PAR-2 scoring"):
        assert par2_score([1.0, 2.0], 0, 10.0) == 3.0
        assert par2_score([1.0], 1, 10.0) == 21.0
        assert par2_score([], 0, 10.0) == 0.0
        report = BenchReport(limit=10.0, runs=[
            BenchRun("a", "path", True, 1.0),
            BenchRun("b", "path", True, 2.0),
            BenchRun("c", "path", False, 10.0),
        ])
        assert report.par2("path") == 1.0 + 2.0 + 2 * 10.0
        assert report.timeouts("path") == 1

        (tmp_path / "one.xsb").write_text("######\n#@$-.#\n######\n")
        (tmp_path / "two.xsb").write_text("######\n#@-$.#\n######\n")
        (tmp_path / "three.snw").write_text("#######\n#p--6-#\n#--1--#\n"
                                            "#-----#\n#######\n")
        live = run_bench(tmp_path, [ReachKind.TREE], limit=30.0,
                         backend=backend)
        assert len(live.runs) == 3
        assert all(run.solved for run in live.runs)
        stats = live.summary()["tree"]
        assert stats["timeouts"] == 0
        assert stats["par2"] == pytest.approx(
            sum(run.runtime for run in live.runs))

        empty = run_bench(tmp_path / "void", [ReachKind.TREE]) \
            if (tmp_path / "void").mkdir() is None else None
        assert empty.runs == []
        assert empty.par2() == 0.0


# -- criterion 9: determinism -------------------------------------------


def test_criterion_9_record_determinism(capsys):
    """Two identical solve invocations produce identical records once the
    timing fields are stripped."""
    with _verdict(9, "record determinism"):
        from snowplan.cli import EXIT_OK, main

        for name in ("soko_corridor.xsb", "snow_pop.snw"):
            keys = []
            for _ in range(2):
                code = main(["solve", str(FIXTURE_DIR / name),
                             "--seed", "11", "--emit", "record"])
                assert code == EXIT_OK
                record = RunRecord.from_json(capsys.readouterr().out.strip())
                keys.append(record.stable_key())
            assert keys[0] == keys[1], name
