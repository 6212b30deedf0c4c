"""Command-line interface: exit codes, output shapes, env precedence."""

import json
import stat

import pytest

from snowplan.cli import EXIT_BOUNDED, EXIT_ERROR, EXIT_OK, build_parser, main
from snowplan.cnf import Formula, parse_dimacs
from snowplan.fixtures import FIXTURE_DIR
from snowplan.plans import RunRecord
from snowplan.solvers import InProcessSolver, Status

CORRIDOR = str(FIXTURE_DIR / "soko_corridor.xsb")


def test_solve_emits_lurd_and_record(capsys):
    code = main(["solve", CORRIDOR])
    assert code == EXIT_OK
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "RR"
    record = RunRecord.from_json(lines[1])
    assert record.status == "optimal"
    assert record.ub == 2
    assert record.instance == "soko_corridor"


def test_solve_emit_lurd_only(capsys):
    assert main(["solve", CORRIDOR, "--emit", "lurd"]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "RR"


def test_solve_full_mode(capsys):
    assert main(["solve", CORRIDOR, "--mode", "full"]) == EXIT_OK
    record = RunRecord.from_json(
        capsys.readouterr().out.strip().split("\n")[-1])
    assert record.mode == "full"
    assert record.ub == 2            # optimal moves for the corridor


def test_solve_missing_file_is_error(capsys):
    assert main(["solve", "no_such_level.xsb"]) == EXIT_ERROR
    assert "error" in capsys.readouterr().err


def test_solve_bad_suffix_is_error(tmp_path, capsys):
    path = tmp_path / "level.txt"
    path.write_text("######\n#@$-.#\n######\n")
    assert main(["solve", str(path)]) == EXIT_ERROR
    # an explicit --game overrides suffix inference
    assert main(["solve", str(path), "--game", "sokoban"]) == EXIT_OK


def test_validate_good_and_bad(capsys):
    assert main(["validate", CORRIDOR, "RR"]) == EXIT_OK
    summary = json.loads(capsys.readouterr().out)
    assert summary == {"goal": True, "moves": 2, "object_actions": 2}
    assert main(["validate", CORRIDOR, "Rr"]) == EXIT_ERROR
    assert main(["validate", CORRIDOR, "l"]) == EXIT_ERROR  # walks into a wall


def test_validate_legal_but_not_goal(capsys):
    assert main(["validate", CORRIDOR, "R"]) == EXIT_BOUNDED


def test_encode_writes_dimacs(tmp_path, capsys):
    out = tmp_path / "f.cnf"
    code = main(["encode", CORRIDOR, "--horizon", "2", "--output", str(out)])
    assert code == EXIT_OK
    assert out.read_text().startswith("p cnf ")
    assert main(["encode", CORRIDOR, "--horizon", "1"]) == EXIT_OK
    assert capsys.readouterr().out.startswith("p cnf ")


@pytest.mark.parametrize("flag, value", [("--timeout", "5.0"), ("--seed", "1"),
                                         ("--solver-cmd", "cat {input}")])
def test_run_flags_only_where_read(flag, value, capsys):
    """`encode` runs no solver, so it rejects the run flags that `solve`
    and `bench` read."""
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(["encode", CORRIDOR, "--horizon", "1", flag, value])
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    assert parser.parse_args(["encode", CORRIDOR, "--horizon", "1",
                              "--game", "sokoban", "--reach", "tree"])
    for command, target in (("solve", CORRIDOR), ("bench", str(FIXTURE_DIR))):
        args = parser.parse_args([command, target, flag, value])
        assert str(getattr(args, flag[2:].replace("-", "_"))) == value


@pytest.mark.parametrize("horizon, want", [(1, Status.UNSAT), (2, Status.SAT)])
def test_encode_dimacs_asserts_goal(horizon, want, capsys):
    """The emitted formula means "reach the goal at T": the corridor's
    collapsed optimum is 2."""
    assert main(["encode", CORRIDOR, "--horizon", str(horizon)]) == EXIT_OK
    num_vars, clauses = parse_dimacs(capsys.readouterr().out)
    formula = Formula()
    for _ in range(num_vars):
        formula.new_var()
    for clause in clauses:
        formula.add_clause(clause)
    assert InProcessSolver().solve(formula).status is want


def test_bench_summary(tmp_path, capsys):
    (tmp_path / "one.xsb").write_text("######\n#@$-.#\n######\n")
    code = main(["bench", str(tmp_path), "--all-reach"])
    assert code == EXIT_OK
    lines = capsys.readouterr().out.strip().split("\n")
    summary = json.loads(lines[-1])["summary"]
    assert set(summary) == {"path", "dag", "tree"}
    for stats in summary.values():
        assert stats["timeouts"] == 0
        assert stats["instances"] == 1
        assert stats["par2"] >= 0


def test_bench_empty_directory_warns(tmp_path, capsys):
    assert main(["bench", str(tmp_path)]) == EXIT_OK
    captured = capsys.readouterr()
    assert "no level files" in captured.err


def test_env_defaults_feed_parser(monkeypatch, capsys):
    monkeypatch.setenv("SNOWPLAN_MODE", "collapsed")
    monkeypatch.setenv("SNOWPLAN_REACH", "tree")
    assert main(["solve", CORRIDOR]) == EXIT_OK
    record = RunRecord.from_json(
        capsys.readouterr().out.strip().split("\n")[-1])
    assert record.mode == "collapsed"
    assert record.reach == "tree"


def test_bad_timeout_env_fails_only_where_used(monkeypatch, capsys):
    monkeypatch.setenv("SNOWPLAN_TIMEOUT", "abc")
    assert main(["validate", CORRIDOR, "RR"]) == EXIT_OK
    capsys.readouterr()
    assert main(["solve", CORRIDOR]) == EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "SNOWPLAN_TIMEOUT" in err
    assert err.count("\n") == 1
    # an explicit flag wins over the variable
    assert main(["solve", CORRIDOR, "--timeout", "30", "--emit", "lurd"]) == EXIT_OK


@pytest.mark.parametrize("command", ["solve", "bench"])
@pytest.mark.parametrize("flags, env", [(["--timeout", value], None)
                                        for value in ("0", "-1", "nan", "inf")]
                         + [([], "nan")],
                         ids=["0", "-1", "nan", "inf", "env-nan"])
def test_invalid_timeout_fails_before_any_run(command, flags, env, tmp_path,
                                              monkeypatch, capsys):
    """Only a finite budget above zero is accepted, from the flag or from
    SNOWPLAN_TIMEOUT; anything else is one error line and no output."""
    (tmp_path / "one.xsb").write_text("######\n#@$-.#\n######\n")
    if env is not None:
        monkeypatch.setenv("SNOWPLAN_TIMEOUT", env)
    target = CORRIDOR if command == "solve" else str(tmp_path)
    assert main([command, target, *flags]) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_solve_records_are_deterministic(capsys):
    keys = []
    for _ in range(2):
        assert main(["solve", CORRIDOR, "--seed", "3", "--emit", "record"]) == EXIT_OK
        record = RunRecord.from_json(capsys.readouterr().out.strip())
        keys.append(record.stable_key())
    assert keys[0] == keys[1]


def _seed_echo_solver(tmp_path):
    """A solver script that records its first argument and answers UNKNOWN,
    which ends a deepening run at its first horizon."""
    script = tmp_path / "fakesolver.sh"
    seen = tmp_path / "seen"
    script.write_text(f'#!/bin/sh\necho "$1" >> {seen}\necho "s UNKNOWN"\n')
    script.chmod(script.stat().st_mode | stat.S_IXUSR)
    return f"{script} {{seed}} {{input}}", seen


def test_solver_template_seed_substitution(tmp_path, monkeypatch, capsys):
    """With --seed, the CLI replaces {seed} in the solver template, from
    --solver-cmd or from SNOWPLAN_SOLVER_CMD; without it {seed} stays."""
    template, seen = _seed_echo_solver(tmp_path)
    args = ["solve", CORRIDOR, "--emit", "record"]
    assert main(args + ["--seed", "7", "--solver-cmd", template]) == EXIT_BOUNDED
    monkeypatch.setenv("SNOWPLAN_SOLVER_CMD", template)
    assert main(args + ["--seed", "8"]) == EXIT_BOUNDED
    assert main(args) == EXIT_BOUNDED
    assert seen.read_text().split("\n") == ["7", "8", "{seed}", ""]
    records = [RunRecord.from_json(line)
               for line in capsys.readouterr().out.strip().split("\n")]
    assert [r.status for r in records] == ["unknown"] * 3
    assert [r.seed for r in records] == [7, 8, None]
