"""The README's examples run as written."""

import re
from pathlib import Path

from snowplan.fixtures import load_fixture
from snowplan.plans import validate_lurd
from snowplan.solvers import SOLVER_CMD_ENV

ROOT = Path(__file__).resolve().parent.parent


def test_library_example_runs(monkeypatch, capsys):
    """The first python block under "## Library", run from the repository
    root on the default backend, prints the optimum and a solving LURD."""
    library = (ROOT / "README.md").read_text().split("## Library", 1)[1]
    code = re.search(r"```python\n(.*?)```", library, re.S).group(1)
    monkeypatch.chdir(ROOT)
    monkeypatch.delenv(SOLVER_CMD_ENV, raising=False)
    exec(compile(code, "README.md", "exec"), {})
    upper, lurd = capsys.readouterr().out.split()
    fx = load_fixture("snow_tiny1")
    assert upper == str(fx.object_actions_optimal)
    assert validate_lurd(fx.level, lurd)["goal"] is True
