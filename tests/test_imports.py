"""Every name a module imports is used in that module."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_no_unused_imports():
    """Package `__init__` files re-export names and are left out."""
    unused = {str(path.relative_to(ROOT)): names
              for folder in ("src", "tests")
              for path in sorted((ROOT / folder).rglob("*.py"))
              if path.name != "__init__.py" and (names := _unused_imports(path))}
    assert unused == {}
