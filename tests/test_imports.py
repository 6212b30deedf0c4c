"""Every name a module imports is used in that module, every private
function in `src/` is used somewhere in `src/`, and every parameter of a
function in `src/` is read in its body."""

import ast
from collections import Counter
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


def _references(tree: ast.AST) -> Counter:
    """Each name read in the tree, as a bare name or as an attribute."""
    return Counter(node.id if isinstance(node, ast.Name) else node.attr
                   for node in ast.walk(tree)
                   if isinstance(node, (ast.Name, ast.Attribute)))


def test_every_private_function_is_used():
    """Each `def _name` (dunders aside) is referenced outside its own body,
    so a name reached only through a string (`getattr`) fails too."""
    trees = [ast.parse(path.read_text())
             for path in sorted((ROOT / "src").rglob("*.py"))]
    used = sum((_references(tree) for tree in trees), Counter())
    defs = [node for tree in trees for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node.name.startswith("_") and not node.name.endswith("__")]
    unused = sorted(node.name for node in defs
                    if used[node.name] <= _references(node)[node.name])
    assert unused == []


def _unread_parameters(node) -> list[str]:
    """Parameters (`self` and `cls` aside) that the body never loads."""
    args = node.args
    params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
    params += [a.arg for a in (args.vararg, args.kwarg) if a]
    body = node.body if isinstance(node.body, list) else [node.body]
    read = {sub.id for stmt in body for sub in ast.walk(stmt)
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)}
    return [p for p in params if p not in read and p not in ("self", "cls")]


def test_every_parameter_is_read():
    """A parameter no body reads (a knob left behind by a deletion) fails,
    in functions and lambdas alike."""
    unread = [f"{path.relative_to(ROOT)}:{node.lineno} {param}"
              for path in sorted((ROOT / "src").rglob("*.py"))
              for node in ast.walk(ast.parse(path.read_text()))
              if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                   ast.Lambda))
              for param in _unread_parameters(node)]
    assert unread == []
