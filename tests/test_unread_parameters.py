"""Every parameter of the library's functions must be read.

A parameter the body never reads is a setting that changes nothing: a
caller can pass any value and get the same result.  The guard parses each
module of the package and checks module-level functions and the methods of
module-level classes (a name read by a nested function or lambda counts).
"""

import ast
from pathlib import Path

import besselprob

PACKAGE = Path(besselprob.__file__).parent


def _parameters(fn: ast.FunctionDef) -> list:
    a = fn.args
    names = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs]
    names += [p.arg for p in (a.vararg, a.kwarg) if p is not None]
    return names


def _functions(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield f"{node.name}.{item.name}", item


def unread_parameters(package: Path = PACKAGE) -> list:
    """(module, function, parameter) for each parameter never read."""
    found = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for name, fn in _functions(tree):
            read = {n.id for stmt in fn.body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            found += [(path.stem, name, p) for p in _parameters(fn) if p not in read]
    return found


def test_guard_sees_an_unread_parameter(tmp_path):
    (tmp_path / "mod.py").write_text(
        "def f(x, tol=1e-9):\n    return x\n\n"
        "class C:\n    def g(self, y):\n        return (lambda: self.h(y))()\n")
    assert unread_parameters(tmp_path) == [("mod", "f", "tol")]


def test_every_parameter_is_read():
    assert unread_parameters() == []
