"""Every kernel `_kernels_py` exports must be used by the package.

`backend` binds each name of `_kernels_py.__all__` so that modules take
their kernels from one place; a name that no module other than `backend`
references is an export nothing calls.  The guard parses each module of
the package but `backend.py` and collects every name it loads, every
attribute it reads (`backend.bessel_j`) and every name it imports.
"""

import ast
from pathlib import Path

import besselprob
from besselprob import _kernels_py

PACKAGE = Path(besselprob.__file__).parent


def referenced_names(package: Path = PACKAGE) -> set:
    """The names loaded, read as attributes or imported by the modules of
    `package` other than `backend.py`."""
    names = set()
    for path in sorted(package.glob("*.py")):
        if path.name == "backend.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
    return names


def unused_exports(exports, package: Path = PACKAGE) -> list:
    used = referenced_names(package)
    return [name for name in exports if name not in used]


def test_guard_sees_an_unused_export(tmp_path):
    (tmp_path / "backend.py").write_text("from ._kernels_py import f, g, h, k\n")
    (tmp_path / "_kernels_py.py").write_text(
        "__all__ = ['f', 'g', 'h', 'k']\n\ndef f():\n    return g()\n\ndef g():\n    return 1\n\n"
        "def h():\n    return 2\n\ndef k():\n    return 3\n")
    (tmp_path / "user.py").write_text(
        "from . import backend\nfrom .backend import k\n\ndef u():\n    return backend.f() + k()\n")
    assert unused_exports(["f", "g", "h", "k"], tmp_path) == ["h"]


def test_every_kernel_export_is_used():
    assert unused_exports(_kernels_py.__all__) == []
