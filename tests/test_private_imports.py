"""No module of the package takes an underscore name from another one.

A leading underscore marks a name as its module's own: a constant, a
route or a helper whose meaning may change with that module.  A module
that imports it (`from .specfun import _TARGET_ABS`), or reads it off an
imported sibling (`specfun._TARGET_ABS` after `from . import specfun`),
copies a decision that then lives in two places.  Dunder names
(`__version__`) are public.  Public names of private modules
(`from ._kernels_py import ln_gamma`) are allowed.
"""

import ast
from pathlib import Path

import besselprob

PACKAGE = Path(besselprob.__file__).parent


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def private_imports(package: Path = PACKAGE) -> list:
    """(module, source module, name) for each private name one module of
    `package` takes from another."""
    found = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        siblings = set()
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom):
                continue
            module = node.module or ""
            if node.level == 0 and module.split(".")[0] != package.name:
                continue
            if (node.level and not module) or module == package.name:
                # `from . import specfun`: the names are modules
                siblings.update(alias.asname or alias.name for alias in node.names)
                continue
            found += [(path.stem, module.split(".")[-1], alias.name)
                      for alias in node.names if _private(alias.name)]
        found += [(path.stem, node.value.id, node.attr) for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in siblings and _private(node.attr)]
    return found


def test_guard_sees_a_private_import(tmp_path):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "a.py").write_text(
        "from . import __version__, b\n"
        "from ._kernels import ln_gamma\n"
        "from .b import _TARGET, route\n\n"
        "def f(x):\n    return b._cutover + route(x) + ln_gamma(x) + b.public\n")
    (pkg / "b.py").write_text("import math\nfrom math import _x\n_TARGET = 1\n")
    (pkg / "c.py").write_text("from pkg.b import _TARGET\n")
    assert private_imports(pkg) == [("a", "b", "_TARGET"), ("a", "b", "_cutover"),
                                    ("c", "b", "_TARGET")]


def test_no_module_takes_a_private_name():
    assert private_imports() == []
