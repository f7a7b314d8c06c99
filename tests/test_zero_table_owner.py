"""No module of the package but `specfun` constructs a `ZeroTable`.

`specfun.bessel_zeros` alone decides how a zero table relates to a longer
one: which tables are walked, which are prefixes, what the cache holds.  A
module that builds its own table from another's zeros (a slice, a cache of
its own) copies that decision.  Tests may still build tables.
"""

import ast
from pathlib import Path

import besselprob

PACKAGE = Path(besselprob.__file__).parent
OWNER = "specfun"


def zero_table_builders(package: Path = PACKAGE) -> list:
    """(module, line) for each call that constructs a `ZeroTable` in a
    module of `package` other than `OWNER`."""
    found = []
    for path in sorted(package.glob("*.py")):
        if path.stem == OWNER:
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        # names bound to ZeroTable, under `from .specfun import ZeroTable as ...`
        names = {alias.asname or alias.name for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom)
                 for alias in node.names if alias.name == "ZeroTable"}
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            if (isinstance(f, ast.Name) and f.id in names) or \
                    (isinstance(f, ast.Attribute) and f.attr == "ZeroTable"):
                found.append((path.stem, node.lineno))
    return found


def test_guard_sees_a_table_built_outside_the_owner(tmp_path):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "specfun.py").write_text("class ZeroTable: pass\n\nt = ZeroTable()\n")
    (pkg / "a.py").write_text(
        "from .specfun import ZeroTable\n\n"
        "def f(z: ZeroTable):\n    return ZeroTable(z.alpha, z.zeros[:3])\n")
    (pkg / "b.py").write_text(
        "from . import specfun\nfrom .specfun import ZeroTable as ZT\n\n"
        "x = specfun.ZeroTable(0.0, (2.4,))\ny = ZT(0.0, (2.4,))\n"
        "z = isinstance(x, specfun.ZeroTable)\n")
    assert zero_table_builders(pkg) == [("a", 4), ("b", 4), ("b", 5)]


def test_only_specfun_builds_zero_tables():
    assert zero_table_builders() == []
