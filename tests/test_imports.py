"""Every module-level import of a library module is used in that module."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "trialgebra"


def unused_imports(source: str) -> list[str]:
    """The names bound by the module-level imports of source (``__future__``
    aside) that no expression in the module loads."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
    loaded = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in bound if name not in loaded]


def test_every_module_level_import_is_used():
    # the check itself must be able to fail
    probe = ("from __future__ import annotations\n"
             "import os.path\nfrom .exact_field import ONE, as_cyclo as ac, ZERO\n"
             "def f():\n    return ONE + os.path.sep\n")
    assert unused_imports(probe) == ["ac", "ZERO"]
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert len(modules) > 10
    unused = {p.name: unused_imports(p.read_text()) for p in modules}
    assert {name: names for name, names in unused.items() if names} == {}
