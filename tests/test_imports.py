"""Every module-level import of a library module is used in that module,
every function, method and class the library defines is used somewhere,
and importing the command line fills no cache."""

import ast
import json
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "trialgebra"
PERFBENCH = SRC.parent.parent / "perfbench"


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


def defined_names(source: str) -> list[str]:
    """Dotted names of the functions, methods and classes source defines,
    nested ones included."""
    found = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                found.append(prefix + child.name)
                visit(child, f"{prefix}{child.name}.")
            else:
                visit(child, prefix)

    visit(ast.parse(source), "")
    return found


def loaded_names(source: str) -> set[str]:
    """Every name an expression in source loads, bare or as an attribute."""
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(ast.parse(source))
            if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load)}


def unused_definitions(source: str, loaded: set[str]) -> list[str]:
    """The dotted names source defines whose last part is not in loaded;
    dunders are exempt, since the language calls them."""
    unused = []
    for name in defined_names(source):
        last = name.rsplit(".", 1)[-1]
        if last not in loaded and not (last.startswith("__") and last.endswith("__")):
            unused.append(name)
    return unused


# called by argparse, not by name
OVERRIDES = {"cli.py": ["_Parser.error"]}


def test_every_definition_is_used_by_the_library_or_the_benchmark():
    # the check itself must be able to fail
    probe = ("class A:\n    def used(self): pass\n    def __repr__(self): return ''\n"
             "    def spare(self): pass\n"
             "def f():\n    def inner(): pass\n    return A().used\ng = f\n")
    assert unused_definitions(probe, loaded_names(probe)) == ["A.spare", "f.inner"]
    modules = sorted(SRC.glob("*.py"))
    readers = modules + sorted(PERFBENCH.glob("*.py"))
    assert len(readers) > len(modules) > 10
    loaded = set().union(*(loaded_names(p.read_text()) for p in readers))
    unused = {p.name: unused_definitions(p.read_text(), loaded) for p in modules}
    assert {name: names for name, names in unused.items() if names} == OVERRIDES


CACHE_MISSES = """
import json, sys
import trialgebra.cli

def misses():
    return {f"{name}.{attr}": f.cache_info().misses
            for name, mod in sorted(sys.modules.items()) if name.startswith("trialgebra")
            for attr, f in vars(mod).items() if hasattr(f, "cache_info")}

after_import = misses()
sys.modules["trialgebra.octonion"].calibrate_okubo_factor()
print(json.dumps([after_import, misses()]))
"""


def test_import_fills_no_cache(child_env):
    out = subprocess.run([sys.executable, "-c", CACHE_MISSES], env=child_env, check=True,
                         capture_output=True, text=True).stdout
    after_import, after_call = json.loads(out)
    assert len(after_import) > 10
    assert {name: n for name, n in after_import.items() if n} == {}
    # the check itself must be able to fail: one call is one miss
    assert {name: n for name, n in after_call.items() if n} == \
        {"trialgebra.octonion.calibrate_okubo_factor": 1}
