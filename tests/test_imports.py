"""Every module-level import of a library module is used in that module,
and importing the command line fills no cache."""

import ast
import json
import os
import subprocess
import sys
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


def test_import_fills_no_cache():
    path = filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    out = subprocess.run([sys.executable, "-c", CACHE_MISSES], env=env, check=True,
                         capture_output=True, text=True).stdout
    after_import, after_call = json.loads(out)
    assert len(after_import) > 10
    assert {name: n for name, n in after_import.items() if n} == {}
    # the check itself must be able to fail: one call is one miss
    assert {name: n for name, n in after_call.items() if n} == \
        {"trialgebra.octonion.calibrate_okubo_factor": 1}
