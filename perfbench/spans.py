"""Span tracer for the benchmark's traced run.

The tracer times calls into each layer's public functions from outside the
library.  It wraps every traced function once and rebinds *every*
``trialgebra.*`` module attribute that is that function, because several
modules import kernels by name (``from .clifford import clif_mul``) and
patching only the defining module would miss those calls.  ``ExactMatrix``
methods are patched on the class, and ``CycloNum.__mul__``/``__rmul__`` get a
counting-only wrapper (no span), since a span per scalar product would swamp
the run it measures.

Spans are kept in memory as ``[name, start, end, parent, term_pairs]`` and
reduced to per-name totals by :func:`summarize`:

* ``calls``: number of spans;
* ``busy_s``: time inside the name, counting a recursive call once;
* ``self_s``: span time minus the time of its child spans;
* ``term_pairs``: blade-term pairs multiplied by ``clif_mul`` at or under the
  name, where a ``clif_mul`` of x and y costs ``|x.terms| * |y.terms|``.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import defaultdict

# (module, function) pairs whose calls are recorded as spans
FUNCTIONS = (
    ("exact_field", "rref"),
    ("clifford", "clif_mul"),
    ("clifford", "vector_rep"),
    ("clifford", "is_spin"),
    ("clifford", "is_pin"),
    ("clifford", "bivector_exp"),
    ("spinor", "clifford_action"),
    ("spinor", "vector_action"),
    ("octonion", "zorn_mul"),
    ("octonion", "para_mul"),
    ("triality", "ad_on_bivectors"),
    ("triality", "bracket_coords"),
    ("triality", "default_dtheta"),
    ("triality", "fixed_subalgebra"),
    ("lie_tools", "derivation_algebra"),
    ("lie_tools", "commutant_in"),
    ("lie_tools", "centralizer_report"),
    ("endoscopy", "twisted_fixed_dimensions"),
    ("endoscopy", "s4prime_calibration"),
    ("cli", "render_json"),
)

MATRIX_METHODS = ("rank", "kernel", "solve_many", "inverse", "__matmul__", "det")

PAIRS_SPAN = "clifford.clif_mul"

MUL_KINDS = ("rational", "sparse", "dense")

# a scalar with at most this many nonzero power-basis coordinates is sparse
SPARSE_MAX_TERMS = 4

_RATIONAL_NZ = ((), (0,))


def _library_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "trialgebra" or name.startswith("trialgebra."))]


class Tracer:
    """Install with ``with Tracer() as t:``; every binding is restored on exit."""

    def __init__(self):
        self.spans: list[list] = []
        self.mul_calls = dict.fromkeys(MUL_KINDS, 0)
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    # -- wrappers -----------------------------------------------------------

    def _span(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        count_pairs = name == PAIRS_SPAN

        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1,
                    len(args[0].terms) * len(args[1].terms) if count_pairs else 0]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()

        traced.__wrapped__ = fn
        return traced

    def _counting_mul(self, fn, cyclo_type):
        calls = self.mul_calls

        def counted(a, b):
            anz = a.nz
            bnz = b.nz if isinstance(b, cyclo_type) else ()
            if anz in _RATIONAL_NZ or bnz in _RATIONAL_NZ:
                calls["rational"] += 1
            elif len(anz) <= SPARSE_MAX_TERMS and len(bnz) <= SPARSE_MAX_TERMS:
                calls["sparse"] += 1
            else:
                calls["dense"] += 1
            return fn(a, b)

        counted.__wrapped__ = fn
        return counted

    def _set(self, target, key, value) -> None:
        if isinstance(target, dict):
            self._undo.append((target, key, target[key]))
            target[key] = value
        else:
            self._undo.append((target, key, target.__dict__[key]))
            setattr(target, key, value)

    # -- install / restore --------------------------------------------------

    def install(self) -> None:
        cli = importlib.import_module("trialgebra.cli")
        ef = importlib.import_module("trialgebra.exact_field")
        wrapper_of = {}
        for modname, attr in FUNCTIONS:
            fn = getattr(importlib.import_module("trialgebra." + modname), attr)
            wrapper_of[id(fn)] = self._span(f"{modname}.{attr}", fn)
        for mod in _library_modules():
            for attr, value in list(vars(mod).items()):
                wrapper = wrapper_of.get(id(value))
                if wrapper is not None:
                    self._set(mod, attr, wrapper)
        for method in MATRIX_METHODS:
            fn = vars(ef.ExactMatrix)[method]
            self._set(ef.ExactMatrix, method, self._span(f"exact_field.ExactMatrix.{method}", fn))
        counted = self._counting_mul(vars(ef.CycloNum)["__mul__"], ef.CycloNum)
        self._set(ef.CycloNum, "__mul__", counted)
        self._set(ef.CycloNum, "__rmul__", counted)
        for name, fn in list(cli.SUITES.items()):
            self._set(cli.SUITES, name, self._span(f"cli.suite.{name}", fn))

    def restore(self) -> None:
        while self._undo:
            target, key, value = self._undo.pop()
            if isinstance(target, dict):
                target[key] = value
            else:
                setattr(target, key, value)

    def __enter__(self) -> "Tracer":
        try:
            self.install()
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    # -- output -------------------------------------------------------------

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "term_pairs"],
                       "spans": self.spans}, fh)


def summarize(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per-name ``calls``, ``busy_s``, ``self_s`` and ``term_pairs``."""
    child_time = defaultdict(float)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "term_pairs": 0})
    for idx, (name, start, end, parent, pairs) in enumerate(spans):
        rec = out[name]
        rec["calls"] += 1
        rec["self_s"] += (end - start) - child_time[idx]
        names_above = set()
        p = parent
        while p >= 0:
            names_above.add(spans[p][0])
            p = spans[p][3]
        if name not in names_above:
            rec["busy_s"] += end - start
        if pairs:
            for above in names_above | {name}:
                out[above]["term_pairs"] += pairs
    return dict(out)
