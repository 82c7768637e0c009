"""Formal shape combinatorics for the order-3-twisted decomposition types.

A shape is a multiset of components (n, multiplicity, orbit tag) with total
weight sum(mult * n) = 8, where each 3-cycle orbit lists its three members
(equal n and equal multiplicity within an orbit).  Fixed components carry one
of two image tags: the 7-bounded kind (n <= 7) or the unconstrained kind that
also admits n = 8.

Classification is the literal rule set: square integrable means every
multiplicity is 1, elliptic means every multiplicity is at most 2, stable
means no 3-cycle orbit occurs.  One published worked example (a 3-cycle of
2-dimensional pieces plus a fixed 2-dimensional piece) is declared inelliptic
at the source even though all its multiplicities are 1; classify attaches
that as a discrepancy note instead of silently adopting either verdict.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

TOTAL_DIM = 8

ORBIT_G2 = "fixed_g2"
ORBIT_PGL3 = "fixed_pgl3"
ORBIT_CYCLE = "cycle"

_ORBIT_ORDER = {ORBIT_G2: 0, ORBIT_PGL3: 1, ORBIT_CYCLE: 2}


class ShapeError(ValueError):
    pass


@dataclass(frozen=True)
class Component:
    n: int
    mult: int
    orbit: str
    orbit_id: int | None = None

    def weight(self) -> int:
        return self.n * self.mult


@dataclass(frozen=True)
class ParameterShape:
    components: tuple[Component, ...]

    def total_weight(self) -> int:
        return sum(c.weight() for c in self.components)


@dataclass(frozen=True)
class Classification:
    square_integrable: bool
    elliptic: bool
    stable: bool
    semi_stable: bool
    notes: tuple[str, ...] = field(default_factory=tuple)


def validate(shape: ParameterShape) -> list[str]:
    """All invariant violations, as data; an empty list means the shape is
    well-formed."""
    issues: list[str] = []
    for c in shape.components:
        if c.n < 1:
            issues.append(f"component dimension {c.n} below 1")
        if c.mult < 1:
            issues.append(f"component multiplicity {c.mult} below 1")
        if c.orbit not in _ORBIT_ORDER:
            issues.append(f"unknown orbit tag {c.orbit!r}")
        if c.orbit == ORBIT_G2 and c.n > 7:
            issues.append("7-bounded fixed component with dimension 8")
        if c.orbit == ORBIT_CYCLE and c.orbit_id is None:
            issues.append("cycle component without an orbit id")
        if c.orbit != ORBIT_CYCLE and c.orbit_id is not None:
            issues.append("fixed component carrying an orbit id")
    orbits: dict[int, list[Component]] = {}
    for c in shape.components:
        if c.orbit == ORBIT_CYCLE and c.orbit_id is not None:
            orbits.setdefault(c.orbit_id, []).append(c)
    for oid, members in sorted(orbits.items()):
        if len(members) != 3:
            issues.append(f"cycle orbit {oid} has {len(members)} members, not 3")
        if len({(c.n, c.mult) for c in members}) > 1:
            issues.append(f"cycle orbit {oid} mixes dimensions or multiplicities")
    if shape.total_weight() != TOTAL_DIM:
        issues.append(f"total weight {shape.total_weight()} is not {TOTAL_DIM}")
    return issues


def _is_published_inelliptic_example(shape: ParameterShape) -> bool:
    cyc = [c for c in shape.components if c.orbit == ORBIT_CYCLE]
    fix = [c for c in shape.components if c.orbit != ORBIT_CYCLE]
    return (len(cyc) == 3 and len(fix) == 1
            and all(c.n == 2 and c.mult == 1 for c in cyc)
            and len({c.orbit_id for c in cyc}) == 1
            and fix[0].n == 2 and fix[0].mult == 1)


def classify(shape: ParameterShape) -> Classification:
    issues = validate(shape)
    if issues:
        raise ShapeError("; ".join(issues))
    mults = [c.mult for c in shape.components]
    has_cycle = any(c.orbit == ORBIT_CYCLE for c in shape.components)
    notes: tuple[str, ...] = ()
    if _is_published_inelliptic_example(shape):
        notes = ("published verdict calls this shape inelliptic although every "
                 "multiplicity is 1; the literal rule says elliptic",)
    return Classification(
        square_integrable=all(m == 1 for m in mults),
        elliptic=all(m <= 2 for m in mults),
        stable=not has_cycle,
        semi_stable=has_cycle,
        notes=notes,
    )


def canonical(shape: ParameterShape) -> ParameterShape:
    """Sort components by (orbit kind, n, mult) and renumber cycle orbits in
    order of first appearance."""
    comps = sorted(shape.components,
                   key=lambda c: (_ORBIT_ORDER.get(c.orbit, 99), c.n, c.mult,
                                  -1 if c.orbit_id is None else c.orbit_id))
    relabel: dict[int, int] = {}
    out = []
    for c in comps:
        if c.orbit == ORBIT_CYCLE and c.orbit_id is not None:
            if c.orbit_id not in relabel:
                relabel[c.orbit_id] = len(relabel) + 1
            out.append(Component(c.n, c.mult, c.orbit, relabel[c.orbit_id]))
        else:
            out.append(c)
    return ParameterShape(tuple(out))


def _fixed_units() -> list[tuple[int, int, str]]:
    units = []
    for n in range(1, 8):
        for mult in range(1, TOTAL_DIM // n + 1):
            units.append((n, mult, ORBIT_G2))
    for n in range(1, 9):
        for mult in range(1, TOTAL_DIM // n + 1):
            units.append((n, mult, ORBIT_PGL3))
    return units


def _cycle_units() -> list[tuple[int, int, str]]:
    units = []
    for n in range(1, 3):
        for mult in range(1, 3):
            if 3 * n * mult <= TOTAL_DIM:
                units.append((n, mult, ORBIT_CYCLE))
    return units


@lru_cache(maxsize=None)
def enumerate_shapes() -> tuple[ParameterShape, ...]:
    """All shapes of total weight TOTAL_DIM up to reordering and orbit
    relabeling, in a deterministic canonical order.  The units are built in
    increasing (orbit kind, n, mult) and the search picks them in
    non-decreasing order, so each shape comes out canonical, each unit
    multiset once, and the shapes in increasing order of their components."""
    units = _fixed_units() + _cycle_units()
    weights = [(3 if orbit == ORBIT_CYCLE else 1) * n * m for n, m, orbit in units]
    found: list[ParameterShape] = []

    def extend(start: int, remaining: int, chosen: list[int]) -> None:
        if remaining == 0:
            comps = []
            orbit_id = 0
            for idx in chosen:
                n, m, orbit = units[idx]
                if orbit == ORBIT_CYCLE:
                    orbit_id += 1
                    comps.extend(Component(n, m, orbit, orbit_id) for _ in range(3))
                else:
                    comps.append(Component(n, m, orbit))
            found.append(ParameterShape(tuple(comps)))
            return
        for idx in range(start, len(units)):
            if weights[idx] <= remaining:
                chosen.append(idx)
                extend(idx, remaining - weights[idx], chosen)
                chosen.pop()

    extend(0, TOTAL_DIM, [])
    return tuple(found)


# frozen by the exhaustive generator above (cross-checked against the
# coefficient of x^8 in the product of 1/(1 - x^w) over all unit weights w);
# a regression anchor for the enumeration
FROZEN_SHAPE_COUNT = 893


def shape_to_json(shape: ParameterShape) -> dict:
    return {"components": [{"n": c.n, "mult": c.mult, "orbit": c.orbit,
                            "orbit_id": c.orbit_id} for c in shape.components]}
