"""Deterministic random sampling for the verification suites.

Rational samples draw numerators and denominators uniformly from [-9, 9]
(denominators from [1, 9]), which keeps exact-arithmetic growth bounded while
still exercising nontrivial values.  Unit vectors come from a sparse
stereographic parametrization of the rational sphere, so products of several
of them stay small.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .exact_field import CycloNum, ExactMatrix, ONE, ZERO
from .clifford import CliffordElement, clif_mul, vector
from .spinor import SpinorElement
from .octonion import Octonion


def suite_rng(seed: int, label: str) -> random.Random:
    return random.Random(f"{seed}:{label}")


def rational(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-9, 9), rng.randint(1, 9))


def rational_cyclo(rng: random.Random) -> CycloNum:
    return CycloNum.rational(rational(rng))


def cyclo(rng: random.Random, terms: int = 3) -> CycloNum:
    coeffs = [Fraction(0)] * 8
    for _ in range(terms):
        coeffs[rng.randrange(8)] = rational(rng)
    return CycloNum(coeffs)


def octonion(rng: random.Random) -> Octonion:
    f = lambda: rational_cyclo(rng)
    return Octonion.make(f(), (f(), f(), f()), (f(), f(), f()), f())


def tracefree_3x3(rng: random.Random) -> ExactMatrix:
    ents = [[rational(rng) for _ in range(3)] for _ in range(3)]
    ents[2][2] = -(ents[0][0] + ents[1][1])
    return ExactMatrix.from_rows(ents)


def unit_vector(rng: random.Random) -> CliffordElement:
    """A rational point of the unit sphere (so v bar(v) = 1 in the Clifford
    algebra), sampled sparsely."""
    idxs = rng.sample(range(7), 2)
    u = [Fraction(0)] * 7
    for i in idxs:
        u[i] = Fraction(rng.randint(-2, 2), rng.randint(1, 2))
    s = sum(x * x for x in u)
    den = 1 + s
    coords = [2 * x / den for x in u] + [(1 - s) / den]
    return vector([CycloNum.rational(c) for c in coords])


def spin_element(rng: random.Random, factors: int | None = None) -> CliffordElement:
    """Product of an even number (2..6) of unit vectors."""
    k = factors if factors is not None else rng.choice([2, 4, 6])
    if k % 2:
        raise ValueError("spin elements need an even number of vector factors")
    out = CliffordElement.scalar(1)
    for _ in range(k):
        out = clif_mul(out, unit_vector(rng))
    return out


def multivector(rng: random.Random) -> CliffordElement:
    return CliffordElement({rng.randrange(256): rational_cyclo(rng) for _ in range(3)})


def spinor(rng: random.Random) -> SpinorElement:
    return SpinorElement({rng.randrange(16): rational_cyclo(rng) for _ in range(3)})


def spinor_in(rng: random.Random, masks) -> SpinorElement:
    masks = list(masks)
    return SpinorElement({rng.choice(masks): rational_cyclo(rng) for _ in range(3)})


def vec8(rng: random.Random) -> tuple[CycloNum, ...]:
    return tuple(rational_cyclo(rng) for _ in range(8))


def unimodular(rng: random.Random, n: int) -> ExactMatrix:
    """Product of three random elementary shears; determinant exactly 1."""
    m = ExactMatrix.identity(n)
    for _ in range(3):
        i, j = rng.sample(range(n), 2)
        rows = [[ONE if a == b else ZERO for b in range(n)] for a in range(n)]
        rows[i][j] = CycloNum.rational(Fraction(rng.randint(-3, 3), rng.randint(1, 2)))
        m = m @ ExactMatrix.from_rows(rows)
    return m
