"""Split octonions in the Zorn vector-matrix model, plus the two symmetric
composition products built from them: the para-octonion product x*y = conj(x)conj(y)
and the Okubo product on trace-zero 3x3 matrices.

An octonion is a 2x2 "matrix" (a, v; w, b) with scalars a, b, a 3-vector v and
a covector w.  Lambda^2 V is identified with V* (and Lambda^2 V* with V)
through the trivialization e1^e2^e3 -> 1, which turns both wedges into the
coordinate cross product.  The covector-covector wedge enters the product
with a minus sign: with both wedges taken positively the norm fails to be
multiplicative, and N(x*y) = N(x)N(y) is non-negotiable for everything
downstream, so the orientation of the Lambda^2 V* identification is fixed by
that law (a calibration test pins it).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from .exact_field import (
    CycloNum, ExactMatrix, ZERO, ONE, TWO, HALF, OMEGA,
    _dot, as_cyclo, vec_add, vec_dot, vec_scale,
)

Vec3 = tuple[CycloNum, CycloNum, CycloNum]

_ZV: Vec3 = (ZERO, ZERO, ZERO)


@dataclass(frozen=True)
class Octonion:
    a: CycloNum
    v: Vec3
    wstar: Vec3
    b: CycloNum

    @classmethod
    def make(cls, a, v, wstar, b) -> "Octonion":
        v, wstar = tuple(map(as_cyclo, v)), tuple(map(as_cyclo, wstar))
        if len(v) != 3 or len(wstar) != 3:
            raise ValueError("3-vector expected")
        return cls(as_cyclo(a), v, wstar, as_cyclo(b))

    @classmethod
    def scalar(cls, s) -> "Octonion":
        s = as_cyclo(s)
        return cls(s, _ZV, _ZV, s)

    def __add__(self, other: "Octonion") -> "Octonion":
        return Octonion(self.a + other.a, vec_add(self.v, other.v),
                        vec_add(self.wstar, other.wstar), self.b + other.b)

    def scale(self, s) -> "Octonion":
        s = as_cyclo(s)
        return Octonion(s * self.a, vec_scale(s, self.v), vec_scale(s, self.wstar), s * self.b)


IDENTITY = Octonion.scalar(1)


def zorn_mul(x: Octonion, y: Octonion) -> Octonion:
    """Zorn product (a, v; w, b)(c, u; z, d) = (ac + z.v, au + dv - cross(w, z);
    cw + bz + cross(v, u), bd + w.u); the covector wedge w ^ z carries the
    minus sign that makes N multiplicative (see the module docstring).

    Each of the 8 coordinates is a sum of 4 products, summed by one ``_dot``
    and so reduced once; cross(p, q)[k] = p[k+1] q[k+2] - p[k+2] q[k+1]
    (indices mod 3) enters as two products, its sign on the first factor."""
    a, v, w, b = x.a, x.v, x.wstar, x.b
    c, u, z, d = y.a, y.v, y.wstar, y.b
    nv, nw = tuple(-t for t in v), tuple(-t for t in w)
    return Octonion(
        _dot(((a, c), (z[0], v[0]), (z[1], v[1]), (z[2], v[2]))),
        tuple(_dot(((a, u[k]), (d, v[k]), (w[k - 1], z[k - 2]), (nw[k - 2], z[k - 1])))
              for k in (0, 1, 2)),
        tuple(_dot(((c, w[k]), (b, z[k]), (v[k - 2], u[k - 1]), (nv[k - 1], u[k - 2])))
              for k in (0, 1, 2)),
        _dot(((b, d), (w[0], u[0]), (w[1], u[1]), (w[2], u[2]))),
    )


def conj(x: Octonion) -> Octonion:
    return Octonion(x.b, vec_scale(-ONE, x.v), vec_scale(-ONE, x.wstar), x.a)


def norm(x: Octonion) -> CycloNum:
    return x.a * x.b - vec_dot(x.wstar, x.v)


def trace(x: Octonion) -> CycloNum:
    return x.a + x.b


def b_norm(x: Octonion, y: Octonion) -> CycloNum:
    """Polarization N(x+y) - N(x) - N(y) of the norm form."""
    return norm(x + y) - norm(x) - norm(y)


def trilinear_trace(x: Octonion, y: Octonion, z: Octonion) -> CycloNum:
    """tr((x y) z); cyclic in its arguments and independent of bracketing."""
    return trace(zorn_mul(zorn_mul(x, y), z))


def para_mul(x: Octonion, y: Octonion) -> Octonion:
    """Para-octonion product conj(x) * conj(y)."""
    return zorn_mul(conj(x), conj(y))


# -- fixed basis -------------------------------------------------------------
#
# Trace-zero basis order everywhere: d = diag(1,-1), v1, v2, v3, w1*, w2*, w3*.
# The full 8-dimensional basis prepends the unit.

def _e(i: int) -> Vec3:
    return tuple(ONE if j == i else ZERO for j in range(3))  # type: ignore[return-value]


D_DIAG = Octonion.make(1, _ZV, _ZV, -1)
V_BASIS = tuple(Octonion(ZERO, _e(i), _ZV, ZERO) for i in range(3))
W_BASIS = tuple(Octonion(ZERO, _ZV, _e(i), ZERO) for i in range(3))

TRACE_ZERO_BASIS: tuple[Octonion, ...] = (D_DIAG,) + V_BASIS + W_BASIS
FULL_BASIS: tuple[Octonion, ...] = (IDENTITY,) + TRACE_ZERO_BASIS

E11 = Octonion.make(1, _ZV, _ZV, 0)
E22 = Octonion.make(0, _ZV, _ZV, 1)


def coords(x: Octonion) -> tuple[CycloNum, ...]:
    """Coordinates of x in FULL_BASIS (unit, d, v1..v3, w1*..w3*)."""
    return ((x.a + x.b) * HALF, (x.a - x.b) * HALF) + x.v + x.wstar


def from_coords(c: Sequence[CycloNum]) -> Octonion:
    if len(c) != 8:
        raise ValueError("8 coordinates expected")
    return Octonion(c[0] + c[1], tuple(c[2:5]), tuple(c[5:8]), c[0] - c[1])


# -- octonion-model triality forms -------------------------------------------

def triality_q1(y: Octonion, z: Octonion) -> CycloNum:
    return b_norm(conj(y), conj(z))


def triality_q2(x: Octonion, y: Octonion) -> CycloNum:
    return b_norm(x, y)


def triality_q3(x: Octonion, y: Octonion) -> CycloNum:
    return HALF * b_norm(x, y)


def triality_t1(y: Octonion, z: Octonion) -> Octonion:
    return conj(zorn_mul(y, z))


def triality_t2(x: Octonion, y: Octonion) -> Octonion:
    return zorn_mul(conj(x), y)


def triality_t3(x: Octonion, y: Octonion) -> Octonion:
    return zorn_mul(conj(x), y).scale(TWO)


# -- Okubo algebra on trace-zero 3x3 matrices ---------------------------------

MU = (ONE - OMEGA) / CycloNum.rational(3)


def _mat_trace(m: ExactMatrix) -> CycloNum:
    return m.get(0, 0) + m.get(1, 1) + m.get(2, 2)


@dataclass(frozen=True)
class OkuboElement:
    m: ExactMatrix  # 3x3, trace zero

    def __post_init__(self):
        if (self.m.rows, self.m.cols) != (3, 3):
            raise ValueError("3x3 matrix expected")
        if _mat_trace(self.m):
            raise ValueError("matrix must be trace-free")


def okubo_mul(x: OkuboElement, y: OkuboElement, trace_factor: Fraction) -> OkuboElement:
    """mu*xy + (1-mu)*yx - trace_factor * tr(yx) * 1 on trace-zero matrices.

    trace_factor is 1 or 1/3; only one of the two keeps the product
    trace-free and the norm multiplicative, and calibrate_okubo_factor
    finds out which.
    """
    if trace_factor not in (Fraction(1), Fraction(1, 3)):
        raise ValueError("trace_factor must be 1 or 1/3")
    xy = x.m @ y.m
    yx = y.m @ x.m
    t = CycloNum.rational(trace_factor) * _mat_trace(yx)
    prod = xy.scale(MU) + yx.scale(ONE - MU) - ExactMatrix.diagonal([t, t, t])
    return OkuboElement(prod)


def okubo_norm(x: OkuboElement) -> CycloNum:
    """n(x) = -(1/3) * (second coefficient of the characteristic polynomial);
    on trace-zero matrices this is tr(x^2)/6."""
    return _mat_trace(x.m @ x.m) / CycloNum.rational(6)


def _okubo_samples() -> list[OkuboElement]:
    data = [
        [[1, 2, 0], [0, -3, 1], [1, 0, 2]],
        [[0, 1, 1], [2, 1, 0], [3, 0, -1]],
        [[2, -1, 3], [1, -2, 0], [0, 1, 0]],
        [[-1, 0, 2], [5, 1, 1], [1, 1, 0]],
    ]
    return [OkuboElement(ExactMatrix.from_rows(rows)) for rows in data]


@lru_cache(maxsize=None)
def calibrate_okubo_factor() -> Fraction:
    """The tr(yx)-coefficient under which the Okubo product is trace-free and
    satisfies n(x*y) = n(x)n(y); exactly one candidate survives.  Run on
    first use, not at import."""
    winners = []
    samples = _okubo_samples()
    for factor in (Fraction(1), Fraction(1, 3)):
        ok = True
        for x in samples:
            for y in samples:
                try:
                    p = okubo_mul(x, y, factor)
                except ValueError:
                    ok = False
                    break
                if okubo_norm(p) != okubo_norm(x) * okubo_norm(y):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            winners.append(factor)
    if len(winners) != 1:
        raise ArithmeticError(f"Okubo calibration did not single out a factor: {winners}")
    return winners[0]


def okubo_product(x: OkuboElement, y: OkuboElement) -> OkuboElement:
    return okubo_mul(x, y, calibrate_okubo_factor())
