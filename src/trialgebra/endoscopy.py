"""Explicit elements and embeddings for the elliptic endoscopic data of the
triality setup, plus the rational coefficient bookkeeping.

Three twisted data are realized concretely: the full fixed group (dimension
14), the one cut out by the order-3 torus element s0 (dimension 8), and the
one cut out by an involution-type element (dimension 6).

The printed formula for the third element, a product of four quarter-turn
exponentials, yields an element of order 3 whose twisted centralizer has
dimension 2, not 6; the same formula with half-turn angles yields the
involution -e1 e2 e5 e6, which does have a 6-dimensional, bracket-closed
twisted centralizer and satisfies the published eighth-power identity.  The
discrepancy is a factor-2 normalization slip in the source (its companion
element s0 carries an explicit /2 in the exponent, this one does not), so
``build_s4prime`` calibrates between the two readings against the defining
property of the datum; the printed reading and its computed invariants
remain available for reporting.

Every twisted fixed subalgebra (the calibration candidates too) comes from
one cached helper on Ad(s) composed with the linearized automorphism, so each
distinct matrix is reduced once per process; the datum elements are cached
too, and callers must not mutate them.  ``TWISTED_DATA`` states each twisted
datum once: its element, whether its map must cube to 1, its expected fixed
dimension and the Cartan type whose determinant is its center order;
``STANDARD_CANDIDATES`` holds the counts of the two untwisted candidates.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable

from .exact_field import CycloNum, ExactMatrix, ZERO, ONE, I, OMEGA
from .clifford import CliffordElement, bivector_exp, clif_mul, vector_rep
from .octonion import Octonion, zorn_mul, conj, norm, coords, E11, E22, V_BASIS, W_BASIS
from .lie_tools import is_automorphism, octonion_algebra_spec
from .triality import ad_on_bivectors, default_dtheta, default_fixed_subalgebra, fixed_subalgebra
from .root_weyl import cartan_determinant

S0_BLADES = (0b00100010, 0b01000100)  # e2 e6 and e3 e7
S4PRIME_BLADES = (0b00010100, 0b00101000, 0b00000101, 0b00001010)  # e3e5, e4e6, e1e3, e2e4


class EndoscopyError(ValueError):
    pass


@lru_cache(maxsize=None)
def build_s0() -> CliffordElement:
    """exp of the commuting bivector pair (e2 e6 - e3 e7) scaled by 2pi/3."""
    return bivector_exp([(Fraction(1, 3), S0_BLADES[0]), (Fraction(-1, 3), S0_BLADES[1])])


def s0_factors_commute() -> bool:
    b1 = CliffordElement.blade(S0_BLADES[0])
    b2 = CliffordElement.blade(S0_BLADES[1])
    return clif_mul(b1, b2) == clif_mul(b2, b1)


@lru_cache(maxsize=None)
def _s4prime_product(angle: Fraction) -> CliffordElement:
    out = CliffordElement.scalar(1)
    for b in S4PRIME_BLADES:
        out = clif_mul(out, bivector_exp([(angle, b)]))
    return out


def build_s4prime_printed() -> CliffordElement:
    """The four-factor product read verbatim with quarter-turn angles."""
    return _s4prime_product(Fraction(-1, 4))


@lru_cache(maxsize=None)
def _twisted_fixed(s: CliffordElement,
                   require_order_3: bool) -> tuple[int, list[tuple[CycloNum, ...]]]:
    """Fixed subalgebra of Ad(s) composed with the linearized order-3
    automorphism; s = 1 reads the triality module's cached fixed subalgebra
    of that automorphism.  Cached on the element, so each distinct matrix is
    reduced once per process."""
    if s == CliffordElement.scalar(1):
        return default_fixed_subalgebra()
    return fixed_subalgebra(ad_on_bivectors(s) @ default_dtheta(), require_order_3)


@lru_cache(maxsize=None)
def s4prime_calibration() -> Fraction:
    """The angle multiple (of pi) per factor under which the product cuts out
    a 6-dimensional twisted centralizer; exactly one candidate survives."""
    winners = [angle for angle in (Fraction(-1, 4), Fraction(-1, 2))
               if _twisted_fixed(_s4prime_product(angle), False)[0] == 6]
    if len(winners) != 1:
        raise EndoscopyError(f"angle calibration did not single out a reading: {winners}")
    return winners[0]


def build_s4prime() -> CliffordElement:
    """The involution-type datum element (calibrated reading of the print)."""
    return _s4prime_product(s4prime_calibration())


@dataclass(frozen=True)
class EndoscopicDatum:
    name: str
    element: str  # how the semisimple element is built ("1", "s0", "s4'")
    build: Callable[[], CliffordElement]
    order_3: bool  # whether Ad(s) composed with dtheta must cube to 1
    expected_fixed_dim: int
    center_type: str  # Cartan type whose determinant is the center order


TWISTED_DATA = (
    EndoscopicDatum("G2", "1", lambda: CliffordElement.scalar(1), True, 14, "G2"),
    EndoscopicDatum("SO4", "s4'", build_s4prime, False, 6, "D4"),
    EndoscopicDatum("SL3", "s0", build_s0, True, 8, "A2"),
)


@lru_cache(maxsize=None)
def twisted_fixed_bases() -> dict[str, list[tuple[CycloNum, ...]]]:
    """Basis of the fixed subalgebra of each twisted datum, keyed by name in
    the order of TWISTED_DATA."""
    return {d.name: _twisted_fixed(d.build(), d.order_3)[1] for d in TWISTED_DATA}


def twisted_fixed_dimensions() -> dict[str, int]:
    """Computed fixed dimensions of Ad(s) composed with the linearized
    order-3 automorphism, for each explicit datum element (s = 1, the
    involution-type element, the order-3 torus element)."""
    return {name: len(basis) for name, basis in twisted_fixed_bases().items()}


def s4prime_printed_fixed_dim() -> int:
    return _twisted_fixed(build_s4prime_printed(), False)[0]


# ---------------------------------------------------------------------------
# the printed diagonal of the standard representation of s0
# ---------------------------------------------------------------------------

def rho_s0_paired_diagonal() -> ExactMatrix:
    """vector_rep(s0) conjugated by the fixed eigenbasis of its two rotation
    planes, the 0-based coordinate pairs (1, 5) and (2, 6): in both, column a
    is e_a - i e_b and column b is e_a + i e_b, so the diagonal shows the
    direction in which each plane turns.  Coordinates 1, 4, 5, 8 are
    untouched."""
    cols = [[ONE if i == j else ZERO for i in range(8)] for j in range(8)]
    for a, b in ((1, 5), (2, 6)):
        cols[a][b] = -I  # e_a - i e_b
        cols[b][a], cols[b][b] = ONE, I  # e_a + i e_b
    p = ExactMatrix.from_columns(cols)
    return p.inverse() @ vector_rep(build_s0()) @ p


def expected_s0_diagonal() -> ExactMatrix:
    w = OMEGA
    wi = OMEGA * OMEGA
    return ExactMatrix.diagonal([ONE, w, wi, ONE, ONE, wi, w, ONE])


# ---------------------------------------------------------------------------
# embeddings
# ---------------------------------------------------------------------------

def xi3_embed(x: ExactMatrix) -> ExactMatrix:
    """diag(x, 1, transpose(x)^-1) on the 7-dimensional trace-zero space in
    the block order (3-vector part, diagonal line, covector part)."""
    if (x.rows, x.cols) != (3, 3):
        raise EndoscopyError("3x3 matrix expected")
    if x.det() != ONE:
        raise EndoscopyError("embedding needs determinant 1")
    xinvt = x.inverse().transpose()
    out = [[ZERO] * 7 for _ in range(7)]
    for i in range(3):
        for j in range(3):
            out[i][j] = x.get(i, j)
            out[4 + i][4 + j] = xinvt.get(i, j)
    out[3][3] = ONE
    return ExactMatrix.from_rows(out)


def xi3_as_octonion_automorphism(x: ExactMatrix) -> ExactMatrix:
    """The same embedding as an 8x8 matrix in the fixed octonion basis
    (unit, d, v1..v3, w1*..w3*); the unit is fixed, and the image acts by g on
    vectors and by the inverse transpose on covectors."""
    e = xi3_embed(x)
    order = (3, 0, 1, 2, 4, 5, 6)  # d, v1..v3, w1*..w3* in the block order of xi3_embed
    m = ExactMatrix.from_rows([[ONE] + [ZERO] * 7] +
                              [[ZERO] + [e.get(i, j) for j in order] for i in order])
    if not is_automorphism(octonion_algebra_spec(), m):
        raise EndoscopyError("embedded matrix failed the automorphism check")
    return m


# -- the quaternion-pair action ----------------------------------------------
#
# The quaternion subalgebra H is span{e11, e22, v1, w1*} (a split 2x2 matrix
# algebra); ell = v2 - w2* is a perpendicular unit and O = H + H ell (the
# doubling construction; Springer & Veldkamp, "Octonions", 2000, ch. 1).

QUAT_BASIS = (E11, E22, V_BASIS[0], W_BASIS[0])
ELL = Octonion(ZERO, (ZERO, ONE, ZERO), (ZERO, -ONE, ZERO), ZERO)


def quaternion_of_matrix(x: ExactMatrix) -> Octonion:
    """(a b; c d) -> a e11 + b v1 + c w1* + d e22; norm is the determinant."""
    if (x.rows, x.cols) != (2, 2):
        raise EndoscopyError("2x2 matrix expected")
    return Octonion(x.get(0, 0), (x.get(0, 1), ZERO, ZERO),
                    (x.get(1, 0), ZERO, ZERO), x.get(1, 1))


def so4_action(x1: ExactMatrix, x2: ExactMatrix) -> ExactMatrix:
    """The octonion automorphism attached to a pair of unit quaternions:
    u -> x1 u conj(x1) on the quaternion subalgebra and b*ell -> (x2 b conj(x1))*ell
    on its complement, read on the basis QUAT_BASIS, QUAT_BASIS * ell and
    returned as its 8x8 matrix in the fixed octonion basis."""
    q1 = quaternion_of_matrix(x1)
    q2 = quaternion_of_matrix(x2)
    if norm(q1) != ONE or norm(q2) != ONE:
        raise EndoscopyError("both quaternions must have norm 1")
    q1c = conj(q1)
    src = [*QUAT_BASIS, *(zorn_mul(b, ELL) for b in QUAT_BASIS)]
    images = ([zorn_mul(zorn_mul(q1, u), q1c) for u in QUAT_BASIS]
              + [zorn_mul(zorn_mul(zorn_mul(q2, b), q1c), ELL) for b in QUAT_BASIS])
    out = (ExactMatrix.from_columns([coords(x) for x in images])
           @ ExactMatrix.from_columns([coords(x) for x in src]).inverse())
    if not is_automorphism(octonion_algebra_spec(), out):
        raise EndoscopyError("quaternion pair did not induce an automorphism")
    return out


# ---------------------------------------------------------------------------
# coefficient formula
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CoefficientInput:
    ker1_G: int
    ker1_Gprime: int
    z_hat_gamma: int
    out_order: int
    pi0_kappa: int = 1

    def __post_init__(self):
        for name in ("ker1_G", "ker1_Gprime", "z_hat_gamma", "out_order", "pi0_kappa"):
            if getattr(self, name) < 1:
                raise EndoscopyError(f"{name} must be a positive count")


def iota_coefficient(c: CoefficientInput) -> Fraction:
    return (Fraction(1, c.pi0_kappa) * Fraction(c.ker1_Gprime, c.ker1_G)
            * Fraction(1, c.z_hat_gamma) * Fraction(1, c.out_order))


# the two standard (untwisted) candidates; no published value to compare with
STANDARD_CANDIDATES: dict[str, CoefficientInput] = {
    "PGL3": CoefficientInput(1, 1, 3, 2),
    "SO4": CoefficientInput(1, 1, 2, 1),
}


def twisted_coefficients() -> dict[str, Fraction]:
    """The coefficient of each twisted datum, its center order the Cartan
    determinant of the datum's center type."""
    return {d.name: iota_coefficient(CoefficientInput(1, 1, cartan_determinant(d.center_type), 1))
            for d in TWISTED_DATA}
