"""The 16-dimensional spinor module Lambda(W) for the quadratic space C^8 of
``clifford``, with its Clifford action, the half-spin matrices, the top
coefficient functional and the pairings built from it.

W is spanned by w_1..w_4 with w_k = (i e_k + e_{k+4})/2 and w'_k the mirror
isotropic vectors; a spinor is a map from subsets of {1..4} (bitmasks) to
scalars.  Generators act by

    w_k  |-> wedge with w_k,          w'_k |-> the antiderivation d_k,
    e_k = -i (w_k + w'_k),            e_{k+4} = w_k - w'_k,

with d_k normalized by d_k(w_j) = delta_kj; that normalization is pinned by
the module relation lambda(u)lambda(v) + lambda(v)lambda(u) = b_q(u, v).

Each e_k sends a basis blade to a single basis blade (exactly one of the
wedge/contraction summands survives), so generator actions are cached as
mask -> (mask, coefficient) tables, read only by ``clifford_action`` (a
vector acts as a multivector).  The pairings meet complementary masks, whose
wedge sign is the blade-product sign ``clifford._blade_mul_sign``.

The half-spin labels: the volume element e1..e8 acts on the even and odd
halves by opposite signs; whichever half it fixes pointwise is labeled plus.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Mapping

from .exact_field import CycloNum, ExactMatrix, ZERO, ONE, I, add_term
from .clifford import (
    CliffordElement, CliffordError, is_spin, vector, _blade_mul_sign,
)

W_DIM = 4
FULL_MASK = (1 << W_DIM) - 1

EVEN_MASKS: tuple[int, ...] = tuple(m for m in range(16) if m.bit_count() % 2 == 0)
ODD_MASKS: tuple[int, ...] = tuple(m for m in range(16) if m.bit_count() % 2 == 1)

NEG_I = -I


class SpinorElement:
    """Sparse element of Lambda(W); terms map 4-bit masks to coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[int, CycloNum]):
        clean: dict[int, CycloNum] = {}
        for m, c in terms.items():
            if not 0 <= m <= FULL_MASK:
                raise ValueError(f"spinor mask {m:#b} out of range")
            if not isinstance(c, CycloNum):
                c = CycloNum.rational(c)
            if c:
                clean[m] = c
        self.terms = clean

    @classmethod
    def blade(cls, mask: int, coeff=1) -> "SpinorElement":
        return cls({mask: coeff})

    @classmethod
    def one(cls) -> "SpinorElement":
        return cls({0: ONE})

    def is_zero(self) -> bool:
        return not self.terms

    def parity(self) -> int | None:
        ps = {m.bit_count() & 1 for m in self.terms}
        if len(ps) > 1:
            return None
        return ps.pop() if ps else 0

    def coefficient(self, mask: int) -> CycloNum:
        return self.terms.get(mask, ZERO)

    def __add__(self, other: "SpinorElement") -> "SpinorElement":
        out = dict(self.terms)
        for m, c in other.terms.items():
            add_term(out, m, c)
        return SpinorElement(out)

    def __sub__(self, other: "SpinorElement") -> "SpinorElement":
        return self + (-other)

    def __neg__(self) -> "SpinorElement":
        return SpinorElement({m: -c for m, c in self.terms.items()})

    def scale(self, s) -> "SpinorElement":
        if not isinstance(s, CycloNum):
            s = CycloNum.rational(s)
        return SpinorElement({m: s * c for m, c in self.terms.items()})

    def __eq__(self, other):
        if not isinstance(other, SpinorElement):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self):
        if not self.terms:
            return "SpinorElement(0)"
        bits = []
        for m in sorted(self.terms):
            name = "1" if m == 0 else "w" + "".join(str(i + 1) for i in range(4) if m >> i & 1)
            bits.append(f"{self.terms[m]!r}*{name}")
        return "SpinorElement(" + " + ".join(bits) + ")"


def _sign_below(mask: int, k: int) -> int:
    """(-1)^(number of indices below k present in mask)."""
    return -1 if (mask & ((1 << k) - 1)).bit_count() & 1 else 1


def wedge_w(k: int, s: SpinorElement) -> SpinorElement:
    """Exterior multiplication by w_k (1-based)."""
    bit = 1 << (k - 1)
    out = {}
    for m, c in s.terms.items():
        if not m & bit:
            sg = _sign_below(m, k - 1)
            out[m | bit] = c if sg > 0 else -c
    return SpinorElement(out)


def contract_w(k: int, s: SpinorElement) -> SpinorElement:
    """The antiderivation d_k with d_k(w_j) = delta_kj."""
    bit = 1 << (k - 1)
    out = {}
    for m, c in s.terms.items():
        if m & bit:
            sg = _sign_below(m, k - 1)
            out[m ^ bit] = c if sg > 0 else -c
    return SpinorElement(out)


@lru_cache(maxsize=None)
def _generator_table(i: int) -> dict[int, tuple[int, CycloNum]]:
    """Action of e_{i+1} (0-based i) as mask -> (image mask, coefficient)."""
    table: dict[int, tuple[int, CycloNum]] = {}
    k = (i % 4) + 1
    bit = 1 << (k - 1)
    for m in range(16):
        sg = ONE if _sign_below(m, k - 1) > 0 else -ONE
        if i < 4:
            coeff = NEG_I * sg  # -i (wedge + contraction); one summand survives
        else:
            coeff = sg if not m & bit else -sg  # wedge - contraction
        table[m] = (m ^ bit, coeff)
    return table


def clifford_action(x: CliffordElement, s: SpinorElement) -> SpinorElement:
    """Module action of a multivector: each blade acts by the composition of
    its generators, rightmost factor first."""
    acc: dict[int, CycloNum] = {}
    for cmask, ccoef in x.terms.items():
        bits = [i for i in range(8) if cmask >> i & 1]
        cur = dict(s.terms)
        for i in reversed(bits):
            table = _generator_table(i)
            # m -> m ^ bit is a bijection, so no two terms land on one mask
            cur = {table[m][0]: c * table[m][1] for m, c in cur.items()}
        for m, c in cur.items():
            add_term(acc, m, ccoef * c)
    return SpinorElement(acc)


def vector_action(coords, s: SpinorElement) -> SpinorElement:
    """Action of the vector sum(coords[i] * e_{i+1})."""
    return clifford_action(vector(coords), s)


def top_coefficient(s: SpinorElement) -> CycloNum:
    """Coefficient of the full blade w1^w2^w3^w4."""
    return s.terms.get(FULL_MASK, ZERO)


def spinor_iota(s: SpinorElement) -> SpinorElement:
    """Parity involution on Lambda(W)."""
    return SpinorElement({m: -c if m.bit_count() & 1 else c for m, c in s.terms.items()})


def pairing_N(x: SpinorElement, y: SpinorElement) -> CycloNum:
    """N(x, y) = top coefficient of transpose(x) ^ y; only complementary masks
    meet, and on disjoint masks the wedge sign is the blade-product sign."""
    acc = ZERO
    for ma, ca in x.terms.items():
        mb = FULL_MASK ^ ma
        cb = y.terms.get(mb)
        if cb is None:
            continue
        k = ma.bit_count()
        _, sg = _blade_mul_sign(ma, mb)
        if (k * (k - 1) // 2) & 1:
            sg = -sg
        term = ca * cb
        acc = acc + (term if sg > 0 else -term)
    return acc


def pairing_Nbar(x: SpinorElement, y: SpinorElement) -> CycloNum:
    """Nbar(x, y) = N(iota(x), y)."""
    return pairing_N(spinor_iota(x), y)


# -- half-spin labeling -------------------------------------------------------

@lru_cache(maxsize=None)
def _eta_scalars() -> tuple[CycloNum, CycloNum]:
    """Scalars by which e1..e8 acts on the even resp. odd half."""
    eta = CliffordElement.blade((1 << 8) - 1)
    even_img = clifford_action(eta, SpinorElement.one())
    odd_img = clifford_action(eta, SpinorElement.blade(1))
    se = even_img.coefficient(0)
    so = odd_img.coefficient(1)
    if even_img != SpinorElement.blade(0, se) or odd_img != SpinorElement.blade(1, so):
        raise ArithmeticError("volume element does not act by a scalar on the halves")
    for m in EVEN_MASKS:
        if clifford_action(eta, SpinorElement.blade(m)) != SpinorElement.blade(m, se):
            raise ArithmeticError("volume element is not scalar on the even half")
    if se * so != -ONE or se * se != ONE:
        raise ArithmeticError("volume element scalars are not opposite signs")
    return se, so


@lru_cache(maxsize=None)
def plus_is_even() -> bool:
    """True when the even half carries the +1 action of the volume element."""
    se, _ = _eta_scalars()
    return se == ONE


@lru_cache(maxsize=None)
def plus_masks() -> tuple[int, ...]:
    return EVEN_MASKS if plus_is_even() else ODD_MASKS


@lru_cache(maxsize=None)
def minus_masks() -> tuple[int, ...]:
    return ODD_MASKS if plus_is_even() else EVEN_MASKS


def plus_coords(s: SpinorElement) -> tuple[CycloNum, ...]:
    _reject_stray(s, plus_masks())
    return tuple(s.terms.get(m, ZERO) for m in plus_masks())


def minus_coords(s: SpinorElement) -> tuple[CycloNum, ...]:
    _reject_stray(s, minus_masks())
    return tuple(s.terms.get(m, ZERO) for m in minus_masks())


def _reject_stray(s: SpinorElement, masks: tuple[int, ...]) -> None:
    stray = set(s.terms) - set(masks)
    if stray:
        raise ValueError(f"spinor has components outside the requested half: {sorted(stray)}")


def half_spin_matrices(a: CliffordElement) -> tuple[ExactMatrix, ExactMatrix]:
    """Matrices of the action of a spin element on the plus and minus halves."""
    if not is_spin(a):
        raise CliffordError("half_spin_matrices needs a spin-group element")
    plus_cols = [plus_coords(clifford_action(a, SpinorElement.blade(m))) for m in plus_masks()]
    minus_cols = [minus_coords(clifford_action(a, SpinorElement.blade(m))) for m in minus_masks()]
    return ExactMatrix.from_columns(plus_cols), ExactMatrix.from_columns(minus_cols)


@lru_cache(maxsize=None)
def gram_N_plus() -> ExactMatrix:
    basis = plus_masks()
    return ExactMatrix.from_rows([[pairing_N(SpinorElement.blade(r), SpinorElement.blade(c))
                                   for c in basis] for r in basis])


@lru_cache(maxsize=None)
def gram_N_minus() -> ExactMatrix:
    basis = minus_masks()
    return ExactMatrix.from_rows([[pairing_N(SpinorElement.blade(r), SpinorElement.blade(c))
                                   for c in basis] for r in basis])
