"""The 16-dimensional spinor module Lambda(W) for the quadratic space C^8 of
``clifford``, with its Clifford action, the half-spin matrices, the top
coefficient functional and the pairings built from it.

W is spanned by w_1..w_4 with w_k = (i e_k + e_{k+4})/2 and w'_k the mirror
isotropic vectors; a spinor is a map from subsets of {1..4} (bitmasks) to
scalars.  ``SpinorElement`` is ``clifford.BladeMap`` on 4-bit masks, so its
linear operations, equality and ``coords`` live there; this module owns the
action, the half-spin labels and the pairings.  Generators act by

    w_k  |-> wedge with w_k,          w'_k |-> the antiderivation d_k,
    e_k = -i (w_k + w'_k),            e_{k+4} = w_k - w'_k,

with d_k normalized by d_k(w_j) = delta_kj; that normalization is pinned by
the module relation lambda(u)lambda(v) + lambda(v)lambda(u) = b_q(u, v).

Each e_k sends a basis blade to a single basis blade (exactly one of the
wedge/contraction summands survives), with coefficient +-1 or +-i, so a
Clifford blade e_A does too: it acts as w_m -> i^k w_(m xor f), where f
flips bit k - 1 for each e_k or e_(k+4) in A.  ``_blade_table`` walks A's
generators once per spinor mask and caches the image mask and k for all
16; ``clifford_action`` then reads one table per blade of its multivector
instead of walking the generators per term (a vector acts as a
multivector).  The pairings meet complementary masks, whose wedge sign is
the blade-product sign read off ``clifford._suffix_parity``.

The half-spin labels: the volume element e1..e8 acts on the even and odd
halves by opposite signs; whichever half it fixes pointwise is labeled plus.
"""

from __future__ import annotations

from collections import defaultdict
from functools import lru_cache

from .exact_field import CycloNum, ExactMatrix, ZERO, ONE, I, _dot
from .clifford import (
    BladeMap, CliffordElement, CliffordError, is_spin, vector,
    _suffix_parity,
)

W_DIM = 4
FULL_MASK = (1 << W_DIM) - 1

EVEN_MASKS: tuple[int, ...] = tuple(m for m in range(16) if m.bit_count() % 2 == 0)
ODD_MASKS: tuple[int, ...] = tuple(m for m in range(16) if m.bit_count() % 2 == 1)


class SpinorElement(BladeMap):
    """Element of Lambda(W); terms map 4-bit masks of w_1..w_4 to coefficients."""

    __slots__ = ()
    BITS = W_DIM
    LETTER = "w"

    @classmethod
    def one(cls) -> "SpinorElement":
        return cls({0: ONE})


@lru_cache(maxsize=None)
def _blade_table(cmask: int) -> tuple[tuple[int, int], ...]:
    """Action of the blade e_A, A = ``cmask``: entry m is (image, k) with
    e_A w_m = i^k w_image.  The generators act rightmost first, e_(j+1)
    (j < 4) as -i (-1)^p and e_(j+5) as (-1)^p, negated on a mask holding
    bit = 1 << j (wedge - contraction); p counts the mask's bits below bit."""
    out = []
    for m in range(16):
        image, k = m, 0
        for i in reversed(range(8)):
            if cmask >> i & 1:
                bit = 1 << (i % 4)
                p = (image & (bit - 1)).bit_count() & 1
                k += 3 + 2 * p if i < 4 else 2 * (p ^ bool(image & bit))
                image ^= bit
        out.append((image, k % 4))
    return tuple(out)


def clifford_action(x: CliffordElement, s: SpinorElement) -> SpinorElement:
    """Module action of a multivector, read off one blade table per term of
    x; each blade maps masks bijectively, so it adds at most one pair to
    each output mask."""
    pairs: defaultdict[int, list] = defaultdict(list)
    s_terms = s.terms.items()
    for cmask, ccoef in x.terms.items():
        table = _blade_table(cmask)
        # k is odd exactly when the blade has an odd number of e_1..e_4
        base = ccoef * I if (cmask & 15).bit_count() & 1 else ccoef
        signed = (base, -base)
        for m, c in s_terms:
            image, k = table[m]
            pairs[image].append((signed[k >> 1], c))
    return SpinorElement._of({m: c for m, p in pairs.items() if (c := _dot(p))})


def vector_action(coords, s: SpinorElement) -> SpinorElement:
    """Action of the vector sum(coords[i] * e_{i+1})."""
    return clifford_action(vector(coords), s)


def top_coefficient(s: SpinorElement) -> CycloNum:
    """Coefficient of the full blade w1^w2^w3^w4."""
    return s.terms.get(FULL_MASK, ZERO)


def _top_pairing(x: SpinorElement, y: SpinorElement, d: int) -> CycloNum:
    """Top coefficient of x' ^ y, x' being x with the sign (-1)^(k(k+d)/2)
    on degree k; only complementary masks meet, and on disjoint masks the
    wedge sign is the blade-product sign."""
    pairs = []
    for ma, ca in x.terms.items():
        mb = FULL_MASK ^ ma
        cb = y.terms.get(mb)
        if cb is None:
            continue
        k = ma.bit_count()
        sg = (mb & _suffix_parity(ma)).bit_count() & 1
        pairs.append((-ca if sg ^ ((k * (k + d) // 2) & 1) else ca, cb))
    return _dot(pairs)


def pairing_N(x: SpinorElement, y: SpinorElement) -> CycloNum:
    """N(x, y) = top coefficient of transpose(x) ^ y, transpose being the
    sign (-1)^(k(k-1)/2) on degree k."""
    return _top_pairing(x, y, -1)


def pairing_Nbar(x: SpinorElement, y: SpinorElement) -> CycloNum:
    """Nbar(x, y) = top coefficient of bar(x) ^ y, bar being the conjugation
    sign (-1)^(k(k+1)/2) on degree k; it equals N(iota(x), y), since
    (-1)^k (-1)^(k(k-1)/2) = (-1)^(k(k+1)/2)."""
    return _top_pairing(x, y, 1)


# -- half-spin labeling -------------------------------------------------------

@lru_cache(maxsize=None)
def _eta_scalars() -> tuple[CycloNum, CycloNum]:
    """Scalars by which e1..e8 acts on the even resp. odd half."""
    eta = CliffordElement.blade((1 << 8) - 1)
    se = clifford_action(eta, SpinorElement.one()).coefficient(0)
    so = clifford_action(eta, SpinorElement.blade(1)).coefficient(1)
    for masks, scalar in ((EVEN_MASKS, se), (ODD_MASKS, so)):
        for m in masks:
            if clifford_action(eta, SpinorElement.blade(m)) != SpinorElement.blade(m, scalar):
                raise ArithmeticError("volume element is not scalar on a half")
    if se * so != -ONE or se * se != ONE:
        raise ArithmeticError("volume element scalars are not opposite signs")
    return se, so


@lru_cache(maxsize=None)
def plus_masks() -> tuple[int, ...]:
    """The half on which the volume element acts by +1."""
    return EVEN_MASKS if _eta_scalars()[0] == ONE else ODD_MASKS


@lru_cache(maxsize=None)
def minus_masks() -> tuple[int, ...]:
    return ODD_MASKS if _eta_scalars()[0] == ONE else EVEN_MASKS


def plus_coords(s: SpinorElement) -> tuple[CycloNum, ...]:
    return s.coords(plus_masks())


def minus_coords(s: SpinorElement) -> tuple[CycloNum, ...]:
    return s.coords(minus_masks())


def half_spin_matrices(a: CliffordElement) -> tuple[ExactMatrix, ExactMatrix]:
    """Matrices of the action of a spin element on the plus and minus halves."""
    if not is_spin(a):
        raise CliffordError("half_spin_matrices needs a spin-group element")
    plus_cols = [plus_coords(clifford_action(a, SpinorElement.blade(m))) for m in plus_masks()]
    minus_cols = [minus_coords(clifford_action(a, SpinorElement.blade(m))) for m in minus_masks()]
    return ExactMatrix.from_columns(plus_cols), ExactMatrix.from_columns(minus_cols)


@lru_cache(maxsize=None)
def _gram_N(masks: tuple[int, ...]) -> ExactMatrix:
    return ExactMatrix.from_rows([[pairing_N(SpinorElement.blade(r), SpinorElement.blade(c))
                                   for c in masks] for r in masks])


def gram_N_plus() -> ExactMatrix:
    return _gram_N(plus_masks())


def gram_N_minus() -> ExactMatrix:
    return _gram_N(minus_masks())
