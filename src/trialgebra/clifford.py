"""Clifford algebra C(V, q) of V = C^8 with q(x) = -(x_1^2 + ... + x_8^2)
over Q(zeta_24), the one quadratic space whose PGSO(8) carries triality.

Basis blades are products of orthogonal basis vectors encoded as bitmasks
(bit i set <=> e_{i+1} present); a multivector is a map from masks to
coefficients with no stored zeros.  Every q(e_i) is -1, so e_i^2 = -1 and
distinct generators anticommute.

``BladeMap`` owns what every such sparse map shares: the mask-range check,
the linear operations, equality, ``repr`` and ``coords`` on a fixed tuple of
masks.  ``CliffordElement`` is the blade map on 8-bit masks and adds only the
Clifford product; ``spinor.SpinorElement`` is the one on 4-bit masks.

A blade product e_A e_B is +-e_{A xor B}, with the sign read from B and
the suffix-parity word of A (``_suffix_parity``).  ``_blade_sums``, the
one pair loop of ``clif_mul`` and the pin test, forms that word once per
left term, groups the term pairs by output mask and sums each group with
``exact_field._dot``, one reduction per output blade; the coefficient is
the canonical form of the sum, so it equals the term-by-term sum exactly.
Kernel results hold checked nonzero terms only, so they skip the
``BladeMap`` check (``BladeMap._of``).

The pin test needs x bar(x) only on output blades of grade 0, 4 and 8.
Bar is an involutive anti-automorphism, so bar(x bar(x)) = x bar(x); bar
is (-1)^(k(k+1)/2) on grade k, i.e. -1 on grades 1, 2, 5 and 6, so those
parts of a bar-fixed element vanish; and for x of one parity x bar(x) is
even, so grades 3 and 7 vanish too.  Hence x bar(x) = 1 exactly when its
grade-0 part is 1 and its grade-4 and grade-8 parts are 0.

``vector_rep`` needs the twisted conjugation v -> iota(x) v bar(x) only
on V.  For each basis vector e_i, left = iota(x) e_i is a signed mask map:
iota(e_A) e_i = (-1)^(|A|) e_A e_i, whose sign is (-1)^m for m the number
of indices of A below i.  Then only the grade-1 part y_i of left bar(x)
is formed: a left blade A meets just the right blades A xor e_j, one bit
away, and the term lands on e_j, so each coordinate of y_i is one
``_dot``.  Dropping the other grades is exact only when they are zero, so
y_i is kept only if y_i x = left.  Given x bar(x) = 1 (hence also
bar(x) x = 1), that identity holds exactly when left bar(x) = y_i: if it
holds, left bar(x) = y_i x bar(x) = y_i; if left bar(x) = y_i, then
y_i x = left bar(x) x = left.  So the verdict is the one the full products
would give, at about 8|x| products per column instead of |x|^2.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .exact_field import CycloNum, ExactMatrix, ZERO, ONE, _dot, add_term, as_cyclo, cos_sin_pi

DIM = 8
MINUS_ONE = -ONE
VECTOR_MASKS: tuple[int, ...] = tuple(1 << i for i in range(DIM))
# the output blades of grades 0, 4 and 8, the only ones the pin test reads
_NORM_MASKS = frozenset(m for m in range(1 << DIM) if m.bit_count() % 4 == 0)


class CliffordError(ValueError):
    pass


def _suffix_parity(a: int) -> int:
    """The word w whose bit j is the parity of A's bits at j and above, for
    a mask A below 2^8; e_A e_B = (-1)^popcount(B & w) e_(A xor B).

    Moving each e_j of B left past the factors of A above j takes
    popcount(A >> (j + 1)) transpositions, and e_j e_j = -1 adds one more
    when j is in A, so the sign is (-1)^s with s = sum over j in B of
    popcount(A >> j).  Mod 2, popcount(A >> j) is bit j of w, so
    s = popcount(B & w) mod 2."""
    w = a ^ a >> 1
    w ^= w >> 2
    return w ^ w >> 4


class BladeMap:
    """Sparse map from blade masks below 2^BITS to nonzero coefficients, the
    linear structure that multivectors and spinors share; LETTER names the
    generators in ``repr``.  Only maps of one subclass compare equal."""

    __slots__ = ("terms",)
    BITS = DIM
    LETTER = "e"

    def __init__(self, terms: Mapping[int, CycloNum]):
        limit = 1 << self.BITS
        clean: dict[int, CycloNum] = {}
        for mask, c in terms.items():
            if mask >= limit or mask < 0:
                raise CliffordError(f"blade mask {mask:#b} outside the algebra")
            c = as_cyclo(c)
            if c:
                clean[mask] = c
        self.terms = clean

    # -- constructors --------------------------------------------------------

    @classmethod
    def _of(cls, terms: dict[int, CycloNum]):
        """The map on ``terms`` as given, without the check: for kernels whose
        terms are already nonzero CycloNums on masks in range."""
        out = object.__new__(cls)
        out.terms = terms
        return out

    @classmethod
    def scalar(cls, value):
        return cls({0: value})

    @classmethod
    def blade(cls, mask: int, coeff=1):
        return cls({mask: coeff})

    # -- structure -----------------------------------------------------------

    def parity(self) -> int | None:
        """0 for even, 1 for odd, None if not homogeneous in parity."""
        ps = {m.bit_count() & 1 for m in self.terms}
        if len(ps) > 1:
            return None
        return ps.pop() if ps else 0

    def coefficient(self, mask: int) -> CycloNum:
        return self.terms.get(mask, ZERO)

    def coords(self, masks: Sequence[int]) -> tuple[CycloNum, ...]:
        """Coefficients on ``masks`` in order; raises if a term lies elsewhere."""
        stray = self.terms.keys() - masks
        if stray:
            raise CliffordError(f"components outside the requested blades: {sorted(stray)}")
        return tuple(self.terms.get(m, ZERO) for m in masks)

    # -- linear ops ----------------------------------------------------------

    def __add__(self, other):
        out = dict(self.terms)
        for m, c in other.terms.items():
            add_term(out, m, c)
        return type(self)(out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self._of({m: -c for m, c in self.terms.items()})

    def scale(self, s):
        s = as_cyclo(s)
        return type(self)({m: s * c for m, c in self.terms.items()})

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self):
        name = type(self).__name__
        if not self.terms:
            return f"{name}(0)"
        bits = []
        for m in sorted(self.terms):
            blade = "1" if m == 0 else self.LETTER + "".join(
                str(i + 1) for i in range(self.BITS) if m >> i & 1)
            bits.append(f"{self.terms[m]!r}*{blade}")
        return f"{name}(" + " + ".join(bits) + ")"


class CliffordElement(BladeMap):
    """Sparse multivector of C(C^8) on 8-bit blade masks."""

    __slots__ = ()


def basis_vector(i: int) -> CliffordElement:
    """e_i for 1-based i."""
    if not (1 <= i <= DIM):
        raise CliffordError(f"e_{i} outside dimension {DIM}")
    return CliffordElement.blade(1 << (i - 1))


def vector(coords: Iterable) -> CliffordElement:
    return CliffordElement({1 << i: c for i, c in enumerate(coords)})


def _blade_sums(x: dict[int, CycloNum], y: dict[int, CycloNum],
                keep: frozenset | None = None) -> dict[int, CycloNum]:
    """The nonzero terms of the product of the blade maps x and y on the
    output masks in ``keep`` (all of them if None), each one ``_dot``."""
    pairs: defaultdict[int, list] = defaultdict(list)
    y_terms = y.items()
    for ma, ca in x.items():
        w, nca = _suffix_parity(ma), -ca
        for mb, cb in y_terms:
            m = ma ^ mb
            if keep is None or m in keep:
                pairs[m].append((nca if (mb & w).bit_count() & 1 else ca, cb))
    return {m: c for m, p in pairs.items() if (c := _dot(p))}


def clif_mul(x: CliffordElement, y: CliffordElement) -> CliffordElement:
    return CliffordElement._of(_blade_sums(x.terms, y.terms))


def grade_involution(x: BladeMap) -> BladeMap:
    """Sign (-1)^k on grade k, for multivectors and spinors alike."""
    return x._of({m: -c if m.bit_count() & 1 else c for m, c in x.terms.items()})


def transpose(x: BladeMap) -> BladeMap:
    """Blade reversal: sign (-1)^(k(k-1)/2) on grade k, for multivectors and
    spinors alike."""
    out = {}
    for m, c in x.terms.items():
        k = m.bit_count()
        out[m] = -c if (k * (k - 1) // 2) & 1 else c
    return x._of(out)


def bar(x: CliffordElement) -> CliffordElement:
    """Clifford conjugation: grade involution followed by reversal."""
    return transpose(grade_involution(x))


def _conjugation_columns(x: CliffordElement) -> list[tuple[CycloNum, ...]] | None:
    """Coordinates of iota(x) e_i bar(x) for each e_i, or None when x is not
    a pin element.

    x bar(x) = 1 is tested on grades 0, 4 and 8 only; then only the grade-1
    part y_i of (iota(x) e_i) bar(x) is formed, and y_i x = iota(x) e_i is
    checked exactly (the module docstring proves both exact)."""
    if x.parity() is None or not x.terms:
        return None
    right = bar(x).terms
    if _blade_sums(x.terms, right, _NORM_MASKS) != {0: ONE}:
        return None
    columns = []
    for bit in VECTOR_MASKS:
        below = bit - 1
        left = {ma ^ bit: -ca if (ma & below).bit_count() & 1 else ca
                for ma, ca in x.terms.items()}
        pairs = [[] for _ in range(DIM)]
        for ma, ca in left.items():
            w, nca = _suffix_parity(ma), -ca
            for j, mj in enumerate(VECTOR_MASKS):
                mb = ma ^ mj
                cb = right.get(mb)
                if cb is not None:
                    pairs[j].append((nca if (mb & w).bit_count() & 1 else ca, cb))
        y = [_dot(p) for p in pairs]
        if _blade_sums({m: c for m, c in zip(VECTOR_MASKS, y) if c}, x.terms) != left:
            return None
        columns.append(tuple(y))
    return columns


def is_pin(x: CliffordElement) -> bool:
    """Homogeneous parity, x bar(x) = 1, and twisted conjugation maps V to V."""
    return _conjugation_columns(x) is not None


def is_spin(x: CliffordElement) -> bool:
    return x.parity() == 0 and is_pin(x)


def vector_rep(x: CliffordElement) -> ExactMatrix:
    """Matrix of v -> iota(x) v bar(x) on e_1..e_n; requires a pin element.

    Column i is the grade-1 part y_i of iota(x) e_i bar(x), formed without
    the rest of that product.  It is returned only after the exact check
    y_i x = iota(x) e_i, which holds exactly when the whole product is the
    vector y_i; otherwise x is not a pin element and this raises."""
    columns = _conjugation_columns(x)
    if columns is None:
        raise CliffordError("vector_rep needs a pin-group element")
    return ExactMatrix.from_columns(columns)


def gram_matrix() -> ExactMatrix:
    """Gram matrix of the half-polarized form: diag(q(e_i)), minus the identity."""
    return ExactMatrix.diagonal([MINUS_ONE] * DIM)


def is_q_orthogonal(m: ExactMatrix) -> bool:
    g = gram_matrix()
    return m.transpose() @ g @ m == g


def bivector_exp(terms: Iterable[tuple[Fraction, int]]) -> CliffordElement:
    """Product of exp(theta_k * B_k) = cos(theta_k) + sin(theta_k) B_k over
    pairwise commuting 2-blades B_k (each squares to -1); angles are given as
    exact rational multiples of pi."""
    terms = list(terms)
    blades = [m for _, m in terms]
    for m in blades:
        if m.bit_count() != 2:
            raise CliffordError(f"{m:#b} is not a 2-blade")
    for idx, m1 in enumerate(blades):
        for m2 in blades[idx + 1:]:
            b1, b2 = CliffordElement.blade(m1), CliffordElement.blade(m2)
            if clif_mul(b1, b2) != clif_mul(b2, b1):
                raise CliffordError(f"blades {m1:#b} and {m2:#b} do not commute")
    out = CliffordElement.scalar(1)
    for angle, m in terms:
        cos, sin = cos_sin_pi(angle)
        factor = CliffordElement({0: cos, m: sin})
        out = clif_mul(out, factor)
    if not is_spin(out):
        raise CliffordError("exponential left the spin group; bad input blades")
    return out


def center_elements() -> tuple[CliffordElement, dict[str, bool]]:
    """The volume element eta = e1...e8 with its commutation checks: central
    in the even part, anticommutes with vectors, and squares to +1 (computed,
    not assumed)."""
    eta = CliffordElement.blade((1 << DIM) - 1)
    even_ok = all(
        clif_mul(eta, CliffordElement.blade(m)) ==
        clif_mul(CliffordElement.blade(m), eta)
        for m in range(1 << DIM) if m.bit_count() % 2 == 0)
    vec_ok = all(
        clif_mul(eta, basis_vector(i)) + clif_mul(basis_vector(i), eta) ==
        CliffordElement.scalar(0)
        for i in range(1, DIM + 1))
    checks = {
        "commutes_with_even_blades": even_ok,
        "anticommutes_with_vectors": vec_ok,
        "square_is_plus_one": clif_mul(eta, eta) == CliffordElement.scalar(1),
    }
    return eta, checks
