"""The rank-2 exceptional root system, its Weyl group as exact 2x2 integer
matrices on the root lattice, the regular-element determinant tables feeding
the discrete-part coefficients, and small Cartan-matrix utilities.

Coordinates are taken in the basis (alpha, beta) with alpha short and beta
long; both simple reflections then act by integer matrices, so every value
in this module is an int or a Fraction.  Cartan determinants go through the
exact elimination of ``exact_field``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .exact_field import ExactMatrix

Mat2 = tuple[tuple[int, int], tuple[int, int]]


class RootSystemError(ValueError):
    pass


@dataclass(frozen=True)
class WeylElement:
    mat: Mat2

    def __matmul__(self, other: "WeylElement") -> "WeylElement":
        a, b = self.mat, other.mat
        return WeylElement(tuple(
            tuple(sum(a[i][k] * b[k][j] for k in range(2)) for j in range(2))
            for i in range(2)))  # type: ignore[arg-type]

    def apply(self, v: tuple[int, int]) -> tuple[int, int]:
        return (self.mat[0][0] * v[0] + self.mat[0][1] * v[1],
                self.mat[1][0] * v[0] + self.mat[1][1] * v[1])

    def det(self) -> int:
        (a, b), (c, d) = self.mat
        return a * d - b * c

    def det_minus_one(self) -> int:
        a = ((self.mat[0][0] - 1, self.mat[0][1]),
             (self.mat[1][0], self.mat[1][1] - 1))
        return a[0][0] * a[1][1] - a[0][1] * a[1][0]

    def is_identity(self) -> bool:
        return self.mat == ((1, 0), (0, 1))


IDENTITY = WeylElement(((1, 0), (0, 1)))

# simple reflections in (alpha, beta) coordinates
S_ALPHA = WeylElement(((-1, 3), (0, 1)))
S_BETA = WeylElement(((1, 0), (1, -1)))

SIMPLE_ALPHA = (1, 0)
SIMPLE_BETA = (0, 1)

POSITIVE_ROOTS: tuple[tuple[int, int], ...] = (
    (1, 0), (0, 1), (1, 1), (2, 1), (3, 1), (3, 2))

# Gram matrix of the invariant inner product: |alpha|^2 = 2, |beta|^2 = 6,
# (alpha, beta) = -3 (long/short length ratio squared is 3).
GRAM = ((2, -3), (-3, 6))

# Modulus characters of the two maximal parabolics, |det|^3 and |det|^5;
# recorded constants only, nothing downstream consumes them.
MODULUS_CHARACTER_EXPONENTS = {"short_levi": 3, "long_levi": 5}


def all_roots() -> tuple[tuple[int, int], ...]:
    return POSITIVE_ROOTS + tuple((-a, -b) for a, b in POSITIVE_ROOTS)


# the order of G2's Weyl group, the largest finite Weyl group of rank 2
_MAX_ORDER = 12


@lru_cache(maxsize=None)
def _length_layers() -> tuple[tuple[WeylElement, ...], ...]:
    """Closure of the two simple reflections, breadth first from the
    identity: layer l holds the elements of length l, since the walk first
    reaches an element at the length of its shortest word.  Raises unless
    both generators square to the identity, and once the closure passes
    _MAX_ORDER elements, so it ends on any input."""
    for g in (S_ALPHA, S_BETA):
        if not (g @ g).is_identity():
            raise RootSystemError(f"simple reflection {g.mat} does not square to the identity")
    seen = {IDENTITY.mat}
    layers = [(IDENTITY,)]
    while True:
        nxt = []
        for w in layers[-1]:
            for g in (S_ALPHA, S_BETA):
                c = g @ w
                if c.mat not in seen:
                    seen.add(c.mat)
                    nxt.append(c)
        if not nxt:
            return tuple(layers)
        if len(seen) > _MAX_ORDER:
            raise RootSystemError(
                f"the closure of the simple reflections passed {_MAX_ORDER} elements, "
                "the order of G2's Weyl group, the largest of rank 2")
        layers.append(tuple(nxt))


@lru_cache(maxsize=None)
def weyl_group() -> tuple[WeylElement, ...]:
    """Closure of the two simple reflections; 12 elements, sorted for
    deterministic output."""
    out = sorted((w for layer in _length_layers() for w in layer), key=lambda w: w.mat)
    roots = set(all_roots())
    for w in out:
        if {w.apply(r) for r in roots} != roots:
            raise RootSystemError("Weyl element does not preserve the root set")
    return tuple(out)


def preserves_gram(w: WeylElement) -> bool:
    g = GRAM
    m = w.mat
    for i in range(2):
        for j in range(2):
            val = sum(m[a][i] * g[a][b] * m[b][j] for a in range(2) for b in range(2))
            if val != g[i][j]:
                return False
    return True


def regular_elements() -> list[tuple[WeylElement, int]]:
    """Pairs (w, |det(w - 1)|) over the elements acting without fixed vectors
    on the rank-2 torus: the five nontrivial rotations; reflections have
    eigenvalue 1 and drop out."""
    out = []
    for w in weyl_group():
        d = w.det_minus_one()
        if d != 0:
            out.append((w, abs(d)))
    return out


def regular_det_multiset() -> list[int]:
    return sorted(d for _, d in regular_elements())


def regular_inverse_sum() -> Fraction:
    return sum((Fraction(1, d) for _, d in regular_elements()), Fraction(0))


_LEVI_COEFFICIENTS = {
    # |W of the Levi| / |W of the full group|
    "GL2_short": Fraction(2, 12),
    "GL2_long": Fraction(2, 12),
    "T": Fraction(1, 12),
    # the twisted Levi GL(2) inside the rank-4 twisted setup; configured from
    # the published display rather than re-derived
    "GL2_twisted": Fraction(1, 6),
}


def levi_coefficient(levi: str) -> Fraction:
    try:
        return _LEVI_COEFFICIENTS[levi]
    except KeyError:
        raise RootSystemError(
            f"unknown Levi {levi!r}; choose from {sorted(_LEVI_COEFFICIENTS)}") from None


def gl2_levi_regular() -> tuple[str, int]:
    """The relative Weyl group of either GL(2) Levi is {1, w} with w acting
    by -1 on the 1-dimensional split component; only w is regular and
    |det(w - 1)| = |-1 - 1| = 2."""
    return ("w", abs(-1 - 1))


def gl2_term_prefactor() -> Fraction:
    _, d = gl2_levi_regular()
    return levi_coefficient("GL2_short") * Fraction(1, d)


_CARTAN_MATRICES: dict[str, tuple[tuple[int, ...], ...]] = {
    "A2": ((2, -1), (-1, 2)),
    "G2": ((2, -1), (-3, 2)),
    # node order: center, then the three outer nodes
    "D4": ((2, -1, -1, -1), (-1, 2, 0, 0), (-1, 0, 2, 0), (-1, 0, 0, 2)),
}


def cartan_matrix(kind: str) -> tuple[tuple[int, ...], ...]:
    try:
        return _CARTAN_MATRICES[kind]
    except KeyError:
        raise RootSystemError(
            f"unknown Cartan type {kind!r}; choose from {sorted(_CARTAN_MATRICES)}") from None


def cartan_determinant(kind: str) -> int:
    return int(ExactMatrix.from_rows(cartan_matrix(kind)).det().rational_value())


def simple_reflection_permutes_other_positives() -> bool:
    """Each simple reflection permutes the positive roots other than its own
    simple root (and negates that one)."""
    for refl, simple in ((S_ALPHA, SIMPLE_ALPHA), (S_BETA, SIMPLE_BETA)):
        others = [r for r in POSITIVE_ROOTS if r != simple]
        image = {refl.apply(r) for r in others}
        if image != set(others):
            return False
        if refl.apply(simple) != (-simple[0], -simple[1]):
            return False
    return True


def longest_element() -> WeylElement:
    """The unique element of greatest length in S_ALPHA and S_BETA, the last
    layer of ``_length_layers``; whether it is -1 is for the caller to test."""
    top = _length_layers()[-1]
    if len(top) != 1:
        raise RootSystemError("no unique element of greatest length")
    return top[0]


def det_conjugation_invariant() -> bool:
    group = weyl_group()
    for w in group:
        d = abs(w.det_minus_one())
        for g in group:
            gm = g.mat
            det_g = g.det()
            inv = ((gm[1][1] * det_g, -gm[0][1] * det_g),
                   (-gm[1][0] * det_g, gm[0][0] * det_g))
            conj = g @ w @ WeylElement(inv)
            if abs(conj.det_minus_one()) != d:
                return False
    return True
