"""Trialities as data, the spinor-model triality of the quadratic space
C^8, the order-3 automorphism built from the two involutions iota_1 and
iota_2, and its linearization on the 28-dimensional space of bivectors.

A ``TrialityMap`` is a permutation-tagged triple of exact 8x8 matrices
(A_1, A_2, A_3) with A_i mapping the i-th space of the triality to the
perm(i)-th one; the trilinear form must be preserved after the permutation
bookkeeping.

The order-3 map is built from one fixed pair of units, ``default_v1()`` =
i e_1 and the half-spin unit ``default_x1()``.  Its linearization on
bivectors, the cached ``default_dtheta``, never needs the group map itself:
the first-slot component of the conjugated triple is the skew 8x8 matrix by
which a unique bivector acts on V = C^8, and so(8) = wedge^2 V is read off
such a matrix entry by entry (Fulton & Harris, *Representation Theory*,
section 20.1).  Order 3, bracket preservation, and the 14-dimensional fixed
subalgebra are verified downstream, not assumed.  The bracket of bivectors
is the product of ``so8()``, so(8) as a ``lie_tools.AlgebraSpec``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Callable, Sequence

from .exact_field import (
    CycloNum, ExactMatrix, Row, ZERO, ONE, TWO, HALF, I, SQRT2, _dot, null_space, rref, vec_dot,
)
from .clifford import (
    CliffordElement, clif_mul, vector_rep,
    gram_matrix, CliffordError, _conjugation_columns,
)
from .lie_tools import AlgebraSpec, commutator_spec
from .spinor import (
    SpinorElement, clifford_action, vector_action, pairing_N,
    half_spin_matrices, plus_masks, minus_masks, plus_coords, minus_coords,
    gram_N_plus, gram_N_minus,
)

N_BIVECTORS = 28


class TrialityError(ValueError):
    pass


# ---------------------------------------------------------------------------
# triality data and maps
# ---------------------------------------------------------------------------

SparseTensor = dict[tuple[int, int, int], CycloNum]


@dataclass(frozen=True)
class TrialityData:
    """Three 8x8 Gram matrices and the trilinear form of t3 : V1 x V2 -> V3,
    T(b_i, b_j, b_k) = q3(t3(b_i, b_j), b_k), as a sparse tensor."""
    forms: tuple[ExactMatrix, ExactMatrix, ExactMatrix]
    trilinear: SparseTensor

    def __post_init__(self):
        if any((g.rows, g.cols) != (8, 8) for g in self.forms):
            raise TrialityError("triality data is only built in dimension 8")


@dataclass(frozen=True)
class TrialityMap:
    """perm maps slot i to slot perm[i] (0-based); mats[i] : V_{i} -> V_{perm[i]}."""
    perm: tuple[int, int, int]
    mats: tuple[ExactMatrix, ExactMatrix, ExactMatrix]

    def is_identity(self) -> bool:
        return self.perm == (0, 1, 2) and all(m == ExactMatrix.identity(m.rows)
                                              for m in self.mats)


def compose(f: TrialityMap, g: TrialityMap) -> TrialityMap:
    """f after g."""
    perm = tuple(f.perm[g.perm[i]] for i in range(3))
    mats = tuple(f.mats[g.perm[i]] @ g.mats[i] for i in range(3))
    return TrialityMap(perm, mats)  # type: ignore[arg-type]


def _contract_axis(t: SparseTensor, m: ExactMatrix, axis: int) -> SparseTensor:
    """Replace basis index j on the given axis by sum_j t[..j..] * m[j][new].

    The pairs (t[..j..], m[j][new]) are grouped by output key and each group
    is summed by one ``_dot``; an exactly zero sum is not stored."""
    groups: dict[tuple[int, int, int], list] = {}
    for key, c in t.items():
        j = key[axis]
        for new in range(8):
            e = m.get(j, new)
            if not e:
                continue
            nk = list(key)
            nk[axis] = new
            groups.setdefault(tuple(nk), []).append((c, e))
    return {key: s for key, pairs in groups.items() if (s := _dot(pairs))}


def preserves_trilinear(data: TrialityData, tmap: TrialityMap) -> bool:
    """T(u_1, u_2, u_3) = T(v_1, v_2, v_3) whenever u_{perm(i)} = A_i(v_i)."""
    t = data.trilinear
    inv = [0, 0, 0]
    for i, p in enumerate(tmap.perm):
        inv[p] = i
    s = t
    for axis in range(3):
        s = _contract_axis(s, tmap.mats[inv[axis]], axis)
    # s indexed by (l1,l2,l3) where l_{perm(i)} carries v_i; compare to T permuted
    want: SparseTensor = {}
    for (k1, k2, k3), c in t.items():
        ks = (k1, k2, k3)
        l = [0, 0, 0]
        for i in range(3):
            l[tmap.perm[i]] = ks[i]
        want[tuple(l)] = c
    return s == want


def is_isometry_triple(data: TrialityData, tmap: TrialityMap) -> bool:
    for i in range(3):
        g_src = data.forms[i]
        g_dst = data.forms[tmap.perm[i]]
        a = tmap.mats[i]
        if a.transpose() @ g_dst @ a != g_src:
            return False
    return True


def validate_triality_map(data: TrialityData, tmap: TrialityMap) -> bool:
    return is_isometry_triple(data, tmap) and preserves_trilinear(data, tmap)


# ---------------------------------------------------------------------------
# the spinor-model triality (C^8, S+, S-)
# ---------------------------------------------------------------------------

Vec8 = tuple[CycloNum, ...]


UNIT_VECTORS: tuple[Vec8, ...] = tuple(ExactMatrix.identity(8).column(p) for p in range(8))


def _matrix_of(fn: Callable, inputs) -> ExactMatrix:
    """The matrix whose columns are fn(u) for u in inputs."""
    return ExactMatrix.from_columns([fn(u) for u in inputs])


def _blades(masks: tuple[int, ...]) -> list[SpinorElement]:
    return [SpinorElement.blade(m) for m in masks]


def q_vec(u: Vec8, v: Vec8) -> CycloNum:
    """Half-polarized bilinear form of q(x) = -sum x_i^2."""
    return -vec_dot(u, v)


@lru_cache(maxsize=None)
def spinor_model() -> TrialityData:
    g1 = gram_matrix()  # diag(-1)
    g2 = gram_N_plus()
    g3 = gram_N_minus()
    trilinear = {(i, j, k): c
                 for i, e in enumerate(UNIT_VECTORS)
                 for j, b in enumerate(_blades(plus_masks()))
                 for k, c in enumerate(g3.mat_vec(minus_coords(vector_action(e, b)))) if c}
    return TrialityData((g1, g2, g3), trilinear)


def t1_product(x: SpinorElement, y: SpinorElement) -> Vec8:
    """The C^8-valued product S+ x S- -> C^8, recovered from
    q(e_p, t1(x,y)) = N(e_p . x, y); with q = -sum coordinates this reads
    t1_p = -N(e_p . x, y)."""
    return tuple(-pairing_N(vector_action(e, x), y) for e in UNIT_VECTORS)


def slot_product(i: int, a, k: int, b):
    """Product V_i x V_k -> V_j for the spinor model, slots in {1, 2, 3}.
    The Clifford action of a vector maps each half-spin space to the other,
    so ``vector_action`` is both V1 x V2 -> V3 and V1 x V3 -> V2."""
    pair = {i, k}
    if pair in ({1, 2}, {1, 3}):
        v, s = (a, b) if i == 1 else (b, a)
        return vector_action(v, s)
    if pair == {2, 3}:
        x, y = (a, b) if i == 2 else (b, a)
        return t1_product(x, y)
    raise TrialityError(f"no product between slots {i} and {k}")


def slot_norm(i: int, a) -> CycloNum:
    if i == 1:
        return q_vec(a, a)
    return pairing_N(a, a)


# ---------------------------------------------------------------------------
# involutions and the order-3 map
# ---------------------------------------------------------------------------

def default_v1() -> Vec8:
    """i * e_1, which has q = 1."""
    return (I,) + (ZERO,) * 7


def default_x1() -> SpinorElement:
    """(1 + w1^w2^w3^w4)/sqrt2 inside S+, the even half (unit for the pairing)."""
    return SpinorElement({0: ONE, 15: ONE}).scale(SQRT2.inv())


def make_iota(k: int) -> TrialityMap:
    """The two involutive triality maps: k = 1 swaps the spinor slots through
    the unit vector v1 = ``default_v1()``, k = 2 swaps the vector slot with S-
    through the unit spinor x1 = ``default_x1()``.  ``theta_prime`` and
    ``default_dtheta`` use only these two fixed units, checked here."""
    v1, x1 = default_v1(), default_x1()
    if q_vec(v1, v1) != ONE:
        raise TrialityError("v1 must satisfy q(v1) = 1")
    if pairing_N(x1, x1) != ONE:
        raise TrialityError("x1 must be a unit spinor")
    if k == 1:
        def reflect(v: Vec8) -> Vec8:
            f = TWO * q_vec(v1, v)
            return tuple(-(vi - f * wi) for vi, wi in zip(v, v1))  # -R_{v1}
        a1 = _matrix_of(reflect, UNIT_VECTORS)
        a2 = _matrix_of(lambda s: minus_coords(vector_action(v1, s)), _blades(plus_masks()))
        a3 = _matrix_of(lambda s: plus_coords(vector_action(v1, s)), _blades(minus_masks()))
        return TrialityMap((0, 2, 1), (a1, a2, a3))
    if k == 2:
        def reflect_s(s: SpinorElement) -> SpinorElement:
            return -(s - x1.scale(TWO * pairing_N(x1, s)))  # -R_{x1}
        a1 = _matrix_of(lambda v: minus_coords(vector_action(v, x1)), UNIT_VECTORS)
        a2 = _matrix_of(lambda s: plus_coords(reflect_s(s)), _blades(plus_masks()))
        a3 = _matrix_of(lambda s: t1_product(x1, s), _blades(minus_masks()))
        return TrialityMap((2, 1, 0), (a1, a2, a3))
    raise TrialityError("k must be 1 or 2")


def theta_prime() -> TrialityMap:
    """iota_2 after iota_1; cyclic of order three."""
    return compose(make_iota(2), make_iota(1))


def theta_prime_display() -> TrialityMap:
    """The same map assembled from its closed-form slot expressions
    (x1(v1 x), y1(x1 y), v1(y1 v)); used to cross-check the composition."""
    v1, x1 = default_v1(), default_x1()
    y1 = vector_action(v1, x1)
    to_slot3 = _matrix_of(lambda v: minus_coords(vector_action(v1, vector_action(v, y1))),
                          UNIT_VECTORS)
    to_slot1 = _matrix_of(lambda s: t1_product(x1, vector_action(v1, s)),
                          _blades(plus_masks()))
    to_slot2 = _matrix_of(lambda s: plus_coords(vector_action(t1_product(x1, s), y1)),
                          _blades(minus_masks()))
    return TrialityMap((2, 0, 1), (to_slot3, to_slot1, to_slot2))


def spin_to_triple(a: CliffordElement) -> TrialityMap:
    """(vector_rep, half-spin plus, half-spin minus) of a spin element, with
    the trilinear-form validator run on the result; ``half_spin_matrices``
    raises CliffordError when a is not a spin element."""
    plus, minus = half_spin_matrices(a)
    tmap = TrialityMap((0, 1, 2), (vector_rep(a), plus, minus))
    if not validate_triality_map(spinor_model(), tmap):
        raise TrialityError("triple of a spin element failed the trilinear validator")
    return tmap


# ---------------------------------------------------------------------------
# bivectors, brackets, and the linearized automorphism
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def bivector_masks() -> tuple[int, ...]:
    return tuple(m for m in range(256) if m.bit_count() == 2)


@lru_cache(maxsize=None)
def _bivector_pairs() -> tuple[tuple[int, int], ...]:
    """The 0-based indices (k, l), k < l, of the blade e_{k+1} e_{l+1} behind
    each coordinate, in ``bivector_masks`` order."""
    return tuple(tuple(i for i in range(8) if m >> i & 1) for m in bivector_masks())


def bivector_coords(x: CliffordElement) -> tuple[CycloNum, ...]:
    try:
        return x.coords(bivector_masks())
    except CliffordError as err:
        raise TrialityError(f"element is not a bivector: {err}") from err


@lru_cache(maxsize=None)
def so8() -> AlgebraSpec:
    """so(8) on the bivector basis, [B_k, B_l] as a product.  Each pair k < l
    is multiplied out once, and [B_l, B_k] is taken as -[B_k, B_l], which is
    the commutator's definition."""
    blades = [CliffordElement.blade(m) for m in bivector_masks()]
    return commutator_spec(N_BIVECTORS, {
        (k, l): bivector_coords(clif_mul(blades[k], blades[l]) - clif_mul(blades[l], blades[k]))
        for k, l in combinations(range(N_BIVECTORS), 2)})


def bracket_coords(u: Sequence[CycloNum], v: Sequence[CycloNum]) -> tuple[CycloNum, ...]:
    """[u, v] in bivector coordinates, the ``so8`` product."""
    return so8().product_coords(u, v)


def drho_vector(coords: Sequence[CycloNum]) -> ExactMatrix:
    """Standard-representation derivative v -> b v - v b of the bivector b
    with these coordinates, a skew matrix: as e_k^2 = -1, the blade e_k e_l
    sends e_l to -2 e_k and e_k to 2 e_l."""
    m = [[ZERO] * 8 for _ in range(8)]
    for (k, l), c in zip(_bivector_pairs(), coords):
        m[l][k] = TWO * c
        m[k][l] = -m[l][k]
    return ExactMatrix.from_rows(m)


def drho_plus(b: CliffordElement) -> ExactMatrix:
    return _matrix_of(lambda s: plus_coords(clifford_action(b, s)), _blades(plus_masks()))


@lru_cache(maxsize=None)
def default_dtheta() -> ExactMatrix:
    """28x28 matrix of the linearized order-3 automorphism on bivectors.

    For each basis bivector B, the half-spin derivative conjugated by the
    slot-2 component of theta' is the standard-representation derivative of
    the image bivector: a skew matrix m, whose coordinate on e_k e_l is
    m[l][k] / 2 (``drho_vector``).  The 28 blade matrices span all skew
    matrices, so skewness is the whole test that m is such a derivative.
    """
    th = theta_prime()
    if th.perm != (2, 0, 1):
        raise TrialityError("theta' does not realize the expected 3-cycle")
    theta2 = th.mats[1]  # V2 -> V1
    theta2_inv = theta2.inverse()
    cols = []
    for mk in bivector_masks():
        m = theta2 @ drho_plus(CliffordElement.blade(mk)) @ theta2_inv
        if m.transpose() != -m:
            raise TrialityError("conjugated derivative left the image of drho; "
                                "the identification is broken")
        cols.append([HALF * m.get(l, k) for k, l in _bivector_pairs()])
    return ExactMatrix.from_columns(cols)


@lru_cache(maxsize=None)
def default_fixed_subalgebra() -> tuple[int, list[tuple[CycloNum, ...]]]:
    """``fixed_subalgebra`` of ``default_dtheta``, which must cube to 1."""
    return fixed_subalgebra(default_dtheta(), require_order_3=True)


def _quotient_action(constraints: dict[int, Row], auto: ExactMatrix) -> ExactMatrix:
    """The k x k matrix N with R auto = N R, for the k rows R of the ``rref``
    basis of auto - 1, in the basis's key order.  R is the identity at its pivot
    columns, so row i of N is row i of R auto at those columns; only those k
    columns of R auto are formed, each entry as one ``_dot`` over the
    support of a row of R."""
    pivots = list(constraints)
    return ExactMatrix.from_rows([
        [_dot([(c, auto.get(col, p)) for col, c in row.items()]) for p in pivots]
        for row in constraints.values()])


def _order_divides_3(constraints: dict[int, Row], auto: ExactMatrix) -> bool:
    """Whether auto^3 = 1, given the ``rref`` rows R of auto - 1: whether
    N^2 + N + 1 = 0 for N = ``_quotient_action(constraints, auto)``."""
    n = _quotient_action(constraints, auto)
    k = n.rows
    return n @ n + n + ExactMatrix.identity(k) == ExactMatrix.zero(k, k)


def fixed_subalgebra(auto: ExactMatrix,
                     require_order_3: bool = False) -> tuple[int, list[tuple[CycloNum, ...]]]:
    """Kernel of (auto - 1) on bivector coordinates, with a bracket-closure
    check.  Pass require_order_3 for maps that are expected to cube to the
    identity (the linearized automorphism itself does; its composition with a
    conjugation generally does not, though its fixed space is still a
    subalgebra).  A map that cubes to 1 is invertible, so only the other
    path tests the rank.  One elimination gives the k constraint rows R of
    ker(auto - 1) = span(basis), and each [u, v] of basis vectors u before v
    is tested as R [u, v] = 0 ([u, u] = 0 in ``so8``).

    The order test runs on the quotient by the fixed space.  R spans the
    rows of auto - 1, and (auto - 1) auto = auto (auto - 1), so every row of
    R auto lies in that span: R auto = N R for one k x k matrix N
    (``_quotient_action``), the operator auto induces on the quotient of the
    bivectors by ker(auto - 1).  Write auto - 1 = C R; as the rank of auto - 1 is
    k, C (28 x k) has independent columns and R independent rows.  Then
    auto^3 - 1 = (auto - 1)(auto^2 + auto + 1) = C (N^2 + N + 1) R, since
    R auto^2 = N R auto = N^2 R, and C X R = 0 only for X = 0.  So auto^3 = 1
    exactly when N^2 + N + 1 = 0, a test with one k x k product (k = 0 for
    the identity, whose empty N passes)."""
    if (auto.rows, auto.cols) != (N_BIVECTORS, N_BIVECTORS):
        raise TrialityError("expected a 28x28 matrix")
    constraints = rref((auto - ExactMatrix.identity(N_BIVECTORS)).sparse_rows())
    if require_order_3:
        # auto^3 = 1 makes auto^2 the inverse of auto, so no rank test is needed
        if not _order_divides_3(constraints, auto):
            raise TrialityError("automorphism is not of order dividing 3")
    elif auto.rank() != N_BIVECTORS:
        raise TrialityError("automorphism matrix is singular")
    basis = null_space(constraints, N_BIVECTORS)
    for i, u in enumerate(basis):
        for v in basis[i + 1:]:
            w = bracket_coords(u, v)
            if any(_dot([(c, w[col]) for col, c in row.items()]) for row in constraints.values()):
                raise TrialityError("fixed subspace is not closed under the bracket")
    return len(basis), basis


def ad_on_bivectors(s: CliffordElement) -> ExactMatrix:
    """Conjugation B -> s B s^{-1} on the bivector basis (s in the spin group,
    so s^{-1} = bar(s)), as the second compound of R = vector_rep(s).

    Since bar(s) s = 1, s e_i e_k bar(s) = (s e_i bar(s)) (s e_k bar(s)), the
    product of the vectors sum_j R_ji e_j and sum_l R_lk e_l.  Its scalar
    part -sum_j R_ji R_jk is 0 for the orthogonal R and i < k, so its
    coordinate on e_j e_l (j < l) is the minor R_ji R_lk - R_li R_jk."""
    columns = _conjugation_columns(s) if s.parity() == 0 else None
    if columns is None:
        raise CliffordError("ad_on_bivectors needs a spin-group element")
    pairs = _bivector_pairs()
    return ExactMatrix.from_columns([
        [_dot([(columns[i][j], columns[k][l]), (-columns[i][l], columns[k][j])])
         for j, l in pairs] for i, k in pairs])


# ---------------------------------------------------------------------------
# octonion-model symmetry bookkeeping
# ---------------------------------------------------------------------------

def octonion_hat(a: ExactMatrix) -> ExactMatrix:
    """conj . a . conj in the fixed octonion basis (unit, then trace-zero)."""
    k = ExactMatrix.diagonal([1, -1, -1, -1, -1, -1, -1, -1])
    return k @ a @ k


def octonion_sigma1(triple):
    a, b, c = triple
    return (octonion_hat(a), octonion_hat(c), octonion_hat(b))


def octonion_sigma2(triple):
    a, b, c = triple
    return (octonion_hat(c), octonion_hat(b), octonion_hat(a))


def octonion_theta_shift(triple):
    a, b, c = triple
    return (b, c, a)
