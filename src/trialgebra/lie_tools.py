"""Structure-constant machinery: derivation algebras and automorphism tests
of finite-dimensional algebras, commutants under a conjugation action,
bracket-closure checks and small Lie-algebra diagnostics.

This is the oracle layer behind every dimension claim: a derivation algebra
is the exact kernel of the Leibniz system, a commutant is the exact kernel of
a conjugation-difference system, and each returned element is re-verified
against its defining identity after the solve.

Every algebra is one ``AlgebraSpec``, the sparse rows of its nonzero
structure constants, and multiplies through one kernel, ``product_coords``
(de Graaf, *Lie Algebras: Theory and Algorithms*, ch. 1).
``structure_constants`` solves each bracket [b_i, b_j], i < j, of a basis of
matrices once, with [b_j, b_i] = -[b_i, b_j] and [b_i, b_i] = 0; closure,
center and derived algebra are read from it; each bracket is the plain
commutator ab - ba of two ``ExactMatrix`` products.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, permutations
from typing import Callable, Sequence

from .exact_field import (
    CycloNum, EliminationError, ExactMatrix, Row, ZERO, ONE, _dot, add_term,
    null_space, row_rank, rref, sparse_row,
)
from . import octonion as oct


class LieToolsError(ValueError):
    pass


@dataclass(frozen=True)
class AlgebraSpec:
    """rows[i] lists (j, ((k, c), ...)) for the nonzero products only, j
    ascending: e_i e_j = sum of c e_k over its pairs, k ascending."""
    dim: int
    rows: tuple

    @classmethod
    def from_products(cls, dim: int,
                      product: Callable[[int, int], Sequence[CycloNum]]) -> "AlgebraSpec":
        """The algebra whose e_i e_j has the dim coordinates product(i, j)."""
        rows = []
        for i in range(dim):
            row = []
            for j in range(dim):
                coords = product(i, j)
                if len(coords) != dim:
                    raise LieToolsError("structure tensor must have shape dim^3")
                if entries := sparse_row(coords):
                    row.append((j, tuple(entries.items())))
            rows.append(tuple(row))
        return cls(dim, tuple(rows))

    def product_coords(self, u: Sequence[CycloNum], v: Sequence[CycloNum]) -> tuple[CycloNum, ...]:
        """uv in coordinates, read from the rows of the nonzero coordinates of
        u only; each coordinate is the ``_dot`` of its pairs (u_i v_j, c),
        reduced once."""
        pairs: list[list] = [[] for _ in range(self.dim)]
        rows = self.rows
        for i, ui in enumerate(u):
            if not ui.nz:
                continue
            for j, entries in rows[i]:
                vj = v[j]
                if not vj.nz:
                    continue
                f = ui * vj
                for k, c in entries:
                    pairs[k].append((f, c))
        return tuple([_dot(p) if p else ZERO for p in pairs])


def commutator_spec(dim: int, upper: dict[tuple[int, int], Sequence[CycloNum]]) -> AlgebraSpec:
    """The spec of a Lie algebra from the coordinates upper[i, j] of its
    brackets [e_i, e_j], i < j: [e_j, e_i] = -[e_i, e_j], [e_i, e_i] = 0."""
    zero = (ZERO,) * dim

    def product(i: int, j: int) -> Sequence[CycloNum]:
        return upper[i, j] if i < j else tuple(-c for c in upper[j, i]) if i > j else zero
    return AlgebraSpec.from_products(dim, product)


@lru_cache(maxsize=None)
def octonion_algebra_spec() -> AlgebraSpec:
    """The octonions on ``FULL_BASIS``, each e_i e_j one Zorn product."""
    b = oct.FULL_BASIS
    return AlgebraSpec.from_products(8, lambda i, j: oct.coords(oct.zorn_mul(b[i], b[j])))


def matrix_algebra_spec(n: int) -> AlgebraSpec:
    """Full n x n matrix algebra on the basis E_{ab}, row-major:
    E_ab E_cd = E_ad if b = c, else 0."""
    def product(p: int, q: int) -> tuple[CycloNum, ...]:
        (a, b), (c, d) = divmod(p, n), divmod(q, n)
        return tuple(ONE if b == c and k == a * n + d else ZERO for k in range(n * n))
    return AlgebraSpec.from_products(n * n, product)


def split_pair_spec() -> AlgebraSpec:
    """The 2-dimensional split algebra F x F with idempotent basis."""
    return AlgebraSpec.from_products(
        2, lambda i, j: tuple(ONE if i == j == k else ZERO for k in range(2)))


def _unit_vectors(n: int) -> list[tuple[CycloNum, ...]]:
    return [tuple(ONE if k == i else ZERO for k in range(n)) for i in range(n)]


def is_automorphism(spec: AlgebraSpec, m: ExactMatrix) -> bool:
    """Whether m(e_i e_j) = (m e_i)(m e_j) on all n^2 ordered pairs of basis
    vectors, and m is invertible."""
    n = spec.dim
    if (m.rows, m.cols) != (n, n):
        raise LieToolsError(f"{n}x{n} matrix expected")
    basis = _unit_vectors(n)
    img = [m.column(i) for i in range(n)]
    return all(m.mat_vec(spec.product_coords(basis[i], basis[j]))
               == spec.product_coords(img[i], img[j])
               for i in range(n) for j in range(n)) and m.rank() == n


def is_derivation(spec: AlgebraSpec, d: ExactMatrix) -> bool:
    n = spec.dim
    basis = _unit_vectors(n)
    img = [d.column(i) for i in range(n)]
    for i in range(n):
        for j in range(n):
            lhs = d.mat_vec(spec.product_coords(basis[i], basis[j]))
            rhs = tuple(a + b for a, b in zip(spec.product_coords(img[i], basis[j]),
                                             spec.product_coords(basis[i], img[j])))
            if lhs != rhs:
                return False
    return True


def _leibniz_rows(spec: AlgebraSpec) -> list[Row]:
    """The rows of D(e_i e_j) = D(e_i) e_j + e_i D(e_j), for the unknowns
    D[r][k] at column r n + k, one per (i, j, r) in that order, the zero
    rows left out.  They are read from the nonzero constants only: c with
    e_a e_b = ... + c e_m + ... enters row (a, b, t) as c D[t][m], row
    (t, b, m) as -c D[a][t] and row (a, t, m) as -c D[b][t], for every t."""
    n = spec.dim
    eqs: dict[tuple[int, int, int], Row] = {}
    for a, row in enumerate(spec.rows):
        for b, entries in row:
            for m, c in entries:
                neg = -c
                for t in range(n):
                    add_term(eqs.setdefault((a, b, t), {}), t * n + m, c)
                    add_term(eqs.setdefault((t, b, m), {}), a * n + t, neg)
                    add_term(eqs.setdefault((a, t, m), {}), b * n + t, neg)
    return [eqs[key] for key in sorted(eqs) if eqs[key]]


@lru_cache(maxsize=None)
def derivation_algebra(spec: AlgebraSpec) -> tuple[int, tuple[ExactMatrix, ...]]:
    """Exact kernel of the Leibniz system D(e_i e_j) = D(e_i) e_j + e_i D(e_j);
    every returned matrix is re-verified as a derivation.  Solved once per
    spec and returned as a tuple, so no caller can change the cached basis."""
    n = spec.dim
    basis_vecs = null_space(rref(_leibniz_rows(spec)), n * n)
    mats = [ExactMatrix(n, n, tuple(v)) for v in basis_vecs]
    for m in mats:
        if not is_derivation(spec, m):
            raise LieToolsError("kernel produced a non-derivation; solver defect")
    return len(mats), tuple(mats)


def commutant_in(basis: Sequence[ExactMatrix], g: ExactMatrix) -> tuple[int, list[ExactMatrix]]:
    """The subspace of span(basis) fixed by conjugation with g, with an exact
    basis; if the input span is bracket-closed, so is the output (checked:
    the input's closure is tested only when the output's fails)."""
    if not basis:
        return 0, []
    n = basis[0].rows
    try:
        ginv = g.inverse()
    except EliminationError as exc:
        raise LieToolsError("conjugating element is singular") from exc
    combos = ExactMatrix.from_columns([(g @ b @ ginv - b).entries for b in basis]).kernel()
    out = []
    for combo in combos:
        acc = ExactMatrix.zero(n, n)
        for c, b in zip(combo, basis):
            if c:
                acc = acc + b.scale(c)
        if g @ acc @ ginv != acc:
            raise LieToolsError("commutant element moved by conjugation; solver defect")
        out.append(acc)
    if out and not bracket_closed(out) and bracket_closed(basis):
        raise LieToolsError("commutant of a closed span failed bracket closure")
    return len(out), out


def bracket(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    """The commutator ab - ba."""
    return a @ b - b @ a


def structure_constants(basis: Sequence[ExactMatrix]) -> AlgebraSpec | None:
    """The Lie algebra spanned by a basis of independent matrices, as the
    coordinates of each [b_i, b_j], i < j, in the basis, all solved by one
    ``solve_many``; None when a bracket leaves the span."""
    pairs = list(combinations(range(len(basis)), 2))
    span = ExactMatrix.from_columns([b.entries for b in basis])
    sols = span.solve_many([bracket(basis[i], basis[j]).entries for i, j in pairs])
    if None in sols:
        return None
    return commutator_spec(len(basis), dict(zip(pairs, sols)))


def bracket_closed(basis: Sequence[ExactMatrix]) -> bool:
    """Whether every [b_i, b_j], i < j, lies in span(basis); [a, a] = 0 lies
    in every span."""
    return structure_constants(basis) is not None


@dataclass(frozen=True)
class AlgebraDiagnostic:
    dim: int
    center_dim: int
    derived_dim: int

    def consistent_with(self) -> str:
        """Coarse label from (dim, center, derived); enough to tell the three
        fixed subalgebras of this package apart."""
        key = (self.dim, self.center_dim, self.derived_dim)
        return {
            (14, 0, 14): "semisimple rank-2 exceptional type",
            (8, 0, 8): "semisimple type A2",
            (6, 0, 6): "semisimple type A1 x A1",
        }.get(key, "unclassified")


def algebra_diagnostic(basis: Sequence[ExactMatrix]) -> AlgebraDiagnostic:
    """Dimension, center dimension and derived-algebra dimension, all read
    from the ``structure_constants`` of the basis: the center is the kernel
    of x -> ([x, b_j])_j, whose row (j, k) holds c_ij^k at column i, and the
    derived algebra is the span of the coordinate rows of [b_i, b_j], i < j."""
    spec = structure_constants(basis)
    if spec is None:
        raise LieToolsError("diagnostic needs a bracket-closed span")
    k = spec.dim
    center_rows: dict[tuple[int, int], Row] = {}
    derived_rows = []
    for i, row in enumerate(spec.rows):
        for j, entries in row:
            for l, c in entries:
                center_rows.setdefault((j, l), {})[i] = c
            if i < j:
                derived_rows.append(dict(entries))
    center = k - row_rank(list(center_rows.values()), k)
    return AlgebraDiagnostic(k, center, row_rank(derived_rows, k))


# ---------------------------------------------------------------------------
# diagonal automorphisms from published sign tuples
# ---------------------------------------------------------------------------

def diagonal_action_matrix(values: Sequence) -> ExactMatrix:
    """diag(1, *values) in the fixed octonion basis: the unit line is fixed
    and the seven trace-zero directions are scaled."""
    if len(values) != 7:
        raise LieToolsError("seven eigenvalues expected")
    return ExactMatrix.diagonal([ONE, *values])


@lru_cache(maxsize=None)
def _is_automorphic_ordering(values: tuple) -> bool:
    """Whether ``diagonal_action_matrix(values)`` is an octonion automorphism;
    cached, so tuples that share a multiset share one scan of its reorderings."""
    return is_automorphism(octonion_algebra_spec(), diagonal_action_matrix(values))


def find_automorphism_ordering(values: Sequence) -> tuple[ExactMatrix, tuple]:
    """The published tuples come without a basis declaration, so check the
    printed order first and fall back to scanning the distinct reorderings of
    the eigenvalue multiset, in sorted order, for one that really is an
    algebra automorphism; each ordering is tested once per process.
    Returns (matrix, ordering used).
    """
    printed = tuple(values)
    for cand in (printed, *sorted(set(permutations(printed)) - {printed})):
        if _is_automorphic_ordering(cand):
            return diagonal_action_matrix(cand), cand
    raise LieToolsError(f"no ordering of {printed} is an automorphism")


S3_TUPLE = (-1, -1, 1, -1, -1, 1, 1)
S4_TUPLE = (1, 1, 1, -1, -1, -1, -1)


@lru_cache(maxsize=None)
def centralizer_report() -> dict:
    """Exact commutant dimensions of the two published sign tuples acting on
    the derivation algebra of the octonions, with the orderings used."""
    _, der = derivation_algebra(octonion_algebra_spec())
    out = {}
    dims: dict[tuple, int] = {}  # one commutant per distinct ordering
    for name, tup in (("s3", S3_TUPLE), ("s4", S4_TUPLE)):
        mat, ordering = find_automorphism_ordering(tup)
        if ordering not in dims:
            dims[ordering] = commutant_in(der, mat)[0]
        out[name] = {"ordering_used": ordering, "computed_dim": dims[ordering]}
    return out
