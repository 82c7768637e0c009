"""Structure-constant machinery: derivation algebras of finite-dimensional
algebras, commutants under a conjugation action, bracket-closure checks and
small Lie-algebra diagnostics.

This is the oracle layer behind every dimension claim: a derivation algebra
is the exact kernel of the Leibniz system, a commutant is the exact kernel of
a conjugation-difference system, and each returned element is re-verified
against its defining identity after the solve.

Each bracket [b_i, b_j] of a basis is computed once, for i < j, into one
table that the closure test, the center and the derived algebra all read
(the structure-constant practice of de Graaf, *Lie Algebras: Theory and
Algorithms*, ch. 1): a commutator has [b_j, b_i] = -[b_i, b_j] and
[b_i, b_i] = 0 exactly.  ``bracket`` sums each entry of ab - ba as one
``_dot`` over both products.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, permutations
from typing import Sequence

from .exact_field import (
    CycloNum, EliminationError, ExactMatrix, ZERO, ONE, _dot, _product_rows, add_term, rref,
    in_span, null_space, sparse_row,
)
from . import octonion as oct


class LieToolsError(ValueError):
    pass


@dataclass(frozen=True)
class AlgebraSpec:
    dim: int
    sc: tuple  # sc[i][j][k]: coefficient of e_k in e_i e_j

    def __post_init__(self):
        if len(self.sc) != self.dim or any(len(r) != self.dim for r in self.sc) or \
           any(len(c) != self.dim for r in self.sc for c in r):
            raise LieToolsError("structure tensor must have shape dim^3")

    def product_coords(self, u: Sequence[CycloNum], v: Sequence[CycloNum]) -> tuple[CycloNum, ...]:
        out = [ZERO] * self.dim
        for i, ui in enumerate(u):
            if not ui:
                continue
            for j, vj in enumerate(v):
                if not vj:
                    continue
                f = ui * vj
                row = self.sc[i][j]
                for k in range(self.dim):
                    c = row[k]
                    if c:
                        out[k] = out[k] + f * c
        return tuple(out)


@lru_cache(maxsize=None)
def octonion_algebra_spec() -> AlgebraSpec:
    return AlgebraSpec(8, oct.structure_constants())


def matrix_algebra_spec(n: int) -> AlgebraSpec:
    """Full n x n matrix algebra on the basis E_{ab}, row-major."""
    dim = n * n
    sc = [[[ZERO] * dim for _ in range(dim)] for _ in range(dim)]
    for a in range(n):
        for b in range(n):
            for c in range(n):
                for d in range(n):
                    if b == c:
                        sc[a * n + b][c * n + d][a * n + d] = ONE
    return AlgebraSpec(dim, tuple(tuple(tuple(r) for r in p) for p in sc))


def split_pair_spec() -> AlgebraSpec:
    """The 2-dimensional split algebra F x F with idempotent basis."""
    sc = [[[ONE, ZERO], [ZERO, ZERO]], [[ZERO, ZERO], [ZERO, ONE]]]
    return AlgebraSpec(2, tuple(tuple(tuple(r) for r in p) for p in sc))


def is_derivation(spec: AlgebraSpec, d: ExactMatrix) -> bool:
    n = spec.dim
    basis = [tuple(ONE if k == i else ZERO for k in range(n)) for i in range(n)]
    img = [d.column(i) for i in range(n)]
    for i in range(n):
        for j in range(n):
            lhs = d.mat_vec(spec.sc[i][j])
            rhs = tuple(a + b for a, b in zip(spec.product_coords(img[i], basis[j]),
                                             spec.product_coords(basis[i], img[j])))
            if lhs != rhs:
                return False
    return True


@lru_cache(maxsize=None)
def derivation_algebra(spec: AlgebraSpec) -> tuple[int, tuple[ExactMatrix, ...]]:
    """Exact kernel of the Leibniz system D(e_i e_j) = D(e_i) e_j + e_i D(e_j);
    every returned matrix is re-verified as a derivation.  Solved once per
    spec and returned as a tuple, so no caller can change the cached basis."""
    n = spec.dim
    rows = []
    for i in range(n):
        for j in range(n):
            cij = spec.sc[i][j]
            for r in range(n):
                row: dict[int, CycloNum] = {}
                for k in range(n):
                    c = cij[k]
                    if c:
                        add_term(row, r * n + k, c)
                for p in range(n):
                    c = spec.sc[p][j][r]
                    if c:
                        add_term(row, p * n + i, -c)
                for q in range(n):
                    c = spec.sc[i][q][r]
                    if c:
                        add_term(row, q * n + j, -c)
                if row:
                    rows.append(row)
    basis_vecs = null_space(rref(rows), n * n)
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
    """ab - ba, each entry one ``_dot`` over the pairs a_ik b_kj and
    -b_ik a_kj."""
    a._same_shape(b)
    rows = zip(_product_rows(a, b), _product_rows(-b, a))
    return ExactMatrix(a.rows, a.cols, tuple(
        [_dot(p + q) for ps, qs in rows for p, q in zip(ps, qs)]))


def _brackets(basis: Sequence[ExactMatrix]) -> dict[tuple[int, int], ExactMatrix]:
    """[b_i, b_j] for every i < j, keyed (i, j)."""
    return {(i, j): bracket(basis[i], basis[j]) for i, j in combinations(range(len(basis)), 2)}


def _closed(basis: Sequence[ExactMatrix], table: dict[tuple[int, int], ExactMatrix]) -> bool:
    span = rref([sparse_row(b.entries) for b in basis])
    return all(in_span(span, sparse_row(c.entries)) for c in table.values())


def bracket_closed(basis: Sequence[ExactMatrix]) -> bool:
    """Whether every [b_i, b_j], i < j, lies in span(basis); [a, a] = 0 lies
    in every span."""
    return _closed(basis, _brackets(basis))


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
    from one table of the brackets [b_i, b_j], i < j."""
    table = _brackets(basis)
    if not _closed(basis, table):
        raise LieToolsError("diagnostic needs a bracket-closed span")
    k = len(basis)
    if k == 0:
        return AlgebraDiagnostic(0, 0, 0)
    zero = ExactMatrix.zero(basis[0].rows, basis[0].cols)

    def br(i: int, j: int) -> ExactMatrix:
        return table[i, j] if i < j else -table[j, i] if i > j else zero

    # center: combos commuting with every basis element
    center = len(ExactMatrix.from_columns(
        [[e for j in range(k) for e in br(i, j).entries] for i in range(k)]).kernel())
    derived = len(rref([sparse_row(c.entries) for c in table.values()]))
    return AlgebraDiagnostic(k, center, derived)


# ---------------------------------------------------------------------------
# diagonal automorphisms from published sign tuples
# ---------------------------------------------------------------------------

def diagonal_action_matrix(values: Sequence) -> ExactMatrix:
    """diag(1, *values) in the fixed octonion basis: the unit line is fixed
    and the seven trace-zero directions are scaled."""
    if len(values) != 7:
        raise LieToolsError("seven eigenvalues expected")
    return ExactMatrix.diagonal([ONE, *values])


def is_octonion_automorphism_diag(values: Sequence) -> bool:
    return oct.multiplication_matrix(diagonal_action_matrix(values))


def find_automorphism_ordering(values: Sequence) -> tuple[ExactMatrix, tuple, bool]:
    """The published tuples come without a basis declaration, so check the
    printed order first and fall back to scanning the distinct reorderings of
    the eigenvalue multiset for one that really is an algebra automorphism.
    Returns (matrix, ordering used, whether the printed order already worked).
    """
    printed = tuple(values)
    if is_octonion_automorphism_diag(printed):
        return diagonal_action_matrix(printed), printed, True
    for cand in sorted(set(permutations(printed))):
        if is_octonion_automorphism_diag(cand):
            return diagonal_action_matrix(cand), cand, False
    raise LieToolsError(f"no ordering of {printed} is an automorphism")


S3_TUPLE = (-1, -1, 1, -1, -1, 1, 1)
S4_TUPLE = (1, 1, 1, -1, -1, -1, -1)


@lru_cache(maxsize=None)
def centralizer_report() -> dict:
    """Exact commutant dimensions of the two published sign tuples acting on
    the derivation algebra of the octonions, with the orderings used."""
    _, der = derivation_algebra(octonion_algebra_spec())
    out = {}
    for name, tup, expected in (("s3", S3_TUPLE, 8), ("s4", S4_TUPLE, 6)):
        mat, ordering, printed_ok = find_automorphism_ordering(tup)
        dim, _ = commutant_in(der, mat)
        out[name] = {
            "published_tuple": tup,
            "ordering_used": ordering,
            "printed_order_was_automorphism": printed_ok,
            "computed_dim": dim,
            "expected_dim": expected,
            "matches": dim == expected,
        }
    return out
