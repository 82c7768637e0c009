import random
from itertools import permutations

import pytest

from trialgebra.exact_field import ExactMatrix, ZERO, ONE, TWO, HALF, add_term, rref
from trialgebra import cli, lie_tools as lt
from trialgebra import clifford as cl
from trialgebra import endoscopy as endo
from trialgebra import octonion as oct
from trialgebra import sampling
from trialgebra import triality as tri


def dense_tensors():
    """Each algebra's spec with its structure tensor sc[i][j][k], built
    without the spec: the Zorn products, the matrix-unit rule and the
    Clifford commutator of every ordered pair of bivector blades."""
    blades = [cl.CliffordElement.blade(m) for m in tri.bivector_masks()]
    units = oct.FULL_BASIS
    # E_ab E_cd = E_ad if b = c, for p = 3a + b and q = 3c + d
    gl3 = [[tuple(ONE if p % 3 == q // 3 and k == p - p % 3 + q % 3 else ZERO for k in range(9))
            for q in range(9)] for p in range(9)]
    return [
        (lt.octonion_algebra_spec(), [[oct.coords(oct.zorn_mul(x, y)) for y in units]
                                      for x in units]),
        (lt.matrix_algebra_spec(3), gl3),
        (tri.so8(), [[tri.bivector_coords(cl.clif_mul(x, y) - cl.clif_mul(y, x))
                      for y in blades] for x in blades]),
    ]


def dense_product_coords(sc, u, v):
    """The term-by-term product loop over a dense structure tensor."""
    n = len(sc)
    out = [ZERO] * n
    for i, ui in enumerate(u):
        if not ui:
            continue
        for j, vj in enumerate(v):
            if not vj:
                continue
            f = ui * vj
            row = sc[i][j]
            for k in range(n):
                c = row[k]
                if c:
                    out[k] = out[k] + f * c
    return tuple(out)


def dense_leibniz_rows(sc):
    """The Leibniz rows of every (i, j, r), each scanned over all k, p, q."""
    n = len(sc)
    rows = []
    for i in range(n):
        for j in range(n):
            for r in range(n):
                row = {}
                for k in range(n):
                    if c := sc[i][j][k]:
                        add_term(row, r * n + k, c)
                for p in range(n):
                    if c := sc[p][j][r]:
                        add_term(row, p * n + i, -c)
                for q in range(n):
                    if c := sc[i][q][r]:
                        add_term(row, q * n + j, -c)
                if row:
                    rows.append(row)
    return rows


def stored(vec):
    return [(x.den, x.num, x.nz) for x in vec]


def test_product_coords_matches_the_dense_loop(rng):
    def full(n):
        return tuple(sampling.cyclo(rng, terms=8) for _ in range(n))

    def at(n, coords):
        return tuple(coords.get(k, ZERO) for k in range(n))

    a, b = sampling.cyclo(rng, terms=8), sampling.cyclo(rng, terms=8)
    assert not a.is_rational() and not b.is_rational()
    # a product whose pairs cancel exactly in every coordinate: the two
    # Zorn idempotents, (E11 + E12)(E11 - E21) = 0, and [u, a u]
    cancelling = [
        (at(8, {0: a * HALF, 1: a * HALF}), at(8, {0: b * HALF, 1: -b * HALF})),
        (at(9, {0: a, 1: a}), at(9, {0: b, 3: -b})),
        None,
    ]
    for (spec, sc), cancel in zip(dense_tensors(), cancelling):
        n = spec.dim
        u, v = full(n), full(n)
        sparse = at(n, {k: x for k, x in enumerate(v) if k % 3})  # zero coordinates
        cancel = cancel or (u, tuple(a * x for x in u))
        for x, y in ((u, v), (v, u), (u, sparse), (sparse, u), (u, (ZERO,) * n), cancel):
            got, want = spec.product_coords(x, y), dense_product_coords(sc, x, y)
            assert stored(got) == stored(want)
        assert any(spec.product_coords(u, v)) and not any(spec.product_coords(*cancel))


def test_leibniz_rows_have_the_rref_of_the_dense_scan():
    for spec, sc in dense_tensors():
        assert rref(lt._leibniz_rows(spec)) == rref(dense_leibniz_rows(sc))


def check_structure_constants(basis):
    spec = lt.structure_constants(basis)
    assert spec.dim == len(basis)
    zero = ExactMatrix.zero(basis[0].rows, basis[0].cols)
    for i, row in enumerate(spec.rows):
        products = dict(row)
        for j, bj in enumerate(basis):
            combo = sum((basis[k].scale(c) for k, c in products.get(j, ())), zero)
            assert combo == lt.bracket(basis[i], bj)


def test_structure_constants_rebuild_every_bracket(rng, octonion_derivations):
    units = [ExactMatrix.from_rows([[int(k == 2 * i + j) for j in range(2)] for i in range(2)])
             for k in range(4)]
    def mix():
        return [sum((u.scale(sampling.cyclo(rng)) for u in units), ExactMatrix.zero(2, 2))
                for _ in range(4)]

    mixed = mix()
    while ExactMatrix.from_columns([m.entries for m in mixed]).rank() < 4:
        mixed = mix()
    check_structure_constants(mixed)  # gl(2) in a mixed basis
    check_structure_constants(octonion_derivations[1])


def test_structure_constants_of_a_span_not_closed():
    e12 = ExactMatrix.from_rows([[0, 1], [0, 0]])
    assert lt.structure_constants([e12 + ExactMatrix.identity(2), e12.transpose()]) is None


def test_octonion_derivations_dimension(octonion_derivations):
    dim, basis = octonion_derivations
    assert dim == 14
    assert len(basis) == 14


def test_derivations_satisfy_leibniz(octonion_derivations):
    spec = lt.octonion_algebra_spec()
    _, basis = octonion_derivations
    for d in basis:
        assert lt.is_derivation(spec, d)


def test_derivations_kill_unit_and_preserve_trace_zero(octonion_derivations):
    _, basis = octonion_derivations
    unit = oct.coords(oct.IDENTITY)
    for d in basis:
        assert not any(d.mat_vec(unit))
        # images of trace-zero basis elements stay trace-zero (coordinate 0 is
        # the unit coefficient)
        for j in range(1, 8):
            col = d.column(j)
            assert col[0] == ZERO


def test_split_pair_has_no_derivations():
    dim, basis = lt.derivation_algebra(lt.split_pair_spec())
    assert dim == 0 and basis == ()


def test_matrix_algebra_derivations_are_inner():
    dim, _ = lt.derivation_algebra(lt.matrix_algebra_spec(3))
    assert dim == 8
    # independent oracle: inner derivations ad(E_ab) span a space of dimension
    # dim(gl_3) - dim(center) = 8
    spec = lt.matrix_algebra_spec(3)
    rows = []
    for a in range(3):
        for b in range(3):
            ad = [[ZERO] * 9 for _ in range(9)]
            for j in range(9):
                ej = tuple(ONE if t == j else ZERO for t in range(9))
                eab = tuple(ONE if t == a * 3 + b else ZERO for t in range(9))
                col = tuple(x - y for x, y in zip(spec.product_coords(eab, ej),
                                                  spec.product_coords(ej, eab)))
                for i in range(9):
                    ad[i][j] = col[i]
            rows.append({i: v for i, v in
                         enumerate(x for r in ad for x in r) if v})
    from trialgebra.exact_field import rref
    assert len(rref(rows)) == 8


def test_bracket_closed(octonion_derivations):
    _, basis = octonion_derivations
    assert lt.bracket_closed(basis)
    # brackets of derivations are derivations
    spec = lt.octonion_algebra_spec()
    assert lt.is_derivation(spec, lt.bracket(basis[0], basis[1]))


def test_matmul_matches_the_term_by_term_sums_entry_by_entry(rng):
    def entry():
        roll = rng.random()
        if roll < 0.2:
            return ZERO
        if roll < 0.4:
            return sampling.rational_cyclo(rng)
        return sampling.cyclo(rng, terms=8)

    for _ in range(3):
        a = [[entry() for _ in range(8)] for _ in range(8)]
        b = [[entry() for _ in range(8)] for _ in range(8)]
        a[2] = [ZERO] * 8          # a zero row of a
        for row in b:              # and a zero column of b
            row[5] = ZERO
        got = ExactMatrix.from_rows(a) @ ExactMatrix.from_rows(b)
        want = [sum((a[i][k] * b[k][j] for k in range(8)), ZERO)
                for i in range(8) for j in range(8)]
        assert [(x.den, x.num, x.nz) for x in got.entries] == \
            [(x.den, x.num, x.nz) for x in want]
        assert got.row(2) == (ZERO,) * 8 and got.column(5) == (ZERO,) * 8
    ma = ExactMatrix.from_rows(a)
    assert lt.bracket(ma, ma) == ExactMatrix.zero(8, 8)
    with pytest.raises(ValueError, match="cannot multiply 2x3 by 2x3"):
        ExactMatrix.zero(2, 3) @ ExactMatrix.zero(2, 3)
    for shapes in (((2, 3), (2, 3)), ((2, 2), (3, 3))):
        with pytest.raises(ValueError):
            lt.bracket(*(ExactMatrix.zero(*s) for s in shapes))


def count_brackets(monkeypatch):
    calls = []
    bracket = lt.bracket

    def counted(a, b):
        calls.append((a, b))
        return bracket(a, b)

    monkeypatch.setattr(lt, "bracket", counted)
    return calls


def test_diagnostic_computes_each_bracket_once(octonion_derivations, monkeypatch):
    _, basis = octonion_derivations
    calls = count_brackets(monkeypatch)
    lt.algebra_diagnostic(basis)
    index = {id(m): i for i, m in enumerate(basis)}
    assert sorted((index[id(a)], index[id(b)]) for a, b in calls) == \
        [(i, j) for i in range(14) for j in range(i + 1, 14)]  # 91 brackets


def test_diagnostic_of_a_reductive_and_a_solvable_algebra(rng):
    units = [ExactMatrix.from_rows([[int(k == 2 * i + j) for j in range(2)] for i in range(2)])
             for k in range(4)]  # E11, E12, E21, E22
    def mix():
        return [sum((u.scale(rng.randint(-2, 2)) for u in units), ExactMatrix.zero(2, 2))
                for _ in range(4)]

    mixed = mix()
    while ExactMatrix.from_columns([m.entries for m in mixed]).rank() < 4:
        mixed = mix()
    # the center of gl2 is the scalars in any basis, read with either sign of [b_i, b_j]
    for basis in (units, mixed):
        gl2 = lt.algebra_diagnostic(basis)
        assert (gl2.dim, gl2.center_dim, gl2.derived_dim) == (4, 1, 3)
    upper = lt.algebra_diagnostic([units[0], units[1], units[3]])
    assert (upper.dim, upper.center_dim, upper.derived_dim) == (3, 1, 1)


def test_not_closed_detected():
    e12 = ExactMatrix.from_rows([[0, 1], [0, 0]])
    assert not lt.bracket_closed([e12 + ExactMatrix.identity(2), e12.transpose()])


def test_diagnostic_of_derivations(octonion_derivations):
    _, basis = octonion_derivations
    diag = lt.algebra_diagnostic(basis)
    assert diag.dim == 14
    assert diag.center_dim == 0
    assert diag.derived_dim == 14
    assert diag.consistent_with() == "semisimple rank-2 exceptional type"


def test_diagnostic_requires_closure():
    e12 = ExactMatrix.from_rows([[0, 1], [0, 0]])
    with pytest.raises(lt.LieToolsError):
        lt.algebra_diagnostic([e12 + ExactMatrix.identity(2), e12.transpose()])


def test_infinitesimal_trace_invariance(rng, octonion_derivations):
    _, basis = octonion_derivations
    for _ in range(15):
        d = basis[rng.randrange(len(basis))]
        x, y, z = (sampling.octonion(rng) for _ in range(3))
        dx = oct.from_coords(d.mat_vec(oct.coords(x)))
        dy = oct.from_coords(d.mat_vec(oct.coords(y)))
        dz = oct.from_coords(d.mat_vec(oct.coords(z)))
        total = (oct.trilinear_trace(dx, y, z) + oct.trilinear_trace(x, dy, z)
                 + oct.trilinear_trace(x, y, dz))
        assert not total


def test_commutant_with_identity(octonion_derivations):
    _, basis = octonion_derivations
    dim, out = lt.commutant_in(basis, ExactMatrix.identity(8))
    assert dim == 14


def test_commutant_fixed_pointwise(octonion_derivations):
    _, basis = octonion_derivations
    g, _ = lt.find_automorphism_ordering(lt.S4_TUPLE)
    dim, out = lt.commutant_in(basis, g)
    ginv = g.inverse()
    for m in out:
        assert g @ m @ ginv == m
    assert lt.bracket_closed(out)
    assert lt.algebra_diagnostic(out).consistent_with() == "semisimple type A1 x A1"


def test_commutant_brackets_none_of_its_input(octonion_derivations, monkeypatch):
    _, basis = octonion_derivations
    calls = count_brackets(monkeypatch)
    dim, out = lt.commutant_in(basis, ExactMatrix.identity(8))
    assert dim == 14 and len(calls) == 91  # the closure of the output only
    assert not any(m is b for pair in calls for m in pair for b in basis)


def test_commutant_of_a_span_not_closed_returns_its_fixed_part():
    e12 = ExactMatrix.from_rows([[0, 1], [0, 0]])
    basis = [e12 + ExactMatrix.identity(2), e12.transpose()]
    dim, out = lt.commutant_in(basis, ExactMatrix.identity(2))
    assert dim == 2 and not lt.bracket_closed(out)


def test_commutant_of_a_closed_span_must_come_out_closed(octonion_derivations, monkeypatch):
    _, basis = octonion_derivations
    monkeypatch.setattr(lt, "bracket_closed", lambda span: span is basis)
    with pytest.raises(lt.LieToolsError, match="failed bracket closure"):
        lt.commutant_in(basis, ExactMatrix.identity(8))


def test_commutant_rejects_singular():
    with pytest.raises(lt.LieToolsError):
        lt.commutant_in([ExactMatrix.identity(2)], ExactMatrix.zero(2, 2))


def test_published_tuples_need_reordering():
    spec = lt.octonion_algebra_spec()
    for tup in (lt.S3_TUPLE, lt.S4_TUPLE):
        assert not lt.is_automorphism(spec, lt.diagonal_action_matrix(tup))
        mat, ordering = lt.find_automorphism_ordering(tup)
        assert ordering != tup
        assert sorted(ordering) == sorted(tup)
        assert mat == lt.diagonal_action_matrix(ordering)
        assert lt.is_automorphism(spec, mat)


def record_diagonals(monkeypatch):
    """Route ``lt.is_automorphism`` through a recorder; returns the list of
    the diagonals it was called on, in call order."""
    tested = []
    is_automorphism = lt.is_automorphism

    def recorded(spec, m):
        tested.append(tuple(m.get(i, i).rational_value() for i in range(1, 8)))
        return is_automorphism(spec, m)

    monkeypatch.setattr(lt, "is_automorphism", recorded)
    return tested


def test_ordering_scan_tests_the_printed_order_once(monkeypatch):
    """S3_TUPLE and S4_TUPLE are one multiset, so the two calls share one scan
    of its reorderings: the s4 call tests only its own printed order."""
    lt._is_automorphic_ordering.cache_clear()
    tested = record_diagonals(monkeypatch)
    calls, orderings = {}, {}
    for tup in (lt.S3_TUPLE, lt.S4_TUPLE):
        start = len(tested)
        _, orderings[tup] = lt.find_automorphism_ordering(tup)
        calls[tup] = tested[start:]
        assert calls[tup][0] == tup
        assert tested.count(tup) == 1 and len(set(tested)) == len(tested)
    assert calls[lt.S3_TUPLE][-1] == orderings[lt.S3_TUPLE] == orderings[lt.S4_TUPLE]
    assert calls[lt.S4_TUPLE] == [lt.S4_TUPLE]
    assert lt.find_automorphism_ordering((1,) * 7)[1] == (1,) * 7


def test_centralizer_report_scans_the_shared_multiset_once(monkeypatch):
    """A cold report tests each diagonal of one scan once, plus the printed
    s4 order, and computes one commutant for the one ordering it finds."""
    lt.centralizer_report.cache_clear()
    lt._is_automorphic_ordering.cache_clear()
    tested, commutants = record_diagonals(monkeypatch), []
    commutant_in = lt.commutant_in

    def counted(basis, g):
        commutants.append(g)
        return commutant_in(basis, g)

    monkeypatch.setattr(lt, "commutant_in", counted)
    rep = lt.centralizer_report()
    ordering = rep["s3"]["ordering_used"]
    assert rep["s4"]["ordering_used"] == ordering
    reorderings = sorted(set(permutations(lt.S3_TUPLE)))
    scan = reorderings[:reorderings.index(ordering) + 1]
    assert len(tested) == len(set(tested)) and set(tested) == {*scan, lt.S4_TUPLE}
    assert commutants == [lt.diagonal_action_matrix(ordering)]
    assert rep["s3"]["computed_dim"] == rep["s4"]["computed_dim"] == 6


def test_is_automorphism_accepts_automorphisms(rng, dtheta):
    spec = lt.octonion_algebra_spec()
    accepted = [
        ExactMatrix.identity(8),
        lt.find_automorphism_ordering(lt.S3_TUPLE)[0],
        lt.find_automorphism_ordering(lt.S4_TUPLE)[0],
        endo.xi3_as_octonion_automorphism(sampling.unimodular(rng, 3)),
        endo.so4_action(sampling.unimodular(rng, 2), ExactMatrix.identity(2)),
    ]
    for m in accepted:
        assert lt.is_automorphism(spec, m)
    assert lt.is_automorphism(tri.so8(), dtheta)


def test_is_automorphism_rejects_non_automorphisms(rng):
    spec = lt.octonion_algebra_spec()
    g = endo.xi3_as_octonion_automorphism(sampling.unimodular(rng, 3))
    doubled = ExactMatrix.from_columns([g.column(j) if j != 3 else
                                        tuple(TWO * x for x in g.column(j)) for j in range(8)])
    rejected = [
        lt.diagonal_action_matrix(lt.S3_TUPLE),
        lt.diagonal_action_matrix(lt.S4_TUPLE),
        ExactMatrix.identity(8).scale(-1),
        doubled,
        ExactMatrix.zero(8, 8),  # multiplicative, but not invertible
    ]
    for m in rejected:
        assert not lt.is_automorphism(spec, m)
    with pytest.raises(lt.LieToolsError, match="8x8 matrix expected"):
        lt.is_automorphism(spec, ExactMatrix.identity(7))


def test_centralizer_report():
    rep = lt.centralizer_report()
    assert set(rep["s3"]) == set(rep["s4"]) == {"ordering_used", "computed_dim"}
    assert rep["s4"]["computed_dim"] == 6
    # the printed order-2 tuple cannot centralize an 8-dimensional subgroup;
    # the honest computation gives 6 and the s3 check must report the printed 8
    assert rep["s3"]["computed_dim"] == 6
    s3 = next(c for c in cli.suite_lie(random.Random(7), 2)
              if c.name == "involution-centralizer-s3")
    assert (s3.status, s3.expected.split()[0], s3.actual) == (cli.MISMATCH, "8", "6")


def test_no_ordering_raises():
    with pytest.raises(lt.LieToolsError):
        lt.find_automorphism_ordering((2, 1, 1, 1, 1, 1, 1))


def test_verify_solves_the_octonion_derivations_once(monkeypatch):
    lt.derivation_algebra.cache_clear()
    lt.centralizer_report.cache_clear()
    widths = []
    null_space = lt.null_space

    def counted(basis, ncols):
        widths.append(ncols)
        return null_space(basis, ncols)

    monkeypatch.setattr(lt, "null_space", counted)
    cli.suite_lie(random.Random(7), 10)
    lt.centralizer_report()
    assert widths.count(8 * 8) == 1
    _, der = lt.derivation_algebra(lt.octonion_algebra_spec())
    assert isinstance(der, tuple) and len(der) == 14
