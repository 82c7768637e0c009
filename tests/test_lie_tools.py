import random

import pytest

from trialgebra.exact_field import ExactMatrix, ZERO, ONE
from trialgebra import cli, lie_tools as lt
from trialgebra import octonion as oct
from trialgebra import sampling


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


def test_bracket_matches_the_two_products_entry_by_entry(rng):
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
        ma, mb = ExactMatrix.from_rows(a), ExactMatrix.from_rows(b)
        got, want = lt.bracket(ma, mb), ma @ mb - mb @ ma
        assert [(x.den, x.num, x.nz) for x in got.entries] == \
            [(x.den, x.num, x.nz) for x in want.entries]
    assert lt.bracket(ma, ma) == ExactMatrix.zero(8, 8)
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
    g, _, _ = lt.find_automorphism_ordering(lt.S4_TUPLE)
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
    for tup in (lt.S3_TUPLE, lt.S4_TUPLE):
        assert not lt.is_octonion_automorphism_diag(tup)
        mat, ordering, printed_ok = lt.find_automorphism_ordering(tup)
        assert not printed_ok
        assert sorted(ordering) == sorted(tup)
        assert lt.is_octonion_automorphism_diag(ordering)


def test_centralizer_report():
    rep = lt.centralizer_report()
    assert rep["s4"]["computed_dim"] == 6
    assert rep["s4"]["matches"]
    # the printed order-2 tuple cannot centralize an 8-dimensional subgroup;
    # the honest computation gives 6 and the report must say so
    assert rep["s3"]["computed_dim"] == 6
    assert rep["s3"]["expected_dim"] == 8
    assert not rep["s3"]["matches"]


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
