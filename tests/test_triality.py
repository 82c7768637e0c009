from fractions import Fraction

import pytest

from trialgebra.exact_field import CycloNum, ExactMatrix, ZERO, ONE, I, add_term, rref
from trialgebra import clifford as cl
from trialgebra import spinor as sp
from trialgebra import triality as tri
from trialgebra import sampling


def unit(p):
    return tuple(ONE if t == p else ZERO for t in range(8))


def cyclo_spin(rng):
    """A spin element as the spin-cyclo benchmark draws them: a product of
    three one-plane exponentials at angles k pi/12, k prime to 12, so its
    coefficients are irrational."""
    x = cl.CliffordElement.scalar(1)
    for _ in range(3):
        i, j = rng.sample(range(8), 2)
        angle = Fraction(rng.choice((1, 5, 7, 11)), 12)
        x = cl.clif_mul(x, cl.bivector_exp([(angle, (1 << i) | (1 << j))]))
    return x


def test_spinor_model_products_are_orthogonal(rng):
    for _ in range(15):
        v = sampling.vec8(rng)
        x = sampling.spinor_in(rng, sp.plus_masks())
        y = sampling.spinor_in(rng, sp.minus_masks())
        vx = sp.vector_action(v, x)
        assert sp.pairing_N(vx, vx) == tri.q_vec(v, v) * sp.pairing_N(x, x)
        vy = sp.vector_action(v, y)
        assert sp.pairing_N(vy, vy) == tri.q_vec(v, v) * sp.pairing_N(y, y)
        xy = tri.t1_product(x, y)
        assert tri.q_vec(xy, xy) == sp.pairing_N(x, x) * sp.pairing_N(y, y)


def test_two_sided_product_lemma_all_slots(rng):
    for _ in range(8):
        v = sampling.vec8(rng)
        x = sampling.spinor_in(rng, sp.plus_masks())
        y = sampling.spinor_in(rng, sp.minus_masks())
        cases = (((1, v), (2, x)), ((1, v), (3, y)), ((2, x), (3, y)),
                 ((2, x), (1, v)), ((3, y), (1, v)), ((3, y), (2, x)))
        for (i, a), (k, b) in cases:
            ab = tri.slot_product(i, a, k, b)
            j = ({1, 2, 3} - {i, k}).pop()
            lhs = tri.slot_product(i, a, j, ab)
            q = tri.slot_norm(i, a)
            if k == 1:
                assert lhs == tuple(q * c for c in b)
            else:
                assert lhs == b.scale(q)


def test_composed_slot_maps_give_norm(rng):
    for _ in range(6):
        x = sampling.spinor_in(rng, sp.plus_masks())
        nx = sp.pairing_N(x, x)
        for p in range(8):
            fg = tri.t1_product(x, sp.vector_action(unit(p), x))
            assert fg == tuple(nx * c for c in unit(p))


def test_default_units():
    v1, x1 = tri.default_v1(), tri.default_x1()
    assert tri.q_vec(v1, v1) == ONE
    assert sp.pairing_N(x1, x1) == ONE
    y1 = sp.vector_action(v1, x1)
    assert sp.pairing_N(y1, y1) == ONE
    assert sp.vector_action(v1, y1) == x1


def test_iota_involutions():
    i1 = tri.make_iota(1)
    i2 = tri.make_iota(2)
    assert i1.perm == (0, 2, 1)
    assert i2.perm == (2, 1, 0)
    assert tri.compose(i1, i1).is_identity()
    assert tri.compose(i2, i2).is_identity()
    data = tri.spinor_model()
    assert tri.validate_triality_map(data, i1)
    assert tri.validate_triality_map(data, i2)


def test_iota_rejects_non_unit_inputs(monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(tri, "default_v1", lambda: (ONE,) + (ZERO,) * 7)  # q(e1) = -1, not 1
        with pytest.raises(tri.TrialityError):
            tri.make_iota(1)
    with monkeypatch.context() as m:
        m.setattr(tri, "default_x1", sp.SpinorElement.one)  # N(1,1) = 0
        with pytest.raises(tri.TrialityError):
            tri.make_iota(2)


def test_triality_data_rejects_other_dimensions():
    eye7, eye8 = ExactMatrix.identity(7), ExactMatrix.identity(8)
    with pytest.raises(tri.TrialityError):
        tri.TrialityData((eye7, eye7, eye7), ())
    with pytest.raises(tri.TrialityError):
        tri.TrialityData((eye8, eye8, eye7), ())
    assert tri.spinor_model().forms[0].rows == 8


def test_theta_prime_order_three():
    th = tri.theta_prime()
    assert th.perm == (2, 0, 1)
    assert not th.is_identity()
    th2 = tri.compose(th, th)
    assert not th2.is_identity()
    assert tri.compose(th, th2).is_identity()
    assert tri.validate_triality_map(tri.spinor_model(), th)


def test_theta_prime_matches_closed_form_display():
    th = tri.theta_prime()
    thd = tri.theta_prime_display()
    assert th.perm == thd.perm
    for a, b in zip(th.mats, thd.mats):
        assert a == b


def test_theta_prime_is_iota_composition():
    assert tri.theta_prime().perm == tri.compose(tri.make_iota(2), tri.make_iota(1)).perm


def test_h_conjugation_gives_cyclic_shift(rng):
    """The identification triple h = (Id, x1 v1, y1 v1) turns the order-3 map
    into the plain rotation of the three factors."""
    v1, x1 = tri.default_v1(), tri.default_x1()
    y1 = sp.vector_action(v1, x1)
    h2 = ExactMatrix.from_columns(
        [tri.t1_product(x1, sp.vector_action(v1, sp.SpinorElement.blade(m)))
         for m in sp.plus_masks()])
    h3 = ExactMatrix.from_columns(
        [tri.t1_product(sp.vector_action(v1, sp.SpinorElement.blade(m)), y1)
         for m in sp.minus_masks()])
    th = tri.theta_prime()
    t1m, t2m, t3m = th.mats
    for _ in range(3):
        a = sampling.spin_element(rng, factors=2)
        triple = tri.spin_to_triple(a).mats
        j = (triple[0], h2 @ triple[1] @ h2.inverse(), h3 @ triple[2] @ h3.inverse())
        theta_triple = (t2m @ triple[1] @ t2m.inverse(),
                        t3m @ triple[2] @ t3m.inverse(),
                        t1m @ triple[0] @ t1m.inverse())
        j_theta = (theta_triple[0],
                   h2 @ theta_triple[1] @ h2.inverse(),
                   h3 @ theta_triple[2] @ h3.inverse())
        assert j_theta == (j[1], j[2], j[0])


def test_spin_to_triple_identity_and_volume():
    assert tri.spin_to_triple(cl.CliffordElement.scalar(1)).is_identity()
    eta = cl.CliffordElement.blade(0xFF)
    tmap = tri.spin_to_triple(eta)
    ident = ExactMatrix.identity(8)
    assert tmap.mats[0] == ident.scale(-1)
    assert tmap.mats[1] == ident
    assert tmap.mats[2] == ident.scale(-1)


def test_spin_to_triple_rejects_non_spin():
    with pytest.raises(cl.CliffordError):
        tri.spin_to_triple(cl.basis_vector(1))  # odd: a pin element, not spin
    with pytest.raises(cl.CliffordError):
        tri.spin_to_triple(cl.CliffordElement.scalar(2))  # even, but x bar(x) = 4


def test_hand_built_sign_flip_rejected():
    ident = ExactMatrix.identity(8)
    fake = tri.TrialityMap((0, 1, 2), (ident, ident, ident.scale(-1)))
    assert not tri.validate_triality_map(tri.spinor_model(), fake)


def test_spin_triple_intertwines_product(rng):
    for _ in range(3):
        a = sampling.spin_element(rng, factors=4)
        tmap = tri.spin_to_triple(a)
        v = sampling.vec8(rng)
        x = sampling.spinor_in(rng, sp.plus_masks())
        av = tmap.mats[0].mat_vec(v)
        ax = sp.SpinorElement(dict(zip(sp.plus_masks(),
                                       tmap.mats[1].mat_vec(sp.plus_coords(x)))))
        lhs = sp.minus_coords(sp.vector_action(av, ax))
        rhs = tmap.mats[2].mat_vec(sp.minus_coords(sp.vector_action(v, x)))
        assert lhs == rhs


def test_dtheta_order_three(dtheta):
    eye = ExactMatrix.identity(28)
    assert dtheta @ dtheta @ dtheta == eye
    assert dtheta != eye


def test_dtheta_preserves_brackets(dtheta):
    cols = [dtheta.column(k) for k in range(28)]
    checked = 0
    for i in range(28):
        u = tuple(ONE if t == i else ZERO for t in range(28))
        for j in range(i + 1, 28):
            v = tuple(ONE if t == j else ZERO for t in range(28))
            lhs = dtheta.mat_vec(tri.bracket_coords(u, v))
            rhs = tri.bracket_coords(cols[i], cols[j])
            assert lhs == rhs
            checked += 1
    assert checked == 378


def test_dtheta_fixed_subalgebra(dtheta):
    dim, basis = tri.fixed_subalgebra(dtheta, require_order_3=True)
    assert dim == 14
    assert len(basis) == 14
    for v in basis:
        assert dtheta.mat_vec(v) == tuple(v)


def test_fixed_subalgebra_of_identity():
    dim, _ = tri.fixed_subalgebra(ExactMatrix.identity(28), require_order_3=True)
    assert dim == 28


def test_fixed_subalgebra_rejects_higher_order(dtheta):
    s4 = __import__("trialgebra.endoscopy", fromlist=["build_s4prime"]).build_s4prime()
    m = tri.ad_on_bivectors(s4) @ dtheta
    with pytest.raises(tri.TrialityError):
        tri.fixed_subalgebra(m, require_order_3=True)
    dim, _ = tri.fixed_subalgebra(m)  # relaxed path works
    assert dim == 6


def test_fixed_subalgebra_rejects_a_fixed_space_not_closed_under_the_bracket():
    # fixes B0 = e1e2 and B1 = e1e3, whose bracket is a multiple of e2e3
    with pytest.raises(tri.TrialityError, match="not closed under the bracket"):
        tri.fixed_subalgebra(ExactMatrix.diagonal([1, 1] + [2] * 26))


def test_fixed_subalgebra_rejects_a_singular_map():
    m = ExactMatrix.diagonal([1] * 27 + [0])
    with pytest.raises(tri.TrialityError, match="singular"):
        tri.fixed_subalgebra(m, require_order_3=False)
    with pytest.raises(tri.TrialityError, match="order dividing 3"):
        tri.fixed_subalgebra(m, require_order_3=True)


def bivector(coords):
    return cl.CliffordElement(dict(zip(tri.bivector_masks(), coords)))


def test_bracket_coords_matches_the_clifford_commutator(rng):
    def commutator(u, v):
        a, b = bivector(u), bivector(v)
        return tri.bivector_coords(cl.clif_mul(a, b) - cl.clif_mul(b, a))

    def dense():
        return tuple(sampling.cyclo(rng) for _ in range(28))

    def single():
        k = rng.randrange(28)
        return tuple(sampling.cyclo(rng) if t == k else ZERO for t in range(28))

    zero = (ZERO,) * 28
    vectors = [dense() for _ in range(3)] + [single() for _ in range(4)] + [zero]
    assert sum(1 for c in vectors[0] if c) == 28
    for u in vectors:
        for v in vectors:
            assert tri.bracket_coords(u, v) == commutator(u, v)
    # full-orbit coordinates, and [u, c u] for an irrational c, whose terms
    # cancel to exact zero in every coordinate
    full = [tuple(sampling.cyclo(rng, terms=8) for _ in range(28)) for _ in range(2)]
    c = sampling.cyclo(rng, terms=8)
    assert not c.is_rational()
    pairs = [(full[0], full[1]), (full[1], vectors[4]), (full[0], tuple(c * x for x in full[0]))]
    for u, v in pairs:
        got, want = tri.bracket_coords(u, v), commutator(u, v)
        assert [(x.den, x.num) for x in got] == [(x.den, x.num) for x in want]
    assert any(tri.bracket_coords(*pairs[0])) and not any(tri.bracket_coords(*pairs[2]))


def test_drho_vector_matches_the_clifford_derivative(rng):
    """drho_vector against v -> b v - v b multiplied out in the Clifford
    algebra on each basis vector."""
    def clifford_drho(coords):
        b = bivector(coords)
        return ExactMatrix.from_columns([
            (cl.clif_mul(b, e) - cl.clif_mul(e, b)).coords(cl.VECTOR_MASKS)
            for e in map(cl.basis_vector, range(1, 9))])

    units = [tuple(ONE if t == k else ZERO for t in range(28)) for k in range(28)]
    full = [tuple(sampling.cyclo(rng, terms=8) for _ in range(28)) for _ in range(10)]
    assert not any(c.is_rational() for v in full for c in v)
    for coords in units + full:
        got, want = tri.drho_vector(coords), clifford_drho(coords)
        assert [(x.den, x.num) for x in got.entries] == [(x.den, x.num) for x in want.entries]
        assert got.transpose() == -got


def test_default_dtheta_rejects_a_derivative_that_is_not_skew(monkeypatch):
    drho_plus = tri.drho_plus
    monkeypatch.setattr(tri, "drho_plus", lambda b: drho_plus(b) + ExactMatrix.identity(8))
    tri.default_dtheta.cache_clear()
    try:
        with pytest.raises(tri.TrialityError, match="left the image of drho"):
            tri.default_dtheta()
    finally:
        tri.default_dtheta.cache_clear()


def test_so8_rows_are_antisymmetric():
    rows = tri.so8().rows
    assert len(rows) == 28 and sum(map(len, rows)) == 336
    for k, row in enumerate(rows):
        assert [l for l, _ in row] == sorted(l for l, _ in row) and k not in dict(row)
        for l, entries in row:
            assert dict(rows[l])[k] == tuple((r, -c) for r, c in entries)


def test_ad_on_bivectors_is_bracket_compatible(rng, dtheta):
    s = sampling.spin_element(rng, factors=2)
    ad = tri.ad_on_bivectors(s)
    u = tuple(ONE if t == 0 else ZERO for t in range(28))
    v = tuple(ONE if t == 9 else ZERO for t in range(28))
    assert ad.mat_vec(tri.bracket_coords(u, v)) == \
        tri.bracket_coords(ad.mat_vec(u), ad.mat_vec(v))


def test_ad_on_bivectors_matches_the_full_conjugation(rng):
    spins = [sampling.spin_element(rng) for _ in range(3)] + [cyclo_spin(rng) for _ in range(3)]
    assert any(not c.is_rational() for c in spins[-1].terms.values())
    for s in spins:
        sb = cl.bar(s)
        want = ExactMatrix.from_columns([
            tri.bivector_coords(cl.clif_mul(cl.clif_mul(s, cl.CliffordElement.blade(m)), sb))
            for m in tri.bivector_masks()])
        got = tri.ad_on_bivectors(s)
        assert [(c.den, c.num) for c in got.entries] == [(c.den, c.num) for c in want.entries]
    for bad in (cl.basis_vector(1), cl.CliffordElement.scalar(2),
                cl.CliffordElement({0: Fraction(3, 5), 0b1111: Fraction(4, 5)})):
        with pytest.raises(cl.CliffordError):
            tri.ad_on_bivectors(bad)


def test_bivector_coords_round_trip():
    masks = tri.bivector_masks()
    assert len(masks) == 28
    x = cl.CliffordElement({masks[3]: I, masks[17]: ONE})
    assert bivector(tri.bivector_coords(x)) == x
    with pytest.raises(tri.TrialityError):
        tri.bivector_coords(cl.CliffordElement.scalar(1))


def test_octonion_model_shift_factorization(rng):
    for _ in range(5):
        triple = tuple(ExactMatrix(8, 8, tuple(sampling.rational_cyclo(rng)
                                               for _ in range(64))) for _ in range(3))
        assert tri.octonion_sigma2(tri.octonion_sigma1(triple)) == \
            tri.octonion_theta_shift(triple)
    # the involutions really square to the identity
    triple = tuple(ExactMatrix(8, 8, tuple(sampling.rational_cyclo(rng)
                                           for _ in range(64))) for _ in range(3))
    assert tri.octonion_sigma1(tri.octonion_sigma1(triple)) == triple
    assert tri.octonion_sigma2(tri.octonion_sigma2(triple)) == triple


def test_dimension_gate():
    with pytest.raises(Exception):
        tri.validate_triality_map(
            tri.spinor_model(),
            tri.TrialityMap((0, 1, 2), (ExactMatrix.identity(7),) * 3))


# ---------------------------------------------------------------------------
# generic (non-default) unit choices
# ---------------------------------------------------------------------------

def random_unit_v1(rng):
    """i times a rational point of the unit sphere has q = +1."""
    from trialgebra import sampling
    v = sampling.unit_vector(rng).coords(cl.VECTOR_MASKS)
    return tuple(I * c for c in v)


def random_unit_x1(rng):
    """a*1 + b*w12 + c*w34 + d*w1234 has pairing 2ad - 2bc; solving for d
    gives a rational family of unit spinors."""
    from fractions import Fraction
    from trialgebra.exact_field import CycloNum
    while True:
        a = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        if a:
            break
    b = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
    c = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
    d = (Fraction(1, 2) + b * c) / a
    x = sp.SpinorElement({0b0000: CycloNum.rational(a), 0b0011: CycloNum.rational(b),
                          0b1100: CycloNum.rational(c), 0b1111: CycloNum.rational(d)})
    assert sp.pairing_N(x, x) == ONE
    return x


def use_random_units(monkeypatch, rng):
    """Make the construction read a random unit pair in place of its defaults."""
    v1, x1 = random_unit_v1(rng), random_unit_x1(rng)
    monkeypatch.setattr(tri, "default_v1", lambda: v1)
    monkeypatch.setattr(tri, "default_x1", lambda: x1)


def test_construction_works_for_generic_unit_choices(monkeypatch, rng):
    data = tri.spinor_model()
    for _ in range(3):
        use_random_units(monkeypatch, rng)
        i1 = tri.make_iota(1)
        i2 = tri.make_iota(2)
        assert tri.compose(i1, i1).is_identity()
        assert tri.compose(i2, i2).is_identity()
        assert tri.validate_triality_map(data, i1)
        assert tri.validate_triality_map(data, i2)
        th = tri.theta_prime()
        assert th.perm == (2, 0, 1)
        assert tri.compose(th, tri.compose(th, th)).is_identity()
        assert tri.validate_triality_map(data, th)


def test_dtheta_generic_choice_is_order_three_with_14_dim_fixed(dtheta, monkeypatch, rng):
    use_random_units(monkeypatch, rng)
    dth = tri.default_dtheta.__wrapped__()  # built afresh, not the cached default
    assert dth != dtheta
    eye = ExactMatrix.identity(28)
    assert dth @ dth @ dth == eye
    dim, _ = tri.fixed_subalgebra(dth, require_order_3=True)
    assert dim == 14


def test_fixed_subalgebra_brackets_each_pair_once(dtheta, monkeypatch):
    calls = []
    bracket_coords = tri.bracket_coords

    def counted(u, v):
        calls.append((u, v))
        return bracket_coords(u, v)

    monkeypatch.setattr(tri, "bracket_coords", counted)
    _, basis = tri.fixed_subalgebra(dtheta, require_order_3=True)
    index = {id(v): i for i, v in enumerate(basis)}
    assert sorted((index[id(u)], index[id(v)]) for u, v in calls) == \
        [(i, j) for i in range(14) for j in range(i + 1, 14)]  # 91 brackets


def test_fixed_subalgebra_certifies_the_order_with_one_small_product(dtheta, monkeypatch):
    shapes = []
    matmul = ExactMatrix.__matmul__

    def counted(a, b):
        shapes.append((a.rows, a.cols, b.rows, b.cols))
        return matmul(a, b)

    monkeypatch.setattr(ExactMatrix, "__matmul__", counted)
    tri.fixed_subalgebra(dtheta, require_order_3=True)
    assert shapes == [(14, 14, 14, 14)]  # N @ N on the 14-dimensional quotient


def test_order_certificate_agrees_with_the_cube(dtheta, rng):
    from trialgebra import endoscopy as endo

    eye = ExactMatrix.identity(28)

    def diagonal(root, coords):
        return ExactMatrix.diagonal([CycloNum.zeta(root) if t in coords else ONE
                                     for t in range(28)])

    def conjugate(s):
        return tri.ad_on_bivectors(s) @ dtheta @ tri.ad_on_bivectors(cl.bar(s))

    maps = [dtheta, dtheta @ dtheta,
            tri.ad_on_bivectors(endo.build_s0()) @ dtheta,
            tri.ad_on_bivectors(endo.build_s4prime()) @ dtheta,
            eye, -eye,
            diagonal(8, (0, 5, 27)), diagonal(4, (3, 9))]
    maps += [conjugate(cyclo_spin(rng)) for _ in range(3)]
    verdicts, ranks = [], []
    for m in maps:
        constraints = rref((m - eye).sparse_rows())
        n = tri._quotient_action(constraints, m)
        r = ExactMatrix(len(constraints), 28, tuple(
            row.get(col, ZERO) for row in constraints.values() for col in range(28)))
        assert r @ m == n @ r
        verdict = tri._order_divides_3(constraints, m)
        assert verdict == (m @ m @ m == eye)
        verdicts.append(verdict)
        ranks.append(n.rows)
    assert verdicts == [True, True, True, False, True, False, True, False, True, True, True]
    assert ranks == [14, 14, 20, 22, 0, 28, 3, 2, 14, 14, 14]


def add_term_contraction(t, m, axis):
    """The contraction of ``_contract_axis``, one product and one sum per term."""
    out = {}
    for key, c in t.items():
        for new in range(8):
            e = m.get(key[axis], new)
            if e:
                nk = list(key)
                nk[axis] = new
                add_term(out, tuple(nk), c * e)
    return out


def test_contract_axis_matches_the_term_by_term_fold(rng):
    t = tri.spinor_model().trilinear()
    mats = [ExactMatrix(8, 8, tuple(sampling.cyclo(rng, terms=8) for _ in range(64)))
            for _ in range(2)]
    for m in mats:
        for axis in range(3):
            got = tri._contract_axis(t, m, axis)
            want = add_term_contraction(t, m, axis)
            assert all(got.values())
            assert {k: (c.den, c.num) for k, c in got.items()} == \
                {k: (c.den, c.num) for k, c in want.items()}
    # rows 0 and 1 of m are equal, so c m[0][new] - c m[1][new] cancels exactly
    c = sampling.cyclo(rng, terms=8)
    row = [sampling.cyclo(rng, terms=8) for _ in range(8)]
    m = ExactMatrix.from_rows([row, row] + [[ZERO] * 8] * 6)
    cancelling = {(0, 2, 3): c, (1, 2, 3): -c, (0, 4, 5): c}
    got = tri._contract_axis(cancelling, m, 0)
    assert got == add_term_contraction(cancelling, m, 0)
    assert {key[1:] for key in got} == {(4, 5)} and len(got) == 8
