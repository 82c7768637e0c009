from fractions import Fraction

import pytest

from trialgebra.exact_field import ExactMatrix, ZERO, ONE, OMEGA
from trialgebra import clifford as cl
from trialgebra import triality as tri
from trialgebra import endoscopy as endo
from trialgebra import octonion as oct
from trialgebra import sampling
from trialgebra import root_weyl as rw


def test_s0_factors_commute():
    assert endo.s0_factors_commute()


def test_s0_is_spin_with_order_three_image():
    s0 = endo.build_s0()
    assert cl.is_spin(s0)
    m = cl.vector_rep(s0)
    assert m @ m @ m == ExactMatrix.identity(8)
    assert m != ExactMatrix.identity(8)


def test_s0_printed_diagonal():
    d = endo.rho_s0_paired_diagonal()
    w = OMEGA
    wi = OMEGA * OMEGA
    assert d == ExactMatrix.diagonal([ONE, w, wi, ONE, ONE, wi, w, ONE])
    assert d == endo.expected_s0_diagonal()


def test_s0_printed_diagonal_sees_the_direction_of_each_plane(monkeypatch):
    # both planes turned the same way: the third and seventh slots swap
    flipped = cl.bivector_exp([(Fraction(1, 3), endo.S0_BLADES[0]),
                               (Fraction(1, 3), endo.S0_BLADES[1])])
    monkeypatch.setattr(endo, "build_s0", lambda: flipped)
    d = endo.rho_s0_paired_diagonal()
    w, wi = OMEGA, OMEGA * OMEGA
    assert d == ExactMatrix.diagonal([ONE, w, w, ONE, ONE, wi, wi, ONE])
    assert d != endo.expected_s0_diagonal()


def test_s4prime_printed_reading_invariants():
    s = endo.build_s4prime_printed()
    assert cl.is_spin(s)
    m = cl.vector_rep(s)
    # the printed product is a permutation-like element of order 3, so the
    # claimed eighth-power identity fails for it
    assert m @ m @ m == ExactMatrix.identity(8)
    assert (m ** 8) != ExactMatrix.identity(8)


def test_s4prime_calibration():
    assert endo.s4prime_calibration() == Fraction(-1, 2)
    s = endo.build_s4prime()
    assert cl.is_spin(s)
    assert (cl.vector_rep(s) ** 8) == ExactMatrix.identity(8)
    # the calibrated element is an involution up to sign conventions
    sq = cl.clif_mul(s, s)
    assert sq == cl.CliffordElement.scalar(1)


def test_twisted_fixed_dimensions(dtheta):
    dims = endo.twisted_fixed_dimensions()
    assert dims == {"G2": 14, "SO4": 6, "SL3": 8}
    assert endo.s4prime_printed_fixed_dim() == 2


def test_twisted_fixed_bases(dtheta):
    """Each basis is fixed by its own map Ad(s) dtheta, and the dimensions
    are the ones twisted_fixed_dimensions reports."""
    bases = endo.twisted_fixed_bases()
    assert list(bases) == [d.name for d in endo.TWISTED_DATA]
    assert {k: len(v) for k, v in bases.items()} == endo.twisted_fixed_dimensions()
    maps = {"G2": dtheta,
            "SL3": tri.ad_on_bivectors(endo.build_s0()) @ dtheta,
            "SO4": tri.ad_on_bivectors(endo.build_s4prime()) @ dtheta}
    for name, basis in bases.items():
        assert all(maps[name].mat_vec(v) == tuple(v) for v in basis), name


def test_twisted_fixed_spaces_bracket_closed(dtheta):
    # fixed_subalgebra itself raises if closure fails; run all three
    tri.fixed_subalgebra(dtheta, require_order_3=True)
    tri.fixed_subalgebra(tri.ad_on_bivectors(endo.build_s0()) @ dtheta,
                         require_order_3=True)
    tri.fixed_subalgebra(tri.ad_on_bivectors(endo.build_s4prime()) @ dtheta)


def test_coefficient_formula():
    c = endo.CoefficientInput(1, 1, 1, 1, 1)
    assert endo.iota_coefficient(c) == Fraction(1)
    c = endo.CoefficientInput(ker1_G=1, ker1_Gprime=1, z_hat_gamma=3, out_order=1)
    assert endo.iota_coefficient(c) == Fraction(1, 3)
    c = endo.CoefficientInput(ker1_G=2, ker1_Gprime=4, z_hat_gamma=3, out_order=2,
                              pi0_kappa=5)
    assert endo.iota_coefficient(c) == Fraction(4, 2 * 3 * 2 * 5)


def test_coefficient_input_validation():
    with pytest.raises(endo.EndoscopyError):
        endo.CoefficientInput(0, 1, 1, 1, 1)


def test_twisted_coefficients_match_display():
    assert endo.twisted_coefficients() == {"G2": Fraction(1), "SO4": Fraction(1, 4),
                                           "SL3": Fraction(1, 3)}


def test_coefficient_tables():
    assert {name: endo.iota_coefficient(c) for name, c in endo.STANDARD_CANDIDATES.items()} \
        == {"PGL3": Fraction(1, 6), "SO4": Fraction(1, 2)}
    assert [d.center_type for d in endo.TWISTED_DATA] == ["G2", "D4", "A2"]
    assert endo.twisted_coefficients() == {
        d.name: Fraction(1, rw.cartan_determinant(d.center_type)) for d in endo.TWISTED_DATA}


def test_order_3_flags_and_expected_dimensions(dtheta):
    """Each datum's flag says whether Ad(s) dtheta cubes to 1, computed here
    from the cube itself, and each expected dimension is the computed one."""
    identity = ExactMatrix.identity(28)
    dims = endo.twisted_fixed_dimensions()
    for d in endo.TWISTED_DATA:
        m = tri.ad_on_bivectors(d.build()) @ dtheta
        assert d.order_3 == (m @ m @ m == identity), d.name
        assert d.expected_fixed_dim == dims[d.name], d.name


def test_xi3_embed_examples():
    assert endo.xi3_embed(ExactMatrix.identity(3)) == ExactMatrix.identity(7)
    x = ExactMatrix.from_rows([[-1, 0, 0], [0, -1, 0], [0, 0, 1]])
    assert endo.xi3_embed(x) == ExactMatrix.diagonal([-1, -1, 1, 1, -1, -1, 1])


def test_xi3_embed_multiplicative(rng):
    for _ in range(8):
        a = sampling.unimodular(rng, 3)
        b = sampling.unimodular(rng, 3)
        assert endo.xi3_embed(a) @ endo.xi3_embed(b) == endo.xi3_embed(a @ b)


def test_xi3_rejects_non_unimodular():
    with pytest.raises(endo.EndoscopyError):
        endo.xi3_embed(ExactMatrix.diagonal([2, 1, 1]))


def test_xi3_octonion_automorphism(rng):
    for _ in range(5):
        a = sampling.unimodular(rng, 3)
        m = endo.xi3_as_octonion_automorphism(a)
        assert m.get(0, 0) == ONE  # unit line fixed


def test_quaternion_subalgebra_is_split():
    # the fixed quaternion basis multiplies like 2x2 matrix units
    e11, e22, v1, w1 = endo.QUAT_BASIS
    assert oct.zorn_mul(v1, w1) == e11
    assert oct.zorn_mul(w1, v1) == e22
    assert oct.zorn_mul(e11, v1) == v1
    assert oct.zorn_mul(v1, e22) == v1
    assert oct.norm(endo.ELL) == ONE
    for q in endo.QUAT_BASIS:
        assert oct.b_norm(q, endo.ELL) == ZERO


def test_so4_action_identity_and_kernel():
    eye2 = ExactMatrix.identity(2)
    assert endo.so4_action(eye2, eye2) == ExactMatrix.identity(8)
    assert endo.so4_action(eye2.scale(-1), eye2.scale(-1)) == ExactMatrix.identity(8)
    assert endo.so4_action(eye2, eye2.scale(-1)) != ExactMatrix.identity(8)
    assert endo.so4_action(eye2.scale(-1), eye2) != ExactMatrix.identity(8)


def test_so4_action_is_automorphism(rng):
    for _ in range(6):
        x1 = sampling.unimodular(rng, 2)
        x2 = sampling.unimodular(rng, 2)
        m = endo.so4_action(x1, x2)  # raises if not an automorphism
        assert m.get(0, 0) == ONE


def test_so4_action_multiplicative(rng):
    a1, a2 = sampling.unimodular(rng, 2), sampling.unimodular(rng, 2)
    b1, b2 = sampling.unimodular(rng, 2), sampling.unimodular(rng, 2)
    assert endo.so4_action(a1 @ b1, a2 @ b2) == \
        endo.so4_action(a1, a2) @ endo.so4_action(b1, b2)


def so4_by_decomposition(x1, x2):
    """The quaternion-pair automorphism built by decomposition: each
    complement basis vector x is split as x = b * ell by a linear solve, and
    sent to (x2 b conj(x1)) * ell."""
    q1, q2 = endo.quaternion_of_matrix(x1), endo.quaternion_of_matrix(x2)
    q1c = oct.conj(q1)
    times_ell = ExactMatrix.from_columns([oct.coords(oct.zorn_mul(q, endo.ELL))
                                          for q in endo.QUAT_BASIS])
    cols = [oct.coords(oct.zorn_mul(oct.zorn_mul(q1, u), q1c)) for u in endo.QUAT_BASIS]
    comp_basis = (oct.V_BASIS[1], oct.V_BASIS[2], oct.W_BASIS[1], oct.W_BASIS[2])
    for x in comp_basis:
        e11_c, e22_c, v1_c, w1_c = times_ell.solve_many([oct.coords(x)])[0]
        b = oct.Octonion(e11_c, (v1_c, ZERO, ZERO), (w1_c, ZERO, ZERO), e22_c)
        cols.append(oct.coords(oct.zorn_mul(oct.zorn_mul(oct.zorn_mul(q2, b), q1c), endo.ELL)))
    change = ExactMatrix.from_columns([oct.coords(u) for u in (*endo.QUAT_BASIS, *comp_basis)])
    return ExactMatrix.from_columns(cols) @ change.inverse()


def test_so4_action_matches_the_complement_decomposition(rng):
    for _ in range(6):
        x1, x2 = sampling.unimodular(rng, 2), sampling.unimodular(rng, 2)
        assert endo.so4_action(x1, x2) == so4_by_decomposition(x1, x2)


def test_so4_action_rejects_non_unit():
    # the norm guard itself must refuse, not the automorphism test behind it
    eye2, non_unit = ExactMatrix.identity(2), ExactMatrix.diagonal([2, 1])
    for x1, x2 in ((non_unit, eye2), (eye2, non_unit)):
        with pytest.raises(endo.EndoscopyError, match="both quaternions must have norm 1"):
            endo.so4_action(x1, x2)


def test_fixed_subalgebra_diagnostics(dtheta):
    from trialgebra import lie_tools as lt
    _, basis = tri.fixed_subalgebra(tri.ad_on_bivectors(endo.build_s0()) @ dtheta,
                                    require_order_3=True)
    mats = [tri.drho_vector(v) for v in basis]
    assert lt.algebra_diagnostic(mats).consistent_with() == "semisimple type A2"
    _, basis = tri.fixed_subalgebra(tri.ad_on_bivectors(endo.build_s4prime()) @ dtheta)
    mats = [tri.drho_vector(v) for v in basis]
    assert lt.algebra_diagnostic(mats).consistent_with() == "semisimple type A1 x A1"
