from fractions import Fraction

import pytest

from trialgebra.exact_field import CycloNum, ExactMatrix, ZERO, ONE, TWO
from trialgebra import lie_tools
from trialgebra import octonion as oct
from trialgebra import sampling


def pairs(rng, n):
    return [(sampling.octonion(rng), sampling.octonion(rng)) for _ in range(n)]


def cross(u, v):
    return (u[1] * v[2] - u[2] * v[1],
            u[2] * v[0] - u[0] * v[2],
            u[0] * v[1] - u[1] * v[0])


def term_by_term_zorn(x, y):
    """The Zorn product one field operation at a time: the oracle for the
    fused ``zorn_mul``."""
    a, v, w, b = x.a, x.v, x.wstar, x.b
    c, u, z, d = y.a, y.v, y.wstar, y.b
    wz, vu = cross(w, z), cross(v, u)
    return (a * c + (z[0] * v[0] + z[1] * v[1] + z[2] * v[2]),
            *(a * u[k] + d * v[k] - wz[k] for k in range(3)),
            *(c * w[k] + b * z[k] + vu[k] for k in range(3)),
            b * d + (w[0] * u[0] + w[1] * u[1] + w[2] * u[2]))


def test_zorn_mul_matches_the_term_by_term_formula(rng):
    def sample():
        roll = rng.random()
        if roll < 0.15:
            return ZERO
        if roll < 0.3:
            return sampling.rational_cyclo(rng)
        return sampling.cyclo(rng, terms=8)

    def octonion():
        return oct.Octonion(sample(), (sample(), sample(), sample()),
                            (sample(), sample(), sample()), sample())

    for _ in range(40):
        x, y = octonion(), octonion()
        p = oct.zorn_mul(x, y)
        got = (p.a, *p.v, *p.wstar, p.b)
        assert [(g.den, g.num, g.nz) for g in got] == \
            [(t.den, t.num, t.nz) for t in term_by_term_zorn(x, y)]


def test_identity_element(rng):
    for x, _ in pairs(rng, 10):
        assert oct.zorn_mul(oct.IDENTITY, x) == x
        assert oct.zorn_mul(x, oct.IDENTITY) == x


def test_vector_times_vector_is_wedge():
    a = oct.Octonion.make(0, (1, 2, 3), (0, 0, 0), 0)
    b = oct.Octonion.make(0, (4, 5, 6), (0, 0, 0), 0)
    prod = oct.zorn_mul(a, b)
    assert prod.a == ZERO and prod.b == ZERO
    assert not any(prod.v)
    # cross product (1,2,3) x (4,5,6) = (-3, 6, -3)
    assert [c.rational_value() for c in prod.wstar] == [-3, 6, -3]


def test_norm_multiplicative(rng):
    for x, y in pairs(rng, 100):
        assert oct.norm(oct.zorn_mul(x, y)) == oct.norm(x) * oct.norm(y)


def test_norm_of_diagonal():
    x = oct.Octonion.make(3, (0, 0, 0), (0, 0, 0), 7)
    assert oct.norm(x) == CycloNum.rational(21)


def test_trace_of_unit():
    assert oct.trace(oct.IDENTITY) == TWO


def test_conjugation_involution(rng):
    for x, y in pairs(rng, 30):
        assert oct.conj(oct.conj(x)) == x
        assert oct.conj(oct.zorn_mul(x, y)) == oct.zorn_mul(oct.conj(y), oct.conj(x))


def test_x_times_conjugate_is_norm(rng):
    for x, _ in pairs(rng, 50):
        n = oct.Octonion.scalar(oct.norm(x))
        assert oct.zorn_mul(x, oct.conj(x)) == n
        assert oct.zorn_mul(oct.conj(x), x) == n


def test_polar_form_symmetric_bilinear(rng):
    for x, y in pairs(rng, 20):
        assert oct.b_norm(x, y) == oct.b_norm(y, x)
    x, y, z = (sampling.octonion(rng) for _ in range(3))
    assert oct.b_norm(x + y, z) == oct.b_norm(x, z) + oct.b_norm(y, z)


def test_trilinear_trace_cyclic(rng):
    assert oct.trilinear_trace(oct.IDENTITY, oct.IDENTITY, oct.IDENTITY) == TWO
    for _ in range(40):
        x, y, z = (sampling.octonion(rng) for _ in range(3))
        t = oct.trilinear_trace(x, y, z)
        assert t == oct.trilinear_trace(y, z, x) == oct.trilinear_trace(z, x, y)
        assert oct.trace(oct.zorn_mul(oct.zorn_mul(x, y), z)) == \
            oct.trace(oct.zorn_mul(x, oct.zorn_mul(y, z)))


def test_para_product_identities(rng):
    assert oct.para_mul(oct.IDENTITY, oct.IDENTITY) == oct.IDENTITY
    for x, y in pairs(rng, 100):
        nx = oct.norm(x)
        assert oct.para_mul(oct.para_mul(x, y), x) == y.scale(nx)
        assert oct.para_mul(x, oct.para_mul(y, x)) == y.scale(nx)
        assert oct.norm(oct.para_mul(x, y)) == nx * oct.norm(y)
    for _ in range(100):
        x, y, z = (sampling.octonion(rng) for _ in range(3))
        assert oct.b_norm(oct.para_mul(x, y), z) == oct.b_norm(x, oct.para_mul(y, z))


def test_octonion_model_triality_products_orthogonal(rng):
    for _ in range(30):
        x, y, z = (sampling.octonion(rng) for _ in range(3))
        t1 = oct.triality_t1(y, z)
        t2 = oct.triality_t2(x, z)
        t3 = oct.triality_t3(x, y)
        assert oct.triality_q1(t1, t1) == oct.triality_q2(y, y) * oct.triality_q3(z, z)
        assert oct.triality_q2(t2, t2) == oct.triality_q1(x, x) * oct.triality_q3(z, z)
        assert oct.triality_q3(t3, t3) == oct.triality_q1(x, x) * oct.triality_q2(y, y)


def test_spec_products_are_zorn_products(rng):
    spec = lie_tools.octonion_algebra_spec()

    def stored(vec):
        return [(x.den, x.num, x.nz) for x in vec]

    def full_orbit():
        return oct.from_coords([sampling.cyclo(rng, terms=8) for _ in range(8)])

    basis_pairs = [(x, y) for x in oct.FULL_BASIS for y in oct.FULL_BASIS]
    for x, y in basis_pairs + [(full_orbit(), full_orbit()) for _ in range(20)]:
        got = spec.product_coords(oct.coords(x), oct.coords(y))
        assert stored(got) == stored(oct.coords(oct.zorn_mul(x, y)))


def test_coords_round_trip(rng):
    for x, _ in pairs(rng, 10):
        assert oct.from_coords(oct.coords(x)) == x


# -- twisted 3x3 product ------------------------------------------------------

def okubo_samples(rng, n):
    return [oct.OkuboElement(sampling.tracefree_3x3(rng)) for _ in range(n)]


def test_okubo_zero_annihilates(rng):
    zero = oct.OkuboElement(ExactMatrix.zero(3, 3))
    y = okubo_samples(rng, 1)[0]
    assert oct.okubo_product(zero, y).m == ExactMatrix.zero(3, 3)
    assert oct.okubo_product(y, zero).m == ExactMatrix.zero(3, 3)


def test_okubo_calibration_selects_one_third():
    assert oct.calibrate_okubo_factor() == Fraction(1, 3)


def test_okubo_rejects_other_factors():
    with pytest.raises(ValueError):
        x = oct.OkuboElement(ExactMatrix.diagonal([1, -1, 0]))
        oct.okubo_mul(x, x, Fraction(1, 2))


def test_okubo_printed_factor_breaks_trace_zero():
    x = oct.OkuboElement(ExactMatrix.diagonal([1, -1, 0]))
    with pytest.raises(ValueError):
        # trace of the result is nonzero, so the constructor refuses it
        oct.okubo_mul(x, x, Fraction(1))


def test_okubo_calibration_rejects_a_product_that_is_no_composition(monkeypatch):
    # with mu = 1 the trace condition still solves to 1/3, but the product
    # xy - tr(xy)/3 does not multiply norms
    monkeypatch.setattr(oct, "MU", ONE)
    with pytest.raises(ArithmeticError, match="no composition"):
        oct.calibrate_okubo_factor.__wrapped__()


def test_okubo_composition_law(rng):
    xs = okubo_samples(rng, 12)
    count = 0
    for x in xs:
        for y in xs:
            p = oct.okubo_product(x, y)
            assert oct._mat_trace(p.m) == ZERO
            assert oct.okubo_norm(p) == oct.okubo_norm(x) * oct.okubo_norm(y)
            count += 1
    assert count >= 100


def test_okubo_symmetric_composition(rng):
    for _ in range(30):
        x, y = okubo_samples(rng, 2)
        n = oct.okubo_norm(x)
        lhs = oct.okubo_product(oct.okubo_product(x, y), x)
        rhs = oct.okubo_product(x, oct.okubo_product(y, x))
        want = oct.OkuboElement(x.m.zero(3, 3) + y.m.scale(n))
        assert lhs.m == want.m and rhs.m == want.m


def test_automorphism_test_reads_the_cached_spec(monkeypatch):
    spec = lie_tools.octonion_algebra_spec()
    calls = []
    zorn_mul = oct.zorn_mul
    monkeypatch.setattr(oct, "zorn_mul", lambda x, y: calls.append(1) or zorn_mul(x, y))
    assert lie_tools.octonion_algebra_spec() is spec
    assert lie_tools.is_automorphism(spec, ExactMatrix.identity(8))
    lie_tools.find_automorphism_ordering(lie_tools.S4_TUPLE)
    assert calls == []  # every product comes from the spec's rows
