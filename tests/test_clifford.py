from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from trialgebra.exact_field import CycloNum, ExactMatrix, ZERO, ONE
from trialgebra import clifford as cl
from trialgebra import sampling

e = cl.basis_vector


# ---------------------------------------------------------------------------
# independent oracle: blade multiplication by explicit index-list bookkeeping
# ---------------------------------------------------------------------------

def oracle_blade_mul(mask_a, mask_b):
    """Multiply e_A e_B by concatenating index lists and bubbling adjacent
    factors into sorted order, counting sign flips and contracting squares
    e_i e_i = -1."""
    seq = [i for i in range(8) if mask_a >> i & 1] + \
          [i for i in range(8) if mask_b >> i & 1]
    sign = 1
    changed = True
    while changed:
        changed = False
        k = 0
        while k + 1 < len(seq):
            if seq[k] > seq[k + 1]:
                seq[k], seq[k + 1] = seq[k + 1], seq[k]
                sign = -sign
                changed = True
            elif seq[k] == seq[k + 1]:
                sign = -sign
                del seq[k:k + 2]
                changed = True
            else:
                k += 1
    mask = 0
    for i in seq:
        mask |= 1 << i
    return mask, sign


def library_blade_mul(mask_a, mask_b):
    prod = cl.clif_mul(cl.CliffordElement.blade(mask_a), cl.CliffordElement.blade(mask_b))
    assert len(prod.terms) == 1
    ((mask, coeff),) = prod.terms.items()
    assert coeff in (ONE, -ONE)
    return mask, 1 if coeff == ONE else -1


def test_blade_products_match_oracle_exhaustive_low_dim():
    for a in range(16):
        for b in range(16):
            assert library_blade_mul(a, b) == oracle_blade_mul(a, b)


def test_blade_products_match_oracle_exhaustive_dim_8():
    for a in range(256):
        for b in range(256):
            assert library_blade_mul(a, b) == oracle_blade_mul(a, b)


def oracle_clif_mul(x_terms, y_terms):
    """Multivector product by summing oracle blade products term by term."""
    out = {}
    for ma, ca in x_terms.items():
        for mb, cb in y_terms.items():
            m, s = oracle_blade_mul(ma, mb)
            out[m] = out.get(m, ZERO) + ca * cb * CycloNum.rational(s)
    return {m: c for m, c in out.items() if c}


def test_products_match_oracle_on_cyclotomic_coefficients(rng):
    """Sparse and full-orbit coefficients, and products whose 2-blade terms
    cancel exactly: (e1 + e2)^2 = -2 and (1 + e12)(1 - e12) = 2."""
    def sample(terms, most):
        return {rng.randrange(256): sampling.cyclo(rng, terms=terms)
                for _ in range(rng.randint(1, most))}

    a, b = sampling.cyclo(rng, terms=8), sampling.cyclo(rng, terms=8)
    cases = [({0b1: a, 0b10: a}, {0b1: b, 0b10: b}), ({0: a, 0b11: a}, {0: b, 0b11: -b})]
    cases += [(sample(2, 4), sample(2, 4)) for _ in range(200)]
    cases += [(sample(8, 6), sample(8, 6)) for _ in range(60)]
    for xt, yt in cases:
        got = cl.clif_mul(cl.CliffordElement(xt), cl.CliffordElement(yt)).terms
        assert got == oracle_clif_mul(xt, yt)
        assert all(got.values())
    assert [cl.clif_mul(cl.CliffordElement(x), cl.CliffordElement(y)).terms.keys()
            for x, y in cases[:2]] == [{0}, {0}]


def restricted_norm_is_one(x):
    return cl._blade_sums(x.terms, cl.bar(x).terms, cl._NORM_MASKS) == {0: ONE}


def test_norm_test_reads_only_grades_0_4_8_and_agrees_with_the_full_product(rng):
    cases = [cl.CliffordElement({0: Fraction(3, 5), 0b1111: Fraction(4, 5)}),
             cl.CliffordElement({0: Fraction(3, 5), 0xFF: Fraction(4, 5)})]
    for x in cases:  # x bar(x) = 1 + 24/25 e_A: scalar part 1, grade 4 or 8 part not 0
        full = cl.clif_mul(x, cl.bar(x))
        assert full.coefficient(0) == ONE and len(full.terms) == 2
        assert not restricted_norm_is_one(x)
    for k in (1, 2, 3, 4):
        x = cl.CliffordElement.scalar(1)
        for _ in range(k):
            x = cl.clif_mul(x, sampling.unit_vector(rng))
        cases += [x, x.scale(2), x + cl.CliffordElement.blade(0xF0 if k % 2 == 0 else 0x70)]
    cases += [sampling.spin_element(rng), eight_term_spin_element(rng),
              norm_one_non_pin(), cl.CliffordElement.scalar(-1)]
    for parity in (0, 1):
        masks = [m for m in range(256) if m.bit_count() % 2 == parity]
        cases += [cl.CliffordElement({rng.choice(masks): sampling.cyclo(rng, terms=8)
                                      for _ in range(4)}) for _ in range(5)]
    verdicts = set()
    for x in cases:
        assert x.parity() is not None
        full = cl.clif_mul(x, cl.bar(x))
        assert full.terms.keys() <= cl._NORM_MASKS
        assert restricted_norm_is_one(x) == (full == cl.CliffordElement.scalar(1))
        verdicts.add(full == cl.CliffordElement.scalar(1))
    assert verdicts == {True, False}


def eight_term_spin_element(rng):
    """A product of three one-plane exponentials at angles k pi/12, k prime
    to 12, kept when it has eight blade terms; its coefficients are
    irrational points of Q(zeta_24)."""
    while True:
        x = cl.CliffordElement.scalar(1)
        for _ in range(3):
            i, j = rng.sample(range(8), 2)
            angle = Fraction(rng.choice((1, 5, 7, 11)), 12)
            x = cl.clif_mul(x, cl.bivector_exp([(angle, (1 << i) | (1 << j))]))
        if len(x.terms) == 8:
            return x


def test_products_of_spin_elements_match_oracle_blade_by_blade(rng):
    for _ in range(4):
        x, y = eight_term_spin_element(rng), eight_term_spin_element(rng)
        assert cl.is_spin(x) and cl.is_spin(y)
        assert any(not c.is_rational() for c in x.terms.values())
        got = cl.clif_mul(x, y).terms
        want = oracle_clif_mul(x.terms, y.terms)
        assert got.keys() == want.keys()
        for m, c in want.items():
            assert (got[m].den, got[m].num, got[m].nz) == (c.den, c.num, c.nz)
        assert cl.vector_rep(x) == reference_vector_rep(x)


def test_generator_relations():
    assert cl.clif_mul(e(1), e(1)) == cl.CliffordElement.scalar(-1)
    for i in range(1, 9):
        for j in range(i + 1, 9):
            anti = cl.clif_mul(e(i), e(j)) + cl.clif_mul(e(j), e(i))
            assert not anti.terms


def test_blade_contraction_example():
    e12 = cl.clif_mul(e(1), e(2))
    assert cl.clif_mul(e12, e(1)) == e(2)


def test_vector_squares_to_q(rng):
    for _ in range(20):
        v = sampling.unit_vector(rng)
        assert cl.clif_mul(v, v) == cl.CliffordElement.scalar(-1)
    w = cl.vector([CycloNum.rational(2), *(ZERO,) * 7])
    assert cl.clif_mul(w, w) == cl.CliffordElement.scalar(-4)


@settings(max_examples=30, derandomize=True)
@given(st.lists(st.tuples(st.integers(0, 255), st.fractions(min_value=-4, max_value=4, max_denominator=3)),
                min_size=1, max_size=3),
       st.lists(st.tuples(st.integers(0, 255), st.fractions(min_value=-4, max_value=4, max_denominator=3)),
                min_size=1, max_size=3),
       st.lists(st.tuples(st.integers(0, 255), st.fractions(min_value=-4, max_value=4, max_denominator=3)),
                min_size=1, max_size=3))
def test_associativity(ta, tb, tc):
    mk = lambda t: cl.CliffordElement({m: CycloNum.rational(c) for m, c in t})
    x, y, z = mk(ta), mk(tb), mk(tc)
    assert cl.clif_mul(cl.clif_mul(x, y), z) == cl.clif_mul(x, cl.clif_mul(y, z))


def test_involutions():
    e12 = cl.clif_mul(e(1), e(2))
    assert cl.grade_involution(e12) == e12
    assert cl.grade_involution(e(1)) == -e(1)
    assert cl.transpose(e12) == -e12
    e123 = cl.CliffordElement.blade(0b111)
    assert cl.transpose(e123) == -e123
    assert cl.bar(e123) == cl.transpose(cl.grade_involution(e123))
    assert cl.bar(e123) == cl.grade_involution(cl.transpose(e123))


def test_bar_is_anti_automorphism(rng):
    for _ in range(25):
        x, y = sampling.multivector(rng), sampling.multivector(rng)
        assert cl.bar(cl.clif_mul(x, y)) == cl.clif_mul(cl.bar(y), cl.bar(x))


def norm_one_non_pin():
    """3/5 + 4/5 e1...e6: x bar(x) = 1, but conjugating e1 by it leaves V."""
    return cl.CliffordElement({0: Fraction(3, 5), 0b111111: Fraction(4, 5)})


def reference_vector_rep(x):
    """vector_rep by the full products iota(x) e_i bar(x), each required to
    be a vector."""
    gx, bx = cl.grade_involution(x), cl.bar(x)
    return ExactMatrix.from_columns(
        [cl.clif_mul(cl.clif_mul(gx, e(i)), bx).coords(cl.VECTOR_MASKS) for i in range(1, 9)])


def test_pin_and_spin_predicates():
    e12 = cl.clif_mul(e(1), e(2))
    assert cl.is_spin(e12)
    assert cl.is_pin(e(1))
    assert not cl.is_spin(e(1))
    assert not cl.is_spin(cl.CliffordElement.scalar(1) + e(1))
    assert not cl.is_pin(cl.CliffordElement.scalar(0))
    assert not cl.is_pin(cl.CliffordElement.scalar(2))
    x = norm_one_non_pin()
    assert cl.clif_mul(x, cl.bar(x)) == cl.CliffordElement.scalar(1)
    assert not cl.is_pin(x)
    assert not cl.is_spin(x)


def test_pin_spin_of_unit_vector_products(rng):
    for k in (2, 3, 4, 5, 6):
        x = cl.CliffordElement.scalar(1)
        for _ in range(k):
            x = cl.clif_mul(x, sampling.unit_vector(rng))
        assert cl.is_pin(x)
        assert cl.is_spin(x) == (k % 2 == 0)
        m = cl.vector_rep(x)
        assert m == reference_vector_rep(x)
        assert cl.is_q_orthogonal(m)
        assert m.det() == (ONE if k % 2 == 0 else -ONE)


def test_vector_rep_matches_full_conjugation():
    beyond_q = [cl.bivector_exp([(Fraction(1, 12), 0b11), (Fraction(5, 12), 0b1100)]),
                cl.bivector_exp([(Fraction(5, 12), 0b100100), (Fraction(-1, 12), 0b10010000)])]
    assert all(any(not c.is_rational() for c in x.terms.values()) for x in beyond_q)
    odd = cl.CliffordElement.scalar(1)
    for coords in ((Fraction(3, 5), Fraction(4, 5)),  # q(v) = -1 each
                   (0, 0, Fraction(2, 3), Fraction(-2, 3), Fraction(1, 3)),
                   (Fraction(1, 2), 0, Fraction(-1, 2), 0, Fraction(1, 2), 0, 0, Fraction(1, 2))):
        odd = cl.clif_mul(odd, cl.vector([CycloNum.rational(c) for c in coords]))
    assert cl.is_pin(odd) and not cl.is_spin(odd)
    for x in (*beyond_q, odd):
        m = cl.vector_rep(x)
        assert m == reference_vector_rep(x)
        assert cl.is_q_orthogonal(m)
    assert cl.vector_rep(odd).det() == -ONE


def test_vector_rep_examples():
    assert cl.vector_rep(cl.CliffordElement.scalar(1)) == ExactMatrix.identity(8)
    assert cl.vector_rep(cl.CliffordElement.scalar(-1)) == ExactMatrix.identity(8)
    e12 = cl.clif_mul(e(1), e(2))
    assert cl.vector_rep(e12) == ExactMatrix.diagonal([-1, -1, 1, 1, 1, 1, 1, 1])


def test_vector_rep_via_oracle():
    # expand iota(x) e_j bar(x) with the oracle multiplier for x = e1 e2
    x = [(0b11, 1)]  # mask, coeff
    for j in range(8):
        acc = {}
        for mx, cx in x:
            # iota(e1e2) = e1e2; bar(e1e2) = -e1e2
            m1, s1 = oracle_blade_mul(mx, 1 << j)
            m2, s2 = oracle_blade_mul(m1, 0b11)
            acc[m2] = acc.get(m2, 0) + cx * s1 * s2 * (-1)
        col = cl.vector_rep(cl.CliffordElement.blade(0b11)).column(j)
        for i in range(8):
            want = acc.get(1 << i, 0)
            assert col[i] == CycloNum.rational(want)


def test_vector_rep_homomorphism(rng):
    for _ in range(5):
        a = sampling.spin_element(rng, factors=2)
        b = sampling.spin_element(rng, factors=4)
        assert cl.vector_rep(cl.clif_mul(a, b)) == cl.vector_rep(a) @ cl.vector_rep(b)


def test_vector_rep_requires_pin():
    with pytest.raises(cl.CliffordError):
        cl.vector_rep(cl.CliffordElement.scalar(1) + e(1))
    with pytest.raises(cl.CliffordError):
        cl.vector_rep(norm_one_non_pin())


def test_center_element_checks():
    eta, checks = cl.center_elements()
    assert eta == cl.CliffordElement.blade(0xFF)
    assert checks["commutes_with_even_blades"]
    assert checks["anticommutes_with_vectors"]
    assert checks["square_is_plus_one"]
    # eta e1 + e1 eta = 0
    assert not (cl.clif_mul(eta, e(1)) + cl.clif_mul(e(1), eta)).terms
    assert cl.clif_mul(eta, cl.clif_mul(e(1), e(2))) == cl.clif_mul(cl.clif_mul(e(1), e(2)), eta)


def test_volume_element_vector_rep_is_minus_identity():
    # the published center table claims the identity here; exact computation
    # and the reflection-product argument both give minus the identity
    eta, _ = cl.center_elements()
    assert cl.vector_rep(eta) == ExactMatrix.identity(8).scale(-1)


def test_bivector_exp_examples():
    assert cl.bivector_exp([(Fraction(1, 2), 0b11)]) == cl.clif_mul(e(1), e(2))
    assert cl.bivector_exp([(Fraction(0), 0b11)]) == cl.CliffordElement.scalar(1)
    x = cl.bivector_exp([(Fraction(1, 3), 0b100010), (Fraction(-1, 3), 0b1000100)])
    assert cl.is_spin(x)


def test_bivector_exp_preconditions():
    from trialgebra.exact_field import FieldError
    with pytest.raises(cl.CliffordError):
        cl.bivector_exp([(Fraction(1, 4), 0b111)])  # not a 2-blade
    with pytest.raises(cl.CliffordError):
        cl.bivector_exp([(Fraction(1, 4), 0b11), (Fraction(1, 4), 0b110)])  # share one index
    with pytest.raises(FieldError):
        cl.bivector_exp([(Fraction(1, 8), 0b11)])  # angle outside the field
