from fractions import Fraction

import pytest

from trialgebra import root_weyl as rw


def test_positive_roots_and_highest():
    assert rw.POSITIVE_ROOTS == ((1, 0), (0, 1), (1, 1), (2, 1), (3, 1), (3, 2))
    assert len(rw.all_roots()) == 12


def test_group_order_and_closure():
    g = rw.weyl_group()
    assert len(g) == 12
    mats = {w.mat for w in g}
    for a in g:
        for b in g:
            assert (a @ b).mat in mats
    assert any(w.is_identity() for w in g)


def test_generated_by_simple_reflections():
    # breadth-first closure of the two generators reaches all 12 elements
    seen = {rw.IDENTITY.mat}
    frontier = [rw.IDENTITY]
    while frontier:
        nxt = []
        for w in frontier:
            for s in (rw.S_ALPHA, rw.S_BETA):
                c = s @ w
                if c.mat not in seen:
                    seen.add(c.mat)
                    nxt.append(c)
        frontier = nxt
    assert len(seen) == 12


def test_longest_element_is_minus_identity():
    assert rw.longest_element().mat == ((-1, 0), (0, -1))


def test_longest_element_is_the_one_element_of_greatest_length():
    # a dihedral group of order 12: one element of each length 0 and 6, two of 1..5
    layers = rw._length_layers()
    assert [len(layer) for layer in layers] == [1, 2, 2, 2, 2, 2, 1]
    assert rw.longest_element() is layers[6][0]
    assert len(layers) - 1 == len(rw.POSITIVE_ROOTS)


def test_closure_of_an_infinite_group_stops_at_the_rank_2_bound(monkeypatch):
    # two involutions whose Cartan product 3 * 2 = 6 exceeds 3: no finite group
    monkeypatch.setattr(rw, "S_BETA", rw.WeylElement(((1, 0), (2, -1))))
    with pytest.raises(rw.RootSystemError, match="passed 12 elements"):
        rw._length_layers.__wrapped__()


def test_root_set_preserved():
    roots = set(rw.all_roots())
    for w in rw.weyl_group():
        assert {w.apply(r) for r in roots} == roots


def test_invariant_form_preserved():
    for w in rw.weyl_group():
        assert rw.preserves_gram(w)
    # long/short ratio is 3
    assert Fraction(rw.GRAM[1][1], rw.GRAM[0][0]) == 3


def test_simple_reflections_permute_other_positives():
    assert rw.simple_reflection_permutes_other_positives()


def test_regular_elements():
    regs = rw.regular_elements()
    assert len(regs) == 5
    assert rw.regular_det_multiset() == [1, 1, 3, 3, 4]
    # reflections (det(w) = -1) are all excluded
    for w, d in regs:
        m = w.mat
        assert m[0][0] * m[1][1] - m[0][1] * m[1][0] == 1
        assert d > 0
    # the half-turn contributes 4
    assert any(w.mat == ((-1, 0), (0, -1)) and d == 4 for w, d in regs)


def test_rotation_by_half_turn_det():
    w = rw.longest_element()
    assert abs(w.det_minus_one()) == 4


def test_inverse_sum():
    assert rw.regular_inverse_sum() == Fraction(35, 12)
    # derived independently: 1 + 1/3 + 1/4 + 1/3 + 1
    assert sum((Fraction(1, d) for d in (1, 3, 4, 3, 1)), Fraction(0)) == Fraction(35, 12)


def test_levi_coefficients():
    assert rw.levi_coefficient("GL2_short") == Fraction(1, 6)
    assert rw.levi_coefficient("GL2_long") == Fraction(1, 6)
    assert rw.levi_coefficient("T") == Fraction(1, 12)
    assert rw.levi_coefficient("GL2_twisted") == Fraction(1, 6)
    with pytest.raises(rw.RootSystemError):
        rw.levi_coefficient("SL7")


def test_gl2_regular_and_prefactor():
    name, d = rw.gl2_levi_regular()
    assert d == 2
    assert rw.gl2_term_prefactor() == Fraction(1, 12)


def test_cartan_determinants():
    assert rw.cartan_determinant("G2") == 1
    assert rw.cartan_determinant("A2") == 3
    assert rw.cartan_determinant("D4") == 4
    with pytest.raises(rw.RootSystemError):
        rw.cartan_determinant("E9")


def test_cartan_matrix_shape():
    assert rw.cartan_matrix("G2") == ((2, -1), (-3, 2))
    assert len(rw.cartan_matrix("D4")) == 4


def test_det_values_conjugation_invariant():
    assert rw.det_conjugation_invariant()


def test_modulus_exponents_documented():
    assert rw.MODULUS_CHARACTER_EXPONENTS == {"short_levi": 3, "long_levi": 5}
