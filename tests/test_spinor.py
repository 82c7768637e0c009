import pytest

from trialgebra.exact_field import ExactMatrix, ZERO, ONE, I, rref
from trialgebra import clifford as cl
from trialgebra import spinor as sp
from trialgebra import sampling
from trialgebra.triality import q_vec


def _wedge_and_contraction(k, m):
    """(w_k ^ b, d_k b) for the basis blade b with mask m, built from scratch:
    w_k moves past each w_j with j < k present in b, one sign each."""
    sign = 1
    for j in range(1, k):
        if m >> (j - 1) & 1:
            sign = -sign
    bit = 1 << (k - 1)
    if m & bit:
        return sp.SpinorElement({}), sp.SpinorElement.blade(m ^ bit, sign)
    return sp.SpinorElement.blade(m | bit, sign), sp.SpinorElement({})


def generator_walk_action(x, s):
    """The module action by walking each blade's generators, rightmost first,
    with per-generator tables of mask -> (image mask, coefficient): e_(k+1)
    for k < 4 is -i (wedge + contraction), e_(k+5) is wedge - contraction,
    each signed by the indices below k that the mask holds."""
    def table(i):
        bit = 1 << (i % 4)
        out = {}
        for m in range(16):
            sg = -ONE if (m & (bit - 1)).bit_count() & 1 else ONE
            out[m] = (m ^ bit, -I * sg if i < 4 else (-sg if m & bit else sg))
        return out

    total = sp.SpinorElement({})
    for cmask, ccoef in x.terms.items():
        cur = dict(s.terms)
        for i in reversed([i for i in range(8) if cmask >> i & 1]):
            t = table(i)
            cur = {t[m][0]: c * t[m][1] for m, c in cur.items()}
        total = total + sp.SpinorElement(cur).scale(ccoef)
    return total


def test_blade_tables_match_the_generator_walk_on_every_blade_and_mask(rng):
    for cmask in range(256):
        x = cl.CliffordElement.blade(cmask, sampling.cyclo(rng, terms=8))
        for m in range(16):
            s = sp.SpinorElement.blade(m, sampling.cyclo(rng, terms=8))
            got = sp.clifford_action(x, s)
            assert got == generator_walk_action(x, s)
            assert len(got.terms) == 1 and all(got.terms.values())
    for _ in range(20):
        x = cl.CliffordElement({rng.randrange(256): sampling.cyclo(rng, terms=8)
                                for _ in range(5)})
        s = sp.SpinorElement({rng.randrange(16): sampling.cyclo(rng, terms=8)
                              for _ in range(5)})
        assert sp.clifford_action(x, s) == generator_walk_action(x, s)
    v, one = cl.CliffordElement({0b1: ONE, 0b10: ONE}), sp.SpinorElement.one()
    assert sp.clifford_action(v, sp.clifford_action(v, one)) == one.scale(-2)  # terms cancel


def test_generators_act_as_wedge_and_contraction():
    # e_k = -i (w_k + d_k) and e_{k+4} = w_k - d_k on every basis spinor
    for k in range(1, 5):
        for m in range(16):
            wedge, contract = _wedge_and_contraction(k, m)
            s = sp.SpinorElement.blade(m)
            assert sp.clifford_action(cl.basis_vector(k), s) == (wedge + contract).scale(-I)
            assert sp.clifford_action(cl.basis_vector(k + 4), s) == wedge - contract


def test_generator_actions_square_correctly():
    # lambda(e_i)^2 = q(e_i) = -1 on every basis spinor
    for i in range(1, 9):
        for m in range(16):
            s = sp.SpinorElement.blade(m)
            twice = sp.clifford_action(cl.basis_vector(i),
                                       sp.clifford_action(cl.basis_vector(i), s))
            assert twice == s.scale(-1)


def test_clifford_relation_on_random_vectors(rng):
    for _ in range(50):
        u, v = sampling.vec8(rng), sampling.vec8(rng)
        s = sampling.spinor(rng)
        lhs = sp.vector_action(u, sp.vector_action(v, s)) + \
            sp.vector_action(v, sp.vector_action(u, s))
        b_q = q_vec(u, v) + q_vec(v, u)
        assert lhs == s.scale(b_q)


def test_module_law(rng):
    for _ in range(30):
        x, y = sampling.multivector(rng), sampling.multivector(rng)
        s = sampling.spinor(rng)
        assert sp.clifford_action(cl.clif_mul(x, y), s) == \
            sp.clifford_action(x, sp.clifford_action(y, s))


def test_blade_actions_linearly_independent():
    rows = []
    for cm in range(256):
        bl = cl.CliffordElement.blade(cm)
        row = {}
        for m in range(16):
            img = sp.clifford_action(bl, sp.SpinorElement.blade(m))
            for m2, c in img.terms.items():
                row[m * 16 + m2] = c
        rows.append(row)
    assert len(rref(rows)) == 256


def test_half_spin_labels_match_published_center_table():
    assert sp.plus_masks() == sp.EVEN_MASKS
    eta = cl.CliffordElement.blade(0xFF)
    plus, minus = sp.half_spin_matrices(eta)
    assert plus == ExactMatrix.identity(8)
    assert minus == ExactMatrix.identity(8).scale(-1)
    plus, minus = sp.half_spin_matrices(cl.CliffordElement.scalar(-1))
    assert plus == ExactMatrix.identity(8).scale(-1)
    assert minus == ExactMatrix.identity(8).scale(-1)
    p1, m1 = sp.half_spin_matrices(cl.CliffordElement.scalar(1))
    assert p1 == ExactMatrix.identity(8) and m1 == ExactMatrix.identity(8)


def test_half_spin_multiplicative(rng):
    a = sampling.spin_element(rng, factors=2)
    b = sampling.spin_element(rng, factors=2)
    pa, ma = sp.half_spin_matrices(a)
    pb, mb = sp.half_spin_matrices(b)
    pab, mab = sp.half_spin_matrices(cl.clif_mul(a, b))
    assert pab == pa @ pb
    assert mab == ma @ mb


def test_half_spin_requires_spin():
    with pytest.raises(cl.CliffordError):
        sp.half_spin_matrices(cl.basis_vector(1))


def test_parity_exchange():
    for i in range(1, 9):
        v = cl.basis_vector(i)
        for m in sp.plus_masks():
            img = sp.clifford_action(v, sp.SpinorElement.blade(m))
            assert set(img.terms) <= set(sp.minus_masks())
        for m in sp.minus_masks():
            img = sp.clifford_action(v, sp.SpinorElement.blade(m))
            assert set(img.terms) <= set(sp.plus_masks())


def test_top_coefficient():
    assert sp.top_coefficient(sp.SpinorElement.blade(0b1111)) == ONE
    assert sp.top_coefficient(sp.SpinorElement.one()) == ZERO
    assert sp.top_coefficient(sp.SpinorElement.blade(0b0011)) == ZERO


def test_pairing_examples():
    one = sp.SpinorElement.one()
    top = sp.SpinorElement.blade(0b1111)
    assert sp.pairing_N(one, top) == ONE
    assert sp.pairing_N(top, one) == ONE
    assert sp.pairing_N(one, one) == ZERO


def test_pairing_symmetric_within_halves(rng):
    for masks in (sp.plus_masks(), sp.minus_masks()):
        for _ in range(20):
            x = sampling.spinor_in(rng, masks)
            y = sampling.spinor_in(rng, masks)
            assert sp.pairing_N(x, y) == sp.pairing_N(y, x)


def test_pairing_gram_rank():
    gp = sp.gram_N_plus()
    gm = sp.gram_N_minus()
    assert gp.rank() == 8 and gm.rank() == 8
    assert gp == gp.transpose()
    assert gm == gm.transpose()


def test_pairing_vector_self_adjoint(rng):
    for _ in range(50):
        v = sampling.vec8(rng)
        x, y = sampling.spinor(rng), sampling.spinor(rng)
        assert sp.pairing_N(sp.vector_action(v, x), y) == \
            sp.pairing_N(x, sp.vector_action(v, y))


def test_pairing_spin_invariance(rng):
    for _ in range(4):
        a = sampling.spin_element(rng, factors=2)
        x, y = sampling.spinor(rng), sampling.spinor(rng)
        ax = sp.clifford_action(a, x)
        ay = sp.clifford_action(a, y)
        assert sp.pairing_N(ax, ay) == sp.pairing_N(x, y)


def test_bar_pairing_relation_on_every_blade_pair():
    """Nbar has its own sign rule, so Nbar(x, y) = N(iota(x), y) is a
    relation between two computations; on blades it is tested exhaustively,
    and only the 16 complementary pairs pair to a nonzero value."""
    blades = [sp.SpinorElement.blade(m) for m in range(16)]
    nonzero = 0
    for x in blades:
        for y in blades:
            got = sp.pairing_Nbar(x, y)
            assert got == sp.pairing_N(cl.grade_involution(x), y)
            nonzero += bool(got)
    assert nonzero == 16


def test_multivectors_and_spinors_never_compare_equal():
    assert cl.CliffordElement.scalar(1) == 1
    assert cl.CliffordElement.scalar(1) != sp.SpinorElement.one()
    assert sp.SpinorElement.one() != cl.CliffordElement.scalar(1)


def test_blade_map_repr_names_the_generators():
    assert repr(sp.SpinorElement({0b1010: 2})) == "SpinorElement(CycloNum(2)*w24)"
    assert repr(cl.CliffordElement({0b101: 2})) == "CliffordElement(CycloNum(2)*e13)"


def test_spinor_mask_out_of_range_rejected():
    with pytest.raises(cl.CliffordError):
        sp.SpinorElement({0b10000: 1})


def test_volume_element_checked_on_every_odd_blade(monkeypatch):
    action = sp.clifford_action

    def wrong_on_0111(x, s):
        img = action(x, s)
        if x == cl.CliffordElement.blade(0xFF) and s == sp.SpinorElement.blade(0b0111):
            return -img
        return img

    monkeypatch.setattr(sp, "clifford_action", wrong_on_0111)
    with pytest.raises(ArithmeticError):
        sp._eta_scalars.__wrapped__()


def test_stray_component_rejected():
    mixed = sp.SpinorElement({0: ONE, 1: ONE})
    with pytest.raises(ValueError):
        sp.plus_coords(mixed)


def test_isotropic_basis_pairing_reading():
    """The contraction normalization d_k(w_j) = delta_kj encodes the reading
    b_q(w_k, w'_k) = 1 (half of it is the stated 1/2): the full polarization
    of q on the isotropic pair is 1, pinned by the module relation."""
    from trialgebra.exact_field import HALF, I
    # w_k = (i e_k + e_{k+4})/2 and w'_k = (i e_k - e_{k+4})/2 in coordinates
    for k in range(4):
        wk = [ZERO] * 8
        wk[k] = I * HALF
        wk[k + 4] = HALF
        wpk = [ZERO] * 8
        wpk[k] = I * HALF
        wpk[k + 4] = -HALF
        b_q = q_vec(wk, wpk) + q_vec(wpk, wk)
        assert q_vec(wk, wpk) == HALF
        assert b_q == ONE
        assert q_vec(wk, wk) == ZERO and q_vec(wpk, wpk) == ZERO
        # and the module action realizes exactly that pairing:
        # lambda(w_k) lambda(w'_k) + lambda(w'_k) lambda(w_k) = 1
        for m in range(16):
            s = sp.SpinorElement.blade(m)
            lhs = sp.vector_action(wk, sp.vector_action(wpk, s)) + \
                sp.vector_action(wpk, sp.vector_action(wk, s))
            assert lhs == s


def test_pairing_sign_matches_wedge_oracle():
    """N(w_A, w_B) against a sign counted directly: reverse A, then move each
    index of B past the larger indices of A."""
    def oracle(a, b):
        if a | b != 0b1111 or a & b:
            return 0
        k = a.bit_count()
        sign = -1 if (k * (k - 1) // 2) % 2 else 1
        for i in range(4):
            if b >> i & 1:
                sign *= (-1) ** (a >> (i + 1)).bit_count()
        return sign
    for a in range(16):
        for b in range(16):
            got = sp.pairing_N(sp.SpinorElement.blade(a), sp.SpinorElement.blade(b))
            assert got == ONE * oracle(a, b), (a, b)
