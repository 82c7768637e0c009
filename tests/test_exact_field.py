import math
import random
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from trialgebra import exact_field, sampling
from trialgebra.exact_field import (
    CycloNum, ExactMatrix, FieldError, ZERO, ONE, TWO, HALF, I, OMEGA, SQRT2, SQRT3,
    cos_sin_pi, rref, sparse_row, add_term, vec_add, vec_dot, _dot, row_rank,
)

# ---------------------------------------------------------------------------
# independent oracle: polynomial division over Q, written from scratch here
# ---------------------------------------------------------------------------

def poly_mul(p, q):
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    while out and not out[-1]:
        out.pop()
    return out


def poly_div(num, den):
    num = list(num)
    q = [Fraction(0)] * (len(num) - len(den) + 1)
    for k in range(len(num) - len(den), -1, -1):
        c = num[k + len(den) - 1] / den[-1]
        q[k] = c
        for j, d in enumerate(den):
            num[k + j] -= c * d
    while num and not num[-1]:
        num.pop()
    return q, num


def oracle_modulus():
    """x^24 - 1 divided by the product of all proper cyclotomic factors."""
    memo = {}

    def cyc(n):
        if n in memo:
            return memo[n]
        p = [Fraction(1)]
        for d in range(1, n):
            if n % d == 0:
                p = poly_mul(p, cyc(d))
        xn = [Fraction(0)] * (n + 1)
        xn[0], xn[n] = Fraction(-1), Fraction(1)
        q, r = poly_div(xn, p)
        assert not r
        memo[n] = q
        return q

    return cyc(24)


def test_modulus_is_degree_8_trinomial():
    want = [Fraction(c) for c in (1, 0, 0, 0, -1, 0, 0, 0, 1)]
    assert oracle_modulus() == want
    # the modulus the product really reduces by: zeta^8 = -(c_0 + ... + c_7 zeta^7)
    assert [-c for c in math.prod([CycloNum.zeta(1)] * 8, start=ONE).coeffs] + [1] == want


def test_zeta_power_reduction():
    z = CycloNum.zeta
    assert z(6) * z(6) == CycloNum.rational(-1)  # zeta^12 = -1
    # zeta^4 * zeta^4 = zeta^8 = zeta^4 - 1, frozen from the oracle division
    assert z(4) * z(4) == z(4) - ONE
    assert math.prod([z(1)] * 24, start=ONE) == ONE
    assert z(13) == -z(1)


def test_inverse_of_zeta_against_multiplication():
    z = CycloNum.zeta(1)
    inv = z.inv()
    assert inv * z == ONE
    assert inv == CycloNum.zeta(23)


def test_inverse_of_rational():
    assert CycloNum.rational(2).inv() == CycloNum.rational(Fraction(1, 2))


def test_inverse_of_zero_raises():
    with pytest.raises(FieldError):
        ZERO.inv()


def test_named_constants_satisfy_minimal_polynomials():
    assert I * I == -ONE
    assert OMEGA * OMEGA + OMEGA + ONE == ZERO
    assert SQRT2 * SQRT2 == TWO
    assert SQRT3 * SQRT3 == CycloNum.rational(3)
    assert HALF + HALF == ONE


def test_cos_sin_values():
    c, s = cos_sin_pi(Fraction(1, 3))
    assert c == HALF
    assert s * s == CycloNum.rational(Fraction(3, 4))
    c, s = cos_sin_pi(Fraction(1, 4))
    assert c == s == SQRT2 * HALF
    c, s = cos_sin_pi(Fraction(1, 2))
    assert (c, s) == (ZERO, ONE)
    assert c * c + s * s == ONE


def test_cos_sin_outside_field():
    with pytest.raises(FieldError):
        cos_sin_pi(Fraction(1, 5))
    with pytest.raises(FieldError):
        cos_sin_pi(Fraction(1, 8))


small_fractions = st.fractions(min_value=-9, max_value=9, max_denominator=9)


def cyclos(max_terms=3):
    return st.lists(st.tuples(st.integers(0, 7), small_fractions),
                    min_size=0, max_size=max_terms).map(_to_cyclo)


def _to_cyclo(pairs):
    coeffs = [Fraction(0)] * 8
    for k, v in pairs:
        coeffs[k] = v
    return CycloNum(coeffs)


@settings(max_examples=60, derandomize=True)
@given(cyclos(), cyclos(), cyclos())
def test_field_axioms(a, b, c):
    assert (a + b) * c == a * c + b * c
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a + (b + c) == (a + b) + c
    assert ONE * a == a


@settings(max_examples=40, derandomize=True)
@given(cyclos())
def test_inverse_round_trip(a):
    if a:
        assert a * a.inv() == ONE


def test_galois_tables_are_checked(monkeypatch):
    exact_field._check_galois()
    # zeta -> zeta^14 is not a root of Phi_24; zeta -> zeta^11 is, but with
    # sigma_5 sigma_7 = sigma_11 the three no longer generate the group
    for k in (14, 11):
        tables = tuple(tuple(CycloNum.zeta(j * i).num for i in range(8)) for j in (5, 7, k))
        monkeypatch.setattr(exact_field, "_GALOIS", tables)
        with pytest.raises(ArithmeticError):
            exact_field._check_galois()


non_rational = cyclos().filter(lambda x: not x.is_rational())


@settings(max_examples=60, derandomize=True)
@given(non_rational, non_rational)
def test_subtraction_and_canonical_form(a, b):
    assert a - b + b == a
    assert a - a == ZERO
    assert -(-a) == a
    # equal values reached by different routes share one stored form
    for x, y in ((a * b * b.inv(), a), (a - a, ZERO),
                 (CycloNum([Fraction(2, 4)] + [0] * 7), HALF)):
        assert x == y and hash(x) == hash(y) and x.to_strings() == y.to_strings()
    for x in (a + b, a - b, a * b, -a):
        assert x.den > 0 and math.gcd(x.den, *x.num) == 1
        assert x.to_strings() == [f"{c.numerator}/{c.denominator}" for c in x.coeffs]
    assert ZERO.to_strings() == ["0/1"] * 8


def test_constant_self_check_survives_optimize(monkeypatch):
    # a raise, not an assert, so that ``python -O`` keeps the import-time check
    exact_field._check_constants()
    monkeypatch.setattr(exact_field, "SQRT2", SQRT3)
    with pytest.raises(ArithmeticError):
        exact_field._check_constants()


def test_constant_check_catches_a_wrong_zeta(monkeypatch):
    def wrong(cls, k):
        k %= 24
        sign = -1 if k >= 12 else 1
        c = [0] * 8
        if k % 12 < 8:
            c[k % 12] = sign
        else:  # zeta^8 = zeta^4 + 1 in place of zeta^4 - 1
            c[k % 12 - 4] = c[k % 12 - 8] = sign
        return CycloNum(c)

    assert wrong(CycloNum, 8) == CycloNum.zeta(4) + ONE
    monkeypatch.setattr(CycloNum, "zeta", classmethod(wrong))
    with pytest.raises(ArithmeticError):
        exact_field._check_constants()


def test_constant_check_catches_a_wrong_product(monkeypatch):
    def wrong_mul(a, b):  # reduces by x^8 = x^4 + 1
        prod = [Fraction(0)] * 15
        for i, x in enumerate(a.coeffs):
            for j, y in enumerate(b.coeffs):
                prod[i + j] += x * y
        for d in range(14, 7, -1):
            prod[d - 4] += prod[d]
            prod[d - 8] += prod[d]
        return CycloNum(prod[:8])

    monkeypatch.setattr(CycloNum, "__mul__", wrong_mul)
    assert CycloNum.zeta(4) * CycloNum.zeta(4) == CycloNum.zeta(4) + ONE
    with pytest.raises(ArithmeticError):
        exact_field._check_constants()


def test_constant_check_catches_a_wrong_dot_fold(monkeypatch):
    def wrong_dot(pairs):  # sums the products, then reduces by x^8 = x^4 + 1
        prod = [Fraction(0)] * 15
        for a, b in pairs:
            for i, x in enumerate(a.coeffs):
                for j, y in enumerate(b.coeffs):
                    prod[i + j] += x * y
        for d in range(14, 7, -1):
            prod[d - 4] += prod[d]
            prod[d - 8] += prod[d]
        return CycloNum(prod[:8])

    monkeypatch.setattr(exact_field, "_dot", wrong_dot)
    with pytest.raises(ArithmeticError):
        exact_field._check_constants()


# ---------------------------------------------------------------------------
# the fused dot product against a term-by-term sum
# ---------------------------------------------------------------------------

def stored(x):
    return (x.den, x.num, x.nz)


def left_fold(pairs):
    acc = ZERO
    for a, b in pairs:
        acc = acc + a * b
    return acc


def test_dot_matches_left_fold_on_full_orbit_points(rng):
    def sample():
        roll = rng.random()
        if roll < 0.15:
            return ZERO
        if roll < 0.3:
            return sampling.rational_cyclo(rng)
        return sampling.cyclo(rng, terms=8)

    dens = set()
    for _ in range(150):
        pairs = [(sample(), sample()) for _ in range(rng.randint(1, 9))]
        got = _dot(pairs)
        assert stored(got) == stored(left_fold(pairs))
        assert got.den > 0 and math.gcd(got.den, *got.num) == 1
        dens.add(len({a.den * b.den for a, b in pairs if a and b}))
    assert max(dens) > 3  # sums over several different denominators were met


def test_dot_of_nothing_and_of_a_cancelling_sum_is_canonical_zero(rng):
    a, b = sampling.cyclo(rng, terms=8), sampling.cyclo(rng, terms=8)
    cases = [[], [(ZERO, a)], [(a, b), (-a, b)], [(a, b), (b, -a)],
             [(I, I), (ONE, ONE)],  # cancels only after the fold: zeta^12 = -1
             [(a * HALF, b), (a, b * -HALF)]]
    for pairs in cases:
        got = _dot(pairs)
        assert got == ZERO and got.den == 1 and got.nz == () and not any(got.num)


def test_dot_of_rational_pairs_matches_left_fold(rng):
    def rational():
        return CycloNum.rational(Fraction(rng.randint(-50, 50), rng.randint(1, 60)))

    for _ in range(200):
        pairs = [(rational(), rational()) for _ in range(rng.randint(2, 12))]
        got = _dot(pairs)
        assert stored(got) == stored(left_fold(pairs))
        assert got.nz in ((), (0,)) and math.gcd(got.den, *got.num) == 1
    a, b = CycloNum.rational(Fraction(7, 12)), CycloNum.rational(Fraction(-5, 18))
    for pairs in ([(a, b), (-a, b)], [(a, HALF), (b, TWO), (HALF, -a), (TWO, -b)]):
        got = _dot(pairs)
        assert stored(got) == stored(ZERO) and got.den == 1 and got.nz == ()
    third = CycloNum.rational(Fraction(1, 3))
    assert stored(_dot([(third, HALF), (third, HALF)])) == stored(third)


def test_negation_and_subtraction_match_the_reduced_forms(rng):
    points = [sampling.cyclo(rng, terms=8) for _ in range(60)]
    cases = list(zip(points, points[1:]))                                # unequal dens
    cases += [(a, a + rng.randint(-3, 3)) for a in points[:20]]          # equal dens
    cases += [(a, a) for a in points[:5]]                                # a - a = 0
    cases += [(a, ZERO) for a in points[:5]] + [(ZERO, a) for a in points[:5]]
    cases += [(ZERO, ZERO)]
    equal = unequal = 0
    for a, b in cases:
        neg = -b
        assert stored(neg) == stored(exact_field._from_ints(tuple([-x for x in b.num]), b.den))
        got = a - b
        assert stored(got) == stored(a + neg)
        want = exact_field._from_ints(
            tuple([x * b.den - y * a.den for x, y in zip(a.num, b.num)]), a.den * b.den)
        assert stored(got) == stored(want)
        assert got.den > 0 and math.gcd(got.den, *got.num) == 1
        if a and b:
            equal += a.den == b.den
            unequal += a.den != b.den
    assert equal >= 20 and unequal > 50


def test_vec_dot_and_mat_vec_accept_rational_entries():
    assert vec_dot((1, Fraction(1, 2)), (ONE, TWO)) == 2
    assert vec_dot((1, 2), (Fraction(1, 3), I)) == CycloNum.rational(Fraction(1, 3)) + TWO * I
    assert vec_dot((), ()) == ZERO
    m = ExactMatrix.from_rows([[1, 2], [I, 0]])
    assert m.mat_vec((Fraction(1, 2), 1)) == (CycloNum.rational(Fraction(5, 2)), I * HALF)


def test_matmul_on_non_square_shapes_against_a_triple_loop(rng):
    def entry():
        return sampling.cyclo(rng, terms=8) if rng.random() < 0.7 else sampling.rational_cyclo(rng)

    a = [[entry() for _ in range(5)] for _ in range(3)]
    b = [[entry() for _ in range(2)] for _ in range(5)]
    a[1] = [ZERO] * 5          # a zero row of A
    for row in b:              # a zero column of B
        row[0] = ZERO
    a[2][3] = ZERO             # and one stray zero that meets a live row of B
    got = ExactMatrix.from_rows(a) @ ExactMatrix.from_rows(b)
    assert (got.rows, got.cols) == (3, 2)
    for i in range(3):
        for j in range(2):
            want = ZERO
            for t in range(5):
                want = want + a[i][t] * b[t][j]
            assert stored(got.get(i, j)) == stored(want)
    assert all(stored(got.get(1, j)) == stored(ZERO) for j in range(2))
    assert all(stored(got.get(i, 0)) == stored(ZERO) for i in range(3))
    assert any(got.get(i, 1) for i in (0, 2))


def term_by_term_sub(row, factor, other):
    """row -= factor * other one entry at a time, through add_term: the rule
    the fused row update must reproduce."""
    for c, v in other.items():
        add_term(row, c, -factor * v)


def test_row_update_matches_term_by_term_on_full_orbit_points(rng):
    def sample():
        return sampling.cyclo(rng, terms=8) if rng.random() < 0.7 else sampling.rational_cyclo(rng)

    def nonzero():
        x = ZERO
        while not x:
            x = sample()
        return x

    cancelled = filled = updated = 0
    dens = set()
    for _ in range(80):
        other = {c: nonzero() for c in rng.sample(range(12), rng.randint(1, 8))}
        row = {c: nonzero() for c in rng.sample(range(12), rng.randint(0, 8))}
        factor = nonzero()
        for c in rng.sample(sorted(other), min(len(other), rng.randint(0, 2))):
            row[c] = factor * other[c]  # this entry must cancel exactly
        want, got = dict(row), dict(row)
        term_by_term_sub(want, factor, other)
        exact_field._row_sub_scaled(got, factor, other)
        assert got.keys() == want.keys()
        assert all(stored(got[c]) == stored(want[c]) for c in want)
        assert all(got[c].den > 0 and math.gcd(got[c].den, *got[c].num) == 1 for c in got)
        cancelled += len([c for c in other if c in row and c not in got])
        filled += len([c for c in other if c not in row])
        updated += len([c for c in other if c in row and c in got])
        dens.update(got[c].den for c in other if c in got)
    assert cancelled > 20 and filled > 50 and updated > 50
    assert len(dens) > 20  # the updates ran over many different denominators


def test_row_update_deletes_an_exact_zero_and_fills_a_missing_key():
    row = {0: I, 1: TWO, 3: HALF}
    exact_field._row_sub_scaled(row, HALF, {0: TWO * I, 2: SQRT2, 3: ONE})
    assert row.keys() == {1, 2} and row[1] == TWO
    assert stored(row[2]) == stored(-HALF * SQRT2)
    assert stored(exact_field._sub_mul(HALF, ONE, HALF)) == stored(ZERO)


def test_elimination_matches_the_term_by_term_oracle(rng, monkeypatch):
    entries = [sampling.cyclo(rng, terms=8) for _ in range(36)]
    dense = ExactMatrix(6, 6, tuple(entries))
    rows = [entries[6 * i:6 * i + 6] for i in range(6)]
    rows[5] = [a - HALF * b for a, b in zip(rows[0], rows[3])]
    singular = ExactMatrix.from_rows(rows)

    def run():
        return (dense.rank(), dense.kernel(), dense.inverse().entries,
                singular.rank(), singular.kernel())

    got = run()
    monkeypatch.setattr(exact_field, "_row_sub_scaled", term_by_term_sub)
    want = run()
    assert got[0] == want[0] == 6 and got[3] == want[3] == 5
    assert got[1] == want[1] == [] and len(got[4]) == len(want[4]) == 1
    for g, w in ((got[2], want[2]), (got[4][0], want[4][0])):
        assert [stored(x) for x in g] == [stored(x) for x in w]
    assert dense @ ExactMatrix(6, 6, got[2]) == ExactMatrix.identity(6)


@settings(max_examples=60, derandomize=True)
@given(small_fractions)
def test_rational_hash_matches_fraction(q):
    x = CycloNum.rational(q)
    assert x == q and hash(x) == hash(q)
    assert q in {x} and x in {q}
    if q.denominator == 1:
        assert int(q) in {x} and hash(x) == hash(int(q))


def test_operators_reject_strings_and_objects():
    with pytest.raises(TypeError):
        ONE + "1/2"
    with pytest.raises(TypeError):
        ExactMatrix.identity(2).scale(object())


# ---------------------------------------------------------------------------
# matrices
# ---------------------------------------------------------------------------

def test_kernel_of_identity_is_trivial():
    assert ExactMatrix.identity(3).kernel() == []


def test_kernel_of_rank_one():
    m = ExactMatrix.from_rows([[1, 1], [1, 1]])
    k = m.kernel()
    assert len(k) == 1
    assert not any(m.mat_vec(k[0]))


def test_rank_of_zero_matrix():
    assert ExactMatrix.zero(3, 4).rank() == 0


def test_rank_nullity_random(rng):
    for _ in range(25):
        r, c = rng.randint(1, 6), rng.randint(1, 6)
        ents = [CycloNum.rational(Fraction(rng.randint(-5, 5), rng.randint(1, 4)))
                if rng.random() < 0.7 else ZERO for _ in range(r * c)]
        m = ExactMatrix(r, c, tuple(ents))
        ker = m.kernel()
        assert m.rank() + len(ker) == c
        for v in ker:
            assert not any(m.mat_vec(v))


def counting_rref(monkeypatch) -> list:
    """Patch ``exact_field.rref`` to record each call; returns the record."""
    calls, real = [], exact_field.rref
    monkeypatch.setattr(exact_field, "rref", lambda rows: calls.append(1) or real(rows))
    return calls


def test_row_rank_matches_rref_on_full_orbit_matrices(rng, monkeypatch):
    """Square, wide and tall matrices of dense Q(zeta_24) entries are certified
    mod p without exact elimination; products B C of inner size r < min(n, m)
    fall back to it.  Every answer equals the exact rank."""
    def entries(n, m):
        return [[sampling.cyclo(rng, terms=8) for _ in range(m)] for _ in range(n)]

    cases = [(ExactMatrix.from_rows(entries(n, m)), min(n, m))
             for n, m in ((5, 5), (3, 6), (6, 3), (1, 4))]
    cases += [(ExactMatrix.from_rows(entries(n, r)) @ ExactMatrix.from_rows(entries(r, m)), r)
              for n, m, r in ((5, 5, 3), (4, 6, 2), (6, 4, 3), (3, 3, 1))]
    for m, want in cases:
        rows = m.sparse_rows()
        assert len(rref(rows)) == want
        calls = counting_rref(monkeypatch)
        assert row_rank(rows, m.cols) == m.rank() == want
        assert len(calls) == (0 if want == min(m.rows, m.cols) else 2)
        monkeypatch.undo()


def test_row_rank_falls_back_on_a_matrix_singular_mod_p(monkeypatch):
    p, r = exact_field._P, exact_field._R
    zeta_minus_r = CycloNum.zeta(1) - r  # nonzero, but sent to r - r = 0
    for diag in ([p, 1], [1, zeta_minus_r]):
        m = ExactMatrix.diagonal(diag)
        assert exact_field._rank_mod_p(m.sparse_rows()) == 1
        calls = counting_rref(monkeypatch)
        assert m.rank() == 2 and len(calls) == 1
        monkeypatch.undo()


def test_row_rank_falls_back_on_a_denominator_divisible_by_p(monkeypatch):
    inv_p = Fraction(1, exact_field._P)
    for m, want in ((ExactMatrix.diagonal([inv_p, 1]), 2),
                    (ExactMatrix.from_rows([[1, I * inv_p], [1, I * inv_p]]), 1)):
        assert exact_field._rank_mod_p(m.sparse_rows()) is None
        calls = counting_rref(monkeypatch)
        assert m.rank() == want and len(calls) == 1
        monkeypatch.undo()


def test_reduction_check_rejects_a_wrong_root():
    p, r = exact_field._P, exact_field._R
    exact_field._check_reduction(p, r)
    exact_field._check_reduction(p, pow(r, 5, p))  # another root of Phi_24
    eighth = pow(r, 3, p)  # eighth^12 = -1 too, but it is a root of Phi_8
    for wrong in (r + 1, eighth, 1):
        with pytest.raises(ArithmeticError):
            exact_field._check_reduction(p, wrong)


def test_mat_vec_on_sparse_vectors_matches_a_term_by_term_sum(rng):
    m = ExactMatrix.from_rows([[sampling.cyclo(rng, terms=8) if rng.random() < 0.7 else ZERO
                                for _ in range(6)] for _ in range(4)])
    for live in ((), (2,), (0, 5), range(6)):
        vec = [sampling.cyclo(rng, terms=8) if j in live else ZERO for j in range(6)]
        want = [ZERO] * 4
        for i in range(4):
            for j in range(6):
                want[i] = want[i] + m.get(i, j) * vec[j]
        assert [stored(x) for x in m.mat_vec(vec)] == [stored(x) for x in want]


def test_add_term():
    terms = {0: ONE}
    add_term(terms, 0, TWO)
    add_term(terms, 1, I)
    assert terms == {0: ONE + TWO, 1: I}
    add_term(terms, 1, -I)
    assert terms == {0: ONE + TWO}
    add_term(terms, 2, ZERO)
    assert terms == {0: ONE + TWO}


def test_solve_identity():
    m = ExactMatrix.identity(3)
    b = (ONE, TWO, ZERO)
    assert m.solve_many([b]) == [b]


def test_solve_round_trip(rng):
    for _ in range(20):
        r, c = rng.randint(1, 5), rng.randint(1, 5)
        m = ExactMatrix(r, c, tuple(
            CycloNum.rational(rng.randint(-4, 4)) for _ in range(r * c)))
        x = tuple(CycloNum.rational(rng.randint(-3, 3)) for _ in range(c))
        b = m.mat_vec(x)
        sol = m.solve_many([b])[0]
        assert sol is not None
        assert m.mat_vec(sol) == b


def test_solve_reports_inconsistency():
    m = ExactMatrix.from_rows([[1, 1], [1, 1]])
    assert m.solve_many([(ONE, TWO)]) == [None]


def test_solve_many_flags_an_inconsistency_inherited_from_an_earlier_rhs():
    # (0, 1) is inconsistent only through the earlier (0, 2): its column is
    # not a pivot of the augmented matrix
    assert ExactMatrix.from_rows([[1], [1]]).solve_many([(0, 2), (0, 1)]) == [None, None]


def test_solve_many_matches_the_rank_oracle():
    """Rank-deficient A = B C over Q(zeta_24), batches that mix consistent
    right-hand sides with inconsistent ones and their combinations: each
    answer is None exactly when rank(A | b) > rank(A), and otherwise solves
    A x = b."""
    rng = random.Random(11)
    answered = inconsistent = 0
    for _ in range(12):
        n, m = rng.randint(2, 4), rng.randint(2, 4)
        r = rng.randint(1, min(n, m) - 1)
        a = (ExactMatrix.from_rows([[sampling.cyclo(rng) for _ in range(r)] for _ in range(n)])
             @ ExactMatrix.from_rows([[sampling.cyclo(rng) for _ in range(m)] for _ in range(r)]))
        rank = a.rank()
        assert rank == r
        consistent = lambda: a.mat_vec([sampling.cyclo(rng) for _ in range(m)])
        stray = [tuple(sampling.cyclo(rng) for _ in range(n)) for _ in range(2)]
        rhs = [stray[0], consistent(), stray[1], consistent(),
               vec_add(stray[0], consistent()), vec_add(stray[0], stray[1]),
               tuple(TWO * c for c in stray[1]), (ZERO,) * n]
        rng.shuffle(rhs)
        for b, x in zip(rhs, a.solve_many(rhs)):
            if ExactMatrix.from_columns([*(a.column(j) for j in range(m)), b]).rank() > rank:
                assert x is None
                inconsistent += 1
            else:
                assert x is not None and a.mat_vec(x) == b
                answered += 1
    assert answered and inconsistent


def _leibniz_det(m: ExactMatrix) -> CycloNum:
    n = m.rows
    total = ZERO
    for perm in permutations(range(n)):
        seen, sign = set(), 1
        for start in range(n):  # each cycle of length k contributes (-1)^(k-1)
            k, j = 0, start
            while j not in seen:
                seen.add(j)
                j, k = perm[j], k + 1
            if k and k % 2 == 0:
                sign = -sign
        term = CycloNum.rational(sign)
        for i in range(n):
            term = term * m.get(i, perm[i])
        total = total + term
    return total


@pytest.mark.parametrize("n", range(6))
def test_det_matches_leibniz(n):
    rng = random.Random(100 + n)
    mats = []
    for _ in range(6):
        # zero entries force pivots out of row order
        mats.append(ExactMatrix.from_rows(
            [[sampling.cyclo(rng) if rng.random() < 0.6 else 0 for _ in range(n)]
             for _ in range(n)]))
    if n >= 2:
        rows = [[sampling.cyclo(rng) for _ in range(n)] for _ in range(n)]
        i, j = rng.sample(range(n), 2)
        rows[i] = [a + TWO * b for a, b in zip(rows[i], rows[j])]  # dependent on purpose
        mats.append(ExactMatrix.from_rows(rows))
        odd = list(range(n))
        odd[0], odd[-1] = odd[-1], odd[0]  # one transposition
        mats.append(ExactMatrix.from_rows([[1 if odd[i] == j else 0 for j in range(n)]
                                           for i in range(n)]))
        assert mats[-1].det() == -ONE
    for m in mats:
        assert m.det() == _leibniz_det(m)


def test_solve_dimension_mismatch():
    with pytest.raises(ValueError):
        ExactMatrix.identity(2).solve_many([(ONE,)])


def test_matrix_power_rejects_negative_exponent():
    with pytest.raises(ValueError):
        ExactMatrix.identity(2) ** -1
    assert ExactMatrix.from_rows([[1, 1], [0, 1]]) ** 3 == ExactMatrix.from_rows([[1, 3], [0, 1]])


def test_inverse_and_determinant():
    m = ExactMatrix.from_rows([[1, 2], [3, 4]])
    assert m.det() == CycloNum.rational(-2)
    assert m @ m.inverse() == ExactMatrix.identity(2)
    assert m.inverse() @ m == ExactMatrix.identity(2)


def test_inverse_with_out_of_order_pivots():
    # leading zeros force pivot discovery out of column order
    m = ExactMatrix.from_rows([[0, Fraction(13, 4), Fraction(3, 2)],
                               [-1, Fraction(13, 4), Fraction(3, 2)],
                               [0, Fraction(3, 2), 1]])
    assert m @ m.inverse() == ExactMatrix.identity(3)


def test_determinant_of_singular():
    assert ExactMatrix.from_rows([[1, 1], [1, 1]]).det() == ZERO


def test_inverse_of_singular_raises():
    from trialgebra.exact_field import EliminationError
    with pytest.raises(EliminationError):
        ExactMatrix.from_rows([[1, 1], [1, 1]]).inverse()
    with pytest.raises(EliminationError):  # rank 2: third row = first + second
        ExactMatrix.from_rows([[1, 2, 3], [0, 1, 4], [1, 3, 7]]).inverse()


def test_matrix_power():
    m = ExactMatrix.from_rows([[0, -1], [1, 0]])
    assert m ** 4 == ExactMatrix.identity(2)


def test_json_round_trip():
    m = ExactMatrix.from_rows([[I, HALF], [SQRT3, OMEGA]])
    data = m.to_json()
    assert data["rows"] == 2 and data["cols"] == 2
    assert all(len(e) == 8 for e in data["entries"])
    assert tuple(CycloNum(map(Fraction, octet)) for octet in data["entries"]) == m.entries
