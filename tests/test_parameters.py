import pytest
from hypothesis import given, settings, strategies as st

from trialgebra import parameters as par


def cycle(n, mult, oid):
    return [par.Component(n, mult, par.ORBIT_CYCLE, oid)] * 3


def test_validate_accepts_good_shapes():
    assert par.validate(par.ParameterShape((par.Component(8, 1, par.ORBIT_PGL3),))) == []
    assert par.validate(par.ParameterShape(
        (par.Component(7, 1, par.ORBIT_G2), par.Component(1, 1, par.ORBIT_G2)))) == []
    assert par.validate(par.ParameterShape(
        tuple(cycle(2, 1, 1)) + (par.Component(2, 1, par.ORBIT_G2),))) == []


def test_validate_rejects_dimension_8_on_bounded_kind():
    v = par.validate(par.ParameterShape((par.Component(8, 1, par.ORBIT_G2),)))
    assert any("dimension 8" in msg for msg in v)
    v = par.validate(par.ParameterShape((par.Component(9, 1, par.ORBIT_G2),)))
    assert any("dimension 9" in msg for msg in v)
    assert not any("dimension 8" in msg for msg in v)


def test_validate_rejects_wrong_weight():
    assert par.validate(par.ParameterShape((par.Component(3, 1, par.ORBIT_G2),)))


def test_validate_rejects_mismatched_orbit():
    comps = cycle(2, 1, 1)[:2] + [par.Component(1, 2, par.ORBIT_CYCLE, 1),
                                  par.Component(2, 1, par.ORBIT_G2)]
    v = par.validate(par.ParameterShape(tuple(comps)))
    assert any("mixes" in msg for msg in v)


def test_validate_rejects_incomplete_orbit():
    comps = cycle(2, 1, 1)[:2] + [par.Component(2, 1, par.ORBIT_G2)]
    v = par.validate(par.ParameterShape(tuple(comps)))
    assert any("members" in msg for msg in v)


def test_validate_rejects_bad_tags():
    v = par.validate(par.ParameterShape((par.Component(8, 1, "mystery"),)))
    assert v
    v = par.validate(par.ParameterShape(
        (par.Component(8, 1, par.ORBIT_PGL3, orbit_id=3),)))
    assert any("carrying an orbit id" in msg for msg in v)


def test_classify_raises_on_invalid():
    with pytest.raises(par.ShapeError):
        par.classify(par.ParameterShape((par.Component(8, 1, par.ORBIT_G2),)))


def test_classify_worked_examples():
    c = par.classify(par.ParameterShape((par.Component(8, 1, par.ORBIT_PGL3),)))
    assert c.stable and c.square_integrable and c.elliptic and not c.semi_stable
    assert not c.notes

    c = par.classify(par.ParameterShape(
        (par.Component(7, 1, par.ORBIT_G2), par.Component(1, 1, par.ORBIT_G2))))
    assert c.stable and c.square_integrable

    c = par.classify(par.ParameterShape(
        tuple(cycle(2, 1, 1)) + (par.Component(2, 1, par.ORBIT_G2),)))
    assert c.semi_stable and not c.stable
    # literal rule says elliptic; the published verdict disagrees and the
    # discrepancy must be carried as a note, not resolved silently
    assert c.elliptic
    assert c.notes and "inelliptic" in c.notes[0]


def test_classify_multiplicity_rules():
    c = par.classify(par.ParameterShape(
        (par.Component(1, 2, par.ORBIT_G2), par.Component(3, 2, par.ORBIT_G2))))
    assert not c.square_integrable and c.elliptic
    c = par.classify(par.ParameterShape(
        (par.Component(1, 4, par.ORBIT_G2), par.Component(4, 1, par.ORBIT_G2))))
    assert not c.square_integrable and not c.elliptic


def test_classification_invariance(rng):
    base = par.ParameterShape(tuple(cycle(1, 1, 5)) +
                              (par.Component(2, 1, par.ORBIT_G2),
                               par.Component(3, 1, par.ORBIT_G2)))
    want = par.classify(base)
    for _ in range(10):
        comps = list(base.components)
        rng.shuffle(comps)
        relabeled = [par.Component(c.n, c.mult, c.orbit,
                                   None if c.orbit_id is None else c.orbit_id + 40)
                     for c in comps]
        assert par.classify(par.ParameterShape(tuple(relabeled))) == want


def test_canonical_renumbers_orbits():
    shape = par.ParameterShape(tuple(cycle(1, 1, 17)) + tuple(cycle(1, 1, 3))
                               + (par.Component(2, 1, par.ORBIT_G2),))
    canon = par.canonical(shape)
    ids = sorted({c.orbit_id for c in canon.components if c.orbit_id is not None})
    assert ids == [1, 2]
    assert par.validate(canon) == []


def test_enumeration_count_and_uniqueness():
    shapes = par.enumerate_shapes()
    assert len(shapes) == par.FROZEN_SHAPE_COUNT
    assert len(set(shapes)) == len(shapes)
    assert all(not par.validate(s) for s in shapes)
    assert all(s.total_weight() == 8 for s in shapes)


def test_enumeration_is_canonical_and_strictly_increasing():
    """The search emits canonical shapes in order; nothing re-sorts them."""
    def key(shape):
        return tuple((par._ORBIT_ORDER[c.orbit], c.n, c.mult, c.orbit_id or 0)
                     for c in shape.components)

    shapes = par.enumerate_shapes()
    assert all(par.canonical(s) == s for s in shapes)
    assert all(key(a) < key(b) for a, b in zip(shapes, shapes[1:]))


def test_enumeration_count_generating_function_oracle():
    units = []
    for n in range(1, 8):
        for m in range(1, 8 // n + 1):
            units.append(n * m)
    for n in range(1, 9):
        for m in range(1, 8 // n + 1):
            units.append(n * m)
    for n in (1, 2):
        for m in (1, 2):
            if 3 * n * m <= 8:
                units.append(3 * n * m)
    poly = [1] + [0] * 8
    for w in units:
        for d in range(w, 9):
            poly[d] += poly[d - w]
    assert poly[8] == par.FROZEN_SHAPE_COUNT


def test_enumeration_contains_landmarks():
    shapes = set(par.enumerate_shapes())
    all_ones = par.canonical(par.ParameterShape(
        tuple(par.Component(1, 1, par.ORBIT_G2) for _ in range(8))))
    assert all_ones in shapes
    assert par.canonical(par.ParameterShape(
        (par.Component(8, 1, par.ORBIT_PGL3),))) in shapes
    assert par.canonical(par.ParameterShape(
        tuple(cycle(2, 1, 1)) + (par.Component(2, 1, par.ORBIT_G2),))) in shapes
    two_orbits = par.canonical(par.ParameterShape(
        tuple(cycle(1, 1, 1)) + tuple(cycle(1, 1, 2))
        + (par.Component(2, 1, par.ORBIT_G2),)))
    assert two_orbits in shapes


def test_square_integrable_implies_elliptic_literally():
    for s in par.enumerate_shapes():
        c = par.classify(s)
        if c.square_integrable:
            assert c.elliptic
        assert c.stable != c.semi_stable


@settings(max_examples=40, derandomize=True)
@given(st.permutations(list(range(4))), st.integers(1, 50))
def test_classify_invariant_under_permutation_hypothesis(perm, oid):
    comps = list(cycle(2, 1, oid)) + [par.Component(2, 1, par.ORBIT_G2)]
    base = par.classify(par.ParameterShape(tuple(comps)))
    got = par.classify(par.ParameterShape(tuple(comps[i] for i in perm)))
    assert got == base
