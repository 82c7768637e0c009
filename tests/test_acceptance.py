"""Acceptance gate: one test per criterion, every tolerance exact, with a
printed verdict line per criterion (run with -s or -rA to see them)."""

import time
from fractions import Fraction

from trialgebra.exact_field import ExactMatrix, ZERO, ONE, OMEGA
from trialgebra import clifford as cl
from trialgebra import spinor as sp
from trialgebra import triality as tri
from trialgebra import octonion as oct
from trialgebra import lie_tools as lt
from trialgebra import endoscopy as endo
from trialgebra import root_weyl as rw
from trialgebra import parameters as par
from trialgebra import sampling
from trialgebra import cli


def _verdict(num, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num:02d}] {status} {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_01_s0_printed_diagonal():
    t0 = time.time()
    d = endo.rho_s0_paired_diagonal()
    w = OMEGA
    wi = OMEGA * OMEGA
    want = ExactMatrix.diagonal([ONE, w, wi, ONE, ONE, wi, w, ONE])
    elapsed = time.time() - t0
    _verdict(1, d == want and elapsed < 1.0,
             f"standard-rep diagonal of the torus element, exact, {elapsed:.3f}s")


def test_criterion_02_derivation_dimension(octonion_derivations):
    t0 = time.time()
    dim, basis = lt.derivation_algebra(lt.octonion_algebra_spec())
    elapsed = time.time() - t0
    _verdict(2, dim == 14 and elapsed < 30.0,
             f"dim Der = {dim} by exact kernel, {elapsed:.2f}s")


def test_criterion_03_dtheta_order_brackets_fixed_dim(dtheta):
    t0 = time.time()
    eye = ExactMatrix.identity(28)
    order_ok = dtheta @ dtheta @ dtheta == eye
    cols = [dtheta.column(k) for k in range(28)]
    bracket_ok = True
    pairs = 0
    for i in range(28):
        u = tuple(ONE if t == i else ZERO for t in range(28))
        for j in range(i + 1, 28):
            v = tuple(ONE if t == j else ZERO for t in range(28))
            if dtheta.mat_vec(tri.bracket_coords(u, v)) != \
                    tri.bracket_coords(cols[i], cols[j]):
                bracket_ok = False
            pairs += 1
    dim, _ = tri.fixed_subalgebra(dtheta, require_order_3=True)
    elapsed = time.time() - t0
    _verdict(3, order_ok and bracket_ok and pairs == 378 and dim == 14
             and elapsed < 120.0,
             f"order 3: {order_ok}, {pairs} bracket pairs exact, fixed dim {dim}, "
             f"{elapsed:.2f}s")


def test_criterion_04_twisted_fixed_dimensions(dtheta):
    t0 = time.time()
    m_s0 = tri.ad_on_bivectors(endo.build_s0()) @ dtheta
    dim8, basis8 = tri.fixed_subalgebra(m_s0, require_order_3=True)
    m_s4 = tri.ad_on_bivectors(endo.build_s4prime()) @ dtheta
    dim6, basis6 = tri.fixed_subalgebra(m_s4)  # closure checked inside
    elapsed = time.time() - t0
    _verdict(4, dim8 == 8 and dim6 == 6 and elapsed < 120.0,
             f"torus-twisted dim {dim8}, involution-twisted dim {dim6}, "
             f"both bracket-closed, {elapsed:.2f}s")


def test_criterion_05_composition_laws(rng):
    t0 = time.time()
    n_pairs = 100
    ok_mult = ok_para = ok_pairing = True
    for _ in range(n_pairs):
        x, y = sampling.octonion(rng), sampling.octonion(rng)
        z = sampling.octonion(rng)
        ok_mult = ok_mult and oct.norm(oct.zorn_mul(x, y)) == oct.norm(x) * oct.norm(y)
        ok_para = ok_para and \
            oct.para_mul(oct.para_mul(x, y), x) == y.scale(oct.norm(x))
        ok_pairing = ok_pairing and \
            oct.b_norm(oct.para_mul(x, y), z) == oct.b_norm(x, oct.para_mul(y, z))
    ok_okubo = True
    xs = [oct.OkuboElement(sampling.tracefree_3x3(rng)) for _ in range(11)]
    count = 0
    for a in xs:
        for b in xs:
            p = oct.okubo_product(a, b)
            ok_okubo = ok_okubo and \
                oct.okubo_norm(p) == oct.okubo_norm(a) * oct.okubo_norm(b)
            count += 1
    elapsed = time.time() - t0
    _verdict(5, ok_mult and ok_para and ok_pairing and ok_okubo and count >= 100
             and elapsed < 10.0,
             f"{n_pairs} octonion pairs and {count} twisted-product pairs exact, "
             f"{elapsed:.2f}s")


def test_criterion_06_spinor_module(rng):
    t0 = time.time()
    rel_ok = True
    for _ in range(50):
        u, v = sampling.vec8(rng), sampling.vec8(rng)
        s = sampling.spinor(rng)
        lhs = sp.vector_action(u, sp.vector_action(v, s)) + \
            sp.vector_action(v, sp.vector_action(u, s))
        rel_ok = rel_ok and lhs == s.scale(tri.q_vec(u, v) + tri.q_vec(v, u))
    rows = []
    for cm in range(256):
        bl = cl.CliffordElement.blade(cm)
        row = {}
        for m in range(16):
            img = sp.clifford_action(bl, sp.SpinorElement.blade(m))
            for m2, c in img.terms.items():
                row[m * 16 + m2] = c
        rows.append(row)
    from trialgebra.exact_field import rref
    rank256 = len(rref(rows))
    g = sp.gram_N_plus()
    sym_ok = g == g.transpose() and g.rank() == 8
    adj_ok = True
    for _ in range(50):
        v = sampling.vec8(rng)
        x, y = sampling.spinor(rng), sampling.spinor(rng)
        adj_ok = adj_ok and sp.pairing_N(sp.vector_action(v, x), y) == \
            sp.pairing_N(x, sp.vector_action(v, y))
    elapsed = time.time() - t0
    _verdict(6, rel_ok and rank256 == 256 and sym_ok and adj_ok and elapsed < 60.0,
             f"50 relation pairs, blade-action rank {rank256}, pairing gram rank 8, "
             f"50 self-adjointness pairs, {elapsed:.2f}s")


def test_criterion_07_involutions_and_order_three():
    t0 = time.time()
    i1, i2 = tri.make_iota(1), tri.make_iota(2)
    th = tri.theta_prime()
    ok = (tri.compose(i1, i1).is_identity() and tri.compose(i2, i2).is_identity()
          and tri.compose(th, tri.compose(th, th)).is_identity()
          and not th.is_identity())
    elapsed = time.time() - t0
    _verdict(7, ok and elapsed < 10.0,
             f"involutions square to the identity, composed map has order 3, "
             f"{elapsed:.2f}s")


def test_criterion_08_weyl_suite():
    t0 = time.time()
    ok = len(rw.weyl_group()) == 12
    ok = ok and rw.regular_det_multiset() == [1, 1, 3, 3, 4]
    ok = ok and rw.regular_inverse_sum() == Fraction(35, 12)
    ok = ok and rw.levi_coefficient("GL2_short") == Fraction(1, 6)
    ok = ok and rw.levi_coefficient("GL2_long") == Fraction(1, 6)
    ok = ok and rw.levi_coefficient("T") == Fraction(1, 12)
    ok = ok and rw.levi_coefficient("GL2_twisted") == Fraction(1, 6)
    dets = (rw.cartan_determinant("G2"), rw.cartan_determinant("A2"),
            rw.cartan_determinant("D4"))
    ok = ok and dets == (1, 3, 4)
    elapsed = time.time() - t0
    _verdict(8, ok and elapsed < 1.0,
             f"order 12, multiset [1,1,3,3,4], sum 35/12, prefactors 1/6 1/6 1/12 "
             f"and twisted 1/6, Cartan determinants {dets}, {elapsed:.2f}s")


def test_criterion_09_endoscopic_coefficients():
    t0 = time.time()
    coeffs = endo.twisted_coefficients()
    ok = coeffs == {"G2": Fraction(1), "SO4": Fraction(1, 4), "SL3": Fraction(1, 3)}
    elapsed = time.time() - t0
    _verdict(9, ok and elapsed < 1.0,
             f"assembled coefficients {dict(sorted(coeffs.items()))}, {elapsed:.2f}s")


def test_criterion_10_parameter_suite():
    t0 = time.time()
    shapes = par.enumerate_shapes()
    ok = len(shapes) == par.FROZEN_SHAPE_COUNT
    ok = ok and len(set(shapes)) == len(shapes)
    ok = ok and shapes == par.enumerate_shapes()  # stable across calls
    c1 = par.classify(par.ParameterShape((par.Component(8, 1, par.ORBIT_PGL3),)))
    ok = ok and c1.stable and c1.square_integrable and c1.elliptic
    c2 = par.classify(par.ParameterShape(
        (par.Component(7, 1, par.ORBIT_G2), par.Component(1, 1, par.ORBIT_G2))))
    ok = ok and c2.stable and c2.square_integrable
    c3 = par.classify(par.ParameterShape(
        tuple([par.Component(2, 1, par.ORBIT_CYCLE, 1)] * 3)
        + (par.Component(2, 1, par.ORBIT_G2),)))
    ok = ok and c3.semi_stable and bool(c3.notes)
    report = cli.run_suites(["parameters"], seed=0, samples=10)
    statuses = {c["name"]: c["status"] for s in report["suites"] for c in s["checks"]}
    ok = ok and statuses["cycle-example-ellipticity"] == "paper_mismatch"
    ok = ok and "fail" not in statuses.values()
    elapsed = time.time() - t0
    _verdict(10, ok and elapsed < 5.0,
             f"{len(shapes)} shapes, duplicate-free, worked classifications and the "
             f"ellipticity discrepancy reported as paper_mismatch, {elapsed:.2f}s")


def test_criterion_11_centralizer_report():
    t0 = time.time()
    rep = lt.centralizer_report()
    ok = rep["s4"]["computed_dim"] == 6
    ok = ok and rep["s3"]["computed_dim"] in (6, 8)  # computed exactly, reported
    report = cli.run_suites(["lie"], seed=0, samples=10)
    statuses = {c["name"]: c["status"] for s in report["suites"] for c in s["checks"]}
    s3_status = statuses["involution-centralizer-s3"]
    ok = ok and s3_status in ("pass", "paper_mismatch")
    ok = ok and "fail" not in statuses.values()
    elapsed = time.time() - t0
    _verdict(11, ok and elapsed < 60.0,
             f"s4 dim {rep['s4']['computed_dim']}, s3 dim {rep['s3']['computed_dim']} "
             f"vs printed 8 reported as {s3_status}, no hard failure, {elapsed:.2f}s")


def test_criterion_12_determinism(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    cli.main(["verify", "--suite", "weyl", "--seed", "11", "--out", str(a)])
    cli.main(["verify", "--suite", "weyl", "--seed", "11", "--out", str(b)])
    ok = a.read_bytes() == b.read_bytes()
    c, d = tmp_path / "c.json", tmp_path / "d.json"
    cli.main(["verify", "--suite", "octonion", "--seed", "11", "--samples", "25",
              "--out", str(c)])
    cli.main(["verify", "--suite", "octonion", "--seed", "11", "--samples", "25",
              "--out", str(d)])
    ok = ok and c.read_bytes() == d.read_bytes()
    _verdict(12, ok, "same seed gives byte-identical reports for two suites")
