"""Seeded inputs, per-item computations and correctness gates.

Every input is generated here from the benchmark seed; the library only sees
the generated objects.  Each item function returns an :class:`Outcome` whose
``ok`` is the item's correctness gate, and :func:`run_item` turns an exception
into a failed item, so a broken fast path shows up as an error, not a speed-up.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass
from fractions import Fraction

from trialgebra import clifford as cl
from trialgebra import sampling
from trialgebra import triality as tri
from trialgebra.exact_field import ExactMatrix

# README "Known mismatches": a correct build reports exactly these
KNOWN_MISMATCHES = (
    "cycle-example-ellipticity",
    "involution-centralizer-s3",
    "printed-product-eighth-power",
    "printed-product-twisted-dimension",
    "twisted-3x3-trace-coefficient",
    "vector-rep-of-volume-element",
)
VERIFY_EXIT_MISMATCH = 2
VERIFY_SAMPLES = 100
# verify-all always runs the seed whose report the roadmap pins.  The cost of
# a verify pass depends on its seed (6.1 s to 13.3 s over seeds 1-5 on one
# machine), far more than any bound could absorb, so the benchmark seed does
# not reach it.
VERIFY_SEED = 7

N = tri.N_BIVECTORS
FIXED_DIM = 14

# spin-cyclo: products of SPIN_FACTORS one-plane exponentials, kept only when
# the product has SPIN_TERMS blade terms, so that items cost about the same.
# Angles k*pi/12 with k prime to 12 make every cos and sin irrational, so no
# factor collapses to a rational one.
SPIN_FACTORS = 3
SPIN_TERMS = 8
SPIN_ANGLES = (1, 5, 7, 11)

# similarity: L fills the cells (2k+1, 2k) and U the cells (2k+1, 2k+2) for
# k < SIM_FILLS, so P = L U is banded and mixes 27 of the 28 coordinates.  The
# cells are fixed and only their values are seeded: with randomly placed
# cells the cost of one item varied threefold.
SIM_FILLS = 13


@dataclass(frozen=True)
class Outcome:
    ok: bool
    bits: int = 0  # largest coefficient bit-height among the item's outputs


def item_rng(seed: int, workload: str, index: int) -> random.Random:
    return random.Random(f"{seed}:{workload}:{index}")


def coeff_bits(entries) -> int:
    """Largest numerator or denominator bit length over CycloNum entries."""
    return max((max(abs(c.numerator).bit_length(), c.denominator.bit_length())
                for e in entries for c in e.coeffs), default=0)


def run_item(fn, *args) -> Outcome:
    try:
        return fn(*args)
    except Exception:  # an item that raises is a failed item; the run goes on
        return Outcome(False)


# ---------------------------------------------------------------------------
# verify-all
# ---------------------------------------------------------------------------

def verify_gate(returncode: int, report_text: str) -> tuple[int, int, int]:
    """(checks attempted, checks failed, max coefficient bits) for one report.

    The report passes when verify exits 2, no record has status ``fail`` and
    the ``paper_mismatch`` records are exactly the known ones.  A report that
    fails the gate counts every one of its checks as failed.
    """
    try:
        records = [c for s in json.loads(report_text)["suites"] for c in s["checks"]]
        statuses = [c["status"] for c in records]
        mismatches = sorted(c["name"] for c in records if c["status"] == "paper_mismatch")
        values = " ".join(str(c["expected"]) + " " + str(c["actual"]) for c in records)
    except (ValueError, KeyError, TypeError):
        return 1, 1, 0
    attempted = max(1, len(records))
    ok = (returncode == VERIFY_EXIT_MISMATCH and "fail" not in statuses
          and mismatches == list(KNOWN_MISMATCHES))
    bits = max((int(d).bit_length() for d in re.findall(r"\d+", values)), default=0)
    return attempted, 0 if ok else attempted, bits


# ---------------------------------------------------------------------------
# spin-cyclo
# ---------------------------------------------------------------------------

def spin_element(rng: random.Random) -> cl.CliffordElement:
    while True:
        s = cl.CliffordElement.scalar(1)
        for _ in range(SPIN_FACTORS):
            i, j = rng.sample(range(8), 2)
            angle = Fraction(rng.choice(SPIN_ANGLES), 12)
            s = cl.clif_mul(s, cl.bivector_exp([(angle, (1 << i) | (1 << j))]))
        if len(s.terms) == SPIN_TERMS:
            return s


def _cubes_to_one(m: ExactMatrix, rng: random.Random) -> bool:
    """m^3 x = x on two random rational vectors: the benchmark's own check of
    the order, at the cost of six matrix-vector products."""
    for _ in range(2):
        x = tuple(sampling.rational_cyclo(rng) for _ in range(m.cols))
        if m.mat_vec(m.mat_vec(m.mat_vec(x))) != x:
            return False
    return True


def spin_item(s: cl.CliffordElement, dtheta: ExactMatrix) -> Outcome:
    """Conjugate dtheta by ad(s); the conjugate must cube to 1 and fix a
    14-dimensional subalgebra."""
    if not cl.is_spin(s):
        return Outcome(False)
    m = tri.ad_on_bivectors(s) @ dtheta @ tri.ad_on_bivectors(cl.bar(s))
    dim, basis = tri.fixed_subalgebra(m, require_order_3=True)
    ok = (_cubes_to_one(m, random.Random(0))
          and dim == FIXED_DIM and all(m.mat_vec(v) == v for v in basis))
    return Outcome(ok, coeff_bits(m.entries))


# ---------------------------------------------------------------------------
# similarity
# ---------------------------------------------------------------------------

def _unitriangular(rng: random.Random, shift: int) -> ExactMatrix:
    rows = [[1 if i == j else 0 for j in range(N)] for i in range(N)]
    for k in range(SIM_FILLS):
        rows[2 * k + 1][2 * k + shift] = sampling.cyclo(rng)
    return ExactMatrix.from_rows(rows)


def similarity_matrix(rng: random.Random) -> ExactMatrix:
    return _unitriangular(rng, 0) @ _unitriangular(rng, 2)


def similarity_item(p: ExactMatrix, dtheta: ExactMatrix) -> Outcome:
    """m = P dtheta P^-1 must cube to 1, have rank 28 and a 14-dimensional
    fixed space whose basis vectors m really fixes."""
    eye = ExactMatrix.identity(N)
    p_inv = p.inverse()
    inverse_ok = p @ p_inv == eye
    m = p @ dtheta @ p_inv
    cube_ok = m @ m @ m == eye
    kernel = (m - eye).kernel()
    rank = m.rank()
    fixed_ok = all(m.mat_vec(v) == v for v in kernel)
    ok = inverse_ok and cube_ok and rank == N and len(kernel) == FIXED_DIM and fixed_ok
    return Outcome(ok, max(coeff_bits(m.entries), coeff_bits(c for v in kernel for c in v)))


# workload name -> (input generator, item function)
ITEMS = {
    "spin-cyclo": (spin_element, spin_item),
    "similarity": (similarity_matrix, similarity_item),
}
