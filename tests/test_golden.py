"""Golden outputs: the full seed-7 run pins the ordered check list, the
statuses, the known paper mismatches and the report bytes, and the bytes of
``compute dtheta`` and ``enumerate shapes`` are pinned as well, so refactors
of the library cannot change what a command writes without a test noticing."""

import hashlib
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from trialgebra import cli

GOLDEN_SHA256 = "19374cee9725a275403e79c8323d043f2e6a1c611e3ea7d585666e8d934d589f"
# sha256 of the same run rendered with --format md
GOLDEN_MD_SHA256 = "cb6b779ee9880cd2cfb1e501af27f7600e6c614970ea33633a7ac4d154aa31b0"

# sha256 of the file each command writes to its output path
COMMAND_SHA256 = {
    ("compute", "dtheta", "--dump"):
        "36045818640417af5cbdb43c80e8a03d6208e0d17acd8da550d39a7243806e1b",
    ("enumerate", "shapes", "--out"):
        "847eb9085e1b4115b2de4ef6c05fbb3d576f32a0760ae4615c309078180da695",
}

GOLDEN_CHECKS = {
    "octonion": [
        "unit-is-identity", "norm-multiplicative", "conjugate-gives-norm",
        "conjugation-anti-automorphism", "trilinear-trace-cyclic",
        "trilinear-trace-bracketing-free", "trace-of-unit",
        "vector-times-vector-lands-in-covectors", "para-product-symmetric-composition",
        "para-product-norm", "para-product-pairing-associative",
        "octonion-model-products-orthogonal", "twisted-3x3-product-tracefree",
        "twisted-3x3-product-norm", "twisted-3x3-trace-coefficient", "norm-of-diagonal",
        "polar-form-symmetric",
    ],
    "clifford": [
        "generator-squares", "generators-anticommute", "blade-contraction",
        "grade-involution-parity", "reversal-of-2-blade", "conjugation-anti-automorphism",
        "associativity", "unit-vectors-square-to-q", "spin-predicate-2-blade",
        "pin-predicate-vector", "non-homogeneous-rejected", "vector-rep-identity",
        "vector-rep-2-blade", "vector-rep-homomorphism", "vector-rep-orthogonal-detsign",
        "volume-element-commutes-with-even", "volume-element-anticommutes-with-vectors",
        "volume-element-square", "vector-rep-of-minus-one", "vector-rep-of-volume-element",
        "bivector-exp-quarter-turn", "bivector-exp-zero-angle",
    ],
    "spinor": [
        "module-clifford-relation", "module-law", "blade-actions-independent",
        "pairing-symmetric-on-half", "pairing-gram-rank", "pairing-vector-self-adjoint",
        "half-spin-of-volume-element", "half-spin-of-minus-one", "odd-elements-swap-halves",
        "top-coefficient-of-top", "top-coefficient-of-one", "pairing-one-against-top",
        "bar-pairing-relation",
    ],
    "triality": [
        "two-sided-product-lemma", "composed-slot-maps-give-norm",
        "first-involution-squares-to-identity", "second-involution-squares-to-identity",
        "unit-consistency", "order-three", "composition-matches-closed-form",
        "triality-validator-accepts", "sign-flipped-triple-rejected",
        "spin-triples-intertwine-the-product", "linearized-map-order-three",
        "linearized-map-preserves-brackets", "fixed-subalgebra-dimension",
        "octonion-model-shift-factorization", "only-dimension-8-supported",
    ],
    "lie": [
        "octonion-derivations-dimension", "split-pair-derivations",
        "matrix-algebra-derivations", "derivations-bracket-closed",
        "derived-subalgebra-dimension", "center-dimension", "derivations-kill-the-unit",
        "infinitesimal-trace-invariance", "commutant-with-identity",
        "involution-centralizer-s4", "involution-centralizer-s3", "s3-ordering-recorded",
    ],
    "endoscopy": [
        "torus-element-factors-commute", "torus-element-in-spin",
        "torus-element-order-three-image", "torus-element-printed-diagonal",
        "printed-product-in-spin", "printed-product-eighth-power",
        "calibrated-product-in-spin", "calibrated-product-eighth-power", "angle-calibration",
        "full-fixed-dimension", "torus-twisted-dimension", "involution-twisted-dimension",
        "printed-product-twisted-dimension", "fixed-subalgebra-diagnostics",
        "coefficient-of-full-datum", "coefficient-of-involution-datum",
        "coefficient-of-torus-datum", "standard-data-candidates", "datum-table",
        "block-embedding-identity", "block-embedding-diagonal",
        "block-embedding-multiplicative", "quaternion-pair-identity",
        "quaternion-pair-kernel", "quaternion-pair-automorphism",
    ],
    "weyl": [
        "group-order", "contains-identity", "closed-under-multiplication",
        "longest-element-is-minus-identity", "preserves-invariant-form",
        "simple-reflections-permute-positives", "regular-determinant-multiset",
        "regular-count-plus-rest", "inverse-determinant-sum", "levi-coefficient-short",
        "levi-coefficient-long", "levi-coefficient-torus", "levi-coefficient-twisted",
        "rank-one-regular-determinant", "rank-one-term-prefactor", "cartan-determinants",
        "determinants-conjugation-invariant", "regular-element-table",
        "modulus-character-exponents",
    ],
    "parameters": [
        "enumeration-count", "enumeration-duplicate-free", "enumeration-all-valid",
        "enumeration-weights", "contains-all-ones-shape", "eight-dimensional-shape",
        "seven-plus-one-shape", "cycle-example-semi-stable", "cycle-example-ellipticity",
        "cycle-example-note-attached", "classification-reorder-invariant",
        "square-integrable-implies-elliptic", "bounded-kind-rejects-dimension-8",
        "mismatched-orbit-rejected",
    ],
}


def _readme_known_mismatches() -> set[str]:
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = text.split("## Known mismatches", 1)[1].split("\n## ", 1)[0]
    return set(re.findall(r"\*\*([a-z0-9-]+)\*\*", section))


def test_golden_report_bytes(golden_run):
    code, data = golden_run
    assert code == 2
    assert hashlib.sha256(data).hexdigest() == GOLDEN_SHA256


def test_golden_check_list(golden_run):
    _, data = golden_run
    rep = json.loads(data)
    mismatches = _readme_known_mismatches()
    assert len(mismatches) == 6
    got = [(s["name"], c["name"], c["status"]) for s in rep["suites"] for c in s["checks"]]
    want = [(suite, name, "paper_mismatch" if name in mismatches else "pass")
            for suite, names in GOLDEN_CHECKS.items() for name in names]
    assert got == want


def test_golden_mismatches_are_the_readme_list(golden_run):
    _, data = golden_run
    rep = json.loads(data)
    got = {c["name"] for s in rep["suites"] for c in s["checks"]
           if c["status"] == "paper_mismatch"}
    assert got == _readme_known_mismatches()


@pytest.mark.parametrize("argv", sorted(COMMAND_SHA256), ids=lambda argv: argv[0])
def test_command_output_bytes(argv, tmp_path):
    out = tmp_path / "out.json"
    assert cli.main([*argv, str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == COMMAND_SHA256[argv]


def test_golden_markdown_bytes(golden_run):
    """``--format md`` renders the same report; pinned from the golden JSON,
    so no second run is needed."""
    _, data = golden_run
    text = cli.render_markdown(json.loads(data))
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_MD_SHA256


REVERSED_RUN = """
import json
from trialgebra import cli
report = cli.run_suites(list(reversed(cli.SUITE_ORDER)), 7, 100)
print(json.dumps(report["suites"]))
"""


def test_suite_records_do_not_depend_on_the_suites_run_before(golden_run, child_env):
    """Each suite is seeded by (seed, suite name) alone: run in reverse order
    in a fresh interpreter, every suite writes the records it writes in the
    golden run, so none reads a cache or state an earlier suite left."""
    out = subprocess.run([sys.executable, "-c", REVERSED_RUN], env=child_env, check=True,
                         capture_output=True, text=True).stdout
    reversed_suites = json.loads(out)
    golden = json.loads(golden_run[1])["suites"]
    assert [s["name"] for s in reversed_suites] == [s["name"] for s in reversed(golden)]
    assert {s["name"]: s["checks"] for s in reversed_suites} == \
        {s["name"]: s["checks"] for s in golden}
