"""Tests of the benchmark itself: gates, tracer, metric names and exit codes.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import pytest  # noqa: E402

import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from trialgebra import cli  # noqa: E402
from trialgebra import clifford as cl  # noqa: E402
from trialgebra import triality as tri  # noqa: E402
from trialgebra.exact_field import CycloNum, ExactMatrix  # noqa: E402


@pytest.fixture(scope="module")
def dtheta():
    return tri.default_dtheta()


def error_rate(outcomes) -> float:
    return sum(not o.ok for o in outcomes) / len(outcomes)


# ---------------------------------------------------------------------------
# correctness gates
# ---------------------------------------------------------------------------

def _report(mismatches=workloads.KNOWN_MISMATCHES, extra_status="pass") -> str:
    checks = [{"name": n, "status": "paper_mismatch", "expected": "1", "actual": "2"}
              for n in mismatches]
    checks.append({"name": "some-check", "status": extra_status, "expected": "3/4",
                   "actual": "3/4"})
    return json.dumps({"suites": [{"name": "all", "checks": checks}]})


def test_verify_gate_accepts_a_correct_report():
    assert workloads.verify_gate(2, _report()) == (7, 0, 3)  # 4 in "3/4" has 3 bits


@pytest.mark.parametrize("code, text", [
    (2, _report(extra_status="fail")),
    (2, _report(mismatches=workloads.KNOWN_MISMATCHES[1:])),
    (2, _report(mismatches=workloads.KNOWN_MISMATCHES + ("new-mismatch",))),
    (0, _report()),
    (1, _report()),
    (2, _report()[:-20]),
    (2, ""),
])
def test_verify_gate_fails_every_check_of_a_corrupted_report(code, text):
    attempted, failed, _ = workloads.verify_gate(code, text)
    assert attempted >= 1 and failed == attempted


def test_spin_gate(dtheta):
    s = cl.bivector_exp([(Fraction(1, 12), 0b11), (Fraction(5, 12), 0b1100)])
    assert workloads.run_item(workloads.spin_item, s, dtheta).ok
    not_spin = [cl.CliffordElement.scalar(2), cl.clif_mul(s, cl.basis_vector(1)) + s]
    outcomes = [workloads.run_item(workloads.spin_item, x, dtheta) for x in not_spin]
    assert error_rate(outcomes) == 1


def test_spin_gate_rejects_a_wrong_fixed_dimension():
    s = cl.bivector_exp([(Fraction(1, 12), 0b11)])
    eye = ExactMatrix.identity(workloads.N)  # fixes all 28 dimensions
    assert error_rate([workloads.run_item(workloads.spin_item, s, eye)]) == 1


def test_similarity_gate(dtheta):
    p = workloads.similarity_matrix(random.Random(5))
    assert workloads.run_item(workloads.similarity_item, p, dtheta).ok
    wrong = [workloads.run_item(workloads.similarity_item, p, ExactMatrix.identity(workloads.N)),
             workloads.run_item(workloads.similarity_item, p, dtheta @ dtheta @ dtheta),
             workloads.run_item(workloads.similarity_item, ExactMatrix.zero(28, 28), dtheta)]
    assert error_rate(wrong) == 1


def test_spin_elements_have_the_fixed_term_count():
    for i in range(3):
        s = workloads.spin_element(workloads.item_rng(1, "spin-cyclo", i))
        assert len(s.terms) == workloads.SPIN_TERMS
        assert any(not c.is_rational() for c in s.terms.values())


def test_micro_checks_its_own_results(monkeypatch):
    assert worker.micro(3)["failed"] == 0
    real_mul = CycloNum.__mul__

    def broken(a, b):  # a "fast path" that drops the top coordinate
        out = real_mul(a, b)
        return CycloNum(out.coeffs[:7] + (Fraction(0),))

    monkeypatch.setattr(CycloNum, "__mul__", broken)
    monkeypatch.setattr(CycloNum, "__rmul__", broken)
    result = worker.micro(3)
    assert result["failed"] >= 2 and result["failed"] <= result["attempted"]


# ---------------------------------------------------------------------------
# tracer
# ---------------------------------------------------------------------------

def _bindings() -> dict:
    out = {}
    for mod in spans._library_modules():
        out.update({(mod.__name__, k): v for k, v in vars(mod).items()})
    for cls in (ExactMatrix, CycloNum):
        out.update({(cls.__name__, k): v for k, v in vars(cls).items()})
    out.update({("SUITES", k): v for k, v in cli.SUITES.items()})
    return out


def test_tracer_rebinds_every_import_and_restores_all_bindings():
    before = _bindings()
    original = cl.clif_mul
    with spans.Tracer() as tracer:
        from trialgebra import endoscopy, sampling
        for mod in (cl, tri, sampling, endoscopy):
            assert mod.clif_mul is not original
            assert mod.clif_mul.__wrapped__ is original
        assert endoscopy.default_dtheta is tri.default_dtheta
        cl.vector_rep(cl.bivector_exp([(Fraction(1, 12), 0b11)]))
        names = {s[0] for s in tracer.spans}
    assert {"clifford.bivector_exp", "clifford.vector_rep", "clifford.clif_mul",
            "clifford.is_spin", "clifford.is_pin"} <= names
    assert tracer.mul_calls["rational"] > 0 and tracer.mul_calls["sparse"] > 0
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items())


def test_summarize_self_busy_and_pairs():
    # outer(0..10) > inner(1..4) > clif_mul(2..3, 6 pairs); outer > outer(5..9)
    recorded = [
        ["outer", 0.0, 10.0, -1, 0],
        ["inner", 1.0, 4.0, 0, 0],
        ["clifford.clif_mul", 2.0, 3.0, 1, 6],
        ["outer", 5.0, 9.0, 0, 0],
    ]
    s = spans.summarize(recorded)
    assert s["outer"]["calls"] == 2
    assert s["outer"]["busy_s"] == 10.0  # the recursive call is counted once
    assert s["outer"]["self_s"] == (10 - 3 - 4) + 4
    assert s["inner"]["self_s"] == 2.0
    assert s["outer"]["term_pairs"] == 6 and s["inner"]["term_pairs"] == 6
    assert s["clifford.clif_mul"]["term_pairs"] == 6


def _traced_counts(workload: str, tmp_path: Path, tag: str) -> dict:
    out = subprocess.run(
        run.worker("pass", workload, "--seed", 11, "--count", 1, "--trace", tmp_path / tag),
        capture_output=True, text=True, cwd=ROOT, env=run._env(), check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["failed"] == 0
    counts = {name: (rec["calls"], rec["term_pairs"]) for name, rec in result["spans"].items()}
    return {"spans": counts, "mul": result["mul_calls"], "bits": result["max_coeff_bits"]}


@pytest.mark.parametrize("workload", ["spin-cyclo", "similarity"])
def test_traced_counts_repeat_exactly(workload, tmp_path):
    first = _traced_counts(workload, tmp_path, "a.json")
    assert first == _traced_counts(workload, tmp_path, "b.json")
    assert json.loads((tmp_path / "a.json").read_text())["spans"]


# ---------------------------------------------------------------------------
# the benchmark contract
# ---------------------------------------------------------------------------

def test_benchmark_json_names_the_metrics_run_py_prints():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(run.BATCH)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    assert [m["name"] for m in bench["per_layer"]] == run.PER_LAYER_METRICS
    assert all(m["unit"] == run.unit_of(m["name"]) for m in bench["per_layer"])
    assert run.SUITES == tuple(cli.SUITE_ORDER)
    traced = ({f"{mod}.{fn}" for mod, fn in spans.FUNCTIONS}
              | {f"exact_field.ExactMatrix.{m}" for m in spans.MATRIX_METHODS}
              | {f"cli.suite.{s}" for s in run.SUITES})
    assert set(run.SPAN_STATS) <= traced


def test_run_fails_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "verify-all",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         capture_output=True, text=True, cwd=tmp_path, timeout=60)
    assert out.returncode != 0
    assert out.stdout == ""
