"""Benchmark of trialgebra: three seeded workloads, each run in child
processes of one Python interpreter, one child at a time.

    python3 perfbench/run.py --workload verify-all --seed 1 --seconds 30 --trace 0

Workloads (why each was chosen is recorded in BENCHMARK.json):

* ``verify-all``: ``python -m trialgebra verify --suite all --seed S
  --samples 100``, cold every pass, as a user runs it.  Mostly Clifford
  kernels on rational coefficients.
* ``spin-cyclo``: conjugates default_dtheta() by ad(s) for seeded spin
  elements s with irrational coefficients and takes the fixed subalgebra.
  The same kernels as verify-all on non-rational scalars.
* ``similarity``: conjugates default_dtheta() by a seeded P = L U over
  Q(zeta_24) and runs exact elimination on the result.  No Clifford kernel.

With ``--trace 0`` a run measures the end-to-end metrics: set-up probes,
then cold passes until ``--seconds`` is used up (at least two passes).
With ``--trace 1`` it runs one untraced pass, the same pass traced in-process
(see spans.py) and the L0 microbenchmark, and reports the per-layer metrics.
Every item is checked by its correctness gate (see workloads.py).  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

The benchmark writes only under ``.perfbench-out/`` at the repository root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import select
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from spans import MATRIX_METHODS, MUL_KINDS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"

# every child is killed, and the run abandoned, this long after the run began
HARD_LIMIT_S = 170.0

# items per worker pass; sized so that one pass takes a few seconds
BATCH = {"verify-all": 1, "spin-cyclo": 6, "similarity": 8}
SETUP_PROBES = 7
MIN_PASSES = 2

SUITES = ("octonion", "clifford", "spinor", "triality", "lie", "endoscopy", "weyl", "parameters")

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "items_per_s": "1/s",
    "peak_rss_mb": "MB",
    "success_rate": "ratio",
}

MATRIX_SPANS = tuple(f"exact_field.ExactMatrix.{m}" for m in MATRIX_METHODS)
CONSTRUCTION_SPANS = (
    "triality.ad_on_bivectors", "triality.bracket_coords", "triality.default_dtheta",
    "triality.fixed_subalgebra", "lie_tools.derivation_algebra", "lie_tools.commutant_in",
    "lie_tools.centralizer_report", "endoscopy.twisted_fixed_dimensions",
    "endoscopy.s4prime_calibration",
)
# span name -> the statistics of it that are reported
SPAN_STATS = {
    **{name: ("calls", "self_s") for name in MATRIX_SPANS + ("exact_field.rref",)},
    "clifford.clif_mul": ("calls", "self_s", "term_pairs"),
    "clifford.vector_rep": ("busy_s", "self_s", "term_pairs"),
    "clifford.is_spin": ("busy_s",),
    "clifford.is_pin": ("busy_s",),
    "clifford.bivector_exp": ("busy_s",),
    "spinor.clifford_action": ("busy_s",),
    "spinor.vector_action": ("busy_s",),
    "octonion.zorn_mul": ("calls", "self_s"),
    "octonion.para_mul": ("busy_s",),
    **{name: ("busy_s", "self_s") for name in CONSTRUCTION_SPANS},
    **{f"cli.suite.{s}": ("busy_s",) for s in SUITES},
    "cli.render_json": ("busy_s",),
}
MICRO_METRICS = ("exact_field.mul.rational_us", "exact_field.mul.sparse_us",
                 "exact_field.mul.dense_us", "exact_field.add.dense_us",
                 "exact_field.inv.dense_us")


def _span_metric_names() -> list[str]:
    return [f"{name}.{stat}" for name, stats in SPAN_STATS.items() for stat in stats]


PER_LAYER_METRICS = (list(MICRO_METRICS)
                     + [f"exact_field.mul.{k}.calls" for k in MUL_KINDS]
                     + ["exact_field.max_coeff_bits"]
                     + _span_metric_names()
                     + ["trace.overhead_ratio"])


def unit_of(metric: str) -> str:
    if metric in END_TO_END_UNITS:
        return END_TO_END_UNITS[metric]
    if metric.endswith("_us"):
        return "us"
    if metric.endswith(("busy_s", "self_s")):
        return "s"
    if metric.endswith("max_coeff_bits"):
        return "bits"
    if metric.endswith("ratio"):
        return "ratio"
    return "count"


class BenchError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------

@dataclass
class Child:
    wall: float
    cpu: float
    rss_mb: float
    code: int
    stdout: str

    def last_json(self) -> dict:
        lines = self.stdout.strip().splitlines()
        return json.loads(lines[-1]) if lines else {}


def _env() -> dict:
    """Children import the checkout's sources, hash strings the same way every
    run, and cache bytecode under OUT whatever the caller's environment says,
    so that set-up time never includes compiling the sources."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPYCACHEPREFIX"] = str(OUT / "pycache")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def run_child(argv: list[str], deadline: float) -> Child:
    """Run one child to completion; wall time is spawn to exit, CPU time and
    peak RSS come from the child's own resource usage."""
    OUT.mkdir(exist_ok=True)
    with open(OUT / "child.out", "w+b") as out, open(OUT / "child.err", "w+b") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                                cwd=ROOT, env=_env())
        try:
            fd = os.pidfd_open(proc.pid)
            try:
                ready, _, _ = select.select([fd], [], [], max(0.0, deadline - time.monotonic()))
            finally:
                os.close(fd)
            if not ready:
                raise BenchError(f"child {argv[1:4]} ran past the run's time limit")
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            if proc.returncode is None:
                proc.kill()
                proc.wait()
        out.seek(0)
        err.seek(0)
        stdout, stderr = out.read().decode(), err.read().decode()
    if stderr.strip():
        sys.stderr.write(stderr[-2000:])
    return Child(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024,
                 proc.returncode, stdout)


def worker(*args) -> list[str]:
    return [sys.executable, str(HERE / "worker.py"), *map(str, args)]


@dataclass
class Pass:
    child: Child
    attempted: int
    failed: int
    result: dict


def run_pass(workload: str, seed: int, index: int, deadline: float,
             trace_path: Path | None = None) -> Pass:
    # workloads imports the library, which main puts on the path after checking for it
    from workloads import VERIFY_SAMPLES, VERIFY_SEED, verify_gate

    batch = BATCH[workload]
    if workload == "verify-all" and trace_path is None:
        child = run_child([sys.executable, "-m", "trialgebra", "verify", "--suite", "all",
                           "--seed", str(VERIFY_SEED), "--samples", str(VERIFY_SAMPLES)],
                          deadline)
        attempted, failed, _ = verify_gate(child.code, child.stdout)
        # recorded, not gated: planned changes to the report alter its bytes on purpose
        sha = hashlib.sha256(child.stdout.encode()).hexdigest()
        print(f"verify-all report sha256 {sha}", file=sys.stderr)
        return Pass(child, attempted, failed, {})
    args = ["pass", workload, "--seed", seed, "--first", index * batch, "--count", batch]
    if trace_path is not None:
        args += ["--trace", trace_path]
    child = run_child(worker(*args), deadline)
    if child.code != 0:
        return Pass(child, batch, batch, {})
    result = child.last_json()
    return Pass(child, result["attempted"], result["failed"], result)


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------

def measure_end_to_end(workload: str, seed: int, seconds: float, deadline: float):
    start = time.monotonic()
    worker_setup = worker("setup", workload)
    run_child(worker_setup, deadline)  # warm-up: fills the bytecode cache
    setups = []
    for _ in range(SETUP_PROBES):
        probe = run_child(worker_setup, deadline)
        if probe.code != 0:
            raise BenchError(f"set-up probe exited {probe.code}")
        setups.append(probe.wall)
    passes = []
    while True:
        passes.append(run_pass(workload, seed, len(passes), deadline))
        elapsed = time.monotonic() - start
        mean = sum(p.child.wall for p in passes) / len(passes)
        if len(passes) >= MIN_PASSES and elapsed + mean / 2 > seconds:
            break
        if time.monotonic() + 1.5 * mean > deadline:
            break
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(p.child.wall for p in passes),
        "cpu_s": statistics.median(p.child.cpu for p in passes),
        "items_per_s": attempted / sum(p.child.wall for p in passes),
        "peak_rss_mb": max(p.child.rss_mb for p in passes),
        "success_rate": 1 - failed / attempted,
    }
    return attempted, failed, metrics


def per_layer_values(traced: dict, micro: dict, overhead_ratio: float) -> dict:
    spans = traced.get("spans", {})
    values = dict(micro.get("metrics", {}))
    for kind in MUL_KINDS:
        values[f"exact_field.mul.{kind}.calls"] = traced.get("mul_calls", {}).get(kind, 0)
    values["exact_field.max_coeff_bits"] = traced.get("max_coeff_bits", 0)
    for name, stats in SPAN_STATS.items():
        for stat in stats:
            values[f"{name}.{stat}"] = spans.get(name, {}).get(stat, 0)
    values["trace.overhead_ratio"] = overhead_ratio
    return values


def measure_per_layer(workload: str, seed: int, deadline: float):
    untraced = run_pass(workload, seed, 0, deadline)
    trace_path = OUT / f"spans-{workload}-{seed}.json"
    traced = run_pass(workload, seed, 0, deadline, trace_path)
    micro_child = run_child(worker("micro", "--seed", seed), deadline)
    micro = micro_child.last_json() if micro_child.code == 0 else {"attempted": 1, "failed": 1}
    attempted = untraced.attempted + traced.attempted + micro["attempted"]
    failed = untraced.failed + traced.failed + micro["failed"]
    values = per_layer_values(traced.result, micro, traced.child.wall / untraced.child.wall)
    return attempted, failed, values


def main(argv=None) -> int:
    p = argparse.ArgumentParser(prog="run.py", description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(BATCH))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (SRC / "trialgebra" / "__init__.py").is_file():
        print(f"run.py: no trialgebra sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # turn SIGTERM into SystemExit so run_child still kills and reaps its child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    deadline = time.monotonic() + HARD_LIMIT_S
    try:
        if args.trace:
            attempted, failed, values = measure_per_layer(args.workload, args.seed, deadline)
            names = PER_LAYER_METRICS
        else:
            attempted, failed, values = measure_end_to_end(
                args.workload, args.seed, args.seconds, deadline)
            names = list(END_TO_END_UNITS)
    except BenchError as err:
        print(f"run.py: {err}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": values[n], "unit": unit_of(n)} for n in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
