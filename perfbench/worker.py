"""Child process of the benchmark.

    worker.py setup WORKLOAD
        import trialgebra.cli (and, except for verify-all, build the cold
        default_dtheta()), then exit: one set-up probe.
    worker.py pass WORKLOAD --seed S --first I --count K [--trace PATH]
        set up, then run items I..I+K-1 of the workload.  verify-all runs the
        full suite list in-process instead, as ``verify --suite all`` does.
        With --trace, every call into the traced layer functions is recorded
        and the spans are written to PATH.
    worker.py micro --seed S
        the seeded L0 microbenchmark of CycloNum mul, add and inv.

Each mode prints one JSON object as its last line of standard output.
"""

from __future__ import annotations

import argparse
import json
import operator
import random
import statistics
import sys
import time
from fractions import Fraction


def setup(workload: str):
    import trialgebra.cli  # noqa: F401  (the import is the set-up being measured)
    if workload != "verify-all":
        from trialgebra import triality
        return triality.default_dtheta()
    return None


def run_pass(workload: str, seed: int, first: int, count: int, trace_path: str | None) -> dict:
    import trialgebra.cli as cli
    import spans
    import workloads

    tracer = spans.Tracer()
    if trace_path:
        tracer.install()
    try:
        if workload == "verify-all":
            report = cli.run_suites(cli.SUITE_ORDER, workloads.VERIFY_SEED,
                                    workloads.VERIFY_SAMPLES)
            text = cli.render_json(report)
            attempted, failed, bits = workloads.verify_gate(cli.report_exit_code(report), text)
        else:
            dtheta = setup(workload)
            make, item = workloads.ITEMS[workload]
            outcomes = [workloads.run_item(item, make(workloads.item_rng(seed, workload, i)), dtheta)
                        for i in range(first, first + count)]
            attempted = len(outcomes)
            failed = sum(not o.ok for o in outcomes)
            bits = max(o.bits for o in outcomes)
    finally:
        tracer.restore()
    result = {"attempted": attempted, "failed": failed, "max_coeff_bits": bits}
    if trace_path:
        tracer.write(trace_path)
        result["spans"] = spans.summarize(tracer.spans)
        result["mul_calls"] = tracer.mul_calls
    return result


# ---------------------------------------------------------------------------
# L0 microbenchmark
# ---------------------------------------------------------------------------

MICRO_PAIRS = 48
MICRO_REPEATS = 9
MICRO_POSITIONS = {"rational": 1, "sparse": 3, "dense": 8}


def _per_op_us(op, args_list) -> float:
    times = []
    for _ in range(MICRO_REPEATS):
        t0 = time.perf_counter()
        for args in args_list:
            op(*args)
        times.append((time.perf_counter() - t0) / len(args_list))
    return statistics.median(times) * 1e6


def micro(seed: int) -> dict:
    from trialgebra import sampling
    from trialgebra.exact_field import CycloNum, ZERO

    rng = random.Random(f"{seed}:micro")

    def element(kind: str) -> CycloNum:
        coeffs = [Fraction(0)] * 8
        n = MICRO_POSITIONS[kind]
        for k in ([0] if n == 1 else rng.sample(range(8), n)):
            while not coeffs[k]:
                coeffs[k] = sampling.rational(rng)
        return CycloNum(coeffs)

    pairs = {kind: [(element(kind), element(kind)) for _ in range(MICRO_PAIRS)]
             for kind in MICRO_POSITIONS}
    failed = 0
    for kind, ps in pairs.items():
        ok = all(a * b * b.inv() == a and a + (-a) == ZERO for a, b in ps)
        failed += not ok
    dense = pairs["dense"]
    metrics = {f"exact_field.mul.{kind}_us": _per_op_us(operator.mul, ps)
               for kind, ps in pairs.items()}
    metrics["exact_field.add.dense_us"] = _per_op_us(operator.add, dense)
    metrics["exact_field.inv.dense_us"] = _per_op_us(CycloNum.inv, [(b,) for _, b in dense])
    return {"attempted": len(pairs), "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(prog="worker.py")
    sub = p.add_subparsers(dest="mode", required=True)
    s = sub.add_parser("setup")
    s.add_argument("workload")
    r = sub.add_parser("pass")
    r.add_argument("workload")
    r.add_argument("--seed", type=int, required=True)
    r.add_argument("--first", type=int, default=0)
    r.add_argument("--count", type=int, default=1)
    r.add_argument("--trace", default=None)
    m = sub.add_parser("micro")
    m.add_argument("--seed", type=int, required=True)
    args = p.parse_args(argv)

    if args.mode == "setup":
        setup(args.workload)
        result = {}
    elif args.mode == "pass":
        result = run_pass(args.workload, args.seed, args.first, args.count, args.trace)
    else:
        result = micro(args.seed)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
