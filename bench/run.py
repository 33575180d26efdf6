"""Benchmark entry point: one workload, one seed, one run.

    python3 bench/run.py --workload roof|protocols|cli --seed N \
        --seconds S --trace 0|1

Builds nothing: it imports ``cohkit`` from ``src/`` of the checkout it sits
in.  With ``--trace 0`` the last line of standard output is a JSON object
with every end-to-end metric; with ``--trace 1`` it holds every per-layer
metric instead, together with the tracing overhead.  The full result,
environment included, is also written under ``bench/out/``.
"""

from __future__ import annotations

import argparse
import os
import sys

import harness

# Single-threaded BLAS and OpenMP, before numpy is first imported.
os.environ.update({k: "1" for k in harness.THREAD_ENV})

WORKLOADS = ("roof", "protocols", "cli")


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def _import_program():
    """Import cohkit from this checkout's src/, and nowhere else."""
    init = harness.SRC / "cohkit" / "__init__.py"
    if not init.is_file():
        sys.exit(f"error: {init} not found; run from a cohkit checkout")
    sys.path.insert(0, str(harness.SRC))
    import cohkit
    if os.path.realpath(cohkit.__file__) != os.path.realpath(init):
        sys.exit(f"error: imported cohkit from {cohkit.__file__}, "
                 f"expected {init}")


def main(argv=None) -> int:
    args = _parse(argv)
    _import_program()
    import importlib
    import json
    import resource
    import statistics
    import time

    import layers

    module = importlib.import_module(f"wl_{args.workload}")
    tracer = harness.Tracer() if args.trace else harness.NullTracer()
    harness.OUT.mkdir(parents=True, exist_ok=True)

    # Set-up: import cost from fresh interpreters, then input generation,
    # validation and warm-up repeated; the median of each is reported.
    imports = harness.import_times()
    prep_times = []
    for _ in range(harness.SETUP_REPEATS):
        t0 = time.perf_counter()
        workload = module.prepare(args.seed, tracer)
        prep_times.append(time.perf_counter() - t0)
    setup_s = imports["total"] + statistics.median(prep_times)

    for patch in workload.patches:
        tracer.patch(*patch)
    try:
        records, elapsed = harness.run_loop(workload.rounds, args.seconds,
                                            tracer)
    finally:
        tracer.restore()

    problems = harness.check_records(records, len(workload.rounds))
    problems += workload.final_check(records)
    attempted = len(records)
    failed = sum(rec.error is not None for rec in records)
    latencies_ms = [rec.latency_ns / 1e6 for rec in records]

    if args.trace:
        spans = harness.spans_with_self_time(tracer, records)
        values = layers.per_layer(spans, records, imports)
        values.update(workload.record_metrics(records))
        cost_ns = harness.span_cost_ns()
        values["trace.span_cost_us"] = cost_ns / 1e3
        values["trace.spans_per_op"] = len(spans) / attempted
        values["trace.overhead_pct"] = 100.0 * len(spans) * cost_ns / (
            elapsed * 1e9)
        values["trace.ops_per_s"] = attempted / elapsed
        kind = "per_layer"
    else:
        cf_excess, quality_problems = workload.quality()
        problems += quality_problems
        cold_s, cold_problems = harness.cold_start()
        problems += cold_problems
        values = {
            "setup_s": setup_s,
            "ops_per_s": attempted / elapsed,
            "latency_p50_ms": harness.quantile(latencies_ms, 0.5),
            "latency_p90_ms": harness.quantile(latencies_ms, 0.9),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "cf_excess_bits": cf_excess,
            "cold_start_ms": cold_s * 1e3,
        }
        kind = "end_to_end"

    spec = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec[kind]}
    unknown = sorted(set(values) - set(units))
    if unknown:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: {unknown}")
    metrics = {name: {"value": float(values.get(name, 0.0)), "unit": unit}
               for name, unit in units.items()}

    errors, by_op = {}, {}
    for rec in records:
        by_op.setdefault(rec.op.name, []).append(rec.latency_ns / 1e6)
        if rec.error is not None:
            errors.setdefault(rec.op.name, rec.error)
    detail = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "environment": harness.environment(),
        "rounds": records[-1].round_index + 1,
        "ops_per_round": len(workload.rounds[0]),
        "elapsed_s": elapsed, "setup": {"imports_s": imports,
                                        "prepare_s": prep_times},
        "attempted": attempted, "failed": failed, "failed_ops": errors,
        "problems": problems, "metrics": metrics,
        "op_median_ms": {k: statistics.median(v) for k, v in by_op.items()},
    }
    name = f"result-{args.workload}-s{args.seed}-t{args.trace}.json"
    (harness.OUT / name).write_text(json.dumps(detail, indent=2) + "\n")
    if args.trace:
        trace_path = harness.OUT / f"trace-{args.workload}-s{args.seed}.json"
        trace_path.write_text(json.dumps(
            [{"id": i, "name": s[0], "start_ns": s[1], "end_ns": s[2],
              "parent": s[3], "op": s[4]} for i, s in enumerate(tracer.spans)]))
    for p in problems[:20]:
        print(f"problem: {p}", file=sys.stderr)

    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
