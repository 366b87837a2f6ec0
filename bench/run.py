"""voteguard benchmark: one workload per invocation.

    python3 bench/run.py --workload paper-pipeline --seed 0 --seconds 20 --trace 0

Runs from the root of a source checkout and imports voteguard from its
``src/``. With ``--trace 0`` it measures the end-to-end metrics; with
``--trace 1`` it measures the per-layer metrics from spans around the calls
into each voteguard module, and the tracing overhead. It prints every
metric by name and unit, writes a results file with provenance under
``bench/results/``, and prints as its last line one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = ROOT / "bench" / "results"
WORK = ROOT / "bench" / ".work"

DEFAULT_SEED = 0    # the held-out seed is 7919: see README.md

LOWER, HIGHER = "lower", "higher"

# End-to-end metrics that BENCHMARK.json lists: every workload measures them,
# none reads 0, and each keeps still between runs of the same code.
END_TO_END = {
    "setup_s": ("s", LOWER),
    "pass_s": ("s", LOWER),
    "peak_rss_mb": ("MB", LOWER),
    "accepted_accuracy": ("ratio", HIGHER),
}
# End-to-end metrics printed and kept in the results file only: they exist on
# some workloads only, read 0 at the seed commit, or move with the load that
# other tenants put on the machine (see README.md).
REPORTED = {
    "gate_p10_us": ("us", LOWER),
    "gate_p50_us": ("us", LOWER),
    "gate_p99_us": ("us", LOWER),
    "gate_per_s": ("1/s", HIGHER),
    "train_s": ("s", LOWER),
    "predict_s": ("s", LOWER),
    "sweep_s": ("s", LOWER),
    "pipeline_s": ("s", LOWER),
    "error_rate": ("ratio", LOWER),
    "known_reject_rate": ("ratio", LOWER),
    "unknown_reject_rate": ("ratio", HIGHER),
}
PER_LAYER = {
    "data.load_csv.s": ("s", LOWER),
    "data.load_csv.rows_per_s": ("rows/s", HIGHER),
    "data.write_csv.s": ("s", LOWER),
    "core.Dataset.subset.s": ("s", LOWER),
    "core.Dataset.subset.calls": ("count", LOWER),
    "core.compute_metrics.s": ("s", LOWER),
    "ensemble.fit.self_s": ("s", LOWER),
    "ensemble.bootstrap_indices.s": ("s", LOWER),
    "ensemble.predict.self_s": ("s", LOWER),
    "ensemble.predict.calls": ("count", LOWER),
    "ensemble.entropy_of.s": ("s", LOWER),
    "learners.train.tree.s": ("s", LOWER),
    "learners.train.logistic.s": ("s", LOWER),
    "learners.train.linear_svm.s": ("s", LOWER),
    "learners.linear_iters": ("count", LOWER),
    "learners.converged_ratio": ("ratio", HIGHER),
    "learners.best_split.s": ("s", LOWER),
    "learners.best_split.calls": ("count", LOWER),
    "learners.predict_label.s": ("s", LOWER),
    "learners.predict_label.calls": ("count", LOWER),
    "learners.tree_nodes": ("count", LOWER),
    "persist.save_model.s": ("s", LOWER),
    "persist.load_model.s": ("s", LOWER),
    "persist.model_bytes": ("bytes", LOWER),
    "harness.run_threshold_sweep.self_s": ("s", LOWER),
    "cli.train.self_s": ("s", LOWER),
    "cli.predict.self_s": ("s", LOWER),
    "cli.sweep_threshold.self_s": ("s", LOWER),
    "trace.overhead_ratio": ("ratio", LOWER),
}


def layer_values(rounds: dict[str, float], overhead: float) -> dict[str, float]:
    """The per-layer metrics from one round's span totals."""
    def ratio(a, b):
        return rounds.get(a, 0.0) / rounds[b] if rounds.get(b) else 0.0

    values = {name: rounds.get(name, 0.0) for name in PER_LAYER}
    values["data.load_csv.rows_per_s"] = ratio("data.load_csv.rows", "data.load_csv.s")
    values["learners.converged_ratio"] = ratio("learners.converged", "learners.members")
    values["trace.overhead_ratio"] = overhead
    return values


def parse_args(argv=None):
    from workloads import WORKLOADS
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    return args


def main(argv=None) -> int:
    if not (SRC / "voteguard" / "__init__.py").is_file():
        print(f"error: no voteguard sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    args = parse_args(argv)

    import numpy as np
    from checks import earlier_model_shas
    from measure import SpeedSampler, peak_rss_mb, provenance
    from tracing import per_round, span_summary
    from workloads import WORKLOADS, Session

    origin = provenance(ROOT, np.__version__)
    earlier = earlier_model_shas(RESULTS, args.workload, args.seed,
                                 origin["source_sha256"])
    WORK.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        with SpeedSampler() as speed:
            session = Session(workdir, trace=bool(args.trace), speed=speed,
                              earlier_shas=earlier)
            run = WORKLOADS[args.workload](session, args.seed, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    run.details["reference_kernel_s"] = {
        "median": statistics.median(speed.samples), "samples": len(speed.samples)}

    checks = session.checks
    run.put("peak_rss_mb", peak_rss_mb(), 1)
    run.put("error_rate", checks.error_rate, checks.attempted)

    RESULTS.mkdir(parents=True, exist_ok=True)
    if args.trace:
        layers = layer_values(per_round(session.tracer),
                              run.values["trace.overhead_ratio"])
        table = {name: (value, *PER_LAYER[name]) for name, value in layers.items()}
        session.tracer.save(RESULTS / f"{args.workload}-spans.npz")
    else:
        table = {name: (run.values[name], *unit_better)
                 for name, unit_better in {**END_TO_END, **REPORTED}.items()
                 if name in run.values}

    results = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": origin,
        "metrics": {name: {"value": value, "unit": unit, "better": better,
                           "samples": run.samples.get(name),
                           "in_benchmark_json": name in END_TO_END or name in PER_LAYER}
                    for name, (value, unit, better) in table.items()},
        "checks": {"attempted": checks.attempted, "failed": checks.failed,
                   "problems": checks.problems},
        "details": run.details,
    }
    if args.trace:
        results["spans"] = span_summary(session.tracer)
        results["untraced_names"] = sorted(session.untraced_names)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(results, indent=1, sort_keys=True) + "\n",
                   encoding="utf-8")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"-> {out.relative_to(ROOT)}")
    for name, (value, unit, better) in table.items():
        n = run.samples.get(name)
        print(f"  {name:36s} {value:14.6g} {unit:7s} ({better} is better"
              + (f", n={n})" if n is not None else ")"))
    for problem in checks.problems[:5]:
        print(f"  FAILED CHECK: {problem}")

    keep = PER_LAYER if args.trace else END_TO_END
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": table[name][0], "unit": table[name][1]}
                    for name in keep},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
