"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 benchmarks/run.py --workload tau_exact --seed 1 --seconds 20 --trace 0

Workloads: tau_exact, reconstruct, cold_query (see README.md).  The last line
of standard output is {"correct", "attempted", "failed", "metrics"}; with
--trace 0 the metrics are the end-to-end ones, measured untraced, and with
--trace 1 the per-layer ones from a traced run.  Lines before it are the run
report.  Spans of a traced run go to .bench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from common import OUT_DIR, ROOT, SRC, median

E2E_UNITS = {"ops_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}

# per-layer metric -> (kind, source); see README.md for what each one measures
LAYER_METRICS = {
    "rootsys.weyl_group_s": ("self", "rootsys.weyl_group"),
    "realform.weyl_k_s": ("self", "realform.weyl_k"),
    "realform.coset_reps_s": ("self", "realform.coset_reps"),
    "realform.elements_built": ("count", "realform.elements_built"),
    "toruschar.self_s": ("self", "toruschar.self_s"),
    "toruschar.eval_weight_calls": ("count", "toruschar.eval_weight_calls"),
    "toruschar.numerator_calls": ("count", "toruschar.numerator_calls"),
    "ktrace.self_s": ("self", "ktrace.self_s"),
    "ktrace.tau_generator_calls": ("count", "ktrace.tau_generator_calls"),
    "stable.self_s": ("self", "stable.self_s"),
    "tannaka.synth_family_s": ("total", "tannaka.synth_family"),
    "tannaka.recover_s": ("total", "tannaka.recover_dims", "tannaka.recover_characters",
                          "tannaka.recover_highest_weights", "tannaka.recover_noncompact_weights"),
    "cli.import_s": ("total", "cli.import"),
    "cli.self_s": ("self", "cli.main"),
    "cli.process_s": ("total", "cli.process"),
}
LAYER_UNITS = {name: ("count" if spec[0] == "count" else "s") for name, spec in LAYER_METRICS.items()}
LAYER_UNITS["trace.overhead_pct"] = "%"


def layer_value(segment: dict, metric: str) -> float:
    kind, *sources = LAYER_METRICS[metric]
    suffix = "#total" if kind == "total" else ""
    return float(sum(segment.get(s + suffix, 0) for s in sources))


def layer_metrics(result: dict) -> dict:
    """Median over traced setups plus median over traced passes, per metric."""
    segments = result["segments"]
    out = {}
    for metric in LAYER_METRICS:
        value = 0.0
        for kind in (segments.setups, segments.passes):
            if kind:
                value += median(layer_value(seg, metric) for seg in kind)
        out[metric] = value
    out["trace.overhead_pct"] = result["overhead_pct"]
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("tau_exact", "reconstruct", "cold_query"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "orbint", "__init__.py")):
        sys.stderr.write(f"error: no program to measure: {SRC}/orbint is missing\n")
        return 2
    sys.path.insert(0, SRC)

    recorder = None
    if args.trace:
        import tracer

        recorder = tracer.Recorder()
    origin = time.perf_counter()
    if args.workload == "cold_query":
        import coldquery

        result = coldquery.run_cold_query(args.seed, args.seconds, recorder)
    else:
        import inproc

        run = inproc.run_tau_exact if args.workload == "tau_exact" else inproc.run_reconstruct
        result = run(args.seed, args.seconds, recorder)

    report = dict(result["report"], workload=args.workload, seed=args.seed, trace=args.trace)
    if args.trace:
        metrics = layer_metrics(result)
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl")
        recorder.write(path, origin, {"workload": args.workload, "seed": args.seed})
        report["spans_file"] = os.path.relpath(path, ROOT)
        report["spans"] = len(recorder)
        units = LAYER_UNITS
    else:
        metrics = result["e2e"]
        units = E2E_UNITS
    print("report " + json.dumps(report, sort_keys=True))
    print(json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
