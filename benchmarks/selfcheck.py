"""Self-check of the benchmark itself.

    python3 benchmarks/selfcheck.py

Checks the reference-loop scaling and the self-time arithmetic on a
hand-built span tree, that tracing wraps and then restores the library's
functions, and runs each workload for one pass (about 30 s in all).  Prints
one line per check and exits 1 if any fails.
"""

from __future__ import annotations

import math
import sys
import time

import common
import refloop
import tracer

failures = []


def check(name: str, ok: bool, detail: str = "") -> None:
    print(f"{'PASS' if ok else 'FAIL'} {name}{': ' + detail if detail else ''}", flush=True)
    if not ok:
        failures.append(name)


def check_reference_scaling() -> None:
    n = refloop.NOMINAL_S
    check("work at nominal host speed keeps its wall time", refloop.scaled(2.0, [n, n]) == 2.0)
    check("work on a host twice as slow reads half its wall time",
          math.isclose(refloop.scaled(2.0, [2 * n, 2 * n, 2 * n]), 1.0))
    check("the scale follows the mean sample", math.isclose(refloop.scaled(1.0, [n, 3 * n]), 0.5))
    with refloop.Sampler() as sampler:
        mark = sampler.mark()
        start = time.perf_counter()
        while time.perf_counter() - start < 0.3:
            sum(range(1000))
        elapsed = time.perf_counter() - start
        wall, ref_s = sampler.since(mark)
    probes = len(sampler.samples)
    check("the sampler probes on its timer", 5 <= probes <= 0.3 / refloop.PROBE_INTERVAL_S + 2, f"{probes} probes")
    check("work time excludes the probes' own time",
          math.isclose(wall + sampler.spent, elapsed, rel_tol=0.01), f"{wall} + {sampler.spent} vs {elapsed}")
    check("reference seconds come from the samples taken during the work",
          math.isclose(ref_s, refloop.scaled(wall, sampler.samples)))
    duration = sampler.samples[0]
    check("one reference run takes about a millisecond", 1e-4 < duration < 1e-2, f"{duration * 1e3:.3f} ms")


def check_self_times() -> None:
    # root [0, 10] has children [1, 3] and [2, 5], which overlap, and [8, 12],
    # which runs past it; [1, 3] has a child [1.5, 2.5].
    spans = [
        ("cli.main", 0.0, 10.0, -1),
        ("ktrace.tau_class", 1.0, 3.0, 0),
        ("toruschar.weyl_numerator", 1.5, 2.5, 1),
        ("ktrace.tau_generator", 2.0, 5.0, 0),
        ("stable.stable_tau", 8.0, 12.0, 0),
    ]
    got = tracer.self_times(spans)
    want = [10.0 - (4.0 + 2.0), 1.0, 1.0, 3.0, 4.0]
    check("self time is duration minus the union of children", got == want, f"{got} vs {want}")
    totals = tracer.layer_totals(spans)
    check("layer self time sums its spans' self times", totals["ktrace.self_s"] == 4.0, str(totals))
    check("inclusive totals keep the full duration", totals["cli.main#total"] == 10.0)
    shifted = [(n, s, e, p + 100 if p >= 0 else p) for n, s, e, p in spans]
    check("a window of spans is read with its base index", tracer.self_times(shifted, 100) == want)


def check_install() -> None:
    sys.path.insert(0, common.SRC)
    import orbint.cli  # noqa: F401
    from orbint import ktrace, realform, stable

    before = (ktrace.weyl_k, stable.tau_class, realform.weyl_k)
    rec = tracer.Recorder()
    rec.install()
    wrapped = all(getattr(f, "__wrapped__", None) is not None
                  for f in (ktrace.weyl_k, stable.tau_class, realform.weyl_k))
    rec.uninstall()
    check("install wraps each function wherever it is looked up", wrapped)
    check("uninstall restores the originals",
          (ktrace.weyl_k, stable.tau_class, realform.weyl_k) == before)


def check_workloads() -> None:
    import coldquery
    import inproc

    inproc.MIN_PASSES = coldquery.MIN_PASSES = 1
    inproc.SETUP_REPEATS = coldquery.SETUP_REPEATS = 1
    for name, run, ops in (
        ("tau_exact", inproc.run_tau_exact, sum(n for _, n in inproc.TAU_FORMS)),
        ("reconstruct", inproc.run_reconstruct, len(inproc.RECON_FORMS)),
        ("cold_query", coldquery.run_cold_query, 7),
    ):
        result = run(1, 0.0)
        e2e = result["e2e"]
        ok = (result["correct"] and result["attempted"] == ops
              and all(v > 0 for v in e2e.values()))
        check(f"{name} runs one pass correctly", ok,
              f"attempted {result['attempted']} failed {result['failed']} {e2e} {result['report']['fails']}")
    check("cold_query's fixed packet query is its only failure", result["failed"] == 1)


if __name__ == "__main__":
    check_reference_scaling()
    check_self_times()
    check_install()
    check_workloads()
    print(f"{len(failures)} failed" if failures else "all passed")
    sys.exit(1 if failures else 0)
