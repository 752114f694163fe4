"""Stand-in for `python3 -m orbint.cli` that measures the host while it runs.

    python3 benchmarks/cli_child.py STATS_FILE SPANS_FILE|- [ARGS...]

Starts a refloop.Sampler, imports orbint.cli and runs orbint.cli.main(ARGS),
exiting with its code as the real entry point does; an exception escapes as
it would there.  Without ARGS it only imports orbint.cli.  On the way out it
writes the probe samples, the time spent in them and its peak RSS to
STATS_FILE, as JSON.
With a SPANS_FILE it also traces the library's public functions (see
tracer.Recorder) and writes the spans there, "cli.import" and "cli.main"
included.
"""

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:1] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import refloop  # noqa: E402

stats_path, spans_path, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
rec = None
if spans_path != "-":
    import tracer

    rec = tracer.Recorder()
sampler = refloop.Sampler()
code = 0
try:
    with sampler:
        start = time.perf_counter()
        import orbint.cli

        if rec is not None:
            rec.add_span("cli.import", start, time.perf_counter())
            rec.install()
        if argv:
            idx = rec.open("cli.main") if rec is not None else None
            try:
                code = orbint.cli.main(argv)
            finally:
                if rec is not None:
                    rec.close(idx)
finally:
    with open(stats_path, "w", encoding="utf-8") as fh:
        json.dump({"samples": sampler.samples or [refloop.probe()], "spent": sampler.spent,
                   "peak_rss_mb": refloop.peak_rss_mb()}, fh)
    if rec is not None:
        rec.write(spans_path, 0.0)
sys.exit(code)
