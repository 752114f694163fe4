"""The names the benchmark harness hooks into still resolve.

``benchmarks/tracer.py`` wraps the functions in its tables in every loaded
``orbint`` module, reaching each module through ``sys.modules`` after importing
only ``orbint.cli``; ``benchmarks/selfcheck.py`` (``check_install``) and
``benchmarks/inproc.py`` (``build_groups``) read a few more names.  A rename or
a lazy import in the program would stop the harness before it measured
anything.  The check runs in a fresh process that imports ``orbint.cli``,
loads the tracer's tables by import (writing nothing under ``benchmarks/``)
and looks every name up the way the tracer does.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# read by selfcheck.check_install and inproc.build_groups; ktrace.weyl_k and
# stable.tau_class are imported by those modules only for the self-check
HARNESS_NAMES = [
    ("ktrace", "weyl_k"),
    ("stable", "tau_class"),
    ("realform", "weyl_k"),
    ("rootsys", "weyl_group"),
    ("realform", "coset_reps"),
]

SCRIPT = """
import importlib.util, json, sys
sys.dont_write_bytecode = True
import orbint.cli
spec = importlib.util.spec_from_file_location("tracer", sys.argv[1])
tracer = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracer)
pairs = {*tracer.SPAN_TARGETS, *tracer.COUNT_TARGETS, *tracer.GROUP_MAKERS}
pairs |= {tuple(p) for p in json.loads(sys.argv[2])}
missing = [f"{m}.{f}" for m, f in sorted(pairs)
           if not callable(getattr(sys.modules.get(f"orbint." + m), f, None))]
print(json.dumps({"checked": len(pairs), "missing": missing,
                  "tannaka_loaded": "orbint.tannaka" in sys.modules}))
"""


def test_benchmark_hooks_resolve_after_importing_the_cli():
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src") + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, os.path.join(ROOT, "benchmarks", "tracer.py"), json.dumps(HARNESS_NAMES)],
        capture_output=True, text=True, env=env, check=True,
    )
    report = json.loads(proc.stdout)
    assert report["missing"] == []
    assert report["checked"] > len(HARNESS_NAMES)  # the tracer's tables were read
    assert report["tannaka_loaded"]
