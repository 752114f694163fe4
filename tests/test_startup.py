"""What a fresh ``orbint`` process runs before and during one query.

``orbint.cli`` loads ``orbint.tannaka`` lazily: the module object is in
``sys.modules`` from the start, and ``tannaka.py`` runs on the first attribute
access.  These checks need a fresh interpreter each, because the pytest process
may already have imported ``orbint.tannaka`` eagerly through another test.
"""

import json
import os
import subprocess
import sys

import pytest

from test_golden import CORPUS, assert_same

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

TANNAKA_ARGV = ["tannaka", "--preset", "su21", "--lambdas", "0,0;1,0;0,1"]
# one small query of each subcommand that never reconstructs
OTHER_ARGVS = [
    ["tau", "--preset", "compact(A1)", "--lambda", "1", "--t", "1/6"],
    ["stable", "--preset", "sl2r", "--lambda", "3", "--t", "1/7"],
    ["packet", "--preset", "sl2r", "--Lambda", "3", "--t", "1/7"],
    ["limit", "--preset", "sl2r", "--lambda", "3", "--direction", "1.0"],
]

# Records the file of every code object passed to exec(), which is how the
# import system runs a module's body.
QUERY_SCRIPT = """
import contextlib, io, json, sys
ran = set()
def hook(event, args):
    if event == "exec":
        ran.add(getattr(args[0], "co_filename", ""))
sys.addaudithook(hook)

def tannaka_ran():
    return any(name.endswith("tannaka.py") for name in ran)

def query(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = orbint.cli.main(argv)
    return {"argv": argv, "exit": code, "stdout": out.getvalue()}

import orbint.cli
report = {"after_import": tannaka_ran(), "others": []}
for argv in json.loads(sys.argv[1]):
    report["others"].append(query(argv))
report["after_others"] = tannaka_ran()
report["tannaka"] = query(json.loads(sys.argv[2]))
report["after_tannaka"] = tannaka_ran()
print(json.dumps(report))
"""

# Imports the modules named on the command line in that order, keeping the
# module that importing orbint.tannaka returned, then checks that every holder
# has that one module.
ORDER_SCRIPT = """
import importlib, json, sys
first = {name: importlib.import_module(name) for name in sys.argv[1:]}["orbint.tannaka"]
import orbint.cli, orbint.tannaka, orbint.verify
print(json.dumps({
    "one_module": sys.modules["orbint.tannaka"] is orbint.tannaka is orbint.cli.tannaka is first,
    "one_class": orbint.verify.ChiFamily is orbint.tannaka.ChiFamily is first.ChiFamily,
}))
"""


def run_fresh(script, *args):
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, "-c", script, *args], capture_output=True, text=True,
                          env=env, check=True)
    return json.loads(proc.stdout)


def golden(argv):
    (case,) = [case for case in CORPUS if case["argv"] == argv]
    return case


def test_queries_that_never_reconstruct_run_no_tannaka_code():
    report = run_fresh(QUERY_SCRIPT, json.dumps(OTHER_ARGVS), json.dumps(TANNAKA_ARGV))
    assert report["after_import"] is False
    for got in report["others"]:
        want = golden(got["argv"])
        assert got["exit"] == want["exit"] == 0
        assert_same(json.loads(got["stdout"]), json.loads(want["stdout"]))
    assert report["after_others"] is False
    # the first tannaka query loads the module and prints the corpus's record
    assert report["after_tannaka"] is True
    want = golden(TANNAKA_ARGV)
    assert report["tannaka"]["exit"] == want["exit"] == 0
    assert_same(json.loads(report["tannaka"]["stdout"]), json.loads(want["stdout"]))


@pytest.mark.parametrize("first", [["orbint.tannaka", "orbint.cli"], ["orbint.cli", "orbint.tannaka"]],
                         ids=["tannaka-first", "cli-first"])
def test_either_import_order_leaves_one_tannaka_module(first):
    report = run_fresh(ORDER_SCRIPT, *first)
    assert report == {"one_module": True, "one_class": True}
