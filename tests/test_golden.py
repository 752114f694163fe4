"""The golden corpus: CLI argument vectors with the exit code and stdout they
gave when the corpus was captured (``golden_corpus.json``).  It holds the
README examples, `orbint tannaka` on the reconstruct benchmark's three forms
and labels and on compact(B4), `orbint -v tannaka` on those three forms
(compact(A1) 0;1;2, su21 0,0;1,0;0,1 and sl2r 0;1;2, whose dim_margin and
noncompact_residual pin the synthesis and Fourier transforms' doubles), and
the seven cold_query queries of each of seeds 1 to 3.  Exit
codes and every field that is not a float must match exactly; floats within
4 ulp, because libm may round differently on another host.  A change meant to
move a printed value shows here as a corpus diff."""

import json
import math
import os

import pytest

from orbint.cli import main
from test_cli import readme_commands

with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_corpus.json"), encoding="utf-8") as fh:
    CORPUS = json.load(fh)

ULPS = 4


def assert_same(got, want, where="stdout"):
    """``got == want`` as parsed JSON, floats within ULPS ulp, keys in order."""
    assert type(got) is type(want), where
    if isinstance(want, float):
        assert math.isfinite(got) and abs(got - want) <= ULPS * math.ulp(want), f"{where}: {got!r} != {want!r}"
    elif isinstance(want, dict):
        assert list(got) == list(want), where
        for key in want:
            assert_same(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), where
        for i, (a, b) in enumerate(zip(got, want)):
            assert_same(a, b, f"{where}[{i}]")
    else:
        assert got == want, where


def test_the_corpus_holds_every_readme_example():
    argvs = [case["argv"] for case in CORPUS]
    assert all(argv in argvs for argv in readme_commands())


@pytest.mark.parametrize("case", CORPUS, ids=[" ".join(case["argv"])[:80] for case in CORPUS])
def test_golden_corpus(capsys, case):
    code = main(list(case["argv"]))
    out = capsys.readouterr().out
    assert code == case["exit"]
    if not case["stdout"]:
        assert out == ""
    else:
        assert out.endswith("\n") and out.count("\n") == 1
        assert_same(json.loads(out), json.loads(case["stdout"]))
