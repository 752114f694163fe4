"""A grammar fuzz of ``orbint tannaka``, run in process through ``cli.main``.

The generated command lines mix well-formed and malformed ``--lambdas``
(p/q, decimals, exponents past the float range, nan and inf, negatives,
empty segments, wrong ranks), ``--axis-count`` from -5 to 12 or not an
integer, and ``--bound`` and ``--candidate-bound`` from small negatives to
far past what the grid resolves, on four small presets.  Every call either
prints one JSON document and exits 0, or prints nothing on stdout, ends
stderr with one ``error:`` line and exits 2, 3 or 4; none takes longer than
``SECONDS``.
"""

import contextlib
import io
import json
import time

from hypothesis import example, given, settings
from hypothesis import strategies as st

from orbint.cli import main

RANKS = {"sl2r": 1, "su21": 2, "compact(A1)": 1, "compact(A2)": 2}
SECONDS = 10.0

SMALL = st.integers(-2, 4).map(str)
NUMBER = st.one_of(
    SMALL, SMALL, SMALL, SMALL,
    st.tuples(st.integers(-9, 9), st.integers(-3, 9)).map(lambda pq: f"{pq[0]}/{pq[1]}"),
    st.decimals(-6, 6, places=2, allow_nan=False, allow_infinity=False).map(str),
    st.sampled_from(["1e400", "-1e400", "1e-400", "1e2", "2.5e1", "nan", "-inf", "inf", "NaN", "x", "1/0",
                     "123456789012345678901234567890", "-0", "+1", " 1 "]),
)
WHOLE = st.one_of(st.integers(-5, 12).map(str), st.integers(4, 12).map(str),
                  st.sampled_from(["1.5", "x", "", "1e2", "nan", "0x10"]))


@st.composite
def command_lines(draw):
    preset = draw(st.sampled_from(sorted(RANKS)))
    rank = RANKS[preset]
    sizes = st.sampled_from([rank] * 4 + [rank - 1, rank + 1])  # mostly the preset's rank
    weights = draw(st.lists(sizes.flatmap(lambda k: st.lists(NUMBER, min_size=k, max_size=k)).map(",".join),
                            min_size=0, max_size=4))
    if draw(st.booleans()):  # a reference label (a one-dimensional K-type) first
        weights.insert(0, ",".join(["0"] * rank))
    if draw(st.integers(0, 3)) == 0:  # empty segments
        weights.insert(draw(st.integers(0, len(weights))), draw(st.sampled_from(["", " ", ";"])))
    # "--lambdas=..." so that a list starting with "-" is not taken for a flag
    argv = ["tannaka", "--preset", preset, "--lambdas=" + ";".join(weights)]
    for flag, value in [("--axis-count", WHOLE), ("--bound", st.integers(-3, 40).map(str) | WHOLE),
                        ("--candidate-bound", st.integers(-3, 10**7).map(str) | WHOLE)]:
        if draw(st.integers(0, 2)) == 0:
            argv += [flag, draw(value)]
    return argv


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exit_:  # argparse refuses a malformed flag value
            code = exit_.code
    return code, out.getvalue(), err.getvalue(), time.perf_counter() - start


@settings(max_examples=150, deadline=None, database=None)
@given(command_lines())
@example(["tannaka", "--preset", "su21", "--lambdas", "0,0;1,0;0,1"])
@example(["tannaka", "--preset", "sl2r", "--lambdas", "0;1;2", "--candidate-bound", "10000000"])
@example(["tannaka", "--preset", "su21", "--lambdas", "0,0;1,0", "--candidate-bound", "10000000"])
@example(["tannaka", "--preset", "compact(A2)", "--lambdas", "1e400,0", "--axis-count", "12"])
@example(["tannaka", "--preset", "compact(A1)", "--lambdas", "nan", "--axis-count", "-5"])
@example(["tannaka", "--preset", "su21", "--lambdas", ";;", "--axis-count", "1.5"])
@example(["tannaka", "--preset", "su21", "--lambdas", "0,0;1", "--bound", "40"])
@example(["tannaka", "--preset", "su21", "--lambdas", "-1,0;0,0"])  # argparse takes "-1,0" for a flag
def test_tannaka_command_lines_answer_or_refuse(argv):
    code, out, err, seconds = run(argv)
    assert code in (0, 2, 3, 4), (argv, code, err)
    assert seconds < SECONDS, (argv, seconds)
    if code == 0:
        assert err == ""
        record = json.loads(out)
        assert len(record["dims"]) == len(record["labels"])
    else:
        assert out == ""
        lines = err.splitlines()
        assert lines and "error: " in lines[-1], (argv, err)
        assert sum("error:" in line for line in lines) == 1, (argv, err)
