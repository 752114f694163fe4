"""A fuzz of ``orbint tau``, ``stable``, ``packet`` and ``limit``, run in
process through ``cli.main``, in the shape of ``test_tannaka_cli_fuzz``.

The command lines run on sl2r, su21, sp4r and compact(A2), and lean toward
inputs that reach the evaluation paths: keys that are dominant for K and on
each preset's lattice, exact points p/q with q prime and p/(100 q) near the
identity, and directions with positive coordinates.  Now and then a value is
malformed instead (1/0, nan, a wrong rank, an empty string, "--") or a
point lies on a wall.  Every call either prints one JSON document and exits 0, or prints
nothing on stdout, ends stderr with one message line and exits 2, 3 or 4
(``MESSAGES``); none takes longer than ``SECONDS``.
"""

import json

from hypothesis import example, given, settings
from hypothesis import strategies as st

from test_tannaka_cli_fuzz import SECONDS, run

INTEGER, NONNEGATIVE = st.integers(-3, 5).map(str), st.integers(0, 4).map(str)
HALF_ODD = st.integers(-3, 3).map(lambda k: f"{2 * k + 1}/2")
# a K-dominant key on each preset's lattice, coordinate by coordinate
KEYS = {
    "sl2r": [INTEGER],
    "su21": [NONNEGATIVE, INTEGER],
    "sp4r": [NONNEGATIVE, HALF_ODD],
    "compact(A2)": [NONNEGATIVE, NONNEGATIVE],
}
# how the last line of stderr starts, per exit code (argparse prefixes "orbint: ")
MESSAGES = {2: "error: ", 3: "singular ", 4: "consistency check failed: "}
MALFORMED = st.sampled_from(["", "x", "nan", "inf", "1/0", "1e400", "1,2,3", "0.5.5", "--", "-"])
PRIMES = st.sampled_from([5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97])


def one_in(draw, k, rare, usual):
    """A draw of ``rare`` one time in k, else of ``usual``."""
    return draw(rare if draw(st.integers(1, k)) == 1 else usual)


@st.composite
def coordinate(draw):
    """p/q or, near the identity, p/(100 q), with q prime and p in [1, q);
    one time in eight a wall, a negative or a decimal instead."""
    q = draw(PRIMES)
    point = st.integers(1, q - 1).map(lambda p: f"{p}/{q}") | st.integers(1, q - 1).map(lambda p: f"{p}/{q}00")
    return one_in(draw, 8, st.sampled_from(["0", "1/2", "1", "-1/3", "0.25", "1e-9"]), point)


@st.composite
def direction(draw):
    """A direction coordinate in (0, 1]; one time in eight 0 or -1."""
    return one_in(draw, 8, st.sampled_from(["0", "-1", "0.0"]), st.floats(0.05, 1.0).map(lambda x: f"{x:.3f}"))


def joined(draw, parts, rank):
    """rank draws of ``parts`` joined by commas; one time in ten a wrong rank,
    one in twenty a malformed value."""
    roll = draw(st.integers(0, 19))
    if roll == 0:
        return draw(MALFORMED)
    return ",".join(draw(parts) for _ in range(rank + (roll == 1) - (roll == 2)))


@st.composite
def command_lines(draw):
    preset = draw(st.sampled_from(sorted(KEYS)))
    coords = KEYS[preset]
    rank = len(coords)
    sub = draw(st.sampled_from(["tau", "stable", "packet", "limit"]))
    if sub == "packet":  # a Harish-Chandra parameter: any half-integers
        key = joined(draw, st.integers(-6, 6).map(lambda k: f"{k}/2"), rank)
    elif draw(st.integers(0, 9)):
        key = ",".join(draw(c) for c in coords)
    else:
        key = joined(draw, INTEGER, rank)
    # "--flag=value" so that a value starting with "-" is not taken for a flag
    argv = [sub, "--preset", preset, ("--Lambda=" if sub == "packet" else "--lambda=") + key]
    if sub == "limit":
        return argv + ["--direction=" + joined(draw, direction(), rank)]
    return argv + ["--t=" + joined(draw, coordinate(), rank)]


@settings(max_examples=200, deadline=None, database=None)
@given(command_lines())
@example(["tau", "--preset", "compact(A1)", "--lambda", "1", "--t", "1/6"])
@example(["tau", "--preset", "su21", "--lambda", "1,0", "--t", "1/5,2/7"])
@example(["stable", "--preset", "sl2r", "--lambda", "3", "--t", "1/7"])
@example(["packet", "--preset", "sl2r", "--Lambda", "3", "--t", "1/7"])
@example(["limit", "--preset", "sl2r", "--lambda", "3", "--direction", "1.0"])
@example(["limit", "--type", "G2", "--compact-indices", "1,3,7,9", "--lambda", "2,3", "--direction", "0.37,0.61"])
@example(["limit", "--preset", "sl2r", "--lambda=1e400", "--direction=1.0"])  # an exact limit past the float range
@example(["tau", "--preset", "sl2r", "--lambda=--", "--t=1/7"])  # argparse before 3.12 reads "--" as []
def test_evaluation_command_lines_answer_or_refuse(argv):
    code, out, err, seconds = run(argv)
    assert code in (0, 2, 3, 4), (argv, code, err)
    assert seconds < SECONDS, (argv, seconds)
    if code == 0:
        assert err == "", (argv, err)
        assert out.endswith("\n") and out.count("\n") == 1, (argv, out)
        json.loads(out)
    else:
        assert out == ""
        lines = err.splitlines()
        assert lines and MESSAGES[code] in lines[-1], (argv, err)
        assert sum(any(m in line for m in MESSAGES.values()) for line in lines) == 1, (argv, err)
