"""A fuzz of ``orbint tau``, ``stable``, ``packet``, ``limit``, ``schmid``,
``datum``, ``weyl`` and ``demo-sl2``, run in process through ``cli.main``, in
the shape of ``test_tannaka_cli_fuzz``.

The command lines run on sl2r, su21, sp4r and compact(A2), and on the forms
of A1, A2, B2, G2 and A3 given by ``--type`` or by ``--matrix`` and
``--symmetrizer``, each with the ``--compact-indices`` of one of its Vogan
diagrams, or by ``--preset X/paint<i>`` with i from -1 to the rank (both ends
are refused).  They lean toward inputs that reach the evaluation paths: keys
that are dominant for K and on each preset's lattice, exact points p/q with q
prime and p/(100 q) near the identity, and directions with positive
coordinates.  Now and then a value is malformed instead (1/0, nan, a wrong
rank, an empty string, "--", a matrix that is not a Cartan matrix) or a point
lies on a wall.  Every call either prints one JSON document and exits 0, or
prints nothing on stdout, ends stderr with one message line and exits 2, 3 or
4 (``MESSAGES``); none takes longer than ``SECONDS``.
"""

import json

from hypothesis import example, given, settings
from hypothesis import strategies as st

from orbint.rootsys import all_roots, build_datum
from test_tannaka_cli_fuzz import SECONDS, run
from weyl_oracles import painted_forms

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
# per Cartan type, the --compact-indices of each Vogan diagram (all_roots order)
PAINTINGS = {
    name: sorted({
        ",".join(str(k) for k, a in enumerate(all_roots(spec.datum)) if {a, -a} & set(spec.compact_positive))
        for spec in painted_forms(name)
    })
    for name in ("A1", "A2", "B2", "G2", "A3")
}
MALFORMED_DATA = st.sampled_from(["", "x", "2", "2,-1;-1", "2,-2;-2,2", "0,0;0,0", "1/0", "--", "-1,2"])
SYSTEMS = st.sampled_from(["id", "neg", "id,neg", "w0", "w1", "w3", "w5,id", "w99", "x", ""])
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
def form(draw):
    """(options, key coordinates): a preset half the time, else a Cartan type
    with one painted node i as ``X/paint<i>``, or a Cartan type or its matrix
    and symmetrizer with the compact indices of one of its Vogan diagrams; one
    time in ten an index list, a matrix or a symmetrizer is malformed."""
    if draw(st.booleans()):
        preset = draw(st.sampled_from(sorted(KEYS)))
        return ["--preset", preset], KEYS[preset]
    name = draw(st.sampled_from(sorted(PAINTINGS)))
    datum = build_datum(name)
    if draw(st.integers(0, 2)) == 0:
        return ["--preset", f"{name}/paint{draw(st.integers(-1, datum.rank))}"], [NONNEGATIVE] * datum.rank
    if draw(st.booleans()):
        options = ["--type", name]
    else:
        matrix = ";".join(",".join(map(str, row)) for row in datum.cartan)
        symmetrizer = ",".join(map(str, datum.symmetrizer))
        options = ["--matrix=" + one_in(draw, 10, MALFORMED_DATA, st.just(matrix)),
                   "--symmetrizer=" + one_in(draw, 10, MALFORMED_DATA, st.just(symmetrizer))]
    indices = one_in(draw, 10, MALFORMED_DATA, st.sampled_from(PAINTINGS[name]))
    return options + ["--compact-indices=" + indices], [NONNEGATIVE] * datum.rank


@st.composite
def command_lines(draw):
    sub = draw(st.sampled_from(["tau", "stable", "packet", "limit", "schmid", "datum", "weyl", "demo-sl2"]))
    verbose = ["-v"] if draw(st.integers(0, 3)) == 0 else []
    if sub == "demo-sl2":  # sl2r's own point, no form
        return verbose + [sub, "--t=" + joined(draw, coordinate(), 1)]
    options, coords = draw(form())
    rank = len(coords)
    if sub in ("datum", "weyl"):
        return verbose + [sub, *options]
    if sub in ("packet", "schmid"):  # a Harish-Chandra parameter: any half-integers
        key = joined(draw, st.integers(-6, 6).map(lambda k: f"{k}/2"), rank)
    elif draw(st.integers(0, 9)):
        key = ",".join(draw(c) for c in coords)
    else:
        key = joined(draw, INTEGER, rank)
    # "--flag=value" so that a value starting with "-" is not taken for a flag
    argv = verbose + [sub, *options, ("--Lambda=" if sub in ("packet", "schmid") else "--lambda=") + key]
    if sub == "schmid":
        argv.append("--systems=" + draw(SYSTEMS))
    if sub == "limit":
        return argv + ["--direction=" + joined(draw, direction(), rank)]
    return argv + ["--t=" + joined(draw, coordinate(), rank)]


B4_PAINT0 = "1,2,3,5,6,8,9,11,13,17,18,19,21,22,24,25,27,29"


@settings(max_examples=300, deadline=None, database=None)
@given(command_lines())
@example(["tau", "--preset", "compact(A1)", "--lambda", "1", "--t", "1/6"])
@example(["tau", "--preset", "su21", "--lambda", "1,0", "--t", "1/5,2/7"])
@example(["stable", "--preset", "sl2r", "--lambda", "3", "--t", "1/7"])
@example(["packet", "--preset", "sl2r", "--Lambda", "3", "--t", "1/7"])
@example(["limit", "--preset", "sl2r", "--lambda", "3", "--direction", "1.0"])
@example(["limit", "--type", "G2", "--compact-indices", "1,3,7,9", "--lambda", "2,3", "--direction", "0.37,0.61"])
@example(["limit", "--preset", "G2/paint0", "--lambda", "2,3", "--direction", "0.37,0.61"])
@example(["tau", "--preset", "B2/paint2", "--lambda", "0,0", "--t", "1/5,2/7"])  # a node past the rank
@example(["tau", "--preset", "A1/paint-1", "--lambda", "0", "--t", "1/5"])
@example(["limit", "--preset", "sl2r", "--lambda=1e400", "--direction=1.0"])  # an exact limit past the float range
@example(["tau", "--preset", "sl2r", "--lambda=--", "--t=1/7"])  # argparse before 3.12 reads "--" as []
@example(["schmid", "--preset", "sl2r", "--Lambda", "0", "--systems", "id,neg", "--t", "1/5"])
@example(["demo-sl2", "--t", "1/5"])
# the known defects: wrong values near the identity that still exit 0 (see ROADMAP)
@example(["stable", "--type", "B4", "--compact-indices", B4_PAINT0,
          "--class", '[{"lambda2":[1,0,2,0],"coeff":1}]', "--t", "1/70,1/55,3/130,1/170"])
@example(["stable", "--type", "B4", "--compact-indices", B4_PAINT0,
          "--class", '[{"lambda2":[1,0,2,0],"coeff":1}]', "--t", "1/700,1/550,3/1300,1/1700"])
@example(["packet", "--type", "B4", "--compact-indices", B4_PAINT0,
          "--Lambda=-2,1,2,1", "--t", "1/70,1/55,3/130,1/170"])
@example(["-v", "tau", "--type", "F4", "--compact-indices", "0,2,3,6,13,16,18,19,20,21,24,26,27,30,37,40,42,43,44,45",
          "--lambda", "0,1/2,0,1", "--t", "1/700,1/550,3/1300,1/1700"])
@example(["tau", "--type", "C3", "--compact-indices", "1,2,4,6,8,10,11,13,15,17", "--lambda", "0,0,2",
          "--t", "1/700,1/550,3/1300"])
@example(["tau", "--preset", "compact(B3)", "--lambda", "1,1,1", "--t", "1/10000,3/10000,7/10000"])
@example(["tau", "--preset", "su21", "--lambda", "1,0", "--t", "1/100000000,3/100000000"])
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
