"""CLI subcommands: JSON output, determinism, config round trip, exit codes."""

import ast
import contextlib
import io
import json
import os
import re
import shlex
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import orbint.cli
import orbint.ktrace
import orbint.stable
import orbint.tannaka
from orbint.cli import Config, main
from orbint.jsonio import dumps
from orbint.ktrace import lds_character, lds_character_sum
from orbint.realform import generator_key, real_form
from orbint.rootsys import Weight, all_roots
from orbint.toruschar import TorusPoint, parse_torus_point
from weyl_oracles import painted_forms

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_demo_sl2(capsys):
    code, out, _ = run_cli(capsys, "demo-sl2", "--t", "1/5")
    assert code == 0
    record = json.loads(out)
    assert abs(record["tau"]["value"]["im"] + 0.52573111211913) <= 1e-12
    assert record["abs_error"] <= 1e-12
    assert record["stable"] == {"re": 0.0, "im": 0.0}
    assert record["packet_sum"]["re"] == 0.0


def test_tau_compact_value(capsys):
    code, out, _ = run_cli(
        capsys, "tau", "--preset", "compact(A1)", "--lambda", "1", "--t", "1/6"
    )
    assert code == 0
    record = json.loads(out)
    assert abs(record["value"]["re"] - 1.0) <= 1e-12
    assert abs(record["value"]["im"]) <= 1e-12


def test_byte_identical_outputs(capsys):
    _, first, _ = run_cli(capsys, "tau", "--preset", "su21", "--lambda", "1,0", "--t", "1/5,2/7")
    _, second, _ = run_cli(capsys, "tau", "--preset", "su21", "--lambda", "1,0", "--t", "1/5,2/7")
    assert first == second
    json.loads(first)


def test_stable_and_packet_agree(capsys):
    _, out1, _ = run_cli(capsys, "stable", "--preset", "sl2r", "--lambda", "3", "--t", "1/7")
    _, out2, _ = run_cli(capsys, "packet", "--preset", "sl2r", "--Lambda", "3", "--t", "1/7")
    v1 = json.loads(out1)["value"]
    v2 = json.loads(out2)["value"]
    assert abs(v1["re"] - v2["re"]) <= 1e-12 and abs(v1["im"] - v2["im"]) <= 1e-12


@pytest.mark.parametrize(
    "preset, lam_hc, t, want",
    [
        ("compact(B3)", "1,1,1", "25/1552,27/1552,3/1552", 4),
        ("compact(A2)", "1,1", "1/10000000000000,3/10000000000000", 4),
        ("compact(B3)", "1,1,1", "1/7,2/11,3/13", 0),
    ],
    ids=["B3-cancelling", "A2-near-identity", "B3-regular"],
)
def test_compact_packets_are_checked_against_the_weight_route(capsys, preset, lam_hc, t, want):
    # on a compact form the packet sums the W_K orbit of lambda_hc = rho while
    # the stable integral it is checked against sums the K-type's weights (the
    # character 1), so where the orbit's terms cancel the packet/stable guard
    # refuses the packet with exit 4 instead of printing the orbit's value
    code, out, err = run_cli(capsys, "packet", "--preset", preset, "--Lambda", lam_hc, "--t", t)
    assert code == want
    if want:
        assert out == "" and "packet sum and stable integral disagree by" in err
    else:
        assert json.loads(out)["value"]["re"] == pytest.approx(1.0, abs=1e-12)


def test_schmid_pair_vanishes(capsys):
    code, out, _ = run_cli(
        capsys, "schmid", "--preset", "sl2r", "--Lambda", "0", "--systems", "id,neg", "--t", "1/5"
    )
    assert code == 0
    record = json.loads(out)
    assert record["value"] == {"re": 0.0, "im": 0.0}
    assert len(record["terms"]) == 2


def test_limit_subcommand(capsys):
    code, out, _ = run_cli(
        capsys, "limit", "--preset", "sl2r", "--lambda", "3", "--direction", "1.0"
    )
    assert code == 0
    record = json.loads(out)
    assert record["passed"] is True
    assert abs(abs(complex(record["extrapolated"]["re"], record["extrapolated"]["im"])) - 3) <= 1e-6
    assert record["tau_e"] == "3"


def test_limit_of_a_class_whose_terms_have_opposite_signs(capsys):
    # the limits of the two generators are -3/4 and 21/8: the class passes
    # against tau_e signed term by term, while tau_e itself stays unsigned
    cls = json.dumps([{"lambda2": [2, 0], "coeff": 1}, {"lambda2": [4, 2], "coeff": 1}])
    code, out, _ = run_cli(capsys, "limit", "--preset", "su21", "--class", cls, "--direction", "1,3")
    assert code == 0
    record = json.loads(out)
    assert (record["limit"], record["tau_e"], record["deviation"], record["passed"]) == ("15/8", "27/8", 0.0, True)
    for lam, limit in (("1,0", "-3/4"), ("2,1", "21/8")):
        code, out, _ = run_cli(capsys, "limit", "--preset", "su21", "--lambda", lam, "--direction", "1,3")
        record = json.loads(out)
        assert (record["limit"], record["tau_e"], record["deviation"], record["passed"]) == (limit, limit.lstrip("-"), 0.0, True)


def test_class_argument(capsys):
    cls = json.dumps([{"lambda2": [0], "coeff": 1}, {"lambda2": [6], "coeff": -2}])
    code, out, _ = run_cli(capsys, "stable", "--preset", "sl2r", "--class", cls, "--t", "1/7")
    assert code == 0
    json.loads(out)


def test_exit_codes(capsys):
    code, _, err = run_cli(capsys, "tau", "--preset", "sl2r", "--lambda", "0", "--t", "1/2")
    assert code == 3 and "singular" in err
    code, _, err = run_cli(capsys, "tau", "--preset", "nosuch", "--lambda", "0", "--t", "1/5")
    assert code == 2
    code, _, err = run_cli(capsys, "tau", "--preset", "sl2r", "--lambda", "1/3", "--t", "1/5")
    assert code == 2
    code, _, _ = run_cli(capsys, "check", "--only", "weyl_orders")
    assert code == 0


@pytest.mark.parametrize(
    "argv, want",
    [
        (["tau", "--preset", "sl2r", "--lambda", "1", "--t", "nan"], 2),
        (["tau", "--preset", "sl2r", "--lambda", "1", "--t", "inf"], 2),
        # 1e308 is the even integer 10^308, so the point is the identity
        (["tau", "--preset", "sl2r", "--lambda", "1", "--t", "1e308"], 3),
        (["limit", "--preset", "sl2r", "--lambda", "3", "--direction", "nan"], 2),
        (["limit", "--preset", "sl2r", "--lambda", "3", "--direction", "inf"], 2),
    ],
    ids=[f"argv{i}" for i in range(5)],
)
def test_non_finite_torus_input_is_rejected(capsys, argv, want):
    code, out, err = run_cli(capsys, *argv)
    assert code == want and out == ""
    assert err.startswith("error:" if want == 2 else "singular evaluation point:") and err.count("\n") == 1


NEAR_HALF = "50000000000000001/100000000000000000"  # 2t rounds to the integer 1.0
NEAR_SU21 = "1/5,80000000000000001/100000000000000000"


@pytest.mark.parametrize(
    "argv",
    [
        ["tau", "--preset", "sl2r", "--lambda", "1", "--t", NEAR_HALF],
        ["tau", "--preset", "su21", "--lambda", "1,0", "--t", NEAR_SU21],
        ["stable", "--preset", "su21", "--lambda", "1,0", "--t", NEAR_SU21],
        ["packet", "--preset", "sl2r", "--Lambda", "3", "--t", NEAR_HALF],
        ["schmid", "--preset", "su21", "--Lambda", "1,1", "--t", NEAR_SU21],
        ["demo-sl2", "--t", NEAR_HALF],
        ["tau", "--preset", "su21", "--lambda", "1,0", "--t", "0.2,0.80000000000000001"],
        # -2t mod 2 rounds to 2.0: a wall in doubles on the identity's side
        ["tau", "--preset", "sl2r", "--lambda", "1", "--t", "1e-17"],
        ["tau", "--preset", "sl2r", "--lambda", "1", "--t", "1e-400"],
    ],
)
def test_points_within_rounding_of_a_wall_are_numerically_singular(capsys, argv):
    # a regular exact point whose root phase rounds to an integer in doubles
    # used to end in a ZeroDivisionError traceback, or to print rounding error
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert code == 3 and out == ""
    assert err.startswith("singular evaluation point: torus point is numerically singular for root")
    assert err.count("\n") == 1


def digits(n):
    return "1" * n


@pytest.mark.parametrize(
    "argv",
    [
        ["limit", "--preset", "sl2r", "--lambda", "3", "--direction", "1e100000"],
        ["limit", "--preset", "sl2r", "--lambda", "3", "--direction", "1e100000000"],
        ["limit", "--preset", "sl2r", "--lambda", "3", "--direction", "1e" + digits(5000)],
        ["tau", "--preset", "sl2r", "--lambda", "1e5000", "--t", "1/5"],
        ["tau", "--preset", "sl2r", "--lambda", "1", "--t", "1e-5000"],
        ["tau", "--preset", "sl2r", "--lambda", "1", "--t", "1/" + digits(5001)],
        ["tau", "--preset", "sl2r", "--lambda", "1", "--t", "0." + digits(5000)],
        ["packet", "--preset", "sl2r", "--Lambda", digits(5001), "--t", "1/5"],
        ["tannaka", "--preset", "su21", "--lambdas", "0,0;1e5000,0"],
        ["stable", "--preset", "sl2r", "--class", '[{"lambda2": [%s], "coeff": 1}]' % digits(5001), "--t", "1/5"],
        ["stable", "--preset", "sl2r", "--class", '[{"lambda2": [2], "coeff": %s}]' % digits(5001), "--t", "1/5"],
        ["datum", "--matrix", "2,-1;-1,2", "--symmetrizer", "1,1e100000000"],
        ["datum", "--matrix", "2,-1;-1,2", "--symmetrizer", "1e5000,1e5000"],
    ],
)
def test_numbers_past_the_digit_limit_are_rejected_at_once(capsys, argv):
    # each used to end in a ValueError traceback (or, for 1e100000000, to hang)
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def run_captured(*argv):
    """``main`` on argv: exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


DECIMAL_TOKENS = st.from_regex(r"[-+]?[0-9]{1,3}\.[0-9]{0,20}([eE][-+]?[0-9]{1,2})?", fullmatch=True)


@settings(max_examples=60, deadline=None, database=None)
@given(st.lists(DECIMAL_TOKENS, min_size=2, max_size=2))
@example(["0.2", "0.37"])
@example(["0.2", "0.80000000000000001"])
@example(["1e-5", "0.5"])
def test_decimal_torus_points_are_the_rationals_they_spell(tokens):
    text = ",".join(tokens)
    assert parse_torus_point(text) == TorusPoint.exact_point(Fraction(d) for d in tokens)
    rational = ",".join(str(Fraction(d)) for d in tokens)
    args = ["tau", "--preset", "su21", "--lambda", "1,0"]
    assert run_captured(*args, "--t=" + text) == run_captured(*args, "--t=" + rational)


@pytest.mark.parametrize(
    "argv",
    [
        ["tau", "--preset", "sl2r", "--lambda=abc", "--t", "1/5"],
        ["tau", "--preset", "sl2r", "--lambda=1/0", "--t", "1/5"],
        ["stable", "--preset", "su21", "--lambda=1,z", "--t", "1/5,2/7"],
        ["packet", "--preset", "su21", "--Lambda=x,1", "--t", "1/5,2/7"],
        ["schmid", "--preset", "su21", "--Lambda=x,1", "--t", "1/5,2/7"],
        ["tannaka", "--preset", "su21", "--lambdas", "a,0;1,0"],
        ["datum", "--matrix", "2,-1;x,2", "--symmetrizer", "1,1"],
        ["datum", "--matrix", "2,-1;-1,2", "--symmetrizer", "a,1"],
        ["datum", "--matrix", "2,-1;-1,2", "--symmetrizer", "1/0,1"],
        ["tau", "--type", "A2", "--compact-indices", "0,x", "--lambda", "0,0", "--t", "1/5,2/7"],
        ["stable", "--preset", "sl2r", "--class", '[{"lambda2": [Infinity], "coeff": 1}]', "--t", "1/5"],
        ["stable", "--preset", "sl2r", "--class", '[{"lambda2": [2], "coeff": 1e400}]', "--t", "1/5"],
        # int() would truncate these to [{"lambda2": [2], "coeff": 1}] and read true as 1
        ["stable", "--preset", "sl2r", "--class", '[{"lambda2": [2.5], "coeff": 1.9}]', "--t", "1/5"],
        ["stable", "--preset", "sl2r", "--class", '[{"lambda2": [2.5], "coeff": 1}]', "--t", "1/5"],
        ["stable", "--preset", "sl2r", "--class", '[{"lambda2": [2], "coeff": 1.9}]', "--t", "1/5"],
        ["stable", "--preset", "sl2r", "--class", '[{"lambda2": [true], "coeff": 1}]', "--t", "1/5"],
        ["stable", "--preset", "sl2r", "--class", '[{"lambda2": [2], "coeff": true}]', "--t", "1/5"],
        # an integer beyond the double range would overflow at its first product with a float
        ["stable", "--preset", "su21", "--class", '[{"lambda2": [2, 0], "coeff": %s}]' % ("9" * 401), "--t", "1/5,1/7"],
    ],
)
def test_malformed_numbers_are_rejected(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    if "--class" in argv:
        assert err.startswith("error: malformed K-class term")


HUGE = "17" + "0" * 307  # within the double range, but three such terms overflow


@pytest.mark.parametrize(
    "config, argv, message",
    [
        (None, ["stable", "--preset", "su21", "--class", "[" * 20000 + "]" * 20000, "--t", "1/5,1/7"],
         "error: --class is not valid JSON"),
        (b"[" * 30000 + b"]" * 30000, ["datum", "--type", "A1"], "error: config"),
        (b"\xff\xfe{}", ["datum", "--type", "A1"], "error: config"),
        (None, ["stable", "--preset", "su21", "--class",
                json.dumps([{"lambda2": lam, "coeff": int(HUGE)} for lam in ([2, 0], [0, 2], [4, 0])]),
                "--t", "1/5,1/7"], "error: the result is not finite"),
    ],
    ids=["class-nested", "config-nested", "config-not-utf8", "result-overflows"],
)
def test_unreadable_json_and_overflowing_results_are_rejected(capsys, tmp_path, config, argv, message):
    if config is not None:
        path = tmp_path / "c.json"
        path.write_bytes(config)
        argv = ["--config", str(path), *argv]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith(message) and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["packet", "--preset", "su21", "--Lambda=1", "--t=1/5,2/7"],
        ["packet", "--preset", "sp4r", "--Lambda=1", "--t=1/5,2/7"],
        ["packet", "--preset", "su21", "--Lambda=1,1,1", "--t=1/5,2/7"],
        ["packet", "--preset", "sl2r", "--Lambda=1,1", "--t=1/5"],
        ["schmid", "--preset", "su21", "--Lambda=1", "--systems", "id", "--t=1/5,2/7"],
    ],
)
def test_parameter_of_the_wrong_rank_is_rejected(capsys, argv):
    # a shorter Lambda used to be truncated into a value, a longer one to end in a traceback
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err == "error: weight rank does not match the real form\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["tau", "--preset", "su21", "--lambda", "1,0", "--t", "1/5,2/5,1/3"],
        ["tau", "--preset", "su21", "--lambda", "1,0", "--t", "0.2,0.4,0.1"],
        ["stable", "--preset", "su21", "--lambda", "1,0", "--t", "1/5,2/5,1/3"],
        ["packet", "--preset", "su21", "--Lambda", "1,1", "--t", "1/5,2/5,1/3"],
        ["schmid", "--preset", "su21", "--Lambda", "1,1", "--systems", "id,neg", "--t", "1/5,2/5,1/3"],
        ["tau", "--preset", "sp4r", "--lambda", "0,3/2", "--t", "0.1,0.2,0.3,0.4"],
    ],
)
def test_torus_point_of_the_wrong_rank_is_rejected(capsys, argv):
    # the root pairings used to drop the extra coordinates and call the point singular
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err == "error: weight and torus point have different ranks\n"


def test_limit_direction_of_the_wrong_rank_is_rejected(capsys):
    code, out, err = run_cli(capsys, "limit", "--preset", "su21", "--lambda", "1,0", "--direction", "1,2,3")
    assert code == 2 and out == ""
    assert err == "error: direction rank does not match the real form\n"


@pytest.mark.parametrize(
    "direction, echoed",
    [("2", ["2"]), ("2.0", ["2"]), ("-3", ["-3"]), ("0.1", ["1/10"]), ("5/2", ["5/2"])],
)
def test_limit_direction_is_exact_and_unreduced(capsys, direction, echoed):
    # a direction is a ray, not a torus point: 2 is not reduced to the identity
    code, out, _ = run_cli(capsys, "limit", "--preset", "sl2r", "--lambda", "3", "--direction", direction)
    assert code == 0
    record = json.loads(out)
    assert record["direction"] == echoed and record["passed"] is True and record["tau_e"] == "3"


def painted_indices(name, painted):
    """The --compact-indices of a single-node painting (``weyl_oracles.painted_forms``)."""
    (spec,) = painted_forms(name, [painted])
    compact = set(spec.compact_positive)
    return ",".join(str(k) for k, alpha in enumerate(all_roots(spec.datum)) if alpha in compact or -alpha in compact)


@pytest.mark.parametrize(
    "name, painted, lam, direction, tau_e",
    [
        ("C4", (0,), "1,1,1,1", "0.37,0.61,0.83,1.1", "1056"),
        ("G2", (0,), "2,3", "0.37,0.61", "273"),
        ("G2", (1,), "1,1", "1,3/7", "7"),
        ("C3", (1,), "1,1,1", "0.37,0.61,0.83", "70"),
    ],
)
def test_limit_is_the_formal_degree_beyond_rank_2(capsys, name, painted, lam, direction, tau_e):
    # the sampled extrapolation gave 9.5e39, 26380, 0.47 and 7e14 here
    code, out, _ = run_cli(capsys, "limit", "--type", name, "--compact-indices", painted_indices(name, painted),
                           "--lambda", lam, "--direction", direction)
    assert code == 0
    record = json.loads(out)
    assert record["passed"] is True and record["tau_e"] == tau_e
    assert record["limit"].lstrip("-") == tau_e
    assert abs(record["extrapolated"]["re"]) == int(tau_e) and record["extrapolated"]["im"] == 0


def readme_commands():
    """Every ``orbint ...`` line inside the README's fenced blocks, split like a shell would."""
    commands, fenced = [], False
    with open(os.path.join(os.path.dirname(SRC), "README.md"), encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("```"):
                fenced = not fenced
            elif fenced and line.startswith("orbint "):
                commands.append(shlex.split(line)[1:])
    return commands


def test_readme_examples_run(capsys):
    commands = readme_commands()
    assert len(commands) >= 10
    for argv in commands:
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0, argv
        json.loads(out)


@pytest.mark.parametrize(
    "flag, fields",
    [
        (["--compact-indices=-1,-4"], {}),
        (["--compact-indices=2,-1"], {}),
        ([], {"compact_indices": [-1, -4]}),
    ],
)
def test_negative_compact_indices_are_rejected(capsys, tmp_path, flag, fields):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(fields))
    argv = ["tau", "--type", "A2", *flag, "--lambda", "1/2,1/2", "--t", "1/5,2/7"]
    code, out, err = run_cli(capsys, "--config", str(path), *argv)
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("t", ["0", "2"])
def test_demo_sl2_refuses_a_singular_point(capsys, t):
    code, out, err = run_cli(capsys, "demo-sl2", "--t", t)
    assert code == 3 and out == ""
    assert err.startswith("singular evaluation point:") and err.count("\n") == 1


def test_startup_loads_no_dataclasses_or_identity_suite():
    # the modules benchmarks/tracer.py indexes are loaded by importing the CLI;
    # the identity suite and dataclasses are not
    script = (
        "import sys, orbint.cli; "
        "print(sorted(m for m in sys.modules if m.startswith('orbint') or m == 'dataclasses'))"
    )
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, check=True)
    loaded = set(ast.literal_eval(proc.stdout))
    layers = {f"orbint.{m}" for m in ("rootsys", "realform", "toruschar", "ktrace", "stable", "tannaka")}
    assert layers <= loaded
    assert "orbint.verify" not in loaded and "dataclasses" not in loaded
    check = subprocess.run([sys.executable, "-m", "orbint.cli", "check", "--only", "weyl_orders"],
                           capture_output=True, text=True, env=env)
    assert check.returncode == 0 and json.loads(check.stdout)["all_passed"] is True


def test_consistency_guard_exit_code(capsys, monkeypatch):
    # a packet sum that disagrees with the stable integral trips the guard
    stable_tau = orbint.stable.stable_tau
    monkeypatch.setattr(orbint.stable, "stable_tau", lambda *a: stable_tau(*a) + 1.0)
    code, out, err = run_cli(capsys, "packet", "--preset", "sl2r", "--Lambda", "3", "--t", "1/7")
    assert code == 4 and out == ""
    assert err.startswith("consistency check failed:") and err.count("\n") == 1


def test_check_subcommand_single(capsys):
    code, out, err = run_cli(capsys, "check", "--only", "weyl_orders,serialization")
    assert code == 0
    record = json.loads(out)
    assert record["all_passed"] is True
    assert len(record["results"]) == 2
    assert "PASS" in err


def test_check_reports_seconds_on_stderr_only(capsys):
    runs = [run_cli(capsys, "check", "--only", "weyl_orders,serialization") for _ in range(2)]
    assert runs[0][1] == runs[1][1]  # stdout is deterministic and carries no time
    assert "seconds" not in runs[0][1]
    for _, _, err in runs:
        lines = err.splitlines()
        assert [line.split(" (")[0] for line in lines] == ["PASS weyl-group-orders", "PASS serialization-round-trip"]
        assert all(re.fullmatch(r"PASS \S+ \(\d+\.\d\d s\): .+", line) for line in lines)


def test_check_preset_scoping(capsys):
    code, out, _ = run_cli(
        capsys, "check", "--preset", "sl2r", "--only", "continuity,lds_signs,char_oracle"
    )
    assert code == 0
    record = json.loads(out)
    assert record["all_passed"] is True
    by_name = {r["name"]: r["detail"] for r in record["results"]}
    assert "sl2r" in by_name["continuity-at-identity"]
    assert "su21" not in by_name["continuity-at-identity"]
    assert by_name["character-oracle"] == "not applicable to the selected presets"


def test_datum_and_weyl(capsys):
    code, out, _ = run_cli(capsys, "datum", "--type", "C2")
    record = json.loads(out)
    assert record["weyl_order"] == 8
    assert record["cartan"] == [[2, -2], [-1, 2]]
    code, out, _ = run_cli(capsys, "weyl", "--type", "A2")
    record = json.loads(out)
    assert record["order"] == 6
    assert record["length_histogram"] == {"0": 1, "1": 2, "2": 2, "3": 1}


def test_explicit_matrix(capsys):
    code, out, _ = run_cli(
        capsys, "datum", "--matrix", "2,-3;-1,2", "--symmetrizer", "1,3"
    )
    assert code == 0
    assert json.loads(out)["weyl_order"] == 12
    code, _, _ = run_cli(capsys, "datum", "--matrix", "2,-3;-1,2", "--symmetrizer", "1,1")
    assert code == 2


def test_config_round_trip(tmp_path):
    config = Config(preset="su21", spin_sign=-1, verbosity=1)
    again = Config.from_json(config.to_json())
    assert again == config
    path = tmp_path / "config.json"
    path.write_text(dumps(config.to_json()))
    from orbint.cli import load_config

    assert load_config(str(path)) == config


def test_config_file_drives_commands(capsys, tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"preset": "sl2r"}))
    code, out, _ = run_cli(
        capsys, "--config", str(path), "tau", "--lambda", "0", "--t", "1/5"
    )
    assert code == 0
    assert abs(json.loads(out)["value"]["im"] + 0.5257311121) <= 1e-9
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"nonsense": 1}))
    code, _, _ = run_cli(capsys, "--config", str(bad), "datum", "--type", "A1")
    assert code == 2


@pytest.mark.parametrize(
    "fields, argv",
    [
        ({"preset": 5}, ["tau", "--lambda", "0", "--t", "1/5"]),
        ({"preset": ["sl2r"]}, ["tau", "--lambda", "0", "--t", "1/5"]),
        ({"verbosity": "x"}, ["-v", "datum", "--type", "A1"]),
        ({"verbosity": "x"}, ["datum", "--type", "A1"]),
        ({"verbosity": None}, ["datum", "--type", "A1"]),
        ({"spin_sign": True}, ["tau", "--preset", "sl2r", "--lambda", "0", "--t", "1/5"]),
        ({"matrix": [[2, "-1"], [-1, 2]], "symmetrizer": ["1", "1"]}, ["datum"]),
        ({"compact_indices": "0"}, ["tau", "--type", "A2", "--lambda", "0,0", "--t", "1/5,2/7"]),
    ],
)
def test_config_field_types_are_checked(capsys, tmp_path, fields, argv):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(fields))
    code, out, err = run_cli(capsys, "--config", str(path), *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: config field") and err.count("\n") == 1


def test_spin_sign_override(capsys):
    _, out_default, _ = run_cli(capsys, "tau", "--preset", "sl2r", "--lambda", "0", "--t", "1/5")
    _, out_flip, _ = run_cli(
        capsys, "tau", "--preset", "sl2r", "--spin-sign", "1", "--lambda", "0", "--t", "1/5"
    )
    v0 = json.loads(out_default)["value"]["im"]
    v1 = json.loads(out_flip)["value"]["im"]
    assert abs(v0 + v1) <= 1e-14  # flipping the calibration negates tau


def test_tannaka_subcommand(capsys):
    code, out, _ = run_cli(
        capsys, "tannaka", "--preset", "compact(A1)", "--lambdas", "0;1;2"
    )
    assert code == 0
    record = json.loads(out)
    dims = {tuple(d["lambda2"]): d["dim"] for d in record["dims"]}
    assert dims == {(0,): 1, (2,): 2, (4,): 3}
    assert record["noncompact_weights2"] == []
    hw = {tuple(h["lambda2"]): tuple(h["weight2"]) for h in record["highest_weights"]}
    assert hw == {(0,): (0,), (2,): (2,), (4,): (4,)}


def test_schmid_weyl_element_tokens(capsys):
    # w0 is the identity, so the w0 system is R+ itself
    code, out, _ = run_cli(
        capsys, "schmid", "--preset", "su21", "--Lambda", "2,1/2", "--systems", "w0", "--t", "1/5,2/7"
    )
    assert code == 0
    base = json.loads(out)["terms"][0]
    code, out, _ = run_cli(
        capsys, "schmid", "--preset", "su21", "--Lambda", "2,1/2", "--systems", "id", "--t", "1/5,2/7"
    )
    assert json.loads(out)["terms"][0] == base
    code, _, _ = run_cli(
        capsys, "schmid", "--preset", "su21", "--Lambda", "2,1/2", "--systems", "w99", "--t", "1/5,2/7"
    )
    assert code == 2
    code, _, _ = run_cli(
        capsys, "schmid", "--preset", "su21", "--Lambda", "2,1/2", "--systems", "zzz", "--t", "1/5,2/7"
    )
    assert code == 2


def test_schmid_builds_the_weyl_group_only_for_element_tokens(capsys, monkeypatch):
    argv = ("schmid", "--preset", "su21", "--Lambda", "2,1/2", "--systems", "id,neg", "--t", "1/5,2/7")
    _, want, _ = run_cli(capsys, *argv)

    def no_group(datum):
        raise AssertionError("weyl_group was called")

    monkeypatch.setattr(orbint.cli, "weyl_group", no_group)
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and out == want


def test_schmid_evaluates_each_system_once(capsys, monkeypatch):
    argv = ("schmid", "--preset", "su21", "--Lambda", "2,1/2", "--systems", "id,neg,w3", "--t", "1/5,2/7")
    calls = []

    def counted(*args):
        calls.append(args)
        return lds_character(*args)

    # wherever it is looked up: lds_character_sum calls it through orbint.ktrace
    monkeypatch.setattr(orbint.cli, "lds_character", counted)
    monkeypatch.setattr(orbint.ktrace, "lds_character", counted)
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and len(calls) == 3
    spec, lam_hc, _, g = calls[0]
    value = lds_character_sum(spec, lam_hc, [system for _, _, system, _ in calls], g)
    assert out.endswith(f'"value": {dumps(value)}}}\n')


def test_weyl_builds_no_group_without_verbose(capsys, monkeypatch):
    argv = ("weyl", "--type", "B3")
    _, want, _ = run_cli(capsys, *argv)
    assert json.loads(want)["length_histogram"] == {
        str(k): n for k, n in enumerate([1, 3, 5, 7, 8, 8, 7, 5, 3, 1])
    }

    def no_group(datum):
        raise AssertionError("weyl_group was called")

    monkeypatch.setattr(orbint.cli, "weyl_group", no_group)
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and out == want


def test_weyl_verbose_elements(capsys):
    code, out, _ = run_cli(capsys, "-v", "weyl", "--type", "A1")
    assert code == 0
    record = json.loads(out)
    assert len(record["elements"]) == 2
    assert record["elements"][0]["matrix"] == [[1]]


def test_verbose_tau_reports_conditioning(capsys):
    import math

    argv = ("tau", "--preset", "su21", "--lambda", "1,0", "--t", "1/5,2/7")
    _, plain, _ = run_cli(capsys, *argv)
    code, verbose, _ = run_cli(capsys, "-v", *argv)
    assert code == 0
    record = json.loads(verbose)
    # only the verbose fields differ
    assert json.loads(plain) == {k: v for k, v in record.items() if k not in ("conditioning", "numerator")}
    assert "conditioning" not in json.loads(plain)
    # the positive roots of A2 in fundamental coordinates are (2,-1), (-1,2)
    # and (1,1); e^{alpha/2}(g) = exp(pi i u) with u = alpha . t
    t = (1 / 5, 2 / 7)
    phases = [2 * t[0] - t[1], 2 * t[1] - t[0], t[0] + t[1]]
    expected = min(abs(2 * math.sin(math.pi * u)) for u in phases)
    assert abs(record["conditioning"] - expected) <= 1e-14


@pytest.mark.parametrize("argv, route, terms", [
    # su21's K-type (1, 0) has dimension 2 = |W_K|: the signed W_K orbit, 2 terms
    (("--preset", "su21", "--lambda", "1,0", "--t", "1/5,2/7"), "orbit", 2),
    # compact(D4) at rho: dimension 2^12 >= |W| = 192, the W orbit
    (("--preset", "compact(D4)", "--lambda", "1,1,1,1", "--t", "1/7,2/11,3/13,1/17"), "orbit", 192),
    # compact(F4) at (1, 0, 0, 0): the adjoint representation, 49 distinct weights
    (("--preset", "compact(F4)", "--lambda", "1,0,0,0", "--t", "1/7,2/11,3/13,1/17"), "weights", 49),
    # the trivial K-type of compact(B5): one weight where the orbit has 3840
    (("--preset", "compact(B5)", "--lambda=0,0,0,0,0", "--t=61/67,49/67,27/67,13/67,63/67"), "weights", 1),
    # compact(A2) at (1, 0): the 3 weights of the standard representation
    (("--preset", "compact(A2)", "--lambda", "1,0", "--t", "1/5,2/7"), "weights", 3),
])
def test_verbose_tau_reports_the_numerator_route(capsys, argv, route, terms):
    code, plain, _ = run_cli(capsys, "tau", *argv)
    assert code == 0 and "numerator" not in json.loads(plain)
    code, verbose, _ = run_cli(capsys, "-v", "tau", *argv)
    assert code == 0
    assert json.loads(verbose)["numerator"] == {"route": route, "terms": terms}


def test_tannaka_compact_a3_exits_0(capsys):
    # the README lambdas at the default axis count (32 at rank 3)
    code, out, err = run_cli(capsys, "tannaka", "--preset", "compact(A3)", "--lambdas", "0,0,0;1,0,0;0,0,1")
    assert code == 0 and err == ""
    record = json.loads(out)
    assert [d["dim"] for d in record["dims"]] == [1, 4, 4]
    assert all(h["weight2"] == h["lambda2"] for h in record["highest_weights"])
    assert record["noncompact_weights2"] == [] and record["spin_power"] == 0


def test_tannaka_painted_a3(capsys):
    # A3 with the middle simple root painted: compact roots are indices 0, 2, 6, 8
    code, out, _ = run_cli(
        capsys, "tannaka", "--type", "A3", "--compact-indices", "0,2,6,8",
        "--lambdas", "0,0,0;0,0,1;0,0,2", "--bound", "3",
    )
    assert code == 0
    record = json.loads(out)
    assert [d["dim"] for d in record["dims"]] == [1, 2, 3]
    assert all(h["weight2"] == h["lambda2"] for h in record["highest_weights"])
    assert record["noncompact_weights2"] == [[2, -4, 2], [2, -2, -2], [2, 0, 2], [2, 2, -2]]
    assert record["spin_power"] == 4


@pytest.mark.parametrize("command, flag, value, out_ok", [
    (("tannaka", "--preset", "sl2r"), "--lambdas", "-2;0;2", True),
    # the value reaches the program, which refuses a label not dominant for K
    (("tau", "--preset", "su21", "--t", "1/5,2/7"), "--lambda", "-1,0", False),
])
def test_a_label_that_starts_with_a_dash_needs_the_equals_spelling(capsys, command, flag, value, out_ok):
    with pytest.raises(SystemExit) as info:
        main([*command, flag, value])
    assert info.value.code == 2
    assert f"argument {flag}: expected one argument" in capsys.readouterr().err
    code, out, err = run_cli(capsys, *command, f"{flag}={value}")
    if out_ok:
        assert code == 0 and err == ""
        assert [d["lambda2"] for d in json.loads(out)["dims"]] == [[-4], [0], [4]]
    else:
        assert code == 2 and out == "" and err == "error: (-1, 0) is not dominant for the compact positive system\n"


def test_too_large_frequency_box_exits_2(capsys):
    code, out, err = run_cli(capsys, "tannaka", "--preset", "su21", "--lambdas", "0,0;1,0", "--bound", "40")
    assert code == 2 and out == ""
    assert err == "error: grid too coarse for the requested frequency box\n"


@pytest.mark.parametrize("extra, message", [
    (("--bound", "-3"), "the weight bound must be nonnegative"),
    (("--candidate-bound", "-1"), "the candidate bound must be nonnegative"),
    (("--axis-count", "100000"), "a lattice of 100000^2 points exceeds the cap of 65536"),
])
def test_reconstruction_bounds_are_refused_before_synthesis(capsys, monkeypatch, extra, message):
    def no_synthesis(*args):
        raise AssertionError("a family was synthesized")

    monkeypatch.setattr(orbint.tannaka, "synth_family", no_synthesis)
    code, out, err = run_cli(capsys, "tannaka", "--preset", "su21", "--lambdas", "0,0;2,0", *extra)
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("preset, lambdas", [("su21", "0,0;1,0;0,1"), ("compact(A3)", "0,0,0;1,0,0;0,0,1")])
def test_verbose_tannaka_adds_the_dim_margin(capsys, preset, lambdas):
    # -v only appends the worst distance of a raw dimension from its integer,
    # over DIM_TOL, and the same of the spinor's coefficients; a margin of 1 or
    # more would have been refused
    _, plain, _ = run_cli(capsys, "tannaka", "--preset", preset, "--lambdas", lambdas)
    code, verbose, _ = run_cli(capsys, "-v", "tannaka", "--preset", preset, "--lambdas", lambdas)
    assert code == 0
    record = json.loads(verbose)
    assert list(record)[-2:] == ["dim_margin", "spinor_margin"]
    margin, spinor_margin = record.pop("dim_margin"), record.pop("spinor_margin")
    assert record == json.loads(plain) and list(record) == list(json.loads(plain))
    assert 0 <= margin < 1
    assert 0 <= spinor_margin < 1
    assert spinor_margin == record["noncompact_residual"] / orbint.tannaka.DIM_TOL


def test_candidate_box_stops_at_the_axis_count(monkeypatch):
    # no candidate with a fundamental coordinate of n or more divides a
    # reciprocal read on n points per axis, so the box stops at n - 1 and a
    # huge candidate bound builds no larger box
    tannaka = orbint.tannaka
    spec = real_form("su21")
    keys = [generator_key(spec, Weight(w)) for w in ((0, 0), (2, 0), (0, 2))]
    family = tannaka.synth_family(spec, keys, 12)
    wide = tannaka.recover_noncompact_weights(family, tannaka.candidate_box(2, 40))
    assert wide == tannaka.recover_noncompact_weights(family, tannaka.candidate_box(2, 11))
    box, bounds = tannaka.candidate_box, []
    monkeypatch.setattr(tannaka, "candidate_box", lambda rank, bound: bounds.append(bound) or box(rank, bound))
    report = tannaka.run_reconstruction(spec, keys, axis_count=12, candidate_bound=10**9)
    assert bounds == [11] and report.noncompact_weights == wide.weights
