"""CLI subcommands: JSON output, determinism, config round trip, exit codes."""

import ast
import json
import os
import re
import subprocess
import sys

import pytest

import orbint.stable
from orbint.cli import Config, main
from orbint.jsonio import dumps

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
    "argv",
    [
        ["tau", "--preset", "sl2r", "--lambda", "1", "--t", "nan"],
        ["tau", "--preset", "sl2r", "--lambda", "1", "--t", "inf"],
        ["tau", "--preset", "sl2r", "--lambda", "1", "--t", "1e308"],
        ["limit", "--preset", "sl2r", "--lambda", "3", "--direction", "nan"],
        ["limit", "--preset", "sl2r", "--lambda", "3", "--direction", "1.0", "--start-scale", "nan"],
    ],
)
def test_non_finite_torus_input_is_rejected(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


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
    ],
)
def test_malformed_numbers_are_rejected(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


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
    # only the new field differs
    assert json.loads(plain) == {k: v for k, v in record.items() if k != "conditioning"}
    assert "conditioning" not in json.loads(plain)
    # the positive roots of A2 in fundamental coordinates are (2,-1), (-1,2)
    # and (1,1); e^{alpha/2}(g) = exp(pi i u) with u = alpha . t
    t = (1 / 5, 2 / 7)
    phases = [2 * t[0] - t[1], 2 * t[1] - t[0], t[0] + t[1]]
    expected = min(abs(2 * math.sin(math.pi * u)) for u in phases)
    assert abs(record["conditioning"] - expected) <= 1e-14


def test_vanishing_ray_samples_exit_2(capsys):
    # at rank 3 the near-identity numerators round to exactly zero
    code, out, err = run_cli(
        capsys, "tannaka", "--preset", "compact(A3)", "--lambdas", "0,0,0;1,0,0;0,0,1", "--axis-count", "16"
    )
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_too_large_frequency_box_exits_2(capsys):
    code, out, err = run_cli(capsys, "tannaka", "--preset", "su21", "--lambdas", "0,0;1,0", "--bound", "40")
    assert code == 2 and out == ""
    assert err == "error: grid too coarse for the requested frequency box\n"
