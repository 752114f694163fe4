"""Acceptance criteria, one test per criterion at its stated tolerance.

Criteria 2-11 run the identity checks of ``orbint.verify``, the same code that
``orbint check`` runs; the tests add only the timing gates.  Run with
``pytest tests/test_acceptance.py -v -s`` to see one pass/fail line per
criterion.
"""

import json
import math
import time

from orbint.cli import main as cli_main
from orbint.verify import (
    check_ab_vs_quotient,
    check_char_identity,
    check_char_oracle,
    check_continuity,
    check_denominator_formula,
    check_dual_path,
    check_injectivity,
    check_packet_stable,
    check_selberg_vanishing,
    check_stable_invariance,
    check_tannaka,
    check_wedge_identity,
)


def report(criterion, passed, detail):
    print(f"{'PASS' if passed else 'FAIL'} {criterion}: {detail}")
    assert passed, f"{criterion}: {detail}"


def accept(criterion, *checks, time_limit=None):
    """Run the checks behind a criterion; with a time limit, the whole run is timed."""
    start = time.perf_counter()
    results = [check() for check in checks]
    elapsed = time.perf_counter() - start
    passed = all(r.passed for r in results)
    detail = "; ".join(r.detail for r in results)
    if time_limit is not None:
        passed = passed and elapsed < time_limit
        detail += f"; {elapsed:.2f} s"
    report(criterion, passed, detail)


def test_criterion_1_sl2_regression(capsys):
    start = time.perf_counter()
    code = cli_main(["demo-sl2", "--t", "1/5"])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    record = json.loads(out)
    tau = complex(record["tau"]["value"]["re"], record["tau"]["value"]["im"])
    expected = 1 / (2j * math.sin(2 * math.pi / 5))
    stable = complex(record["stable"]["re"], record["stable"]["im"])
    ok = (
        code == 0
        and abs(tau - expected) <= 1e-12
        and abs(tau - (-0.52573111211913j)) <= 1e-11
        and abs(stable) <= 1e-12
        and elapsed < 0.1
    )
    with capsys.disabled():
        report(
            "criterion-1 sl2 regression",
            ok,
            f"tau={tau:.14f}, |stable|={abs(stable):.1e}, {elapsed*1000:.1f} ms",
        )


def test_criterion_2_dual_path():
    accept("criterion-2 dual-path", check_dual_path)


def test_criterion_3_vanishing_clauses():
    accept("criterion-3 vanishing", check_selberg_vanishing)


def test_criterion_4_denominator_formula():
    accept("criterion-4 denominator", check_denominator_formula)


def test_criterion_5_wedge_identity():
    accept("criterion-5 wedge", check_wedge_identity)


def test_criterion_6_oracle_equivalence():
    accept("criterion-6 oracles", check_char_oracle, check_ab_vs_quotient)


def test_criterion_7_packet_and_stability():
    accept("criterion-7 packet/stable", check_packet_stable, check_stable_invariance)


def test_criterion_8_continuity():
    accept("criterion-8 continuity", check_continuity, time_limit=1.0)


def test_criterion_9_class_distinguishing():
    accept("criterion-9 distinguishing", check_injectivity)


def test_criterion_10_character_identity():
    accept("criterion-10 character identity", check_char_identity)


def test_criterion_11_tannaka_round_trip():
    accept("criterion-11 tannaka", check_tannaka, time_limit=10.0)
