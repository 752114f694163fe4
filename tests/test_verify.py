"""The full identity suite behind the ``check`` subcommand must pass.

The acceptance criteria run some of the checks; this file runs the rest, so
that each check runs once per test session."""

import itertools

import pytest
from test_acceptance import CRITERIA
from weyl_oracles import painted_forms

from orbint.errors import ValidationError
from orbint.realform import generator_key, real_form
from orbint.rootsys import Weight
from orbint.verify import ALL_CHECKS, run_checks, small_keys

CRITERION_CHECKS = [check for checks in CRITERIA.values() for check in checks]
OTHER_NAMES = [name for name, check in ALL_CHECKS.items() if check not in CRITERION_CHECKS]


def test_every_check_passes():
    results = run_checks(OTHER_NAMES)
    failures = [f"{r.name}: {r.detail}" for r in results if not r.passed]
    assert not failures, "\n".join(failures)
    assert [r.name for r in results] == OTHER_NAMES


def test_criteria_and_other_checks_cover_all_checks_once():
    checks = list(ALL_CHECKS.values())
    combined = CRITERION_CHECKS + [ALL_CHECKS[name] for name in OTHER_NAMES]
    assert len(set(checks)) == len(checks)
    assert set(combined) <= set(checks)
    assert sorted(combined, key=checks.index) == checks


def test_each_check_is_keyed_by_the_name_it_prints():
    # an empty preset selection makes every preset-dependent check report
    # "not applicable" under its name without running; the others run
    assert [r.name for r in run_checks(presets=[])] == list(ALL_CHECKS)


def test_check_selection():
    results = run_checks(["weyl_orders"])
    assert len(results) == 1 and results[0].name == "weyl-group-orders"
    # printed names and function names, with or without check_, mix
    selected = run_checks(["dirac-injectivity", "check_eval_modulus", "weyl_orders"], presets=[])
    assert [r.name for r in selected] == ["weyl-group-orders", "dirac-injectivity", "exponential-modulus"]
    with pytest.raises(ValidationError):
        run_checks(["nonsense"])


def test_small_keys_raises_when_too_few():
    # rank one offers 16 candidate weights, so 17 keys cannot exist
    assert len(small_keys(real_form("sl2r"), 6)) == 6
    with pytest.raises(ValidationError):
        small_keys(real_form("sl2r"), 17)


def brute_small_keys(spec, count):
    """Every doubled coordinate in 0..15, in lexicographic order, judged by generator_key."""
    out = []
    for coords in itertools.product(range(16), repeat=spec.rank):
        try:
            out.append(generator_key(spec, Weight(coords)))
        except ValidationError:
            continue
        if len(out) == count:
            break
    return out


# the compact form and every single-node painting up to rank 3, and su21,
# whose lattice is the integral one
SINGLE_NODE_FORMS = [
    spec
    for name in ("A1", "A2", "B2", "C2", "G2", "A3", "B3", "C3")
    for spec in painted_forms(name, [()] + [(i,) for i in range(int(name[1]))])
] + [real_form("su21")]


@pytest.mark.parametrize("spec", SINGLE_NODE_FORMS, ids=[spec.name for spec in SINGLE_NODE_FORMS])
def test_small_keys_match_the_walk_over_every_coordinate(spec):
    assert small_keys(spec, 5) == brute_small_keys(spec, 5)


@pytest.mark.parametrize("name", ["B4", "F4"])
def test_small_keys_of_a_painted_rank4_form(name):
    # spin descent wants the first doubled coordinate odd on both forms
    (spec,) = painted_forms(name, [(0,)])
    want = [(1, 0, 0, 0), (1, 0, 0, 2), (1, 0, 0, 4), (1, 0, 0, 6)]
    assert [key.lam.coords2 for key in small_keys(spec, 4)] == want
