"""The full identity suite behind the ``check`` subcommand must pass.

The acceptance criteria run some of the checks; this file runs the rest, so
that each check runs once per test session."""

import pytest
from test_acceptance import CRITERIA

from orbint.errors import ValidationError
from orbint.realform import real_form
from orbint.verify import ALL_CHECKS, run_checks, small_keys

CRITERION_CHECKS = [check for checks in CRITERIA.values() for check in checks]
OTHER_CHECKS = [check for check in ALL_CHECKS if check not in CRITERION_CHECKS]


def test_every_check_passes():
    results = run_checks([check.__name__ for check in OTHER_CHECKS])
    failures = [f"{r.name}: {r.detail}" for r in results if not r.passed]
    assert not failures, "\n".join(failures)
    assert len(results) == len(OTHER_CHECKS)


def test_criteria_and_other_checks_cover_all_checks_once():
    combined = CRITERION_CHECKS + OTHER_CHECKS
    assert len(set(ALL_CHECKS)) == len(ALL_CHECKS)
    assert set(combined) <= set(ALL_CHECKS)
    assert sorted(combined, key=ALL_CHECKS.index) == list(ALL_CHECKS)


def test_check_selection():
    results = run_checks(["weyl_orders"])
    assert len(results) == 1 and results[0].name == "weyl-group-orders"
    with pytest.raises(ValidationError):
        run_checks(["nonsense"])


def test_small_keys_raises_when_too_few():
    # rank one offers 16 candidate weights, so 17 keys cannot exist
    assert len(small_keys(real_form("sl2r"), 6)) == 6
    with pytest.raises(ValidationError):
        small_keys(real_form("sl2r"), 17)
