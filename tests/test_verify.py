"""The full identity suite behind the ``check`` subcommand must pass."""

import pytest

from orbint.errors import ValidationError
from orbint.realform import real_form
from orbint.verify import ALL_CHECKS, run_checks, small_keys


def test_every_check_passes():
    results = run_checks()
    failures = [f"{r.name}: {r.detail}" for r in results if not r.passed]
    assert not failures, "\n".join(failures)
    assert len(results) == len(ALL_CHECKS)


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
