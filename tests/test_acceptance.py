"""One test per acceptance criterion.

Each criterion prints its PASS/FAIL line (run pytest with -s or -v plus -rA
to see them) and the test asserts the verdict, carrying the detail string
into the failure message. The numbered checks live in clarkspectra.checks;
the command-line 'verify' subcommand runs the same battery.
"""

import pytest

from clarkspectra import checks


@pytest.mark.parametrize(
    "number,name,fn",
    checks.ALL_CHECKS,
    ids=[f"criterion_{number:02d}_{name.replace(' ', '_')}"
         for number, name, _ in checks.ALL_CHECKS])
def test_criterion(number, name, fn):
    result = checks.run_all(seed=0, numbers={number})[0]
    print(result.line())
    assert result.passed, (
        f"criterion {number} [{name}] failed: {result.detail}")


def test_twelve_criteria():
    # the verify output is read as exactly twelve criterion lines
    assert len(checks.ALL_CHECKS) == 12


@pytest.mark.parametrize("seed", range(20))
def test_direct_oracle_criteria_across_seeds(seed):
    results = checks.run_all(seed=seed, numbers={6, 7, 11})
    assert [r.number for r in results if r.passed] == [6, 7, 11], (
        [r.line() for r in results])
