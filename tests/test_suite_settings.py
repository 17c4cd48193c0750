"""Tests of the suite's own configuration."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

FIXTURE = Path(__file__).with_name("hypothesis_failure_fixture.py")


def test_a_failing_hypothesis_test_leaves_the_later_tests_running():
    """``filterwarnings = ["error"]`` turned a warning that hypothesis's
    report hook emits for a failing example into an INTERNALERROR, which
    ended the session: the summary read "1 failed" here."""
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", str(FIXTURE)],
        cwd=FIXTURE.parents[1],
        capture_output=True,
        text=True,
    )
    assert "INTERNALERROR" not in result.stdout + result.stderr
    assert result.stdout.strip().splitlines()[-1].startswith("1 failed, 1 passed")
