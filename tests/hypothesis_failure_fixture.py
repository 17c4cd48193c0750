"""A failing hypothesis test followed by a passing one.

Not collected by default (the name does not start with ``test_``):
``test_suite_settings`` runs pytest on it in a subprocess and requires
the summary to count both tests.
"""

from hypothesis import given, settings
from hypothesis import strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_fails(value):
    assert value < 0


def test_passes():
    assert True
