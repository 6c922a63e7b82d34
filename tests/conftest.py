"""Shared fixtures."""

import pytest

from logpair.selftest import run_all


@pytest.fixture(scope="session")
def selftest_results():
    """Every selftest criterion, run once per session.

    tests/test_acceptance.py checks each result and tests/test_golden.py
    formats all of them through the `selftest` subcommand.
    """
    return run_all()
