"""Terminal reporting for the acceptance suite.

test_acceptance.py appends one line per criterion; printing them from
the terminal-summary hook keeps them visible even though pytest
captures stdout of passing tests.
"""

import pytest

import dacr.chain
import dacr.clarke
import dacr.segments

ACCEPTANCE_LINES: list[str] = []


@pytest.fixture
def acceptance_report():
    return ACCEPTANCE_LINES


@pytest.fixture
def validations(monkeypatch):
    """Names passed to ``clarke._as_vector``, the full check of a joint-space
    vector, from every module that binds it, and ``"chain rows"`` for each
    one-pass check of a ``ChainState``'s rows, while the test runs."""
    names: list[str] = []
    original = dacr.clarke._as_vector
    original_rows = dacr.chain._frozen_rows

    def counted(values, n=None, name="vector"):
        names.append(name)
        return original(values, n, name)

    def counted_rows(rows):
        names.append("chain rows")
        return original_rows(rows)

    for module in (dacr.clarke, dacr.segments, dacr.chain):
        monkeypatch.setattr(module, "_as_vector", counted)
    monkeypatch.setattr(dacr.chain, "_frozen_rows", counted_rows)
    return names


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
