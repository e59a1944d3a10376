"""Shared test plumbing: acceptance lines for the end-of-run summary, and a
guard that makes grid allocation fail."""

import numpy as np
import pytest

ACCEPTANCE_LINES: list[str] = []


def record_acceptance(line: str) -> None:
    ACCEPTANCE_LINES.append(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture
def no_grid_alloc(monkeypatch):
    """Make ``np.linspace`` fail, so a grid-size check that runs too late
    fails fast instead of allocating the grid."""

    def refuse(*args, **kwargs):
        raise AssertionError("grid allocated before its size was checked")

    monkeypatch.setattr(np, "linspace", refuse)
