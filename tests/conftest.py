import pytest

import _acceptance_report


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _acceptance_report.lines:
        terminalreporter.section("acceptance criteria")
        for line in _acceptance_report.lines:
            terminalreporter.write_line(line)

from salemlab import build_construction, derive_params


@pytest.fixture(scope="session")
def desk_params():
    """Desk-scale parameters: N = 16, t = 4, alpha = 1/2, progression {0, 15}."""
    return derive_params(4, 2, 1, j_max=5, seed=7)


@pytest.fixture(scope="session")
def desk(desk_params):
    return build_construction(desk_params)
