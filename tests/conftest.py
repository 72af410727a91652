import numpy as np
import pytest
from scipy.optimize import minimize

from gpimpute.gp import _PreparedSEObjective

_acceptance: dict[str, bool] = {}


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    rep = outcome.get_result()
    if rep.when == "call" and item.name.startswith("test_criterion_"):
        _acceptance[item.name] = rep.passed


def pytest_terminal_summary(terminalreporter):
    if not _acceptance:
        return
    terminalreporter.write_line("")
    terminalreporter.write_line("acceptance criteria:")
    for name in sorted(_acceptance):
        status = "PASS" if _acceptance[name] else "FAIL"
        terminalreporter.write_line(f"  {name}: {status}")


@pytest.fixture
def lbfgsb():
    """scipy's L-BFGS-B on the profiled NLL from ``theta0`` in the box [lo, hi]:
    the reference the package's optimizer is checked against."""

    def run(X, y, theta0, lo, hi, max_iter):
        return minimize(_PreparedSEObjective(X, np.ravel(y)), theta0, jac=True,
                        method="L-BFGS-B", bounds=list(zip(lo, hi)),
                        options={"maxiter": max_iter})

    return run
