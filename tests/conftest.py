"""Session-scoped bundles shared by the harness and acceptance suites."""
import os

# scipy, the bit-identity oracle, gives thread-dependent bits in its complex
# LU solve (zgetrs); its OpenBLAS reads this when scipy.linalg first loads,
# which is after this line, since ticsp itself never imports scipy.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import pytest

from ticsp.harness import (
    SCENARIOS,
    PerturbationSpec,
    run_perturbation,
    run_scenario,
)


@pytest.fixture(scope="session")
def scenario_results():
    """All four built-in cases, keyed by name."""
    return {name: run_scenario(name) for name in SCENARIOS}


@pytest.fixture(scope="session")
def perturbation_reports():
    """The four documented perturbation experiments, keyed by (name, factor)."""
    specs = [
        PerturbationSpec("a", 0.8),
        PerturbationSpec("a", 1.2),
        PerturbationSpec("c", 0.6),
        PerturbationSpec("e", 0.6),
    ]
    return {(s.parameter, s.multiplier): run_perturbation(s) for s in specs}
