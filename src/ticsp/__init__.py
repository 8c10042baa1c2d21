"""Tumor-immune kinetics toolkit.

Simulation, timescale (CSP) diagnostics, equilibrium/bifurcation
analysis, and algebraic model reduction for a stiff four-population
tumor-immune ODE model (tumor cells, NK cells, CD8+ T cells,
circulating lymphocytes).
"""

from .params import ParameterSet, DEFAULT_PARAMETERS, PARAMETER_NAMES
from .kinetics import (
    State,
    ProcessSet,
    DomainError,
    STOICHIOMETRY,
    VARIABLES,
    N_PROCESSES,
    process_rates,
)

__version__ = "0.1.0"

__all__ = [
    "ParameterSet", "DEFAULT_PARAMETERS", "PARAMETER_NAMES",
    "State", "ProcessSet", "DomainError", "STOICHIOMETRY", "VARIABLES",
    "N_PROCESSES", "process_rates", "__version__",
]
