"""Microbenchmark of the per-call cost of the model's innermost kernels.

Wrapping `rhs_array` or `hte_residual` with a timer on every call would
distort the traced run, so their cost per call is measured here instead:
`rhs_array` and `jacobian_array` on states sampled along the TP
trajectory, `hte_residual` on the log grid that `find_hte` scans.
"""
from __future__ import annotations

from statistics import median
from time import perf_counter

import numpy as np

from ticsp import DEFAULT_PARAMETERS
from ticsp.equilibria import hte_residual
from ticsp.harness import SCENARIOS
from ticsp.integrator import integrate
from ticsp.kinetics import jacobian_array, rhs_array

REPEATS = 7
MIN_REPEAT_S = 0.02


def _per_call_us(fn, inputs, p) -> float:
    """Median over repeats of the mean cost of one call, in microseconds."""
    loops = 1
    while True:
        start = perf_counter()
        for _ in range(loops):
            for x in inputs:
                fn(x, p)
        if perf_counter() - start >= MIN_REPEAT_S:
            break
        loops *= 2
    samples = []
    for _ in range(REPEATS):
        start = perf_counter()
        for _ in range(loops):
            for x in inputs:
                fn(x, p)
        samples.append((perf_counter() - start) / (loops * len(inputs)))
    return 1e6 * median(samples)


def kernel_costs() -> dict[str, float]:
    """Microseconds per call of each kernel, keyed by per-layer metric name."""
    p = DEFAULT_PARAMETERS
    traj = integrate(SCENARIOS["TP"].state, p)
    states = [row.copy() for row in traj.y[:: max(1, len(traj) // 64)]]
    grid = [float(T) for T in np.geomspace(1.0, 1e10, 400)]
    return {
        "kinetics.rhs_array.us_per_call": _per_call_us(rhs_array, states, p),
        "kinetics.jacobian_array.us_per_call": _per_call_us(jacobian_array, states, p),
        "equilibria.hte_residual.us_per_call": _per_call_us(hte_residual, grid, p),
    }
