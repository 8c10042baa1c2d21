"""Shared test utilities: random feasible states, a finite-difference
Jacobian, and call counting across the package's modules."""
import importlib
import sys
from collections import Counter

import numpy as np

from ticsp import State
from ticsp.kinetics import rhs_array


def random_states(n, seed=20260819, t_decades=(0.0, 10.0)):
    """Sample n feasible states, T log-uniform over `t_decades` decades,
    immune populations log-uniform over physiologic ranges.

    C stays at lymphocyte-pool scale (every model run keeps C within an
    order of alpha/beta); that also keeps the finite-difference oracle
    well conditioned in the linear C row.
    """
    rng = np.random.default_rng(seed)
    states = []
    for _ in range(n):
        T = 10.0 ** rng.uniform(*t_decades)
        N = 10.0 ** rng.uniform(2.0, 7.0)
        L = 10.0 ** rng.uniform(1.0, 7.0)
        C = 10.0 ** rng.uniform(8.7, 11.0)
        states.append(State(0.0, T, N, L, C))
    return states


def fd_jacobian(y, params, rel_step=1e-6):
    """Central finite-difference Jacobian with per-component relative steps."""
    y = np.asarray(y, dtype=float)
    J = np.empty((4, 4))
    for jcol in range(4):
        h = rel_step * y[jcol]
        yp = y.copy()
        ym = y.copy()
        yp[jcol] += h
        ym[jcol] -= h
        J[:, jcol] = (rhs_array(yp, params) - rhs_array(ym, params)) / (yp[jcol] - ym[jcol])
    return J


def assert_jacobian_close(J, J_ref, y, rtol=1e-6):
    """Row-wise relative comparison in state-scaled coordinates.

    Entry (i, j) is weighted by y_j so every entry is measured against the
    row's dynamically significant scale max_j |J_ij y_j|.
    """
    y = np.asarray(y, dtype=float)
    scaled_err = np.abs(J - J_ref) * y[None, :]
    row_scale = np.max(np.abs(J) * y[None, :], axis=1)
    assert np.all(row_scale > 0.0)
    assert np.all(scaled_err <= rtol * row_scale[:, None]), (
        scaled_err / row_scale[:, None]
    )


def count_calls(monkeypatch, *names):
    """Count calls of ticsp functions named "module.function", however they
    are reached: each is rebound in every loaded ticsp module that holds a
    reference to it (the `from .x import f` bindings included)."""
    counts = Counter()
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == "ticsp" or n.startswith("ticsp."))]
    for name in names:
        module, attr = name.rsplit(".", 1)
        original = getattr(importlib.import_module(f"ticsp.{module}"), attr)

        def counted(*args, _name=name, _fn=original, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)

        for m in modules:
            for key, value in list(vars(m).items()):
                if value is original:
                    monkeypatch.setattr(m, key, counted)
    return counts
