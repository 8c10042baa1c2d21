"""Constraints, constraint errors, reduced models, full-vs-reduced compare."""
import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest

from ticsp import DEFAULT_PARAMETERS, State
from ticsp.csp import decompose, explosive_stage
from ticsp.equilibria import find_hte
from ticsp.integrator import evaluate_dense, integrate, stable_equilibria
from ticsp.kinetics import DomainError
from ticsp.reduction import (
    EffectiveParameters,
    _constraint_arrays,
    _floor_tc,
    compare_reduced,
    constraint_errors,
    reduced_rhs_leading,
    simulate_reduced,
)

P = DEFAULT_PARAMETERS
TP0 = State(0.0, 1e6, 1e3, 1e1, 6e8)
TR0 = State(0.0, 1e7, 2e5, 1e2, 4e10)


@pytest.fixture(scope="module")
def tp_traj():
    return integrate(TP0, P)


@pytest.fixture(scope="module")
def tp_errors(tp_traj):
    return constraint_errors(tp_traj, P, explosive_stage(tp_traj, P))


@pytest.fixture(scope="module")
def tp_reduced():
    return simulate_reduced(1e6, 6e8, P)


# ---------------------------------------------------------------------------
# Constraint values

def test_constraints_match_equilibrium():
    e1 = next(e for e in find_hte(P) if e.stable)
    N_hat, L_hat = _constraint_arrays(e1.T, e1.C, P)
    assert abs(N_hat - e1.N) / e1.N < 5e-3
    assert abs(L_hat - e1.L) / e1.L < 5e-3


def test_constraint_large_tumor_limit():
    _, L_hat = _constraint_arrays(1e12, 1e10, P)
    assert abs(L_hat - P.r2 * 1e10 / P.q) / (P.r2 * 1e10 / P.q) < 1e-6


def test_constraint_linearity_in_lymphocytes():
    N1, L1 = _constraint_arrays(1e7, 1e10, P)
    N2, L2 = _constraint_arrays(1e7, 2e10, P)
    assert N2 == 2.0 * N1
    assert L2 == 2.0 * L1


def test_constraint_requires_positive_tumor():
    # the constraints are undefined at T = 0: their errors read NaN there
    traj = SimpleNamespace(t=np.array([0.0, 1.0]),
                           y=np.array([[0.0, 1.0, 1.0, 1e10], [1e7, 1.0, 1.0, 1e10]]))
    ce = constraint_errors(traj, P, None)
    assert np.isnan(ce.re_n[0]) and np.isnan(ce.re_l[0])
    assert np.isfinite(ce.re_n[1]) and np.isfinite(ce.re_l[1])


# ---------------------------------------------------------------------------
# Constraint errors along trajectories

def test_tp_constraint_errors_in_window(tp_errors):
    assert tp_errors.window is not None
    assert tp_errors.max_re_n < 0.05
    assert tp_errors.max_re_l < 0.05


def test_constraint_errors_large_at_start(tp_errors):
    assert abs(tp_errors.re_n[0]) > 0.5  # transient not yet collapsed


def test_tp_constraints_persist_after_stage(tp_traj, tp_errors):
    sel = tp_traj.t > tp_errors.t_exp
    assert np.nanmax(np.abs(tp_errors.re_n[sel])) < 0.05
    assert np.nanmax(np.abs(tp_errors.re_l[sel])) < 0.05


def test_tr_constraint_errors_in_window():
    traj = integrate(TR0, P)
    ce = constraint_errors(traj, P, explosive_stage(traj, P))
    assert ce.window is not None
    assert ce.max_re_n < 0.05
    assert ce.max_re_l < 0.05


# ---------------------------------------------------------------------------
# Reduced right-hand side

def test_leading_rhs_fixed_points():
    dT, dC = reduced_rhs_leading(1e6, P.alpha / P.beta, P)
    assert dC == 0.0
    # logistic ceiling with a vanishing lysis factor (C tiny)
    dT, _ = reduced_rhs_leading(1.0 / P.b, 1e-10, P)
    assert abs(dT) < 1e-6


def test_leading_rhs_grows_mid_stage(tp_traj):
    s = evaluate_dense(tp_traj, 8.0)
    dT, _ = reduced_rhs_leading(s.T, s.C, P)
    assert dT > 0.0


def test_leading_rhs_domain():
    with pytest.raises(DomainError):
        reduced_rhs_leading(0.0, 1e10, P)
    with pytest.raises(DomainError):
        reduced_rhs_leading(1e6, 0.0, P)


# ---------------------------------------------------------------------------
# Reduced simulation

def test_reduced_tp_matches_full(tp_traj, tp_reduced):
    rep = compare_reduced(tp_traj, tp_reduced, explosive_stage(tp_traj, P),
                          stable_equilibria(P))
    assert rep.attractor_agreement
    assert rep.full_attractor == "HTE"
    assert rep.window is not None
    # frozen regression bound from the first verified build (max ~0.039)
    assert rep.max_err[:3].max() < 0.045
    assert rep.max_err[3] < 1e-9


def test_reduced_tr_reaches_tumor_free():
    full = integrate(TR0, P)
    red = simulate_reduced(1e7, 4e10, P)
    rep = compare_reduced(full, red, explosive_stage(full, P), stable_equilibria(P))
    assert rep.attractor_agreement
    assert rep.full_attractor == "TFE"


def test_reduced_lymphocytes_match_full(tp_traj, tp_reduced):
    err = np.abs(tp_reduced.y[:, 3] - tp_traj.y[:, 3]) / np.maximum(tp_traj.y[:, 3], 1.0)
    assert err.max() < 10.0 * 1e-8  # same decoupled equation, same tolerances


def test_effective_parameter_set(tp_reduced):
    eff = tp_reduced.effective
    assert isinstance(eff, EffectiveParameters)
    assert eff.count == 10
    assert eff.e_over_p == P.e / P.p
    assert eff.q_over_r2 == P.q / P.r2
    assert eff.m_over_r2 == P.m / P.r2
    names = {f.name for f in dataclasses.fields(eff)}
    assert names == {"a", "b", "d", "l", "s", "alpha", "beta",
                     "e_over_p", "q_over_r2", "m_over_r2"}


def test_reduced_independent_of_excluded_parameters(tp_reduced):
    p2 = P
    for name, fac in [("c", 3.0), ("f", 0.5), ("g", 2.0), ("h", 0.1),
                      ("j", 4.0), ("k", 9.0), ("r1", 7.0), ("u", 0.2)]:
        p2 = p2.scaled(name, fac)
    red2 = simulate_reduced(1e6, 6e8, p2)
    assert np.array_equal(red2.t, tp_reduced.t)
    assert np.array_equal(red2.y, tp_reduced.y)


def test_reduced_rejects_bad_start():
    with pytest.raises(DomainError):
        simulate_reduced(0.0, 6e8, P)
    with pytest.raises(DomainError):
        simulate_reduced(1e6, -1.0, P)


def test_compare_identical_is_zero(tp_traj):
    rep = compare_reduced(tp_traj, tp_traj, explosive_stage(tp_traj, P),
                          stable_equilibria(P))
    assert np.all(rep.rel_err == 0.0)
    assert rep.attractor_agreement


# ---------------------------------------------------------------------------
# Constraint <-> exhausted fast modes
#
# Two directions, with different attainable tolerances.  On actual trajectory
# states inside the stage window the two fast modes are exhausted: their
# amplitude contributions stay below 1e-2 per variable even when stretched by
# the slowest driving timescale tau_3.  Reconstructed states that satisfy the
# algebraic constraints EXACTLY sit O(RE) ~ 2-4% away from the true slow
# manifold, and the tau_3/tau_fast ratio (12x-3000x across the window)
# amplifies that gap to order one -- so for those states only the unamplified
# per-mode displacement (weighted by the mode's own timescale) is small, and
# its bound is the constraint-error scale (5%), not 1e-2.

def test_trajectory_states_have_exhausted_fast_modes(tp_traj, tp_errors):
    for frac in (0.2, 0.3, 0.5, 0.7, 0.9):
        s = evaluate_dense(tp_traj, frac * tp_errors.t_exp)
        d = decompose(s, P)
        y = np.abs(s.array())
        contrib = np.abs(d.alpha * d.amplitudes[None, :])
        assert np.all(contrib[:, :2] * d.timescales[2] < 1e-2 * y[:, None] + 1.0)


def test_on_constraint_displacement_within_error_scale(tp_traj, tp_errors):
    for frac in (0.2, 0.3, 0.5, 0.7, 0.9):
        s = evaluate_dense(tp_traj, frac * tp_errors.t_exp)
        N_hat, L_hat = _constraint_arrays(s.T, s.C, P)
        s_on = State(s.t, s.T, N_hat, L_hat, s.C)
        d = decompose(s_on, P)
        y = np.abs(s_on.array())
        contrib = np.abs(d.alpha * d.amplitudes[None, :])
        assert np.all(contrib[:, :2] * d.timescales[None, :2] < 5e-2 * y[:, None] + 1.0)


def test_reduced_probe_floor():
    # solver probes at or below zero are read at the T -> 0+ floor...
    T, C = _floor_tc(np.array([-1.0, 0.0]))
    assert T > 0.0 and C > 0.0
    assert np.all(np.isfinite(reduced_rhs_leading(T, C, P)))
    # ...values above it pass unchanged, and NaN reaches the model, which rejects it
    assert _floor_tc(np.array([1e6, 6e8])) == [1e6, 6e8]
    with pytest.raises(DomainError):
        reduced_rhs_leading(*_floor_tc(np.array([np.nan, 6e8])), P)
