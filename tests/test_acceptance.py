"""Acceptance gate: the twelve headline checks, one test (one line) each.

Each test pins a published quantitative target at its stated tolerance:
equilibrium locations and eigenvalues, stage durations, the basin threshold,
the index tables at checkpoints, constraint accuracy, persistent-process
sets, reduced-model fidelity, perturbation directionals, the algebraic
property suite, and the bifurcation structure.
"""
import numpy as np
import pytest

from ticsp import DEFAULT_PARAMETERS, State
from ticsp.csp import api, decompose, importance, pointer, tpi
from ticsp.equilibria import bifurcation_scan, find_hte, tfe, tfe_stable
from ticsp.harness import joint_ii_persistence
from ticsp.integrator import basin_threshold
from ticsp.kinetics import (
    STOICHIOMETRY,
    jacobian_array,
    process_rates,
    rhs_array,
)
from ticsp.reduction import compare_reduced, simulate_reduced

from helpers import assert_jacobian_close, fd_jacobian, random_states

P = DEFAULT_PARAMETERS


# 1 ---------------------------------------------------------------------------

def test_criterion_01_equilibrium_locations(scenario_results):
    eqs = scenario_results["TP"].equilibria
    tfe_eq = next(e for e in eqs if e.kind == "TFE")
    assert tfe_eq.T == 0.0 and tfe_eq.L == 0.0
    assert tfe_eq.N == pytest.approx(3.15e5, rel=0.005)
    assert tfe_eq.C == pytest.approx(6.25e10, rel=0.005)

    stable = next(e for e in eqs if e.kind == "HTE" and e.stable)
    for got, printed in zip(stable.y, (9.8e8, 3.87, 2.86e6, 6.25e10)):
        assert got == pytest.approx(printed, rel=0.02)

    unstable = next(e for e in eqs if e.kind == "HTE" and not e.stable)
    assert 0.0 < unstable.T < stable.T


# 2 ---------------------------------------------------------------------------

def test_criterion_02_tumor_free_eigenvalues():
    analytic = np.sort([
        P.a - P.d - P.alpha * P.c * P.e / (P.beta * P.f),
        -P.f, -P.m, -P.beta,
    ])
    eigs = tfe(P).eigenvalues
    assert np.all(eigs.imag == 0.0)
    got = np.sort(eigs.real)
    assert np.all(np.abs(got - analytic) <= 1e-6 * np.abs(analytic))
    assert tfe_stable(P) == ((P.a - P.d) * P.beta * P.f < P.alpha * P.c * P.e)


# 3 ---------------------------------------------------------------------------

def test_criterion_03_stage_durations(scenario_results):
    bands = {"TP": (16.2, 0.05), "TR": (2.3, 0.10),
             "TP1": (37.3, 0.10), "TR1": (24.7, 0.10)}
    for name, (printed, rel) in bands.items():
        t_exp = scenario_results[name].t_exp
        assert t_exp == pytest.approx(printed, rel=rel), name


# 4 ---------------------------------------------------------------------------

@pytest.mark.slow
def test_criterion_04_basin_threshold():
    thr = basin_threshold(1e3, 1e1, 6e8, P, (1e5, 1e6))
    assert abs(thr - 319392.5) <= 200.0


# 5 ---------------------------------------------------------------------------

def _mode_matches(api_row, tpi_row, api_expect, tpi_expect, tol):
    """Entry-wise match allowing one consistent sign flip of the mode."""
    for sign in (1.0, -1.0):
        api_ok = all(abs(sign * api_row[k - 1] - v) <= tol
                     for k, v in api_expect.items())
        tpi_ok = all(abs(sign * tpi_row[k - 1] - v) <= tol
                     for k, v in tpi_expect.items())
        if api_ok and tpi_ok:
            return True
    return False


def test_criterion_05_mid_stage_fast_mode_tables(scenario_results):
    rec = scenario_results["TP"].checkpoint(0.5)
    assert _mode_matches(rec.api[0], rec.tpi[0],
                         {13: +0.50, 2: -0.50}, {13: -1.00}, tol=0.05)
    assert rec.pointer[0, 1] == pytest.approx(1.00, abs=0.05)  # mode 1 -> N
    assert _mode_matches(rec.api[1], rec.tpi[1],
                         {12: +0.50, 14: -0.50}, {14: -1.00}, tol=0.05)
    assert rec.pointer[1, 2] == pytest.approx(1.00, abs=0.05)  # mode 2 -> L


# 6 ---------------------------------------------------------------------------

def test_criterion_06_explosive_mode_tables(scenario_results):
    tp = scenario_results["TP"]
    row = tp.stage.mode_index - 1
    rec = tp.checkpoint(0.8)
    assert rec.tpi[row, 0] == pytest.approx(1.00, abs=0.05)   # process 1
    assert rec.pointer[row, 0] == pytest.approx(1.00, abs=0.05)  # variable T

    tr = scenario_results["TR"]
    rec = tr.checkpoint(0.5)
    row = tr.stage.mode_index - 1
    for k, v in {12: -0.36, 14: +0.36, 1: +0.16, 8: +0.11}.items():
        assert rec.tpi[row, k - 1] == pytest.approx(v, abs=0.08), f"process {k}"


# 7 ---------------------------------------------------------------------------

def test_criterion_07_constraint_accuracy(scenario_results):
    for name in ("TP", "TR"):
        errors = scenario_results[name].errors
        assert errors.max_re_n < 0.05, name
        assert errors.max_re_l < 0.05, name
    tp = scenario_results["TP"]
    after = tp.trajectory.t > tp.errors.t_exp
    assert np.nanmax(np.abs(tp.errors.re_n[after])) < 0.05
    assert np.nanmax(np.abs(tp.errors.re_l[after])) < 0.05


# 8 ---------------------------------------------------------------------------

def test_criterion_08_persistent_process_sets(scenario_results):
    joint = joint_ii_persistence(list(scenario_results.values()))
    assert joint == {
        "T": (1, 8, 12, 14),
        "N": (1, 3, 6, 8, 12, 14),
        "L": (1, 3, 6, 8, 12, 14),
        "C": (3, 6),
    }


# 9 ---------------------------------------------------------------------------

def test_criterion_09_reduced_model(scenario_results):
    # regression bounds frozen from the first verified build
    frozen = {"TP": (0.045, 0.045, 0.045), "TR": (0.50, 0.95, 0.02)}
    for name in ("TP", "TR"):
        res = scenario_results[name]
        scn = res.scenario
        red = simulate_reduced(scn.T0, scn.C0, res.params)
        rep = compare_reduced(res.trajectory, red, res.stage, res.stable_equilibria)
        assert rep.attractor_agreement, name
        assert rep.full_attractor == scn.expect, name
        assert red.effective.count == 10
        c_rel = np.max(np.abs(red.y[:, 3] - res.trajectory.y[:, 3])
                       / np.maximum(res.trajectory.y[:, 3], 1.0))
        assert c_rel < 1e-7, name  # 10x integrator rtol
        assert tuple(rep.max_err[:3] < frozen[name]) == (True, True, True), name


# 10 --------------------------------------------------------------------------

def test_criterion_10_perturbation_directionals(perturbation_reports):
    slower = perturbation_reports[("a", 0.8)]
    assert slower.rel_delta_t_exp > 0.05
    assert slower.late_ratio[0] < 0.95      # final-window tumor decreases

    faster = perturbation_reports[("a", 1.2)]
    assert faster.rel_delta_t_exp < -0.05
    assert faster.late_ratio[0] > 1.05

    inert = perturbation_reports[("c", 0.6)]
    assert abs(inert.rel_delta_t_exp) < 0.05
    assert inert.max_rel_change[0] < 0.05

    immune = perturbation_reports[("e", 0.6)]
    assert 0.55 <= immune.mean_ratio[1] <= 0.65
    assert abs(immune.rel_delta_t_exp) < 0.05


# 11 --------------------------------------------------------------------------

def test_criterion_11_property_suite():
    eye = np.eye(4)
    for state in random_states(100):
        y = state.array()
        dec = decompose(state, P)
        assert np.max(np.abs(dec.beta @ dec.alpha - eye)) < 1e-10

        g = rhs_array(y, P)
        recon = (dec.alpha @ dec.amplitudes).real
        assert np.max(np.abs(recon - g)) <= 1e-8 * np.max(np.abs(g))

        ps = process_rates(state, P)
        assert np.allclose(np.abs(api(dec, ps)).sum(axis=1), 1.0, atol=1e-10)
        assert np.allclose(np.abs(tpi(dec, ps)).sum(axis=1), 1.0, atol=1e-10)
        assert np.allclose(pointer(dec).sum(axis=1), 1.0, atol=1e-10)
        for M in range(4):
            imp = importance(dec, M, ps)
            sums = np.abs(imp).sum(axis=1)
            defined = np.isfinite(sums)
            # a variable with zero projection on every slow mode has an
            # undefined (all-NaN) share row; normalization holds elsewhere
            assert np.all(np.isnan(imp[~defined]))
            assert np.allclose(sums[defined], 1.0, atol=1e-10)

        assert_jacobian_close(jacobian_array(y, P), fd_jacobian(y, P), y, rtol=1e-6)

        srates = STOICHIOMETRY @ ps.rates
        assert np.max(np.abs(srates - g)) <= 1e-12 * np.max(np.abs(g))


# 12 --------------------------------------------------------------------------

@pytest.mark.slow
def test_criterion_12_bifurcation_structure():
    d_star = P.a - P.alpha * P.c * P.e / (P.beta * P.f)
    scan = bifurcation_scan(P, "d", (0.05, 1.0), 40)
    assert scan.transcritical == pytest.approx(d_star, rel=1e-6)
    assert scan.transcritical == pytest.approx(0.43098, abs=5e-5)

    branches = find_hte(P)  # at the fitted d = 2.34
    assert len(branches) == 2
    assert sorted(b.stable for b in branches) == [False, True]

    wide = bifurcation_scan(P, "d", (2.34, 2000.0), 60, log=True)
    assert wide.saddle_node is not None
    assert 800.0 < wide.saddle_node < 1100.0
    assert find_hte(P.replace(d=1200.0)) == []
