"""Mode decomposition, participation indices, explosive stage."""
import dataclasses

import numpy as np
import pytest

from ticsp import DEFAULT_PARAMETERS, State
from ticsp.csp import (
    DecompositionError,
    _bisect,
    _normalize_rows,
    api,
    decompose,
    diagnostics_record,
    exhausted_count,
    explosive_stage,
    importance,
    pointer,
    tpi,
)
from ticsp.equilibria import find_hte, tfe, tfe_eigenvalues
from ticsp.integrator import IntegratorConfig, evaluate_dense, integrate
from ticsp.kinetics import STOICHIOMETRY, process_rates, rhs_array

from helpers import random_states

P = DEFAULT_PARAMETERS
TP0 = State(0.0, 1e6, 1e3, 1e1, 6e8)
TR0 = State(0.0, 1e7, 2e5, 1e2, 4e10)

# States with complex-conjugate eigenpairs (found by seeded search, frozen):
# explosive pair in the fastest slots,
PAIR_FAST = State(0.0, 2.53008244e4, 1.57695685e3, 2.60009843e3, 8.36410384e8)
# dissipative pair in the middle slots (1, 2).
PAIR_MID = State(0.0, 3.64416267e5, 1.58736442e3, 2.80885953e5, 1.78277422e10)


@pytest.fixture(scope="module")
def tp_traj():
    return integrate(TP0, P)


@pytest.fixture(scope="module")
def tp_stage(tp_traj):
    return explosive_stage(tp_traj, P)


def tp_record(tp_traj, tp_stage, frac, **kw):
    s = evaluate_dense(tp_traj, frac * tp_stage.end)
    return diagnostics_record(s, P, t_over_texp=frac, **kw)


# ---------------------------------------------------------------------------
# Decomposition

def test_biorthonormality_and_reconstruction_random():
    worst = 0.0
    for st in random_states(100):
        d = decompose(st, P)
        assert np.max(np.abs(d.beta @ d.alpha - np.eye(4))) < 1e-10
        g = rhs_array(st.array(), P)
        err = np.max(np.abs(d.alpha @ d.amplitudes - g)) / np.max(np.abs(g))
        worst = max(worst, err)
    assert worst < 1e-10


def test_modes_sorted_fastest_first():
    for st in random_states(50, seed=3):
        d = decompose(st, P)
        assert np.all(np.diff(d.timescales) >= 0)
        assert np.allclose(d.timescales, 1.0 / np.abs(d.eigenvalues))


def test_tfe_limit_all_dissipative():
    main, _ = tfe(P)
    s = State(0.0, 1e-10, main.N, 1e-4, main.C)
    d = decompose(s, P)
    assert not d.explosive.any()
    got = np.sort(d.eigenvalues.real)
    ref = np.sort(tfe_eigenvalues(P).real)
    assert np.allclose(got, ref, rtol=1e-6)


def test_amplitudes_vanish_at_equilibrium():
    e1 = next(e for e in find_hte(P) if e.stable)
    d = decompose(State.from_array(0.0, e1.y), P)
    assert np.all(np.abs(d.amplitudes) < 1e-6)


def test_near_defective_guard(monkeypatch):
    import ticsp.csp as csp_mod
    monkeypatch.setattr(csp_mod, "_COND_LIMIT", 1.0)
    with pytest.raises(DecompositionError, match="condition number"):
        decompose(TP0, P)


def test_complex_pair_structure():
    d = decompose(PAIR_FAST, P)
    assert d.complex_pair == (1, 0, None, None)
    assert d.explosive[0] and d.explosive[1]
    assert d.timescales[0] == d.timescales[1]
    assert d.eigenvalues[0] == np.conj(d.eigenvalues[1])
    assert np.max(np.abs(d.beta @ d.alpha - np.eye(4))) < 1e-10
    g = rhs_array(PAIR_FAST.array(), P)
    assert np.max(np.abs(d.alpha @ d.amplitudes - g)) <= 1e-10 * np.max(np.abs(g))

    d2 = decompose(PAIR_MID, P)
    assert d2.complex_pair == (None, 2, 1, None)
    assert not d2.explosive.any()


def test_canonical_sign_dominant_api_positive():
    for st in random_states(50, seed=11):
        d = decompose(st, P)
        table = api(d, process_rates(st, P))
        for n in range(4):
            row = table[n]
            assert row[int(np.argmax(np.abs(row)))] > 0.0


# ---------------------------------------------------------------------------
# Index tables: invariants

def test_normalizations_random():
    for st in random_states(30, seed=21):
        d = decompose(st, P)
        ps = process_rates(st, P)
        assert np.max(np.abs(np.sum(np.abs(api(d, ps)), axis=1) - 1.0)) < 1e-10
        assert np.max(np.abs(np.sum(np.abs(tpi(d, ps)), axis=1) - 1.0)) < 1e-10
        assert np.max(np.abs(np.sum(pointer(d), axis=1) - 1.0)) < 1e-10
        for M in range(4):
            ii = importance(d, M, ps)
            assert np.max(np.abs(np.sum(np.abs(ii), axis=1) - 1.0)) < 1e-10


def test_tpi_rows_sum_to_eigenvalues():
    # tpi() itself verifies sum_k c = Re(lambda) to 1e-8 relative and raises
    # otherwise; run it across random states including complex-pair ones.
    checked_pair = 0
    for st in list(random_states(100, seed=31)) + [PAIR_FAST, PAIR_MID]:
        d = decompose(st, P)
        tpi(d, process_rates(st, P))
        if any(p is not None for p in d.complex_pair):
            checked_pair += 1
    assert checked_pair >= 2


def test_importance_m0_is_raw_equation_shares():
    st = TP0
    d = decompose(st, P)
    ps = process_rates(st, P)
    ii = importance(d, 0, ps)
    raw = STOICHIOMETRY * ps.rates[None, :]
    raw = raw / np.sum(np.abs(raw), axis=1, keepdims=True)
    assert np.max(np.abs(ii - raw)) < 1e-12


def test_importance_rejects_bad_m():
    d = decompose(TP0, P)
    ps = process_rates(TP0, P)
    for M in (-1, 4, 7):
        with pytest.raises(ValueError):
            importance(d, M, ps)


def test_sign_flip_invariance():
    d = decompose(TP0, P)
    ps = process_rates(TP0, P)
    flipped = d.mode_sign_flipped(2)
    assert np.allclose(pointer(flipped), pointer(d), atol=1e-14)
    assert np.allclose(api(flipped, ps)[2], -api(d, ps)[2], atol=1e-14)
    # TPI is quadratic in the mode sign (alpha and beta flip together),
    # so a joint flip leaves it unchanged — its table signs are absolute
    assert np.allclose(tpi(flipped, ps), tpi(d, ps), atol=1e-14)
    other = [0, 1, 3]
    assert np.allclose(api(flipped, ps)[other], api(d, ps)[other], atol=1e-14)


def test_normalize_rows_zero_row_undefined():
    rows = np.array([[1.0, -3.0], [0.0, 0.0]])
    out = _normalize_rows(rows)
    assert np.allclose(out[0], [0.25, -0.75])
    assert np.isnan(out[1]).all()


# ---------------------------------------------------------------------------
# Exhausted-mode count

def test_exhausted_progression(tp_traj, tp_stage):
    assert exhausted_count(decompose(TP0, P), TP0) < 2
    rec = tp_record(tp_traj, tp_stage, 0.5)
    assert rec.M == 2
    e1 = next(e for e in find_hte(P) if e.stable)
    s1 = State.from_array(0.0, e1.y)
    assert exhausted_count(decompose(s1, P), s1) == 3


def test_exhausted_fixed_override():
    d = decompose(TP0, P)
    assert exhausted_count(d, TP0, fixed=1) == 1
    with pytest.raises(ValueError):
        exhausted_count(d, TP0, fixed=4)


def test_exhausted_never_splits_pair():
    d = decompose(PAIR_MID, P)
    # with an infinite amplitude allowance, all three fast modes count
    assert exhausted_count(d, PAIR_MID, atol=1e30) == 3
    # force mode 3 explosive: M=3 impossible, M=2 would split the (1,2) pair
    forced = dataclasses.replace(d, explosive=np.array([False, False, True, False]))
    assert exhausted_count(forced, PAIR_MID, atol=1e30) == 1


# ---------------------------------------------------------------------------
# Explosive stage

def test_tp_stage(tp_stage):
    assert tp_stage.start == 0.0
    assert abs(tp_stage.end - 16.2189) / 16.2189 < 0.01
    assert tp_stage.mode_index == 3
    assert tp_stage.t_exp == tp_stage.end


def test_tr_stage():
    traj = integrate(TR0, P)
    st = explosive_stage(traj, P)
    assert st.start == 0.0
    assert abs(st.end - 2.3016) / 2.3016 < 0.01
    assert st.mode_index == 3


def test_no_stage_from_stable_equilibrium():
    e1 = next(e for e in find_hte(P) if e.stable)
    traj = integrate(State.from_array(0.0, e1.y), P, IntegratorConfig(t_end=50.0))
    assert explosive_stage(traj, P) is None


def test_explosive_mode_is_third_and_fast_modes_dissipative(tp_traj, tp_stage):
    for frac in (0.25, 0.4, 0.6, 0.75):
        s = evaluate_dense(tp_traj, frac * tp_stage.end)
        d = decompose(s, P)
        assert bool(d.explosive[2])
        assert not d.explosive[0] and not d.explosive[1]


# ---------------------------------------------------------------------------
# Reference-table checkpoints (frozen from this implementation's TP/TR runs)

def test_tp_mid_stage_tables(tp_traj, tp_stage):
    rec = tp_record(tp_traj, tp_stage, 0.5)
    # mode 1: NK-cell balance (influx from lymphocytes vs tumor-driven loss)
    assert abs(rec.api[0, 12] - 0.5) < 0.02     # process 13
    assert abs(rec.api[0, 1] + 0.5) < 0.02      # process 2
    assert abs(rec.tpi[0, 12] + 1.0) < 0.02
    assert abs(rec.pointer[0, 1] - 1.0) < 0.01  # variable N
    # mode 2: effector-cell balance (recruitment vs inactivation)
    assert abs(rec.api[1, 11] - 0.5) < 0.02     # process 12
    assert abs(rec.api[1, 13] + 0.5) < 0.02     # process 14
    assert abs(rec.tpi[1, 13] + 1.0) < 0.02
    assert abs(rec.pointer[1, 2] - 1.0) < 0.01  # variable L


def test_tp_late_stage_explosive_mode(tp_traj, tp_stage):
    rec = tp_record(tp_traj, tp_stage, 0.8)
    assert abs(rec.tpi[2, 0] - 1.0) < 0.01      # tumor growth dominates
    assert abs(rec.pointer[2, 0] - 1.0) < 0.01  # pinned to T


def test_tp_early_stage_explosive_mode(tp_traj, tp_stage):
    rec = tp_record(tp_traj, tp_stage, 0.2)
    row = rec.tpi[2]
    assert abs(row[0] - 0.800) < 0.01
    assert abs(row[11] + 0.082) < 0.01
    assert abs(row[13] - 0.081) < 0.01
    assert abs(row[7] - 0.037) < 0.01


def test_tr_mid_stage_explosive_mode():
    traj = integrate(TR0, P)
    st = explosive_stage(traj, P)
    s = evaluate_dense(traj, 0.5 * st.end)
    rec = diagnostics_record(s, P, t_over_texp=0.5)
    row = rec.tpi[2]
    assert abs(row[13] - 0.366) < 0.015
    assert abs(row[11] + 0.363) < 0.015
    assert abs(row[0] - 0.158) < 0.015
    assert abs(row[7] - 0.107) < 0.015


def test_record_fields(tp_traj, tp_stage):
    rec = tp_record(tp_traj, tp_stage, 0.5, fixed_M=1)
    assert rec.M == 1
    assert rec.t_over_texp == 0.5
    assert rec.api.shape == (4, 15)
    assert rec.tpi.shape == (4, 15)
    assert rec.pointer.shape == (4, 4)
    assert rec.importance.shape == (4, 15)
    lone = diagnostics_record(TP0, P)
    assert np.isnan(lone.t_over_texp)


# ---------------------------------------------------------------------------
# Modes along the trajectory

def test_track_pins_pointer_along_trajectory(tp_traj, tp_stage):
    # in tau-sorted order the two fast modes keep their variables mid-stage
    for frac in np.linspace(0.2, 0.8, 7):
        s = evaluate_dense(tp_traj, frac * tp_stage.end)
        po = pointer(decompose(s, P))
        assert po[0, 1] > 0.95   # mode 1 stays pinned to N
        assert po[1, 2] > 0.95   # mode 2 stays pinned to L


# ---------------------------------------------------------------------------
# Stage-boundary bisection

def test_bisect_refines_a_sign_change():
    calls = []
    event = lambda t: calls.append(t) or t - 1.3
    root = _bisect(event, 1.0, 2.0)
    assert abs(root - 1.3) <= 1e-4
    assert calls[:2] == [1.0, 2.0]          # both endpoints first
    assert all(1.0 < t < 2.0 for t in calls[2:])


def test_bisect_returns_a_zero_endpoint():
    assert _bisect(lambda t: t - 1.0, 1.0, 2.0) == 1.0
    assert _bisect(lambda t: t - 2.0, 1.0, 2.0) == 2.0
    assert _bisect(lambda t: 0.5 - t, 0.0, 1.0) == 0.5   # exact midpoint


def test_bisect_none_without_sign_change():
    assert _bisect(lambda t: t + 1.0, 1.0, 2.0) is None
    assert _bisect(lambda t: -t, 1.0, 2.0) is None
