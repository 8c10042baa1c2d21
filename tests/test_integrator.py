"""Integration, dense evaluation, and basin bisection."""
import numpy as np
import pytest
from scipy.integrate import Radau
from scipy.linalg import LinAlgWarning

from ticsp import DEFAULT_PARAMETERS, State, integrator
from ticsp.harness import SCENARIOS
from ticsp.integrator import (
    IntegrationError,
    IntegratorConfig,
    Trajectory,
    _clip_undershoot,
    _full_model,
    _Radau,
    _radau,
    basin_threshold,
    classify_attractor,
    dense_states,
    evaluate_dense,
    integrate,
    settle_attractor,
    stable_equilibria,
)
from ticsp.kinetics import DomainError
from ticsp.reduction import simulate_reduced

P = DEFAULT_PARAMETERS

# Reference initial conditions: tumor-progression and tumor-regression runs.
TP0 = State(0.0, 1e6, 1e3, 1e1, 6e8)
TR0 = State(0.0, 1e7, 2e5, 1e2, 4e10)


@pytest.fixture(scope="module")
def tp_traj():
    return integrate(TP0, P)


@pytest.fixture(scope="module")
def tr_traj():
    return integrate(TR0, P)


@pytest.fixture(scope="module")
def attractors():
    return stable_equilibria(P)


# ---------------------------------------------------------------------------
# Output grid

def test_grid_shape_default():
    g = IntegratorConfig().grid()
    assert g[0] == 0.0
    assert g[-1] == 200.0
    assert np.all(np.diff(g) > 0)
    # log block reaches exactly day 5, linear block steps by 1 day after it
    assert g[1] == pytest.approx(1e-4)
    i5 = int(np.argmin(np.abs(g - 5.0)))
    assert g[i5] == pytest.approx(5.0)
    assert np.allclose(np.diff(g[i5:]), 1.0)


def test_grid_short_horizon():
    g = IntegratorConfig(t_end=2.0).grid()
    assert g[0] == 0.0 and g[-1] == 2.0
    assert np.all(np.diff(g) > 0)
    g = IntegratorConfig(t_end=5e-5).grid()
    assert list(g) == [0.0, 5e-5]


def test_config_validation():
    for bad in (0.0, float("inf"), float("nan")):
        with pytest.raises(ValueError, match="tolerances"):
            IntegratorConfig(rtol=bad)
        with pytest.raises(ValueError, match="tolerances"):
            IntegratorConfig(atol=bad)
    for bad in (-1.0, float("inf"), float("nan")):
        with pytest.raises(ValueError, match="t_end"):
            IntegratorConfig(t_end=bad)


# ---------------------------------------------------------------------------
# Full-model runs

def test_tp_run_completes(tp_traj):
    assert tp_traj.complete
    assert tp_traj.t[0] == 0.0 and tp_traj.t[-1] == 200.0
    assert np.array_equal(tp_traj.y[0], TP0.array())
    assert np.all(tp_traj.y >= 0.0)
    assert tp_traj.stats.steps > 0 and tp_traj.stats.nfev > 0


def test_tp_reaches_high_tumor_scale(tp_traj):
    # tumor grows from 1e6 toward the ~1e9 stable high-tumor state
    assert tp_traj.y[-1, 0] > 1e8


def test_tr_tumor_collapses(tr_traj):
    assert tr_traj.complete
    assert tr_traj.y[-1, 0] < 1.0  # tumor eliminated to below one cell


def test_lymphocyte_closed_form(tp_traj):
    """C decouples: C(t) = C0 e^(-beta t) + (alpha/beta)(1 - e^(-beta t))."""
    t = tp_traj.t
    expected = TP0.C * np.exp(-P.beta * t) + (P.alpha / P.beta) * (1.0 - np.exp(-P.beta * t))
    err = np.abs(tp_traj.y[:, 3] - expected) / np.abs(expected)
    assert err.max() < 10.0 * 1e-8


def test_deterministic_rerun():
    a = integrate(TP0, P, IntegratorConfig(t_end=30.0))
    b = integrate(TP0, P, IntegratorConfig(t_end=30.0))
    assert np.array_equal(a.t, b.t)
    assert np.array_equal(a.y, b.y)


def test_initial_state_requires_positive_tumor():
    with pytest.raises(DomainError):
        integrate(State(0.0, 0.0, 1e3, 1e1, 6e8), P)


# ---------------------------------------------------------------------------
# The Radau subclass against scipy's stock Radau

def _solver_records():
    """Every `_radau` caller once: the four reference runs, endpoint settle
    runs one cell either side of the basin boundary and a reduced run; each
    as its grid, states, step points, dense values and solver counters."""
    def record(t, y, dense, stats):
        rec = {"t": t, "y": y,
               "counters": (stats.steps, stats.nfev, stats.njev, stats.nlu, stats.status)}
        if dense is not None:
            rec["ts"] = dense.ts
            rec["dense"] = dense(np.linspace(t[0], t[-1], 3001))
        return rec

    cfg = IntegratorConfig()
    out = {}
    for name in ("TP", "TR", "TP1", "TR1"):
        traj = integrate(SCENARIOS[name].state, P)
        out[name] = record(traj.t, traj.y, traj.dense, traj.stats)
    for T0 in (319392.0, 319393.0):
        out[f"settle {T0:g}"] = record(*_radau(*_full_model(P), np.array([T0, 1e3, 1e1, 6e8]),
                                               cfg.t_end, cfg, "settle"))
    red = simulate_reduced(1e6, 6e8, P)
    out["reduced"] = record(red.t, red.y, red.dense, red.stats)
    return out


@pytest.fixture(scope="module")
def fast_and_stock():
    """Records from `_Radau` (counting calls into its LU overrides) and from
    scipy's stock Radau on the same call sites."""
    calls = {"lu": 0, "solve_lu": 0}
    lu, solve_lu = _Radau._lu, _Radau._solve_lu

    def counted_lu(self, A):
        calls["lu"] += 1
        return lu(self, A)

    def counted_solve_lu(LU, b):
        calls["solve_lu"] += 1
        return solve_lu(LU, b)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_Radau, "_lu", counted_lu)
        mp.setattr(_Radau, "_solve_lu", staticmethod(counted_solve_lu))
        fast = _solver_records()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(integrator, "_Radau", Radau)
        stock = _solver_records()
    return fast, stock, calls


def test_radau_subclass_is_bit_identical_to_stock(fast_and_stock):
    fast, stock, _ = fast_and_stock
    assert fast.keys() == stock.keys()
    for run, rec in fast.items():
        ref = stock[run]
        assert rec.keys() == ref.keys(), run
        assert rec["counters"] == ref["counters"], run
        for key in rec.keys() - {"counters"}:
            assert rec[key].tobytes() == ref[key].tobytes(), (run, key)


def test_radau_subclass_lu_overrides_are_live(fast_and_stock):
    # a scipy release that renames `lu`/`solve_lu` must fail here, not
    # silently fall back to the stock wrappers
    fast, _, calls = fast_and_stock
    assert calls["lu"] == sum(rec["counters"][3] for rec in fast.values()) > 0
    assert calls["solve_lu"] > calls["lu"]


def test_radau_subclass_keeps_the_lu_checks():
    solver = _Radau(lambda t, y: -y, 0.0, np.ones(2), 1.0)
    nlu = solver.nlu
    with pytest.raises(ValueError, match="infs or NaNs"):
        solver.lu(np.array([[1.0, np.nan], [0.0, 1.0]]))
    assert solver.nlu == nlu + 1
    with pytest.warns(LinAlgWarning, match="Singular matrix"):
        solver.lu(np.zeros((2, 2)))
    LU = solver.lu(np.array([[2.0, 1.0], [1.0, 3.0]], dtype=complex))
    assert np.allclose(solver.solve_lu(LU, np.array([3.0 + 1j, 4.0 + 2j])),
                       np.linalg.solve([[2.0, 1.0], [1.0, 3.0]], [3.0 + 1j, 4.0 + 2j]))
    with pytest.raises(ValueError, match="infs or NaNs"):
        solver.solve_lu(LU, np.array([np.inf, 0.0], dtype=complex))


# ---------------------------------------------------------------------------
# Dense evaluation

def test_dense_matches_grid_rows(tp_traj):
    for i in (0, 40, 100, len(tp_traj) - 1):
        s = evaluate_dense(tp_traj, tp_traj.t[i])
        assert np.allclose(s.array(), tp_traj.y[i], rtol=1e-12, atol=0.0)


def test_dense_midpoint_lymphocyte(tp_traj):
    """Between grid times the interpolant keeps the exponential C law."""
    i = 80
    tm = 0.5 * (tp_traj.t[i] + tp_traj.t[i + 1])
    s = evaluate_dense(tp_traj, tm)
    expected = TP0.C * np.exp(-P.beta * tm) + (P.alpha / P.beta) * (1.0 - np.exp(-P.beta * tm))
    assert abs(s.C - expected) / expected < 1e-8


def test_dense_outside_span(tp_traj):
    with pytest.raises(ValueError):
        evaluate_dense(tp_traj, -1.0)
    with pytest.raises(ValueError):
        evaluate_dense(tp_traj, 201.0)


def test_dense_rejects_nan_time(tp_traj):
    with pytest.raises(ValueError, match="outside trajectory span"):
        evaluate_dense(tp_traj, float("nan"))
    with pytest.raises(ValueError, match="outside trajectory span"):
        dense_states(tp_traj, [1.0, float("nan")])


# ---------------------------------------------------------------------------
# Undershoot policy

def test_clip_small_undershoot():
    y = np.array([[1.0, -5e-7, 0.0, 2.0]])
    out = _clip_undershoot(y, atol=1e-6, where="test")
    assert out[0, 1] == 0.0


def test_reject_large_undershoot():
    y = np.array([[1.0, -5e-3, 0.0, 2.0]])
    with pytest.raises(IntegrationError):
        _clip_undershoot(y, atol=1e-6, where="test")


# ---------------------------------------------------------------------------
# Attractor classification

def test_stable_equilibria_default(attractors):
    kinds = sorted(e.kind for e in attractors)
    assert kinds == ["HTE", "TFE"]


def test_classify_at_equilibrium(attractors):
    for eq in attractors:
        assert classify_attractor(eq.y, attractors) == eq.kind
    far = np.array([1e7, 1e5, 1e5, 1e10])
    assert classify_attractor(far, attractors) is None
    # On the stable HTE in (T, C) with N and L off by 10x: the (T, C) mask
    # without a tolerance names it; the default full comparison does not.
    hte = next(eq for eq in attractors if eq.kind == "HTE")
    off = hte.y * [1.0, 10.0, 10.0, 1.0]
    assert classify_attractor(off, attractors, tol=None, mask=[0, 3]) == "HTE"
    assert classify_attractor(off, attractors) is None


def test_settle_tp_and_tr(attractors):
    assert settle_attractor(TP0, P, targets=attractors) == "HTE"
    assert settle_attractor(TR0, P, targets=attractors) == "TFE"


# ---------------------------------------------------------------------------
# Basin threshold

@pytest.mark.slow
def test_basin_threshold_patient9():
    thr = basin_threshold(1e3, 1e1, 6e8, P, (1e5, 1e6))
    assert 319392.0 <= thr <= 319393.0


def test_basin_threshold_rejects_same_side():
    with pytest.raises(ValueError):
        basin_threshold(1e3, 1e1, 6e8, P, (1e3, 1e4))  # both collapse


def test_basin_threshold_rejects_bad_bracket():
    with pytest.raises(ValueError):
        basin_threshold(1e3, 1e1, 6e8, P, (1e6, 1e5))
