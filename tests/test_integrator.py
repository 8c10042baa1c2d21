"""Integration, dense evaluation, and basin bisection."""
import logging
import math
import warnings

import numpy as np
import pytest
from scipy.integrate import Radau, solve_ivp
from scipy.integrate._ivp import common as scipy_common
from scipy.integrate._ivp import ivp as scipy_ivp
from scipy.integrate._ivp import radau as scipy_radau
from scipy.linalg import lu_factor, lu_solve

from ticsp import DEFAULT_PARAMETERS, State, integrator, radau
from ticsp.harness import SCENARIOS
from ticsp.integrator import (
    IntegrationError,
    IntegratorConfig,
    LinAlgWarning,
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
from ticsp.kinetics import DomainError, rhs_array
from ticsp.reduction import simulate_reduced

from helpers import count_calls

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
# The owned Radau solver against scipy's stock Radau

@pytest.mark.parametrize("ours, name", [
    ("_C", "C"), ("_E", "E"), ("_T", "T"), ("_TI", "TI"), ("_P", "P"),
    *((name, name) for name in ("MU_REAL", "MU_COMPLEX", "TI_REAL", "TI_COMPLEX",
                                "NEWTON_MAXITER", "MIN_FACTOR", "MAX_FACTOR")),
])
def test_radau_constants_are_scipys(ours, name):
    ours, ref = getattr(radau, ours), getattr(scipy_radau, name)
    assert type(ours) is type(ref)
    assert np.asarray(ours).dtype == np.asarray(ref).dtype
    assert np.asarray(ours).tobytes() == np.asarray(ref).tobytes()


def test_solver_messages_and_eps_are_scipys():
    assert radau.MESSAGES == scipy_ivp.MESSAGES
    assert radau.EPS.tobytes() == scipy_common.EPS.tobytes()


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
    """Records from `_Radau` (counting calls into its LAPACK LU methods) and
    from scipy's stock Radau on the same call sites."""
    calls = {"lu": 0, "solve_lu": 0}
    lu, solve_lu = _Radau.lu, _Radau.solve_lu

    def counted_lu(self, A):
        calls["lu"] += 1
        return lu(self, A)

    def counted_solve_lu(LU, b):
        calls["solve_lu"] += 1
        return solve_lu(LU, b)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_Radau, "lu", counted_lu)
        mp.setattr(_Radau, "solve_lu", staticmethod(counted_solve_lu))
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
    # every LU counted in nlu is one of the class's own LAPACK calls
    fast, _, calls = fast_and_stock
    assert calls["lu"] == sum(rec["counters"][3] for rec in fast.values()) > 0
    assert calls["solve_lu"] > calls["lu"]


def _jump(t, y):
    return np.array([-50.0 * (y[0] - (1.0 if t > 1.0 else 0.0))])


def _van_der_pol(t, y, mu=1e3):
    return np.array([y[1], mu * (1.0 - y[0] ** 2) * y[1] - y[0]])


def _van_der_pol_jac(t, y, mu=1e3):
    return np.array([[0.0, 1.0], [-2.0 * mu * y[0] * y[1] - 1.0, mu * (1.0 - y[0] ** 2)]])


#: Small systems that reach the step's rarer branches, as (fun, jac, span,
#: y0, rtol).  "jump": rejected steps followed by a second error estimate
#: (17 of them), at a right-hand side that jumps at t = 1.  "blow-up":
#: y' = y^2 blows up at t = 1, so the step size collapses (status -1).
#: "van der Pol" (mu = 1e3): Newton failures with a stale and with a fresh
#: Jacobian, and Jacobian refreshes.  "constant": an error estimate of
#: exactly 0.
TOY_SYSTEMS = {
    "jump": (_jump, lambda t, y: np.array([[-50.0]]), (0.0, 2.0), [0.0], 1e-6),
    "blow-up": (lambda t, y: y * y, lambda t, y: np.array([[2.0 * y[0]]]),
                (0.0, 2.0), [1.0], 1e-3),
    "van der Pol": (_van_der_pol, _van_der_pol_jac, (0.0, 3000.0), [2.0, 0.0], 1e-3),
    "constant": (lambda t, y: np.zeros(2), lambda t, y: np.zeros((2, 2)),
                 (0.0, 1e6), [1.0, 2.0], 1e-3),
}


def _driver_and_solve_ivp(fun, jac, y0, t_end, cfg, grid=None, stop=None):
    """The same run through `_radau` (its undershoot clip switched off) and
    through stock `solve_ivp(method=Radau)`."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(integrator, "_clip_undershoot", lambda y, atol, where: y)
        ours = _radau(fun, jac, np.array(y0, dtype=float), t_end, cfg, "test", grid, stop)
    ref = solve_ivp(fun, (0.0, t_end), np.array(y0, dtype=float), method=Radau, jac=jac,
                    rtol=cfg.rtol, atol=cfg.atol, dense_output=grid is not None,
                    t_eval=grid, events=stop)
    return ours, ref


def _assert_same_run(ours, ref, steps):
    t, y, dense, stats = ours
    assert (stats.steps, stats.nfev, stats.njev, stats.nlu, stats.status, stats.message) == \
        (steps, ref.nfev, ref.njev, ref.nlu, ref.status, ref.message)
    assert t.tobytes() == ref.t.tobytes()
    if dense is None:
        assert y.tobytes() == ref.y[:, -1].tobytes()
        return
    assert y.tobytes() == ref.y.T.copy().tobytes()
    assert dense.ts.tobytes() == ref.sol.ts.tobytes()
    times = np.linspace(0.0, dense.ts[-1], 1001)
    assert dense(times).tobytes() == ref.sol(times).tobytes()


@pytest.mark.parametrize("name", ["TP", "TR", "TP1", "TR1"])
def test_radau_driver_matches_solve_ivp_on_the_reference_cases(name):
    cfg = IntegratorConfig()
    ours, ref = _driver_and_solve_ivp(*_full_model(P), SCENARIOS[name].state.array(),
                                      cfg.t_end, cfg, cfg.grid())
    assert ours[3].status == 0
    _assert_same_run(ours, ref, len(ref.sol.ts) - 1)


@pytest.mark.parametrize("name", sorted(TOY_SYSTEMS))
def test_radau_subclass_matches_stock_on_toy_systems(name):
    # endpoint-only runs: the step points, the state at every step (seen by
    # a `stop` that never fires), the final state and the counters
    fun, jac, (_, t_end), y0, rtol = TOY_SYSTEMS[name]
    cfg = IntegratorConfig(rtol=rtol, t_end=t_end)
    seen = []

    def stop(t, y):
        seen.append(y.copy())
        return -1.0

    ours, ref = _driver_and_solve_ivp(fun, jac, y0, t_end, cfg, stop=stop)
    assert ours[3].status == ref.status == (-1 if name == "blow-up" else 0)
    _assert_same_run(ours, ref, len(ref.t) - 1)
    states = np.array(seen[:len(ref.t)])  # ours first, then solve_ivp's
    assert states.tobytes() == ref.y.T.copy().tobytes()


@pytest.mark.parametrize("name", sorted(TOY_SYSTEMS))
def test_radau_driver_matches_solve_ivp_on_toy_systems(name):
    fun, jac, (_, t_end), y0, rtol = TOY_SYSTEMS[name]
    cfg = IntegratorConfig(rtol=rtol, t_end=t_end)
    grid = np.linspace(0.0, t_end, 101)
    ours, ref = _driver_and_solve_ivp(fun, jac, y0, t_end, cfg, grid)
    _assert_same_run(ours, ref, len(ref.sol.ts) - 1)
    if name == "blow-up":
        # the partial grid up to the step-size collapse, and the solver's message
        assert ours[3].status == -1 and 0 < len(ours[0]) < len(grid)
        assert ours[3].message == "Required step size is less than spacing between numbers."


@pytest.mark.parametrize("rtol", [1e-8, 3e-5])
@pytest.mark.parametrize("T0", [319392.0, 319393.0])
def test_radau_driver_matches_solve_ivp_on_terminal_settle_runs(T0, rtol, attractors):
    certificates = integrator._certificates(P, 6e8, attractors)

    def stop(t, y):
        return max(inside(y) for _, _, inside in certificates)

    stop.terminal, stop.direction = True, 1
    cfg = IntegratorConfig(rtol=rtol)
    ours, ref = _driver_and_solve_ivp(*_full_model(P), [T0, 1e3, 1e1, 6e8], cfg.t_end, cfg,
                                      stop=stop)
    assert ours[3].status == 1 and ours[2] is None
    assert ours[0][-1] == ref.t_events[0][0] < cfg.t_end
    _assert_same_run(ours, ref, len(ref.t) - 1)


def test_radau_subclass_step_is_live(monkeypatch):
    # scipy's step helpers are never reached, and every step is a call of
    # the class's own `_step_impl`
    def forbidden(*args, **kwargs):
        raise AssertionError("stock Radau step helper called")

    monkeypatch.setattr(scipy_radau, "solve_collocation_system", forbidden)
    monkeypatch.setattr(scipy_radau, "predict_factor", forbidden)
    calls = []
    step = _Radau._step_impl

    def counted_step(self):
        calls.append(self.t)
        return step(self)

    monkeypatch.setattr(_Radau, "_step_impl", counted_step)
    cfg = IntegratorConfig(t_end=30.0)
    *_, stats = _radau(*_full_model(P), TP0.array(), cfg.t_end, cfg, "test", cfg.grid())
    assert stats.status == 0
    assert len(calls) == stats.steps > 0


def test_radau_subclass_integrates_forward_only():
    with pytest.raises(ValueError, match="forward"):
        _Radau(lambda t, y: -y, 1.0, np.ones(2), 0.0, rtol=1e-3, atol=1e-6, jac=None)


def _toy_solver():
    return _Radau(lambda t, y: -y, 0.0, np.ones(2), 1.0, rtol=1e-3, atol=1e-6,
                  jac=lambda t, y: -np.eye(2))


def test_radau_subclass_keeps_the_lu_checks():
    solver = _toy_solver()
    nlu = solver.nlu
    with pytest.raises(ValueError, match="infs or NaNs"):
        solver.lu(np.array([[1.0, np.nan], [0.0, 1.0]]))
    assert solver.nlu == nlu + 1
    assert issubclass(LinAlgWarning, RuntimeWarning)  # as scipy's class of that name
    with pytest.warns(LinAlgWarning, match="Singular matrix"):
        solver.lu(np.zeros((2, 2)))
    LU = solver.lu(np.array([[2.0, 1.0], [1.0, 3.0]], dtype=complex))
    assert np.allclose(solver.solve_lu(LU, np.array([3.0 + 1j, 4.0 + 2j])),
                       np.linalg.solve([[2.0, 1.0], [1.0, 3.0]], [3.0 + 1j, 4.0 + 2j]))
    with pytest.raises(ValueError, match="infs or NaNs"):
        solver.solve_lu(LU, np.array([np.inf, 0.0], dtype=complex))


@pytest.mark.parametrize("dtype", [float, complex])
def test_solve_after_a_singular_lu_is_non_finite_and_silent(dtype):
    # one warning, from `lu`; the solve neither raises nor warns again
    # (LAPACK's singular-matrix flag would surface as a RuntimeWarning)
    solver = _toy_solver()
    with pytest.warns(LinAlgWarning, match="Singular matrix"):
        LU = solver.lu(np.array([[1.0, 2.0], [2.0, 4.0]], dtype=dtype))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x = solver.solve_lu(LU, np.ones(2, dtype=dtype))
    assert x.shape == (2,) and not np.isfinite(x).any()


@pytest.mark.parametrize("dtype", [float, complex])
def test_lu_solve_is_scipys_lu_factor_and_lu_solve_bit_for_bit(dtype):
    solver = _toy_solver()
    rng = np.random.default_rng(20261019)

    def draw(shape):  # entries spanning 1e-6 to 1e6 in magnitude
        return rng.standard_normal(shape) * 10.0 ** rng.uniform(-6, 6, shape)

    for _ in range(2000):
        A, b = draw((4, 4)), draw(4)
        if dtype is complex:
            A, b = A + 1j * draw((4, 4)), b + 1j * draw(4)
        ref = lu_solve(lu_factor(A), b)
        assert solver.solve_lu(solver.lu(A), b).tobytes() == ref.tobytes()


@pytest.mark.parametrize("name", ["TP", "TR"])
def test_every_solve_of_a_reference_run_is_scipys_lu_solve(name, monkeypatch):
    solves = []
    solve_lu = _Radau.solve_lu

    def recorded(A, b):
        x = solve_lu(A, b)
        solves.append((A.copy(), b.copy(), x))
        return x

    monkeypatch.setattr(_Radau, "solve_lu", staticmethod(recorded))
    integrate(SCENARIOS[name].state, P)
    assert {A.dtype.kind for A, _, _ in solves} == {"f", "c"}
    for A, b, x in solves:
        assert x.tobytes() == lu_solve(lu_factor(A), b).tobytes()


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
# Settle certificates

def _full_label(y0, params=P, config=None):
    """Label from the classifier alone (200 d, then 400 d more), with the
    region certificates switched off."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(integrator, "_certificates", lambda *args: [])
        return settle_attractor(y0, params, config)


def _settle_starts():
    """50 seeded starts: T0 log-uniform over [1e5, 1e6] and within four
    cells of the basin boundary at the basin immune state, the four
    reference cases, and TP and TR jittered as in the benchmark (T0 by one
    factor, the immune populations by another)."""
    rng = np.random.default_rng(20261018)
    immune = [1e3, 1e1, 6e8]
    starts = [[10.0 ** rng.uniform(5.0, 6.0), *immune] for _ in range(20)]
    starts += [[319392.5 + rng.uniform(-4.0, 4.0), *immune] for _ in range(10)]
    starts += [SCENARIOS[name].state.array() for name in ("TP", "TR", "TP1", "TR1")]
    for name, spread in (("TP", 1.25), ("TR", 1.05)):
        y0 = SCENARIOS[name].state.array()
        for _ in range(8):
            f_tumor, f_immune = spread ** rng.uniform(-1.0, 1.0, size=2)
            starts.append(y0 * [f_tumor, f_immune, f_immune, f_immune])
    return [np.array(y) for y in starts]


#: No certificate holds: jW/(k + W) can outgrow the CD8+ turnover (j > m),
#: and u N_b K T_c = 13.6/day exceeds D(K) - a - m = 1.52/day.
NO_CERTIFICATE = P.replace(u=3e-8, j=0.21)


def test_extinction_region_faces_point_inward():
    # The derivation in `_extinction_region`, checked on the vector field:
    # on each face of E = {T <= T_c, L >= K T, N <= N_b} (C <= C_b) the
    # flow crosses inward.
    rng = np.random.default_rng(7)
    K, T_c = integrator._EXTINCTION_K, integrator._EXTINCTION_T
    C_b = P.alpha / P.beta
    N_b = P.e * C_b / (P.f - P.g)
    samples = [(T_c, N_b, K * T_c, C_b)]    # the corner the margin is taken at
    for _ in range(300):
        T = T_c * 10.0 ** rng.uniform(-6.0, 0.0)
        samples.append((T, N_b * 10.0 ** rng.uniform(-3.0, 0.0),
                        K * T * 10.0 ** rng.uniform(0.0, 6.0), C_b * 10.0 ** rng.uniform(-3.0, 0.0)))
    for T, N, L, C in samples:
        assert rhs_array(np.array([T_c, N, max(L, K * T_c), C]), P)[0] < 0.0
        assert rhs_array(np.array([T, N_b, L, C]), P)[1] < 0.0
        dT, _, dL, _ = rhs_array(np.array([T, N, K * T, C]), P)
        assert dL - K * dT > 0.0


def _escape_bounds():
    """(T_h, N_h, K_h, C_b) of the escape region H for P from C0 <= alpha/beta."""
    T_h, C_b = integrator._ESCAPE_T, P.alpha / P.beta
    N_h = P.e * C_b / (P.f - P.g + P.p * T_h)
    K_h = integrator._ESCAPE_HEADROOM * (P.r1 * N_h + P.r2 * C_b) / (P.q * T_h + P.m - P.j)
    return T_h, N_h, K_h, C_b


def test_escape_region_faces_point_inward(attractors):
    # The same for H = {T >= T_h, L <= K_h T, N <= N_h}, with T up to 1/b.
    inside = integrator._escape_region(P, 6e8, attractors)
    T_h, N_h, K_h, C_b = _escape_bounds()
    assert 0.13 < K_h < 0.15
    assert inside(np.array([2.0 * T_h, N_h, K_h * T_h, C_b])) == 0.0
    rng = np.random.default_rng(8)
    samples = [(T_h, N_h, K_h * T_h, C_b)]    # the corner the margins are taken at
    for _ in range(300):
        T = T_h * 10.0 ** rng.uniform(0.0, np.log10(1.0 / (P.b * T_h)))
        samples.append((T, N_h * 10.0 ** rng.uniform(-3.0, 0.0),
                        K_h * T * 10.0 ** rng.uniform(-8.0, 0.0), C_b * 10.0 ** rng.uniform(-3.0, 0.0)))
    for T, N, L, C in samples:
        assert rhs_array(np.array([T_h, N, min(L, K_h * T_h), C]), P)[0] > 0.0
        assert rhs_array(np.array([T, N_h, L, C]), P)[1] < 0.0
        dT, _, dL, _ = rhs_array(np.array([T, N, K_h * T, C]), P)
        assert dL - K_h * dT < 0.0


def test_certificates_hold_only_where_proven(attractors):
    assert [c[:2] for c in integrator._certificates(P, 6e8, attractors)] == [
        ("TFE", "extinction certificate"), ("HTE", "escape certificate")]
    # each region is the conjunction of its three bounds
    T_c = integrator._EXTINCTION_T
    extinction = integrator._extinction_region(P, 6e8)
    assert extinction(np.array([T_c / 2, 1e3, T_c / 2, 6e8])) == 0.0
    for y in ([2 * T_c, 1e3, 10 * T_c, 6e8], [T_c / 2, 1e3, T_c / 2 - 1, 6e8],
              [T_c / 2, 5e5, 10 * T_c, 6e8]):
        assert extinction(np.array(y)) < 0.0
    T_h, N_h, K_h, _ = _escape_bounds()
    escape = integrator._escape_region(P, 6e8, attractors)
    assert escape(np.array([4 * T_h, N_h / 10, K_h * T_h, 6e8])) > 0.0
    for y in ([0.75 * T_h, N_h / 10, K_h * T_h / 10, 6e8],
              [4 * T_h, N_h / 10, 1.1 * K_h * 4 * T_h, 6e8],
              [4 * T_h, 1.1 * N_h, K_h * T_h, 6e8]):
        assert escape(np.array(y)) < 0.0
    assert integrator._extinction_region(P.replace(u=3e-8), 6e8) is None
    assert integrator._extinction_region(P.replace(g=P.f), 6e8) is None
    assert integrator._extinction_region(P, np.nan) is None
    assert integrator._escape_region(P.replace(j=0.21), 6e8, attractors) is None
    # the HTE certificate names an HTE among the targets, or none
    tfe_only = [eq for eq in attractors if eq.kind == "TFE"]
    assert integrator._escape_region(P, 6e8, tfe_only) is None
    assert integrator._certificates(NO_CERTIFICATE, 6e8, stable_equilibria(NO_CERTIFICATE)) == []


def test_settle_stops_in_a_certified_region(attractors, monkeypatch, caplog):
    calls = count_calls(monkeypatch, "integrator._radau")
    with caplog.at_level(logging.DEBUG, logger="ticsp"):
        assert settle_attractor([319392.0, 1e3, 1e1, 6e8], P, targets=attractors) == "TFE"
        assert settle_attractor([319393.0, 1e3, 1e1, 6e8], P, targets=attractors) == "HTE"
    assert calls["integrator._radau"] == 2
    assert [r.getMessage() for r in caplog.records] == [
        "settle: TFE by extinction certificate at t = 27.9832 d after 396 solver steps, rtol 1e-08",
        "settle: HTE by escape certificate at t = 28.7375 d after 249 solver steps, rtol 1e-08"]


def test_settle_without_the_tfe_target_runs_the_classifier(attractors, monkeypatch):
    # A certificate only names an equilibrium among the targets.
    hte = [eq for eq in attractors if eq.kind == "HTE"]
    calls = count_calls(monkeypatch, "integrator._radau")
    with pytest.raises(RuntimeError, match="did not settle"):
        settle_attractor([319392.0, 1e3, 1e1, 6e8], P, targets=hte)
    assert calls["integrator._radau"] == 2


def test_settle_logs_each_rule(caplog):
    cfg = IntegratorConfig()
    with caplog.at_level(logging.DEBUG, logger="ticsp"):
        settle_attractor(TP0, NO_CERTIFICATE)
        settle_attractor(integrate(TP0, NO_CERTIFICATE).final, NO_CERTIFICATE, cfg)
        settle_attractor(TR0, P)
        settle_attractor(TP0, P)
        settle_attractor([1e-3, 1e3, 1e1, 6e8], P)
    messages = [r.getMessage() for r in caplog.records]
    assert [m.split(" at t = ")[0] for m in messages] == [
        "settle: HTE by classifier at 3*t_end", "settle: HTE by classifier at t_end",
        "settle: TFE by extinction certificate", "settle: HTE by escape certificate",
        "settle: TFE by extinction certificate"]
    assert messages[0].endswith("at t = 600 d after 474 solver steps, rtol 1e-08")
    assert messages[1].endswith("at t = 200 d after 34 solver steps, rtol 1e-08")
    assert messages[-1] == ("settle: TFE by extinction certificate at t = 0 d after 0 solver "
                            "steps, rtol 1e-08")


def test_settle_log_costs_nothing_when_off(monkeypatch):
    logger = logging.getLogger("ticsp")
    monkeypatch.setattr(logger, "level", logging.WARNING)

    def forbidden(*args, **kwargs):
        raise AssertionError("a settle decision was formatted with DEBUG off")

    monkeypatch.setattr(logger, "debug", forbidden)
    assert settle_attractor(TR0, P) == "TFE"


def test_settle_falls_back_to_the_classifier(monkeypatch):
    # No certificate holds: the two classifier runs of 200 d and 400 d run
    # as before and give the labels of the classifier alone.
    cfg = IntegratorConfig()
    targets = stable_equilibria(NO_CERTIFICATE)
    for T0, expected in ((1e5, "TFE"), (1e6, "HTE")):
        y0 = np.array([T0, 1e3, 1e1, 6e8])
        runs = []
        original = integrator._radau

        def recorded(fun, jac, y, t_end, config, where, grid=None, stop=None):
            runs.append((t_end, stop))
            return original(fun, jac, y, t_end, config, where, grid, stop)

        with monkeypatch.context() as mp:
            mp.setattr(integrator, "_radau", recorded)
            assert settle_attractor(y0, NO_CERTIFICATE, cfg, targets) == expected
        assert runs == [(200.0, None), (400.0, None)]
        assert _full_label(y0, NO_CERTIFICATE) == expected
    for params in (NO_CERTIFICATE, P):
        with pytest.raises(RuntimeError, match="trajectory did not settle"):
            settle_attractor([1e6, 1e3, 1e1, 6e8], params, IntegratorConfig(t_end=1.0))


@pytest.mark.slow
def test_early_labels_equal_the_full_classification(attractors):
    starts = _settle_starts()
    assert len(starts) >= 50
    for y0 in starts:
        assert settle_attractor(y0, P, targets=attractors) == _full_label(y0), y0


@pytest.mark.slow
@pytest.mark.parametrize("change", [dict(a=0.5), dict(d=1.5), dict(u=3e-8), dict(r2=1.3e-10)])
def test_early_labels_equal_the_full_classification_off_default(change):
    # Parameter sets where both certificates, or only one, hold.
    params = P.replace(**change)
    for T0 in (1e5, 1e6):
        y0 = np.array([T0, 1e3, 1e1, 6e8])
        assert settle_attractor(y0, params) == _full_label(y0, params), (change, T0)


@pytest.mark.slow
@pytest.mark.parametrize("rtol", [1e-6, 1e-7, 1e-8, 1e-9, 1e-10])
def test_boundary_pair_labels_converge(rtol, attractors):
    cfg = IntegratorConfig(rtol=rtol)
    assert settle_attractor(SCENARIOS["TP1"].state, P, cfg, attractors) == "HTE"
    assert settle_attractor(SCENARIOS["TR1"].state, P, cfg, attractors) == "TFE"


# ---------------------------------------------------------------------------
# Basin threshold

@pytest.mark.slow
def test_basin_threshold_patient9():
    thr = basin_threshold(1e3, 1e1, 6e8, P, (1e5, 1e6))
    assert 319392.0 <= thr <= 319393.0


IMMUNE = (1e3, 1e1, 6e8)
CLI_BRACKET = (319000.0, 320000.0)
WIDE = (1e4, 1e7)


def _seeded_brackets(n=20, seed=20261018):
    """Brackets drawn as the benchmark draws them: width in (2**12, 2**13]
    cells, with the boundary at 1-99% of the way up."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        width = rng.uniform(2.0**12 + 1.0, 2.0**13)
        x = rng.uniform(0.01, 0.99)
        out.append((319392.5 - x * width, 319392.5 + (1.0 - x) * width))
    return out


#: Thresholds of the plain bisection at rtol 1e-8 (one settle run per
#: endpoint and midpoint, no scout), as float.hex: the seeded brackets in
#: order, then the named cases.
_SEEDED_THRESHOLDS = [
    "0x1.37e836b9187f0p+18", "0x1.37e8375bd38b4p+18", "0x1.37e84da5dc534p+18",
    "0x1.37e85afa01c8ep+18", "0x1.37e841296f044p+18", "0x1.37e83a5270ca9p+18",
    "0x1.37e837d35c13ap+18", "0x1.37e832db03998p+18", "0x1.37e835e5ef2b5p+18",
    "0x1.37e829bd9c86ep+18", "0x1.37e842f38d3ccp+18", "0x1.37e840bf91428p+18",
    "0x1.37e82df20621fp+18", "0x1.37e852baa6237p+18", "0x1.37e849e7f37fcp+18",
    "0x1.37e858b1a084ep+18", "0x1.37e839f84bd7ap+18", "0x1.37e83d28eca8dp+18",
    "0x1.37e855c1521f6p+18", "0x1.37e83fd7b2dcdp+18",
]
THRESHOLD_CASES = [
    pytest.param(IMMUNE, P, bracket, expected, id=f"seeded-{i}")
    for i, (bracket, expected) in enumerate(zip(_seeded_brackets(), _SEEDED_THRESHOLDS))
] + [
    pytest.param(IMMUNE, P, CLI_BRACKET, "0x1.37e8638000000p+18", id="cli"),
    pytest.param(IMMUNE, P, (1e5, 1e6), "0x1.37e82b9780000p+18", id="criterion-04"),
    pytest.param(IMMUNE, P, (3.1e5, 3.3e5), "0x1.37e82cd000000p+18", id="demo-02"),
    pytest.param((2e3, 1e1, 6e8), P, WIDE, "0x1.37e30d78e0000p+18", id="N0x2"),
    pytest.param((1e3, 1e2, 6e8), P, WIDE, "0x1.37fdb2f3b4000p+18", id="L0x10"),
    pytest.param((1e3, 1e1, 3e8), P, WIDE, "0x1.08f9b611a8000p+18", id="C0x0.5"),
    pytest.param(IMMUNE, P.replace(d=P.d * 1.1), WIDE, "0x1.4faeced638000p+18", id="dx1.1"),
    pytest.param(IMMUNE, P.replace(j=P.j * 0.9), WIDE, "0x1.37694873e8000p+18", id="jx0.9"),
    pytest.param((5e2, 5.0, 1e9), P, WIDE, "0x1.7e5f6ec704000p+18", id="immune-5e2-5-1e9"),
]


def _settle_runs(monkeypatch, fail_scout_run=None):
    """Record the rtol of every settle run `basin_threshold` makes; the
    scout run numbered `fail_scout_run` (from 1) raises instead."""
    rtols = []
    original = integrator._settle

    def recorded(y, params, config, targets, certificates):
        rtols.append(config.rtol)
        if (config.rtol == integrator._SCOUT_RTOL
                and rtols.count(config.rtol) == fail_scout_run):
            raise IntegrationError("scout run failed")
        return original(y, params, config, targets, certificates)

    monkeypatch.setattr(integrator, "_settle", recorded)
    return rtols


_THRESHOLDS = {}


def _threshold(immune, params, bracket):
    """`basin_threshold`'s result and its number of scout runs, computed
    once per case for the tests below."""
    key = (immune, params, bracket)
    if key not in _THRESHOLDS:
        with pytest.MonkeyPatch.context() as mp:
            rtols = _settle_runs(mp)
            value = basin_threshold(*immune, params, bracket)
        _THRESHOLDS[key] = value, rtols.count(integrator._SCOUT_RTOL)
    return _THRESHOLDS[key]


@pytest.mark.slow
@pytest.mark.parametrize("immune, params, bracket, expected", THRESHOLD_CASES)
def test_basin_threshold_is_the_plain_bisection_bit_for_bit(immune, params, bracket,
                                                             expected):
    assert _threshold(immune, params, bracket)[0].hex() == expected


@pytest.mark.slow
def test_basin_threshold_predicts_the_scout_cell():
    # The plain scout bisection makes 13 runs on each seeded bracket, 10 on
    # the CLI bracket and 20 on (1e5, 1e6).
    seeded = [_threshold(IMMUNE, P, bracket)[1] for bracket in _seeded_brackets()]
    assert np.mean(seeded) <= 8.5 and max(seeded) <= 13, seeded
    assert _threshold(IMMUNE, P, CLI_BRACKET)[1] <= 7
    assert _threshold(IMMUNE, P, (1e5, 1e6))[1] <= 12


@pytest.mark.slow
@pytest.mark.parametrize("bracket", [CLI_BRACKET, (1e5, 1e6), *_seeded_brackets()[:3]],
                         ids=["cli", "criterion-04", "seeded-0", "seeded-1", "seeded-2"])
def test_the_scout_search_ends_in_the_scout_bisections_cell(bracket, attractors):
    cfg = IntegratorConfig(rtol=integrator._SCOUT_RTOL)
    certificates = integrator._certificates(P, IMMUNE[2], attractors)
    (saddle,) = integrator._equilibria(P)[1]

    def scout(T0, predicted=False):
        return integrator._settle(np.array([T0, *IMMUNE]), P, cfg, attractors, certificates)

    plain = integrator._bisect(lambda T0: scout(T0)[0], *bracket, 1.0, ends=("TFE", "HTE"))
    assert integrator._scout_cell(scout, *bracket, saddle.eigenvalues.real.max()) == plain


@pytest.mark.slow
@pytest.mark.parametrize("garbage", ["low end", "high end", "nan", "far"])
def test_the_prediction_only_steers_the_scout_runs(garbage, monkeypatch):
    # With the prediction wrong, the threshold keeps its bits, and a bracket
    # takes at most twice the plain scout bisection's runs.
    cases = [(CLI_BRACKET, "0x1.37e8638000000p+18", 10)] + [
        (bracket, expected, 13)
        for bracket, expected in list(zip(_seeded_brackets(), _SEEDED_THRESHOLDS))[:3]]
    for bracket, expected, halvings in cases:
        value = {"low end": bracket[0], "high end": bracket[1], "nan": np.nan,
                 "far": 1e12}[garbage]
        with monkeypatch.context() as mp:
            mp.setattr(integrator, "_predict", lambda runs, rate: value)
            rtols = _settle_runs(mp)
            assert basin_threshold(*IMMUNE, P, bracket).hex() == expected
        assert rtols.count(integrator._SCOUT_RTOL) <= 2 * halvings, (bracket, rtols)


def _threshold_lines(caplog):
    return [r.getMessage() for r in caplog.records if r.getMessage().startswith("threshold")]


def test_basin_threshold_confirms_the_scout_cell_with_two_full_runs(monkeypatch):
    rtols = _settle_runs(monkeypatch)
    assert basin_threshold(*IMMUNE, P, CLI_BRACKET).hex() == "0x1.37e8638000000p+18"
    assert rtols == [integrator._SCOUT_RTOL] * 6 + [1e-8] * 2


def test_basin_threshold_logs_its_cell_and_runs(caplog):
    with caplog.at_level(logging.DEBUG, logger="ticsp"):
        basin_threshold(*IMMUNE, P, CLI_BRACKET)
    assert _threshold_lines(caplog) == [
        "threshold: cell (319392.578125, 319393.5546875] confirmed after 6 scout runs "
        "(3 predicted, 3 midpoints) and 2 full runs; scout cell (319392.578125, "
        "319393.5546875], no neighbour step"]
    settles = [r.getMessage() for r in caplog.records if r.getMessage().startswith("settle")]
    assert [m.rsplit(", ", 1)[1] for m in settles] == ["rtol 3e-05"] * 6 + ["rtol 1e-08"] * 2


def test_basin_threshold_takes_one_neighbour_step(monkeypatch, caplog):
    # A benchmark bracket whose scout cell ends between the boundary at
    # rtol 3e-5 (319392.6465) and at 1e-8 (319392.6296): its low end settles
    # to the HTE at 1e-8, and the far end of the leaf below to the TFE.
    rtols = _settle_runs(monkeypatch)
    with caplog.at_level(logging.DEBUG, logger="ticsp"):
        value = basin_threshold(*IMMUNE, P, (317765.86462426867, 322030.33278392896))
    assert value.hex() == "0x1.37e82854007c2p+18"   # the plain bisection's, at 1e-8
    assert rtols.count(1e-8) == 2
    assert _threshold_lines(caplog) == [
        "threshold: cell (319392.1095621078, 319392.6301270687] confirmed after 6 scout "
        "runs (3 predicted, 3 midpoints) and 2 full runs; scout cell (319392.6301270687, "
        "319393.1506920296], neighbour step"]


@pytest.mark.parametrize("k, full_runs", [(-3, 9), (-1, 2), (0, 2), (1, 3), (3, 12)])
def test_basin_threshold_is_the_full_bisection_of_a_step_boundary(k, full_runs, monkeypatch):
    # Every run settles by a step function of T0, with no entry time, so the
    # scout is a plain bisection: its boundary lies mid-leaf, and the full
    # runs' boundary k leaves of the bisection tree away.  The threshold is
    # the full step function's bisection.  The cell's ends and one
    # neighbour leaf end settle |k| <= 1; at |k| = 3 the walk runs only
    # what those runs leave undecided.
    lo, hi = 317765.86462426867, 322030.33278392896
    leaf = (hi - lo) / 2**13
    theta = {integrator._SCOUT_RTOL: lo + 600.5 * leaf, 1e-8: lo + (600.5 + k) * leaf}
    full = []

    def step(y, params, config, targets, certificates):
        if config.rtol != integrator._SCOUT_RTOL:
            full.append(y[0])
        return ("TFE" if y[0] < theta[config.rtol] else "HTE"), None

    monkeypatch.setattr(integrator, "_settle", step)
    expected = integrator._bisect(lambda T0: T0 < theta[1e-8], lo, hi, 1.0)[1]
    assert basin_threshold(*IMMUNE, P, (lo, hi)).hex() == expected.hex()
    assert len(full) == full_runs


def test_threshold_log_costs_nothing_when_off(monkeypatch):
    logger = logging.getLogger("ticsp")
    monkeypatch.setattr(logger, "level", logging.WARNING)

    def forbidden(*args, **kwargs):
        raise AssertionError("a threshold or settle line was formatted with DEBUG off")

    monkeypatch.setattr(logger, "debug", forbidden)
    assert basin_threshold(*IMMUNE, P, CLI_BRACKET).hex() == "0x1.37e8638000000p+18"


@pytest.mark.slow
def test_basin_threshold_falls_back_when_a_scout_run_raises(monkeypatch, caplog):
    rtols = _settle_runs(monkeypatch, fail_scout_run=4)
    with caplog.at_level(logging.DEBUG, logger="ticsp"):
        assert basin_threshold(*IMMUNE, P, CLI_BRACKET).hex() == "0x1.37e8638000000p+18"
    assert rtols == [integrator._SCOUT_RTOL] * 4 + [1e-8] * 12
    assert _threshold_lines(caplog) == [
        "threshold: cell (319392.578125, 319393.5546875] by plain bisection after 4 scout "
        "runs (1 predicted, 3 midpoints) and 12 full runs; scout cell none, no neighbour step"]


@pytest.mark.slow
def test_basin_threshold_falls_back_from_a_loose_scout(monkeypatch, caplog):
    # At rtol 1e-3 the scout's cell is two cells off; neither it nor the
    # leaf below it is confirmed, and the plain bisection gives the
    # threshold, running only what the full runs so far leave undecided.
    monkeypatch.setattr(integrator, "_SCOUT_RTOL", 1e-3)
    with caplog.at_level(logging.DEBUG, logger="ticsp"):
        assert basin_threshold(*IMMUNE, P, (3.1e5, 3.3e5)).hex() == "0x1.37e82cd000000p+18"
    assert _threshold_lines(caplog) == [
        "threshold: cell (319392.08984375, 319392.7001953125] by plain bisection after 9 "
        "scout runs (5 predicted, 4 midpoints) and 10 full runs; scout cell "
        "(319393.310546875, 319393.9208984375], neighbour step"]


def test_basin_threshold_within_one_cell_makes_two_full_runs_and_no_scout(monkeypatch):
    rtols = _settle_runs(monkeypatch)
    assert basin_threshold(*IMMUNE, P, (319392.2, 319393.0)) == 319393.0
    assert rtols == [1e-8] * 2


def test_basin_threshold_one_sided_bracket_still_raises(monkeypatch, caplog):
    # Every scout run settles to the TFE and the prediction lies above the
    # bracket, so the scout runs the top end; it settles to the TFE too, and
    # the plain bisection runs both ends and raises.
    rtols = _settle_runs(monkeypatch)
    with caplog.at_level(logging.DEBUG, logger="ticsp"), \
            pytest.raises(ValueError, match=r"^bracket endpoints classify to the same "
                                            r"attractor \(TFE\); widen the bracket$"):
        basin_threshold(*IMMUNE, P, (1e5, 2e5))
    assert rtols == [integrator._SCOUT_RTOL] * 3 + [1e-8] * 2
    assert not _threshold_lines(caplog)


@pytest.mark.slow
def test_basin_threshold_needs_its_confirmation(monkeypatch):
    # A 1e-3 scout ends in a cell the plain bisection at 1e-8 does not reach:
    # returning it unconfirmed would change the threshold.
    monkeypatch.setattr(integrator, "_SCOUT_RTOL", 1e-3)
    scout_cfg = IntegratorConfig(rtol=1e-3)
    targets = stable_equilibria(P)
    _, hi_f = integrator._bisect(
        lambda T0: settle_attractor(np.array([T0, *IMMUNE]), P, scout_cfg, targets),
        3.1e5, 3.3e5, 1.0, ends=("TFE", "HTE"))
    assert hi_f.hex() != "0x1.37e82cd000000p+18"
    assert basin_threshold(*IMMUNE, P, (3.1e5, 3.3e5)).hex() == "0x1.37e82cd000000p+18"


def test_settle_core_reports_the_certified_entry_time(attractors):
    cfg = IntegratorConfig()
    certificates = integrator._certificates(P, 6e8, attractors)
    label, tau = integrator._settle(np.array([319392.0, *IMMUNE]), P, cfg, attractors,
                                    certificates)
    assert label == "TFE" and round(tau, 4) == 27.9832   # as its settle line logs
    assert integrator._settle(np.array([1e-3, *IMMUNE]), P, cfg, attractors,
                              certificates) == ("TFE", 0.0)
    # the classifier decides: no entry time
    assert integrator._settle(np.array([1e6, *IMMUNE]), P, cfg, attractors, []) == ("HTE", None)


def _log_law_runs(theta, side, lam, taus, c=12.0):
    """Runs that follow ln|T0 - theta| = c - lam tau exactly."""
    sign = 1.0 if side == "HTE" else -1.0
    return {theta + sign * math.exp(c - lam * tau): (side, tau) for tau in taus}


def test_predict_inverts_the_log_law():
    theta = 319392.5
    # three runs of one side fit the rate; two take the saddle's
    three = _log_law_runs(theta, "TFE", 0.55, [15.0, 18.0, 20.0])
    assert integrator._predict(three, None) == pytest.approx(theta, abs=1e-6)
    assert integrator._predict(three, 0.7) == pytest.approx(theta, abs=1e-6)
    two = _log_law_runs(theta, "HTE", 0.7, [15.0, 18.0])
    assert integrator._predict(two, 0.7) == pytest.approx(theta, abs=1e-6)
    assert integrator._predict(two, None) is None
    # only runs a certificate decided after the start count
    assert integrator._predict({**two, 3e5: ("TFE", None), 2e5: ("TFE", 0.0)}, None) is None
    # the entry times must grow toward the boundary
    assert integrator._predict({**two, theta + 1.0: ("HTE", 10.0)}, 0.7) is None
    # the side whose nearest run entered latest gives the prediction
    far = _log_law_runs(theta + 10.0, "HTE", 0.7, [10.0, 12.0])
    assert integrator._predict({**far, **three}, 0.7) == pytest.approx(theta, abs=1e-6)


def test_bisect_with_given_ends_labels_only_midpoints():
    calls = []
    label = lambda t: calls.append(t) or t > 1.3
    lo, hi = integrator._bisect(label, 1.0, 2.0, 1e-3, ends=(False, True))
    assert lo < 1.3 <= hi
    assert calls and all(1.0 < t < 2.0 for t in calls)


def test_bisect_stops_where_the_label_is_none():
    calls = []
    label = lambda t: calls.append(t) or (True if t < 1.3 else False if t > 1.4 else None)
    assert integrator._bisect(label, 1.0, 2.0, 1e-3, ends=(True, False)) == (1.25, 1.5)
    assert calls == [1.5, 1.25, 1.375]


def test_bisect_stops_at_the_given_width():
    for width, halvings in [(0.25, 2), (0.2, 3), (1e-4, 14)]:
        calls = []
        lo, hi = integrator._bisect(lambda t: calls.append(t) or t > 0.7, 0.0, 1.0, width)
        assert calls[:2] == [0.0, 1.0]   # no ends given: both are labelled first
        assert len(calls) == 2 + halvings
        assert hi - lo == 0.5 ** halvings and lo < 0.7 <= hi


def test_basin_threshold_needs_no_scout_at_a_loose_caller_tolerance(monkeypatch):
    rtols = _settle_runs(monkeypatch)
    cfg = IntegratorConfig(rtol=integrator._SCOUT_RTOL)
    assert 319392.0 <= basin_threshold(*IMMUNE, P, CLI_BRACKET, cfg) <= 319394.0
    assert rtols == [cfg.rtol] * 12


def test_basin_threshold_rejects_same_side():
    with pytest.raises(ValueError, match=r"^bracket endpoints classify to the same "
                                         r"attractor \(TFE\); widen the bracket$"):
        basin_threshold(1e3, 1e1, 6e8, P, (1e3, 1e4))  # both collapse


@pytest.mark.parametrize("d, kind", [(0.1, "HTE"), (3000.0, "TFE")])
def test_basin_threshold_needs_two_stable_equilibria_before_any_run(d, kind, monkeypatch):
    calls = count_calls(monkeypatch, "integrator._settle")
    with pytest.raises(ValueError, match="^no bracket separates two basins: the only stable "
                                         f"equilibrium of these parameters is the {kind}$"):
        basin_threshold(*IMMUNE, P.replace(d=d), (1e5, 1e6))
    assert not calls


def test_basin_threshold_rejects_bad_bracket():
    with pytest.raises(ValueError):
        basin_threshold(1e3, 1e1, 6e8, P, (1e6, 1e5))


@pytest.mark.parametrize("bad", [-5.0, -1e-300, np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("name", ["N0", "L0", "C0"])
def test_basin_threshold_rejects_impossible_immune_state_before_any_run(
        name, bad, monkeypatch):
    calls = count_calls(monkeypatch, "integrator.find_hte", "integrator._settle")
    immune = {"N0": 1e3, "L0": 1e1, "C0": 6e8, name: bad}
    with pytest.raises(ValueError, match=f"^{name} must be nonnegative and finite"):
        basin_threshold(immune["N0"], immune["L0"], immune["C0"], P, (319000.0, 320000.0))
    assert not calls


@pytest.mark.parametrize("bracket", [(319000.0, np.inf), (np.nan, 320000.0),
                                     (319000.0, np.nan), (0.0, 1e6), (1e6, 1e6)])
def test_basin_threshold_rejects_bad_bracket_before_any_run(bracket, monkeypatch):
    calls = count_calls(monkeypatch, "integrator.find_hte", "integrator._settle")
    with pytest.raises(ValueError, match="^T_bracket must satisfy"):
        basin_threshold(1e3, 1e1, 6e8, P, bracket)
    assert not calls
