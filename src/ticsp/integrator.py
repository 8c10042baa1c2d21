"""Stiff initial-value integration with dense output.

The model's timescales span five orders of magnitude, so integration
uses an implicit adaptive method (Radau IIA of order 5) with the analytic
Jacobian.  Output is reported on a grid mirroring the usual presentation
of these runs: log-spaced times up to day 5, linear spacing thereafter;
the continuous (dense) solution is kept for diagnostics at arbitrary
times, the stage boundaries among them.

Every run, full or reduced, dense or endpoint-only, goes through one
Radau driver, `_radau`: a loop over the steps of the solver class
`_Radau`, with `solve_ivp`'s dense-output, output-grid and terminal-event
semantics and none of its per-step bookkeeping.  `_Radau`, its dense
output and the event root finder are lean copies of scipy 1.17.1's
Radau, `OdeSolution` and `brentq` (so no command imports
`scipy.integrate` or `scipy.optimize`), with LU factor and solve calling
LAPACK through `scipy.linalg`.  On these 4x4 systems scipy's per-call
wrappers cost more than the arithmetic, and they are what it drops;
driver and step keep every floating-point operation and its order, so
steps, counters and dense output stay bit-identical to the stock
`solve_ivp(method=Radau)`, which the tests use as the oracle.  The full
model's right-hand side is one kinetics call, `floored_rhs`.

Also provides the basin-of-attraction bisection on the initial tumor
burden: runs are classified by which stable equilibrium they settle to,
and a run stops as soon as it enters a region proven to lead to one of
them (`_extinction_region`, `_escape_region`).  A scout bisection at a
loose tolerance finds the final cell, and two runs at the caller's
tolerance confirm it.
"""
from __future__ import annotations

import itertools
import logging
import math
import warnings
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np
from scipy.linalg import LinAlgWarning, get_lapack_funcs

from .equilibria import Equilibrium, _brentq, find_hte, tfe
from .kinetics import (
    DomainError, State, _saturation, floor_state, floored_rhs, jacobian_array,
)
from .params import ParameterSet

__all__ = [
    "IntegratorConfig", "SolverStats", "Trajectory", "IntegrationError",
    "integrate", "evaluate_dense", "dense_states", "basin_threshold",
    "stable_equilibria", "classify_attractor", "settle_attractor",
]

_LOGGER = logging.getLogger("ticsp")
_LOG_START = 1e-4
_LOG_UNTIL = 5.0
_N_LOG = 61
_N_LINEAR = 196


class IntegrationError(RuntimeError):
    """Integration produced an unusable result (beyond-tolerance undershoot)."""


@dataclass(frozen=True)
class IntegratorConfig:
    """Solver tolerances and horizon of one run.

    The output grid is fixed apart from its end: t = 0, then 61 log-spaced
    times from 1e-4 to 5 days, then 196 linearly spaced times from 5 days
    to t_end (the first of them shared with the log part).
    """

    rtol: float = 1e-8
    atol: float = 1e-6          # cells/day scale of each population
    t_end: float = 200.0        # days

    def __post_init__(self):
        if not (0 < self.rtol < np.inf and 0 < self.atol < np.inf):
            raise ValueError("tolerances must be positive and finite")
        if not 0 < self.t_end < np.inf:
            raise ValueError("t_end must be positive and finite")

    def grid(self) -> np.ndarray:
        """Strictly increasing output times from 0 to t_end."""
        if self.t_end <= _LOG_START:
            return np.array([0.0, self.t_end])
        log_hi = min(_LOG_UNTIL, self.t_end)
        times = [np.array([0.0]), np.geomspace(_LOG_START, log_hi, _N_LOG)]
        if self.t_end > _LOG_UNTIL:
            times.append(np.linspace(_LOG_UNTIL, self.t_end, _N_LINEAR)[1:])
        return np.concatenate(times)


@dataclass(frozen=True)
class SolverStats:
    steps: int
    nfev: int
    njev: int
    nlu: int
    status: int
    message: str


@dataclass
class Trajectory:
    """Solution on the output grid plus the continuous dense interpolant.

    For reduced models `y` holds the full reconstructed 4-vector per grid
    time while `dense` interpolates the model's own (smaller) state;
    `expand` maps a stack of such states (n, k) to full states (n, 4).
    """

    t: np.ndarray               # (n,)
    y: np.ndarray               # (n, 4)
    dense: object               # _OdeSolution, scipy's OdeSolution twin
    stats: SolverStats
    complete: bool
    atol: float = 1e-6
    expand: Optional[Callable[[np.ndarray], np.ndarray]] = None
    effective: object = None    # reduced models: the effective parameter set

    def __len__(self) -> int:
        return len(self.t)

    @property
    def span(self) -> tuple[float, float]:
        return float(self.t[0]), float(self.t[-1])

    @property
    def final(self) -> np.ndarray:
        return self.y[-1]


def _clip_undershoot(y: np.ndarray, atol: float, where: str) -> np.ndarray:
    """Clip tiny negative populations to 0; larger undershoot is an error.

    The allowance is 10x the solver's absolute tolerance: atol controls the
    local per-step error, so the accumulated excursion below zero on a long
    collapse can legitimately exceed it by a small factor.
    """
    bad = y < -10.0 * atol
    if np.any(bad):
        raise IntegrationError(
            f"{where}: population undershoot beyond the absolute tolerance "
            f"(min value {y.min():.3e})"
        )
    return np.maximum(y, 0.0)


# Radau IIA of order 5 (Hairer and Wanner, Solving ODEs II, 1996, IV.8):
# scipy 1.17.1's constants, by its own expressions.
_S6 = 6 ** 0.5
_C = np.array([(4 - _S6) / 10, (4 + _S6) / 10, 1])
_E = np.array([-13 - 7 * _S6, -13 + 7 * _S6, -1]) / 3
MU_REAL = 3 + 3 ** (2 / 3) - 3 ** (1 / 3)
MU_COMPLEX = (3 + 0.5 * (3 ** (1 / 3) - 3 ** (2 / 3))
              - 0.5j * (3 ** (5 / 6) + 3 ** (7 / 6)))
_T = np.array([
    [0.09443876248897524, -0.14125529502095421, 0.03002919410514742],
    [0.25021312296533332, 0.20412935229379994, -0.38294211275726192],
    [1, 1, 0]])
_TI = np.array([
    [4.17871859155190428, 0.32768282076106237, 0.52337644549944951],
    [-4.17871859155190428, -0.32768282076106237, 0.47662355450055044],
    [0.50287263494578682, -2.57192694985560522, 0.59603920482822492]])
TI_REAL = _TI[0]
TI_COMPLEX = _TI[1] + 1j * _TI[2]
_P = np.array([
    [13/3 + 7*_S6/3, -23/3 - 22*_S6/3, 10/3 + 5 * _S6],
    [13/3 - 7*_S6/3, -23/3 + 22*_S6/3, 10/3 - 5 * _S6],
    [1/3, -8/3, 10/3]])
NEWTON_MAXITER = 6
MIN_FACTOR = 0.2
MAX_FACTOR = 10
EPS = np.finfo(float).eps
#: `solve_ivp`'s messages for the statuses that carry no solver message.
MESSAGES = {0: "The solver successfully reached the end of the integration interval.",
            1: "A termination event occurred."}

# LAPACK's LU factor and solve for the real and the complex Radau IIA
# iteration matrices, resolved once instead of on every call.
_DGETRF, _DGETRS = get_lapack_funcs(("getrf", "getrs"), dtype=np.float64)
_ZGETRF, _ZGETRS = get_lapack_funcs(("getrf", "getrs"), dtype=np.complex128)


def _rms(v):
    """The RMS norm, scipy's `np.linalg.norm(v) / v.size ** 0.5`."""
    return np.sqrt(v.dot(v)) / v.size ** 0.5


class _Radau:
    """scipy 1.17.1's Radau IIA solver for real states, a callable Jacobian
    and forward runs, with a lean step and direct LAPACK calls.

    `__init__` does what scipy's `OdeSolver` and `Radau` inits do here (the
    checks on y0, rtol, atol and max_step, f0 and `select_initial_step`,
    the Newton tolerance, the Jacobian at t0); `step`, `status`, `t_old`,
    `dense_output` and the counters are the stock solver's, which can stand
    in for it.  `_step_impl` is scipy's with `solve_collocation_system`,
    `predict_factor` and the previous step's dense output inline.  They
    perform the same floating-point operations in the same order, on arrays
    of the same layout: every product stays a numpy/BLAS `dot`, whose
    summation order sets the last bits, `_rms` is `np.linalg.norm`'s sum
    for a real array, and the Z0 predictor takes the powers x, x*x, (x*x)*x
    in `cumprod`'s order.  So steps, counters and dense values are the stock
    solver's bit for bit.  What it drops is per-call overhead: the RHS
    wrapper (`fun` must return a float array of shape (n,)), a dense-output
    object per step, `np.errstate` and the wrappers of `lu_factor` and
    `lu_solve`, whose LAPACK getrf/getrs calls and checks (non-finite input,
    illegal argument, singular matrix) `lu` and `solve_lu` make directly.
    """

    TOO_SMALL_STEP = "Required step size is less than spacing between numbers."

    def __init__(self, fun, t0, y0, t_bound, max_step=np.inf, rtol=1e-3, atol=1e-6, jac=None):
        if not t_bound > t0:
            raise ValueError("_Radau integrates forward in time only")
        y = np.asarray(y0).astype(float, copy=False)
        if y.ndim != 1:
            raise ValueError("`y0` must be 1-dimensional.")
        if not np.isfinite(y).all():
            raise ValueError("All components of the initial state `y0` must be finite.")
        if max_step <= 0:
            raise ValueError("`max_step` must be positive.")
        self.newton_tol = max(10 * EPS / rtol, min(0.03, rtol ** 0.5))
        if rtol < 100 * EPS:
            warnings.warn("At least one element of `rtol` is too small. "
                          f"Setting `rtol = np.maximum(rtol, {100 * EPS})`.", stacklevel=2)
            rtol = np.maximum(rtol, 100 * EPS)
        atol = np.asarray(atol)
        if atol.ndim > 0 and atol.shape != y.shape:
            raise ValueError("`atol` has wrong shape.")
        if np.any(atol < 0):
            raise ValueError("`atol` must be positive.")
        self.t, self.y, self.t_bound, self.t_old, self.y_old = t0, y, t_bound, None, None
        self.max_step, self.rtol, self.atol = max_step, rtol, atol
        self.status, self.nfev, self.njev, self.nlu = "running", 2, 1, 0
        self._rhs, self._Q = fun, None     # _Q: previous step's dense-output coefficients
        self.f = f0 = fun(t0, y)
        # scipy's select_initial_step for an error of order 3 + 1
        scale = atol + np.abs(y) * rtol
        d0, d1 = _rms(y / scale), _rms(f0 / scale)
        h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, t_bound - t0)
        d2 = _rms((fun(t0 + h0, y + h0 * f0) - f0) / scale) / h0
        h1 = (max(1e-6, h0 * 1e-3) if d1 <= 1e-15 and d2 <= 1e-15
              else (0.01 / max(d1, d2)) ** (1 / 4))
        self.h_abs = min(100 * h0, h1, t_bound - t0, max_step)
        self.h_abs_old = self.error_norm_old = None

        def counted_jac(t, y):
            self.njev += 1
            return np.asarray(jac(t, y), dtype=float)

        self.jac, self.J = counted_jac, np.asarray(jac(t0, y), dtype=float)
        self.I = np.identity(y.size)
        self.current_jac, self.LU_real, self.LU_complex = True, None, None

    def step(self):
        """One step; `status` becomes "finished" at t_bound and "failed" on
        a step-size collapse, whose message is returned."""
        success, message = self._step_impl()
        self.status = ("finished" if self.t >= self.t_bound else "running") if success else "failed"
        return message

    def dense_output(self):
        """scipy's `RadauDenseOutput` of the last step: its collocation
        polynomial at a time (scalar path) or a 1-D array of times."""
        t_old, h, y_old, Q = self.t_old, self.t - self.t_old, self.y_old, self._Q

        def interpolant(t):
            t = np.asarray(t)
            x = (t - t_old) / h
            p = np.cumprod(np.tile(x, (3, 1) if t.ndim else 3), axis=0)  # x, x^2, x^3
            y = np.dot(Q, p)
            y += y_old[:, None] if t.ndim else y_old
            return y

        return interpolant

    def lu(self, A):
        self.nlu += 1
        if not np.isfinite(A).all():
            raise ValueError("array must not contain infs or NaNs")
        getrf = _ZGETRF if A.dtype.kind == "c" else _DGETRF
        lu, piv, info = getrf(A, overwrite_a=True)
        if info < 0:
            raise ValueError(f"illegal value in {-info}th argument of internal getrf")
        if info > 0:
            warnings.warn(f"Diagonal number {info} is exactly zero. Singular matrix.",
                          LinAlgWarning, stacklevel=2)
        return lu, piv

    @staticmethod
    def solve_lu(LU, b):
        lu, piv = LU
        if not np.isfinite(b).all():
            raise ValueError("array must not contain infs or NaNs")
        getrs = _ZGETRS if lu.dtype.kind == "c" else _DGETRS  # b is of the same kind
        x, info = getrs(lu, piv, b, overwrite_b=True)
        if info != 0:
            raise ValueError(f"illegal value in {-info}th argument of internal getrs")
        return x

    def _step_impl(self):
        t, y, f = self.t, self.y, self.f
        rhs, solve_lu, jac = self._rhs, self.solve_lu, self.jac
        atol, rtol, tol, I = self.atol, self.rtol, self.newton_tol, self.I
        n = y.shape[0]

        min_step = 10 * (math.nextafter(t, math.inf) - t)
        if self.h_abs > self.max_step:
            h_abs, h_abs_old, error_norm_old = self.max_step, None, None
        elif self.h_abs < min_step:
            h_abs, h_abs_old, error_norm_old = min_step, None, None
        else:
            h_abs, h_abs_old, error_norm_old = self.h_abs, self.h_abs_old, self.error_norm_old

        J, LU_real, LU_complex = self.J, self.LU_real, self.LU_complex
        current_jac = self.current_jac
        Q = self._Q
        if Q is not None:
            t_prev, h_prev = self.t_old, t - self.t_old

        rejected = False
        while True:
            if h_abs < min_step:
                return False, self.TOO_SMALL_STEP

            t_new = t + h_abs
            if t_new - self.t_bound > 0:
                t_new = self.t_bound
            h = h_abs = t_new - t

            ch = h * _C
            if Q is None:
                Z0 = np.zeros((3, n))
            else:
                # the previous step's dense output at t + h*C
                x = (t + ch - t_prev) / h_prev
                x2 = x * x
                Z0 = (Q.dot(np.array([x, x2, x2 * x])) + self.y_old[:, None]).T - y

            scale = atol + np.abs(y) * rtol

            converged = False
            while not converged:
                if LU_real is None or LU_complex is None:
                    LU_real = self.lu(MU_REAL / h * I - J)
                    LU_complex = self.lu(MU_COMPLEX / h * I - J)

                # scipy's solve_collocation_system
                M_real = MU_REAL / h
                M_complex = MU_COMPLEX / h
                W = _TI.dot(Z0)
                Z = Z0
                F = np.empty((3, n))
                dW = np.empty_like(W)
                dW_norm_old = None
                rate = None
                for k in range(NEWTON_MAXITER):
                    F[0] = rhs(t + ch[0], y + Z[0])
                    F[1] = rhs(t + ch[1], y + Z[1])
                    F[2] = rhs(t + ch[2], y + Z[2])
                    self.nfev += 3
                    if not np.isfinite(F).all():
                        break

                    f_real = F.T.dot(TI_REAL) - M_real * W[0]
                    f_complex = F.T.dot(TI_COMPLEX) - M_complex * (W[1] + 1j * W[2])
                    dW[0] = solve_lu(LU_real, f_real)
                    dW_complex = solve_lu(LU_complex, f_complex)
                    dW[1] = dW_complex.real
                    dW[2] = dW_complex.imag

                    dW_norm = _rms((dW / scale).ravel())
                    if dW_norm_old is not None:
                        rate = dW_norm / dW_norm_old
                        if rate >= 1 or rate ** (NEWTON_MAXITER - k) / (1 - rate) * dW_norm > tol:
                            break

                    W += dW
                    Z = _T.dot(W)

                    if dW_norm == 0 or rate is not None and rate / (1 - rate) * dW_norm < tol:
                        converged = True
                        break

                    dW_norm_old = dW_norm
                n_iter = k + 1

                if not converged:
                    if current_jac:
                        break
                    J = jac(t, y)
                    current_jac = True
                    LU_real = LU_complex = None

            if not converged:
                h_abs *= 0.5
                LU_real = LU_complex = None
                continue

            y_new = y + Z[-1]
            ZE = Z.T.dot(_E) / h
            error = solve_lu(LU_real, f + ZE)
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            error_norm = _rms(error / scale)
            safety = 0.9 * (2 * NEWTON_MAXITER + 1) / (2 * NEWTON_MAXITER + n_iter)

            if rejected and error_norm > 1:
                self.nfev += 1
                error = solve_lu(LU_real, rhs(t, y + error) + ZE)
                error_norm = _rms(error / scale)

            if not error_norm > 1:
                break
            h_abs *= max(MIN_FACTOR, safety * _step_factor(h_abs, h_abs_old,
                                                            error_norm, error_norm_old))
            LU_real = LU_complex = None
            rejected = True

        recompute_jac = n_iter > 2 and rate > 1e-3

        factor = min(MAX_FACTOR, safety * _step_factor(h_abs, h_abs_old,
                                                       error_norm, error_norm_old))
        if not recompute_jac and factor < 1.2:
            factor = 1
        else:
            LU_real = LU_complex = None

        self.nfev += 1
        f_new = rhs(t_new, y_new)
        if recompute_jac:
            J = jac(t_new, y_new)
        current_jac = recompute_jac

        self.h_abs_old = self.h_abs
        self.error_norm_old = error_norm
        self.h_abs = h_abs * factor
        self.y_old, self.t_old = y, t
        self.t, self.y, self.f = t_new, y_new, f_new
        self.LU_real, self.LU_complex = LU_real, LU_complex
        self.current_jac, self.J = current_jac, J
        self._Q = np.dot(Z.T, _P)
        return True, None


class _OdeSolution:
    """scipy's `OdeSolution` for increasing step points `ts`: a step point
    takes the earlier step's interpolant; sorted times make one call per step
    they fall in (this grouping sets the shape of each `dot`, so the last bits)."""

    def __init__(self, ts, interpolants):
        self.ts, self.interpolants = np.asarray(ts), interpolants

    def __call__(self, t):
        t = np.asarray(t)
        last = len(self.interpolants) - 1
        if t.ndim == 0:
            return self.interpolants[min(max(np.searchsorted(self.ts, t) - 1, 0), last)](t)
        order = np.argsort(t)
        t_sorted = t[order]
        segments = np.minimum(np.maximum(np.searchsorted(self.ts, t_sorted) - 1, 0), last)
        ys, start = [], 0
        for segment, group in itertools.groupby(segments):
            end = start + len(list(group))
            ys.append(self.interpolants[segment](t_sorted[start:end]))
            start = end
        return np.hstack(ys)[:, np.argsort(order)]


def _step_factor(h_abs, h_abs_old, error_norm, error_norm_old):
    """scipy's `predict_factor`, with error_norm = 0 (a factor of inf, which
    the caller caps) taken explicitly instead of under `np.errstate`."""
    if error_norm == 0:
        return np.inf
    if error_norm_old is None or h_abs_old is None:
        multiplier = 1
    else:
        multiplier = h_abs / h_abs_old * (error_norm_old / error_norm) ** 0.25
    return min(1, multiplier) * error_norm ** -0.25


def _radau(fun, jac, y0: np.ndarray, t_end: float, cfg: IntegratorConfig,
           where: str, grid: Optional[np.ndarray] = None, stop=None):
    """The package's one Radau driver: a run from t = 0 to t_end.

    `fun` and `jac` take (t, y).  With an output `grid` the dense
    interpolant is kept and the states on the grid are returned; without
    one only the endpoint state is.  Returns (t, y, dense, stats) with y
    clipped by `_clip_undershoot`; t is the grid up to the run's end, or
    the step points of an endpoint-only run.  A step-size collapse returns
    the partial solution with status -1 and the solver's message in the
    stats.  `stop(t, y)`, for endpoint-only runs, is a terminal event: the
    run ends in the first step over which it goes from <= 0 to >= 0, at
    the root of `stop` on that step's interpolant; the returned state is
    there and the status is 1.

    The loop is `solve_ivp`'s for scipy 1.17.1, keeping only what these
    runs use: one dense output per step in an `_OdeSolution`, the grid
    values taken from it (each from the step that `solve_ivp` would take
    it from), and the event root found by `_brentq`, scipy's `brentq`.  So
    every value, counter and message is the one `solve_ivp(method=Radau)`
    returns, without its per-step event and output-grid bookkeeping.
    """
    solver = _Radau(fun, 0.0, y0, float(t_end), rtol=cfg.rtol, atol=cfg.atol, jac=jac)
    ts, interpolants, y = [0.0], [], y0
    g = None if stop is None else stop(0.0, y0)
    status = None
    while status is None:
        message = solver.step()
        if solver.status == "failed":
            status = -1
            break
        if solver.status == "finished":
            status = 0
        t, y = solver.t, solver.y
        if grid is not None:
            interpolants.append(solver.dense_output())
        if stop is not None:
            g_new = stop(t, y)
            if g <= 0 <= g_new:
                sol = solver.dense_output()
                t = _brentq(lambda s: stop(s, sol(s)), solver.t_old, t, 4 * EPS, 4 * EPS)
                y = sol(t)
                status = 1
            g = g_new
        ts.append(t)
    stats = SolverStats(steps=len(ts) - 1, nfev=solver.nfev, njev=solver.njev,
                        nlu=solver.nlu, status=status,
                        message=MESSAGES.get(status, message).strip())
    if grid is None:
        return np.array(ts), _clip_undershoot(y, cfg.atol, where), None, stats
    dense = _OdeSolution(ts, interpolants)
    t = grid[grid <= ts[-1]]
    return t, _clip_undershoot(dense(t).T.copy(), cfg.atol, where), dense, stats


def _full_model(params: ParameterSet):
    """The full model's (t, y) right-hand side and Jacobian for `_radau`."""
    return (lambda t, y: floored_rhs(y, params),
            lambda t, y: jacobian_array(floor_state(y), params))


def integrate(y0: State, params: ParameterSet, config: IntegratorConfig | None = None) -> Trajectory:
    """Solve the full model from y0 over [0, t_end].

    Local error is controlled by (rtol, atol); populations are clipped
    at 0 only when the undershoot is below atol.  On step-size collapse
    a partial trajectory is returned with `complete=False` and the
    solver message in `stats`.
    """
    cfg = config or IntegratorConfig()
    if not isinstance(y0, State):
        y0 = State.from_array(0.0, np.asarray(y0, dtype=float))
    if not y0.T > 0.0:
        raise DomainError("initial state requires T > 0")
    fun, jac = _full_model(params)
    t, y, dense, stats = _radau(fun, jac, y0.array(), cfg.t_end, cfg,
                                "integrate", cfg.grid())
    return Trajectory(t=t, y=y, dense=dense, stats=stats,
                      complete=(stats.status == 0), atol=cfg.atol)


def evaluate_dense(traj: Trajectory, t: float) -> State:
    """State at any time inside the trajectory span (dense interpolant)."""
    return State.from_array(t, dense_states(traj, [t])[0])


def dense_states(traj: Trajectory, times) -> np.ndarray:
    """States (n, 4) at many times inside the span, from one interpolant call."""
    times = np.asarray(times, dtype=float)
    lo, hi = traj.span
    if not np.all((times >= lo) & (times <= hi)):
        raise ValueError(f"times outside trajectory span [{lo}, {hi}]")
    Z = np.asarray(traj.dense(times), dtype=float).T
    if traj.expand is not None:
        Z = traj.expand(Z)
    return _clip_undershoot(Z, traj.atol, "evaluate_dense")


# ---------------------------------------------------------------------------
# Attractor classification and the basin threshold

def stable_equilibria(params: ParameterSet) -> list[Equilibrium]:
    """All stable attracting points: the TFE (if stable) plus stable HTE."""
    out = []
    main, _ = tfe(params)
    if main.stable:
        out.append(main)
    out.extend(e for e in find_hte(params) if e.stable)
    return out


def classify_attractor(y: np.ndarray, targets: list[Equilibrium],
                       tol: Optional[float] = 1e-2,
                       mask=slice(None)) -> Optional[str]:
    """Nearest stable equilibrium by componentwise relative distance.

    Only the variables selected by `mask` (an index list or boolean mask
    over (T, N, L, C); default all four) are compared.  Returns the
    equilibrium kind when within `tol`, else None; with `tol=None` the
    nearest kind is returned however far it is.
    """
    best_kind, best_dist = None, np.inf
    for eq in targets:
        e = eq.y[mask]
        dist = float(np.max(np.abs(y[mask] - e) / np.maximum(1.0, np.abs(e))))
        if dist < best_dist:
            best_kind, best_dist = eq.kind, dist
    return best_kind if tol is None or best_dist < tol else None


#: The extinction region's floor on L/T and ceiling on T (cells), the escape
#: region's floor on T (cells, 1.3x the default saddle HTE's T* = 1.9e7) and
#: the headroom of its ceiling on L/T over the least that keeps it invariant.
_EXTINCTION_K = 1.0
_EXTINCTION_T = 5e3
_ESCAPE_T = 2.5e7
_ESCAPE_HEADROOM = 1.25
_WIDEN = 1e-9   # relative widening of the escape region's limit box


def _kill_factor(p: ParameterSet, ratio: float) -> float:
    """The kill factor D = d x/(s + x), x = (L/T)^l, at L/T = `ratio`."""
    return _saturation(1.0, ratio, p)[0]


def _extinction_region(p: ParameterSet, C0: float):
    """`inside(y)`, nonnegative exactly on a region E proven to lie in the
    TFE's basin for runs from a state with C = C0; None if E is not proven
    for these parameters.

    E = {T <= T_c, L >= K T, N <= N_b}, with K = `_EXTINCTION_K`,
    T_c = `_EXTINCTION_T`, C_b = max(C0, alpha/beta) and
    N_b = e C_b / (f - g) (f > g is required).  The derivation, along any
    run (all populations stay nonnegative, T > 0):

    - C. Cdot = alpha - beta C has the closed form
      C(t) = alpha/beta + (C0 - alpha/beta) e^(-beta t), so C <= C_b.
    - N. The recruitment saturation T^2/(h + T^2) is below 1 and pNT > 0,
      so Ndot < e C_b - (f - g) N, which is <= 0 at N = N_b.
    - T. The kill factor D = d x/(s + x), x = (L/T)^l, increases with L/T,
      so on L >= K T, D >= D(K) and Tdot/T = a(1 - bT) - cN - D <= a - D(K).
    - L >= K T. Dropping the nonnegative recruitment and priming terms,
      Ldot >= -L (m + qT + uNL).  On the face L = K T, uNL <= u N_b K T_c
      and qT <= q T_c, while K Tdot <= K T (a - D(K)), so
      d/dt (L - K T) >= K T [D(K) - a - m - q T_c - u N_b K T_c].

    So when the margin D(K) - (a + m + q T_c + u N_b K T_c) is positive,
    every face of E is crossed inward strictly and E is forward invariant
    (the comparison lemma, Khalil, Nonlinear Systems, 3rd ed., section 3.4,
    face by face).  Inside E, T <= T(t0) e^(-(D(K) - a)(t - t0)).  The
    (N, L, C) limit system with T = 0, Cdot = alpha - beta C,
    Ndot = eC - fN, Ldot = -mL - uNL^2, goes to (alpha e/(beta f), 0,
    alpha/beta); the terms that tie it to T (NK recruitment and
    inactivation, CD8+ recruitment jW/(k + W) with W = (DT)^2 <= (dT)^2,
    priming, inactivation) are bounded by constants times T and decay
    exponentially, so N and C follow their linear limits and L falls at
    rate m/2 or faster once jW/(k + W) < m/2.  Every run that enters E
    goes to the TFE.  With the default parameters the margin is 0.84/day
    (T_c up to about 1.1e4 keeps it positive).
    """
    if not p.f > p.g:
        return None
    K, T_c = _EXTINCTION_K, _EXTINCTION_T
    N_b = p.e * max(C0, p.alpha / p.beta) / (p.f - p.g)
    if not _kill_factor(p, K) - (p.a + p.m + p.q * T_c + p.u * N_b * K * T_c) > 0.0:
        return None

    def inside(y):
        T, N, L, _ = y.tolist()
        return min(T_c - T, L - K * T, N_b - N)

    return inside


def _escape_region(p: ParameterSet, C0: float, targets: list[Equilibrium]):
    """`inside(y)`, nonnegative exactly on a region H proven to lead every
    run from a state with C = C0 to a stable HTE that the classifier names;
    None if that is not proven for these parameters and targets.

    H = {T >= T_h, L <= K_h T, N <= N_h}, with T_h = `_ESCAPE_T`,
    C_b = max(C0, alpha/beta), N_h = e C_b / (f - g + p T_h) and
    K_h = `_ESCAPE_HEADROOM` (r1 N_h + r2 C_b) / (q T_h + m - j).  It needs
    q > a b and m > j.  The derivation, along any run that enters H:

    1. H is forward invariant (the comparison lemma, face by face, as in
       `_extinction_region`; C <= C_b throughout).
       - N = N_h: Ndot = eC - N (f - g T^2/(h + T^2) + pT)
         < e C_b - N_h (f - g + p T_h) = 0.
       - T = T_h: with D increasing in L/T, Tdot/T >= mu_T =
         a(1 - b T_h) - c N_h - D(K_h), which must be positive.
       - L = K_h T: Ldot <= L (j - m - qT) + (r1 N_h + r2 C_b) T, dropping
         -uNL^2 and bounding jW/(k + W) by j, and Tdot >= T (a(1 - bT)
         - c N_h - D(K_h)), so d/dt (L - K_h T) <= T [r1 N_h + r2 C_b
         - K_h ((q - ab) T + a + m - j - c N_h - D(K_h))].  The bracket
         grows with T (q > ab) and is at least q T_h + m - j + mu_T at
         T_h, so the choice of K_h makes this negative.
       The run stays bounded (T <= max(T(t0), 1/b) as Tdot <= aT(1 - bT)),
       so its omega-limit set W is nonempty, compact and invariant, and
       lies in C = C* = alpha/beta.
    2. W lies in a box B.  By the fluctuation lemma (Hirsch, Hanisch and
       Gabriel 1985) each variable reaches its limsup and its liminf
       along times where its derivative goes to 0.  Writing ^ and _ for
       limsup and liminf, with T^ <= 1/b and any lower bound t of T_
       (first t = T_h), the N, L and T equations at those times give
         N^ <= e C* / (f - g + p t),      N_ >= e C* / (f + p/b),
         L^ <= (r1 N^ + r2 C*) (1/b) / (m - j + q/b),
         T_ >= (1 - (c N^ + D(min(L^/t, K_h))) / a) / b,
         L_ >= (r1 N_ + r2 C*) t / (m + q t + u N^ L^),
       using that T/(m - j + qT) and T/(m + qT + const) grow with T.  The
       T line is a new lower bound t; six rounds of it make B =
       [t, 1/b] x [N_, N^] x [L_, L^], which `_WIDEN` widens against
       rounding.
    3. W is one point.  On B (with C = C*) each entry of the (T, N, L)
       Jacobian is bounded by monotone pieces: D in [D(L_ b), D(L^/t)],
       the saturation sigma in (0, 1], and the CD8+ recruitment
       derivative 2Vk/(k + V^2)^2 <= 2k/V^3 with V = DT >= D(L_ b) t.  The
       bounds form a Metzler matrix M (diagonal: upper bounds, off the
       diagonal: bounds of the magnitudes); w = -M^-1 1 > 0 with M w < 0
       shows that the matrix measure of the Jacobian in the weighted
       max-norm |x_i|/w_i is at most -c < 0 on B.  B is convex, so the
       runs from two points of W (which stay in W) draw together at the
       rate c; as W is invariant, any two of its points are the images
       after time s of two others, so their distance is at most
       e^(-cs) diam W for every s.  W is a single equilibrium, the only
       one in B, and the run converges to it.
    4. The classifier names every corner of B (with C = C*) HTE; its
       distance to a target is convex in the state and the TFE is far,
       so it names that equilibrium HTE too.

    With the default parameters: mu_T = 0.026/day, K_h = 0.142, and B
    spans 3e-4 of T* = 9.8e8 around the stable HTE.
    """
    C_s = p.alpha / p.beta
    T_h, T_hi = _ESCAPE_T, 1.0 / p.b
    if not (p.q > p.a * p.b and p.m > p.j and p.f - p.g + p.p * T_h > 0.0):
        return None
    C_b = max(C0, C_s)
    N_h = p.e * C_b / (p.f - p.g + p.p * T_h)
    K_h = _ESCAPE_HEADROOM * (p.r1 * N_h + p.r2 * C_b) / (p.q * T_h + p.m - p.j)
    if not p.a * (1.0 - p.b * T_h) - p.c * N_h - _kill_factor(p, K_h) > 0.0:
        return None

    t = T_h
    for _ in range(6):
        N_hi = p.e * C_s / (p.f - p.g + p.p * t)
        L_hi = (p.r1 * N_hi + p.r2 * C_s) * T_hi / (p.m - p.j + p.q * T_hi)
        t = max(t, (1.0 - (p.c * N_hi + _kill_factor(p, min(L_hi / t, K_h))) / p.a) / p.b)
    N_lo = p.e * C_s / (p.f + p.p * T_hi)
    L_lo = (p.r1 * N_lo + p.r2 * C_s) * t / (p.m + p.q * t + p.u * N_hi * L_hi)
    lo, hi = 1.0 - _WIDEN, 1.0 + _WIDEN
    t, T_hi, N_lo, N_hi, L_lo, L_hi = t * lo, T_hi * hi, N_lo * lo, N_hi * hi, L_lo * lo, L_hi * hi

    D_lo, D_hi = _kill_factor(p, L_lo / T_hi), _kill_factor(p, L_hi / t)
    if not (D_lo * t) ** 3 > 0.0:
        return None
    rec = 2.0 * p.k / (D_lo * t) ** 3          # bounds 2Vk/(k + V^2)^2
    dV_dL = p.l * D_hi * T_hi / L_lo           # bounds T dD/dL = l D sigma T/L
    M = np.array([
        [p.a * (1.0 - 2.0 * p.b * t) - p.c * N_lo + D_hi * max(p.l - 1.0, 0.0),
         p.c * T_hi, dV_dL],
        [N_hi * (2.0 * p.g * p.h * T_hi / (p.h + t * t) ** 2 + p.p),
         p.g - p.f - p.p * t, 0.0],
        [p.j * L_hi * rec * D_hi * max(1.0, p.l - 1.0)
         + max(abs(p.r1 * N_lo + p.r2 * C_s - p.q * L_hi),
               abs(p.r1 * N_hi + p.r2 * C_s - p.q * L_lo)),
         max(abs(p.r1 * t - p.u * L_hi ** 2), abs(p.r1 * T_hi - p.u * L_lo ** 2)),
         p.j - p.m + p.j * L_hi * rec * dV_dL - p.q * t],
    ])
    if not np.all(np.isfinite(M)):
        return None
    w = np.linalg.solve(M, -np.ones(3))
    if not (np.all(w > 0.0) and np.all(M @ w < 0.0)):
        return None
    corners = itertools.product((t, T_hi), (N_lo, N_hi), (L_lo, L_hi), (C_s,))
    if any(classify_attractor(np.array(c), targets) != "HTE" for c in corners):
        return None

    def inside(y):
        T, N, L, _ = y.tolist()
        return min(T - T_h, K_h * T - L, N_h - N)

    return inside


def _certificates(params: ParameterSet, C0: float, targets: list[Equilibrium]):
    """The region certificates that hold for these parameters, C0 and
    targets, as (label, rule, inside) triples."""
    out = []
    if any(eq.kind == "TFE" for eq in targets):
        out.append(("TFE", "extinction certificate", _extinction_region(params, C0)))
    if any(eq.kind == "HTE" for eq in targets):
        out.append(("HTE", "escape certificate", _escape_region(params, C0, targets)))
    return [c for c in out if c[2] is not None]


def _entered(certificates, y: np.ndarray) -> tuple[str, str]:
    """(label, rule) of the certificate whose region `y` lies deepest in;
    the regions are far apart, so at a stop that is the one entered."""
    label, rule, _ = max(certificates, key=lambda c: c[2](y))
    return label, rule


def settle_attractor(y0: State | np.ndarray, params: ParameterSet,
                     config: IntegratorConfig | None = None,
                     targets: Optional[list[Equilibrium]] = None) -> str:
    """Integrate until the run settles onto a stable equilibrium.

    The run stops as soon as it enters a region proven to lead to one of
    `targets` (`_extinction_region` for the TFE, `_escape_region` for the
    stable HTE) and takes that label; a state already in one takes no run
    at all.  Otherwise it is classified at t_end and, if undecided (C
    relaxes on the 1/beta ~ 80 day scale), after one extension of
    2x t_end; still undecided, it raises RuntimeError.  The deciding rule,
    the time since y0, the solver steps and the run's rtol are logged to
    the "ticsp" logger at DEBUG.
    """
    cfg = config or IntegratorConfig()
    if targets is None:
        targets = stable_equilibria(params)
    if not targets:
        raise RuntimeError("no stable equilibria to classify against")
    y = y0.array() if isinstance(y0, State) else np.asarray(y0, dtype=float)
    certificates = _certificates(params, float(y[3]), targets)
    stop = None
    if certificates:
        def stop(t, y):
            return max(inside(y) for _, _, inside in certificates)

        if stop(0.0, y) >= 0.0:
            return _settled(*_entered(certificates, y), 0.0, 0, cfg.rtol)
    fun, jac = _full_model(params)
    t0 = steps = 0
    for t_run, rule in ((cfg.t_end, "classifier at t_end"),
                        (2.0 * cfg.t_end, "classifier at 3*t_end")):
        t, y, _, stats = _radau(fun, jac, y, t_run, cfg, "settle", stop=stop)
        if stats.status < 0:
            raise IntegrationError(f"classification run failed: {stats.message}")
        steps += stats.steps
        if stats.status == 1:
            return _settled(*_entered(certificates, y), t0 + t[-1], steps, cfg.rtol)
        t0 += t_run
        label = classify_attractor(y, targets)
        if label is not None:
            return _settled(label, rule, t0, steps, cfg.rtol)
    raise RuntimeError(f"trajectory did not settle within 3x t_end; final {y}")


def _settled(label: str, rule: str, t: float, steps: int, rtol: float) -> str:
    """Log one settle decision at DEBUG and return its label."""
    if _LOGGER.isEnabledFor(logging.DEBUG):
        _LOGGER.debug("settle: %s by %s at t = %.6g d after %d solver steps, rtol %g",
                      label, rule, t, steps, rtol)
    return label


#: Relative tolerance of the scout bisection that finds the final cell.
_SCOUT_RTOL = 3e-5


def basin_threshold(N0: float, L0: float, C0: float, params: ParameterSet,
                    T_bracket: tuple[float, float],
                    config: IntegratorConfig | None = None) -> float:
    """Bisect the initial tumor burden separating the two basins.

    Returns the high side of a <= 1 cell bracket: re-simulating at the
    returned value reaches the high-tumor attractor; one cell below
    falls to the tumor-free side.  Each run is labelled by
    `settle_attractor`, so it stops where it enters a certified region
    (about 29 days near the boundary with the default parameters, on
    either side) instead of running 600 days; the regions are proven to
    lead to the attractor they name, so the labels are those of the
    classifier alone.

    The search assumes the basin boundary is monotone in T(0) at fixed
    immune initial conditions: every T(0) below it takes one label, every
    T(0) above it the other.  A scout bisection at rtol `_SCOUT_RTOL`
    (same atol, targets and certificates) finds the final cell
    (lo_f, hi_f), taking the TFE below and the HTE above the bracket
    without running its ends; only lo_f and hi_f are then run at the
    caller's tolerance.  If they settle to the TFE and the HTE,
    monotonicity gives both bracket ends and every midpoint of the plain
    bisection at the caller's tolerance the label the scout took, so that
    bisection takes the scout's path and ends in the same cell: hi_f is
    its result, bit for bit.  Otherwise (a scout run raises, the labels
    are not confirmed, or the caller's rtol is already at least
    `_SCOUT_RTOL`) the plain bisection runs at the caller's tolerance,
    ends included, reusing the two runs already made.  Scout labels only
    choose which runs to make; they never enter the result.  The cell,
    the run counts and the way it was decided are logged to the "ticsp"
    logger at DEBUG.

    Raises ValueError before any run for a negative or non-finite N0, L0
    or C0, for a bracket that is not 0 < low < high < inf and for
    parameters with fewer than two kinds of stable equilibrium (no
    bracket separates two basins); and, after the endpoint runs, for a
    bracket whose endpoints settle to the same attractor.
    """
    for name, value in (("N0", N0), ("L0", L0), ("C0", C0)):
        if not 0.0 <= value < np.inf:
            raise ValueError(f"{name} must be nonnegative and finite, got {value!r}")
    lo, hi = (float(v) for v in T_bracket)
    if not 0.0 < lo < hi < np.inf:
        raise ValueError(f"T_bracket must satisfy 0 < low < high < inf, got {T_bracket}")
    cfg = config or IntegratorConfig()
    targets = stable_equilibria(params)
    kinds = sorted({eq.kind for eq in targets})
    if len(kinds) < 2:
        found = f"the {kinds[0]}" if kinds else "none"
        raise ValueError(f"no bracket separates two basins: the only stable "
                         f"equilibrium of these parameters is {found}")
    scout_cfg = replace(cfg, rtol=_SCOUT_RTOL)
    scouted = 0
    full = {}   # label of each run at the caller's tolerance, by T0

    def scout(T0: float) -> str:
        nonlocal scouted
        scouted += 1
        return settle_attractor(np.array([T0, N0, L0, C0]), params, scout_cfg, targets)

    def run(T0: float) -> str:
        if T0 not in full:
            full[T0] = settle_attractor(np.array([T0, N0, L0, C0]), params, cfg, targets)
        return full[T0]

    confirmed = False
    if cfg.rtol < _SCOUT_RTOL:
        try:
            lo_f, hi_f = _bisect(scout, lo, hi, 1.0, ends=("TFE", "HTE"))
        except (RuntimeError, ValueError):
            pass
        else:
            confirmed = run(lo_f) == "TFE" and run(hi_f) == "HTE"
    if not confirmed:
        lo_f, hi_f = _bisect(run, lo, hi, 1.0)
    if _LOGGER.isEnabledFor(logging.DEBUG):
        _LOGGER.debug("threshold: cell (%r, %r] %s after %d scout runs and %d full runs",
                      lo_f, hi_f, "confirmed" if confirmed else "by plain bisection",
                      scouted, len(full))
    return hi_f


def _bisect(label: Callable[[float], object], lo: float, hi: float, width: float,
            ends: Optional[tuple] = None) -> tuple[float, float]:
    """Bisect (lo, hi) on the two-valued `label` down to a cell no wider
    than `width`; returns the final cell (lo_f, hi_f).  Each midpoint
    taking lo's label replaces lo, any other replaces hi.  `ends`, the
    labels of lo and hi, are taken as given and `label` is called only at
    midpoints; without them both ends are labelled first, and raise
    ValueError if they take the same label."""
    if ends is None:
        ends = label(lo), label(hi)
        if ends[0] == ends[1]:
            raise ValueError(
                f"bracket endpoints classify to the same attractor ({ends[0]}); "
                "widen the bracket"
            )
    while hi - lo > width:
        mid = 0.5 * (lo + hi)
        if label(mid) == ends[0]:
            lo = mid
        else:
            hi = mid
    return lo, hi
