"""Stiff initial-value integration with dense output.

The model's timescales span five orders of magnitude, so integration
uses an implicit adaptive method (Radau IIA via scipy) with the analytic
Jacobian.  Output is reported on a grid mirroring the usual presentation
of these runs: log-spaced times up to day 5, linear spacing thereafter;
the continuous (dense) solution is kept for diagnostics at arbitrary
times, the stage boundaries among them.

Every run, full or reduced, dense or endpoint-only, goes through one
`solve_ivp` call site, `_radau`, with the solver class `_Radau`: a lean
copy of scipy 1.17.1's Radau step, with LU factor and solve calling
LAPACK directly.  On these 4x4 systems scipy's per-call wrappers cost
more than the arithmetic, and they are what it drops; it keeps every
floating-point operation and its order, so steps, counters and dense
output stay bit-identical to the stock solver's, which the tests use as
the oracle.  The full model's right-hand side is one kinetics call,
`floored_rhs`.

Also provides the basin-of-attraction bisection on the initial tumor
burden: runs are classified by which stable equilibrium they settle to.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.integrate import Radau, solve_ivp
from scipy.integrate._ivp.radau import (
    MAX_FACTOR, MIN_FACTOR, MU_COMPLEX, MU_REAL, NEWTON_MAXITER, TI_COMPLEX, TI_REAL,
    RadauDenseOutput,
)
from scipy.integrate._ivp.radau import C as _C, E as _E, P as _P, T as _T, TI as _TI
from scipy.linalg import LinAlgWarning, get_lapack_funcs

from .equilibria import Equilibrium, find_hte, tfe
from .kinetics import DomainError, State, floor_state, floored_rhs, jacobian_array
from .params import ParameterSet

__all__ = [
    "IntegratorConfig", "SolverStats", "Trajectory", "IntegrationError",
    "integrate", "evaluate_dense", "dense_states", "basin_threshold",
    "stable_equilibria", "classify_attractor", "settle_attractor",
]

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

    For reduced models `y` always holds the full reconstructed 4-vector
    per grid time while `dense` interpolates the model's own (smaller)
    state; `expand` maps a dense vector to the full 4-vector.
    """

    model: str                  # "full" | "reduced-leading"
    params: ParameterSet
    t: np.ndarray               # (n,)
    y: np.ndarray               # (n, 4)
    dense: object               # scipy OdeSolution
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

    def state(self, i: int) -> State:
        return State.from_array(self.t[i], self.y[i])

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


# LAPACK's LU factor and solve for the real and the complex Radau IIA
# iteration matrices, resolved once instead of on every call.
_DGETRF, _DGETRS = get_lapack_funcs(("getrf", "getrs"), dtype=np.float64)
_ZGETRF, _ZGETRS = get_lapack_funcs(("getrf", "getrs"), dtype=np.complex128)


class _Radau(Radau):
    """scipy 1.17.1's Radau IIA with a lean step and direct LAPACK calls.

    `_step_impl` is a copy of scipy's `Radau._step_impl` with
    `solve_collocation_system`, `predict_factor`, the RMS `norm` and the
    previous step's dense-output call written inline.  It performs the same
    floating-point operations in the same order, on arrays of the same
    memory layout: every product stays a numpy/BLAS `dot`, whose summation
    order sets the last bits, the RMS norm is `sqrt(v.dot(v)) / v.size**0.5`
    as `np.linalg.norm` computes it for a real array, and the Z0 predictor
    takes the powers x, x*x, (x*x)*x in `cumprod`'s order.  So steps,
    counters and dense values stay bit-identical to the stock solver's.
    What it drops is per-call overhead: the RHS wrappers (it calls the raw
    `fun` and counts `nfev` itself; `fun` must return a float array of
    shape (n,)), the dense-output object on every step (it is built only
    when asked for), `np.errstate` and the wrappers around `lu_factor` and
    `lu_solve`.  `lu` and `solve_lu` call LAPACK getrf/getrs with the
    routines, arguments and checks (non-finite input, illegal argument,
    singular matrix) of `lu_factor(A, overwrite_a=True)` and
    `lu_solve(LU, b, overwrite_b=True)`.  Forward integration only.
    """

    def __init__(self, fun, t0, y0, t_bound, **kwargs):
        super().__init__(fun, t0, y0, t_bound, **kwargs)
        if self.direction != 1:
            raise ValueError("_Radau integrates forward in time only")
        self._rhs = fun
        self._Q = None          # previous step's dense-output coefficients
        self.lu = self._lu
        self.solve_lu = self._solve_lu

    def _lu(self, A):
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
    def _solve_lu(LU, b):
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
        root_n, root_3n = n ** 0.5, (3 * n) ** 0.5     # RMS norm divisors

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

                    v = (dW / scale).ravel()
                    dW_norm = np.sqrt(v.dot(v)) / root_3n
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
                    J = jac(t, y, f)
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
            v = error / scale
            error_norm = np.sqrt(v.dot(v)) / root_n
            safety = 0.9 * (2 * NEWTON_MAXITER + 1) / (2 * NEWTON_MAXITER + n_iter)

            if rejected and error_norm > 1:
                self.nfev += 1
                error = solve_lu(LU_real, rhs(t, y + error) + ZE)
                v = error / scale
                error_norm = np.sqrt(v.dot(v)) / root_n

            if not error_norm > 1:
                break
            h_abs *= max(MIN_FACTOR, safety * _step_factor(h_abs, h_abs_old,
                                                            error_norm, error_norm_old))
            LU_real = LU_complex = None
            rejected = True

        recompute_jac = jac is not None and n_iter > 2 and rate > 1e-3

        factor = min(MAX_FACTOR, safety * _step_factor(h_abs, h_abs_old,
                                                       error_norm, error_norm_old))
        if not recompute_jac and factor < 1.2:
            factor = 1
        else:
            LU_real = LU_complex = None

        self.nfev += 1
        f_new = rhs(t_new, y_new)
        if recompute_jac:
            J = jac(t_new, y_new, f_new)
            current_jac = True
        elif jac is not None:
            current_jac = False

        self.h_abs_old = self.h_abs
        self.error_norm_old = error_norm
        self.h_abs = h_abs * factor
        self.y_old = y
        self.t, self.y, self.f = t_new, y_new, f_new
        self.LU_real, self.LU_complex = LU_real, LU_complex
        self.current_jac, self.J = current_jac, J
        self.t_old = t
        self._Q = np.dot(Z.T, _P)
        return True, None

    def _dense_output_impl(self):
        return RadauDenseOutput(self.t_old, self.t, self.y_old, self._Q)


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
           where: str, grid: Optional[np.ndarray] = None):
    """The package's one Radau run, from t = 0 to t_end.

    `fun` and `jac` take (t, y).  With an output `grid` the dense
    interpolant is kept and the states on the grid are returned; without
    one only the endpoint state is.  Returns (t, y, dense, stats) with y
    clipped by `_clip_undershoot`.  A step-size collapse returns the
    partial solution with status -1 in the stats.
    """
    sol = solve_ivp(fun, (0.0, t_end), y0, method=_Radau, jac=jac,
                    rtol=cfg.rtol, atol=cfg.atol,
                    dense_output=grid is not None, t_eval=grid)
    if sol.status not in (0, -1):
        raise IntegrationError(f"unexpected solver status {sol.status}: {sol.message}")
    y = sol.y.T.copy() if grid is not None else sol.y[:, -1].copy()
    stats = SolverStats(
        steps=max(len(sol.sol.ts) - 1, 0) if sol.sol is not None else 0,
        nfev=sol.nfev, njev=sol.njev, nlu=sol.nlu,
        status=sol.status, message=sol.message.strip(),
    )
    return sol.t, _clip_undershoot(y, cfg.atol, where), sol.sol, stats


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
    return Trajectory(
        model="full", params=params, t=t, y=y,
        dense=dense, stats=stats, complete=(stats.status == 0), atol=cfg.atol,
    )


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
        Z = np.array([traj.expand(z) for z in Z])
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


def _final_state(y0: np.ndarray, t_end: float, params: ParameterSet,
                 cfg: IntegratorConfig) -> np.ndarray:
    """Endpoint-only integration (no dense output), for classification runs."""
    fun, jac = _full_model(params)
    _, y, _, stats = _radau(fun, jac, y0, t_end, cfg, "settle")
    if stats.status != 0:
        raise IntegrationError(f"classification run failed: {stats.message}")
    return y


def settle_attractor(y0: State | np.ndarray, params: ParameterSet,
                     config: IntegratorConfig | None = None,
                     targets: Optional[list[Equilibrium]] = None) -> str:
    """Integrate until the run settles onto a stable equilibrium.

    Classifies at t_end; if undecided (the slow lymphocyte pool relaxes
    on the 1/beta ~ 80 day scale), extends once by 2x t_end.
    """
    cfg = config or IntegratorConfig()
    if targets is None:
        targets = stable_equilibria(params)
    if not targets:
        raise RuntimeError("no stable equilibria to classify against")
    y = y0.array() if isinstance(y0, State) else np.asarray(y0, dtype=float)
    y = _final_state(y, cfg.t_end, params, cfg)
    label = classify_attractor(y, targets)
    if label is None:
        y = _final_state(y, 2.0 * cfg.t_end, params, cfg)
        label = classify_attractor(y, targets)
    if label is None:
        raise RuntimeError(f"trajectory did not settle within 3x t_end; final {y}")
    return label


def basin_threshold(N0: float, L0: float, C0: float, params: ParameterSet,
                    T_bracket: tuple[float, float],
                    config: IntegratorConfig | None = None) -> float:
    """Bisect the initial tumor burden separating the two basins.

    Returns the high side of a <= 1 cell bracket: re-simulating at the
    returned value reaches the high-tumor attractor; one cell below
    falls to the tumor-free side (the basin boundary is monotone in
    T(0) at fixed immune initial conditions).  Raises ValueError before
    any run for a negative or non-finite N0, L0 or C0 and for a bracket
    that is not 0 < low < high < inf.
    """
    for name, value in (("N0", N0), ("L0", L0), ("C0", C0)):
        if not 0.0 <= value < np.inf:
            raise ValueError(f"{name} must be nonnegative and finite, got {value!r}")
    lo, hi = (float(v) for v in T_bracket)
    if not 0.0 < lo < hi < np.inf:
        raise ValueError(f"T_bracket must satisfy 0 < low < high < inf, got {T_bracket}")
    cfg = config or IntegratorConfig()
    targets = stable_equilibria(params)

    def run(T0: float) -> str:
        return settle_attractor(np.array([T0, N0, L0, C0]), params, cfg, targets)

    lab_lo, lab_hi = run(lo), run(hi)
    if lab_lo == lab_hi:
        raise ValueError(
            f"bracket endpoints classify to the same attractor ({lab_lo}); "
            "widen the bracket"
        )
    while hi - lo > 1.0:
        mid = 0.5 * (lo + hi)
        if run(mid) == lab_lo:
            lo = mid
        else:
            hi = mid
    return hi
