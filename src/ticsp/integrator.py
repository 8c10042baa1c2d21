"""Stiff initial-value integration with dense output.

The model's timescales span five orders of magnitude, so integration
uses an implicit adaptive method (Radau IIA via scipy) with the analytic
Jacobian.  Output is reported on a grid mirroring the usual presentation
of these runs: log-spaced times up to day 5, linear spacing thereafter;
the continuous (dense) solution is kept for diagnostics at arbitrary
times, the stage boundaries among them.

Every run, full or reduced, dense or endpoint-only, goes through one
`solve_ivp` call site, `_radau`, with the solver class `_Radau`: scipy's
Radau with its LU factor and solve calling LAPACK directly.  Its steps,
counters and dense output are bit-identical to the stock solver's; on
these 4x4 systems scipy's per-call linear-algebra wrappers cost more
than the arithmetic, and they are what it drops.

Also provides the basin-of-attraction bisection on the initial tumor
burden: runs are classified by which stable equilibrium they settle to.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.integrate import Radau, solve_ivp
from scipy.linalg import LinAlgWarning, get_lapack_funcs

from .equilibria import Equilibrium, find_hte, tfe
from .kinetics import DomainError, State, floor_state, jacobian_array, rhs_array
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
    """scipy's Radau IIA with `lu` and `solve_lu` calling LAPACK getrf/getrs
    directly: the routines, arguments and checks (non-finite input, illegal
    argument, singular matrix) of `lu_factor(A, overwrite_a=True)` and
    `lu_solve(LU, b, overwrite_b=True)`, without their per-call batch
    dispatch and routine lookup."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.lu = self._lu
        self.solve_lu = self._solve_lu

    def _lu(self, A):
        self.nlu += 1
        A = np.asarray_chkfinite(A)
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
        b = np.asarray_chkfinite(b)
        getrs = _ZGETRS if lu.dtype.kind == "c" else _DGETRS  # b is of the same kind
        x, info = getrs(lu, piv, b, overwrite_b=True)
        if info != 0:
            raise ValueError(f"illegal value in {-info}th argument of internal getrs")
        return x


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
    return (lambda t, y: rhs_array(floor_state(y), params),
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
    T(0) at fixed immune initial conditions).
    """
    cfg = config or IntegratorConfig()
    targets = stable_equilibria(params)
    lo, hi = (float(v) for v in T_bracket)
    if not 0.0 < lo < hi:
        raise ValueError(f"invalid T bracket {T_bracket}")

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
