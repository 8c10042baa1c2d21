"""Constraint (slow-manifold) evaluation and reduced models.

Once the two fast dissipative modes are exhausted, the immune
populations are enslaved to the slow variables through two algebraic
constraints — NK-cell influx balancing tumor-driven inactivation, and
effector-cell recruitment balancing inactivation:

    N_hat = e C / (p T)          L_hat = r2 C T / (q T + m)

This module tracks how well full-model trajectories respect those
constraints (relative errors RE_N, RE_L), and builds the reduced
model: the leading-order system of two ODEs for (T, C) plus the two
algebraic equations above (10 effective parameters).
"""
from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Optional, Sequence

import numpy as np

from .csp import ExplosiveStage
from .equilibria import Equilibrium
from .integrator import IntegratorConfig, Trajectory, _radau, classify_attractor
from .kinetics import T_FLOOR, DomainError, _saturation
from .params import ParameterSet

__all__ = [
    "ConstraintErrorSeries", "EffectiveParameters", "ReducedComparison",
    "constraint_errors", "reduced_rhs_leading", "simulate_reduced",
    "compare_reduced",
]

_SLOW = [0, 3]  # the slow variables (T, C) in a (T, N, L, C) state


@dataclass(frozen=True)
class EffectiveParameters:
    """The 10 constants the leading-order reduced model references:
    7 for the (T, C) differential equations and 3 ratios for the
    algebraic immune-population equations."""

    a: float
    b: float
    d: float
    l: float
    s: float
    alpha: float
    beta: float
    e_over_p: float
    q_over_r2: float
    m_over_r2: float

    @classmethod
    def from_full(cls, p: ParameterSet) -> "EffectiveParameters":
        return cls(a=p.a, b=p.b, d=p.d, l=p.l, s=p.s, alpha=p.alpha,
                   beta=p.beta, e_over_p=p.e / p.p, q_over_r2=p.q / p.r2,
                   m_over_r2=p.m / p.r2)

    @property
    def count(self) -> int:
        return len(fields(self))


def _constraint_arrays(T, C, p: ParameterSet):
    """Vectorized N_hat, L_hat (no domain checks)."""
    N_hat = p.e * C / (p.p * T)
    L_hat = p.r2 * C * T / (p.q * T + p.m)
    return N_hat, L_hat


@dataclass(frozen=True)
class ConstraintErrorSeries:
    """Relative constraint errors along a full-model trajectory.

    RE_N = (N - N_hat)/N and RE_L = (L - L_hat)/L at every output grid
    time (NaN where a population is zero).  When the trajectory has an
    explosive stage, summary statistics cover the window
    t/t_exp in [0.2, 0.95].
    """

    t: np.ndarray
    re_n: np.ndarray
    re_l: np.ndarray
    t_exp: Optional[float]
    window: Optional[tuple[float, float]]
    max_re_n: Optional[float] = None
    max_re_l: Optional[float] = None
    mean_re_n: Optional[float] = None
    mean_re_l: Optional[float] = None


def constraint_errors(traj: Trajectory, p: ParameterSet,
                      stage: Optional[ExplosiveStage]) -> ConstraintErrorSeries:
    """Constraint errors on the output grid, summarized over the window of
    the trajectory's explosive stage (`csp.explosive_stage`; None: no
    window)."""
    T, N, L, C = (traj.y[:, i] for i in range(4))
    with np.errstate(divide="ignore", invalid="ignore"):
        N_hat, L_hat = _constraint_arrays(np.where(T > 0, T, np.nan), C, p)
        re_n = (N - N_hat) / np.where(N > 0, N, np.nan)
        re_l = (L - L_hat) / np.where(L > 0, L, np.nan)

    if stage is None:
        return ConstraintErrorSeries(t=traj.t, re_n=re_n, re_l=re_l,
                                     t_exp=None, window=None)
    lo, hi = 0.2 * stage.end, 0.95 * stage.end
    sel = (traj.t >= lo) & (traj.t <= hi) & np.isfinite(re_n) & np.isfinite(re_l)
    if not np.any(sel):
        return ConstraintErrorSeries(t=traj.t, re_n=re_n, re_l=re_l,
                                     t_exp=stage.end, window=(lo, hi))
    return ConstraintErrorSeries(
        t=traj.t, re_n=re_n, re_l=re_l, t_exp=stage.end, window=(lo, hi),
        max_re_n=float(np.max(np.abs(re_n[sel]))),
        max_re_l=float(np.max(np.abs(re_l[sel]))),
        mean_re_n=float(np.mean(np.abs(re_n[sel]))),
        mean_re_l=float(np.mean(np.abs(re_l[sel]))),
    )


# ---------------------------------------------------------------------------
# Reduced right-hand side

def _reduced_saturation(T: float, C: float, p: ParameterSet):
    """Tumor-lysis saturation (D, phi, sigma) at the constraint value of L."""
    return _saturation(T, _constraint_arrays(T, C, p)[1], p)


def reduced_rhs_leading(T: float, C: float, p: ParameterSet) -> tuple[float, float]:
    """Leading-order reduced model: logistic growth minus saturated lysis
    for the tumor, and the decoupled lymphocyte-pool relaxation."""
    if not (T > 0.0 and C > 0.0):
        raise DomainError(f"reduced model requires T, C > 0, got ({T!r}, {C!r})")
    D, _, _ = _reduced_saturation(T, C, p)
    return p.a * T * (1.0 - p.b * T) - D * T, p.alpha - p.beta * C


# ---------------------------------------------------------------------------
# Reduced-model simulation

def _floor_tc(z: np.ndarray) -> list[float]:
    """A solver probe (T, C) raised to at least `T_FLOOR` in both; NaN stays NaN."""
    return np.maximum(z, T_FLOOR).tolist()


def _reduced_jac_arr(z: np.ndarray, p: ParameterSet) -> np.ndarray:
    T, C = _floor_tc(z)
    D, _, sigma = _reduced_saturation(T, C, p)
    qT_m = p.q * T + p.m
    # x = L_hat/T = r2*C/(q*T + m);  dD/dx = l*D*sigma/x
    dD_dT = -p.l * D * sigma * p.q / qT_m          # (l D sigma / x) * dx/dT
    dD_dC = p.l * D * sigma / C                    # (l D sigma / x) * dx/dC
    j11 = p.a * (1.0 - 2.0 * p.b * T) - D - T * dD_dT
    j12 = -T * dD_dC
    return np.array([[j11, j12], [0.0, -p.beta]])


def _expand_factory(p: ParameterSet):
    ep, Q, Mr = p.e / p.p, p.q / p.r2, p.m / p.r2

    def expand(z: np.ndarray) -> np.ndarray:
        T = max(float(z[0]), 0.0)
        C = max(float(z[1]), 0.0)
        T_safe = T if T > 0.0 else T_FLOOR
        return np.array([T, ep * C / T_safe, C * T / (Q * T + Mr), C])

    return expand


def simulate_reduced(T0: float, C0: float, p: ParameterSet,
                     config: IntegratorConfig | None = None) -> Trajectory:
    """Integrate the leading-order (T, C) system and reconstruct N, L.

    The returned trajectory carries full 4-vectors on the grid (immune
    populations from the constraints at every output time), a dense
    interpolant over (T, C) with the expansion hook, and the
    10-constant effective parameter set in `effective`.
    """
    cfg = config or IntegratorConfig()
    if not (T0 > 0.0 and C0 > 0.0):
        raise DomainError(f"reduced model requires T0, C0 > 0, got ({T0!r}, {C0!r})")

    t, z, dense, stats = _radau(
        lambda t, z: np.array(reduced_rhs_leading(*_floor_tc(z), p)),
        lambda t, z: _reduced_jac_arr(z, p),
        np.array([float(T0), float(C0)]), cfg.t_end, cfg, "simulate_reduced", cfg.grid())
    expand = _expand_factory(p)
    y = np.array([expand(row) for row in z])
    return Trajectory(
        model="reduced-leading", params=p, t=t, y=y,
        dense=dense, stats=stats, complete=(stats.status == 0),
        atol=cfg.atol, expand=expand,
        effective=EffectiveParameters.from_full(p),
    )


# ---------------------------------------------------------------------------
# Full vs reduced comparison

@dataclass(frozen=True)
class ReducedComparison:
    """Relative-error report of a reduced run against the full model."""

    t: np.ndarray
    rel_err: np.ndarray              # (n, 4) per-variable relative errors
    window: Optional[tuple[float, float]]
    max_err: Optional[np.ndarray]    # (4,) over window
    mean_err: Optional[np.ndarray]   # (4,) over window
    full_attractor: Optional[str]
    reduced_attractor: Optional[str]

    @property
    def attractor_agreement(self) -> bool:
        return (self.full_attractor is not None
                and self.full_attractor == self.reduced_attractor)


def compare_reduced(full: Trajectory, red: Trajectory,
                    stage: Optional[ExplosiveStage],
                    targets: Sequence[Equilibrium]) -> ReducedComparison:
    """Per-variable relative errors of the reduced run, summarized over the
    window of `stage`, the full trajectory's explosive stage (None: no
    window).  Both final states are labelled by the nearest of `targets`,
    the stable equilibria, judged on the slow variables (T, C) only: the
    reconstructed immune populations diverge at the tumor-free state."""
    lo = max(full.t[0], red.t[0])
    hi = min(full.t[-1], red.t[-1])
    sel = (full.t >= lo) & (full.t <= hi)
    t = full.t[sel]
    yf = full.y[sel]
    if red.t.shape == full.t.shape and np.array_equal(red.t, full.t):
        yr = red.y[sel]
    else:
        yr = np.array([red.expand(red.dense(tt)) if red.expand is not None
                       else red.dense(tt) for tt in t])
    rel = np.abs(yr - yf) / np.maximum(np.abs(yf), 1.0)

    window = max_err = mean_err = None
    if stage is not None:
        wlo, whi = 0.2 * stage.end, 0.95 * stage.end
        wsel = (t >= wlo) & (t <= whi)
        if np.any(wsel):
            window = (wlo, whi)
            max_err = rel[wsel].max(axis=0)
            mean_err = rel[wsel].mean(axis=0)

    return ReducedComparison(
        t=t, rel_err=rel, window=window, max_err=max_err, mean_err=mean_err,
        full_attractor=classify_attractor(full.final, targets, tol=None, mask=_SLOW),
        reduced_attractor=classify_attractor(red.final, targets, tol=None, mask=_SLOW),
    )
