"""Stiff initial-value integration with dense output.

The model's timescales span five orders of magnitude, so integration
uses an implicit adaptive method (Radau IIA of order 5) with the analytic
Jacobian.  Output is reported on a grid mirroring the usual presentation
of these runs: log-spaced times up to day 5, linear spacing thereafter;
the continuous (dense) solution is kept for diagnostics at arbitrary
times, the stage boundaries among them.

Every run, full or reduced, dense or endpoint-only, goes through one
Radau driver, `_radau`: a loop over the steps of the solver class
`radau._Radau`, with `solve_ivp`'s dense-output, output-grid and
terminal-event semantics and none of its per-step bookkeeping.  The solver,
its dense output and the event root finder are lean copies of scipy
1.17.1's Radau, `OdeSolution` and `brentq`, so no command imports scipy;
driver and step keep every floating-point operation and its order, so
steps, counters and dense output stay bit-identical to the stock
`solve_ivp(method=Radau)`, which the tests use as the oracle.  The full
model's right-hand side is one kinetics call, `floored_rhs`.

Also provides the basin-of-attraction bisection on the initial tumor
burden: runs are classified by which stable equilibrium they settle to,
and a run stops as soon as it enters a region proven to lead to one of
them (`_extinction_region`, `_escape_region`).  A scout search at a
loose tolerance finds the final cell of the bisection: the time each run
takes to enter a region grows with the log of its distance to the
boundary, so the runs' entry times predict where the cell lies.  Runs at
the caller's tolerance at its ends usually decide every label of the plain
bisection at that tolerance, whose cell is the result.
"""
from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .equilibria import Equilibrium, _brentq, find_hte, tfe
from .kinetics import (
    DomainError, State, _saturation, floor_state, floored_rhs, jacobian_array,
)
from .params import ParameterSet
from .radau import EPS, MESSAGES, LinAlgWarning, _OdeSolution, _Radau

__all__ = [
    "IntegratorConfig", "SolverStats", "Trajectory", "IntegrationError",
    "integrate", "evaluate_dense", "dense_states", "basin_threshold",
    "stable_equilibria", "classify_attractor", "settle_attractor", "LinAlgWarning",
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
    return _equilibria(params)[0]


def _equilibria(params: ParameterSet) -> tuple[list[Equilibrium], list[Equilibrium]]:
    """`stable_equilibria` and the unstable HTEs, from one `find_hte` call."""
    main = tfe(params)
    htes = find_hte(params)
    return (([main] if main.stable else []) + [e for e in htes if e.stable],
            [e for e in htes if not e.stable])


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
    return _settle(y, params, cfg, targets, _certificates(params, float(y[3]), targets))[0]


def _settle(y: np.ndarray, params: ParameterSet, cfg: IntegratorConfig,
            targets: list[Equilibrium], certificates) -> tuple[str, Optional[float]]:
    """`settle_attractor`'s run from the state `y`, with its `targets` and
    their `_certificates` given: (label, tau), where tau is the time at which
    the run entered a certified region (0 for a start inside one) and None
    when the classifier decided."""
    stop = None
    if certificates:
        def stop(t, y):
            return max(inside(y) for _, _, inside in certificates)

        if stop(0.0, y) >= 0.0:
            return _settled(*_entered(certificates, y), 0.0, 0, cfg.rtol), 0.0
    fun, jac = _full_model(params)
    t0 = steps = 0
    for t_run, rule in ((cfg.t_end, "classifier at t_end"),
                        (2.0 * cfg.t_end, "classifier at 3*t_end")):
        t, y, _, stats = _radau(fun, jac, y, t_run, cfg, "settle", stop=stop)
        if stats.status < 0:
            raise IntegrationError(f"classification run failed: {stats.message}")
        steps += stats.steps
        if stats.status == 1:
            tau = t0 + float(t[-1])
            return _settled(*_entered(certificates, y), tau, steps, cfg.rtol), tau
        t0 += t_run
        label = classify_attractor(y, targets)
        if label is not None:
            return _settled(label, rule, t0, steps, cfg.rtol), None
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
    `settle_attractor`'s core, so it stops where it enters a certified
    region (about 29 days near the boundary with the default parameters,
    on either side) instead of running 600 days; the regions are proven to
    lead to the attractor they name, so the labels are those of the
    classifier alone.  The targets and certificates are built once, C0
    being the same for every run.

    The search assumes the basin boundary is monotone in T(0) at fixed
    immune initial conditions: every T(0) below it takes one label, every
    T(0) above it the other.  So a run at the caller's tolerance decides
    every T0 at or below the highest TFE run and at or above the lowest
    HTE run.  The result is the plain bisection at the caller's tolerance,
    ends included, whose labels make a run only where the runs so far do
    not decide them.  A scout search at rtol `_SCOUT_RTOL` (same atol,
    targets and certificates) picks the runs made first: it finds the
    final cell of the scout bisection, taking the TFE below and the HTE
    above the bracket without running its ends (`_scout_cell`: the runs'
    entry times predict the boundary, so about 7 runs replace 13 on a
    2**13-cell bracket).  The cell's ends are run, and, if both settle to
    one side, the far end of the neighbouring leaf of the bisection tree,
    as the boundary at the caller's tolerance usually lies just past the
    cell.  Once a TFE and an HTE run bound a leaf, the bisection makes no
    run.  Scout labels only choose which runs to make; they never enter
    the result.  Without a scout cell (a scout run raises, or the caller's
    rtol is at least `_SCOUT_RTOL`) the bisection makes all its runs.  The
    cell, the scout cell, the run counts, whether the bisection made a run
    ("by plain bisection") or not ("confirmed") and any neighbour step are
    logged to the "ticsp" logger at DEBUG.

    Raises ValueError before any run for a negative or non-finite N0, L0
    or C0, for a bracket that is not 0 < low < high < inf and for
    parameters with fewer than two kinds of stable equilibrium (no
    bracket separates two basins); and, once its ends are labelled, for a
    bracket whose ends take the same label.
    """
    for name, value in (("N0", N0), ("L0", L0), ("C0", C0)):
        if not 0.0 <= value < np.inf:
            raise ValueError(f"{name} must be nonnegative and finite, got {value!r}")
    lo, hi = (float(v) for v in T_bracket)
    if not 0.0 < lo < hi < np.inf:
        raise ValueError(f"T_bracket must satisfy 0 < low < high < inf, got {T_bracket}")
    cfg = config or IntegratorConfig()
    targets, saddles = _equilibria(params)
    kinds = sorted({eq.kind for eq in targets})
    if len(kinds) < 2:
        found = f"the {kinds[0]}" if kinds else "none"
        raise ValueError(f"no bracket separates two basins: the only stable "
                         f"equilibrium of these parameters is {found}")
    certificates = _certificates(params, C0, targets)
    rate = float(saddles[0].eigenvalues.real.max()) if len(saddles) == 1 else None
    scout_cfg = replace(cfg, rtol=_SCOUT_RTOL)
    scouted = [0, 0]    # scout runs at midpoints, and where the prediction led
    bound = {"TFE": -np.inf, "HTE": np.inf}    # the highest TFE and lowest HTE full run
    runs = 0                                    # full runs made

    def settle(T0: float, run_cfg: IntegratorConfig) -> tuple[str, Optional[float]]:
        return _settle(np.array([T0, N0, L0, C0]), params, run_cfg, targets, certificates)

    def scout(T0: float, predicted: bool) -> tuple[str, Optional[float]]:
        scouted[predicted] += 1
        return settle(T0, scout_cfg)

    def label(T0: float) -> str:
        nonlocal runs
        if bound["TFE"] < T0 < bound["HTE"]:
            runs += 1
            bound[settle(T0, cfg)[0]] = T0
        return "TFE" if T0 <= bound["TFE"] else "HTE"

    neighbour = False
    cell = None
    if cfg.rtol < _SCOUT_RTOL:
        try:
            cell = _scout_cell(scout, lo, hi, rate)
        except (RuntimeError, ValueError):
            pass
        else:
            a, b = cell
            if lo < a and label(a) == "HTE":
                neighbour = True
                label(_bisect(lambda m: m < a, lo, hi, 1.0, ends=(True, False))[0])
            elif b < hi and label(a) == "TFE" and label(b) == "TFE":
                neighbour = True
                label(_bisect(lambda m: m <= b, lo, hi, 1.0, ends=(True, False))[1])
    before = runs
    lo_f, hi_f = _bisect(label, lo, hi, 1.0)
    if _LOGGER.isEnabledFor(logging.DEBUG):
        _LOGGER.debug("threshold: cell (%r, %r] %s after %d scout runs (%d predicted, "
                      "%d midpoints) and %d full runs; scout cell %s, %s",
                      lo_f, hi_f, "confirmed" if runs == before else "by plain bisection",
                      sum(scouted), scouted[1], scouted[0], runs,
                      "none" if cell is None else "(%r, %r]" % cell,
                      "neighbour step" if neighbour else "no neighbour step")
    return hi_f


def _scout_cell(scout: Callable[[float, bool], tuple[str, Optional[float]]],
                lo: float, hi: float, rate: Optional[float]) -> tuple[float, float]:
    """The final cell of the scout bisection of (lo, hi), with the TFE
    below and the HTE above, from fewer runs than the bisection makes.

    `scout(T0, predicted)` makes one run and returns its label and entry
    time (`_settle`).  By monotonicity, each run decides every T0 at or
    below the highest TFE run and at or above the lowest HTE run.  Each
    round `_bisect` walks the bisection tree down while those runs decide
    the midpoint, and stops at the cell whose midpoint is undecided.  There
    the log law predicts the boundary (`_predict`), `_bisect` finds the
    leaf of the tree that holds the prediction, and the next run is at the
    undecided end of that leaf nearest the prediction.  With no
    prediction, or no undecided end, it is at the midpoint.  The final
    cell needs a run at each of its ends, so a leaf end beats any other
    point once the prediction is good to a cell.

    A midpoint run always lets the walk descend a level.  A predicted run
    that does not is a miss; after log2(hi - lo) misses every run is a
    midpoint, so no bracket takes more than twice the bisection's runs.  A
    miss still lands near the boundary and sharpens the next prediction,
    which is why a miss does not end the predictions at once.

    While no run has crossed to a bracket end's label, a prediction past
    that end runs the end (once): a bracket that does not hold the boundary
    then fails after a few runs.  The search raises ValueError if the end
    does not take the label assumed for it.
    """
    runs = {}                   # (label, entry time) of each run, by T0
    tfe, hte = lo, hi           # the highest TFE and the lowest HTE run so far
    last, misses = None, 0

    def decided(T0: float) -> Optional[str]:
        return "TFE" if T0 <= tfe else "HTE" if T0 >= hte else None

    while True:
        cell = _bisect(decided, lo, hi, 1.0, ends=("TFE", "HTE"))
        if cell[1] - cell[0] <= 1.0:
            return cell
        misses += cell == last
        guess = _predict(runs, rate) if misses < math.log2(hi - lo) else None
        last = cell
        T0 = mid = 0.5 * (cell[0] + cell[1])
        if guess is None:
            pass
        elif guess >= hi == hte and hi not in runs:
            T0 = hi
        elif guess <= lo == tfe and lo not in runs:
            T0 = lo
        else:
            leaf = _bisect(lambda m: m < guess, *cell, 1.0, ends=(True, False))
            ends = [e for e in leaf if decided(e) is None]
            if ends:
                T0 = min(ends, key=lambda e: abs(e - guess))
        label, tau = runs[T0] = scout(T0, T0 != mid)
        if T0 in (lo, hi) and label != decided(T0):
            raise ValueError(f"the scout run at the bracket end {T0!r} settles to the {label}")
        if label == "TFE":
            tfe = T0
        else:
            hte = T0


def _predict(runs: dict, rate: Optional[float]) -> Optional[float]:
    """The boundary θ predicted by the log law of the entry times, or None.

    A run from T0 near θ follows the saddle HTE's unstable manifold for a
    time that grows as ln|T0 - θ| shrinks: ln|T0 - θ| = c - λ tau, with
    tau the time the run enters a certified region (edge tracking; Skufca,
    Yorke and Eckhardt, Phys. Rev. Lett. 96 (2006) 174101).  On each side
    the runs that a certificate decided with tau > 0 are taken nearest the
    boundary first; tau must grow toward it.  Three runs fit λ, c and θ;
    two, or three that no λ in [1e-3, 10] per day fits, take λ = `rate`,
    the saddle's unstable eigenvalue (0.702 per day with the default
    parameters), for the nearest two.  The side whose nearest run entered
    latest, so lies closest to θ, gives the prediction.
    """
    guesses = []
    for label, sign in (("TFE", -1.0), ("HTE", 1.0)):
        side = sorted(((T0, tau) for T0, (got, tau) in runs.items() if got == label and tau),
                      key=lambda run: sign * run[0])[:3]
        if len(side) < 2 or any(a[1] <= b[1] for a, b in zip(side, side[1:])):
            continue
        (T1, t1), (T2, t2) = side[:2]
        lam, d12 = rate, t1 - t2
        if len(side) == 3:
            # the points (exp(-λ tau), T0) lie on one line: solve for λ
            ratio = (T1 - T2) / (T2 - side[2][0])
            d23 = t2 - side[2][1]
            try:
                lam = _brentq(lambda x: math.expm1(-x * d12) * math.exp(-x * d23)
                              / math.expm1(-x * d23) - ratio, 1e-3, 10.0, 1e-9, 1e-9)
            except ValueError:
                pass
        if lam is not None:
            guesses.append((t1, T1 + (T1 - T2) * math.exp(-lam * d12) / -math.expm1(-lam * d12)))
    return max(guesses)[1] if guesses else None


def _bisect(label: Callable[[float], object], lo: float, hi: float, width: float,
            ends: Optional[tuple] = None) -> tuple[float, float]:
    """Bisect (lo, hi) on the two-valued `label` down to a cell no wider
    than `width`; returns the final cell (lo_f, hi_f).  Each midpoint
    taking lo's label replaces lo, any other replaces hi; a midpoint that
    `label` returns None for stops the walk there, and that cell is
    returned.  `ends`, the labels of lo and hi, are taken as given and
    `label` is called only at midpoints; without them both ends are
    labelled first, and raise ValueError if they take the same label."""
    if ends is None:
        ends = label(lo), label(hi)
        if ends[0] == ends[1]:
            raise ValueError(
                f"bracket endpoints classify to the same attractor ({ends[0]}); "
                "widen the bracket"
            )
    while hi - lo > width:
        mid = 0.5 * (lo + hi)
        side = label(mid)
        if side is None:
            break
        if side == ends[0]:
            lo = mid
        else:
            hi = mid
    return lo, hi
