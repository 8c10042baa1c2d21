"""Equilibria and bifurcations of the tumor-immune model.

The tumor-free equilibrium (TFE) is available in closed form, together
with its Jacobian eigenvalues.  High-tumor equilibria (HTE) are found by
collapsing the four equilibrium conditions to a scalar root problem in
T*:

  (i)   C* = alpha/beta and N*(T*) from the NK balance;
  (ii)  the tumor balance fixes the kill factor D* = a(1 - b T*) - c N*;
  (iii) inverting the saturation gives the CD8+ level L*_D that realizes
        that kill factor;
  (iv)  the CD8+ balance is a quadratic in L* whose unique positive root
        L*_- must agree with L*_D.

The residual F(T*) = L*_D - L*_- changes sign at an equilibrium.  Where
the branch is infeasible (D* outside (0, d)) the residual is replaced by
large sentinels whose signs match the adjacent feasible limits
(F -> -L*_- < 0 as D* -> 0+, F -> +inf as D* -> d-), so plain sign
bracketing never manufactures spurious roots at feasibility boundaries.
A sweep, and `find_hte` as its one-set case, evaluates F in one grid pass
per `_CHUNK` of parameter sets to find the sign changes, refines all of them
in one lockstep Brent iteration (`_hte_roots`, one lane per sign change),
rebuilds all its states with one more array pass of the residual at the
roots and makes one `eigvals` call; every root, state and eigenvalue is bit
for bit what the scalar `hte_residual`, Brent's method and `hte_state` give.
`_brentq` is scipy 1.17.1's `brentq`, ported so that no command imports
`scipy.optimize`; the tests hold it and each lane of `_hte_roots` to
scipy's roots and evaluation points bit for bit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from operator import attrgetter
from types import SimpleNamespace
from typing import Optional

import numpy as np

from .kinetics import DomainError, jacobian_array
from .params import ParameterSet, PARAMETER_NAMES

__all__ = [
    "Equilibrium", "BifurcationBranch", "BifurcationScan",
    "tfe", "tfe_eigenvalues", "tfe_stable", "n_star", "hte_residual",
    "hte_state", "find_hte", "bifurcation_scan",
]

_SENTINEL = 1e300
_T_GRID = np.geomspace(1.0, 1e10, 400)  # the HTE root scan's T* grid
_constants = attrgetter(*PARAMETER_NAMES)  # a ParameterSet's values, in order
_CHUNK = 16  # parameter sets per grid pass: 200 swept values peak at 0.9 MB traced, not 8.8
_EPS_STAB = 1e-12  # margin below 0 of every real part of a stable HTE
_XTOL, _RTOL = 1e-13, 4.0 * np.finfo(float).eps  # an HTE root's tolerances, xtol per unit T*


@dataclass(frozen=True)
class Equilibrium:
    """A fixed point record.

    `y` is the raw (T, N, L, C) vector; the infeasible tumor-free twin
    carries a negative L component, which is why this is an array and
    not a feasible-domain State.
    """

    kind: str                 # "TFE" | "HTE"
    y: np.ndarray             # (4,)
    eigenvalues: np.ndarray   # (4,) complex
    stable: bool
    feasible: bool

    @property
    def T(self) -> float:
        return float(self.y[0])

    @property
    def N(self) -> float:
        return float(self.y[1])

    @property
    def L(self) -> float:
        return float(self.y[2])

    @property
    def C(self) -> float:
        return float(self.y[3])


def tfe_eigenvalues(p: ParameterSet) -> np.ndarray:
    """Analytic Jacobian eigenvalues at the tumor-free equilibrium.

    The tumor eigenvalue is taken in the attracting limit L/T -> inf
    (the kill factor saturates at d there); the remaining three are the
    decay rates of the decoupled immune balances.
    """
    lam1 = p.a - p.d - p.alpha * p.c * p.e / (p.beta * p.f)
    return np.array([lam1, -p.f, -p.m, -p.beta])


def _tfe_margin(q: ParameterSet) -> float:
    """(a - d) beta f - alpha c e, negative where the TFE is stable."""
    return (q.a - q.d) * q.beta * q.f - q.alpha * q.c * q.e


def tfe_stable(p: ParameterSet) -> bool:
    """Stability predicate of the TFE: (a - d) beta f < alpha c e."""
    return _tfe_margin(p) < 0.0


def tfe(p: ParameterSet) -> tuple[Equilibrium, Equilibrium]:
    """Both tumor-free fixed points.

    The first is the biological TFE (0, alpha e/(beta f), 0, alpha/beta).
    The second, with L* = -m f beta/(u e alpha) < 0, is always infeasible;
    its eigenvalue set is the formal linearization (the CD8+ balance
    flips the sign of the m eigenvalue at the negative root).
    """
    n0 = p.alpha * p.e / (p.beta * p.f)
    c0 = p.alpha / p.beta
    eigs = tfe_eigenvalues(p).astype(complex)
    main = Equilibrium(
        kind="TFE",
        y=np.array([0.0, n0, 0.0, c0]),
        eigenvalues=eigs,
        stable=bool(np.all(eigs.real < 0.0)),
        feasible=True,
    )
    twin_eigs = eigs.copy()
    twin_eigs[2] = +p.m  # d/dL (-mL - uNL^2) = +m at L* = -m/(u N*)
    twin = Equilibrium(
        kind="TFE",
        y=np.array([0.0, n0, -p.m * p.f * p.beta / (p.u * p.e * p.alpha), c0]),
        eigenvalues=twin_eigs,
        stable=False,
        feasible=False,
    )
    return main, twin


def _libm_pow(x, y):
    """x ** y per element of the array x, with libm's `pow` as a Python float
    takes it (numpy's array `power` may differ in the last bit); y is a number
    or an array like x."""
    ys = y.tolist() if isinstance(y, np.ndarray) else repeat(y)
    return np.fromiter(map(math.pow, x.tolist(), ys), float, len(x))


def _nk_balance(T, p: ParameterSet, power=pow):
    """Numerator and denominator of N*(T*) in the NK balance; floats or arrays."""
    return (p.alpha * p.e * (p.h + T * T),
            p.beta * (p.f * p.h + p.h * p.p * T + (p.f - p.g) * T * T + p.p * power(T, 3)))


def n_star(Tstar: float, p: ParameterSet) -> float:
    """NK level enforced by the NK balance at tumor level T*."""
    if not Tstar > 0.0:
        raise DomainError("n_star requires Tstar > 0")
    T = float(Tstar)
    num, denom = _nk_balance(T, p)
    if denom <= 0.0:
        raise DomainError(f"NK balance denominator nonpositive at T* = {T}: infeasible branch point")
    return num / denom


def _kill_and_quadratic(T, N, p: ParameterSet, power=pow):
    """D* and the CD8+ quadratic's coefficients at (T*, N*); floats or arrays."""
    D = p.a * (1.0 - p.b * T) - p.c * N
    V2 = power(D * T, 2)
    a2 = -p.u * N
    b2 = -p.m + p.j * V2 / (p.k + V2) - p.q * T
    c2 = (p.r1 * N + p.r2 * (p.alpha / p.beta)) * T
    return D, a2, b2, c2


def _hte_pieces(Tstar: float, p: ParameterSet):
    """(N*, D*, quadratic coefficients) shared by residual and reconstruction."""
    N = n_star(Tstar, p)
    return (N, *_kill_and_quadratic(Tstar, N, p))


def _quadratic_roots(a2, b2, c2, lib=np):
    """Discriminant and roots qq/a2, c2/qq of a2 L^2 + b2 L + c2 (b2 is never
    -0.0); arrays, or floats with `lib` math.  The roots mean nothing where disc < 0."""
    disc = b2 * b2 - 4.0 * a2 * c2
    qq = -0.5 * (b2 + lib.copysign(lib.sqrt(abs(disc)), b2))  # numerically stable split
    return disc, qq / a2, c2 / qq


_NEGATIVE_DISCRIMINANT = "negative discriminant in the CD8+ equilibrium quadratic"
_NO_POSITIVE_ROOT = "no positive CD8+ root (should be impossible for positive parameters)"


def _positive_quadratic_root(a2: float, b2: float, c2: float) -> float:
    """The unique positive root of a2 L^2 + b2 L + c2 with a2 < 0 < c2."""
    disc, *roots = _quadratic_roots(a2, b2, c2, math)
    if disc < 0.0:
        raise DomainError(_NEGATIVE_DISCRIMINANT)
    for root in roots:
        if root > 0.0:
            return root
    raise DomainError(_NO_POSITIVE_ROOT)


def _cd8_for_kill(T, D, p: ParameterSet, power=pow):
    """L*_D: the CD8+ level whose kill factor at T* is D*; floats or arrays."""
    return T * power(p.s * D / (p.d - D), 1.0 / p.l)


def hte_residual(Tstar: float, p: ParameterSet) -> float:
    """Scalar root function for high-tumor equilibria (see module docstring)."""
    try:
        N, D, a2, b2, c2 = _hte_pieces(Tstar, p)
    except DomainError:
        return -_SENTINEL  # N* -> +inf drives D* -> -inf
    if D <= 0.0:
        return -_SENTINEL
    if D >= p.d:
        return +_SENTINEL
    L_minus = _positive_quadratic_root(a2, b2, c2)
    return _cd8_for_kill(Tstar, D, p) - L_minus


def _hte_residuals(T, p, power=pow):
    """`hte_residual` in one array pass, its domain branches as masks, at T
    with constants that broadcast against it: (m, 1) columns for m parameter
    sets on one grid, or one value per entry of T.  Also returns the masks of
    the entries where the scalar call raises, for a negative discriminant and
    for no positive root, then N*, L*_- and the mask of the feasible branch
    (NaN D* counts as feasible, as in the scalar).  With libm's `pow` as
    `power` every value is the scalar's bit for bit; numpy's array `power`
    may differ in the last bit, and so may the values, but not their signs
    and zeros.  Entries outside the feasible branch divide by zero or
    overflow: call under `np.errstate`."""
    num, denom = _nk_balance(T, p, power)
    N = num / denom
    D, a2, b2, c2 = _kill_and_quadratic(T, N, p, power)
    low = (denom <= 0.0) | (D <= 0.0)
    ok = ~low & ~(D >= p.d)
    # a feasible stand-in where D* is not, so that pow sees no negative base
    L_D = _cd8_for_kill(T, np.where(ok, D, 0.5 * p.d), p, power)
    disc, r1, r2 = _quadratic_roots(a2, b2, c2)
    L_minus = np.where(r1 > 0.0, r1, r2)
    F = np.where(low, -_SENTINEL, np.where(ok, L_D - L_minus, _SENTINEL))
    return F, ok & (disc < 0.0), ok & ~(L_minus > 0.0), N, L_minus, ok


def _hte_grid_residuals(p) -> np.ndarray:
    """`_hte_residuals` on all of `_T_GRID` for one ParameterSet, or one row
    each for m of them given as (m, 1) columns of constants; raises the
    scalar's DomainError if any point does."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        F, negative_disc, no_root = _hte_residuals(_T_GRID, p)[:3]
    if negative_disc.any():
        raise DomainError(_NEGATIVE_DISCRIMINANT)
    if no_root.any():
        raise DomainError(_NO_POSITIVE_ROOT)
    return F


def _columns(constants: np.ndarray) -> SimpleNamespace:
    """Parameter constants as attributes, one row of `constants` each."""
    return SimpleNamespace(**dict(zip(PARAMETER_NAMES, constants)))


def _brentq(f, a, b, xtol: float, rtol: float) -> float:
    """A root of f in [a, b]: scipy 1.17.1's `brentq` (Brent 1973,
    ch. 4; 100 iterations), its C loop ported operation by operation, so
    roots and evaluation points are scipy's bit for bit.  Raises ValueError
    for a NaN value of f or ends of the same sign (C's signbit), and
    RuntimeError when not converged."""
    def value(x):
        fx = float(f(x))
        if math.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
        return fx

    xtol, rtol = float(xtol), float(rtol)
    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(100):
        if fpre != 0.0 and fcur != 0.0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        stry = math.nan  # bisect, unless a step below is good
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:  # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:
                pass  # C divides to inf or NaN here, and bisects
        if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):  # a good short step
            spre, scur = scur, stry
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = value(xcur)
    raise RuntimeError(f"Failed to converge after 100 iterations, value is {xcur:f}")


def _hte_roots(constants: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """A root of `hte_residual` in [a[i], b[i]] for each lane i, with the
    parameter constants `constants[:, i]`: `_brentq` (xtol `_XTOL` max(1, a),
    rtol `_RTOL`) on every lane at once.  Each step does `_brentq`'s operations
    in its order on arrays, masks where lanes branch, and drops the lanes that
    finish; the residual is `_hte_residuals` with libm's `pow`, so every
    evaluation point and root is a lane's own `_brentq` call's bit for bit.
    Raises what those calls, made lane by lane, would raise first."""
    roots = np.empty(len(a))
    errors: dict[int, Exception] = {}  # each failed lane's exception

    def residuals(x, lanes, p):
        F, negative_disc, no_root = _hte_residuals(x, p, _libm_pow)[:3]
        failed = negative_disc | no_root | np.isnan(F)
        for k in np.flatnonzero(failed):
            errors.setdefault(int(lanes[k]), DomainError(_NEGATIVE_DISCRIMINANT)
                              if negative_disc[k] else DomainError(_NO_POSITIVE_ROOT)
                              if no_root[k] else ValueError(
                                  f"The function value at x={float(x[k])} is NaN; "
                                  "solver cannot continue."))
        return F, failed

    lanes = np.arange(len(a))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        F, failed = residuals(np.concatenate([a, b]), np.concatenate([lanes, lanes]),
                              _columns(np.concatenate([constants, constants], axis=1)))
        fa, fb = np.split(F, 2)
        at_a = fa == 0.0
        at_b = ~at_a & (fb == 0.0)
        roots[at_a], roots[at_b] = a[at_a], b[at_b]
        failed = np.logical_or(*np.split(failed, 2))
        same_sign = ~(failed | at_a | at_b) & (np.signbit(fa) == np.signbit(fb))
        for k in np.flatnonzero(same_sign):
            errors[k] = ValueError("f(a) and f(b) must have different signs")
        live = ~(failed | at_a | at_b | same_sign)
        # rows: xpre, xcur, xblk, fpre, fcur, fblk, spre, scur
        Z = np.zeros((8, np.count_nonzero(live)))
        Z[[0, 1, 3, 4]] = a[live], b[live], fa[live], fb[live]
        lanes, constants, xtol = lanes[live], constants[:, live], _XTOL * np.maximum(1.0, a[live])
        p = _columns(constants)
        for _ in range(100):
            if not len(lanes):
                break
            xpre, xcur, xblk, fpre, fcur, fblk, spre, scur = Z
            # fpre is never 0 here: a lane ends where its f is 0
            sign = np.signbit(Z[3:5])
            flip = (fcur != 0.0) & (sign[0] != sign[1])
            np.copyto(Z[6:], xcur - xpre, where=flip)  # spre = scur = xcur - xpre
            np.copyto(Z[2:6:3], Z[0:6:3], where=flip)  # xblk, fblk = xpre, fpre
            # xpre, xcur, xblk = xcur, xblk, xcur where |fblk| < |fcur|, and the same for f
            np.copyto(Z[:6], Z[[1, 2, 1, 4, 5, 4]], where=abs(fblk) < abs(fcur))
            A = abs(Z)
            delta = (xtol + _RTOL * A[1]) / 2
            sbis = (xblk - xcur) / 2
            done = (fcur == 0.0) | (abs(sbis) < delta)
            if done.any():
                roots[lanes[done]] = xcur[done]
                go = ~done
                Z, A, lanes, constants = Z[:, go], A[:, go], lanes[go], constants[:, go]
                xtol, delta, sbis = xtol[go], delta[go], sbis[go]
                if not len(lanes):
                    break
                p = _columns(constants)
                xpre, xcur, xblk, fpre, fcur, fblk, spre, scur = Z
            # interpolate where xpre == xblk, else extrapolate; bisect where
            # the step is not short, or divides by zero to inf or NaN
            dpre, dblk = (Z[3:6:2] - fcur) / (Z[0:3:2] - xcur)
            stry = np.where((A[6] > delta) & (A[4] < A[3]),
                            np.where(xpre == xblk, -fcur * (xcur - xpre) / (fcur - fpre),
                                     -fcur * (fblk * dblk - fpre * dpre)
                                     / (dblk * dpre * (fblk - fpre))),
                            np.nan)
            short = 2 * abs(stry) < np.minimum(A[6], 3 * abs(sbis) - delta)
            Z[6] = np.where(short, scur, sbis)
            Z[7] = np.where(short, stry, sbis)
            Z[0:6:3] = Z[1:6:3]  # xpre, fpre = xcur, fcur
            # sbis is not 0 here, so copysign is `delta if sbis > 0 else -delta`
            Z[1] += np.where(abs(scur) > delta, scur, np.copysign(delta, sbis))
            Z[4], failed = residuals(Z[1], lanes, p)
            if failed.any():
                go = ~failed
                Z, lanes, constants, xtol = Z[:, go], lanes[go], constants[:, go], xtol[go]
                p = _columns(constants)
    for k, x in zip(lanes.tolist(), Z[1].tolist()):
        errors[k] = RuntimeError(f"Failed to converge after 100 iterations, value is {x:f}")
    if errors:
        raise errors[min(errors)]
    return roots


def hte_state(Tstar: float, p: ParameterSet) -> np.ndarray:
    """Reconstruct the full (T, N, L, C) vector at a residual root."""
    N, D, a2, b2, c2 = _hte_pieces(Tstar, p)
    if not 0.0 < D < p.d:
        raise DomainError(f"kill factor D* = {D} outside (0, d) at T* = {Tstar}")
    return np.array([Tstar, N, _positive_quadratic_root(a2, b2, c2), p.alpha / p.beta])


def find_hte(p: ParameterSet) -> list[Equilibrium]:
    """All feasible high-tumor equilibria with T* in [1, 1e10], sorted by T*.

    One array pass of the residual over a 400-point log-spaced grid only
    decides signs and zeros; the lockstep Brent iteration `_hte_roots` refines
    each sign change to 4 eps relative tolerance in T*, each root bit for bit
    scipy's `brentq` on the scalar `hte_residual`, so no root depends on the
    grid's last bits.  Then the states are reconstructed and classified; this
    is the one-set case of a sweep's `_find_hte_many`.  An empty list is a
    valid outcome (e.g. past the saddle-node).
    """
    return _find_hte_many([p])[0]


def _find_hte_many(qs: list[ParameterSet]) -> list[list[Equilibrium]]:
    """`find_hte` for each parameter set of `qs`, bit for bit: one grid pass
    per `_CHUNK` of them; all their brackets refined by one lockstep Brent
    iteration (`_hte_roots`); the states of all roots rebuilt by one more
    `_hte_residuals` pass with libm's powers, the loop's filters as masks;
    and one `eigvals` call for all the states (LAPACK `geev` per matrix, so
    each state's eigenvalues are those of its own call)."""
    constants = np.array([_constants(q) for q in qs]).T
    zeros, brackets = [], []  # (parameter set, grid index) pairs
    for start in range(0, len(qs), _CHUNK):
        F = _hte_grid_residuals(_columns(constants[:, start:start + _CHUNK, None]))
        zero = F == 0.0
        cross = ~zero[:, :-1] & ((F[:, :-1] > 0.0) != (F[:, 1:] > 0.0))
        zeros.append(np.argwhere(zero) + (start, 0))
        brackets.append(np.argwhere(cross) + (start, 0))
    zeros, brackets = np.concatenate(zeros), np.concatenate(brackets)
    # Refine to machine precision: the returned states must satisfy the
    # equilibrium conditions to ~1e-10 of the population scale.
    roots = _hte_roots(constants[:, brackets[:, 0]],
                       _T_GRID[brackets[:, 1]], _T_GRID[brackets[:, 1] + 1])
    sets = np.concatenate([zeros[:, 0], brackets[:, 0]])
    T = np.concatenate([_T_GRID[zeros[:, 1]], roots])
    order = np.lexsort((T, sets))
    sets, T = sets[order], T[order]

    # hte_state of every root, with libm's powers
    p = _columns(constants[:, sets])
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        _, negative_disc, no_root, N, L, ok = _hte_residuals(T, p, _libm_pow)
    Y = np.empty((len(T), 4))
    Y[:, 0], Y[:, 1], Y[:, 2], Y[:, 3] = T, N, L, p.alpha / p.beta
    positive = np.all(Y > 0.0, axis=1)
    # A root duplicates the last kept root of its set within 1e-8 relative.
    # Roots lie in distinct grid cells (a zero at T_i stops the bracket of
    # cell i), so at most two lie that close and the last kept root is the
    # previous one when that one is positive.
    duplicate = np.zeros(len(T), dtype=bool)
    duplicate[1:] = ((sets[1:] == sets[:-1]) & positive[:-1]
                     & (T[1:] - T[:-1] <= 1e-8 * T[1:]))
    # a NaN N* or D* passes `ok` but makes b2, and so L*_-, NaN: `no_root` rejects it
    feasible = ok & ~negative_disc & ~no_root
    failed = np.flatnonzero(~duplicate & ~feasible)
    if len(failed):
        hte_state(float(T[failed[0]]), qs[sets[failed[0]]])  # raises the loop's DomainError
    keep = ~duplicate & positive
    Y, sets = Y[keep], sets[keep].tolist()

    eigs = np.linalg.eigvals(np.reshape([jacobian_array(y, qs[s]) for y, s in zip(Y, sets)],
                                        (-1, 4, 4)))
    stable = np.all(eigs.real < -_EPS_STAB, axis=1).tolist()
    oscillating = eigs.imag.any(axis=1).tolist()
    out: list[list[Equilibrium]] = [[] for _ in qs]
    for s, y, w, osc, st in zip(sets, Y, eigs, oscillating, stable):
        # a state's own call returns real eigenvalues when none has an imaginary part
        out[s].append(Equilibrium("HTE", y, w if osc else w.real, st, True))
    return out


# ---------------------------------------------------------------------------
# Parameter sweeps

@dataclass
class BifurcationBranch:
    kind: str                  # "TFE" | "HTE"
    values: list[float]        # swept parameter values
    T_star: list[float]
    stable: list[bool]


@dataclass
class BifurcationScan:
    parameter: str
    values: np.ndarray
    branches: list[BifurcationBranch]
    transcritical: Optional[float]   # TFE stability flip, refined
    saddle_node: Optional[float]     # swept value at the fold, on its two-HTE side


def bifurcation_scan(
    p: ParameterSet,
    parameter: str,
    value_range: tuple[float, float],
    steps: int,
    log: bool = False,
) -> BifurcationScan:
    """Sweep one rate constant and assemble equilibrium branches.

    Records TFE stability at every swept value, follows the HTE roots of
    `find_hte` across the sweep (matched between consecutive values in
    sorted-T* order), locates the transcritical point where the TFE
    stability margin (a-d) beta f - alpha c e changes sign, and reports
    the saddle-node: of the steps where the HTE count changes by two (a
    pair appears or disappears), the one at the largest parameter value,
    as its swept value on the pair's side, in either sweep direction; None
    without such a step.  The HTE come from `_find_hte_many`, each bit for
    bit as `find_hte`.
    Both ends of `value_range` must be finite, and positive with `log`.
    """
    if parameter not in PARAMETER_NAMES:
        raise KeyError(f"unknown parameter {parameter!r}")
    if steps < 2:
        raise ValueError("steps must be >= 2")
    lo, hi = value_range
    if not (np.isfinite(lo) and np.isfinite(hi)) or log and not (lo > 0.0 and hi > 0.0):
        need = "finite and positive for a log scan" if log else "finite"
        raise ValueError(f"value_range ends must be {need}, got {value_range}")
    values = np.geomspace(lo, hi, steps) if log else np.linspace(lo, hi, steps)

    qs = [p.replace(**{parameter: float(v)}) for v in values]
    results = _find_hte_many(qs)  # each sorted by T*
    margins = [_tfe_margin(q) for q in qs]

    tfe_branch = BifurcationBranch("TFE", [float(v) for v in values],
                                   [0.0] * len(values), [m < 0.0 for m in margins])
    hte_branches: list[BifurcationBranch] = []
    open_branches: list[BifurcationBranch] = []
    for value, eqs in zip(values, results):
        if len(eqs) != len(open_branches):
            open_branches = []
            for _ in eqs:
                br = BifurcationBranch("HTE", [], [], [])
                open_branches.append(br)
                hte_branches.append(br)
        for br, eq in zip(open_branches, eqs):
            br.values.append(float(value))
            br.T_star.append(eq.T)
            br.stable.append(eq.stable)

    transcritical = None
    for i in range(len(values) - 1):
        if margins[i] == 0.0:
            transcritical = float(values[i])
            break
        if margins[i] * margins[i + 1] < 0.0:
            transcritical = _brentq(lambda v: _tfe_margin(p.replace(**{parameter: v})),
                                    values[i], values[i + 1], 2e-12, 1e-12)
            break

    counts = [len(eqs) for eqs in results]
    folds = [float(values[i] if counts[i] > counts[i + 1] else values[i + 1])
             for i in range(len(values) - 1) if abs(counts[i] - counts[i + 1]) == 2]
    saddle_node = max(folds, default=None)

    return BifurcationScan(parameter=parameter, values=values,
                           branches=[tfe_branch] + hte_branches,
                           transcritical=transcritical, saddle_node=saddle_node)
