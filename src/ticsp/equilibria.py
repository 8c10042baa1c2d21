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
"""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.optimize import brentq

from .kinetics import DomainError, jacobian_array
from .params import ParameterSet, PARAMETER_NAMES

__all__ = [
    "Equilibrium", "BifurcationBranch", "BifurcationScan",
    "tfe", "tfe_eigenvalues", "tfe_stable", "n_star", "hte_residual",
    "hte_state", "find_hte", "classify_stability", "bifurcation_scan",
]

_SENTINEL = 1e300
_T_GRID = np.geomspace(1.0, 1e10, 400)  # the HTE root scan's T* grid


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


def tfe_stable(p: ParameterSet) -> bool:
    """Stability predicate of the TFE: (a - d) beta f < alpha c e."""
    return (p.a - p.d) * p.beta * p.f < p.alpha * p.c * p.e


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


def n_star(Tstar: float, p: ParameterSet) -> float:
    """NK level enforced by the NK balance at tumor level T*."""
    if not Tstar > 0.0:
        raise DomainError("n_star requires Tstar > 0")
    T = float(Tstar)
    denom = p.beta * (p.f * p.h + p.h * p.p * T + (p.f - p.g) * T * T + p.p * T**3)
    if denom <= 0.0:
        raise DomainError(f"NK balance denominator nonpositive at T* = {T}: infeasible branch point")
    return p.alpha * p.e * (p.h + T * T) / denom


def _hte_pieces(Tstar: float, p: ParameterSet):
    """(N*, D*, quadratic coefficients) shared by residual and reconstruction."""
    N = n_star(Tstar, p)
    D = p.a * (1.0 - p.b * Tstar) - p.c * N
    V2 = (D * Tstar) ** 2
    a2 = -p.u * N
    b2 = -p.m + p.j * V2 / (p.k + V2) - p.q * Tstar
    c2 = (p.r1 * N + p.r2 * (p.alpha / p.beta)) * Tstar
    return N, D, a2, b2, c2


def _positive_quadratic_root(a2: float, b2: float, c2: float) -> float:
    """The unique positive root of a2 L^2 + b2 L + c2 with a2 < 0 < c2."""
    disc = b2 * b2 - 4.0 * a2 * c2
    if disc < 0.0:
        raise DomainError("negative discriminant in the CD8+ equilibrium quadratic")
    sq = np.sqrt(disc)
    # numerically stable split: roots are qq/a2 and c2/qq
    qq = -0.5 * (b2 + np.copysign(sq, b2)) if b2 != 0.0 else -0.5 * sq
    for root in (qq / a2, c2 / qq):
        if root > 0.0:
            return float(root)
    raise DomainError("no positive CD8+ root (should be impossible for positive parameters)")


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
    L_D = Tstar * (p.s * D / (p.d - D)) ** (1.0 / p.l)
    return L_D - L_minus


def hte_state(Tstar: float, p: ParameterSet) -> np.ndarray:
    """Reconstruct the full (T, N, L, C) vector at a residual root."""
    N, D, a2, b2, c2 = _hte_pieces(Tstar, p)
    if not 0.0 < D < p.d:
        raise DomainError(f"kill factor D* = {D} outside (0, d) at T* = {Tstar}")
    return np.array([Tstar, N, _positive_quadratic_root(a2, b2, c2), p.alpha / p.beta])


def classify_stability(eq: Equilibrium, p: ParameterSet, eps_stab: float = 1e-12) -> Equilibrium:
    """Fill eigenvalues and the stability flag of an equilibrium record.

    Numeric eigensolver on the analytic Jacobian, except at the TFE
    where the closed-form eigenvalues are used (T = 0 is not evaluable).
    Stability requires every real part below -eps_stab.
    """
    if eq.kind == "TFE":
        eigs = tfe_eigenvalues(p).astype(complex) if eq.feasible else eq.eigenvalues
    else:
        eigs = np.linalg.eigvals(jacobian_array(eq.y, p))
    stable = bool(np.all(eigs.real < -eps_stab))
    return dataclasses.replace(eq, eigenvalues=eigs, stable=stable)


def find_hte(p: ParameterSet) -> list[Equilibrium]:
    """All feasible high-tumor equilibria with T* in [1, 1e10], sorted by T*.

    Scans a 400-point log-spaced grid for sign changes of `hte_residual`,
    refines each bracket with `brentq` to 4 eps relative tolerance in T*,
    reconstructs the full state, and classifies stability.  An empty list
    is a valid outcome (e.g. past the saddle-node).
    """
    F = np.array([hte_residual(T, p) for T in _T_GRID])

    # Refine to machine precision: the returned states must satisfy the
    # equilibrium conditions to ~1e-10 of the population scale.
    roots: list[float] = []
    for i in range(len(_T_GRID) - 1):
        if F[i] == 0.0:
            roots.append(float(_T_GRID[i]))
        elif (F[i] > 0.0) != (F[i + 1] > 0.0):
            roots.append(brentq(hte_residual, _T_GRID[i], _T_GRID[i + 1], args=(p,),
                                rtol=4.0 * np.finfo(float).eps,
                                xtol=1e-13 * max(1.0, _T_GRID[i])))
    if F[-1] == 0.0:
        roots.append(float(_T_GRID[-1]))

    out: list[Equilibrium] = []
    for T in sorted(roots):
        if out and abs(T - out[-1].T) <= 1e-8 * T:
            continue  # duplicate root found from adjacent brackets
        y = hte_state(T, p)
        eq = Equilibrium(kind="HTE", y=y, eigenvalues=np.zeros(4, complex),
                         stable=False, feasible=bool(np.all(y > 0.0)))
        if eq.feasible:
            out.append(classify_stability(eq, p))
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
    saddle_node: Optional[float]     # last swept value with two feasible HTE


def _tfe_margin(value: float, parameter: str, p: ParameterSet) -> float:
    q = p.replace(**{parameter: value})
    return (q.a - q.d) * q.beta * q.f - q.alpha * q.c * q.e


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
    the saddle-node as the last swept value carrying two feasible HTE.
    """
    if parameter not in PARAMETER_NAMES:
        raise KeyError(f"unknown parameter {parameter!r}")
    if steps < 2:
        raise ValueError("steps must be >= 2")
    lo, hi = value_range
    values = np.geomspace(lo, hi, steps) if log else np.linspace(lo, hi, steps)

    def sweep_one(value):
        q = p.replace(**{parameter: float(value)})
        return tfe_stable(q), find_hte(q)

    results = [sweep_one(v) for v in values]

    tfe_branch = BifurcationBranch("TFE", [float(v) for v in values],
                                   [0.0] * len(values),
                                   [flag for flag, _ in results])
    hte_branches: list[BifurcationBranch] = []
    open_branches: list[BifurcationBranch] = []
    for value, (_, eqs) in zip(values, results):
        eqs = sorted(eqs, key=lambda e: e.T)
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

    margins = [_tfe_margin(v, parameter, p) for v in values]
    transcritical = None
    for i in range(len(values) - 1):
        if margins[i] == 0.0:
            transcritical = float(values[i])
            break
        if margins[i] * margins[i + 1] < 0.0:
            transcritical = float(brentq(_tfe_margin, values[i], values[i + 1],
                                         args=(parameter, p), rtol=1e-12))
            break

    saddle_node = None
    for value, (_, eqs) in zip(values, results):
        if len(eqs) >= 2:
            saddle_node = float(value)

    return BifurcationScan(parameter=parameter, values=values,
                           branches=[tfe_branch] + hte_branches,
                           transcritical=transcritical, saddle_node=saddle_node)
