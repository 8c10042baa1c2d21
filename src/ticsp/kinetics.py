"""Process rates, stoichiometry, and Jacobian of the tumor-immune model.

The state vector is y = (T, N, L, C): tumor cells, NK cells, CD8+ T
cells, and circulating lymphocytes.  The dynamics are assembled from 15
elementary processes with constant stoichiometry,

    dy/dt = S @ R(y),

where column k-1 of ``STOICHIOMETRY`` is the stoichiometric vector of
process k and R(y) the vector of nonnegative process rates:

     1  tumor logistic growth            a T (1 - b T)
     2  NK production                    e C
     3  lymphocyte production            alpha
     4  NK turnover                      f N
     5  CD8+ turnover                    m L
     6  lymphocyte turnover              beta C
     7  tumor kill by NK                 c N T
     8  tumor kill by CD8+               D T      (saturating, see below)
     9  NK recruitment by tumor          g N T^2 / (h + T^2)
    10  CD8+ recruitment by kill         j L (D T)^2 / (k + (D T)^2)
    11  CD8+ priming by NK debris        r1 N T
    12  CD8+ priming from lymphocytes    r2 C T
    13  NK inactivation by tumor         p N T
    14  CD8+ inactivation by tumor       q L T
    15  CD8+ self-limitation             u N L^2

The fractional-kill factor D = d (L/T)^l / (s + (L/T)^l) saturates at d
for L >> T and vanishes for L = 0 (the limit is handled exactly).

Processes are numbered 1..15 as above in reports and CSV files; in the
rate and gradient arrays process k sits at k-1.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .params import ParameterSet

__all__ = [
    "VARIABLES", "N_PROCESSES", "STOICHIOMETRY",
    "DomainError", "State", "ProcessSet", "process_rates",
    "rates_array", "rhs_array", "jacobian_array", "jacobian_batch",
    "T_FLOOR", "floor_state", "floored_rhs",
]

VARIABLES = ("T", "N", "L", "C")
N_PROCESSES = 15

# Column k-1 = stoichiometric vector of process k (rows T, N, L, C).
STOICHIOMETRY = np.array([
    #  1   2   3   4   5   6   7   8   9  10  11  12  13  14  15
    [  1,  0,  0,  0,  0,  0, -1, -1,  0,  0,  0,  0,  0,  0,  0],  # T
    [  0,  1,  0, -1,  0,  0,  0,  0,  1,  0,  0,  0, -1,  0,  0],  # N
    [  0,  0,  0,  0, -1,  0,  0,  0,  0,  1,  1,  1,  0, -1, -1],  # L
    [  0,  0,  1,  0,  0, -1,  0,  0,  0,  0,  0,  0,  0,  0,  0],  # C
], dtype=float)
STOICHIOMETRY.setflags(write=False)

T_FLOOR = 1e-300  # the T -> 0+ stand-in; T decays exponentially, never to 0
_STATE_FLOOR = np.array([T_FLOOR, 0.0, 0.0, 0.0])


def floor_state(y) -> np.ndarray:
    """A state (4,) or states (n, 4) with T raised to `T_FLOOR` and (N, L, C)
    to 0 where below; solver probes may step outside the feasible domain.
    NaN stays NaN, so the kinetics reject it."""
    return np.maximum(y, _STATE_FLOOR)


class DomainError(ValueError):
    """State outside the feasible domain of the kinetics."""


@dataclass(frozen=True)
class State:
    """Phase-space point with its time tag.

    T must be positive for dynamics evaluation; the tumor-free boundary
    T = 0 is representable as data (equilibrium records) but rates and
    Jacobians cannot be evaluated there.
    """

    t: float
    T: float
    N: float
    L: float
    C: float

    def __post_init__(self):
        for name in ("T", "N", "L", "C"):
            v = getattr(self, name)
            if not np.isfinite(v) or v < 0.0:
                raise DomainError(f"{name} = {v!r} is outside the feasible domain")

    def array(self) -> np.ndarray:
        return np.array([self.T, self.N, self.L, self.C])

    @classmethod
    def from_array(cls, t: float, y) -> "State":
        return cls(float(t), float(y[0]), float(y[1]), float(y[2]), float(y[3]))


@dataclass(frozen=True)
class ProcessSet:
    """Rates and analytic rate gradients at one state.

    `rates` has shape (15,) and `gradients` shape (15, 4); entry k-1 of
    `rates` and row k-1 of `gradients` (w.r.t. (T, N, L, C)) belong to
    process k of the table above.  D is the fractional-kill factor.
    """

    rates: np.ndarray
    gradients: np.ndarray
    D: float


def _require_dynamic(T: float, N: float, L: float, C: float) -> None:
    if not (T > 0.0):
        raise DomainError(f"T = {T!r}: dynamics require T > 0")
    if not (N >= 0.0 and L >= 0.0 and C >= 0.0):
        raise DomainError(f"negative or NaN population in (N, L, C) = ({N!r}, {L!r}, {C!r})")


def _saturation(T: float, L: float, p: ParameterSet):
    """Return (D, phi, sigma) for the fractional-kill factor.

    With x = (L/T)^l:  phi = x / (s + x),  sigma = s / (s + x) = 1 - phi,
    D = d * phi.  Evaluated on the branch that avoids overflow of x when
    L >> T (x is replaced by its reciprocal there), so the factor is
    usable over the full dynamic range of the populations.
    """
    if L == 0.0:
        return 0.0, 0.0, 1.0
    if L >= T:
        z = (T / L) ** p.l            # = 1/x <= 1
        denom = 1.0 + p.s * z
        phi = 1.0 / denom
        sigma = p.s * z / denom
    else:
        x = (L / T) ** p.l            # < 1; underflow to 0 gives D = 0 exactly
        denom = p.s + x
        phi = x / denom
        sigma = p.s / denom
    return p.d * phi, phi, sigma


def _rates(T, N, L, C, D, p: ParameterSet) -> list:
    """The 15 process rates, in process order, with D = D(T, L) given."""
    T2 = T * T
    V = D * T
    W = V * V
    return [
        p.a * T * (1.0 - p.b * T),
        p.e * C,
        p.alpha,
        p.f * N,
        p.m * L,
        p.beta * C,
        p.c * N * T,
        V,
        p.g * (T2 / (p.h + T2)) * N,     # NK recruitment saturation
        p.j * (W / (p.k + W)) * L,       # CD8+ recruitment saturation
        p.r1 * N * T,
        p.r2 * C * T,
        p.p * N * T,
        p.q * L * T,
        p.u * N * L * L,
    ]


def _fill_gradients(G, T, N, L, C, D, sigma, dV_dL, p: ParameterSet):
    """Write the rate gradients into G, (15, 4) for floats or a (15, 4, n) view
    for arrays (n,), given D, sigma and dV_dL = T dD/dL from the saturation."""
    T2 = T * T
    rec9 = T2 / (p.h + T2)
    V = D * T
    W = V * V
    rec10 = W / (p.k + W)

    # d/dT and d/dL of D, written to stay finite in both saturation branches:
    #   dD/dT = -(l/T) D sigma,   dD/dL = +(l/L) D sigma.
    dV_dT = D * (1.0 - p.l * sigma)           # = D + T dD/dT

    G[0, 0] = p.a * (1.0 - 2.0 * p.b * T)
    G[1, 3] = p.e
    # G[2] = 0 (constant source)
    G[3, 1] = p.f
    G[4, 2] = p.m
    G[5, 3] = p.beta
    G[6, 0] = p.c * N
    G[6, 1] = p.c * T
    G[7, 0] = dV_dT
    G[7, 2] = dV_dL
    G[8, 0] = p.g * N * 2.0 * T * p.h / (p.h + T2) ** 2
    G[8, 1] = p.g * rec9
    dR10_dV = p.j * L * 2.0 * V * p.k / (p.k + W) ** 2
    G[9, 0] = dR10_dV * dV_dT
    G[9, 2] = p.j * rec10 + dR10_dV * dV_dL
    G[10, 0] = p.r1 * N
    G[10, 1] = p.r1 * T
    G[11, 0] = p.r2 * C
    G[11, 3] = p.r2 * T
    G[12, 0] = p.p * N
    G[12, 1] = p.p * T
    G[13, 0] = p.q * L
    G[13, 2] = p.q * T
    G[14, 1] = p.u * L * L
    G[14, 2] = 2.0 * p.u * N * L
    return G


def _gradients(T, N, L, C, p: ParameterSet):
    """Rate gradients G (15, 4) and D at one state, without the rates."""
    D, phi, sigma = _saturation(T, L, p)
    dV_dL = p.l * D * sigma * T / L if L > 0.0 else 0.0   # = T dD/dL
    return _fill_gradients(np.zeros((N_PROCESSES, 4)), T, N, L, C, D, sigma, dV_dL, p), D


# -- array-based entry points (hot path for the integrator and CSP) ----------

def rates_array(y: np.ndarray, p: ParameterSet) -> np.ndarray:
    """The 15 process rates at a state array (4,): the solver's kernel, so
    it skips the gradients and the `ProcessSet` of `process_rates`."""
    T, N, L, C = y.tolist()
    _require_dynamic(T, N, L, C)
    return np.array(_rates(T, N, L, C, _saturation(T, L, p)[0], p))


def rhs_array(y: np.ndarray, p: ParameterSet) -> np.ndarray:
    """Time derivative (dT, dN, dL, dC)/dt = S @ R at a state array (4,)."""
    return STOICHIOMETRY @ rates_array(y, p)


def floored_rhs(y: np.ndarray, p: ParameterSet) -> np.ndarray:
    """The full model's solver right-hand side: `rhs_array(floor_state(y), p)`
    bit for bit, in one call.  The floor is taken with float compares; N, L
    and C go to 0 at `<=`, so -0.0 becomes 0.0 as in `np.maximum`, and NaN
    stays NaN and is rejected."""
    T, N, L, C = y.tolist()
    if T < T_FLOOR:
        T = T_FLOOR
    if N <= 0.0:
        N = 0.0
    if L <= 0.0:
        L = 0.0
    if C <= 0.0:
        C = 0.0
    _require_dynamic(T, N, L, C)
    return STOICHIOMETRY @ np.array(_rates(T, N, L, C, _saturation(T, L, p)[0], p))


def jacobian_array(y: np.ndarray, p: ParameterSet) -> np.ndarray:
    """Analytic 4x4 Jacobian J = S @ dR/dy at a state array (4,)."""
    T, N, L, C = y.tolist()
    _require_dynamic(T, N, L, C)
    return STOICHIOMETRY @ _gradients(T, N, L, C, p)[0]


# -- batch entry point (scans along a trajectory) -------------------------------

def jacobian_batch(Y, p: ParameterSet) -> np.ndarray:
    """Jacobians of a stack of states: (n, 4) -> (n, 4, 4).

    The vectorised twin of `jacobian_array` (which stays the solver's
    per-state kernel and the reference this one is tested against), with
    the same domain checks on every row.
    """
    Y = np.asarray(Y, dtype=float)
    if Y.ndim != 2 or Y.shape[1] != 4:
        raise ValueError(f"expected states of shape (n, 4), got {Y.shape}")
    if not np.all(np.isfinite(Y)):
        raise DomainError("non-finite population in a batch of states")
    T, N, L, C = Y.T
    if not np.all(T > 0.0):
        raise DomainError(f"T = {T.min()!r}: dynamics require T > 0")
    if np.any(Y[:, 1:] < 0.0):
        raise DomainError(f"negative population (min {Y[:, 1:].min()!r}) in (N, L, C)")

    # _saturation on both branches at once; L = 0 falls in the L < T branch
    # with x = 0, which gives D = 0 and sigma = 1 exactly.  Both lanes are
    # evaluated, so the masked-out L / T may divide by zero or overflow.
    hi = L >= T
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        x = np.where(hi, T / L, L / T) ** p.l
        denom = np.where(hi, 1.0 + p.s * x, p.s + x)
        sigma = np.where(hi, p.s * x, p.s) / denom
        D = p.d * (np.where(hi, 1.0, x) / denom)
        dV_dL = np.where(L > 0.0, p.l * D * sigma * T / L, 0.0)
    G = np.zeros((len(Y), N_PROCESSES, 4))
    _fill_gradients(np.moveaxis(G, 0, -1), T, N, L, C, D, sigma, dV_dL, p)
    return STOICHIOMETRY @ G


# -- State-based entry point ---------------------------------------------------

def process_rates(state: State, p: ParameterSet) -> ProcessSet:
    """Evaluate all 15 process rates and their analytic gradients."""
    _require_dynamic(state.T, state.N, state.L, state.C)
    T, N, L, C = state.T, state.N, state.L, state.C
    G, D = _gradients(T, N, L, C, p)
    return ProcessSet(rates=np.array(_rates(T, N, L, C, D, p)), gradients=G, D=D)
