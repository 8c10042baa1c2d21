"""Timescale decomposition and mode-projection diagnostics.

Each state's Jacobian is split into dynamical modes (leading-order
basis: right eigenvectors as columns, left basis by matrix inversion so
biorthonormality is exact).  Modes are sorted fastest-first by
timescale tau = 1/|lambda|; complex-conjugate eigenpairs become two
real basis vectors (real and imaginary parts) sharing one timescale.

Four per-mode projection tables quantify how the 15 kinetic processes
and 4 populations participate in each mode:

* amplitude participation: share of process k in mode n's amplitude,
  P[n,k] = (beta^n . S_k) R_k / sum_i |(beta^n . S_i) R_i|
* timescale participation: share of process k in the eigenvalue,
  c[n,k] = beta^n . (S_k outer grad R_k) . alpha_n, row-normalized
* pointer: diagonal projector weight of variable i in mode m,
  Po[m,i] = alpha[i,m] * beta[m,i]
* slow importance: share of process k in the slow (modes > M) part of
  each variable's time derivative.

Also: exhausted-mode counting (how many fast dissipative modes have
damped out at the local tolerance) and detection of the explosive stage
(the interval where the Jacobian has an eigenvalue with positive real
part).  Modes are always read in tau-sorted order.
"""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .integrator import Trajectory, dense_states, evaluate_dense
from .kinetics import (
    STOICHIOMETRY,
    State,
    floor_state,
    jacobian_array,
    jacobian_batch,
    process_rates,
    rhs_array,
)
from .params import ParameterSet

__all__ = [
    "DecompositionError", "ModeDecomposition", "DiagnosticsRecord",
    "ExplosiveStage", "decompose", "api", "tpi", "pointer", "importance",
    "exhausted_count", "explosive_stage", "diagnostics_record",
    "mode_eigenvalues",
]

_COND_LIMIT = 1e12
_REFINE_TOL = 1e-4   # days: bisection tolerance of the stage boundaries
_SUBDIVIDE = 4       # the stage scan refines the output grid this many times


class DecompositionError(RuntimeError):
    """Jacobian eigenbasis unusable (near-defective) or inconsistent."""


@dataclass(frozen=True)
class ModeDecomposition:
    """Eigenmode split of the dynamics at one state, fastest mode first.

    Invariants: beta @ alpha = I to 1e-10; alpha @ amplitudes
    reconstructs the full time derivative to 1e-8 relative.  Complex
    pairs occupy two adjacent slots (real and imaginary part vectors)
    sharing a timescale; `complex_pair[n]` is the partner's index, or
    None for real modes.
    """

    state: State
    eigenvalues: np.ndarray          # (4,) complex, sorted by descending |lambda|
    alpha: np.ndarray                # (4, 4) right basis, columns
    beta: np.ndarray                 # (4, 4) left basis, rows
    timescales: np.ndarray           # (4,) days, ascending
    amplitudes: np.ndarray           # (4,) cells/day, f = beta @ g
    explosive: np.ndarray            # (4,) bool, Re lambda > 0
    complex_pair: tuple              # per-mode partner index or None

    def mode_sign_flipped(self, n: int) -> "ModeDecomposition":
        """Copy with mode n's (alpha_n, beta^n, f^n) all negated.

        Index tables are invariant except for the row sign of API/TPI;
        biorthonormality is preserved exactly.
        """
        alpha = self.alpha.copy(); alpha[:, n] *= -1.0
        beta = self.beta.copy(); beta[n, :] *= -1.0
        amp = self.amplitudes.copy(); amp[n] *= -1.0
        return dataclasses.replace(self, alpha=alpha, beta=beta, amplitudes=amp)


@dataclass(frozen=True)
class ExplosiveStage:
    """Interval where the Jacobian carries a positive-Re-eigenvalue mode."""

    start: float                     # day
    end: float                       # day; the explosive-timescale end time
    mode_index: int                  # 1-based position in tau-sorted order

    @property
    def t_exp(self) -> float:
        return self.end


@dataclass(frozen=True)
class DiagnosticsRecord:
    """All four index tables at one trajectory time."""

    time: float
    t_over_texp: float               # nan when no explosive stage exists
    M: int                           # exhausted-mode count used for II
    api: np.ndarray                  # (4, 15)
    tpi: np.ndarray                  # (4, 15)
    pointer: np.ndarray              # (4 modes, 4 variables)
    importance: np.ndarray           # (4 variables, 15)
    decomposition: ModeDecomposition


def _pair_up(w: np.ndarray, V: np.ndarray):
    """Sort modes fastest-first and convert conjugate pairs to real vectors.

    Works on stacks: eigenvalues w (n, 4) and right eigenvectors V
    (n, 4, 4) as columns.  Returns the sorted eigenvalues, the real right
    bases and each mode's conjugate partner (-1 for a real mode).
    """
    # descending |lambda| (ascending tau); ties: dissipative before explosive
    order = np.lexsort((w.real >= 0.0, -np.abs(w)))
    w = np.take_along_axis(w, order, axis=-1)
    V = np.take_along_axis(V, order[:, None, :], axis=-1)

    lam = w.real.astype(complex)
    alpha = V.real.copy()
    partner = np.full(w.shape, -1)
    second = np.zeros(len(w), dtype=bool)   # slot i holds a pair's second half
    for i in range(4):
        rows = np.nonzero(~second & (np.abs(w[:, i].imag) > 0.0))[0]
        second[:] = False
        if len(rows) == 0:
            continue
        if i == 3 or np.any(np.abs(w[rows, i + 1] - np.conj(w[rows, i]))
                            > 1e-8 * np.abs(w[rows, i])):
            raise DecompositionError(
                "complex eigenvalue without an adjacent conjugate partner"
            )
        lead = np.where(w[rows, i].imag > 0, i, i + 1)
        v = V[rows, :, lead]
        alpha[rows, :, i] = v.real
        alpha[rows, :, i + 1] = v.imag
        lam[rows, i] = w[rows, lead]
        lam[rows, i + 1] = np.conj(w[rows, lead])
        partner[rows, i], partner[rows, i + 1] = i + 1, i
        second[rows] = True
    return lam, alpha, partner


def _real_modes(J: np.ndarray):
    """`_pair_up` of a stack of Jacobians (n, 4, 4), refusing near-defective
    eigenbases (condition number above `_COND_LIMIT`)."""
    lam, alpha, partner = _pair_up(*np.linalg.eig(J))
    cond = np.linalg.cond(alpha)
    if np.any(cond > _COND_LIMIT):
        raise DecompositionError(
            f"near-defective Jacobian: eigenbasis condition number "
            f"{cond.max():.3e} exceeds {_COND_LIMIT:.0e}"
        )
    return lam, alpha, partner


def _boundary_jacobians(Y, params: ParameterSet) -> np.ndarray:
    """Jacobians at a stack of states (n, 4).  Boundary states (tumor
    clipped to zero by the integrator) are evaluated in the attracting
    limit T -> 0+ (`floor_state`)."""
    return jacobian_batch(floor_state(Y), params)


def mode_eigenvalues(Y, params: ParameterSet) -> np.ndarray:
    """Eigenvalues (n, 4), fastest mode first, at each state row of Y.

    Same ordering, conjugate pairing and conditioning check as
    `decompose`, for a whole trajectory at once.
    """
    lam, _, _ = _real_modes(_boundary_jacobians(Y, params))
    return lam


def decompose(state: State, params: ParameterSet) -> ModeDecomposition:
    """Eigenmode decomposition of the Jacobian at one state.

    The left basis is the matrix inverse of the right-eigenvector
    column matrix, making biorthonormality exact by construction.  The
    sign of each mode (alpha_n, beta^n, f^n jointly) is fixed so the
    mode's largest-magnitude amplitude-participation entry is positive.
    """
    y = state.array()
    lam, alpha, partner = (a[0] for a in _real_modes(jacobian_array(y, params)[None]))
    beta = np.linalg.inv(alpha)
    amplitudes = beta @ rhs_array(y, params)

    dec = ModeDecomposition(
        state=state,
        eigenvalues=lam,
        alpha=alpha,
        beta=beta,
        timescales=1.0 / np.abs(lam),
        amplitudes=amplitudes,
        explosive=lam.real > 0.0,
        complex_pair=tuple(None if j < 0 else int(j) for j in partner),
    )
    terms = (beta @ STOICHIOMETRY) * process_rates(state, params).rates[None, :]
    for n in range(4):
        k_dom = int(np.argmax(np.abs(terms[n])))
        if terms[n, k_dom] < 0.0:
            dec = dec.mode_sign_flipped(n)
    return dec


def _normalize_rows(num: np.ndarray) -> np.ndarray:
    """Row-normalize by the sum of absolute values; all-zero row -> NaN."""
    denom = np.sum(np.abs(num), axis=1, keepdims=True)
    out = np.full_like(num, np.nan)
    ok = denom[:, 0] > 0.0
    out[ok] = num[ok] / denom[ok]
    return out


def api(decomp: ModeDecomposition, processes) -> np.ndarray:
    """Amplitude participation: share of each process in each mode's f^n.

    Rows sum to 1 in absolute value; a row is NaN (undefined) only if
    every projected rate vanishes.
    """
    num = (decomp.beta @ STOICHIOMETRY) * processes.rates[None, :]
    return _normalize_rows(num)


def tpi(decomp: ModeDecomposition, processes) -> np.ndarray:
    """Timescale participation: share of each process in each eigenvalue.

    c[n,k] = beta^n . (d(S_k R_k)/dy) . alpha_n; the row sum equals the
    mode's eigenvalue (real part for complex pairs), verified to 1e-8
    relative before normalizing.
    """
    B = decomp.beta @ STOICHIOMETRY              # (4, 15)
    GA = processes.gradients @ decomp.alpha      # (15, 4)
    c = B * GA.T                                 # c[n, k]

    sums = c.sum(axis=1)
    lam_re = decomp.eigenvalues.real
    scale = np.maximum(np.abs(lam_re), 1e-12 * np.max(np.abs(decomp.eigenvalues)))
    bad = np.abs(sums - lam_re) > 1e-8 * scale
    if np.any(bad):
        n = int(np.argmax(bad))
        raise DecompositionError(
            f"timescale-participation row {n + 1} sums to {sums[n]:.12e}, "
            f"eigenvalue real part is {lam_re[n]:.12e}"
        )
    return _normalize_rows(c)


def pointer(decomp: ModeDecomposition) -> np.ndarray:
    """Diagonal projector weights: Po[m, i] = alpha[i, m] * beta[m, i].

    Each row sums to exactly 1 (biorthonormality); entries near 1 pin
    mode m to variable i.
    """
    return decomp.beta * decomp.alpha.T


def importance(decomp: ModeDecomposition, M: int, processes) -> np.ndarray:
    """Slow importance: share of process k in the slow part of dy_i/dt.

    Projects each process contribution onto modes M+1..4 and normalizes
    per variable.  M = 0 reduces to the signed shares of the raw
    equation terms.
    """
    if not 0 <= M < 4:
        raise ValueError(f"M must be in [0, 4), got {M}")
    B = decomp.beta @ STOICHIOMETRY
    num = decomp.alpha[:, M:] @ (B[M:, :] * processes.rates[None, :])
    return _normalize_rows(num)


def exhausted_count(decomp: ModeDecomposition, state: State,
                    rtol: float = 1e-3, atol: float = 1.0,
                    fixed: Optional[int] = None) -> int:
    """Number of fast dissipative modes already damped to local tolerance.

    Largest M such that modes 1..M are dissipative and each of their
    contributions to every variable, integrated over the next-slowest
    timescale, stays under rtol*|y_i| + atol.  A complex pair is never
    split across the fast/slow boundary.  `fixed` overrides the count.
    """
    if fixed is not None:
        if not 0 <= fixed < 4:
            raise ValueError(f"fixed M must be in [0, 4), got {fixed}")
        return int(fixed)
    y_abs = np.abs(state.array())
    contrib = np.abs(decomp.alpha * decomp.amplitudes[None, :])  # [i, r]
    for M in (3, 2, 1):
        if np.any(decomp.explosive[:M]):
            continue
        if decomp.complex_pair[M - 1] == M:
            continue  # boundary would split a conjugate pair
        tau_next = decomp.timescales[M]
        if np.all(contrib[:, :M] * tau_next < (rtol * y_abs + atol)[:, None]):
            return M
    return 0


def _growth_rates(Y, params: ParameterSet) -> np.ndarray:
    """Largest Re(lambda) of the Jacobian at each state row of Y."""
    return np.linalg.eigvals(_boundary_jacobians(Y, params)).real.max(axis=1)


def _bisect(event, a: float, b: float) -> Optional[float]:
    """A root of `event` in [a, b] to `_REFINE_TOL` days by midpoint
    bisection.  An endpoint where the event is 0 is returned; None when
    both endpoints have the same sign."""
    fa, fb = event(a), event(b)
    if fa == 0.0:
        return float(a)
    if fb == 0.0:
        return float(b)
    if (fa > 0.0) == (fb > 0.0):
        return None
    while b - a > _REFINE_TOL:
        mid = 0.5 * (a + b)
        fm = event(mid)
        if fm == 0.0:
            return float(mid)
        if (fm > 0.0) == (fa > 0.0):
            a = mid
        else:
            b = mid
    return float(0.5 * (a + b))


def explosive_stage(traj: Trajectory, params: ParameterSet) -> Optional[ExplosiveStage]:
    """First interval where the Jacobian has a positive-growth eigenvalue.

    Scans the dense output (grid refined `_SUBDIVIDE`-fold) in one batch,
    locates the sign changes of max Re lambda to `_REFINE_TOL` days, and
    reports the first interval; its end is the explosive-timescale end
    time t_exp.  Returns None when every scanned state is dissipative.
    """
    base = traj.t
    if len(base) < 2:
        return None
    times = np.unique(np.concatenate(
        [np.linspace(base[i], base[i + 1], _SUBDIVIDE + 1) for i in range(len(base) - 1)]
    ))
    inside = _growth_rates(dense_states(traj, times), params) > 0.0
    if not np.any(inside):
        return None

    first = int(np.argmax(inside))
    event = lambda t: float(_growth_rates(dense_states(traj, [t]), params)[0])
    if first == 0:
        start = float(times[0])
    else:
        start = _bisect(event, times[first - 1], times[first])
        if start is None:  # sign change narrower than the scan spacing
            start = float(times[first])

    after = np.nonzero(~inside[first:])[0]
    if len(after) == 0:
        end = float(times[-1])  # stage still open at the end of the run
    else:
        j = first + int(after[0])
        end = _bisect(event, times[j - 1], times[j])
        if end is None:
            end = float(times[j])

    mid = evaluate_dense(traj, 0.5 * (start + end))
    dec = decompose(mid, params)
    mode_index = int(np.argmax(dec.explosive)) + 1
    return ExplosiveStage(start=start, end=end, mode_index=mode_index)


def diagnostics_record(state: State, params: ParameterSet,
                       t_over_texp: float = np.nan,
                       fixed_M: Optional[int] = None) -> DiagnosticsRecord:
    """All four index tables at one state, with M from the exhausted-mode
    count unless overridden."""
    dec = decompose(state, params)
    ps = process_rates(state, params)
    M = exhausted_count(dec, state, fixed=fixed_M)
    return DiagnosticsRecord(
        time=state.t,
        t_over_texp=float(t_over_texp),
        M=M,
        api=api(dec, ps),
        tpi=tpi(dec, ps),
        pointer=pointer(dec),
        importance=importance(dec, M, ps),
        decomposition=dec,
    )
