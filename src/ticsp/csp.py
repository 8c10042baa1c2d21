"""Timescale decomposition and mode-projection diagnostics.

The Jacobians of a stack of states are split into dynamical modes with
one eigen-solve and one inversion (leading-order basis: right
eigenvectors as columns, left basis by matrix inversion so
biorthonormality is exact); one state is a stack of one.  Modes are
sorted fastest-first by timescale tau = 1/|lambda|; complex-conjugate
eigenpairs become two real basis vectors (real and imaginary parts)
sharing one timescale.

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

`diagnostics_records` gives all four at several trajectory times from one
stacked decomposition.

Also: exhausted-mode counting (how many fast dissipative modes have
damped out at the local tolerance) and detection of the explosive stage
(the interval where the Jacobian has an eigenvalue with positive real
part).  Modes are always read in tau-sorted order.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .integrator import Trajectory, _bisect, dense_states, evaluate_dense
from .kinetics import (
    N_PROCESSES, STOICHIOMETRY, DomainError, ProcessSet, State, floor_state,
    jacobian_batch, process_rates,
)
from .params import ParameterSet

__all__ = [
    "DecompositionError", "ModeDecomposition", "DiagnosticsRecord",
    "ExplosiveStage", "decompose", "api", "tpi", "pointer", "importance",
    "exhausted_count", "explosive_stage", "diagnostics_record",
    "diagnostics_records", "mode_eigenvalues",
]

_COND_LIMIT = 1e12
_REFINE_TOL = 1e-4   # days: bisection tolerance of the stage boundaries
_SUBDIVIDE = 4       # the stage scan refines the output grid this many times
_EXHAUST_RTOL = 1e-3  # exhausted-mode tolerance: rtol*|y_i| + atol per variable
_EXHAUST_ATOL = 1.0   # cells


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


def _real_modes(J: np.ndarray):
    """Modes of a stack of Jacobians J (n, 4, 4), fastest first: the sorted
    eigenvalues, the real right bases as columns (a conjugate pair as its
    real and imaginary parts) and each mode's conjugate partner (-1 for a
    real mode).  Refuses near-defective eigenbases (condition number above
    `_COND_LIMIT`)."""
    w, V = np.linalg.eig(J)
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
    """Eigenmode decomposition at one state: `_decompose` of a stack of one."""
    return _decompose([state], [process_rates(state, params)])[0]


def _decompose(states: Sequence[State],
               process_sets: Sequence[ProcessSet]) -> list[ModeDecomposition]:
    """Decompositions of a stack of states from their rates and gradients
    (J = S G, f = S R).  Each mode's sign (alpha_n, beta^n, f^n jointly)
    makes its largest-magnitude amplitude-participation entry positive:
    the mode is multiplied by -1.0 or 1.0, both exact."""
    G = np.reshape([ps.gradients for ps in process_sets], (-1, N_PROCESSES, 4))
    R = np.reshape([ps.rates for ps in process_sets], (-1, N_PROCESSES))
    lam, alpha, partner = _real_modes(STOICHIOMETRY @ G)
    beta = np.linalg.inv(alpha)
    amplitudes = (beta @ (STOICHIOMETRY @ R[..., None]))[..., 0]

    terms = (beta @ STOICHIOMETRY) * R[:, None, :]           # (n, mode, process)
    k_dom = np.argmax(np.abs(terms), axis=-1)[..., None]
    sign = np.where(np.take_along_axis(terms, k_dom, -1)[..., 0] < 0.0, -1.0, 1.0)
    alpha = alpha * sign[:, None, :]
    beta = beta * sign[:, :, None]
    amplitudes = amplitudes * sign
    return [
        ModeDecomposition(
            state=state,
            eigenvalues=lam[i],
            alpha=alpha[i],
            beta=beta[i],
            timescales=1.0 / np.abs(lam[i]),
            amplitudes=amplitudes[i],
            explosive=lam[i].real > 0.0,
            complex_pair=tuple(None if j < 0 else int(j) for j in partner[i]),
        )
        for i, state in enumerate(states)
    ]


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


def exhausted_count(decomp: ModeDecomposition) -> int:
    """Number of fast dissipative modes already damped to local tolerance.

    Largest M such that modes 1..M are dissipative and each of their
    contributions to every variable of `decomp.state`, integrated over
    the next-slowest timescale, stays under rtol*|y_i| + atol
    (`_EXHAUST_RTOL`, `_EXHAUST_ATOL`).  A complex pair is never split
    across the fast/slow boundary (`diagnostics_records` can fix M instead).
    """
    bound = _EXHAUST_RTOL * np.abs(decomp.state.array()) + _EXHAUST_ATOL
    contrib = np.abs(decomp.alpha * decomp.amplitudes[None, :])  # [i, r]
    for M in (3, 2, 1):
        if np.any(decomp.explosive[:M]):
            continue
        if decomp.complex_pair[M - 1] == M:
            continue  # boundary would split a conjugate pair
        if np.all(contrib[:, :M] * decomp.timescales[M] < bound[:, None]):
            return M
    return 0


def _growth_rates(Y, params: ParameterSet) -> np.ndarray:
    """Largest Re(lambda) of the Jacobian at each state row of Y."""
    return np.linalg.eigvals(_boundary_jacobians(Y, params)).real.max(axis=1)


def explosive_stage(traj: Trajectory, params: ParameterSet) -> Optional[ExplosiveStage]:
    """First interval where the Jacobian has a positive-growth eigenvalue.

    Scans the dense output (grid refined `_SUBDIVIDE`-fold) in one batch,
    labelling each scan time by max Re lambda > 0.  Each boundary of the
    first positive run is refined to `_REFINE_TOL` days by
    `integrator._bisect` from the two scan labels around it, so the growth
    rate is read again only at the bisection's midpoints; the boundary is
    the final cell's midpoint.  The interval is reported; its end is the
    explosive-timescale end time t_exp (the last scan time if the stage
    is still open there).  Returns None when every scanned state is
    dissipative.
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

    inside_at = lambda t: _growth_rates(dense_states(traj, [t]), params)[0] > 0.0

    def refine(j: int) -> float:
        """The boundary in the scan cell (times[j-1], times[j])."""
        lo, hi = _bisect(inside_at, times[j - 1], times[j], _REFINE_TOL,
                         ends=(inside[j - 1], inside[j]))
        return float(0.5 * (lo + hi))

    first = int(np.argmax(inside))
    if first == 0:
        start = float(times[0])
    else:
        start = refine(first)

    after = np.nonzero(~inside[first:])[0]
    if len(after) == 0:
        end = float(times[-1])  # stage still open at the end of the run
    else:
        end = refine(first + int(after[0]))

    mid = evaluate_dense(traj, 0.5 * (start + end))
    if not mid.T > 0.0:
        raise DomainError(
            f"explosive stage from t = {start:.4f} to {end:.4f} d: the tumor was "
            f"clipped to 0 there (T = 0 at t = {mid.t:.4f} d), so the stage has "
            "no state to decompose")
    dec = decompose(mid, params)
    mode_index = int(np.argmax(dec.explosive)) + 1
    return ExplosiveStage(start=start, end=end, mode_index=mode_index)


def _check_fixed_M(fixed_M: Optional[int]) -> None:
    if fixed_M is not None and not 0 <= fixed_M < 4:
        raise ValueError(f"fixed M must be in [0, 4), got {fixed_M}")


def diagnostics_records(states: Sequence[State], params: ParameterSet,
                        fracs: Sequence[float],
                        fixed_M: Optional[int] = None) -> list[DiagnosticsRecord]:
    """All four index tables at each state, from one stacked decomposition.

    `fracs` gives each record's t/t_exp.  M is each state's exhausted-mode
    count, or `fixed_M` for every record when it is given.
    """
    _check_fixed_M(fixed_M)
    process_sets = [process_rates(state, params) for state in states]
    records = []
    for dec, ps, frac in zip(_decompose(states, process_sets), process_sets, fracs):
        M = exhausted_count(dec) if fixed_M is None else int(fixed_M)
        records.append(DiagnosticsRecord(
            time=dec.state.t,
            t_over_texp=float(frac),
            M=M,
            api=api(dec, ps),
            tpi=tpi(dec, ps),
            pointer=pointer(dec),
            importance=importance(dec, M, ps),
            decomposition=dec,
        ))
    return records


def diagnostics_record(state: State, params: ParameterSet,
                       t_over_texp: float = np.nan,
                       fixed_M: Optional[int] = None) -> DiagnosticsRecord:
    """All four index tables at one state: `diagnostics_records` of one."""
    return diagnostics_records([state], params, [t_over_texp], fixed_M)[0]
