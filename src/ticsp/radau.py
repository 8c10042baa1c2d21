"""scipy 1.17.1's Radau IIA solver, lean: the step engine of `integrator._radau`.

`_Radau`, its dense output and `_OdeSolution` are lean copies of scipy
1.17.1's Radau and `OdeSolution` for real states, float tolerances, a
callable Jacobian, forward runs and 1-D arrays of output times.  Each
solve with the Radau iteration matrix is numpy's own LAPACK gesv (getrf
then getrs), which returns scipy's `lu_factor`/`lu_solve` bits.  On these
4x4 systems scipy's per-call wrappers cost more than the arithmetic, and
they are what the copies drop; they keep every floating-point operation
and its order, so steps, counters and dense output stay bit-identical to
the stock solver, which the tests use as the oracle.
"""
import cmath
import itertools
import math
import warnings

import numpy as np
from numpy.linalg._umath_linalg import slogdet as _slogdet, solve1 as _gesv

class LinAlgWarning(RuntimeWarning):
    """An exactly singular Radau iteration matrix (as scipy's class of this name)."""


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


def _rms(v):
    """The RMS norm, scipy's `np.linalg.norm(v) / v.size ** 0.5`."""
    return np.sqrt(v.dot(v)) / v.size ** 0.5


class _Radau:
    """scipy 1.17.1's Radau IIA solver for real states, a callable Jacobian
    and forward runs, with a lean step and numpy's LAPACK gesv.

    `__init__` does what scipy's `OdeSolver` and `Radau` inits do here (the
    checks on y0 and rtol, `atol` being `IntegratorConfig`'s positive float,
    f0 and `select_initial_step`, the Newton tolerance, the Jacobian at t0);
    `step`, `status`, `t_old`, `dense_output` and the counters are the stock
    solver's, which can stand in for it.  `_step_impl` is scipy's with `solve_collocation_system`,
    `predict_factor` and the previous step's dense output inline.  They
    perform the same floating-point operations in the same order, on arrays
    of the same layout: every product stays a numpy/BLAS `dot`, whose
    summation order sets the last bits, `_rms` is `np.linalg.norm`'s sum
    for a real array, and the Z0 predictor takes the powers x, x*x, (x*x)*x
    in `cumprod`'s order.  So steps, counters and dense values are the stock
    solver's bit for bit.  What it drops is per-call overhead: the RHS
    wrapper (`fun` must return a float array of shape (n,)), a dense-output
    object per step, `np.errstate`, and scipy's `lu_factor`/`lu_solve` with
    their checks.  `lu` keeps the iteration matrix and its checks (non-finite
    input, singular matrix); `solve_lu` is numpy's gesv gufunc, the same
    getrf and getrs, which re-factors the 4x4 matrix with each solve.
    Finiteness is tested on Python floats, a list pass being cheaper here
    than `np.isfinite`.
    """

    TOO_SMALL_STEP = "Required step size is less than spacing between numbers."

    def __init__(self, fun, t0, y0, t_bound, rtol, atol, jac):
        if not t_bound > t0:
            raise ValueError("_Radau integrates forward in time only")
        y = np.asarray(y0).astype(float, copy=False)
        if y.ndim != 1:
            raise ValueError("`y0` must be 1-dimensional.")
        if not np.isfinite(y).all():
            raise ValueError("All components of the initial state `y0` must be finite.")
        self.newton_tol = max(10 * EPS / rtol, min(0.03, rtol ** 0.5))
        if rtol < 100 * EPS:
            warnings.warn("At least one element of `rtol` is too small. "
                          f"Setting `rtol = np.maximum(rtol, {100 * EPS})`.", stacklevel=2)
            rtol = np.maximum(rtol, 100 * EPS)
        self.t, self.y, self.t_bound, self.t_old, self.y_old = t0, y, t_bound, None, None
        self.rtol, self.atol = rtol, atol
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
        self.h_abs = min(100 * h0, h1, t_bound - t0)
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
        """A itself, for `solve_lu`.  An exactly singular A (a zero pivot
        of getrf, where slogdet's sign is 0) warns and comes back as NaN, so
        its solves are NaN without gesv's singular-matrix error."""
        self.nlu += 1
        if not all(map(cmath.isfinite, A.ravel().tolist())):
            raise ValueError("array must not contain infs or NaNs")
        if _slogdet(A)[0] == 0:
            warnings.warn("A pivot is exactly zero. Singular matrix.", LinAlgWarning, stacklevel=2)
            return np.full_like(A, np.nan)
        return A

    @staticmethod
    def solve_lu(A, b):
        if not all(map(cmath.isfinite, b.tolist())):
            raise ValueError("array must not contain infs or NaNs")
        return _gesv(A, b)

    def _step_impl(self):
        t, y, f = self.t, self.y, self.f
        rhs, solve_lu, jac = self._rhs, self.solve_lu, self.jac
        atol, rtol, tol, I = self.atol, self.rtol, self.newton_tol, self.I
        n = y.shape[0]

        min_step = 10 * (math.nextafter(t, math.inf) - t)
        if self.h_abs < min_step:
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
                    if not all(map(math.isfinite, F.ravel().tolist())):
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
    """scipy's `OdeSolution` for increasing step points `ts`, at 1-D arrays of
    times: a step point takes the earlier step's interpolant; sorted times make
    one call per step they fall in (this grouping sets each `dot`'s shape)."""

    def __init__(self, ts, interpolants):
        self.ts, self.interpolants = np.asarray(ts), interpolants

    def __call__(self, t):
        order = np.argsort(t)
        t_sorted = t[order]
        segments = np.minimum(np.maximum(np.searchsorted(self.ts, t_sorted) - 1, 0),
                              len(self.interpolants) - 1)
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
