import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from ticsp import DEFAULT_PARAMETERS, DomainError, ParameterSet, equilibria
from ticsp.equilibria import (
    Equilibrium,
    bifurcation_scan,
    find_hte,
    hte_residual,
    hte_state,
    n_star,
    tfe,
    tfe_eigenvalues,
    tfe_stable,
    _brentq,
    _find_hte_many,
    _hte_grid_residuals,
    _nk_balance,
    _positive_quadratic_root,
    _hte_pieces,
    _SENTINEL,
    _T_GRID,
)
from ticsp.kinetics import jacobian_array, rhs_array

from helpers import count_calls

P = DEFAULT_PARAMETERS


def test_tfe_closed_form():
    main, twin = tfe(P)
    assert main.T == 0.0 and main.L == 0.0
    assert main.N == pytest.approx(P.alpha * P.e / (P.beta * P.f), rel=1e-14)
    assert main.N == pytest.approx(315534.0, rel=1e-5)
    assert main.C == pytest.approx(6.25e10, rel=1e-14)
    assert main.stable and main.feasible
    # the algebraic twin always has a negative CD8+ component
    assert twin.L == pytest.approx(-P.m * P.f * P.beta / (P.u * P.e * P.alpha), rel=1e-14)
    assert twin.L < 0.0 and not twin.feasible and not twin.stable


def test_tfe_eigenvalues_analytic():
    lams = tfe_eigenvalues(P)
    assert lams == pytest.approx([-1.90902023, -0.0412, -0.204, -0.012], rel=1e-8)
    assert tfe_stable(P)
    # stability predicate == (a-d) beta f < alpha c e, flips with small d
    assert ((P.a - P.d) * P.beta * P.f < P.alpha * P.c * P.e) == tfe_stable(P)
    assert not tfe_stable(P.replace(d=0.4))      # below the transcritical value
    assert tfe_stable(P.replace(d=0.44))


def test_tfe_eigenvalues_match_numeric_limit():
    # The tumor-free point itself (T = 0) is not evaluable; approach it
    # along the attracting region L/T >> 1 where the kill term saturates.
    main, _ = tfe(P)
    y = np.array([1e-10, main.N, 1e-4, main.C])
    numeric = np.sort(np.linalg.eigvals(jacobian_array(y, P)).real)
    analytic = np.sort(tfe_eigenvalues(P))
    assert np.allclose(numeric, analytic, rtol=1e-6)


def test_n_star_limits_and_reference():
    n0 = P.alpha * P.e / (P.beta * P.f)
    assert n_star(1e-6, P) == pytest.approx(n0, rel=1e-9)
    # stable high-tumor equilibrium's NK level (printed as 3.87)
    assert n_star(9.8e8, P) == pytest.approx(3.87, rel=5e-3)
    # large-T asymptote ~ alpha e / (beta p T)
    T = 1e10
    assert n_star(T, P) == pytest.approx(P.alpha * P.e / (P.beta * P.p * T), rel=2e-3)


def test_n_star_domain_error():
    with pytest.raises(DomainError):
        n_star(-1.0, P)
    # NK recruitment exceeding turnover makes the balance denominator vanish
    with pytest.raises(DomainError):
        n_star(1e4, P.replace(g=1.0))


def test_hte_residual_sentinels():
    # beyond the carrying capacity the kill requirement D* <= 0
    assert hte_residual(2e9, P) == -_SENTINEL
    # D* >= d when the required kill exceeds a reachable saturation level
    assert hte_residual(1.0, P.replace(d=0.1)) == +_SENTINEL
    # interior points are finite and smooth
    assert abs(hte_residual(1e7, P)) < 1e12


def test_positive_quadratic_root_against_bisection():
    for T in (1e5, 1e7, 5e8, 9.7e8):
        _, _, a2, b2, c2 = _hte_pieces(T, P)
        root = _positive_quadratic_root(a2, b2, c2)
        # brute-force bisection oracle on [0, 1e12]
        f = lambda L: a2 * L * L + b2 * L + c2
        lo, hi = 0.0, 1e12
        assert f(lo) > 0.0 > f(hi)
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if f(mid) > 0.0:
                lo = mid
            else:
                hi = mid
        assert root == pytest.approx(0.5 * (lo + hi), rel=1e-9)
        # quadratic residual at the root is zero relative to its terms
        scale = max(abs(a2) * root * root, abs(b2) * root, abs(c2))
        assert abs(f(root)) <= 1e-8 * scale


def test_find_hte_patient9():
    eqs = find_hte(P)
    assert len(eqs) == 2
    low, high = eqs
    assert low.T < high.T
    # stable branch matches the printed values to 2%
    assert high.T == pytest.approx(9.8e8, rel=0.02)
    assert high.N == pytest.approx(3.87, rel=0.02)
    assert high.L == pytest.approx(2.86e6, rel=0.02)
    assert high.C == pytest.approx(6.25e10, rel=0.02)
    assert high.stable
    # the lower root is a saddle between the TFE and the stable branch
    assert not low.stable
    assert np.max(low.eigenvalues.real) > 0.0
    assert 0.0 < low.T < high.T
    # every returned equilibrium satisfies the balance to solver accuracy
    for eq in eqs:
        g = rhs_array(eq.y, P)
        assert np.all(np.abs(g) < 1e-10 * np.maximum(1.0, np.abs(eq.y)))


def test_find_hte_regression_fixture():
    # this scanner's own fixture for the unstable saddle (no printed value exists)
    low = find_hte(P)[0]
    assert low.T == pytest.approx(1.9060902e7, rel=1e-6)


def test_find_hte_empty_past_saddle_node():
    assert find_hte(P.replace(d=1200.0)) == []


def test_find_hte_stability_epsilon(monkeypatch):
    assert [e.stable for e in find_hte(P)] == [False, True]
    # an absurdly large margin declares everything unstable
    monkeypatch.setattr(equilibria, "_EPS_STAB", 1e6)
    assert [e.stable for e in find_hte(P)] == [False, False]


def test_bifurcation_scan_d():
    scan = bifurcation_scan(P, "d", (0.01, 2000.0), steps=120, log=True)
    d_star = P.a - P.alpha * P.c * P.e / (P.beta * P.f)
    assert scan.transcritical == pytest.approx(d_star, rel=1e-10)
    assert d_star == pytest.approx(0.43098, abs=5e-6)
    # finite saddle-node past which both high-tumor branches vanish
    assert scan.saddle_node is not None
    assert 100.0 < scan.saddle_node < 2000.0
    assert find_hte(P.replace(d=scan.saddle_node * 1.5)) == []
    # TFE branch: unstable below the transcritical value, stable above
    tfe_branch = scan.branches[0]
    assert tfe_branch.kind == "TFE"
    for v, st in zip(tfe_branch.values, tfe_branch.stable):
        assert st == (v > d_star)


@pytest.mark.parametrize("value_range", [(2.34, 2000.0), (2000.0, 2.34)], ids=["up", "down"])
def test_saddle_node_is_the_fold_in_either_sweep_direction(value_range):
    scan = bifurcation_scan(P, "d", value_range, 50, log=True)
    counts = {float(v): len(find_hte(P.replace(d=float(v)))) for v in scan.values}
    # the pair disappears between the largest value with two HTE and the next
    pair = max(v for v, n in counts.items() if n == 2)
    assert counts[min(v for v in counts if v > pair)] == 0
    assert scan.saddle_node == pair
    assert scan.saddle_node == pytest.approx(1004.30422, rel=1e-8)


@pytest.mark.parametrize("value_range", [(0.05, 1.0), (1.0, 0.05)], ids=["up", "down"])
def test_saddle_node_is_none_without_a_fold(value_range):
    # the HTE count goes from one to two at the transcritical point: no pair appears
    scan = bifurcation_scan(P, "d", value_range, 40)
    assert scan.transcritical is not None
    assert scan.saddle_node is None


def test_bifurcation_matches_standalone_find_hte():
    scan = bifurcation_scan(P, "d", (2.34, 3.34), steps=2)
    standalone = find_hte(P)
    at_default = [
        (b.T_star[i], b.stable[i])
        for b in scan.branches if b.kind == "HTE"
        for i, v in enumerate(b.values) if v == 2.34
    ]
    assert sorted(at_default) == [(e.T, e.stable) for e in standalone]


def test_below_transcritical_single_stable_branch():
    eqs = find_hte(P.replace(d=0.1))
    assert len(eqs) == 1
    assert eqs[0].stable
    assert not tfe_stable(P.replace(d=0.1))


def test_bifurcation_scan_rejects_bad_input():
    with pytest.raises(KeyError):
        bifurcation_scan(P, "zz", (0.1, 1.0), 10)
    with pytest.raises(ValueError):
        bifurcation_scan(P, "d", (0.1, 1.0), 1)


@pytest.mark.parametrize("value_range, log, need", [
    ((1.0, np.inf), False, "finite"),
    ((np.nan, 1.0), False, "finite"),
    ((0.1, -np.inf), True, "finite and positive for a log scan"),
    ((0.0, 1.0), True, "finite and positive for a log scan"),
    ((-1.0, 1.0), True, "finite and positive for a log scan"),
])
def test_bifurcation_scan_rejects_a_bad_range_before_any_equilibrium(value_range, log, need,
                                                                    monkeypatch):
    calls = count_calls(monkeypatch, "equilibria._find_hte_many")
    with pytest.raises(ValueError, match=rf"^value_range ends must be {need}, got "
                                         rf"{re.escape(str(value_range))}$"):
        bifurcation_scan(P, "d", value_range, 10, log=log)
    assert not calls


# ---------------------------------------------------------------------------
# The one-pass grid scan of find_hte against the point-by-point scan

def _find_hte_loop(p):
    """find_hte as it was before the array grid pass: the scalar residual at
    each grid point, a Python loop over the brackets and one eigenvalue call
    per state (the test oracle)."""
    F = np.array([hte_residual(T, p) for T in _T_GRID])
    roots = []
    for i in range(len(_T_GRID) - 1):
        if F[i] == 0.0:
            roots.append(float(_T_GRID[i]))
        elif (F[i] > 0.0) != (F[i + 1] > 0.0):
            roots.append(brentq(hte_residual, _T_GRID[i], _T_GRID[i + 1], args=(p,),
                                rtol=4.0 * np.finfo(float).eps,
                                xtol=1e-13 * max(1.0, _T_GRID[i])))
    if F[-1] == 0.0:
        roots.append(float(_T_GRID[-1]))
    out = []
    for T in sorted(roots):
        if out and abs(T - out[-1].T) <= 1e-8 * T:
            continue
        y = hte_state(T, p)
        if np.all(y > 0.0):
            eigs = np.linalg.eigvals(jacobian_array(y, p))
            out.append(Equilibrium(kind="HTE", y=y, eigenvalues=eigs,
                                   stable=bool(np.all(eigs.real < -equilibria._EPS_STAB)),
                                   feasible=True))
    return out


def _assert_same_equilibria(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.T == b.T
        assert a.y.tobytes() == b.y.tobytes()
        assert a.eigenvalues.tobytes() == b.eigenvalues.tobytes()
        assert a.stable == b.stable


def _assert_grid_matches_scalar(p):
    F = _hte_grid_residuals(p)
    ref = np.array([hte_residual(T, p) for T in _T_GRID])
    assert np.array_equal(np.sign(F), np.sign(ref))
    assert np.array_equal(F == 0.0, ref == 0.0)
    assert np.array_equal(F == -_SENTINEL, ref == -_SENTINEL)
    assert np.array_equal(F == +_SENTINEL, ref == +_SENTINEL)
    return F


def _log_uniform(lo, hi):
    return st.floats(np.log10(lo), np.log10(hi)).map(lambda e: 10.0 ** e)


@given(
    st.one_of(st.floats(0.04, 1.25), _log_uniform(1.8, 2500.0)),
    st.sampled_from(["g", "j", "p"]),
    st.floats(0.5, 2.0),
)
@settings(max_examples=50, deadline=None, derandomize=True)
def test_grid_residual_signs_match_the_scalar_residual(d, name, factor):
    # d over both bifurcation_sweep ranges, one more rate constant scaled
    _assert_grid_matches_scalar(P.replace(d=d, **{name: getattr(P, name) * factor}))


def test_grid_residual_where_the_nk_denominator_vanishes():
    q = P.replace(g=1.0)
    F = _assert_grid_matches_scalar(q)
    infeasible = _nk_balance(_T_GRID, q)[1] <= 0.0
    assert 0 < infeasible.sum() < len(_T_GRID)
    assert np.all(F[infeasible] == -_SENTINEL)


@pytest.mark.parametrize("p", [P, P.replace(d=0.1), P.replace(d=1200.0)],
                         ids=["P", "d=0.1", "d=1200"])
def test_find_hte_bit_identical_to_the_loop_scan(p):
    _assert_same_equilibria(find_hte(p), _find_hte_loop(p))


@pytest.mark.parametrize("name, value_range, steps, log", [
    ("d", (0.05, 1.0), 48, False),
    ("d", (2.34, 2000.0), 60, True),
    *((name, (0.1 * getattr(P, name), 10.0 * getattr(P, name)), 40, True) for name in "gjpq"),
    ("l", (0.1 * P.l, 10.0 * P.l), 56, True),  # an exponent per lane
    ("d", (2.34, 2000.0), 5, True),  # a short sweep: 8 lanes
], ids=["d-linear", "d-log", "g-log", "j-log", "p-log", "q-log", "l-log", "d-log-short"])
def test_bifurcation_scan_bit_identical_to_the_loop_scan(name, value_range, steps, log,
                                                         monkeypatch):
    lockstep = count_calls(monkeypatch, "equilibria._hte_roots")
    scan = bifurcation_scan(P, name, value_range, steps, log=log)
    assert lockstep["equilibria._hte_roots"] == 1  # all brackets of a sweep, however few
    qs = [P.replace(**{name: float(v)}) for v in scan.values]
    oracle = {float(v): _find_hte_loop(q) for v, q in zip(scan.values, qs)}
    for v, q, eqs in zip(scan.values, qs, _find_hte_many(qs)):
        _assert_same_equilibria(eqs, oracle[float(v)])
        _assert_same_equilibria(find_hte(q), oracle[float(v)])
    entries = [(v, T, stable) for b in scan.branches[1:]
               for v, T, stable in zip(b.values, b.T_star, b.stable)]
    assert sorted(entries) == sorted((v, e.T, e.stable)
                                     for v, eqs in oracle.items() for e in eqs)


def test_scan_results_pinned_to_the_last_bit():
    # values of the point-by-point scan before the array grid pass
    assert [e.T.hex() for e in find_hte(P)] == ["0x1.22d8a6410f895p+24",
                                               "0x1.d355c39a44bf7p+29"]
    assert [e.T.hex() for e in find_hte(P.replace(d=0.1))] == ["0x1.d37b1c5d234aep+29"]
    assert hte_residual(1e7, P).hex() == "-0x1.3735033515683p+20"
    scan = bifurcation_scan(P, "d", (0.01, 2000.0), steps=120, log=True)
    assert scan.transcritical.hex() == "0x1.b952c30ef0ad0p-2"


# ---------------------------------------------------------------------------
# The package's Brent root finder against scipy's brentq

#: The benchmark's 200-step sweeps of d: linear around the transcritical
#: point, log from the fitted d through the fold.
BENCH_SWEEPS = {"linear": np.linspace(0.05, 1.0, 200), "log": np.geomspace(2.34, 2000.0, 200)}


def _traced(f):
    """f and the list of the points it is called at."""
    xs = []

    def traced(x, *args):
        xs.append(x)
        return f(x, *args)

    return traced, xs


def _lockstep_passes(monkeypatch):
    """The points of each lockstep residual pass, as they are made."""
    passes = []
    original = equilibria._hte_residuals

    def traced(T, p, power=pow):
        if power is equilibria._libm_pow:
            passes.append(T.tolist())
        return original(T, p, power)

    monkeypatch.setattr(equilibria, "_hte_residuals", traced)
    return passes


def _lane_points(passes, counts):
    """Each lane's evaluation points from the lockstep's passes: the first
    holds every lane's a then every lane's b, and pass t >= 1 the t-th
    iterate of each lane still running, in lane order; a lane whose own
    call makes `counts[k]` evaluations runs for the passes t < counts[k] - 1."""
    n = len(counts)
    xs = [[passes[0][k], passes[0][n + k]] for k in range(n)]
    for t, points in enumerate(passes[1:], start=1):
        running = [k for k in range(n) if counts[k] > t + 1]
        assert len(points) == len(running)
        for k, x in zip(running, points):
            xs[k].append(x)
    return xs


@pytest.mark.parametrize("sweep", sorted(BENCH_SWEEPS))
def test_brentq_matches_scipy_on_every_hte_bracket_of_the_benchmark_sweeps(sweep, monkeypatch):
    lanes, refs = [], []
    for v in BENCH_SWEEPS[sweep]:
        q = P.replace(d=float(v))
        F = _hte_grid_residuals(q)
        for i in np.flatnonzero((F[:-1] != 0.0) & ((F[:-1] > 0.0) != (F[1:] > 0.0))):
            a, b = _T_GRID[i], _T_GRID[i + 1]
            xtol, rtol = 1e-13 * max(1.0, a), 4.0 * np.finfo(float).eps
            ours, ours_xs = _traced(hte_residual)
            ref, ref_xs = _traced(hte_residual)
            root = _brentq(lambda T: ours(T, q), a, b, xtol, rtol)
            assert root.hex() == brentq(ref, a, b, args=(q,), xtol=xtol, rtol=rtol).hex()
            assert ours_xs == ref_xs
            lanes.append((q, i))
            refs.append((root, ref_xs))
    assert len(lanes) == {"linear": 320, "log": 360}[sweep]
    # the lockstep, every bracket a lane: each lane's root and points are scipy's
    passes = _lockstep_passes(monkeypatch)
    i = np.array([i for _, i in lanes])
    roots = equilibria._hte_roots(np.array([equilibria._constants(q) for q, _ in lanes]).T,
                                  _T_GRID[i], _T_GRID[i + 1])
    assert [r.hex() for r in roots.tolist()] == [root.hex() for root, _ in refs]
    assert _lane_points(passes, [len(xs) for _, xs in refs]) == [xs for _, xs in refs]


def test_a_sweep_refines_its_roots_in_lockstep(monkeypatch):
    calls = count_calls(monkeypatch, "equilibria.hte_residual", "equilibria._brentq",
                        "equilibria._hte_roots")
    passes = _lockstep_passes(monkeypatch)
    bifurcation_scan(P, "d", (2.34, 2000.0), 200, log=True)
    assert calls == {"equilibria._hte_roots": 1}
    # one pass at the brackets' ends, then one per Brent step of the slowest
    # lane, then the state rebuild's pass at the 360 roots
    assert len(passes) == 13
    assert len(passes[0]) == 2 * 360
    assert len(passes[-1]) == 360
    # a single parameter set takes the same path with its two brackets
    calls.clear()
    find_hte(P)
    assert calls == {"equilibria._hte_roots": 1}


def _rewrite_off_grid(monkeypatch, name, change):
    """Rewrite what `equilibria.<name>` returns at T* off the grid in
    (1e7, 3e7), around the saddle HTE, by `change(result, hit)`: the grid
    pass never sees it and the refinement of the saddle's bracket does."""
    original = getattr(equilibria, name)

    def patched(T, *args):
        hit = (1e7 < T) & (T < 3e7) & ~np.isin(T, _T_GRID)
        return change(original(T, *args), hit)

    monkeypatch.setattr(equilibria, name, patched)


@pytest.mark.parametrize("name, change, error", [
    # b2 = 0 with c2 -> -c2 gives disc = 4 a2 c2 < 0
    ("_kill_and_quadratic",
     lambda out, hit: (*out[:2], np.where(hit, 0.0, out[2]), np.where(hit, -out[3], out[3])),
     DomainError),
    ("_cd8_for_kill", lambda L_D, hit: np.where(hit, np.nan, L_D), ValueError),
], ids=["negative-discriminant", "nan"])
def test_refinement_raises_what_the_scalar_path_raises(monkeypatch, name, change, error):
    _rewrite_off_grid(monkeypatch, name, change)
    qs = [P.replace(d=float(v)) for v in np.linspace(2.3, 2.4, 40)]  # 80 brackets
    i = np.searchsorted(_T_GRID, 1.906e7) - 1  # the first set's saddle bracket
    with pytest.raises(error) as ref:
        brentq(hte_residual, _T_GRID[i], _T_GRID[i + 1], args=(qs[0],),
               xtol=1e-13 * _T_GRID[i], rtol=4.0 * np.finfo(float).eps)
    lockstep = count_calls(monkeypatch, "equilibria._hte_roots")
    for call in (lambda: _find_hte_many(qs), lambda: find_hte(qs[0])):
        with pytest.raises(error, match=f"^{re.escape(str(ref.value))}$"):
            call()
    assert lockstep["equilibria._hte_roots"] == 2  # one per call


def test_brentq_matches_scipy_on_the_transcritical_margin():
    values = BENCH_SWEEPS["linear"]
    margins = [equilibria._tfe_margin(P.replace(d=float(v))) for v in values]
    i = next(i for i in range(len(values) - 1) if margins[i] * margins[i + 1] < 0.0)
    ours, ours_xs = _traced(lambda v: equilibria._tfe_margin(P.replace(d=v)))
    ref, ref_xs = _traced(lambda v: equilibria._tfe_margin(P.replace(d=v)))
    root = _brentq(ours, values[i], values[i + 1], 2e-12, 1e-12)
    assert root.hex() == brentq(ref, values[i], values[i + 1], rtol=1e-12).hex()
    assert ours_xs == ref_xs
    assert bifurcation_scan(P, "d", (0.05, 1.0), 200).transcritical == root


@pytest.mark.parametrize("f, a, b", [
    (lambda x: x * x + 1.0, -1.0, 1.0),                          # same sign at both ends
    (lambda x: math.nan if x > 0.5 else x - 0.25, -1.0, 1.0),    # NaN at an end
    (lambda x: math.nan if 0.0 < x < 1.0 else x - 0.5, -1.0, 2.0),  # NaN at an iterate
], ids=["same-sign", "nan-at-end", "nan-inside"])
def test_brentq_raises_what_scipy_raises(f, a, b):
    with pytest.raises(ValueError) as ref:
        brentq(f, a, b)
    with pytest.raises(ValueError, match=f"^{re.escape(str(ref.value))}$"):
        _brentq(f, a, b, 2e-12, 4.0 * np.finfo(float).eps)


def test_find_hte_many_keeps_each_states_own_eigenvalue_dtype():
    # at g = 0.783 one state has complex eigenvalues; its stacked call still
    # hands the others the real arrays their own calls return
    qs = [P, P.replace(g=0.783), P.replace(d=0.1)]
    got = _find_hte_many(qs)
    assert [e.eigenvalues.dtype.kind for e in got[1]] == ["f", "c", "f", "f"]
    for eqs, q in zip(got, qs):
        _assert_same_equilibria(eqs, _find_hte_loop(q))


# float.hex of T* and of each eigenvalue's (real, imaginary) parts, recorded
# with one find_hte call and one eigenvalue call per state
_PINNED = {
    0.1: [("0x1.d37b1c5d234aep+29", [("-0x1.b9533444c1000p-2", "0x0.0p+0"),
                                     ("-0x1.5c13d7a0e5b8dp+10", "0x0.0p+0"),
                                     ("-0x1.a31d8ad29fde2p+11", "0x0.0p+0"),
                                     ("-0x1.89374bc6a7efap-7", "0x0.0p+0")])],
    0.43: [("0x1.d3759ca37c711p+29", [("-0x1.b9432a30bd000p-2", "0x0.0p+0"),
                                      ("-0x1.5c1056aaef368p+10", "0x0.0p+0"),
                                      ("-0x1.a3189cc05ad11p+11", "0x0.0p+0"),
                                      ("-0x1.89374bc6a7efap-7", "0x0.0p+0")])],
    2.34: [("0x1.22d8a6410f895p+24", [("0x1.678640d177880p-1", "0x0.0p+0"),
                                      ("-0x1.b91287728b9e2p+4", "0x0.0p+0"),
                                      ("-0x1.04e17a857d572p+6", "0x0.0p+0"),
                                      ("-0x1.89374bc6a7efap-7", "0x0.0p+0")]),
           ("0x1.d355c39a44bf7p+29", [("-0x1.b8e6454a9e000p-2", "0x0.0p+0"),
                                      ("-0x1.5bf8df8c6068bp+10", "0x0.0p+0"),
                                      ("-0x1.a2fc0f4a3042bp+11", "0x0.0p+0"),
                                      ("-0x1.89374bc6a7efap-7", "0x0.0p+0")])],
    500.0: [("0x1.3ec1c09931147p+28", [("0x1.c8df1f48e9400p-2", "0x0.0p+0"),
                                       ("-0x1.dad1fca26be58p+8", "0x0.0p+0"),
                                       ("-0x1.1dc8757013949p+10", "0x0.0p+0"),
                                       ("-0x1.89374bc6a7efap-7", "0x0.0p+0")]),
            ("0x1.ac71085975013p+29", [("-0x1.4774ce2baa000p-2", "0x0.0p+0"),
                                       ("-0x1.3f043e895f58bp+10", "0x0.0p+0"),
                                       ("-0x1.801d86ce35005p+11", "0x0.0p+0"),
                                       ("-0x1.89374bc6a7efap-7", "0x0.0p+0")])],
    1100.0: [],
}


@pytest.mark.parametrize("d", sorted(_PINNED))
def test_find_hte_eigenvalues_pinned_to_the_last_bit(d):
    got = [(e.T.hex(), [(w.real.hex(), w.imag.hex()) for w in e.eigenvalues])
           for e in find_hte(P.replace(d=d))]
    assert got == _PINNED[d]


def test_bifurcation_scan_memory_is_bounded():
    # one grid pass per chunk of swept values, not one for the whole sweep
    tracemalloc.start()
    try:
        bifurcation_scan(P, "d", (2.34, 2000.0), 200, log=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2e6, peak


def _patched_quadratic(monkeypatch, change):
    original = equilibria._kill_and_quadratic

    def patched(T, N, p, *power):
        D, a2, b2, c2 = original(T, N, p, *power)
        return (D, a2, *change(b2, c2))

    monkeypatch.setattr(equilibria, "_kill_and_quadratic", patched)


@pytest.mark.parametrize("change, message", [
    # c2 -> -c2 with b2 = 0 gives disc = 4 a2 c2 < 0
    (lambda b2, c2: (0.0 * b2, -c2),
     "negative discriminant in the CD8+ equilibrium quadratic"),
    # c2 = 0 with b2 < 0 leaves the roots 0 and b2/|a2| < 0
    (lambda b2, c2: (-abs(b2) - 1.0, 0.0 * c2),
     "no positive CD8+ root (should be impossible for positive parameters)"),
], ids=["negative-discriminant", "no-positive-root"])
def test_grid_raises_the_scalar_domain_errors(monkeypatch, change, message):
    # a feasible grid point where the CD8+ quadratic fails, forced by
    # rewriting its coefficients; the grid pass raises what the scalar does
    _patched_quadratic(monkeypatch, change)
    T = 1e7
    assert 0.0 < _hte_pieces(T, P)[1] < P.d
    for call in (lambda: hte_residual(T, P), lambda: _hte_grid_residuals(P),
                 lambda: find_hte(P)):
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            call()


def test_bifurcation_scan_builds_one_parameter_set_per_value(monkeypatch):
    replaced = []
    original = ParameterSet.replace

    def counted(self, **changes):
        replaced.append(changes["d"])
        return original(self, **changes)

    monkeypatch.setattr(ParameterSet, "replace", counted)
    scan = bifurcation_scan(P, "d", (0.05, 1.0), 40)
    swept = [float(v) for v in scan.values]
    assert replaced[:len(swept)] == swept
    # the rest are the transcritical refinement's _brentq evaluations
    assert len(replaced) - len(swept) < 20
