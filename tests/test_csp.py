"""Mode decomposition, participation indices, explosive stage."""
import dataclasses
import hashlib

import numpy as np
import pytest

from ticsp import DEFAULT_PARAMETERS, State
from ticsp import csp
from ticsp.csp import (
    DecompositionError,
    _normalize_rows,
    api,
    decompose,
    diagnostics_record,
    diagnostics_records,
    exhausted_count,
    explosive_stage,
    importance,
    pointer,
    tpi,
)
from ticsp.equilibria import find_hte, tfe, tfe_eigenvalues
from ticsp.harness import SCENARIOS
from ticsp.integrator import IntegratorConfig, evaluate_dense, integrate
from ticsp.kinetics import STOICHIOMETRY, jacobian_array, process_rates, rhs_array

from helpers import count_calls, random_states

P = DEFAULT_PARAMETERS
TP0 = State(0.0, 1e6, 1e3, 1e1, 6e8)
TR0 = State(0.0, 1e7, 2e5, 1e2, 4e10)

# States with complex-conjugate eigenpairs (found by seeded search, frozen):
# explosive pair in the fastest slots,
PAIR_FAST = State(0.0, 2.53008244e4, 1.57695685e3, 2.60009843e3, 8.36410384e8)
# dissipative pair in the middle slots (1, 2).
PAIR_MID = State(0.0, 3.64416267e5, 1.58736442e3, 2.80885953e5, 1.78277422e10)


@pytest.fixture(scope="module")
def tp_traj():
    return integrate(TP0, P)


@pytest.fixture(scope="module")
def tp_stage(tp_traj):
    return explosive_stage(tp_traj, P)


def tp_record(tp_traj, tp_stage, frac, **kw):
    s = evaluate_dense(tp_traj, frac * tp_stage.end)
    return diagnostics_record(s, P, t_over_texp=frac, **kw)


# ---------------------------------------------------------------------------
# Decomposition

def test_biorthonormality_and_reconstruction_random():
    worst = 0.0
    for st in random_states(100):
        d = decompose(st, P)
        assert np.max(np.abs(d.beta @ d.alpha - np.eye(4))) < 1e-10
        g = rhs_array(st.array(), P)
        err = np.max(np.abs(d.alpha @ d.amplitudes - g)) / np.max(np.abs(g))
        worst = max(worst, err)
    assert worst < 1e-10


def test_modes_sorted_fastest_first():
    for st in random_states(50, seed=3):
        d = decompose(st, P)
        assert np.all(np.diff(d.timescales) >= 0)
        assert np.allclose(d.timescales, 1.0 / np.abs(d.eigenvalues))


def test_tfe_limit_all_dissipative():
    main = tfe(P)
    s = State(0.0, 1e-10, main.N, 1e-4, main.C)
    d = decompose(s, P)
    assert not d.explosive.any()
    got = np.sort(d.eigenvalues.real)
    ref = np.sort(tfe_eigenvalues(P).real)
    assert np.allclose(got, ref, rtol=1e-6)


def test_amplitudes_vanish_at_equilibrium():
    e1 = next(e for e in find_hte(P) if e.stable)
    d = decompose(State.from_array(0.0, e1.y), P)
    assert np.all(np.abs(d.amplitudes) < 1e-6)


def test_near_defective_guard(monkeypatch):
    import ticsp.csp as csp_mod
    monkeypatch.setattr(csp_mod, "_COND_LIMIT", 1.0)
    with pytest.raises(DecompositionError, match="condition number"):
        decompose(TP0, P)


def test_complex_pair_structure():
    d = decompose(PAIR_FAST, P)
    assert d.complex_pair == (1, 0, None, None)
    assert d.explosive[0] and d.explosive[1]
    assert d.timescales[0] == d.timescales[1]
    assert d.eigenvalues[0] == np.conj(d.eigenvalues[1])
    assert np.max(np.abs(d.beta @ d.alpha - np.eye(4))) < 1e-10
    g = rhs_array(PAIR_FAST.array(), P)
    assert np.max(np.abs(d.alpha @ d.amplitudes - g)) <= 1e-10 * np.max(np.abs(g))

    d2 = decompose(PAIR_MID, P)
    assert d2.complex_pair == (None, 2, 1, None)
    assert not d2.explosive.any()


def test_canonical_sign_dominant_api_positive():
    for st in random_states(50, seed=11):
        d = decompose(st, P)
        table = api(d, process_rates(st, P))
        for n in range(4):
            row = table[n]
            assert row[int(np.argmax(np.abs(row)))] > 0.0


# ---------------------------------------------------------------------------
# Index tables: invariants

def test_normalizations_random():
    for st in random_states(30, seed=21):
        d = decompose(st, P)
        ps = process_rates(st, P)
        assert np.max(np.abs(np.sum(np.abs(api(d, ps)), axis=1) - 1.0)) < 1e-10
        assert np.max(np.abs(np.sum(np.abs(tpi(d, ps)), axis=1) - 1.0)) < 1e-10
        assert np.max(np.abs(np.sum(pointer(d), axis=1) - 1.0)) < 1e-10
        for M in range(4):
            ii = importance(d, M, ps)
            assert np.max(np.abs(np.sum(np.abs(ii), axis=1) - 1.0)) < 1e-10


def test_tpi_rows_sum_to_eigenvalues():
    # tpi() itself verifies sum_k c = Re(lambda) to 1e-8 relative and raises
    # otherwise; run it across random states including complex-pair ones.
    checked_pair = 0
    for st in list(random_states(100, seed=31)) + [PAIR_FAST, PAIR_MID]:
        d = decompose(st, P)
        tpi(d, process_rates(st, P))
        if any(p is not None for p in d.complex_pair):
            checked_pair += 1
    assert checked_pair >= 2


def test_importance_m0_is_raw_equation_shares():
    st = TP0
    d = decompose(st, P)
    ps = process_rates(st, P)
    ii = importance(d, 0, ps)
    raw = STOICHIOMETRY * ps.rates[None, :]
    raw = raw / np.sum(np.abs(raw), axis=1, keepdims=True)
    assert np.max(np.abs(ii - raw)) < 1e-12


def test_importance_rejects_bad_m():
    d = decompose(TP0, P)
    ps = process_rates(TP0, P)
    for M in (-1, 4, 7):
        with pytest.raises(ValueError):
            importance(d, M, ps)


def test_sign_flip_invariance():
    d = decompose(TP0, P)
    ps = process_rates(TP0, P)
    sign = np.array([1.0, 1.0, -1.0, 1.0])   # mode 3's alpha, beta and f negated
    flipped = dataclasses.replace(d, alpha=d.alpha * sign, beta=d.beta * sign[:, None],
                                  amplitudes=d.amplitudes * sign)
    assert np.allclose(pointer(flipped), pointer(d), atol=1e-14)
    assert np.allclose(api(flipped, ps)[2], -api(d, ps)[2], atol=1e-14)
    # TPI is quadratic in the mode sign (alpha and beta flip together),
    # so a joint flip leaves it unchanged — its table signs are absolute
    assert np.allclose(tpi(flipped, ps), tpi(d, ps), atol=1e-14)
    other = [0, 1, 3]
    assert np.allclose(api(flipped, ps)[other], api(d, ps)[other], atol=1e-14)


def test_normalize_rows_zero_row_undefined():
    rows = np.array([[1.0, -3.0], [0.0, 0.0]])
    out = _normalize_rows(rows)
    assert np.allclose(out[0], [0.25, -0.75])
    assert np.isnan(out[1]).all()


# ---------------------------------------------------------------------------
# Exhausted-mode count

def test_exhausted_progression(tp_traj, tp_stage):
    assert exhausted_count(decompose(TP0, P)) < 2
    rec = tp_record(tp_traj, tp_stage, 0.5)
    assert rec.M == 2
    e1 = next(e for e in find_hte(P) if e.stable)
    s1 = State.from_array(0.0, e1.y)
    assert exhausted_count(decompose(s1, P)) == 3


def test_exhausted_fixed_override():
    assert diagnostics_record(TP0, P, fixed_M=1).M == 1
    with pytest.raises(ValueError, match=r"fixed M must be in \[0, 4\), got 4"):
        diagnostics_record(TP0, P, fixed_M=4)


def test_exhausted_never_splits_pair(monkeypatch):
    d = decompose(PAIR_MID, P)
    # with an infinite amplitude allowance, all three fast modes count
    monkeypatch.setattr(csp, "_EXHAUST_ATOL", 1e30)
    assert exhausted_count(d) == 3
    # force mode 3 explosive: M=3 impossible, M=2 would split the (1,2) pair
    forced = dataclasses.replace(d, explosive=np.array([False, False, True, False]))
    assert exhausted_count(forced) == 1


# ---------------------------------------------------------------------------
# Explosive stage

def test_tp_stage(tp_stage):
    assert tp_stage.start == 0.0
    assert abs(tp_stage.end - 16.2189) / 16.2189 < 0.01
    assert tp_stage.mode_index == 3
    assert tp_stage.t_exp == tp_stage.end


def test_tr_stage():
    traj = integrate(TR0, P)
    st = explosive_stage(traj, P)
    assert st.start == 0.0
    assert abs(st.end - 2.3016) / 2.3016 < 0.01
    assert st.mode_index == 3


# Stage boundaries and mode bit for bit (float.hex), frozen: the four
# reference cases, seven starts whose stage opens after t = 0, and TP cut
# at 10 days, while its stage is still open.
DELAYED = [(1e6, 1e5, 1e6, 6e8), (1e6, 1e5, 1e7, 6e8), (1e6, 1e5, 1e8, 6e8),
           (1e7, 1e3, 1e7, 6e8), (1e7, 1e5, 1e7, 6e8), (1e7, 1e3, 1e8, 6e8),
           (1e7, 1e5, 1e8, 6e8)]
STAGE_CASES = [
    pytest.param(SCENARIOS["TP"].state, None, "0x0.0p+0", "0x1.0380a00000000p+4", id="TP"),
    pytest.param(SCENARIOS["TR"].state, None, "0x0.0p+0", "0x1.26994c3e113f6p+1", id="TR"),
    pytest.param(SCENARIOS["TP1"].state, None, "0x0.0p+0", "0x1.2a21300000000p+5", id="TP1"),
    pytest.param(SCENARIOS["TR1"].state, None, "0x0.0p+0", "0x1.8aefe00000000p+4", id="TR1"),
] + [
    pytest.param(State(0.0, *y0), None, start, end, id="delayed-%g-%g-%g" % y0[:3])
    for y0, (start, end) in zip(DELAYED, [
        ("0x1.62bd68258f316p-4", "0x1.174d200000000p+4"),
        ("0x1.187a3a4a4daf1p-3", "0x1.2178e00000000p+4"),
        ("0x1.242bc73fa1203p-3", "0x1.22d3e00000000p+4"),
        ("0x1.34900de2ab9e8p-5", "0x1.64db400000000p+3"),
        ("0x1.ee1be5854363ep-8", "0x1.5643400000000p+3"),
        ("0x1.da99b16886c42p-3", "0x1.8c88c00000000p+3"),
        ("0x1.74ad5ef0ad142p-7", "0x1.5710400000000p+3"),
    ])
] + [
    pytest.param(SCENARIOS["TP"].state, IntegratorConfig(t_end=10.0), "0x0.0p+0",
                 "0x1.4000000000000p+3", id="TP-open-at-10d"),
]


@pytest.mark.parametrize("y0, config, start, end", STAGE_CASES)
def test_stage_bit_for_bit(y0, config, start, end):
    st = explosive_stage(integrate(y0, P, config), P)
    assert (st.start.hex(), st.end.hex(), st.mode_index) == (start, end, 3)


def test_stage_reads_the_growth_rate_only_at_bisection_midpoints(monkeypatch):
    # Both boundaries are refined from the scan's own labels: no single-point
    # read falls on a scan time, and there is one read per midpoint.
    traj = integrate(State(0.0, *DELAYED[0]), P)
    reads = []
    original = csp.dense_states

    def recorded(traj, times):
        reads.append(np.array(times, dtype=float))
        return original(traj, times)

    monkeypatch.setattr(csp, "dense_states", recorded)
    st = explosive_stage(traj, P)
    scan, points = reads[0], np.concatenate(reads[1:])
    assert all(len(r) == 1 for r in reads[1:])
    assert not np.isin(points, scan).any()
    midpoints = 0
    for t in (st.start, st.end):
        k = np.searchsorted(scan, t)
        width = scan[k] - scan[k - 1]
        while width > csp._REFINE_TOL:
            width *= 0.5
            midpoints += 1
    assert 0.0 < st.start and midpoints > 0
    assert len(points) == midpoints


def test_no_stage_from_stable_equilibrium():
    e1 = next(e for e in find_hte(P) if e.stable)
    traj = integrate(State.from_array(0.0, e1.y), P, IntegratorConfig(t_end=50.0))
    assert explosive_stage(traj, P) is None


def test_explosive_mode_is_third_and_fast_modes_dissipative(tp_traj, tp_stage):
    for frac in (0.25, 0.4, 0.6, 0.75):
        s = evaluate_dense(tp_traj, frac * tp_stage.end)
        d = decompose(s, P)
        assert bool(d.explosive[2])
        assert not d.explosive[0] and not d.explosive[1]


# ---------------------------------------------------------------------------
# Reference-table checkpoints (frozen from this implementation's TP/TR runs)

def test_tp_mid_stage_tables(tp_traj, tp_stage):
    rec = tp_record(tp_traj, tp_stage, 0.5)
    # mode 1: NK-cell balance (influx from lymphocytes vs tumor-driven loss)
    assert abs(rec.api[0, 12] - 0.5) < 0.02     # process 13
    assert abs(rec.api[0, 1] + 0.5) < 0.02      # process 2
    assert abs(rec.tpi[0, 12] + 1.0) < 0.02
    assert abs(rec.pointer[0, 1] - 1.0) < 0.01  # variable N
    # mode 2: effector-cell balance (recruitment vs inactivation)
    assert abs(rec.api[1, 11] - 0.5) < 0.02     # process 12
    assert abs(rec.api[1, 13] + 0.5) < 0.02     # process 14
    assert abs(rec.tpi[1, 13] + 1.0) < 0.02
    assert abs(rec.pointer[1, 2] - 1.0) < 0.01  # variable L


def test_diagnostics_record_evaluates_the_kinetics_once(tp_traj, tp_stage, monkeypatch):
    calls = count_calls(monkeypatch, "kinetics.process_rates", "kinetics.jacobian_array",
                        "kinetics.rhs_array")
    tp_record(tp_traj, tp_stage, 0.5)
    assert dict(calls) == {"kinetics.process_rates": 1}


def test_decomposition_from_rates_is_the_kinetics_bit_for_bit():
    # J = S G and f = S R from one `process_rates` call are the solver's
    # `jacobian_array` and `rhs_array`, bit for bit
    for s in random_states(20) + [TP0, TR0, PAIR_FAST, PAIR_MID]:
        ps = process_rates(s, P)
        assert np.array_equal(STOICHIOMETRY @ ps.gradients, jacobian_array(s.array(), P))
        assert np.array_equal(STOICHIOMETRY @ ps.rates, rhs_array(s.array(), P))


# sha256 over the bytes of every field of `diagnostics_record` on 400 seeded
# states and the two complex-pair states (52 of them with a pair), recorded
# while each record had its own one-state decomposition (frozen).
RECORD_DIGEST = "ea505ceb2df4fd474b8cc689e8a1ebe2c9108a580f32ced4dff8eb63b9bb7cdd"


def _record_digest(records):
    h = hashlib.sha256()
    for rec in records:
        d = rec.decomposition
        pairs = [-1 if j is None else j for j in d.complex_pair]
        for field in (rec.api, rec.tpi, rec.pointer, rec.importance, rec.M, d.eigenvalues,
                      d.alpha, d.beta, d.amplitudes, pairs):
            h.update(np.asarray(field).tobytes())
    return h.hexdigest()


def test_records_are_pinned_to_the_last_bit():
    states = random_states(400) + [PAIR_FAST, PAIR_MID]
    assert _record_digest(diagnostics_record(s, P) for s in states) == RECORD_DIGEST
    stacked = diagnostics_records(states, P, [np.nan] * len(states))
    assert _record_digest(stacked) == RECORD_DIGEST


def test_no_states_no_records():
    # the simulate and reduce path: run_scenario with checkpoints=()
    assert diagnostics_records([], P, []) == []


def test_tp_late_stage_explosive_mode(tp_traj, tp_stage):
    rec = tp_record(tp_traj, tp_stage, 0.8)
    assert abs(rec.tpi[2, 0] - 1.0) < 0.01      # tumor growth dominates
    assert abs(rec.pointer[2, 0] - 1.0) < 0.01  # pinned to T


def test_tp_early_stage_explosive_mode(tp_traj, tp_stage):
    rec = tp_record(tp_traj, tp_stage, 0.2)
    row = rec.tpi[2]
    assert abs(row[0] - 0.800) < 0.01
    assert abs(row[11] + 0.082) < 0.01
    assert abs(row[13] - 0.081) < 0.01
    assert abs(row[7] - 0.037) < 0.01


def test_tr_mid_stage_explosive_mode():
    traj = integrate(TR0, P)
    st = explosive_stage(traj, P)
    s = evaluate_dense(traj, 0.5 * st.end)
    rec = diagnostics_record(s, P, t_over_texp=0.5)
    row = rec.tpi[2]
    assert abs(row[13] - 0.366) < 0.015
    assert abs(row[11] + 0.363) < 0.015
    assert abs(row[0] - 0.158) < 0.015
    assert abs(row[7] - 0.107) < 0.015


def test_record_fields(tp_traj, tp_stage):
    rec = tp_record(tp_traj, tp_stage, 0.5, fixed_M=1)
    assert rec.M == 1
    assert rec.t_over_texp == 0.5
    assert rec.api.shape == (4, 15)
    assert rec.tpi.shape == (4, 15)
    assert rec.pointer.shape == (4, 4)
    assert rec.importance.shape == (4, 15)
    lone = diagnostics_record(TP0, P)
    assert np.isnan(lone.t_over_texp)


# ---------------------------------------------------------------------------
# Modes along the trajectory

def test_track_pins_pointer_along_trajectory(tp_traj, tp_stage):
    # in tau-sorted order the two fast modes keep their variables mid-stage
    for frac in np.linspace(0.2, 0.8, 7):
        s = evaluate_dense(tp_traj, frac * tp_stage.end)
        po = pointer(decompose(s, P))
        assert po[0, 1] > 0.95   # mode 1 stays pinned to N
        assert po[1, 2] > 0.95   # mode 2 stays pinned to L
