import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ticsp import (
    DEFAULT_PARAMETERS,
    N_PROCESSES,
    STOICHIOMETRY,
    DomainError,
    ParameterSet,
    State,
    process_rates,
)
from ticsp.kinetics import (
    T_FLOOR,
    floor_state,
    floored_rhs,
    jacobian_array,
    jacobian_batch,
    rhs_array,
)
from helpers import assert_jacobian_close, count_calls, fd_jacobian, random_states

P = DEFAULT_PARAMETERS
REF_STATE = State(0.0, 1e6, 1e3, 10.0, 6e8)


def test_default_parameters_are_patient9():
    assert P.a == 4.31e-1
    assert P.b == 1.02e-9
    assert P.d == 2.34
    assert P.alpha == 7.50e8
    assert P.r2 == 6.50e-11
    assert P.q == 1.42e-6


def test_parameter_set_rejects_nonpositive_and_unknown():
    with pytest.raises(ValueError):
        ParameterSet(a=0.0)
    with pytest.raises(ValueError):
        ParameterSet(beta=-1.0)
    with pytest.raises(KeyError):
        ParameterSet.from_dict({"a": 0.4, "zz": 1.0})
    # missing keys fall back to defaults
    assert ParameterSet.from_dict({"d": 1.0}).m == P.m


def test_reference_rate_values():
    # independent hand evaluation at (T, N, L, C) = (1e6, 1e3, 10, 6e8)
    ps = process_rates(REF_STATE, P)
    assert ps.rates[1 - 1] == pytest.approx(430560.38, rel=1e-9)
    assert ps.rates[2 - 1] == pytest.approx(124.8, rel=1e-12)
    assert ps.rates[7 - 1] == pytest.approx(0.0641, rel=1e-12)
    assert ps.rates[13 - 1] == pytest.approx(3420.0, rel=1e-12)
    assert rhs_array(REF_STATE.array(), P)[0] == pytest.approx(430560.3149, rel=1e-9)


def test_d_saturation_reference_value():
    # x = (10/1e6)^2.09 = 10^(-10.45); D = d*x/(s+x)
    x = 10.0 ** (-5.0 * 2.09)
    expected = P.d * x / (P.s + x)
    assert process_rates(REF_STATE, P).D == pytest.approx(expected, rel=1e-12)
    assert process_rates(REF_STATE, P).D == pytest.approx(9.9e-10, rel=5e-3)


def test_d_saturation_limits():
    # exact zero at L = 0
    assert process_rates(State(0.0, 1e6, 0.0, 0.0, 1e8), P).D == 0.0
    # strictly below d while (T/L)^l is resolvable...
    D = process_rates(State(0.0, 1e-2, 0.0, 1e4, 1e8), P).D
    assert D == pytest.approx(P.d, rel=1e-12)
    assert D < P.d
    # ...and rounds to exactly d once s*(T/L)^l drops below machine epsilon
    assert process_rates(State(0.0, 1e-190, 0.0, 1e10, 1e8), P).D == P.d
    # monotone in L
    Ls = np.logspace(-2, 8, 41)
    Ds = [process_rates(State(0.0, 1e5, 0.0, L, 1e8), P).D for L in Ls]
    assert np.all(np.diff(Ds) > 0)
    assert all(0.0 <= D < P.d for D in Ds)


def test_extreme_ratio_gradients_finite():
    # deep in the saturated branch the Jacobian must stay finite
    J = jacobian_array(np.array([1e-150, 1e3, 1e10, 1e9]), P)
    assert np.all(np.isfinite(J))


def test_rates_nonnegative_on_feasible_domain():
    # nonnegativity holds up to the carrying capacity T <= 1/b
    for state in random_states(100, seed=11, t_decades=(0.0, 8.99)):
        ps = process_rates(state, P)
        assert np.all(ps.rates >= 0.0)
        assert 0.0 <= ps.D <= P.d  # == d only by rounding deep in saturation


def test_rhs_equals_stoichiometry_times_rates():
    for state in random_states(100, seed=7):
        ps = process_rates(state, P)
        brute = np.zeros(4)
        for k in range(1, N_PROCESSES + 1):
            brute += STOICHIOMETRY[:, k - 1] * ps.rates[k - 1]
        g = rhs_array(state.array(), P)
        scale = np.abs(STOICHIOMETRY) @ np.abs(ps.rates)  # gross turnover
        assert np.all(np.abs(g - brute) <= 1e-12 * scale)


def test_jacobian_matches_finite_differences():
    for state in random_states(100, seed=3):
        y = state.array()
        assert_jacobian_close(jacobian_array(y, P), fd_jacobian(y, P), y, rtol=1e-6)


def test_lymphocyte_row_is_linear():
    # dC/dt = alpha - beta*C: Jacobian row is (0, 0, 0, -beta) everywhere
    for state in random_states(20, seed=13):
        row = jacobian_array(state.array(), P)[3]
        assert np.array_equal(row, [0.0, 0.0, 0.0, -P.beta])


def test_domain_errors():
    with pytest.raises(DomainError):
        State(0.0, 1e6, -1.0, 0.0, 1e8)
    tumor_free = State(0.0, 0.0, 1e3, 10.0, 6e8)  # T = 0 representable, not evaluable
    with pytest.raises(DomainError):
        rhs_array(tumor_free.array(), P)
    with pytest.raises(DomainError):
        process_rates(tumor_free, P)


@pytest.mark.parametrize("bad", [
    [0.0, 1e3, 10.0, 6e8],       # T = 0
    [1e6, -1.0, 10.0, 6e8],      # negative population
    [1e6, 1e3, np.nan, 6e8],     # non-finite entry
    [1e6, 1e3, 10.0, np.inf],
])
def test_batch_domain_errors(bad):
    with pytest.raises(DomainError):
        jacobian_batch(np.array([REF_STATE.array(), bad]), P)


def test_batch_floor_row_with_large_cd8_is_silent_and_finite():
    # the masked-out L / T lane overflows for T = T_FLOOR and L = 1e9
    Y = np.array([[T_FLOOR, 1e3, 1e9, 6e8], REF_STATE.array()])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        J = jacobian_batch(Y, P)
    assert np.all(np.isfinite(J))
    assert np.array_equal(J[1], jacobian_array(REF_STATE.array(), P))


def test_stoichiometry_is_constant_integer():
    assert STOICHIOMETRY.shape == (4, N_PROCESSES)
    assert np.array_equal(STOICHIOMETRY, np.round(STOICHIOMETRY))
    assert not STOICHIOMETRY.flags.writeable
    # column sums: every process touches at least one population
    assert np.all(np.abs(STOICHIOMETRY).sum(axis=0) >= 1)


@settings(max_examples=50, deadline=None)
@given(
    eT=st.floats(0.0, 8.99),
    eN=st.floats(0.0, 7.0),
    eL=st.floats(0.0, 7.0),
    eC=st.floats(4.0, 11.0),
)
def test_property_rates_and_saturation(eT, eN, eL, eC):
    state = State(0.0, 10.0**eT, 10.0**eN, 10.0**eL, 10.0**eC)
    ps = process_rates(state, P)
    assert np.all(ps.rates >= 0.0)
    assert 0.0 <= ps.D <= P.d
    assert np.all(np.isfinite(ps.gradients))


# ---------------------------------------------------------------------------
# The T -> 0+ floor

SUBNORMAL = 5e-324


def test_floor_lifts_out_of_domain_entries():
    Y = np.array([
        [-1.0, 1e3, 10.0, 6e8],          # T < 0
        [0.0, 1e3, 10.0, 6e8],           # T = 0
        [-0.0, 1e3, 10.0, 6e8],
        [SUBNORMAL, 1e3, 10.0, 6e8],     # 0 < T < T_FLOOR
        [1e6, -2e-7, -0.5, -1e9],        # N, L, C < 0
    ])
    Z = floor_state(Y)
    assert Z.shape == Y.shape
    assert np.all(Z[:4, 0] == T_FLOOR)
    assert np.array_equal(Z[:4, 1:], Y[:4, 1:])
    assert np.array_equal(Z[4], [1e6, 0.0, 0.0, 0.0])
    for y, z in zip(Y, Z):                       # a single state of shape (4,)
        assert np.array_equal(floor_state(y), z)
    assert np.array_equal(Y[0], [-1.0, 1e3, 10.0, 6e8])  # input left untouched


def test_floor_keeps_values_above_it_bit_for_bit():
    Y = np.array([[T_FLOOR, 0.0, 0.0, 0.0],
                  [2e-300, SUBNORMAL, 1e-310, 1e-5],
                  [1e6, 1e3, 10.0, 6e8],
                  [9.8e8, 1.2e5, 3.3e7, 6.25e10]])
    assert floor_state(Y).tobytes() == Y.tobytes()
    for y in Y:
        assert floor_state(y).tobytes() == y.tobytes()


def test_floor_passes_nan_to_the_kinetics():
    Y = np.array([[np.nan, 1e3, 10.0, 6e8],
                  [1e6, np.nan, 10.0, 6e8],
                  [1e6, 1e3, 10.0, np.nan]])
    Z = floor_state(Y)
    assert np.array_equal(np.isnan(Z), np.isnan(Y))
    with pytest.raises(DomainError):
        rhs_array(Z[0], P)
    for z in Z:
        with pytest.raises(DomainError):
            jacobian_batch(z[None], P)


def test_floored_rhs_is_rhs_of_floored_state_bit_for_bit():
    Y = np.array([
        [-1.0, 1e3, 10.0, 6e8],
        [0.0, 1e3, 10.0, 6e8],
        [-0.0, -0.0, -0.0, -0.0],         # np.maximum lifts -0.0 to +0.0
        [SUBNORMAL, 1e3, 10.0, 6e8],
        [T_FLOOR, 0.0, 0.0, 0.0],
        [1e6, -2e-7, -0.5, -1e9],
        [2e-300, SUBNORMAL, 1e-310, 1e-5],
        [9.8e8, 1.2e5, 3.3e7, 6.25e10],
    ] + [s.array() for s in random_states(40, seed=11)])
    before = Y.copy()
    for y in Y:
        assert floored_rhs(y, P).tobytes() == rhs_array(floor_state(y), P).tobytes(), y
    assert Y.tobytes() == before.tobytes()       # input left untouched


@pytest.mark.parametrize("column", [0, 1, 2, 3])
def test_floored_rhs_rejects_nan(column):
    y = np.array([1e6, 1e3, 10.0, 6e8])
    y[column] = np.nan
    with pytest.raises(DomainError):
        floored_rhs(y, P)


@pytest.mark.parametrize("column", [1, 2, 3])
def test_scalar_kernels_reject_nan_immune_populations(column):
    y = np.array([1e6, 1e3, 10.0, 6e8])
    y[column] = np.nan
    with pytest.raises(DomainError, match="NaN"):
        rhs_array(y, P)
    with pytest.raises(DomainError, match="NaN"):
        jacobian_array(y, P)
    # `State` itself refuses NaN, so feed process_rates a bare record
    with pytest.raises(DomainError, match="NaN"):
        process_rates(SimpleNamespace(**dict(zip("TNLC", y))), P)


def test_jacobian_evaluates_no_rates(monkeypatch):
    calls = count_calls(monkeypatch, "kinetics._rates")
    jacobian_array(REF_STATE.array(), P)
    assert calls["kinetics._rates"] == 0
    process_rates(REF_STATE, P)
    assert calls["kinetics._rates"] == 1
