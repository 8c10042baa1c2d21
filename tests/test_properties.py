"""Property-based invariants over the feasible state space (hypothesis)."""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ticsp import DEFAULT_PARAMETERS, State
from ticsp.csp import api, decompose, pointer, tpi
from ticsp.kinetics import (
    STOICHIOMETRY,
    T_FLOOR,
    d_saturation,
    jacobian_array,
    jacobian_batch,
    process_rates,
    rates_array,
    rhs_array,
)

P = DEFAULT_PARAMETERS

COMMON = dict(max_examples=50, deadline=None, derandomize=True)


def log_uniform(lo_exp: float, hi_exp: float):
    return st.floats(min_value=lo_exp, max_value=hi_exp,
                     allow_nan=False).map(lambda e: 10.0 ** e)


feasible_states = st.builds(
    State,
    t=st.just(0.0),
    T=log_uniform(0.0, 10.0),
    N=log_uniform(2.0, 7.0),
    L=log_uniform(1.0, 7.0),
    C=log_uniform(8.7, 11.0),
)


@given(feasible_states)
@settings(**COMMON)
def test_mode_basis_is_biorthonormal(state):
    dec = decompose(state, P)
    assert np.max(np.abs(dec.beta @ dec.alpha - np.eye(4))) < 1e-10


@given(feasible_states)
@settings(**COMMON)
def test_modes_reconstruct_the_vector_field(state):
    dec = decompose(state, P)
    g = rhs_array(state.array(), P)
    recon = (dec.alpha @ dec.amplitudes).real
    assert np.max(np.abs(recon - g)) <= 1e-8 * np.max(np.abs(g))


@given(feasible_states)
@settings(**COMMON)
def test_timescales_sorted_and_positive(state):
    dec = decompose(state, P)
    assert np.all(dec.timescales > 0.0)
    assert np.all(np.diff(dec.timescales) >= 0.0)


@given(feasible_states)
@settings(**COMMON)
def test_index_rows_are_normalized(state):
    dec = decompose(state, P)
    ps = process_rates(state, P)
    assert np.allclose(np.abs(api(dec, ps)).sum(axis=1), 1.0, atol=1e-10)
    assert np.allclose(np.abs(tpi(dec, ps)).sum(axis=1), 1.0, atol=1e-10)
    assert np.allclose(pointer(dec).sum(axis=1), 1.0, atol=1e-10)


@given(feasible_states, st.integers(min_value=0, max_value=3))
@settings(**COMMON)
def test_observables_invariant_under_mode_sign_flip(state, mode):
    dec = decompose(state, P)
    flipped = dec.mode_sign_flipped(mode)
    ps = process_rates(state, P)
    # participation rows change sign with the mode; the physically
    # observable pointer and timescale-participation rows do not
    assert np.array_equal(api(flipped, ps)[mode], -api(dec, ps)[mode])
    assert np.allclose(pointer(flipped), pointer(dec), atol=1e-12)
    assert np.allclose(tpi(flipped, ps), tpi(dec, ps), atol=1e-12)


@given(
    log_uniform(0.0, 10.0),
    log_uniform(1.0, 7.0),
    st.floats(min_value=1.1, max_value=4.0, allow_nan=False),
)
@settings(**COMMON)
def test_lysis_saturation_bounded_and_monotone(T, L, factor):
    d_lo = d_saturation(State(0.0, T, 1.0, L, 1e10), P)
    d_hi = d_saturation(State(0.0, T, 1.0, L * factor, 1e10), P)
    assert 0.0 <= d_lo <= P.d
    assert 0.0 <= d_hi <= P.d
    assert d_hi >= d_lo  # more effectors, more killing


@given(
    feasible_states,
    st.floats(min_value=-6.0, max_value=-1e-3, allow_nan=False),
    st.floats(min_value=0.0, max_value=6.0, allow_nan=False),
)
@settings(**COMMON)
def test_jacobian_batch_matches_scalar_kernel(state, below, above):
    # one stack covering both saturation branches (L < T, L >= T), L = 0 and
    # the T = 1e-300 row the stage scan uses for a tumor clipped to zero
    T, N, L, C = state.T, state.N, state.L, state.C
    Y = np.array([
        [T, N, L, C],
        [T, N, 0.0, C],
        [T, N, T * 10.0 ** below, C],
        [T, N, T * 10.0 ** above, C],
        [1e-300, N, L, C],
    ])
    for y, J in zip(Y, jacobian_batch(Y, P)):
        ref = jacobian_array(y, P)
        assert np.max(np.abs(J - ref)) <= 1e-12 * np.max(np.abs(ref))


@given(
    feasible_states,
    st.floats(min_value=-6.0, max_value=-1e-3, allow_nan=False),
    st.floats(min_value=0.0, max_value=6.0, allow_nan=False),
)
@settings(**COMMON)
def test_solver_rates_match_process_rates_bit_for_bit(state, below, above):
    # the rates-only solver kernel against the rates-and-gradients path, on
    # L = 0, both saturation branches (L < T, L >= T) and T at the floor
    T, N, L, C = state.T, state.N, state.L, state.C
    for y in ([T, N, L, C], [T, N, 0.0, C], [T, N, T * 10.0 ** below, C],
              [T, N, T * 10.0 ** above, C], [T_FLOOR, N, L, C]):
        ref = process_rates(State(0.0, *y), P).rates
        assert rates_array(np.array(y), P).tobytes() == ref.tobytes()


@given(
    feasible_states,
    st.floats(min_value=-6.0, max_value=-1e-3, allow_nan=False),
    st.floats(min_value=0.0, max_value=6.0, allow_nan=False),
)
@settings(**COMMON)
def test_solver_jacobian_matches_process_gradients_bit_for_bit(state, below, above):
    # the gradients-only solver kernel against the rates-and-gradients path,
    # on L = 0, both saturation branches (L < T, L >= T) and T at the floor
    T, N, L, C = state.T, state.N, state.L, state.C
    for y in ([T, N, L, C], [T, N, 0.0, C], [T, N, T * 10.0 ** below, C],
              [T, N, T * 10.0 ** above, C], [T_FLOOR, N, L, C]):
        ref = STOICHIOMETRY @ process_rates(State(0.0, *y), P).gradients
        assert jacobian_array(np.array(y), P).tobytes() == ref.tobytes()
