import numpy as np
import pytest

from ticsp import DEFAULT_PARAMETERS, DomainError
from ticsp.equilibria import (
    bifurcation_scan,
    classify_stability,
    find_hte,
    hte_residual,
    hte_state,
    n_star,
    tfe,
    tfe_eigenvalues,
    tfe_stable,
    _positive_quadratic_root,
    _hte_pieces,
    _SENTINEL,
)
from ticsp.kinetics import jacobian_array, rhs_array

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


def test_classify_stability_epsilon():
    eq = find_hte(P)[1]
    strict = classify_stability(eq, P, eps_stab=1e-12)
    assert strict.stable
    # an absurdly large margin declares everything unstable
    assert not classify_stability(eq, P, eps_stab=1e6).stable


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
