"""Scenario bundles, perturbation comparisons, and table reporting."""
import dataclasses
import json

import numpy as np
import pytest

import ticsp.harness
import ticsp.integrator
from ticsp import DEFAULT_PARAMETERS
from ticsp.harness import (
    SCENARIOS,
    PerturbationSpec,
    Scenario,
    get_scenario,
    ii_persistence,
    joint_ii_persistence,
    ranked_entries,
    report_tables,
    run_scenario,
    scenario_from_json,
)
from ticsp.integrator import IntegrationError, IntegratorConfig, integrate

from helpers import count_calls

P = DEFAULT_PARAMETERS

# Taken directly from the model's published persistence summary: the union of
# per-case persistent processes over the four built-in scenarios.
PERSISTENT_UNION = {
    "T": (1, 8, 12, 14),
    "N": (1, 3, 6, 8, 12, 14),
    "L": (1, 3, 6, 8, 12, 14),
    "C": (3, 6),
}

# Frozen from the first verified build (per-case subsets of the union).
PERSISTENT_TP = {"T": (1,), "N": (1, 3, 6), "L": (3, 6), "C": (3, 6)}


# ---------------------------------------------------------------------------
# Scenario library

def test_builtin_scenarios():
    assert set(SCENARIOS) == {"TP", "TR", "TP1", "TR1"}
    tp = get_scenario("TP")
    assert (tp.T0, tp.N0, tp.L0, tp.C0) == (1e6, 1e3, 1e1, 6e8)
    assert tp.expect == "HTE"
    tr = get_scenario("TR")
    assert (tr.T0, tr.N0, tr.L0, tr.C0) == (1e7, 2e5, 1e2, 4e10)
    assert tr.expect == "TFE"
    assert get_scenario("TP1").T0 == 319393.0
    assert get_scenario("TR1").T0 == 319392.0


def test_unknown_scenario():
    with pytest.raises(ValueError, match="unknown scenario"):
        get_scenario("TPX")


def test_scenario_validation():
    for t_end in (0.0, float("inf"), float("nan")):
        with pytest.raises(ValueError, match="t_end"):
            Scenario("bad", 1e6, 1e3, 1e1, 6e8, t_end=t_end)
    with pytest.raises(ValueError, match="expect"):
        Scenario("bad", 1e6, 1e3, 1e1, 6e8, expect="cured")


def test_scenario_from_json(tmp_path):
    params_file = tmp_path / "params.json"
    params_file.write_text(json.dumps(P.scaled("a", 2.0).to_dict()))
    scenario_file = tmp_path / "case.json"
    scenario_file.write_text(json.dumps({
        "name": "custom", "T0": 2e6, "N0": 1e3, "L0": 10.0, "C0": 6e8,
        "t_end": 50.0, "expect": "HTE", "params_file": "params.json",
    }))
    scn = scenario_from_json(scenario_file)
    assert scn.name == "custom"
    assert scn.t_end == 50.0
    assert scn.params.a == 2.0 * P.a
    minimal = tmp_path / "minimal.json"
    minimal.write_text(json.dumps(
        {"name": "m", "T0": 1e6, "N0": 1e3, "L0": 10.0, "C0": 6e8}))
    scn2 = scenario_from_json(minimal)
    assert scn2.t_end == 200.0 and scn2.expect is None and scn2.params is None


# ---------------------------------------------------------------------------
# Scenario runs

def test_all_cases_reach_expected_attractors(scenario_results):
    for name, res in scenario_results.items():
        assert res.attractor == res.scenario.expect, name


def test_stage_durations(scenario_results):
    expected = {"TP": 16.2189, "TR": 2.3016, "TP1": 37.2662, "TR1": 24.6836}
    for name, t_exp in expected.items():
        res = scenario_results[name]
        assert res.stage is not None
        assert res.t_exp == pytest.approx(t_exp, rel=1e-3)
        assert res.stage.start == 0.0
        assert res.stage.mode_index == 3


def test_bundle_contents(scenario_results):
    res = scenario_results["TP"]
    assert [r.t_over_texp for r in res.records] == [0.0, 0.2, 0.5, 0.8]
    assert res.checkpoint(0.5).t_over_texp == 0.5
    with pytest.raises(KeyError):
        res.checkpoint(0.9)
    kinds = sorted((e.kind, e.stable) for e in res.equilibria)
    assert kinds == [("HTE", False), ("HTE", True), ("TFE", True)]
    assert res.errors.window is not None


def test_timescale_table(scenario_results):
    res = scenario_results["TP"]
    ts = res.timescales
    n = len(res.trajectory)
    assert ts.t.shape == (n,) and ts.tau.shape == (n, 4) and ts.re_lambda.shape == (n, 4)
    assert np.all(np.diff(ts.tau, axis=1) >= 0.0)  # ascending timescales
    in_stage = ts.t <= res.stage.end
    assert ts.explosive[in_stage & (ts.t > 0.1)].any()
    assert not ts.explosive[ts.t > res.stage.end + 0.5].any()


def test_timescale_table_survives_boundary_collapse(scenario_results):
    ts = scenario_results["TR"].timescales  # tumor clipped to 0 late on
    assert np.all(np.isfinite(ts.re_lambda))


def test_run_at_stable_equilibrium():
    from ticsp.equilibria import find_hte
    e1 = next(e for e in find_hte(P) if e.stable)
    res = run_scenario(Scenario("at-e1", *e1.y, t_end=5.0))
    assert res.stage is None
    assert res.records == ()
    assert res.attractor == "HTE"


def test_short_horizon_attractor_handling():
    # 25 days after the TP start the lymphocyte pool is still relaxing, so
    # the final state matches no equilibrium.  With settle=False the run
    # succeeds and simply reports no attractor.  Settling is the default: the
    # state is already in the certified escape region, so it is labelled HTE
    # at once; a run that is neither classified nor certified within 3x its
    # horizon (TP stopped after one day) still raises.
    cfg = IntegratorConfig(t_end=25.0)
    res = run_scenario("TP", config=cfg, settle=False)
    assert res.attractor is None
    assert res.stage is not None  # diagnostics unaffected by the short tail
    assert run_scenario("TP", config=cfg).attractor == "HTE"
    with pytest.raises(RuntimeError, match="trajectory did not settle"):
        run_scenario("TP", config=IntegratorConfig(t_end=1.0))


def test_partial_integration_raises(monkeypatch):
    def partial(*args, **kwargs):
        traj = integrate(*args, **kwargs)
        n = len(traj) // 2  # as if the step size had collapsed mid-run
        return dataclasses.replace(traj, t=traj.t[:n], y=traj.y[:n], complete=False)

    monkeypatch.setattr(ticsp.harness, "integrate", partial)
    with pytest.raises(IntegrationError, match="integration stopped"):
        run_scenario("TR", config=IntegratorConfig(t_end=5.0), settle=False)


def test_stage_and_equilibria_computed_once(monkeypatch):
    calls = count_calls(monkeypatch, "csp.explosive_stage", "equilibria.find_hte")
    res = run_scenario("TR")
    assert res.stage is not None and res.attractor == "TFE"
    assert calls == {"csp.explosive_stage": 1, "equilibria.find_hte": 1}


def test_records_and_persistence_take_one_eigen_solve_each(scenario_results, monkeypatch):
    # One stacked decomposition per set of records: a run makes one for the
    # stage's mode index, one for its four checkpoint records and one for
    # its timescale table, and a report's 33 persistence samples make one.
    calls = count_calls(monkeypatch, "csp._real_modes")
    assert len(run_scenario("TP").records) == 4
    assert calls["csp._real_modes"] == 3
    calls.clear()
    ii_persistence(scenario_results["TP"])
    assert calls["csp._real_modes"] == 1


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -0.5])
def test_bad_checkpoint_fails_before_the_run(bad, monkeypatch):
    calls = count_calls(monkeypatch, "integrator.integrate")
    with pytest.raises(ValueError, match=f"^checkpoints must be nonnegative and finite, got {bad!r}"):
        run_scenario("TP", checkpoints=(0.5, bad))
    assert not calls


def test_late_checkpoint_fails_before_any_record(monkeypatch):
    def forbidden(*args):
        raise AssertionError("a checkpoint was evaluated")

    monkeypatch.setattr(ticsp.harness, "evaluate_dense", forbidden)
    with pytest.raises(ValueError, match=r"^checkpoint 20\.0 x t_exp = 324\.378 days is "
                                         r"past the run's end at t = 200 days$"):
        run_scenario("TP", checkpoints=(0.5, 20.0))


@pytest.mark.parametrize("name, runs_before", [("TP", 2), ("TR", 2), ("TP1", 2), ("TR1", 3)])
def test_settle_reuses_the_certificates_on_the_final_state(name, runs_before, monkeypatch):
    # Each case ends its 200 days inside a certified region, so no settle
    # run follows the scenario's own; the attractor is the classifier's.
    calls = count_calls(monkeypatch, "integrator._radau")
    res = run_scenario(name, checkpoints=())
    assert calls["integrator._radau"] == 1
    calls.clear()
    monkeypatch.setattr(ticsp.integrator, "_certificates", lambda *args: [])
    assert run_scenario(name, checkpoints=()).attractor == res.attractor
    assert calls["integrator._radau"] == runs_before


def test_unmet_expect_raises():
    scn = dataclasses.replace(SCENARIOS["TR"], expect="HTE")
    with pytest.raises(RuntimeError, match="'TR'.*TFE.*expected HTE"):
        run_scenario(scn)


# ---------------------------------------------------------------------------
# Persistence summaries

def test_tp_persistence_frozen(scenario_results):
    assert ii_persistence(scenario_results["TP"]) == PERSISTENT_TP


def test_joint_persistence_union(scenario_results):
    joint = joint_ii_persistence(list(scenario_results.values()))
    assert joint == PERSISTENT_UNION


# ---------------------------------------------------------------------------
# Report tables

def test_ranked_entries_cumulative_rule():
    entries = ranked_entries(np.array([0.5, 0.3, 0.15, 0.05]), (1, 2, 3, 4))
    assert entries == ((1, 0.5), (2, 0.3), (3, 0.15))


def test_ranked_entries_tie_break_by_position():
    entries = ranked_entries(np.array([-0.4, 0.4, 0.2]), (1, 2, 3))
    assert [lab for lab, _ in entries] == [1, 2, 3]


def test_ranked_entries_nan_row():
    assert ranked_entries(np.array([np.nan, 1.0]), (1, 2)) == ()


def test_report_structure(scenario_results):
    res = scenario_results["TP"]
    tables = report_tables(res)
    assert res.scenario.name == "TP" and res.attractor == "HTE"
    assert res.t_exp == pytest.approx(16.2189, rel=1e-3)
    # 4 checkpoints x (4 modes x {API, TPI, Po} + 4 variables x II)
    assert len(tables) == 4 * 16
    assert ii_persistence(res) == PERSISTENT_TP

    def table(frac, kind, row):
        return next(t for t in tables
                    if t.t_over_texp == frac and t.kind == kind and t.row == row)

    tpi1 = table(0.5, "TPI", "mode 1")
    assert [lab for lab, _ in tpi1.entries] == [13]
    assert tpi1.entries[0][1] == pytest.approx(-1.0, abs=0.05)
    po1 = table(0.5, "Po", "mode 1")
    assert po1.entries[0][0] == "N"
    ii_t = table(0.5, "II", "T")
    assert all(isinstance(lab, int) for lab, _ in ii_t.entries)


def test_report_deterministic(scenario_results):
    res = scenario_results["TP"]
    assert report_tables(res) == report_tables(res)


# ---------------------------------------------------------------------------
# Perturbations

def test_perturbation_spec_validation():
    with pytest.raises(ValueError, match="positive"):
        PerturbationSpec("a", 0.0)
    with pytest.raises(ValueError, match="unknown parameter"):
        PerturbationSpec("zz", 0.5)


def test_perturbation_windows(perturbation_reports):
    rep = perturbation_reports[("a", 0.8)]
    t_min = min(rep.t_exp_base, rep.t_exp_perturbed)
    assert rep.window == (0.2 * t_min, 0.95 * t_min)
    assert rep.late_window == (0.5 * t_min, 0.95 * t_min)


def test_perturbation_verdicts_recomputed(perturbation_reports):
    slower = perturbation_reports[("a", 0.8)]
    assert slower.verdicts["t_exp"] == "increase"
    assert slower.verdicts["T"] == "decrease"
    assert slower.verdicts["N"] == "increase"
    faster = perturbation_reports[("a", 1.2)]
    assert faster.verdicts["t_exp"] == "decrease"
    assert faster.verdicts["T"] == "increase"
    inert = perturbation_reports[("c", 0.6)]
    assert set(inert.verdicts.values()) == {"negligible"}
