"""Command-line interface: files, formats, determinism, exit codes."""
import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ticsp
from ticsp import DEFAULT_PARAMETERS, PARAMETER_NAMES
from ticsp.cli import build_parser, main

from helpers import count_calls
from test_properties import COMMON

P = DEFAULT_PARAMETERS


def run_cli(*argv) -> int:
    return main([str(a) for a in argv])


# ---------------------------------------------------------------------------
# simulate

def test_simulate_writes_trajectory_and_timescales(tmp_path):
    out = tmp_path / "tp"
    assert run_cli("simulate", "--scenario", "TP", "--out", out) == 0
    rows = (out / "trajectory.csv").read_text().splitlines()
    assert rows[0] == "t,T,N,L,C"
    final_T = float(rows[-1].split(",")[1])
    assert final_T == pytest.approx(9.8e8, rel=0.01)
    ts_header = (out / "timescales.csv").read_text().splitlines()[0]
    assert ts_header == ("t,tau1,tau2,tau3,tau4,"
                         "re_lambda1,re_lambda2,re_lambda3,re_lambda4,explosive_flag")
    config = json.loads((out / "config.json").read_text())
    assert config["command"] == "simulate"
    assert config["parameters"] == P.to_dict()


def test_simulate_short_horizon_needs_no_settling(tmp_path):
    # A 25-day horizon ends mid-relaxation (C is ~30% below equilibrium);
    # writing the trajectory must not require classifying the attractor.
    out = tmp_path / "short"
    assert run_cli("simulate", "--scenario", "TP", "--t-end", 25, "--out", out) == 0
    rows = (out / "trajectory.csv").read_text().splitlines()
    assert float(rows[-1].split(",")[0]) == pytest.approx(25.0)
    assert float(rows[-1].split(",")[1]) == pytest.approx(9.8e8, rel=0.05)
    assert (out / "timescales.csv").exists()


def test_simulate_rejects_zero_horizon(tmp_path, capsys):
    out = tmp_path / "rejected"
    assert run_cli("simulate", "--scenario", "TP", "--t-end", 0, "--out", out) != 0
    assert "t-end" in capsys.readouterr().err
    assert not (out / "trajectory.csv").exists()


def test_simulate_rejects_infinite_horizon(tmp_path, capsys):
    out = tmp_path / "rejected"
    assert run_cli("simulate", "--scenario", "TR", "--t-end", "inf", "--out", out) == 1
    assert "t-end" in capsys.readouterr().err
    assert not (out / "trajectory.csv").exists()


def test_simulate_unknown_scenario(tmp_path, capsys):
    assert run_cli("simulate", "--scenario", "NOPE", "--out", tmp_path / "x") != 0
    assert "unknown scenario" in capsys.readouterr().err


def test_rerun_is_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run_cli("simulate", "--scenario", "TR", "--out", a) == 0
    assert run_cli("simulate", "--scenario", "TR", "--out", b) == 0
    for name in ("trajectory.csv", "timescales.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_output_root_from_environment(tmp_path, monkeypatch):
    monkeypatch.setenv("TICSP_OUT", str(tmp_path))
    assert run_cli("equilibria") == 0
    assert (tmp_path / "equilibria" / "equilibria.json").exists()


# ---------------------------------------------------------------------------
# equilibria

def test_equilibria_json(tmp_path):
    out = tmp_path / "eq"
    assert run_cli("equilibria", "--out", out) == 0
    data = json.loads((out / "equilibria.json").read_text())
    assert len(data) == 3
    kinds = sorted((e["kind"], e["stable"]) for e in data)
    assert kinds == [("HTE", False), ("HTE", True), ("TFE", True)]
    stable_hte = next(e for e in data if e["kind"] == "HTE" and e["stable"])
    assert stable_hte["T"] == pytest.approx(9.8e8, rel=0.01)
    assert all(e["feasible"] for e in data)


# ---------------------------------------------------------------------------
# bifurcate

def test_bifurcate_locates_transcritical(tmp_path):
    out = tmp_path / "bif"
    assert run_cli("bifurcate", "--param", "d", "--from", 0.05, "--to", 1.0,
                   "--steps", 12, "--out", out) == 0
    summary = json.loads((out / "bifurcation_summary.json").read_text())
    assert summary["parameter"] == "d"
    assert summary["transcritical"] == pytest.approx(0.43097977427184464, rel=1e-9)
    rows = (out / "bifurcation.csv").read_text().splitlines()
    assert rows[0] == "param_name,param_value,branch_id,T_star,stable,kind"
    kinds = {r.split(",")[5] for r in rows[1:]}
    assert kinds == {"TFE", "HTE"}



@pytest.mark.parametrize("argv, message", [
    (["--from", 1, "--to", "inf"], "finite, got (1.0, inf)"),
    (["--from", "nan", "--to", 1], "finite, got (nan, 1.0)"),
    (["--from", 0, "--to", 1, "--log"], "finite and positive for a log scan, got (0.0, 1.0)"),
])
def test_bifurcate_rejects_a_bad_range(argv, message, tmp_path, capsys, monkeypatch):
    calls = count_calls(monkeypatch, "equilibria._find_hte_many")
    out = tmp_path / "bif"
    assert run_cli("bifurcate", "--param", "d", *argv, "--out", out) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: value_range ends must be {message}"], err
    assert not calls
    assert not out.exists()


# ---------------------------------------------------------------------------
# csp

def test_csp_diagnostics_format(tmp_path):
    out = tmp_path / "csp"
    assert run_cli("csp", "--scenario", "TP", "--out", out) == 0
    rows = (out / "timescales.csv").read_text().splitlines()
    assert len(rows) > 200
    lines = (out / "diagnostics.csv").read_text().splitlines()
    assert lines[0] == "t,t_over_texp,mode_or_variable,index_type,target,value"
    # 4 checkpoints x (4 modes x (15 API + 15 TPI + 4 Po) + 4 vars x 15 II)
    assert len(lines) == 1 + 4 * (4 * 34 + 60)
    api1 = [float(l.split(",")[5]) for l in lines[1:]
            if l.split(",")[1:5][0] == "0.5" and l.split(",")[2] == "1"
            and l.split(",")[3] == "API"]
    assert len(api1) == 15
    assert np.abs(api1).sum() == pytest.approx(1.0, abs=1e-10)


def test_csp_custom_checkpoints(tmp_path):
    out = tmp_path / "csp1"
    assert run_cli("csp", "--scenario", "TP", "--checkpoints", "0.5",
                   "--out", out) == 0
    lines = (out / "diagnostics.csv").read_text().splitlines()
    assert len(lines) == 1 + (4 * 34 + 60)


@pytest.mark.parametrize("bad", ["nan", "-0.5", "0.5,inf"])
def test_csp_bad_checkpoint_fails_before_the_run(bad, tmp_path, capsys, monkeypatch):
    calls = count_calls(monkeypatch, "integrator.integrate")
    out = tmp_path / "csp"
    assert run_cli("csp", "--scenario", "TP", "--checkpoints", bad, "--out", out) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: checkpoints must be nonnegative")
    assert not calls
    assert not out.exists()


def test_csp_checkpoint_past_the_horizon_fails_cleanly(tmp_path, capsys):
    out = tmp_path / "csp"
    assert run_cli("csp", "--scenario", "TP", "--checkpoints", "0.5,20", "--out", out) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: checkpoint 20.0 x t_exp = 324.378 days is past the run's end "
                   "at t = 200 days"]
    assert not out.exists()


# ---------------------------------------------------------------------------
# reduce

def test_reduce_outputs(tmp_path):
    out = tmp_path / "red"
    assert run_cli("reduce", "--scenario", "TP", "--out", out) == 0
    rows = (out / "reduced_trajectory.csv").read_text().splitlines()
    assert rows[0] == "t,T,C,N_hat,L_hat"
    errs = (out / "constraint_errors.csv").read_text().splitlines()
    assert errs[0] == "t,t_over_texp,RE_N,RE_L"
    summary = json.loads((out / "reduce_summary.json").read_text())
    assert summary["attractor_agreement"] is True
    assert summary["effective_parameter_count"] == 10
    assert summary["max_rel_err"]["C"] < 1e-9


def _refuse_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_reduce_writes_strict_json_when_the_reduced_tumor_dies_out(tmp_path):
    # TP1's reduced tumor reaches 0 inside the stage window, where
    # N_hat = eC/(pT) is infinite: that error is written as null
    out = tmp_path / "red"
    assert run_cli("reduce", "--scenario", "TP1", "--out", out) == 0
    files = sorted(out.glob("*.json"))
    assert [f.name for f in files] == ["config.json", "reduce_summary.json"]
    for f in files:
        json.loads(f.read_text(), parse_constant=_refuse_constant)
    summary = json.loads((out / "reduce_summary.json").read_text())
    for key in ("max_rel_err", "mean_rel_err"):
        assert summary[key]["N"] is None
        assert all(math.isfinite(summary[key][var]) for var in "TLC")


def test_json_writer_refuses_non_finite_values(tmp_path):
    from ticsp.cli import _write_json
    with pytest.raises(ValueError):
        _write_json(tmp_path / "x.json", {"x": float("nan")})


def test_reduce_without_explosive_stage(tmp_path):
    scenario = tmp_path / "nostage.json"
    scenario.write_text(json.dumps({"name": "nostage", "T0": 1, "N0": 1e5, "L0": 1e6,
                                    "C0": 6e10, "expect": "TFE"}))
    out = tmp_path / "red"
    assert run_cli("reduce", "--scenario-file", scenario, "--out", out) == 0
    summary = json.loads((out / "reduce_summary.json").read_text())
    assert summary["window"] is None
    assert summary["max_rel_err"] is None and summary["mean_rel_err"] is None
    assert summary["full_attractor"] == "TFE"
    assert (out / "reduced_trajectory.csv").exists()
    assert (out / "constraint_errors.csv").exists()


def test_reduce_computes_stage_and_equilibria_once(tmp_path, monkeypatch):
    calls = count_calls(monkeypatch, "csp.explosive_stage", "equilibria.find_hte")
    assert run_cli("reduce", "--scenario", "TR", "--out", tmp_path / "red") == 0
    assert calls == {"csp.explosive_stage": 1, "equilibria.find_hte": 1}


# ---------------------------------------------------------------------------
# perturb

def test_perturb_report(tmp_path):
    out = tmp_path / "pert"
    assert run_cli("perturb", "--param", "e", "--factor", 0.6, "--out", out) == 0
    rep = json.loads((out / "perturbation.json").read_text())
    assert 0.55 < rep["mean_ratio"]["N"] < 0.65
    assert abs(rep["rel_delta_t_exp"]) < 0.05
    assert rep["verdicts"]["N"] == "decrease"


def test_perturb_rejects_bad_factor(tmp_path, capsys):
    assert run_cli("perturb", "--param", "e", "--factor", 0,
                   "--out", tmp_path / "x") != 0
    assert "factor" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# threshold

def test_threshold_family(tmp_path):
    out = tmp_path / "thr"
    assert run_cli("threshold", "--scenario", "TP1-family",
                   "--bracket", 319000, 320000, "--out", out) == 0
    data = json.loads((out / "threshold.json").read_text())
    assert 319192.5 <= data["threshold"] <= 319592.5
    assert data["N0"] == 1e3 and data["L0"] == 1e1 and data["C0"] == 6e8


def test_threshold_bad_bracket(tmp_path, capsys):
    assert run_cli("threshold", "--bracket", 1e9, 2e9,
                   "--out", tmp_path / "x") != 0
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("argv, name", [
    (["--N0", "-5"], "N0"),
    (["--L0", "nan"], "L0"),
    (["--C0", "inf"], "C0"),
])
def test_threshold_rejects_impossible_immune_state(argv, name, tmp_path, capsys):
    out = tmp_path / "thr"
    assert run_cli("threshold", *argv, "--bracket", 319000, 320000, "--out", out) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {name} must be nonnegative")
    assert not out.exists()


@pytest.mark.parametrize("d, kind", [(0.1, "HTE"), (3000.0, "TFE")])
def test_threshold_refuses_parameters_with_one_stable_equilibrium(d, kind, tmp_path,
                                                                  capsys, monkeypatch):
    # No bracket separates two basins, so no run is made.
    calls = count_calls(monkeypatch, "integrator.settle_attractor")
    path = tmp_path / "params.json"
    path.write_text(json.dumps({**P.to_dict(), "d": d}))
    out = tmp_path / "thr"
    assert run_cli("threshold", "--params", path, "--out", out) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: no bracket separates two basins: the only stable "
                   f"equilibrium of these parameters is the {kind}"], err
    assert not calls
    assert not out.exists()


def test_threshold_rejects_infinite_bracket(tmp_path, capsys, monkeypatch):
    calls = count_calls(monkeypatch, "integrator.settle_attractor")
    out = tmp_path / "thr"
    assert run_cli("threshold", "--bracket", 319000, "inf", "--out", out) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: T_bracket must satisfy")
    assert not calls
    assert not out.exists()


# ---------------------------------------------------------------------------
# report

def test_report_json(tmp_path):
    out = tmp_path / "rep"
    assert run_cli("report", "--scenario", "TR", "--out", out) == 0
    rep = json.loads((out / "report.json").read_text())
    assert rep["attractor"] == "TFE"
    assert rep["t_exp"] == pytest.approx(2.3016, rel=1e-3)
    assert rep["persistent"]["C"] == [3, 6]
    tpi3 = next(t for t in rep["tables"]
                if t["t_over_texp"] == 0.5 and t["kind"] == "TPI" and t["row"] == "mode 3")
    leading = {entry[0] for entry in tpi3["entries"]}
    assert {12, 14} <= leading


# ---------------------------------------------------------------------------
# entry point

def test_console_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "ticsp.cli", "equilibria", "--out", str(tmp_path / "e")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert (tmp_path / "e" / "equilibria.json").exists()


#: Runs the commands given as a JSON list of argv lists, then prints the
#: loaded modules of the two scipy packages whose pieces ticsp owns.
_IMPORT_PROBE = """
import json, sys
from ticsp.cli import main
for argv in json.loads(sys.argv[1]):
    assert main(argv) == 0, argv
print(json.dumps(sorted(m for m in sys.modules
                        if m.startswith(("scipy.integrate", "scipy.optimize")))))
"""


def test_commands_import_neither_scipy_integrate_nor_optimize(tmp_path):
    # checked after the commands ran, so a lazy import inside one fails too
    commands = [["report"], ["reduce"], ["threshold", "--bracket", "319000", "320000"],
                ["bifurcate", "--param", "d", "--from", "0.05", "--to", "1.0"],
                ["equilibria"]]
    argvs = [argv + ["--out", str(tmp_path / argv[0])] for argv in commands]
    src = str(Path(ticsp.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, json.dumps(argvs)],
                          capture_output=True, text=True, cwd=tmp_path,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == []
    assert all((tmp_path / argv[0]).is_dir() for argv in commands)


# ---------------------------------------------------------------------------
# failure paths

#: Each subcommand with the arguments it requires.
COMMAND_ARGS = {
    "simulate": [], "equilibria": [], "csp": [], "reduce": [], "report": [],
    "bifurcate": ["--param", "d", "--from", "0.05", "--to", "1.0", "--steps", "3"],
    "perturb": ["--param", "e", "--factor", "0.6"],
    "threshold": [],
}


@pytest.mark.parametrize("command",
                         ["csp", "perturb", "reduce", "report", "simulate", "threshold"])
def test_failed_command_leaves_no_output_directory(command, tmp_path, capsys):
    out = tmp_path / "out"
    assert run_cli(command, *COMMAND_ARGS[command], "--rtol", "nan", "--out", out) == 1
    assert capsys.readouterr().err.startswith("error:")
    assert not out.exists()


NON_FINITE = st.sampled_from([math.inf, -math.inf, math.nan])
NON_NUMBERS = st.one_of(
    st.none(), st.booleans(),
    st.text(max_size=8),  # numeric strings such as "1e6" included
    st.lists(st.integers(), max_size=2),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
)
NON_OBJECTS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(allow_nan=False),
    st.text(max_size=8), st.lists(st.integers(), max_size=3),
)
NON_POSITIVE = st.one_of(st.floats(max_value=0.0, allow_nan=False), NON_FINITE)
NEGATIVE = st.one_of(st.floats(max_value=-1e-9, allow_nan=False), NON_FINITE)

VALID_SCENARIO = {"name": "case", "T0": 1e6, "N0": 1e3, "L0": 10.0, "C0": 6e8}
SCENARIO_KEYS = ("name", "T0", "N0", "L0", "C0", "t_end", "params_file", "expect")


@st.composite
def malformed_scenarios(draw):
    """A scenario file body with exactly one defect."""
    defect = draw(st.sampled_from(
        ["non-object", "missing", "non-numeric", "out of range", "unknown"]))
    if defect == "non-object":
        return draw(NON_OBJECTS)
    data = dict(VALID_SCENARIO)
    numbers = ("T0", "N0", "L0", "C0", "t_end")
    if defect == "missing":
        del data[draw(st.sampled_from(sorted(VALID_SCENARIO)))]
    elif defect == "non-numeric":
        data[draw(st.sampled_from(numbers))] = draw(NON_NUMBERS)
    elif defect == "out of range":
        key = draw(st.sampled_from(numbers))
        data[key] = draw(NON_POSITIVE if key in ("T0", "t_end") else NEGATIVE)
    else:
        key = draw(st.text(min_size=1, max_size=8).filter(lambda k: k not in SCENARIO_KEYS))
        data[key] = draw(st.integers())
    return data


@st.composite
def malformed_parameters(draw):
    """A parameter file body with exactly one defect."""
    defect = draw(st.sampled_from(["non-object", "non-numeric", "out of range", "unknown"]))
    if defect == "non-object":
        return draw(NON_OBJECTS)
    if defect == "unknown":
        key = draw(st.text(min_size=1, max_size=8).filter(lambda k: k not in PARAMETER_NAMES))
        return {key: 1.0}
    value = draw(NON_NUMBERS if defect == "non-numeric" else NON_POSITIVE)
    return {draw(st.sampled_from(PARAMETER_NAMES)): value}


def _assert_fails_loudly(argv, work: Path):
    out = work / "out"
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main([*argv, "--out", str(out)])
    lines = err.getvalue().splitlines()
    assert code == 1
    assert len(lines) == 1 and lines[0].startswith("error:"), lines
    assert "Traceback" not in err.getvalue()
    assert not out.exists()


@given(malformed_scenarios(), st.sampled_from(["simulate", "csp", "reduce", "report"]))
@settings(**COMMON)
def test_malformed_scenario_file_fails_loudly(data, command):
    with tempfile.TemporaryDirectory() as work:
        path = Path(work) / "scenario.json"
        path.write_text(json.dumps(data))
        _assert_fails_loudly([command, "--scenario-file", str(path)], Path(work))


@given(malformed_parameters(), st.sampled_from(sorted(COMMAND_ARGS)))
@settings(**COMMON)
def test_malformed_params_file_fails_loudly(data, command):
    with tempfile.TemporaryDirectory() as work:
        path = Path(work) / "params.json"
        path.write_text(json.dumps(data))
        _assert_fails_loudly([command, *COMMAND_ARGS[command], "--params", str(path)],
                             Path(work))


def test_scenario_file_errors_name_the_file_and_field(tmp_path, capsys):
    path = tmp_path / "case.json"
    for data, field in (([1, 2], "JSON object"), ({"name": "x"}, "'T0'"),
                        ({**VALID_SCENARIO, "T0": "abc"}, "'T0'"),
                        ({**VALID_SCENARIO, "C0": -1.0}, "C0"),
                        ({**VALID_SCENARIO, "dose": 1}, "'dose'")):
        path.write_text(json.dumps(data))
        assert run_cli("simulate", "--scenario-file", path, "--out", tmp_path / "x") == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and field in err, err


def test_unknown_parameter_message_has_no_key_error_quotes(tmp_path, capsys):
    # the library raises KeyError; the CLI prints its message, not its repr
    assert run_cli("bifurcate", "--param", "zz", "--from", 0.05, "--to", 1,
                   "--out", tmp_path / "x") == 1
    assert capsys.readouterr().err == "error: unknown parameter 'zz'\n"
    assert not (tmp_path / "x").exists()


def test_params_file_errors_name_the_file_and_key(tmp_path, capsys):
    path = tmp_path / "bad.json"
    for data, message in (({"zz": 1.0}, "unknown parameter keys: zz"),
                          ({"a": True}, "parameter 'a' must be a number, got True")):
        path.write_text(json.dumps(data))
        assert run_cli("equilibria", "--params", path, "--out", tmp_path / "x") == 1
        lines = capsys.readouterr().err.splitlines()
        assert lines == [f"error: {path}: {message}"], lines


# ---------------------------------------------------------------------------
# documented commands

def _subcommands():
    action = next(a for a in build_parser()._actions if a.dest == "command")
    return sorted(action.choices)


@pytest.mark.parametrize("command", _subcommands())
def test_subcommand_help(command, capsys):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args([command, "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: ticsp {command}")


#: Options each command refuses because they would not change its output.
REFUSED = [(command, option)
           for command, options in (("equilibria", ("--rtol", "--atol", "--fixed-M")),
                                    ("bifurcate", ("--rtol", "--atol", "--fixed-M")),
                                    ("simulate", ("--fixed-M",)),
                                    ("reduce", ("--fixed-M",)),
                                    ("perturb", ("--fixed-M",)),
                                    ("threshold", ("--fixed-M",)))
           for option in options]


@pytest.mark.parametrize("command, option", REFUSED)
def test_command_refuses_options_it_ignores(command, option, capsys):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args([command, *COMMAND_ARGS[command], option, "1"])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {option} 1" in capsys.readouterr().err


def test_config_echoes_only_accepted_options(tmp_path):
    assert run_cli("equilibria", "--out", tmp_path / "eq") == 0
    assert run_cli("simulate", "--t-end", 1, "--out", tmp_path / "sim") == 0
    eq = json.loads((tmp_path / "eq" / "config.json").read_text())
    sim = json.loads((tmp_path / "sim" / "config.json").read_text())
    assert not {"rtol", "atol", "fixed_M"} & set(eq)
    assert {"rtol", "atol"} <= set(sim) and "fixed_M" not in sim
