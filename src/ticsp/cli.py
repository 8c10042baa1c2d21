"""Command-line front end: subcommands wiring all modules, deterministic file emission.

Every command resolves its configuration and runs, then creates the output
directory, echoes the effective configuration into it (config.json), and
writes its artifacts with 17-significant-digit numbers so that reruns with
the same configuration are byte-identical.  Exit status 0 means every
requested output was written; a failed run leaves no output directory.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path
from typing import Optional

import numpy as np

from .equilibria import bifurcation_scan, find_hte, tfe
from .harness import (
    CHECKPOINTS,
    SCENARIOS,
    PerturbationSpec,
    Scenario,
    get_scenario,
    report_tables,
    run_perturbation,
    run_scenario,
    scenario_from_json,
)
from .integrator import IntegratorConfig, basin_threshold
from .kinetics import VARIABLES
from .params import DEFAULT_PARAMETERS, ParameterSet
from .reduction import compare_reduced, simulate_reduced

#: Environment variable naming the default output root (fallback: cwd).
OUTPUT_ROOT_ENV = "TICSP_OUT"

_FMT = "%.17g"


def _g(x) -> str:
    return _FMT % float(x)


def _write_csv(path: Path, header: list[str], rows) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(row) for row in rows)
    path.write_text("\n".join(lines) + "\n")


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n")


def _by_variable(values) -> Optional[dict]:
    """{T, N, L, C} -> value; None stays None (no window to summarize), and a
    non-finite value is written as null."""
    if values is None:
        return None
    return {var: float(v) if np.isfinite(v) else None for var, v in zip(VARIABLES, values)}


# ---------------------------------------------------------------------------
# Configuration plumbing


def _out_dir(args, leaf: str) -> Path:
    if args.out:
        out = Path(args.out)
    else:
        out = Path(os.environ.get(OUTPUT_ROOT_ENV, ".")) / leaf
    out = out.resolve()
    out.mkdir(parents=True, exist_ok=True)
    return out


def _scenario_from_args(args) -> Scenario:
    if getattr(args, "scenario_file", None):
        return scenario_from_json(args.scenario_file)
    return get_scenario(args.scenario)


def _params_for(args, scenario: Optional[Scenario] = None) -> ParameterSet:
    if args.params:
        return ParameterSet.from_json(args.params)
    if scenario is not None and scenario.params is not None:
        return scenario.params
    return DEFAULT_PARAMETERS


def _int_config(args, t_end: float) -> IntegratorConfig:
    return IntegratorConfig(rtol=args.rtol, atol=args.atol, t_end=t_end)


def _echo_config(out: Path, args, params: ParameterSet, **extras) -> None:
    echo = {
        "command": args.command,
        "params_file": str(Path(args.params).resolve()) if args.params else None,
        "parameters": params.to_dict(),
    }
    # the options the command takes (see build_parser)
    echo.update((key, value) for key, value in vars(args).items()
                if key in ("rtol", "atol", "fixed_M"))
    echo.update(extras)
    _write_json(out / "config.json", echo)


# ---------------------------------------------------------------------------
# Shared writers


def _write_trajectory(out: Path, traj) -> None:
    rows = ([_g(t)] + [_g(v) for v in y] for t, y in zip(traj.t, traj.y))
    _write_csv(out / "trajectory.csv", ["t", "T", "N", "L", "C"], rows)


def _write_timescales(out: Path, ts) -> None:
    header = (["t"] + [f"tau{i}" for i in range(1, 5)]
              + [f"re_lambda{i}" for i in range(1, 5)] + ["explosive_flag"])
    rows = ([_g(t)] + [_g(v) for v in tau] + [_g(v) for v in re] + [str(int(flag))]
            for t, tau, re, flag in zip(ts.t, ts.tau, ts.re_lambda, ts.explosive))
    _write_csv(out / "timescales.csv", header, rows)


def _diagnostics_rows(records):
    for rec in records:
        t, frac = _g(rec.time), _g(rec.t_over_texp)
        for n in range(4):
            mode = str(n + 1)
            for k in range(15):
                yield [t, frac, mode, "API", str(k + 1), _g(rec.api[n, k])]
            for k in range(15):
                yield [t, frac, mode, "TPI", str(k + 1), _g(rec.tpi[n, k])]
            for i, var in enumerate(VARIABLES):
                yield [t, frac, mode, "Po", var, _g(rec.pointer[n, i])]
        for i, var in enumerate(VARIABLES):
            for k in range(15):
                yield [t, frac, var, "II", str(k + 1), _g(rec.importance[i, k])]


def _write_diagnostics(out: Path, records) -> None:
    header = ["t", "t_over_texp", "mode_or_variable", "index_type", "target", "value"]
    _write_csv(out / "diagnostics.csv", header, _diagnostics_rows(records))


def _write_constraint_errors(out: Path, errors) -> None:
    t_exp = errors.t_exp if errors.t_exp else np.nan
    rows = ([_g(t), _g(t / t_exp), _g(rn), _g(rl)]
            for t, rn, rl in zip(errors.t, errors.re_n, errors.re_l))
    _write_csv(out / "constraint_errors.csv",
               ["t", "t_over_texp", "RE_N", "RE_L"], rows)


# ---------------------------------------------------------------------------
# Commands


def cmd_simulate(args) -> int:
    scn = _scenario_from_args(args)
    if args.t_end is not None:
        if not 0.0 < args.t_end < np.inf:
            raise ValueError("--t-end must be positive and finite")
        scn = dataclasses.replace(scn, t_end=args.t_end)
    params = _params_for(args, scn)
    res = run_scenario(scn, params, _int_config(args, scn.t_end),
                       checkpoints=(), settle=False)
    out = _out_dir(args, scn.name)
    _write_trajectory(out, res.trajectory)
    _write_timescales(out, res.timescales)
    _echo_config(out, args, params, scenario=scn.name, t_end=scn.t_end)
    return 0


def cmd_equilibria(args) -> int:
    params = _params_for(args)
    eqs = (tfe(params)[0], *find_hte(params))
    payload = [
        {
            "kind": eq.kind,
            "stable": bool(eq.stable),
            "feasible": bool(eq.feasible),
            "T": float(eq.T), "N": float(eq.N), "L": float(eq.L), "C": float(eq.C),
            "eigenvalues_re": [float(v) for v in eq.eigenvalues.real],
            "eigenvalues_im": [float(v) for v in eq.eigenvalues.imag],
        }
        for eq in eqs
    ]
    out = _out_dir(args, "equilibria")
    _write_json(out / "equilibria.json", payload)
    _echo_config(out, args, params)
    return 0


def cmd_bifurcate(args) -> int:
    params = _params_for(args)
    scan = bifurcation_scan(params, args.param, (args.start, args.stop),
                            args.steps, log=args.log)
    out = _out_dir(args, "bifurcate")
    rows = (
        [args.param, _g(v), str(bid), _g(t_star), str(int(stable)), branch.kind]
        for bid, branch in enumerate(scan.branches)
        for v, t_star, stable in zip(branch.values, branch.T_star, branch.stable)
    )
    _write_csv(out / "bifurcation.csv",
               ["param_name", "param_value", "branch_id", "T_star", "stable", "kind"],
               rows)
    _write_json(out / "bifurcation_summary.json", {
        "parameter": scan.parameter,
        "transcritical": scan.transcritical,
        "saddle_node": scan.saddle_node,
        "branches": len(scan.branches),
    })
    _echo_config(out, args, params, param=args.param,
                 start=args.start, stop=args.stop, steps=args.steps, log=args.log)
    return 0


def cmd_csp(args) -> int:
    scn = _scenario_from_args(args)
    params = _params_for(args, scn)
    checkpoints = tuple(float(v) for v in args.checkpoints.split(","))
    res = run_scenario(scn, params, _int_config(args, scn.t_end),
                       checkpoints=checkpoints, fixed_M=args.fixed_M,
                       settle=False)
    out = _out_dir(args, scn.name)
    _write_timescales(out, res.timescales)
    _write_diagnostics(out, res.records)
    _echo_config(out, args, params, scenario=scn.name,
                 checkpoints=list(checkpoints))
    return 0


def cmd_reduce(args) -> int:
    scn = _scenario_from_args(args)
    params = _params_for(args, scn)
    cfg = _int_config(args, scn.t_end)
    res = run_scenario(scn, params, cfg, checkpoints=())
    red = simulate_reduced(scn.T0, scn.C0, params, cfg)
    rep = compare_reduced(res.trajectory, red, res.stage, res.stable_equilibria)
    out = _out_dir(args, scn.name)
    rows = ([_g(t), _g(y[0]), _g(y[3]), _g(y[1]), _g(y[2])]
            for t, y in zip(red.t, red.y))
    _write_csv(out / "reduced_trajectory.csv",
               ["t", "T", "C", "N_hat", "L_hat"], rows)
    _write_constraint_errors(out, res.errors)
    _write_json(out / "reduce_summary.json", {
        "full_attractor": rep.full_attractor,
        "reduced_attractor": rep.reduced_attractor,
        "attractor_agreement": bool(rep.attractor_agreement),
        "window": list(rep.window) if rep.window else None,
        "max_rel_err": _by_variable(rep.max_err),
        "mean_rel_err": _by_variable(rep.mean_err),
        "effective_parameters": dataclasses.asdict(red.effective),
        "effective_parameter_count": red.effective.count,
    })
    _echo_config(out, args, params, scenario=scn.name)
    return 0


def cmd_perturb(args) -> int:
    if not args.factor > 0.0:
        raise ValueError("--factor must be positive")
    spec = PerturbationSpec(args.param, args.factor, baseline=args.scenario)
    params = _params_for(args)
    scn = get_scenario(args.scenario)
    rep = run_perturbation(spec, params, _int_config(args, scn.t_end))
    # Directory names use the shortest round-trip form (repr), not the
    # full-precision %.17g used inside files: 0.6 should label its output
    # directory "TP-ex0.6", not "TP-ex0.59999999999999998".
    out = _out_dir(args, f"{scn.name}-{args.param}x{args.factor!r}")
    _write_json(out / "perturbation.json", {
        "parameter": spec.parameter,
        "multiplier": spec.multiplier,
        "baseline": spec.baseline,
        "t_exp_base": rep.t_exp_base,
        "t_exp_perturbed": rep.t_exp_perturbed,
        "rel_delta_t_exp": rep.rel_delta_t_exp,
        "window": list(rep.window),
        "late_window": list(rep.late_window),
        "mean_ratio": _by_variable(rep.mean_ratio),
        "late_ratio": _by_variable(rep.late_ratio),
        "max_rel_change": _by_variable(rep.max_rel_change),
        "verdicts": rep.verdicts,
    })
    _echo_config(out, args, params, param=args.param, factor=args.factor,
                 scenario=args.scenario)
    return 0


def cmd_threshold(args) -> int:
    params = _params_for(args)
    if args.scenario:
        base = get_scenario(args.scenario.removesuffix("-family"))
        n0, l0, c0 = base.N0, base.L0, base.C0
    else:
        n0, l0, c0 = args.N0, args.L0, args.C0
    lo, hi = args.bracket
    value = basin_threshold(n0, l0, c0, params, (lo, hi),
                            _int_config(args, 200.0))
    out = _out_dir(args, "threshold")
    _write_json(out / "threshold.json", {
        "threshold": float(value),
        "bracket": [lo, hi],
        "N0": n0, "L0": l0, "C0": c0,
    })
    _echo_config(out, args, params, bracket=[lo, hi], N0=n0, L0=l0, C0=c0)
    return 0


def cmd_report(args) -> int:
    scn = _scenario_from_args(args)
    params = _params_for(args, scn)
    res = run_scenario(scn, params, _int_config(args, scn.t_end),
                       fixed_M=args.fixed_M)
    rep = report_tables(res)
    out = _out_dir(args, scn.name)
    _write_json(out / "report.json", {
        "name": rep.name,
        "t_exp": rep.t_exp,
        "attractor": rep.attractor,
        "persistent": {var: list(procs) for var, procs in rep.persistent.items()},
        "tables": [
            {
                "t_over_texp": tab.t_over_texp,
                "kind": tab.kind,
                "row": tab.row,
                "M": tab.M,
                "entries": [[lab, val] for lab, val in tab.entries],
            }
            for tab in rep.tables
        ],
    })
    _echo_config(out, args, params, scenario=scn.name)
    return 0


# ---------------------------------------------------------------------------
# Parser


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--params", metavar="FILE",
                        help="JSON parameter file (default: built-in patient fit)")
    common.add_argument("--out", metavar="DIR",
                        help=f"output directory (default: ${OUTPUT_ROOT_ENV} or cwd, "
                             "plus a per-command leaf)")

    tol = argparse.ArgumentParser(add_help=False)   # commands that integrate
    tol.add_argument("--rtol", type=float, default=1e-8,
                     help="integrator relative tolerance")
    tol.add_argument("--atol", type=float, default=1e-6,
                     help="integrator absolute tolerance")

    fixed = argparse.ArgumentParser(add_help=False)  # commands that write index tables
    fixed.add_argument("--fixed-M", dest="fixed_M", type=int, default=None,
                       help="pin the exhausted-mode count for importance indices")

    scen = argparse.ArgumentParser(add_help=False)
    scen.add_argument("--scenario", default="TP",
                      help=f"built-in case name ({', '.join(sorted(SCENARIOS))})")
    scen.add_argument("--scenario-file", metavar="FILE",
                      help="JSON scenario file (overrides --scenario)")

    parser = argparse.ArgumentParser(
        prog="ticsp",
        description="Tumor-immune kinetics: simulation, timescale diagnostics, "
                    "model reduction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", parents=[common, tol, scen],
                         help="integrate a scenario; write trajectory + timescales")
    sim.add_argument("--t-end", dest="t_end", type=float, default=None,
                     help="override the scenario horizon (days)")
    sim.set_defaults(func=cmd_simulate)

    eq = sub.add_parser("equilibria", parents=[common],
                        help="locate and classify all feasible equilibria")
    eq.set_defaults(func=cmd_equilibria)

    bif = sub.add_parser("bifurcate", parents=[common],
                         help="sweep one rate constant and follow the branches")
    bif.add_argument("--param", required=True)
    bif.add_argument("--from", dest="start", type=float, required=True)
    bif.add_argument("--to", dest="stop", type=float, required=True)
    bif.add_argument("--steps", type=int, default=200)
    bif.add_argument("--log", action="store_true", help="logarithmic spacing")
    bif.set_defaults(func=cmd_bifurcate)

    csp = sub.add_parser("csp", parents=[common, tol, fixed, scen],
                         help="timescale decomposition and index tables at checkpoints")
    csp.add_argument("--checkpoints", default=",".join(_g(c) for c in CHECKPOINTS),
                     help="comma-separated t/t_exp sampling points")
    csp.set_defaults(func=cmd_csp)

    red = sub.add_parser("reduce", parents=[common, tol, scen],
                         help="simulate the reduced model and compare to the full one")
    red.set_defaults(func=cmd_reduce)

    per = sub.add_parser("perturb", parents=[common, tol],
                         help="compare a baseline scenario against a parameter change")
    per.add_argument("--param", required=True)
    per.add_argument("--factor", type=float, required=True)
    per.add_argument("--scenario", default="TP")
    per.set_defaults(func=cmd_perturb)

    thr = sub.add_parser("threshold", parents=[common, tol],
                         help="bisect the initial tumor burden separating the basins")
    thr.add_argument("--scenario", default=None,
                     help="borrow (N0, L0, C0) from a built-in case "
                          "(accepts a '-family' suffix)")
    thr.add_argument("--N0", type=float, default=1e3)
    thr.add_argument("--L0", type=float, default=1e1)
    thr.add_argument("--C0", type=float, default=6e8)
    thr.add_argument("--bracket", type=float, nargs=2, default=(1e5, 1e6),
                     metavar=("LO", "HI"))
    thr.set_defaults(func=cmd_threshold)

    repp = sub.add_parser("report", parents=[common, tol, fixed, scen],
                          help="dominant-entry tables and the persistence summary")
    repp.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:
        # str() of a KeyError is the repr of its message, quotes included
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
