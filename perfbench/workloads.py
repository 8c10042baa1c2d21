"""Seeded inputs, operations and correctness checks of the three workloads.

A workload turns a `random.Random` into an endless sequence of passes.
A pass is the workload's fixed input set; each pass draws fresh inputs,
so a run never repeats an input and the same seed always yields the same
sequence.  Every operation is called through its module attribute at call
time, so the tracer's rebinding (see `tracer.py`) sees it.
"""
from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import ticsp.cli
import ticsp.equilibria
import ticsp.integrator
from ticsp import DEFAULT_PARAMETERS as P
from ticsp.harness import SCENARIOS

#: t_exp bands of the four reference cases (acceptance criterion 03).
T_EXP_BANDS = {"TP": (16.2, 0.05), "TR": (2.3, 0.10), "TP1": (37.3, 0.10), "TR1": (24.7, 0.10)}

#: Cases one cell either side of the full model's basin boundary.  The
#: leading-order reduced model moves that boundary by more than one cell
#: (TP1's reduced run settles to the TFE), so, as in acceptance criterion
#: 09, full-vs-reduced attractor agreement is checked on the other cases only.
ONE_CELL_CASES = ("TP1", "TR1")

#: Largest factor by which a scenario-file variant scales T0 and, with a
#: second factor, all three immune populations.  `check_jitter.py` verifies
#: every corner.  TR is close to the basin boundary: with the immune
#: populations scaled by 1/f and T0 by f it still settles to the TFE at
#: f = 1.08 but flips to the HTE at f = 1.1, so its range stops at 1.05.
#: TP1 and TR1 are never jittered.
JITTER = {"TP": 1.25, "TR": 1.05}

#: The basin boundary for (N0, L0, C0) = (1e3, 1e1, 6e8): TR1 = 319392
#: settles to the TFE and TP1 = 319393 to the HTE.
BASIN_IMMUNE = (1e3, 1e1, 6e8)
BASIN_WINDOW = (319392.0, 319394.0)
BASIN_MID = 319392.5
#: Bracket width, drawn in (2**12, 2**13] so that every bisection takes
#: exactly 13 midpoint runs (`ticsp threshold --bracket 319000 320000`
#: takes 10), and the boundary's relative position in it.
BASIN_WIDTH = (2.0**12 + 1.0, 2.0**13)
BASIN_POSITION = (0.01, 0.99)

#: Transcritical point of the TFE in d, in closed form: a - alpha c e / (beta f).
D_TRANSCRITICAL = P.a - P.alpha * P.c * P.e / (P.beta * P.f)
SCAN_STEPS = 200
LINEAR_SCAN = (0.05, 1.0)     # around the transcritical point
LOG_SCAN = (2.34, 2000.0)     # from the fitted d through the fold
SCAN_JITTER = 1.25
FOLD_WINDOW = (800.0, 1100.0)


@dataclass
class Op:
    """One user-facing operation: `run` is timed, `check` is not.

    `check` takes the result of `run` and returns a failure reason or None.
    `out`, when set, is removed before the pass so that the check can only
    read what this run wrote.
    """

    op_id: str
    run: Callable[[], object]
    check: Callable[[object], Optional[str]]
    out: Optional[Path] = None


def log_uniform(rng: random.Random, factor: float) -> float:
    """A multiplier drawn log-uniformly from [1/factor, factor]."""
    return math.exp(rng.uniform(-math.log(factor), math.log(factor)))


# ---------------------------------------------------------------------------
# case_report


def jittered_scenario(case: str, t0_factor: float, immune_factor: float) -> dict:
    """Scenario-file payload of `case` with T0 and the immune populations scaled."""
    base = SCENARIOS[case]
    return {
        "name": f"{case}-jitter",
        "T0": base.T0 * t0_factor,
        "N0": base.N0 * immune_factor,
        "L0": base.L0 * immune_factor,
        "C0": base.C0 * immune_factor,
        "expect": base.expect,
    }


def _read_json(path: Path):
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        return exc


def check_report(out: Path, case: str, expect: str, rc) -> Optional[str]:
    if rc != 0:
        return f"exit status {rc}"
    rep = _read_json(out / "report.json")
    if isinstance(rep, Exception):
        return f"report.json unreadable: {rep}"
    if rep["attractor"] != expect:
        return f"attractor {rep['attractor']} != expected {expect}"
    if case in T_EXP_BANDS:
        printed, rel = T_EXP_BANDS[case]
        if rep["t_exp"] is None or abs(rep["t_exp"] - printed) > rel * printed:
            return f"t_exp {rep['t_exp']} outside {printed} +- {rel:.0%}"
    return None


def check_reduce(out: Path, expect: str, agreement: bool, rc) -> Optional[str]:
    if rc != 0:
        return f"exit status {rc}"
    summary = _read_json(out / "reduce_summary.json")
    if isinstance(summary, Exception):
        return f"reduce_summary.json unreadable: {summary}"
    if summary["full_attractor"] != expect:
        return f"full attractor {summary['full_attractor']} != expected {expect}"
    if agreement and not summary["attractor_agreement"]:
        return "reduced model settles to another attractor"
    if summary["effective_parameter_count"] != 10:
        return f"{summary['effective_parameter_count']} effective parameters, expected 10"
    return None


def cli_ops(label: str, scenario_args: list[str], case: str, expect: str,
            out: Path) -> list[Op]:
    """The `report` and `reduce` commands of one case."""
    agreement = case not in ONE_CELL_CASES
    ops = []
    for command, check in (("report", lambda rc, o: check_report(o, case, expect, rc)),
                           ("reduce", lambda rc, o: check_reduce(o, expect, agreement, rc))):
        op_out = out / label / command
        argv = [command, *scenario_args, "--out", str(op_out)]
        ops.append(Op(
            op_id=f"{label}/{command}",
            run=lambda argv=argv: ticsp.cli.main(argv),
            check=lambda rc, check=check, o=op_out: check(rc, o),
            out=op_out,
        ))
    return ops


def case_report_pass(rng: random.Random, work: Path) -> list[Op]:
    ops = []
    for case in ("TP", "TR", "TP1", "TR1"):
        ops += cli_ops(case, ["--scenario", case], case, SCENARIOS[case].expect, work)
    inputs = work / "inputs"
    inputs.mkdir(parents=True, exist_ok=True)
    for case, factor in JITTER.items():
        payload = jittered_scenario(case, log_uniform(rng, factor), log_uniform(rng, factor))
        path = inputs / f"{payload['name']}.json"
        path.write_text(json.dumps(payload))
        ops += cli_ops(payload["name"], ["--scenario-file", str(path)],
                       payload["name"], payload["expect"], work)
    return ops


# ---------------------------------------------------------------------------
# basin_bisection


def check_threshold(value) -> Optional[str]:
    lo, hi = BASIN_WINDOW
    if not lo < value < hi:
        return f"threshold {value!r} outside ({lo:.0f}, {hi:.0f})"
    return None


def basin_brackets(width: float, position: float) -> list[tuple[float, float]]:
    """Two brackets of one width with the boundary at `position` and at
    `1 - position` of the way up.  A run settles to the TFE in about 1.5x
    the time it takes to settle to the HTE, and the midpoints of the second
    bisection fall on the opposite side of the boundary where the first's
    fall on one side, so the pair costs about the same whatever the draw."""
    return [(BASIN_MID - x * width, BASIN_MID + (1.0 - x) * width)
            for x in (position, 1.0 - position)]


def basin_pass(rng: random.Random, work: Path) -> list[Op]:
    width, position = rng.uniform(*BASIN_WIDTH), rng.uniform(*BASIN_POSITION)
    return [Op(
        op_id=f"threshold[{lo:.0f},{hi:.0f}]",
        run=lambda bracket=(lo, hi): ticsp.integrator.basin_threshold(*BASIN_IMMUNE, P, bracket),
        check=check_threshold,
    ) for lo, hi in basin_brackets(width, position)]


# ---------------------------------------------------------------------------
# bifurcation_sweep


def check_linear_scan(scan) -> Optional[str]:
    if scan.transcritical is None:
        return "no transcritical point found"
    if abs(scan.transcritical - D_TRANSCRITICAL) > 1e-6 * D_TRANSCRITICAL:
        return f"transcritical {scan.transcritical!r} != closed form {D_TRANSCRITICAL!r}"
    return None


def check_log_scan(scan) -> Optional[str]:
    first = float(scan.values[0])
    below = [br for br in scan.branches[1:] if br.values and br.values[0] == first]
    if sorted(br.stable[0] for br in below) != [False, True]:
        return f"expected one stable and one unstable HTE at d = {first}, got {len(below)} branches"
    lo, hi = FOLD_WINDOW
    if scan.saddle_node is None or not lo < scan.saddle_node < hi:
        return f"fold {scan.saddle_node!r} outside ({lo:.0f}, {hi:.0f})"
    return None


def bifurcation_pass(rng: random.Random, work: Path) -> list[Op]:
    ops = []
    for label, (lo, hi), log, check in (("linear", LINEAR_SCAN, False, check_linear_scan),
                                        ("log", LOG_SCAN, True, check_log_scan)):
        span = (lo * log_uniform(rng, SCAN_JITTER), hi * log_uniform(rng, SCAN_JITTER))
        ops.append(Op(
            op_id=f"scan-{label}[{span[0]:.4g},{span[1]:.4g}]",
            run=lambda span=span, log=log: ticsp.equilibria.bifurcation_scan(
                P, "d", span, SCAN_STEPS, log=log),
            check=check,
        ))
    return ops


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    why: str
    make_pass: Callable[[random.Random, Path], list[Op]]


WORKLOADS = {
    "case_report": Workload(
        "report and reduce CLI commands on TP, TR, TP1, TR1 and seeded TP/TR "
        "scenario files: the main user path through cli, harness, csp, dense "
        "integration and reduction",
        case_report_pass),
    "basin_bisection": Workload(
        "basin thresholds from seeded brackets around the boundary: endpoint "
        "Radau runs near the separatrix, one find_hte call and no csp, so csp "
        "changes should not move it",
        basin_pass),
    "bifurcation_sweep": Workload(
        "seeded linear and log scans of d: equilibria only, no integration, and "
        "every find_hte call has new parameters, so a parameter-keyed cache "
        "gains nothing",
        bifurcation_pass),
}


def warm_up(work: Path) -> None:
    """Fill lazy imports and first-call caches before anything is timed."""
    ticsp.cli.main(["equilibria", "--out", str(work / "warm-up")])
    cfg = ticsp.integrator.IntegratorConfig(t_end=5.0)
    ticsp.integrator.integrate(SCENARIOS["TR"].state, P, cfg)
