"""Scenario library, perturbation experiments, and checkpointed reporting.

Bundles the full pipeline for one named case — integrate, detect the
explosive stage, evaluate diagnostics at checkpoints, track constraint
errors, classify the reached attractor — and compares baseline vs.
perturbed runs with directional verdicts recomputed from the trajectories.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .csp import (
    DiagnosticsRecord,
    ExplosiveStage,
    _check_fixed_M,
    diagnostics_records,
    explosive_stage,
    mode_eigenvalues,
)
from .equilibria import Equilibrium, find_hte, tfe
from .integrator import (
    IntegrationError,
    IntegratorConfig,
    Trajectory,
    classify_attractor,
    evaluate_dense,
    integrate,
    settle_attractor,
)
from .kinetics import VARIABLES, State
from .params import DEFAULT_PARAMETERS, ParameterSet, number
from .reduction import ConstraintErrorSeries, constraint_errors

#: t/t_exp sampling points for the standard diagnostics checkpoints.
CHECKPOINTS = (0.0, 0.2, 0.5, 0.8)

#: Interior samples used to decide which processes act persistently
#: across the explosive stage (densely covers 0.1 < t/t_exp < 0.95).
PERSISTENCE_FRACTIONS = tuple(np.arange(0.125, 0.95, 0.025))
_II_THRESHOLD = 0.02     # ii_persistence: |II| above this counts as significant
_II_MIN_FRACTION = 0.5   # ii_persistence: share of the samples that must count
_RANKED_CUTOFF = 0.95    # ranked_entries: cumulative |value| kept per table row
_WINDOW_SAMPLES = 151    # run_perturbation: states sampled per comparison window
_NEGLIGIBLE_BAND = 0.05  # run_perturbation: |ratio - 1| up to this is "negligible"


# ---------------------------------------------------------------------------
# Scenario library


@dataclass(frozen=True)
class Scenario:
    """A named initial-condition case with an optional expected attractor."""

    name: str
    T0: float
    N0: float
    L0: float
    C0: float
    t_end: float = 200.0
    expect: Optional[str] = None          # "TFE" | "HTE" | None
    params: Optional[ParameterSet] = None  # overrides the run-time default

    def __post_init__(self):
        if not 0.0 < self.T0 < np.inf:
            raise ValueError(f"scenario {self.name!r}: T0 must be positive and finite")
        for name in ("N0", "L0", "C0"):
            if not 0.0 <= getattr(self, name) < np.inf:
                raise ValueError(f"scenario {self.name!r}: {name} must be "
                                 "nonnegative and finite")
        if not 0.0 < self.t_end < np.inf:
            raise ValueError(f"scenario {self.name!r}: t_end must be positive and finite")
        if self.expect not in (None, "TFE", "HTE"):
            raise ValueError(f"scenario {self.name!r}: expect must be TFE, HTE or None")

    @property
    def state(self) -> State:
        return State(0.0, self.T0, self.N0, self.L0, self.C0)


SCENARIOS: dict[str, Scenario] = {
    "TP": Scenario("TP", 1e6, 1e3, 1e1, 6e8, expect="HTE"),
    "TR": Scenario("TR", 1e7, 2e5, 1e2, 4e10, expect="TFE"),
    "TP1": Scenario("TP1", 319393.0, 1e3, 1e1, 6e8, expect="HTE"),
    "TR1": Scenario("TR1", 319392.0, 1e3, 1e1, 6e8, expect="TFE"),
}


def get_scenario(name: str) -> Scenario:
    try:
        return SCENARIOS[name]
    except KeyError:
        known = ", ".join(sorted(SCENARIOS))
        raise ValueError(f"unknown scenario {name!r} (built-ins: {known})") from None


_SCENARIO_REQUIRED = ("name", "T0", "N0", "L0", "C0")
_SCENARIO_FIELDS = (*_SCENARIO_REQUIRED, "t_end", "params_file", "expect")


def scenario_from_json(path) -> Scenario:
    """Load a scenario file: {name, T0, N0, L0, C0, t_end?, params_file?, expect?}.

    A malformed file or a name that is no directory name raises
    ValueError naming the file and the field.
    """
    path = Path(path)
    text = path.read_text()
    try:
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError(f"expected a JSON object, got {type(data).__name__}")
        unknown = sorted(set(data) - set(_SCENARIO_FIELDS))
        if unknown:
            raise ValueError(f"unknown field {unknown[0]!r}")
        missing = [key for key in _SCENARIO_REQUIRED if key not in data]
        if missing:
            raise ValueError(f"missing field {missing[0]!r}")
        name = str(data["name"])
        if name in ("", ".", "..") or Path(name).name != name:
            raise ValueError(f"field 'name' must be a directory name, got {name!r}")
        params = None
        if data.get("params_file"):
            params = ParameterSet.from_json(path.parent / data["params_file"])
        return Scenario(
            name=name, expect=data.get("expect"), params=params,
            **{key: number(data[key], f"field {key!r}")
               for key in ("T0", "N0", "L0", "C0", "t_end") if key in data})
    except ValueError as exc:
        raise ValueError(f"{path}: {exc.args[0]}") from None


# ---------------------------------------------------------------------------
# Scenario runs


@dataclass(frozen=True)
class TimescaleTable:
    """Per-grid-point timescales and eigenvalue real parts."""

    t: np.ndarray          # (n,)
    tau: np.ndarray        # (n, 4), ascending per row
    re_lambda: np.ndarray  # (n, 4)
    explosive: np.ndarray  # (n,) bool: any amplifying mode at that time


@dataclass(frozen=True)
class ScenarioResult:
    """Everything one scenario run produces."""

    scenario: Scenario
    params: ParameterSet
    trajectory: Trajectory
    stage: Optional[ExplosiveStage]
    records: tuple[DiagnosticsRecord, ...]
    errors: ConstraintErrorSeries
    equilibria: tuple[Equilibrium, ...]
    attractor: Optional[str]
    timescales: TimescaleTable

    @property
    def t_exp(self) -> Optional[float]:
        return None if self.stage is None else self.stage.t_exp

    @property
    def stable_equilibria(self) -> list[Equilibrium]:
        """The attractors runs are classified against: the stable members
        of `equilibria`."""
        return [eq for eq in self.equilibria if eq.stable]

    def checkpoint(self, frac: float) -> DiagnosticsRecord:
        for rec in self.records:
            if abs(rec.t_over_texp - frac) < 1e-12:
                return rec
        raise KeyError(f"no diagnostics record at t/t_exp = {frac}")


def timescale_table(traj: Trajectory, params: ParameterSet) -> TimescaleTable:
    lam = mode_eigenvalues(traj.y, params)
    return TimescaleTable(t=traj.t.copy(), tau=1.0 / np.abs(lam), re_lambda=lam.real,
                          explosive=np.any(lam.real > 0.0, axis=1))


def run_scenario(scenario: Scenario | str,
                 params: Optional[ParameterSet] = None,
                 config: Optional[IntegratorConfig] = None,
                 checkpoints: Sequence[float] = CHECKPOINTS,
                 fixed_M: Optional[int] = None,
                 settle: bool = True) -> ScenarioResult:
    """Integrate one scenario and derive the full diagnostic bundle.

    Diagnostics records are evaluated at t/t_exp in `checkpoints` (skipped
    entirely when no explosive stage exists); a negative or non-finite one
    raises ValueError before the run, and one past the run's end raises
    ValueError before any record is evaluated.  M for the importance index
    is adaptive unless `fixed_M` (checked before the run) pins it.  With
    `settle=False` the attractor is classified only from the final state and
    may come back None on horizons too short to approach an equilibrium;
    otherwise an unclassified run goes to `settle_attractor`, which labels a
    final state already in a certified region without another solver run
    and otherwise integrates further until the run settles (and raises if
    it never does).
    An integration that stops before the horizon raises IntegrationError;
    a classified attractor other than the scenario's `expect` raises
    RuntimeError.
    The stage and the equilibria are computed once and shared by every
    derived quantity.
    """
    for frac in checkpoints:
        if not 0.0 <= frac < np.inf:
            raise ValueError(f"checkpoints must be nonnegative and finite, got {frac!r}")
    _check_fixed_M(fixed_M)
    if isinstance(scenario, str):
        scenario = get_scenario(scenario)
    p = params if params is not None else (scenario.params or DEFAULT_PARAMETERS)
    cfg = config or IntegratorConfig(t_end=scenario.t_end)

    traj = integrate(scenario.state, p, cfg)
    if not traj.complete:
        raise IntegrationError(
            f"scenario {scenario.name!r}: integration stopped at "
            f"t = {traj.t[-1]:.6g} of {cfg.t_end:.6g} days ({traj.stats.message})"
        )
    stage = explosive_stage(traj, p)
    records = []
    if stage is not None:
        for frac in checkpoints:
            if frac * stage.t_exp > traj.t[-1]:
                raise ValueError(
                    f"checkpoint {frac!r} x t_exp = {frac * stage.t_exp:.6g} days is "
                    f"past the run's end at t = {traj.t[-1]:.6g} days")
        states = [evaluate_dense(traj, frac * stage.t_exp) for frac in checkpoints]
        records = diagnostics_records(states, p, checkpoints, fixed_M)

    equilibria = (tfe(p), *find_hte(p))
    targets = [eq for eq in equilibria if eq.stable]
    attractor = classify_attractor(traj.y[-1], targets)
    if attractor is None and settle:
        attractor = settle_attractor(traj.y[-1], p, cfg, targets)
    if scenario.expect and attractor and attractor != scenario.expect:
        raise RuntimeError(f"scenario {scenario.name!r}: run classified as {attractor}, "
                           f"expected {scenario.expect}")

    return ScenarioResult(
        scenario=scenario,
        params=p,
        trajectory=traj,
        stage=stage,
        records=tuple(records),
        errors=constraint_errors(traj, p, stage),
        equilibria=equilibria,
        attractor=attractor,
        timescales=timescale_table(traj, p),
    )


# ---------------------------------------------------------------------------
# Perturbation experiments


@dataclass(frozen=True)
class PerturbationSpec:
    """One multiplicative parameter change applied to a baseline scenario."""

    parameter: str
    multiplier: float
    baseline: str = "TP"

    def __post_init__(self):
        if not self.multiplier > 0.0:
            raise ValueError("perturbation multiplier must be positive")
        if self.parameter not in DEFAULT_PARAMETERS.to_dict():
            raise ValueError(f"unknown parameter {self.parameter!r}")


@dataclass(frozen=True)
class PerturbationReport:
    """Baseline-vs-perturbed comparison over the shared stage window."""

    spec: PerturbationSpec
    base: ScenarioResult
    perturbed: ScenarioResult
    window: tuple[float, float]      # [0.2, 0.95] x min(t_exp)
    late_window: tuple[float, float]  # [0.5, 0.95] x min(t_exp)
    mean_ratio: np.ndarray           # (4,) perturbed/baseline window means
    late_ratio: np.ndarray           # (4,) same over the late window
    max_rel_change: np.ndarray       # (4,) max |delta|/max(|base|, 1) in window
    verdicts: dict[str, str] = field(default_factory=dict)

    @property
    def t_exp_base(self) -> float:
        return self.base.t_exp

    @property
    def t_exp_perturbed(self) -> float:
        return self.perturbed.t_exp

    @property
    def rel_delta_t_exp(self) -> float:
        return (self.t_exp_perturbed - self.t_exp_base) / self.t_exp_base


def _window_samples(traj: Trajectory, lo: float, hi: float) -> np.ndarray:
    ts = np.linspace(lo, hi, _WINDOW_SAMPLES)
    return np.array([evaluate_dense(traj, t).array() for t in ts])


def _direction(ratio: float) -> str:
    if ratio > 1.0 + _NEGLIGIBLE_BAND:
        return "increase"
    if ratio < 1.0 - _NEGLIGIBLE_BAND:
        return "decrease"
    return "negligible"


def run_perturbation(spec: PerturbationSpec,
                     params: Optional[ParameterSet] = None,
                     config: Optional[IntegratorConfig] = None) -> PerturbationReport:
    """Run baseline and perturbed copies of the scenario and compare them.

    All verdicts are recomputed from the two trajectories.  Comparison
    windows are normalized by the shorter of the two stage durations so both
    runs are sampled strictly inside their exponential-growth phases.
    """
    base_p = params if params is not None else DEFAULT_PARAMETERS
    pert_p = base_p.scaled(spec.parameter, spec.multiplier)
    scn = get_scenario(spec.baseline)

    base = run_scenario(scn, base_p, config)
    pert = run_scenario(scn, pert_p, config)
    if base.stage is None or pert.stage is None:
        raise RuntimeError(
            f"perturbation {spec.parameter} x {spec.multiplier}: both runs must "
            "exhibit an explosive stage to be compared"
        )

    t_min = min(base.t_exp, pert.t_exp)
    window = (0.2 * t_min, 0.95 * t_min)
    late_window = (0.5 * t_min, 0.95 * t_min)

    yb = _window_samples(base.trajectory, *window)
    yp = _window_samples(pert.trajectory, *window)
    mean_ratio = yp.mean(axis=0) / yb.mean(axis=0)
    max_rel_change = np.max(np.abs(yp - yb) / np.maximum(np.abs(yb), 1.0), axis=0)

    lb = _window_samples(base.trajectory, *late_window)
    lp = _window_samples(pert.trajectory, *late_window)
    late_ratio = lp.mean(axis=0) / lb.mean(axis=0)

    rel_dt = (pert.t_exp - base.t_exp) / base.t_exp
    verdicts = {"t_exp": _direction(1.0 + rel_dt)}
    for i, var in enumerate(VARIABLES):
        verdicts[var] = _direction(float(late_ratio[i]))

    return PerturbationReport(
        spec=spec, base=base, perturbed=pert,
        window=window, late_window=late_window,
        mean_ratio=mean_ratio, late_ratio=late_ratio,
        max_rel_change=max_rel_change, verdicts=verdicts,
    )


# ---------------------------------------------------------------------------
# Table-style reporting


@dataclass(frozen=True)
class IndexTable:
    """One reported row: the dominant entries of one index at one checkpoint."""

    t_over_texp: float
    kind: str                        # "API" | "TPI" | "Po" | "II"
    row: str                         # "mode 1".."mode 4" or a variable name
    M: int
    entries: tuple[tuple[object, float], ...]  # (process number or variable, value)


def ranked_entries(values: np.ndarray, labels: Sequence) -> tuple[tuple[object, float], ...]:
    """Entries in descending |value| until their cumulative |value| reaches
    `_RANKED_CUTOFF` (ties broken by original position).  The input rows
    are normalized, so the cumulative sum of a full row is 1."""
    v = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(v)):
        return ()
    order = np.lexsort((np.arange(v.size), -np.abs(v)))
    out, cum = [], 0.0
    for idx in order:
        if cum >= _RANKED_CUTOFF:
            break
        out.append((labels[idx], float(v[idx])))
        cum += abs(v[idx])
    return tuple(out)


def _record_tables(rec: DiagnosticsRecord) -> list[IndexTable]:
    processes = tuple(range(1, 16))
    tables = []
    for n in range(4):
        row = f"mode {n + 1}"
        tables.append(IndexTable(rec.t_over_texp, "API", row, rec.M,
                                 ranked_entries(rec.api[n], processes)))
        tables.append(IndexTable(rec.t_over_texp, "TPI", row, rec.M,
                                 ranked_entries(rec.tpi[n], processes)))
        tables.append(IndexTable(rec.t_over_texp, "Po", row, rec.M,
                                 ranked_entries(rec.pointer[n], VARIABLES)))
    for i, var in enumerate(VARIABLES):
        tables.append(IndexTable(rec.t_over_texp, "II", var, rec.M,
                                 ranked_entries(rec.importance[i], processes)))
    return tables


def ii_persistence(result: ScenarioResult) -> dict[str, tuple[int, ...]]:
    """Processes whose importance stays above `_II_THRESHOLD` persistently.

    A process is persistent for a variable when |II| > _II_THRESHOLD at more
    than `_II_MIN_FRACTION` of the interior stage samples
    (`PERSISTENCE_FRACTIONS`, adaptive M at each).  Processes significant
    only in the initial transient or in the final approach to t_exp are
    excluded by construction.
    """
    if result.stage is None:
        return {var: () for var in VARIABLES}
    states = [evaluate_dense(result.trajectory, frac * result.stage.t_exp)
              for frac in PERSISTENCE_FRACTIONS]
    records = diagnostics_records(states, result.params, PERSISTENCE_FRACTIONS)
    counts = sum(np.abs(rec.importance) > _II_THRESHOLD for rec in records)
    need = _II_MIN_FRACTION * len(PERSISTENCE_FRACTIONS)
    return {
        var: tuple(int(k + 1) for k in range(15) if counts[i, k] > need)
        for i, var in enumerate(VARIABLES)
    }


def joint_ii_persistence(results: Sequence[ScenarioResult]) -> dict[str, tuple[int, ...]]:
    """Union of per-scenario persistent processes over several runs."""
    joint: dict[str, set[int]] = {var: set() for var in VARIABLES}
    for res in results:
        for var, procs in ii_persistence(res).items():
            joint[var].update(procs)
    return {var: tuple(sorted(procs)) for var, procs in joint.items()}


def report_tables(result: ScenarioResult) -> tuple[IndexTable, ...]:
    """Dominant-entry tables at every checkpoint."""
    return tuple(tab for rec in result.records for tab in _record_tables(rec))
