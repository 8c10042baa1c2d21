"""The tier-1 command CI runs is the one ROADMAP.md documents, CI checks the
benchmark's seeded input ranges, and it runs each benchmark workload once
and checks its result line."""
import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = "python3 perfbench/run.py --workload basin_bisection --seed 1 --seconds 1 --trace 0"
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


def test_ci_runs_the_documented_tier1_command():
    # Both read as plain text: CI installs no YAML parser.
    workflow = (ROOT / ".github" / "workflows" / "tier1.yml").read_text()
    ci = re.findall(r"^\s+run: (.*python -m pytest.*)$", workflow, re.M)
    documented = re.findall(r"^\*\*Tier-1 verify:\*\* `(.*)`$",
                            (ROOT / "ROADMAP.md").read_text(), re.M)
    assert len(ci) == 1 and len(documented) == 1
    assert ci == documented


def _assert_ci_smoke_runs(workload):
    """CI runs the workload once and fails unless its result line is correct
    with no failed operation."""
    bench = BENCH.replace("basin_bisection", workload)
    workflow = (ROOT / ".github" / "workflows" / "tier1.yml").read_text()
    steps = re.split(r"^      - ", workflow, flags=re.M)
    found = [step for step in steps if bench in step]
    assert len(found) == 1, workload
    step = found[0]
    # pipefail (shell: bash) so that a failing benchmark fails the step
    assert re.search(r"^        shell: bash$", step, re.M)
    assert f"{bench} | tail -n 1 > {workload}.json" in step
    assert f'json.load(open("{workload}.json"))' in step
    assert 'r["correct"] is True and r["failed"] == 0' in step
    assert "sys.exit(0 if " in step


def test_ci_runs_the_basin_bisection_benchmark_and_checks_it():
    _assert_ci_smoke_runs("basin_bisection")


@pytest.mark.parametrize("workload", [w for w in WORKLOADS if w != "basin_bisection"])
def test_ci_smoke_runs_the_other_workloads_and_checks_them(workload):
    _assert_ci_smoke_runs(workload)


def test_ci_checks_the_benchmark_input_ranges():
    workflow = (ROOT / ".github" / "workflows" / "tier1.yml").read_text()
    assert re.findall(r"^        run: python3 perfbench/check_jitter\.py$", workflow, re.M)
