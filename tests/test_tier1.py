"""The tier-1 command CI runs is the one ROADMAP.md documents, CI checks the
benchmark's seeded input ranges, and it runs each benchmark workload
untraced and traced and checks each result line."""
import json
import os
import re
import subprocess
import sys
import textwrap
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


#: `python3` for CI's smoke step: `perfbench/run.py` appends its command line
#: to $SMOKE_LOG, prints a progress line and a result line, and breaks the run
#: named by $SMOKE_FAIL ("workload trace how"): "failed" reports one failed
#: operation, "incorrect" reports `correct` false, and "crash" exits 1 before
#: its result line.  Anything else runs in Python.
_FAKE_PYTHON = """
import json, os, sys
if sys.argv[1:2] != ["perfbench/run.py"]:
    os.execv(sys.executable, [sys.executable] + sys.argv[1:])
with open(os.environ["SMOKE_LOG"], "a") as log:
    print("python3", *sys.argv[1:], file=log)
args = sys.argv[2:]
run = f"{args[args.index('--workload') + 1]} {args[args.index('--trace') + 1]}"
broken, _, how = os.environ["SMOKE_FAIL"].rpartition(" ")
how = how if run == broken else ""
print("a progress line")
if how == "crash":
    sys.exit(1)
print(json.dumps({"correct": how != "incorrect", "failed": int(how == "failed")}))
"""

#: How each workload's untraced and traced runs are broken: each way of
#: failing meets both trace modes, and each run is broken once.
_BREAKS = {"basin_bisection": ("failed", "incorrect"),
           "case_report": ("crash", "failed"),
           "bifurcation_sweep": ("incorrect", "crash")}


def _run_ci_smoke_step(tmp_path, fail=""):
    """Run CI's benchmark smoke step as CI runs a `shell: bash` step, in
    tmp_path with `_FAKE_PYTHON` as `python3`; returns the finished process
    and the benchmark commands it ran."""
    workflow = (ROOT / ".github" / "workflows" / "tier1.yml").read_text()
    steps = [step for step in re.split(r"^      - ", workflow, flags=re.M)
             if "perfbench/run.py" in step]
    assert len(steps) == 1
    # pipefail (shell: bash) so that a failing benchmark fails the step
    assert re.search(r"^        shell: bash$", steps[0], re.M)
    script = textwrap.dedent(steps[0].split("run: |\n", 1)[1])
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir(exist_ok=True)
    fake = bin_dir / "python3"
    fake.write_text(f"#!{sys.executable}{_FAKE_PYTHON}")
    fake.chmod(0o755)
    log = tmp_path / "runs.log"
    log.write_text("")
    env = {**os.environ, "PATH": f"{bin_dir}{os.pathsep}{os.environ['PATH']}",
           "SMOKE_LOG": str(log), "SMOKE_FAIL": fail}
    done = subprocess.run(["bash", "--noprofile", "--norc", "-eo", "pipefail", "-c", script],
                          cwd=tmp_path, env=env, capture_output=True, text=True)
    return done, log.read_text().splitlines()


def _assert_ci_smoke_checks(workload, tmp_path):
    """CI fails, naming the workload and the trace mode, when a run of the
    workload crashes, or its result line is not correct or has a failed
    operation."""
    for trace, how in zip("01", _BREAKS[workload]):
        failed, _ = _run_ci_smoke_step(tmp_path, fail=f"{workload} {trace} {how}")
        assert failed.returncode != 0, how
        assert f"{workload} --trace {trace}: " in failed.stderr, how


def test_ci_runs_the_basin_bisection_benchmark_and_checks_it(tmp_path):
    """CI runs each workload untraced and traced, with the same six commands
    and result files as its six former steps, and checks basin_bisection's."""
    done, runs = _run_ci_smoke_step(tmp_path)
    assert done.returncode == 0, done.stderr
    want = [BENCH.replace("basin_bisection", w).replace("--trace 0", f"--trace {t}")
            for w in WORKLOADS for t in "01"]
    assert sorted(runs) == sorted(want)
    for out in [f"{w}{suffix}.json" for w in WORKLOADS for suffix in ("", "-traced")]:
        assert json.loads((tmp_path / out).read_text()) == {"correct": True, "failed": 0}
    _assert_ci_smoke_checks("basin_bisection", tmp_path)


@pytest.mark.parametrize("workload", [w for w in WORKLOADS if w != "basin_bisection"])
def test_ci_smoke_runs_the_other_workloads_and_checks_them(workload, tmp_path):
    _assert_ci_smoke_checks(workload, tmp_path)


def test_ci_checks_the_benchmark_input_ranges():
    workflow = (ROOT / ".github" / "workflows" / "tier1.yml").read_text()
    assert re.findall(r"^        run: python3 perfbench/check_jitter\.py$", workflow, re.M)
