#!/usr/bin/env python3
"""Check the benchmark's seeded input ranges at every corner.

    python3 perfbench/check_jitter.py

Runs, with the workloads' own correctness checks:
- `report` and `reduce` on the TP and TR scenario-file variants at each
  corner of their T0 and immune-population factors;
- the bifurcation scans at each corner of their jittered endpoints;
- the attractor of every bracket end that `basin_bisection` draws at the
  corners of its width and position ranges.
Exits 1 if any corner fails.
"""
import json
import os
import sys
from itertools import product
from pathlib import Path

os.environ.update({var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                        "MKL_NUM_THREADS")})
ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import ticsp.equilibria
import ticsp.integrator
from ticsp import DEFAULT_PARAMETERS as P

import workloads as w

WORK = ROOT / ".bench_build" / "perfbench" / "check_jitter"


def report(label: str, error) -> bool:
    print(f"{'ok  ' if error is None else 'FAIL'} {label}" + ("" if error is None else f": {error}"))
    return error is None


def main() -> int:
    ok = True
    WORK.mkdir(parents=True, exist_ok=True)
    for case, factor in w.JITTER.items():
        for t0_f, immune_f in product((1.0 / factor, factor), repeat=2):
            payload = w.jittered_scenario(case, t0_f, immune_f)
            path = WORK / f"{case}-T0x{t0_f:.4g}-immunex{immune_f:.4g}.json"
            path.write_text(json.dumps(payload))
            for op in w.cli_ops(path.stem, ["--scenario-file", str(path)],
                                payload["name"], payload["expect"], WORK):
                ok &= report(op.op_id, op.check(op.run()))

    scans = ((w.LINEAR_SCAN, False, w.check_linear_scan), (w.LOG_SCAN, True, w.check_log_scan))
    for (lo, hi), log, check in scans:
        for lo_f, hi_f in product((1.0 / w.SCAN_JITTER, w.SCAN_JITTER), repeat=2):
            span = (lo * lo_f, hi * hi_f)
            scan = ticsp.equilibria.bifurcation_scan(P, "d", span, w.SCAN_STEPS, log=log)
            ok &= report(f"{'log' if log else 'linear'} scan of d over "
                         f"[{span[0]:.4g}, {span[1]:.4g}]", check(scan))

    targets = ticsp.integrator.stable_equilibria(P)
    ends = set()
    for width in w.BASIN_WIDTH:
        for position in w.BASIN_POSITION:
            ends.update(w.basin_brackets(width, position))
    for T0, expect in sorted([(lo, "TFE") for lo, _ in ends] + [(hi, "HTE") for _, hi in ends]):
        label = ticsp.integrator.settle_attractor([T0, *w.BASIN_IMMUNE], P, targets=targets)
        ok &= report(f"bracket end T0 = {T0:.1f} settles to {expect}",
                     None if label == expect else f"settles to {label}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
