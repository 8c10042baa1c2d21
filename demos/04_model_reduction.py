"""Two algebraic constraints turn four stiff equations into two slow ones.

Once the two fast modes are exhausted, the NK and effector populations are
enslaved to the tumor and lymphocyte pools:

    N_hat = e C / (p T)          L_hat = r2 C T / (q T + m)

Substituting them leaves a two-equation model for (T, C) that references
only 10 effective parameters.  This demo measures how well the constraints
hold on the full trajectory, then integrates the reduced model and compares.
"""
import numpy as np

from ticsp import DEFAULT_PARAMETERS
from ticsp.harness import run_scenario
from ticsp.reduction import compare_reduced, simulate_reduced

P = DEFAULT_PARAMETERS

res = run_scenario("TP")
err = res.errors
print("=== Constraint errors along the full TP run ===")
print(f"stage window [0.2, 0.95] x t_exp = [{err.window[0]:.2f}, {err.window[1]:.2f}] d")
print(f"max |RE_N| in window: {err.max_re_n:.4f}")
print(f"max |RE_L| in window: {err.max_re_l:.4f}")
after = res.trajectory.t > err.t_exp
print("after the stage (escape case keeps the constraints):"
      f" max RE = {np.nanmax(np.abs(np.c_[err.re_n[after], err.re_l[after]])):.4f}")

print("\n=== Reduced model vs full model (TP) ===")
red = simulate_reduced(1e6, 6e8, P)
rep = compare_reduced(res.trajectory, red, res.stage, res.stable_equilibria)
print(f"effective parameters referenced: {red.effective.count}")
print(f"  {red.effective}")
print(f"full model reaches {rep.full_attractor}, reduced reaches {rep.reduced_attractor}")
print(f"max relative deviation in the stage window, per variable:")
for var, e in zip("TNLC", rep.max_err):
    print(f"  {var}: {e:.2e}")
print(f"final tumor burden: full {res.trajectory.y[-1, 0]:.6g},"
      f" reduced {red.y[-1, 0]:.6g}")

print("\n=== Same comparison for the remission case (TR) ===")
tr = run_scenario("TR")
red_tr = simulate_reduced(1e7, 4e10, P)
rep_tr = compare_reduced(tr.trajectory, red_tr, tr.stage, tr.stable_equilibria)
print(f"full model reaches {rep_tr.full_attractor}, reduced reaches"
      f" {rep_tr.reduced_attractor}")
print("window errors per variable:", np.round(rep_tr.max_err, 3))
print("(TR starts far off-constraint and its stage is short, so the reduced")
print(" run -- which must start on the constraints -- deviates early on;")
print(" the verdict that the tumor is cleared is unchanged.)")
