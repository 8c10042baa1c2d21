"""Where can the system rest?  Equilibria and how they appear and vanish.

The model admits a tumor-free rest state (immune surveillance wins) and,
for the fitted parameters, a pair of high-tumor states: a stable one that
trajectories actually reach, and an unstable one that sits between the two
basins.  Sweeping the lysis capacity `d` shows both ends of that picture:
the tumor-free state gains stability at a threshold value, and the
high-tumor pair collapses and disappears once killing is strong enough.
"""
import numpy as np

from ticsp import DEFAULT_PARAMETERS
from ticsp.equilibria import bifurcation_scan, find_hte, tfe, tfe_stable

P = DEFAULT_PARAMETERS

print("=== Rest states at the fitted parameters ===")
tumor_free = tfe(P)
rows = [tumor_free, *find_hte(P)]
print(f"{'kind':>5} {'stable':>7} {'T':>12} {'N':>10} {'L':>12} {'C':>12}")
for eq in rows:
    print(f"{eq.kind:>5} {str(eq.stable):>7} "
          f"{eq.T:12.4g} {eq.N:10.4g} {eq.L:12.4g} {eq.C:12.4g}")

print()
print("Eigenvalues of the tumor-free state (all real):")
print(" ", np.round(tumor_free.eigenvalues.real, 6))

# The tumor-free state is stable exactly when immune killing beats net
# tumor growth: (a - d) beta f < alpha c e.
d_star = P.a - P.alpha * P.c * P.e / (P.beta * P.f)
print(f"\nAnalytic stability threshold for the lysis capacity: d* = {d_star:.8f}")
print(f"Fitted d = {P.d} -> tumor-free state stable: {tfe_stable(P)}")

print("\n=== Sweep d across the threshold ===")
scan = bifurcation_scan(P, "d", (0.05, 1.0), 40)
print(f"scanner refines the stability flip to d = {scan.transcritical:.8f}")
print(f"matches the analytic value to {abs(scan.transcritical - d_star):.2e}")

print("\n=== Sweep d far up: the high-tumor pair disappears ===")
wide = bifurcation_scan(P, "d", (2.34, 2000.0), 60, log=True)
print(f"last swept d still carrying two high-tumor branches: {wide.saddle_node:.1f}")
print(f"high-tumor equilibria at d = 1200: {find_hte(P.replace(d=1200.0))}")
print("\nPast the fold, every trajectory ends tumor-free -- lysis capacity")
print("alone, pushed ~430x above the fitted value, cures the model patient.")
