"""Which processes drive which mode?  The four diagnostic index tables.

Each decomposition splits the dynamics into modes with their own
timescales.  Four normalized indices answer the natural questions:
  API  - which processes participate in a mode's amplitude,
  TPI  - which processes set its timescale,
  Po   - which variables a mode points at,
  II   - which processes matter for each variable once fast modes are
         exhausted (the count M of exhausted modes is decided adaptively).
Ranked entries are truncated once their cumulative share reaches 95%.
"""
from ticsp.harness import ii_persistence, report_tables, run_scenario

res = run_scenario("TP")
tables = report_tables(res)


def show(frac, kind, row):
    tab = next(t for t in tables
               if t.t_over_texp == frac and t.kind == kind and t.row == row)
    entries = ", ".join(f"{lab}: {val:+.2f}" for lab, val in tab.entries)
    print(f"  {kind:>3} {row:<7} (M={tab.M}): {entries}")


print(f"=== Mid-stage tables for TP (t/t_exp = 0.5, t_exp = {res.t_exp:.2f} d) ===")
print("Fast mode 1 is the NK balance, fast mode 2 the effector balance:")
show(0.5, "API", "mode 1")
show(0.5, "TPI", "mode 1")
show(0.5, "Po", "mode 1")
show(0.5, "API", "mode 2")
show(0.5, "TPI", "mode 2")
show(0.5, "Po", "mode 2")

print("\nThe amplifying mode 3 is timed by tumor growth (process 1) and")
print("points at the tumor itself, more exclusively as the stage matures:")
for frac in (0.2, 0.5, 0.8):
    show(frac, "TPI", "mode 3")
    show(frac, "Po", "mode 3")

print("\n=== Persistently important processes (|II| > 2% over the stage) ===")
print("Per variable, processes important at more than half the interior samples:")
for var, procs in ii_persistence(res).items():
    print(f"  {var}: {list(procs)}")
print("\nProcess numbers: 1 growth, 2 NK influx, 3 lymphocyte influx, 4/5/6 decays,")
print("7 NK lysis, 8 effector lysis, 9 NK pool boost, 10-12 effector recruitment,")
print("13-15 inactivation/consumption terms.")
