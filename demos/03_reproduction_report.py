"""Regenerate the published amplifier measurements end to end.

Each row re-simulates one operating point: ideal gains for the three figure
configurations, level-2 runs with R_X calibrated from the fig8 measurement,
the three tuning cases, and the two-conveyor comparison circuit.

Run with:  python demos/03_reproduction_report.py
"""

from ccsim import calibrated_rx, run_reproduction

print(f"calibrated R_X = {calibrated_rx():.1f} ohm "
      "(from 130 mVpp out of 100 mVpp in at R1=8k, R2=15k)\n")

report = run_reproduction()
for name, r in report.items():
    reference = "" if r.reference_vpp is None else f", reference {r.reference_vpp:g} Vpp"
    print(f"{name:13} level {r.level}: {r.measured_vpp:.6g} Vpp{reference}  ({r.note})")

fig7 = report["fig7"]
print(f"\nfig7 check: model predicts {fig7.measured_vpp * 1e3:.0f} mVpp, "
      f"reference is {fig7.reference_vpp * 1e3:.0f} mVpp "
      f"({fig7.deviation:+.1%} deviation, model adequacy band is 20%)")
