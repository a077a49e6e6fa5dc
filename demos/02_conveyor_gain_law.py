"""The conveyor amplifier's gain law, with and without intrinsic resistance.

The single-conveyor amplifier follows its Y-port voltage at X, converts it to
a current through R1, mirrors that current to Z, and turns it back into a
voltage across R2. Ideal gain is R2/R1; a real conveyor adds the bias-tunable
resistance R_X in series with R1.

Run with:  python demos/02_conveyor_gain_law.py
"""

import numpy as np

from ccsim import (
    classify_tuning,
    conveyor_rx,
    gain_pp,
    proposed_amplifier_document,
    transient,
    validate,
)


def simulated_gain(r1, r2, cccii):
    circuit = validate(proposed_amplifier_document(r1, r2, cccii=cccii))
    waveform = transient(circuit, 20e-6, 2e-3)
    return gain_pp(waveform, "in", "out")


print("ideal conveyor: gain tracks R2/R1")
for r1, r2 in ((1e3, 100e3), (2e3, 50e3), (8e3, 15e3)):
    g = simulated_gain(r1, r2, {})
    print(f"  R1={r1:>6.0f}  R2={r2:>7.0f}  gain={g:8.3f}  (R2/R1 = {r2 / r1:.3f})")

print("\nbias current tunes R_X = 1/sqrt(8*beta*IB), hence the gain")
for ib in np.geomspace(10e-6, 1e-3, 5):
    cccii = {"ib": float(ib), "beta": 1e-3}
    rx = conveyor_rx(cccii)
    g = simulated_gain(8e3, 15e3, cccii)
    print(f"  IB={ib * 1e6:7.1f} uA  R_X={rx:8.1f} ohm  gain={g:.4f}"
          f"  (closed form {15e3 / (8e3 + rx):.4f})")

print("\nresistor ordering decides amplify vs attenuate (R_X = 1 kohm)")
for r1, r2 in ((10e3, 1e3), (1e3, 100e3), (5e3, 5e3)):
    case = classify_tuning(r1, r2, 1e3)
    print(f"  R1={r1:>6.0f}  R2={r2:>7.0f}  {case.label:8s} {case.behavior}"
          f"  predicted gain {case.predicted_gain:.3f}")
