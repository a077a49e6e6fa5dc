"""Rail clipping and power measurements on the level-2 conveyor model.

At R1=1k, R2=100k the ideal gain is 100, but the level-2 model clamps the
output inside the +/-0.5 V rails, reproducing the 1 Vpp ceiling seen in the
published waveforms.

Run with:  python demos/04_clipping_and_power.py
"""

from ccsim import (
    AmplifierSpec,
    build_proposed_amplifier,
    calibrated_rx,
    source_power,
    transient,
    vpp,
)

spec = AmplifierSpec(1e3, 100e3, cccii={"level": 2.0, "rx": calibrated_rx()})
waveform = transient(build_proposed_amplifier(spec), 20e-6, 5e-3)

print(f"input  vpp: {vpp(waveform, 'in') * 1e3:7.2f} mV")
print(f"output vpp: {vpp(waveform, 'out') * 1e3:7.2f} mV  (rail span is 1000 mV)")

avg, peak = source_power(waveform)
print(f"source power: average {avg * 1e6:.3f} uW, peak {peak * 1e6:.3f} uW"
      "  (the Y port draws no current, so the input source delivers none;"
      " the output power comes from the conveyor's mirrored branch)")

# A coarse ASCII look at one output period; the flat tops are the clamp.
period = waveform.times <= 1e-3
trace = waveform.voltage("out")[period]
for t, v in zip(waveform.times[period][::2], trace[::2]):
    bar = int(round((v + 0.55) * 40))
    print(f"  t={t * 1e3:5.2f} ms  {'.' * bar}o  {v:+.3f} V")

# The same data is available for external plotting:
#   ccsim experiment fig6 --dump-waveform out --out fig6.csv
print(f"\nsamples: {len(waveform.times)}, "
      f"output range [{trace.min():+.4f}, {trace.max():+.4f}] V")
