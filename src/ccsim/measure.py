"""Waveform measurements: peak-to-peak voltage, gain, source power, and the
tuning-case classifier for the conveyor amplifier.

All readings are steady-state style: the default window is the trailing half
of the run, shrunk to a whole number of input periods when the circuit has a
single sinusoidal source, so startup samples and fractional periods do not
bias the numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    EmptyWindowError,
    NonPositiveResistanceError,
    NoSourcesError,
    ZeroInputError,
)
from .netlist import KIND_ISOURCE, KIND_VSOURCE
from .solver import Waveform

CASE_I = "CaseI"  # r1 > r2
CASE_II = "CaseII"  # r2 > r1
CASE_III = "CaseIII"  # r1 == r2

AMPLIFIES = "amplifies"
ATTENUATES = "attenuates"


@dataclass(frozen=True)
class TuningCase:
    """Resistor-ordering regime of the amplifier and its predicted effect."""

    label: str
    predicted_gain: float
    behavior: str


def default_window(w: Waveform) -> tuple[float, float]:
    """Trailing half of the run, rounded down to whole source periods."""
    t0, t1 = float(w.times[0]), float(w.times[-1])
    half = (t1 - t0) / 2.0
    freqs = [e.params["freq"] for e in w.circuit.elements if "freq" in e.params]
    if len(freqs) == 1:
        period = 1.0 / freqs[0]
        periods = math.floor(half / period)
        if periods >= 1:
            return t1 - periods * period, t1
    return t1 - half, t1


def _window_mask(w: Waveform, window: tuple[float, float] | None) -> np.ndarray:
    start, stop = window if window is not None else default_window(w)
    if len(w.times) > 1:
        tol = (w.times[1] - w.times[0]) * 1e-6
    else:
        tol = 0.0
    mask = (w.times >= start - tol) & (w.times <= stop + tol)
    if not mask.any():
        raise EmptyWindowError(f"window ({start}, {stop}) contains no samples")
    return mask


def vpp(w: Waveform, node: str, window: tuple[float, float] | None = None) -> float:
    """Peak-to-peak voltage of ``node`` over the window (max minus min)."""
    trace = w.voltage(node)[_window_mask(w, window)]
    return float(trace.max() - trace.min())


def gain_pp(
    w: Waveform,
    in_node: str,
    out_node: str,
    window: tuple[float, float] | None = None,
) -> float:
    """Peak-to-peak voltage gain vpp(out)/vpp(in)."""
    vin = vpp(w, in_node, window)
    if vin == 0.0:
        raise ZeroInputError(f"input node {in_node!r} has zero peak-to-peak voltage")
    return vpp(w, out_node, window) / vin


def source_power(
    w: Waveform, window: tuple[float, float] | None = None
) -> tuple[float, float]:
    """(average, peak) power delivered by all independent sources.

    Average is the trapezoidal mean over the window, exact for whole periods
    on a uniform grid; peak is max |p(t)|.
    """
    if not any(e.kind in (KIND_ISOURCE, KIND_VSOURCE) for e in w.circuit.elements):
        raise NoSourcesError("waveform has no source branches")
    p = w.total_source_power()[_window_mask(w, window)]
    if len(p) == 1:
        average = float(p[0])
    else:
        average = float((p.sum() - 0.5 * (p[0] + p[-1])) / (len(p) - 1))
    return average, float(np.abs(p).max())


def classify_tuning(r1: float, r2: float, r_x: float) -> TuningCase:
    """Label the (r1, r2) ordering and predict amplify/attenuate behavior.

    The predicted gain r2/(r1 + r_x) includes the conveyor's intrinsic
    resistance; with any r_x > 0 the equal-resistor case attenuates rather
    than passing unity.
    """
    if not (r1 > 0 and r2 > 0) or r_x < 0:
        raise NonPositiveResistanceError(
            "need r1 > 0, r2 > 0 and r_x >= 0 to classify"
        )
    if r1 > r2:
        label = CASE_I
    elif r2 > r1:
        label = CASE_II
    else:
        label = CASE_III
    gain = r2 / (r1 + r_x)
    return TuningCase(
        label=label,
        predicted_gain=gain,
        behavior=AMPLIFIES if gain > 1.0 else ATTENUATES,
    )
