"""Device model library: MNA stamps and the CCCII conveyor macromodel.

The conveyor is a three-port element (Y, X, Z) obeying

    I_Y = 0
    V_X = V_Y + I_X * R_X
    I_Z = sigma * I_X        (sigma = +1 for a plus-type, -1 for a minus-type)

with all port currents taken positive flowing from the external node into the
device. R_X is the intrinsic resistance of the translinear input stage; it is
either given explicitly in ohms or derived from the bias current as

    R_X = 1 / (2 * g_m) = 1 / sqrt(8 * beta * I_B),   beta = mu_n*C_ox*W/L.

A conveyor's parameters are one map of netlist keys (``polarity``, ``level``,
``vdd``, ``vss`` and ``rx`` or ``ib``/``beta``), checked and filled in by
``netlist.conveyor_params``; the functions here take that map or plain numbers.

Model levels:
    1   ideal conveyor with the given R_X (no output limiting)
    2   same, plus a smooth rail clamp at the Z node standing in for
        transistor-level output saturation

Stamps are additive contributions to a dense MNA system whose unknowns are
node voltages followed by branch currents. Row/column arguments are dense
indices; the solver passes an index-less node (ground, or a floating Z
terminal) as a sink index whose row and column it drops after summing.
"""

from __future__ import annotations

import math
from typing import Mapping

import numpy as np

from .errors import NonPositiveResistanceError

# Rail clamp geometry: quadratic smoothing band width and saturated slope.
CLAMP_BAND = 10e-3  # V
CLAMP_RSAT = 1.0  # ohm

# Default supply rails, chosen so the clamped output span is 1 V.
DEFAULT_VDD = 0.5
DEFAULT_VSS = -0.5


def conveyor_rx(params: Mapping[str, float]) -> float:
    """Intrinsic X-port resistance of a checked conveyor map (see
    ``netlist.conveyor_params``): its ``rx``, or else 1/(2*g_m) with
    g_m = sqrt(2*beta*ib), i.e. 1/sqrt(8*beta*ib)."""
    if "rx" in params:
        return params["rx"]
    return 1.0 / math.sqrt(8.0 * params["beta"] * params["ib"])


# ── stamp layouts ───────────────────────────────────────────────────
#
# Each ``_*_entries`` function is the one place that knows its device's stamp
# layout. It returns parallel (rows, cols, vals) tuples of matrix entries, or
# (rows, vals) of right-hand-side entries, for the indices it is given.


def _resistor_entries(p, m, r: float) -> tuple[tuple, tuple, tuple]:
    """Conductance entries of a resistor ``r`` between nodes p and m."""
    if not (r > 0 and math.isfinite(r)):
        raise NonPositiveResistanceError(f"resistance must be positive and finite, got {r}")
    g = 1.0 / r
    return (p, m, p, m), (p, m, m, p), (g, g, -g, -g)


def _vsource_entries(p, m, branch: int) -> tuple[tuple, tuple, tuple]:
    """Incidence entries of a voltage source's branch current; its value goes
    to the right-hand side at row ``branch``.

    The branch current is taken positive flowing into the + terminal and out
    of the - terminal (passive convention), so a source delivering power
    carries a negative branch current.
    """
    return (p, m, branch, branch), (branch, branch, p, m), (1.0, -1.0, 1.0, -1.0)


def _isource_entries(p, m, current: float) -> tuple[tuple, tuple]:
    """Right-hand-side entries of a current source driving ``current`` amps
    from the + node p through itself into the - node m."""
    return (p, m), (-current, current)


def _cccii_entries(
    y, x, z, branch: int, params: Mapping[str, float]
) -> tuple[tuple, tuple, tuple]:
    """Linear part of the conveyor stamp.

    ``branch`` carries the X-port current i_x (positive from node X into the
    device). Rows:

        branch:  V_X - V_Y - R_X * i_x = 0
        node X:  +i_x enters the device
        node Y:  nothing (I_Y = 0 structurally)
        node Z:  +sigma * i_x enters the device
    """
    return (
        (branch, branch, branch, x, z),
        (x, y, branch, branch, branch),
        (1.0, -1.0, -conveyor_rx(params), 1.0, float(params["polarity"])),
    )


def eval_clamp(v_z: float | np.ndarray, vdd: float, vss: float) -> tuple:
    """Rail-clamp shunt current at the Z node of a level-2 conveyor with
    rails ``vdd`` > ``vss``, and its derivative.

    Zero inside [vss + delta, vdd - delta]; a quadratic band of width delta on
    each side blends into straight ramps of slope 1/R_sat beyond the rails, so
    the current and its derivative are both continuous. ``v_z`` may be a
    scalar or an array; returns (current leaving the node, conductance) of
    the same shape, for Newton linearization.
    """
    delta = CLAMP_BAND
    g_sat = 1.0 / CLAMP_RSAT
    # depth into each band, capped at its width, and distance beyond each rail
    above = np.clip(v_z - (vdd - delta), 0.0, delta)
    below = np.clip((vss + delta) - v_z, 0.0, delta)
    beyond = np.maximum(v_z - vdd, 0.0) - np.maximum(vss - v_z, 0.0)
    current = g_sat * ((above * above - below * below) / (2.0 * delta) + beyond)
    return current, g_sat * (above + below) / delta


def clamp_port_root(u: np.ndarray, s: float, vdd: float, vss: float) -> np.ndarray:
    """Exact root v of ``v + s * c(v) = u`` per lane, c the clamp of ``eval_clamp``.

    This is the port equation of a clamped Z node whose driving-point
    resistance is ``s``. For s > 0 its left side increases strictly, so the
    value of ``u`` picks the clamp segment: the dead zone (v = u), a
    quadratic band (root in the cancellation-free form 2d / (1 + sqrt(...))),
    or a saturated ramp. Returns ``u`` itself when s <= 0 or when the two
    bands overlap (rails closer than 2 * CLAMP_BAND); no closed form is
    claimed there.
    """
    delta = CLAMP_BAND
    hi, lo = vdd - delta, vss + delta
    if not s > 0 or hi < lo:
        return u
    sg = s / CLAMP_RSAT
    up, down = np.maximum(u - hi, 0.0), np.maximum(lo - u, 0.0)  # at most one > 0
    depth = up + down
    v = np.clip(u, lo, hi) + 2.0 * (up - down) / (1.0 + np.sqrt(1.0 + 2.0 * sg * depth / delta))
    # beyond the band's outer edge, u - hi = delta * (1 + s*g/2), the ramp is linear
    rail = np.where(up > 0.0, vdd - delta / 2.0, vss + delta / 2.0)
    return np.where(depth > delta * (1.0 + sg / 2.0), (u + sg * rail) / (1.0 + sg), v)
