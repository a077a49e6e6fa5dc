"""Device model library: MNA stamps and the CCCII conveyor macromodel.

The conveyor is a three-port element (Y, X, Z) obeying

    I_Y = 0
    V_X = V_Y + I_X * R_X
    I_Z = sigma * I_X        (sigma = +1 for a plus-type, -1 for a minus-type)

with all port currents taken positive flowing from the external node into the
device. R_X is the intrinsic resistance of the translinear input stage; it is
either given explicitly in ohms or derived from the bias current as

    R_X = 1 / (2 * g_m) = 1 / sqrt(8 * beta_n * I_B),   beta_n = mu_n*C_ox*W/L.

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
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import NonPositiveBiasError, NonPositiveResistanceError

# Rail clamp geometry: quadratic smoothing band width and saturated slope.
CLAMP_BAND = 10e-3  # V
CLAMP_RSAT = 1.0  # ohm

# Default supply rails, chosen so the clamped output span is 1 V.
DEFAULT_VDD = 0.5
DEFAULT_VSS = -0.5


@dataclass(frozen=True)
class MosProcessParams:
    """MOS process numbers that fix the transconductance parameter.

    beta_n = mu_n * c_ox * w / l  (A/V^2), exposed as a derived property so
    the identity holds by construction.
    """

    mu_n: float  # carrier mobility, m^2/(V*s)
    c_ox: float  # oxide capacitance per area, F/m^2
    w: float  # channel width, m
    l: float  # channel length, m

    def __post_init__(self):
        for field in ("mu_n", "c_ox", "w", "l"):
            if not getattr(self, field) > 0:
                raise ValueError(f"{field} must be strictly positive")

    @property
    def beta_n(self) -> float:
        return self.mu_n * self.c_ox * self.w / self.l

    @classmethod
    def from_beta(cls, beta_n: float) -> "MosProcessParams":
        """Wrap a directly specified beta_n in unit geometry."""
        if not beta_n > 0:
            raise ValueError("beta_n must be strictly positive")
        return cls(mu_n=1.0, c_ox=beta_n, w=1.0, l=1.0)


def compute_rx(process: MosProcessParams, i_b: float) -> float:
    """Intrinsic X-port resistance from the bias current.

    R_X = 1/(2*g_m) with g_m = sqrt(2*beta_n*i_b), i.e. 1/sqrt(8*beta_n*i_b).
    """
    if not i_b > 0:
        raise NonPositiveBiasError(f"bias current must be positive, got {i_b}")
    return 1.0 / math.sqrt(8.0 * process.beta_n * i_b)


@dataclass(frozen=True)
class CcciiParams:
    """Configuration of one conveyor instance.

    Exactly one of ``rx_ohms`` or the (``i_b``, ``process``) pair fixes the
    intrinsic resistance. ``polarity`` is the Z-port sign sigma.
    """

    polarity: int = +1
    level: int = 1
    rx_ohms: float | None = None
    i_b: float | None = None
    process: MosProcessParams | None = None
    vdd: float = DEFAULT_VDD
    vss: float = DEFAULT_VSS

    def __post_init__(self):
        if self.polarity not in (+1, -1):
            raise ValueError("polarity must be +1 or -1")
        if self.level not in (1, 2):
            raise ValueError("level must be 1 or 2")
        if not self.vdd > self.vss:
            raise ValueError("vdd must exceed vss")
        bias_given = self.i_b is not None or self.process is not None
        if self.rx_ohms is not None:
            if bias_given:
                raise ValueError("give either rx_ohms or (i_b, process), not both")
            if self.rx_ohms < 0:
                raise NonPositiveResistanceError("explicit R_X must be >= 0")
        else:
            if self.i_b is None or self.process is None:
                raise ValueError("bias-derived R_X needs both i_b and process")
            if not self.i_b > 0:
                raise NonPositiveBiasError(f"bias current must be positive, got {self.i_b}")

    def resolve_rx(self) -> float:
        """The R_X value in ohms, computing it from bias when needed."""
        if self.rx_ohms is not None:
            return self.rx_ohms
        return compute_rx(self.process, self.i_b)

    @classmethod
    def from_netlist_params(cls, params: Mapping[str, float]) -> "CcciiParams":
        """Build from the numeric key/value map of a parsed conveyor line."""
        kwargs: dict = {
            "polarity": int(params.get("polarity", +1)),
            "level": int(params.get("level", 1)),
            "vdd": params.get("vdd", DEFAULT_VDD),
            "vss": params.get("vss", DEFAULT_VSS),
        }
        if "ib" in params:
            kwargs["i_b"] = params["ib"]
            kwargs["process"] = MosProcessParams.from_beta(params["beta"])
        else:
            kwargs["rx_ohms"] = params.get("rx", 0.0)
        return cls(**kwargs)

    def to_netlist_params(self) -> dict[str, float]:
        """Numeric key/value map as the parser would have produced it."""
        params: dict[str, float] = {
            "polarity": float(self.polarity),
            "level": float(self.level),
            "vdd": self.vdd,
            "vss": self.vss,
        }
        if self.rx_ohms is not None:
            params["rx"] = self.rx_ohms
        else:
            params["ib"] = self.i_b
            params["beta"] = self.process.beta_n
        return params


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


def _cccii_entries(y, x, z, branch: int, params: CcciiParams) -> tuple[tuple, tuple, tuple]:
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
        (1.0, -1.0, -params.resolve_rx(), 1.0, float(params.polarity)),
    )


def eval_clamp(v_z: float | np.ndarray, params: CcciiParams) -> tuple:
    """Rail-clamp shunt current at the Z node and its derivative.

    Zero inside [vss + delta, vdd - delta]; a quadratic band of width delta on
    each side blends into straight ramps of slope 1/R_sat beyond the rails, so
    the current and its derivative are both continuous. ``v_z`` may be a
    scalar or an array; returns (current leaving the node, conductance) of
    the same shape, for Newton linearization.
    """
    if params.level != 2:
        raise ValueError("rail clamp applies to level-2 conveyors only")
    delta = CLAMP_BAND
    g_sat = 1.0 / CLAMP_RSAT
    # depth into each band, capped at its width, and distance beyond each rail
    above = np.clip(v_z - (params.vdd - delta), 0.0, delta)
    below = np.clip((params.vss + delta) - v_z, 0.0, delta)
    beyond = np.maximum(v_z - params.vdd, 0.0) - np.maximum(params.vss - v_z, 0.0)
    current = g_sat * ((above * above - below * below) / (2.0 * delta) + beyond)
    return current, g_sat * (above + below) / delta


def clamp_port_root(u: np.ndarray, s: float, params: CcciiParams) -> np.ndarray:
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
    hi, lo = params.vdd - delta, params.vss + delta
    if not s > 0 or hi < lo:
        return u
    sg = s / CLAMP_RSAT
    up, down = np.maximum(u - hi, 0.0), np.maximum(lo - u, 0.0)  # at most one > 0
    depth = up + down
    v = np.clip(u, lo, hi) + 2.0 * (up - down) / (1.0 + np.sqrt(1.0 + 2.0 * sg * depth / delta))
    # beyond the band's outer edge, u - hi = delta * (1 + s*g/2), the ramp is linear
    rail = np.where(up > 0.0, params.vdd - delta / 2.0, params.vss + delta / 2.0)
    return np.where(depth > delta * (1.0 + sg / 2.0), (u + sg * rail) / (1.0 + sg), v)
