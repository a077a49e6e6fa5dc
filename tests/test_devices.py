"""Device model tests: intrinsic resistance formula, conveyor parameter
checks, MNA stamps, rail clamp.

The clamp derivative is cross-checked against central finite differences,
kept independent of the closed-form conductance it verifies.
"""

import math

import numpy as np
import pytest

from ccsim.devices import (
    CLAMP_BAND,
    CLAMP_RSAT,
    DEFAULT_VDD,
    DEFAULT_VSS,
    _cccii_entries,
    _isource_entries,
    _resistor_entries,
    _vsource_entries,
    clamp_port_root,
    conveyor_rx,
    eval_clamp,
)
from ccsim.errors import NetlistSyntaxError, NonPositiveResistanceError
from ccsim.netlist import conveyor_params, parse_netlist, validate
from ccsim.solver import _Assembly


def _bias(beta: float, ib: float) -> dict:
    return conveyor_params({"ib": ib, "beta": beta})


# ── R_X ─────────────────────────────────────────────────────────────


def test_conveyor_rx_reference_values():
    # frozen from direct evaluation of 1/sqrt(8*beta*ib)
    assert conveyor_rx(_bias(1e-3, 50e-6)) == pytest.approx(1581.1388300841895, rel=1e-12)
    assert conveyor_rx(_bias(1e-3, 200e-6)) == pytest.approx(790.5694150420948, rel=1e-12)
    assert conveyor_rx(_bias(1e-3, 200e-6)) == pytest.approx(
        conveyor_rx(_bias(1e-3, 50e-6)) / 2, rel=1e-12
    )


def test_conveyor_rx_exact_unity():
    assert conveyor_rx(_bias(0.125, 1.0)) == 1.0


def test_compute_rx_rejects_bad_bias():
    # a non-positive bias has no R_X; it is refused before any R_X is formed
    for ib in (0.0, -1e-6):
        with pytest.raises(NetlistSyntaxError, match="IB must be positive"):
            conveyor_rx(_bias(1e-3, ib))


def test_conveyor_rx_is_the_closed_form_bit_for_bit():
    rng = np.random.default_rng(8)
    for _ in range(1000):
        beta = float(10.0 ** rng.uniform(-5, 0))
        ib = float(10.0 ** rng.uniform(-7, -2))
        assert conveyor_rx(_bias(beta, ib)) == 1.0 / math.sqrt(8.0 * beta * ib)


def test_quarter_bias_doubles_rx():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        beta = 10.0 ** rng.uniform(-5, 0)
        ib = 10.0 ** rng.uniform(-7, -2)
        assert conveyor_rx(_bias(beta, ib / 4)) == pytest.approx(
            2 * conveyor_rx(_bias(beta, ib)), rel=1e-12
        )


@pytest.mark.parametrize("bad", [0.0, -1.0])
def test_process_positivity(bad):
    # BETA = mu_n * C_ox * W / L is the one process number a conveyor carries
    with pytest.raises(NetlistSyntaxError, match="BETA must be positive"):
        conveyor_params({"ib": 1e-6, "beta": bad})


# ── conveyor parameters ─────────────────────────────────────────────


def test_cccii_params_validation():
    for values, message in (
        ({"level": 3.0}, "LEVEL must be 1 or 2"),
        ({"vdd": -1.0, "vss": 1.0}, "VDD must exceed VSS"),
        ({"rx": 1.0, "ib": 1e-6, "beta": 1e-3}, "RX and IB are mutually exclusive"),
        ({"ib": 1e-6}, "bias-derived R_X needs both IB and BETA"),
        ({"ib": 0.0, "beta": 1e-3}, "IB must be positive"),
        ({"ib": 1e-200, "beta": 1e-200}, "R_X .* is not finite"),
        ({"rx": -5.0}, "RX must be non-negative"),
        ({"polarity": 0.0}, "polarity must be"),
        ({"polarity": 2.0}, "polarity must be"),
        ({"rx_ohms": 1.0}, "bad conveyor parameter 'rx_ohms'"),
        ({"RX": 1.0}, "bad conveyor parameter 'RX'"),
    ):
        with pytest.raises(NetlistSyntaxError, match=message):
            conveyor_params(values)


def test_resolve_rx_both_forms():
    assert conveyor_rx(conveyor_params({"rx": 42.0})) == 42.0
    assert conveyor_rx(conveyor_params({})) == 0.0
    assert conveyor_rx(_bias(0.125, 1.0)) == 1.0


def test_netlist_params_round_trip():
    assert conveyor_params({}) == {
        "polarity": 1.0, "level": 1.0, "vdd": DEFAULT_VDD, "vss": DEFAULT_VSS, "rx": 0.0
    }
    assert "rx" not in _bias(1e-3, 1e-6)
    line = "X1 a b c CCCII- IB=5e-5 BETA=1e-3 LEVEL=2 VDD=0.6 VSS=-0.4\n.end"
    params = parse_netlist(line).elements[0].params
    assert conveyor_params(params) == params and conveyor_params(params) is not params
    assert conveyor_params(
        {"polarity": -1.0, "ib": 5e-5, "beta": 1e-3, "level": 2.0, "vdd": 0.6, "vss": -0.4}
    ) == params


# ── stamps ──────────────────────────────────────────────────────────

GND = None  # an index-less node; the solver sends it to a sink row


def _indexed(entries) -> tuple:
    """(row, col, value) or (row, value) entries on indexed nodes only."""
    return tuple(e for e in zip(*entries) if GND not in e[:-1])


def test_resistor_stamp_to_ground():
    assert _indexed(_resistor_entries(0, GND, 1e3)) == ((0, 0, 1e-3),)


def test_resistor_stamp_two_nodes():
    entries = dict(((r, c), v) for r, c, v in _indexed(_resistor_entries(0, 1, 2e3)))
    assert entries == {(0, 0): 5e-4, (1, 1): 5e-4, (0, 1): -5e-4, (1, 0): -5e-4}


def test_resistor_stamp_rejects_zero():
    with pytest.raises(NonPositiveResistanceError):
        _resistor_entries(0, 1, 0.0)


def test_vsource_stamp():
    assert set(_indexed(_vsource_entries(0, GND, branch=1))) == {(0, 1, 1.0), (1, 0, 1.0)}


def test_isource_stamp_signs():
    assert set(_indexed(_isource_entries(0, 1, 2e-3))) == {(0, -2e-3), (1, 2e-3)}


def test_cccii_stamp_layout():
    params = conveyor_params({"rx": 3538.0})
    y, x, z, b = 0, 1, 2, 3
    assert set(_indexed(_cccii_entries(y, x, z, b, params))) == {
        (b, x, 1.0),
        (b, y, -1.0),
        (b, b, -3538.0),
        (x, b, 1.0),
        (z, b, 1.0),
    }


def test_cccii_minus_type_flips_z_entry():
    entries = _indexed(_cccii_entries(0, 1, 2, 3, conveyor_params({"polarity": -1.0})))
    assert (2, 3, -1.0) in entries


def test_cccii_never_touches_y_row():
    # KCL at Y gets no conveyor entry: I_Y = 0 structurally
    rng = np.random.default_rng(11)
    for _ in range(50):
        y, x, z, b = rng.permutation(8)[:4]
        params = conveyor_params(
            {"polarity": float(rng.choice([-1, 1])), "rx": float(rng.uniform(0, 5e3))}
        )
        entries = _indexed(_cccii_entries(int(y), int(x), int(z), int(b), params))
        assert all(r != y for r, _, _ in entries)


def test_cccii_stamp_omits_ground_nodes():
    entries = _indexed(_cccii_entries(GND, 0, GND, 1, conveyor_params({"rx": 10.0})))
    assert set(entries) == {(1, 0, 1.0), (1, 1, -10.0), (0, 1, 1.0)}


# ── rail clamp ──────────────────────────────────────────────────────

L2 = (DEFAULT_VDD, DEFAULT_VSS)  # the rails of a default level-2 conveyor


def test_clamp_dead_zone():
    assert eval_clamp(0.0, *L2) == (0.0, 0.0)
    assert eval_clamp(DEFAULT_VDD - CLAMP_BAND, *L2) == (0.0, 0.0)
    assert eval_clamp(DEFAULT_VSS + CLAMP_BAND, *L2) == (0.0, 0.0)


def test_clamp_far_beyond_rail():
    i, g = eval_clamp(DEFAULT_VDD + 1.0, *L2)
    assert i == pytest.approx(1.0, rel=1e-2)
    assert g == 1.0
    i, g = eval_clamp(DEFAULT_VSS - 1.0, *L2)
    assert i == pytest.approx(-1.0, rel=1e-2)
    assert g == 1.0


def test_clamp_continuous_at_band_edges():
    eps = 1e-12
    i_in, g_in = eval_clamp(DEFAULT_VDD - CLAMP_BAND + eps, *L2)
    assert abs(i_in) < 1e-12 and abs(g_in) < 1e-9
    i_lo, _ = eval_clamp(DEFAULT_VDD - eps, *L2)
    i_hi, _ = eval_clamp(DEFAULT_VDD + eps, *L2)
    assert i_hi == pytest.approx(i_lo, rel=1e-6)


def test_clamp_derivative_matches_finite_differences():
    h = 1e-7
    for v in np.linspace(-0.7, 0.7, 141):
        _, g = eval_clamp(float(v), *L2)
        numeric = (eval_clamp(float(v) + h, *L2)[0] - eval_clamp(float(v) - h, *L2)[0]) / (2 * h)
        assert g == pytest.approx(numeric, abs=2e-5)


def test_clamp_requires_level_two():
    ckt = validate(parse_netlist("V1 in 0 DC 1\nX1 in x out CCCII+ RX=10\n"
                                 "R1 x 0 1k\nR2 out 0 1k\n.end"))
    assert _Assembly(ckt).clamps == []


# ── exact port root of the clamp ────────────────────────────────────


@pytest.mark.parametrize("s", [0.3, 1.0, 1e3, 1e5])
@pytest.mark.parametrize("rails", [(0.5, -0.5), (1.2, 0.4), (0.01, -0.01)])
def test_clamp_port_root_solves_port_equation(s, rails):
    vdd, vss = rails
    hi, lo = vdd - CLAMP_BAND, vss + CLAMP_BAND
    edge = s / CLAMP_RSAT * CLAMP_BAND / 2.0  # u - rail where the band ends
    breakpoints = [lo, hi, vdd + edge, vss - edge]
    segments = [
        np.linspace(lo, hi, 7),  # dead zone
        np.linspace(hi, vdd + edge, 9),  # upper band
        np.linspace(vss - edge, lo, 9),  # lower band
        vdd + edge + np.geomspace(1e-9, 1e3, 13),  # upper ramp
        vss - edge - np.geomspace(1e-9, 1e3, 13),  # lower ramp
    ]
    u = np.concatenate([breakpoints, *segments])
    v = clamp_port_root(u, s, vdd, vss)
    gap = v + s * eval_clamp(v, vdd, vss)[0] - u
    assert np.all(np.abs(gap) <= 1e-12 * np.abs(u))


def test_clamp_port_root_passes_through_without_port_resistance():
    u = np.array([-2.0, -0.495, 0.0, 0.495, 2.0])
    assert np.array_equal(clamp_port_root(u, 0.0, *L2), u)


def test_clamp_port_root_passes_through_overlapping_bands():
    u = np.array([-1.0, -1e-3, 0.0, 2e-3, 1.0])
    assert np.array_equal(clamp_port_root(u, 100.0, 0.5 * CLAMP_BAND, -0.5 * CLAMP_BAND), u)
