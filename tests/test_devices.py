"""Device model tests: intrinsic resistance formula, MNA stamps, rail clamp.

The clamp derivative is cross-checked against central finite differences,
kept independent of the closed-form conductance it verifies.
"""

import numpy as np
import pytest

from ccsim.devices import (
    CLAMP_BAND,
    CLAMP_RSAT,
    CcciiParams,
    MosProcessParams,
    clamp_port_root,
    compute_rx,
    eval_clamp,
    stamp_cccii_linear,
    stamp_isource,
    stamp_resistor,
    stamp_vsource,
)
from ccsim.errors import NonPositiveBiasError, NonPositiveResistanceError


# ── process parameters and R_X ──────────────────────────────────────


def test_beta_is_the_product_of_process_numbers():
    p = MosProcessParams(mu_n=0.04, c_ox=0.01, w=2e-6, l=1e-6)
    assert p.beta_n == 0.04 * 0.01 * 2e-6 / 1e-6


def test_from_beta_wraps_unit_geometry():
    assert MosProcessParams.from_beta(1e-3).beta_n == 1e-3


@pytest.mark.parametrize("bad", [0.0, -1.0])
def test_process_positivity(bad):
    with pytest.raises(ValueError):
        MosProcessParams(mu_n=bad, c_ox=1.0, w=1.0, l=1.0)


def test_compute_rx_reference_values():
    p = MosProcessParams.from_beta(1e-3)
    # frozen from direct evaluation of 1/sqrt(8*beta*ib)
    assert compute_rx(p, 50e-6) == pytest.approx(1581.1388300841895, rel=1e-12)
    assert compute_rx(p, 200e-6) == pytest.approx(790.5694150420948, rel=1e-12)
    assert compute_rx(p, 200e-6) == pytest.approx(compute_rx(p, 50e-6) / 2, rel=1e-12)


def test_compute_rx_exact_unity():
    assert compute_rx(MosProcessParams.from_beta(0.125), 1.0) == 1.0


def test_compute_rx_rejects_bad_bias():
    with pytest.raises(NonPositiveBiasError):
        compute_rx(MosProcessParams.from_beta(1e-3), 0.0)


def test_quarter_bias_doubles_rx():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        beta = 10.0 ** rng.uniform(-5, 0)
        ib = 10.0 ** rng.uniform(-7, -2)
        p = MosProcessParams.from_beta(beta)
        assert compute_rx(p, ib / 4) == pytest.approx(2 * compute_rx(p, ib), rel=1e-12)


# ── conveyor parameters ─────────────────────────────────────────────


def test_cccii_params_validation():
    with pytest.raises(ValueError):
        CcciiParams(polarity=0)
    with pytest.raises(ValueError):
        CcciiParams(level=3)
    with pytest.raises(ValueError):
        CcciiParams(vdd=-1.0, vss=1.0)
    with pytest.raises(ValueError):
        CcciiParams(rx_ohms=1.0, i_b=1e-6, process=MosProcessParams.from_beta(1e-3))
    with pytest.raises(ValueError):
        CcciiParams(rx_ohms=None, i_b=1e-6)  # missing process
    with pytest.raises(NonPositiveResistanceError):
        CcciiParams(rx_ohms=-5.0)


def test_resolve_rx_both_forms():
    assert CcciiParams(rx_ohms=42.0).resolve_rx() == 42.0
    bias = CcciiParams(rx_ohms=None, i_b=1.0, process=MosProcessParams.from_beta(0.125))
    assert bias.resolve_rx() == 1.0


def test_netlist_params_round_trip():
    for p in (
        CcciiParams(polarity=-1, level=2, rx_ohms=3538.0, vdd=0.6, vss=-0.4),
        CcciiParams(rx_ohms=None, i_b=50e-6, process=MosProcessParams.from_beta(1e-3)),
    ):
        assert CcciiParams.from_netlist_params(p.to_netlist_params()) == p


# ── stamps ──────────────────────────────────────────────────────────


def test_resistor_stamp_to_ground():
    stamp = stamp_resistor((0, None), 1e3)
    assert stamp.matrix_entries == ((0, 0, 1e-3),)
    assert stamp.rhs_entries == ()


def test_resistor_stamp_two_nodes():
    entries = dict(
        ((r, c), v) for r, c, v in stamp_resistor((0, 1), 2e3).matrix_entries
    )
    assert entries == {(0, 0): 5e-4, (1, 1): 5e-4, (0, 1): -5e-4, (1, 0): -5e-4}


def test_resistor_stamp_rejects_zero():
    with pytest.raises(NonPositiveResistanceError):
        stamp_resistor((0, 1), 0.0)


def test_vsource_stamp():
    stamp = stamp_vsource((0, None), branch=1, value_at_t=1.0)
    assert set(stamp.matrix_entries) == {(0, 1, 1.0), (1, 0, 1.0)}
    assert stamp.rhs_entries == ((1, 1.0),)


def test_isource_stamp_signs():
    stamp = stamp_isource((0, 1), 2e-3)
    assert set(stamp.rhs_entries) == {(0, -2e-3), (1, 2e-3)}
    assert stamp.matrix_entries == ()


def test_cccii_stamp_layout():
    params = CcciiParams(rx_ohms=3538.0)
    y, x, z, b = 0, 1, 2, 3
    stamp = stamp_cccii_linear((y, x, z), b, params)
    assert set(stamp.matrix_entries) == {
        (b, x, 1.0),
        (b, y, -1.0),
        (b, b, -3538.0),
        (x, b, 1.0),
        (z, b, 1.0),
    }


def test_cccii_minus_type_flips_z_entry():
    stamp = stamp_cccii_linear((0, 1, 2), 3, CcciiParams(polarity=-1, rx_ohms=0.0))
    assert (2, 3, -1.0) in stamp.matrix_entries


def test_cccii_never_touches_y_row():
    # KCL at Y gets no conveyor entry: I_Y = 0 structurally
    rng = np.random.default_rng(11)
    for _ in range(50):
        y, x, z, b = rng.permutation(8)[:4]
        params = CcciiParams(
            polarity=int(rng.choice([-1, 1])), rx_ohms=float(rng.uniform(0, 5e3))
        )
        stamp = stamp_cccii_linear((int(y), int(x), int(z)), int(b), params)
        assert all(r != y for r, _, _ in stamp.matrix_entries)


def test_cccii_stamp_omits_ground_nodes():
    stamp = stamp_cccii_linear((None, 0, None), 1, CcciiParams(rx_ohms=10.0))
    assert set(stamp.matrix_entries) == {(1, 0, 1.0), (1, 1, -10.0), (0, 1, 1.0)}


# ── rail clamp ──────────────────────────────────────────────────────

L2 = CcciiParams(level=2, rx_ohms=0.0)


def test_clamp_dead_zone():
    assert eval_clamp(0.0, L2) == (0.0, 0.0)
    assert eval_clamp(L2.vdd - CLAMP_BAND, L2) == (0.0, 0.0)
    assert eval_clamp(L2.vss + CLAMP_BAND, L2) == (0.0, 0.0)


def test_clamp_far_beyond_rail():
    i, g = eval_clamp(L2.vdd + 1.0, L2)
    assert i == pytest.approx(1.0, rel=1e-2)
    assert g == 1.0
    i, g = eval_clamp(L2.vss - 1.0, L2)
    assert i == pytest.approx(-1.0, rel=1e-2)
    assert g == 1.0


def test_clamp_continuous_at_band_edges():
    eps = 1e-12
    i_in, g_in = eval_clamp(L2.vdd - CLAMP_BAND + eps, L2)
    assert abs(i_in) < 1e-12 and abs(g_in) < 1e-9
    i_lo, _ = eval_clamp(L2.vdd - eps, L2)
    i_hi, _ = eval_clamp(L2.vdd + eps, L2)
    assert i_hi == pytest.approx(i_lo, rel=1e-6)


def test_clamp_derivative_matches_finite_differences():
    h = 1e-7
    for v in np.linspace(-0.7, 0.7, 141):
        _, g = eval_clamp(float(v), L2)
        numeric = (eval_clamp(float(v) + h, L2)[0] - eval_clamp(float(v) - h, L2)[0]) / (2 * h)
        assert g == pytest.approx(numeric, abs=2e-5)


def test_clamp_requires_level_two():
    with pytest.raises(ValueError):
        eval_clamp(0.0, CcciiParams(level=1, rx_ohms=0.0))


# ── exact port root of the clamp ────────────────────────────────────


@pytest.mark.parametrize("s", [0.3, 1.0, 1e3, 1e5])
@pytest.mark.parametrize("rails", [(0.5, -0.5), (1.2, 0.4), (0.01, -0.01)])
def test_clamp_port_root_solves_port_equation(s, rails):
    params = CcciiParams(level=2, rx_ohms=0.0, vdd=rails[0], vss=rails[1])
    hi, lo = params.vdd - CLAMP_BAND, params.vss + CLAMP_BAND
    edge = s / CLAMP_RSAT * CLAMP_BAND / 2.0  # u - rail where the band ends
    breakpoints = [lo, hi, params.vdd + edge, params.vss - edge]
    segments = [
        np.linspace(lo, hi, 7),  # dead zone
        np.linspace(hi, params.vdd + edge, 9),  # upper band
        np.linspace(params.vss - edge, lo, 9),  # lower band
        params.vdd + edge + np.geomspace(1e-9, 1e3, 13),  # upper ramp
        params.vss - edge - np.geomspace(1e-9, 1e3, 13),  # lower ramp
    ]
    u = np.concatenate([breakpoints, *segments])
    v = clamp_port_root(u, s, params)
    gap = v + s * eval_clamp(v, params)[0] - u
    assert np.all(np.abs(gap) <= 1e-12 * np.abs(u))


def test_clamp_port_root_passes_through_without_port_resistance():
    u = np.array([-2.0, -0.495, 0.0, 0.495, 2.0])
    assert np.array_equal(clamp_port_root(u, 0.0, L2), u)


def test_clamp_port_root_passes_through_overlapping_bands():
    narrow = CcciiParams(level=2, rx_ohms=0.0, vdd=0.5 * CLAMP_BAND, vss=-0.5 * CLAMP_BAND)
    u = np.array([-1.0, -1e-3, 0.0, 2e-3, 1.0])
    assert np.array_equal(clamp_port_root(u, 100.0, narrow), u)
