"""Acceptance gate: the nine exit criteria, one test each.

Every test prints a `[criterion N] ...: PASS|FAIL` line (visible with
`pytest -s` or in the captured output of a failing run) and enforces the
stated tolerance; no tolerance is deferred or loosened here.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from ccsim.devices import conveyor_rx
from ccsim.errors import NetlistError
from ccsim.experiments import calibrate_rx, proposed_amplifier_document
from ccsim.measure import classify_tuning, gain_pp, source_power, vpp
from ccsim.netlist import conveyor_params, parse_netlist, serialize, validate
from ccsim.solver import residual, solve, transient

CLAMP_BAND = 10e-3


@contextmanager
def _criterion(num: int, label: str):
    try:
        yield
    except BaseException:
        print(f"[criterion {num}] {label}: FAIL")
        raise
    print(f"[criterion {num}] {label}: PASS")


def _amp_gain(r1: float, r2: float, cccii: dict, amplitude=0.05) -> float:
    doc = proposed_amplifier_document(r1, r2, input=(0.0, amplitude, 1e3), cccii=cccii)
    w = transient(validate(doc), 20e-6, 2e-3)
    return gain_pp(w, "in", "out")


def _amp_vpp_out(r1: float, r2: float, cccii: dict) -> float:
    w = transient(validate(proposed_amplifier_document(r1, r2, cccii=cccii)), 20e-6, 5e-3)
    return vpp(w, "out")


RX_CAL = calibrate_rx(1.30, 8e3, 15e3)  # about 3538 ohm


def test_criterion_1_ideal_gain_law():
    with _criterion(1, "ideal gain law r2/r1 to 1e-6"):
        start = time.perf_counter()
        ideal = {}
        for r1, r2, expected in ((1e3, 100e3, 100.0), (2e3, 50e3, 25.0), (8e3, 15e3, 1.875)):
            assert _amp_gain(r1, r2, ideal) == pytest.approx(expected, rel=1e-6)
        rng = np.random.default_rng(20260808)
        for _ in range(100):
            r1, r2 = (float(10.0 ** rng.uniform(2, 6)) for _ in range(2))
            assert _amp_gain(r1, r2, ideal) == pytest.approx(r2 / r1, rel=1e-6)
        assert time.perf_counter() - start < 1.0


def test_criterion_2_fig8_self_consistency():
    with _criterion(2, "fig8 reproduction, 130 mVpp within 1%"):
        start = time.perf_counter()
        assert RX_CAL == pytest.approx(3538.46, rel=1e-4)
        measured = _amp_vpp_out(8e3, 15e3, {"level": 2.0, "rx": RX_CAL})
        assert measured == pytest.approx(0.13, rel=0.01)
        assert time.perf_counter() - start < 1.0


def test_criterion_3_fig7_cross_prediction():
    with _criterion(3, "fig7 cross-prediction, reference within 20% of model"):
        start = time.perf_counter()
        predicted = _amp_vpp_out(2e3, 50e3, {"level": 2.0, "rx": RX_CAL})
        assert predicted == pytest.approx(0.1 * 50e3 / (2e3 + RX_CAL), rel=5e-3)
        assert abs(0.8 - predicted) / predicted <= 0.20
        assert time.perf_counter() - start < 1.0


def test_criterion_4_fig6_rail_clipping():
    with _criterion(4, "fig6 clipping at +/-0.5 V rails"):
        start = time.perf_counter()
        measured = _amp_vpp_out(1e3, 100e3, {"level": 2.0, "rx": RX_CAL})
        assert 0.95 <= measured <= 1.02 + 2 * CLAMP_BAND
        assert time.perf_counter() - start < 1.0


def test_criterion_5_tuning_classification():
    with _criterion(5, "table II classification agrees with simulation"):
        # the three published orderings, end to end at level 2
        for (r1, r2), label, behavior in (
            ((10e3, 1e3), "CaseI", "attenuates"),
            ((1e3, 100e3), "CaseII", "amplifies"),
            ((5e3, 5e3), "CaseIII", "attenuates"),
        ):
            case = classify_tuning(r1, r2, RX_CAL)
            assert (case.label, case.behavior) == (label, behavior)
            simulated = _amp_gain(r1, r2, {"level": 2.0, "rx": RX_CAL})
            assert (simulated > 1.0) == (case.behavior == "amplifies")
        # random triples: classifier vs unclamped simulation
        rng = np.random.default_rng(5)
        for _ in range(100):
            r1, r2 = (float(10.0 ** rng.uniform(2, 6)) for _ in range(2))
            rx = float(10.0 ** rng.uniform(0, 5))
            case = classify_tuning(r1, r2, rx)
            amplitude = min(0.05, 0.4 / case.predicted_gain)
            simulated = _amp_gain(r1, r2, {"rx": rx}, amplitude=amplitude)
            assert (simulated > 1.0) == (case.behavior == "amplifies")
            if r1 == r2 and rx > 0:
                assert case.behavior == "attenuates"


def test_criterion_6_intrinsic_resistance_formula():
    with _criterion(6, "R_X formula and quarter-bias doubling"):
        def rx(beta, ib):
            return conveyor_rx(conveyor_params({"ib": ib, "beta": beta}))

        assert rx(0.125, 1.0) == 1.0
        rng = np.random.default_rng(6)
        for _ in range(1000):
            beta = float(10.0 ** rng.uniform(-5, 0))
            ib = float(10.0 ** rng.uniform(-7, -2))
            assert rx(beta, ib / 4) == pytest.approx(2 * rx(beta, ib), rel=1e-12)


def _ladder_oracle(vin, series, shunts):
    par = lambda a, b: a * b / (a + b)
    z = [0.0] * len(series)
    z[-1] = shunts[-1]
    for i in range(len(series) - 2, -1, -1):
        z[i] = par(shunts[i], series[i + 1] + z[i + 1])
    out, v = [], vin
    for i in range(len(series)):
        v = v * z[i] / (series[i] + z[i])
        out.append(v)
    return out


def test_criterion_7_solver_oracle_suite():
    with _criterion(7, "solver oracles: ladders, KCL, power, linearity"):
        # analytic divider and ladder
        divider = validate(parse_netlist("V1 1 0 DC 1\nR1 1 2 1k\nR2 2 0 1k\n.end"))
        assert solve(divider, [0.0]).voltage("2")[0] == pytest.approx(0.5, abs=1e-9)
        series, shunts = [220.0, 4.7e3, 910.0], [1.5e3, 680.0, 3.3e3]
        lines = ["V1 n0 0 DC 2.5"]
        for i, (s, p) in enumerate(zip(series, shunts)):
            lines.append(f"RS{i} n{i} n{i+1} {s}")
            lines.append(f"RP{i} n{i+1} 0 {p}")
        ladder = validate(parse_netlist("\n".join(lines) + "\n.end"))
        w = solve(ladder, [0.0])
        for i, expected in enumerate(_ladder_oracle(2.5, series, shunts)):
            assert w.voltage(f"n{i+1}")[0] == pytest.approx(expected, rel=1e-9)

        # KCL residual on every accepted solve, including a clamped one
        amp = validate(parse_netlist(
            "V1 in 0 SIN(0 50m 1k)\nX1 in x out CCCII+ RX=3538 LEVEL=2\n"
            "R1 x 0 1k\nR2 out 0 100k\n.end"
        ))
        w = transient(amp, 5e-5, 2e-3)
        for j, t in enumerate(w.times):
            assert np.abs(residual(amp, float(t), w.states[j])).max() <= 1e-9

        # power balance with the conveyor treated as a source-side term
        lin = validate(parse_netlist(
            "V1 in 0 SIN(0 50m 1k)\nX1 in x out CCCII+ RX=500\n"
            "R1 x 0 1k\nR2 out 0 10k\n.end"
        ))
        wl = transient(lin, 5e-5, 2e-3)
        vx, vz, ix = wl.voltage("x"), wl.voltage("out"), wl.current("X1")
        delivered = wl.total_source_power() - (vx * ix + vz * ix)
        dissipated = wl.voltage("x") ** 2 / 1e3 + wl.voltage("out") ** 2 / 10e3
        gap = np.abs(delivered - dissipated).max()
        assert gap <= 1e-6 * max(np.abs(dissipated).max(), 1e-30)

        # superposition and source scaling on a level-1 circuit
        text = "V1 1 0 DC {v}\nI1 0 2 DC {i}\nR1 1 2 1k\nR2 2 0 2k\n.end"
        xb = solve(validate(parse_netlist(text.format(v=2, i=1e-3))), [0.0]).states[0]
        xv = solve(validate(parse_netlist(text.format(v=2, i=0))), [0.0]).states[0]
        xi = solve(validate(parse_netlist(text.format(v=0, i=1e-3))), [0.0]).states[0]
        assert np.abs(xb - (xv + xi)).max() <= 1e-9 * max(1.0, np.abs(xb).max())
        k = 2.5
        xk = solve(validate(parse_netlist(text.format(v=2 * k, i=1e-3 * k))), [0.0]).states[0]
        assert np.abs(xk - k * xb).max() <= 1e-9 * np.abs(xk).max()


def test_criterion_8_power_substitute_checks():
    with _criterion(8, "analytic power checks stand in for absolute wattages"):
        # the published absolute dissipation numbers need transistor-level
        # netlists that are not available; the analytic sinusoid average and
        # the balance identity cover the measurement machinery instead
        ckt = validate(parse_netlist("V1 a 0 SIN(0 50m 1k)\nR1 a 0 1k\n.end"))
        avg, _ = source_power(transient(ckt, 20e-6, 5e-3))
        assert avg == pytest.approx(0.05**2 / (2 * 1e3), rel=1e-3)

        conveyor = validate(parse_netlist(
            "V1 in 0 SIN(0 20m 1k)\nX1 in x out CCCII+ RX=1k\n"
            "R1 x 0 2k\nR2 out 0 5k\n.end"
        ))
        w = transient(conveyor, 20e-6, 2e-3)
        vx, vz, ix = w.voltage("x"), w.voltage("out"), w.current("X1")
        delivered = w.total_source_power() - (vx * ix + vz * ix)
        dissipated = vx**2 / 2e3 + vz**2 / 5e3
        assert np.abs(delivered - dissipated).max() <= 1e-6 * np.abs(dissipated).max()


def test_criterion_9_parser_round_trip_and_totality(good_fixtures, bad_fixtures):
    with _criterion(9, "parser round trips and locates every malformed fixture"):
        for path in good_fixtures:
            doc = parse_netlist(path.read_text())
            again = parse_netlist(serialize(doc))
            assert again == doc, path.name
            assert validate(again).node_index == validate(doc).node_index, path.name
        for path in bad_fixtures:
            with pytest.raises(NetlistError) as exc:
                parse_netlist(path.read_text())
            assert exc.value.line is not None, path.name
