"""Amplifier builders, R_X calibration, and the reproduction runner."""

import csv
from pathlib import Path

import numpy as np
import pytest

from ccsim.cli import main
from ccsim.devices import conveyor_rx
from ccsim.errors import GainOutOfRangeError, NetlistSyntaxError, UnknownExperimentError
from ccsim.experiments import (
    AmplifierSpec,
    FIGURE_CONFIGS,
    INPUT_VPP,
    RUN_TSTEP,
    RUN_TSTOP,
    build_ferri_amplifier,
    build_proposed_amplifier,
    calibrate_rx,
    calibrated_rx,
    experiment_rows,
    ferri_amplifier_document,
    proposed_amplifier_document,
    run_reproduction,
)
from ccsim.measure import gain_pp, vpp
from ccsim.netlist import parse_netlist, serialize, validate
from ccsim.solver import transient


def _run(circuit):
    return transient(circuit, RUN_TSTEP, RUN_TSTOP)


# ── single-conveyor amplifier ───────────────────────────────────────


def test_proposed_amplifier_ideal_gain():
    w = _run(build_proposed_amplifier(AmplifierSpec(1e3, 100e3)))
    assert gain_pp(w, "in", "out") == pytest.approx(100.0, rel=1e-6)


def test_proposed_amplifier_with_parasitic():
    spec = AmplifierSpec(8e3, 15e3, cccii={"level": 2.0, "rx": calibrated_rx()})
    w = _run(build_proposed_amplifier(spec))
    assert vpp(w, "out") == pytest.approx(0.13, rel=0.01)


def test_proposed_amplifier_clips_at_rails():
    spec = AmplifierSpec(1e3, 100e3, cccii={"level": 2.0, "rx": calibrated_rx()})
    w = _run(build_proposed_amplifier(spec))
    assert 0.95 <= vpp(w, "out") <= 1.04


def test_builder_document_round_trips():
    spec = AmplifierSpec(2e3, 50e3, cccii={"level": 2.0, "rx": calibrated_rx()})
    doc = proposed_amplifier_document(spec)
    again = parse_netlist(serialize(doc))
    assert again == doc
    assert validate(again).node_index == validate(doc).node_index
    fdoc = ferri_amplifier_document(1e3, 10e3)
    assert parse_netlist(serialize(fdoc)) == fdoc


def test_spec_validation():
    with pytest.raises(ValueError):
        AmplifierSpec(-1.0, 1e3)
    with pytest.raises(ValueError):
        AmplifierSpec(1e3, 1e3, input=(0.0, 0.0, 1e3))


@pytest.mark.parametrize("r1, r2", [(0.0, 1e3), (1e3, -1.0)])
def test_ferri_document_rejects_non_positive_resistors(r1, r2):
    # checked where the document is made, so no built document fails to parse
    with pytest.raises(ValueError, match="r1 and r2 must be positive"):
        ferri_amplifier_document(r1, r2)


def test_builders_check_the_conveyor_map():
    with pytest.raises(NetlistSyntaxError, match="RX must be non-negative"):
        proposed_amplifier_document(AmplifierSpec(1e3, 1e3, cccii={"rx": -1.0}))
    with pytest.raises(NetlistSyntaxError, match="bad conveyor parameter 'rx_ohms'"):
        ferri_amplifier_document(1e3, 1e3, cccii={"rx_ohms": 1.0})


# ── two-conveyor comparison amplifier ───────────────────────────────


def test_ferri_amplifier_gain():
    w = _run(build_ferri_amplifier(1e3, 10e3))
    assert gain_pp(w, "in", "out") == pytest.approx(10.0, rel=1e-9)


def test_ferri_unity_gain():
    w = _run(build_ferri_amplifier(3.3e3, 3.3e3))
    assert gain_pp(w, "in", "out") == pytest.approx(1.0, rel=1e-9)


def test_ferri_floating_z_is_solvable():
    circuit = build_ferri_amplifier(1e3, 10e3)
    assert circuit.floating_nodes == frozenset({"zf"})
    w = _run(circuit)  # no SingularMatrixError
    # the buffer conveyor drives no load, so its X current is zero
    assert np.abs(w.current("XB")).max() <= 1e-12
    assert np.abs(w.voltage("out") - w.voltage("mid")).max() <= 1e-12


# ── calibration ─────────────────────────────────────────────────────


def test_calibrate_rx_reference_point():
    assert calibrate_rx(1.30, 8e3, 15e3) == pytest.approx(3538.4615384615386, rel=1e-12)
    assert calibrated_rx() == pytest.approx(3538.46, rel=1e-4)


@pytest.mark.parametrize(
    "gain,r1,r2",
    [
        (15.0 / 8.0, 8e3, 15e3),  # exactly the ideal maximum
        (2.0, 1e3, 2e3),
        (0.0, 1e3, 2e3),
        (-1.0, 1e3, 2e3),
        (5.0, 1e3, 2e3),
    ],
)
def test_calibrate_rx_out_of_range(gain, r1, r2):
    with pytest.raises(GainOutOfRangeError):
        calibrate_rx(gain, r1, r2)


def test_calibration_round_trip_through_simulation():
    r1, r2 = 8e3, 15e3
    for rho in np.geomspace(10.0, 100e3, 9):
        spec = AmplifierSpec(r1, r2, cccii={"level": 2.0, "rx": float(rho)})
        w = _run(build_proposed_amplifier(spec))
        measured = gain_pp(w, "in", "out")
        assert calibrate_rx(measured, r1, r2) == pytest.approx(rho, rel=1e-6)


def test_bias_derived_rx_matches_closed_form_gain():
    for ib in (20e-6, 50e-6, 200e-6):
        cccii = {"level": 2.0, "ib": ib, "beta": 1e-3}
        w = _run(build_proposed_amplifier(AmplifierSpec(8e3, 15e3, cccii=cccii)))
        expected = 15e3 / (8e3 + conveyor_rx(cccii))
        assert gain_pp(w, "in", "out") == pytest.approx(expected, rel=1e-6)


def test_clamped_output_bounded_by_rail_span():
    # holds while the clamp current stays resistive-small; at the default
    # rails the span-plus-band bound covers drives up to several volts
    for amplitude in (0.1, 0.5, 5.0):
        spec = AmplifierSpec(
            1e3, 100e3, input=(0.0, amplitude, 1e3),
            cccii={"level": 2.0},
        )
        w = _run(build_proposed_amplifier(spec))
        assert vpp(w, "out") <= 1.0 + 2 * 10e-3


# ── reproduction report ─────────────────────────────────────────────


@pytest.fixture(scope="module")
def report():
    return run_reproduction()


def test_report_row_catalog(report):
    names = [r.name for r in report.rows]
    assert names == [
        "fig6_ideal", "fig6", "fig7_ideal", "fig7", "fig8_ideal", "fig8",
        "table2_case1", "table2_case2", "table2_case3", "ferri",
    ]


def test_report_fig8_self_consistency(report):
    row = report.row("fig8")
    assert row.reference_vpp == 0.13
    assert abs(row.deviation) <= 0.01


def test_report_fig7_cross_prediction(report):
    row = report.row("fig7")
    assert row.predicted_vpp == pytest.approx(0.902777, rel=1e-4)
    # reference lies within 20 percent of the model's prediction
    assert abs(row.reference_vpp - row.measured_vpp) / row.measured_vpp <= 0.20


def test_report_fig6_clipping(report):
    row = report.row("fig6")
    assert 0.95 <= row.measured_vpp <= 1.04


def test_report_ideal_rows_follow_gain_law(report):
    for name, (r1, r2, _) in FIGURE_CONFIGS.items():
        row = report.row(f"{name}_ideal")
        assert row.measured_vpp == pytest.approx(INPUT_VPP * r2 / r1, rel=5e-3)


def test_report_tuning_rows(report):
    assert "CaseI attenuates" in report.row("table2_case1").note
    assert "CaseII amplifies" in report.row("table2_case2").note
    assert "CaseIII attenuates" in report.row("table2_case3").note


def test_report_measured_values_come_from_runs(report):
    # re-run one configuration independently and compare
    spec = AmplifierSpec(8e3, 15e3, cccii={"level": 2.0, "rx": calibrated_rx()})
    w = _run(build_proposed_amplifier(spec))
    assert report.row("fig8").measured_vpp == pytest.approx(vpp(w, "out"), rel=1e-12)


def test_report_table_rendering(report):
    table = report.as_table()
    assert table.splitlines()[0].startswith("name")
    assert "fig8" in table


def test_experiment_row_selection(report):
    assert [r.name for r in experiment_rows("fig8")] == ["fig8"]
    assert len(experiment_rows("table2")) == 3
    assert len(experiment_rows("all")) == len(report.rows)
    with pytest.raises(UnknownExperimentError):
        experiment_rows("fig9")


def test_experiment_all_matches_recorded_table(capsys):
    # tests/fixtures/experiment_all.csv is `ccsim experiment all` as first
    # published: labels and units exact, numbers to 1e-9 relative
    recorded_path = Path(__file__).parent / "fixtures" / "experiment_all.csv"
    recorded = list(csv.reader(recorded_path.read_text().splitlines()))
    assert main(["experiment", "all"]) == 0
    rows = list(csv.reader(capsys.readouterr().out.splitlines()))
    assert len(rows) == len(recorded) == 57
    assert rows[0] == recorded[0]
    for row, ref in zip(rows[1:], recorded[1:]):
        assert row[:4] + row[5:] == ref[:4] + ref[5:]
        assert float(row[4]) == pytest.approx(float(ref[4]), rel=1e-9, abs=0.0)
