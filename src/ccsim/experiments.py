"""Reference amplifier builders and the reproduction runner.

Two circuit templates are provided:

* the single-conveyor tunable amplifier: sinusoidal input into Y, R1 from X
  to ground converting the followed voltage into a current, R2 from Z to
  ground converting the mirrored current back into the output voltage, so the
  gain is R2/(R1 + R_X);
* the classic two-conveyor voltage amplifier it is compared against: the
  first conveyor does the voltage-to-current conversion through R1 and drives
  R2 from its Z port, the second conveyor buffers that voltage to the output.
  The buffer's own Z port is the topology's one floating node and is dropped
  from the system by validation.

``run_reproduction`` re-simulates the published operating points end to end:
ideal gains for the three figure configurations, level-2 runs with R_X
calibrated from the fig8 measurement (130 mVpp out of 100 mVpp in) and
rails at +/-0.5 V, the three resistor-ordering tuning cases, and the
two-conveyor comparison circuit. ``experiment_rows`` builds the rows of one
named experiment and solves only the circuits behind them.

A builder's conveyor is a map of netlist keys, such as
``{"level": 2.0, "rx": calibrated_rx()}``, completed and checked by
``netlist.conveyor_params``; the empty map is the ideal conveyor (R_X = 0).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from .errors import GainOutOfRangeError, UnknownExperimentError
from .measure import classify_tuning, gain_pp, vpp
from .netlist import (
    KIND_CCCII,
    KIND_RESISTOR,
    KIND_VSOURCE,
    Circuit,
    Directive,
    ElementDecl,
    NetlistDocument,
    conveyor_params,
    validate,
)
from .solver import Waveform, transient

# Shared run configuration: 100 mVpp, 1 kHz input sampled at 20 us for 5 ms.
INPUT_VPP = 0.1
RUN_FREQ = 1e3
RUN_TSTEP = 20e-6
RUN_TSTOP = 5e-3

# (r1, r2, reference output vpp) per published figure configuration.
FIGURE_CONFIGS: dict[str, tuple[float, float, float]] = {
    "fig6": (1e3, 100e3, 1.0),
    "fig7": (2e3, 50e3, 0.8),
    "fig8": (8e3, 15e3, 0.13),
}

# Resistor orderings of the three tuning cases.
TABLE2_CONFIGS: dict[str, tuple[float, float]] = {
    "table2_case1": (10e3, 1e3),
    "table2_case2": (1e3, 100e3),
    "table2_case3": (5e3, 5e3),
}

FERRI_R1, FERRI_R2 = 1e3, 10e3


@dataclass(frozen=True)
class AmplifierSpec:
    """Parameters of one single-conveyor amplifier instance."""

    r1: float
    r2: float
    input: tuple[float, float, float] = (0.0, INPUT_VPP / 2.0, RUN_FREQ)
    cccii: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self):
        if not (self.r1 > 0 and self.r2 > 0):
            raise ValueError("r1 and r2 must be positive")
        if not self.input[1] > 0:
            raise ValueError("input amplitude must be positive")


def proposed_amplifier_document(spec: AmplifierSpec) -> NetlistDocument:
    """Runnable netlist of the single-conveyor amplifier (input node "in",
    output node "out")."""
    offset, amplitude, freq = spec.input
    elements = (
        ElementDecl(
            KIND_VSOURCE, "VIN", ("in", "0"),
            {"offset": offset, "amplitude": amplitude, "freq": freq},
        ),
        ElementDecl(KIND_CCCII, "X1", ("in", "x", "out"), conveyor_params(spec.cccii)),
        ElementDecl(KIND_RESISTOR, "R1", ("x", "0"), {"value": spec.r1}),
        ElementDecl(KIND_RESISTOR, "R2", ("out", "0"), {"value": spec.r2}),
    )
    directives = (
        Directive("tran", (RUN_TSTEP, RUN_TSTOP)),
        Directive("measure", ("vpp", "in")),
        Directive("measure", ("vpp", "out")),
        Directive("measure", ("gain", "in", "out")),
    )
    return NetlistDocument(elements, directives, title="tunable conveyor amplifier")


def build_proposed_amplifier(spec: AmplifierSpec) -> Circuit:
    return validate(proposed_amplifier_document(spec))


def ferri_amplifier_document(
    r1: float,
    r2: float,
    input: tuple[float, float, float] = (0.0, INPUT_VPP / 2.0, RUN_FREQ),
    cccii: Mapping[str, float] = {},
) -> NetlistDocument:
    """Two-conveyor comparison amplifier.

    XA converts (Y=in, X loaded by R1, Z into R2), XB buffers (Y at the R2
    node, X=out). XB's Z node "zf" stays floating, matching the published
    description of one unused mirror output.
    """
    if not (r1 > 0 and r2 > 0):
        raise ValueError("r1 and r2 must be positive")
    params = conveyor_params(cccii)
    offset, amplitude, freq = input
    elements = (
        ElementDecl(
            KIND_VSOURCE, "VIN", ("in", "0"),
            {"offset": offset, "amplitude": amplitude, "freq": freq},
        ),
        ElementDecl(KIND_CCCII, "XA", ("in", "xa", "mid"), dict(params)),
        ElementDecl(KIND_CCCII, "XB", ("mid", "out", "zf"), dict(params)),
        ElementDecl(KIND_RESISTOR, "R1", ("xa", "0"), {"value": r1}),
        ElementDecl(KIND_RESISTOR, "R2", ("mid", "0"), {"value": r2}),
    )
    directives = (
        Directive("tran", (RUN_TSTEP, RUN_TSTOP)),
        Directive("measure", ("vpp", "in")),
        Directive("measure", ("vpp", "out")),
        Directive("measure", ("gain", "in", "out")),
    )
    return NetlistDocument(elements, directives, title="two-conveyor amplifier")


def build_ferri_amplifier(
    r1: float,
    r2: float,
    input: tuple[float, float, float] = (0.0, INPUT_VPP / 2.0, RUN_FREQ),
    cccii: Mapping[str, float] = {},
) -> Circuit:
    return validate(ferri_amplifier_document(r1, r2, input, cccii))


def calibrate_rx(gain_measured: float, r1: float, r2: float) -> float:
    """Invert the gain relation g = r2/(r1 + r_x) for r_x.

    Only gains strictly between 0 and the ideal maximum r2/r1 correspond to a
    positive intrinsic resistance.
    """
    if not 0.0 < gain_measured < r2 / r1:
        raise GainOutOfRangeError(
            f"gain {gain_measured} outside (0, {r2 / r1}); implies R_X <= 0"
        )
    return r2 / gain_measured - r1


def calibrated_rx() -> float:
    """R_X fitted from the fig8 operating point, about 3538 ohms."""
    r1, r2, ref_vpp = FIGURE_CONFIGS["fig8"]
    return calibrate_rx(ref_vpp / INPUT_VPP, r1, r2)


@dataclass(frozen=True)
class ReproductionRow:
    name: str
    r1: float
    r2: float
    level: int
    measured_vpp: float
    predicted_vpp: float
    reference_vpp: float | None = None
    deviation: float | None = None
    note: str = ""


@dataclass(frozen=True)
class ReproductionReport:
    rows: tuple[ReproductionRow, ...]

    def row(self, name: str) -> ReproductionRow:
        for r in self.rows:
            if r.name == name:
                return r
        raise KeyError(name)

    def as_table(self) -> str:
        header = ("name", "r1", "r2", "level", "measured", "predicted", "reference", "dev", "note")
        cells = [header]
        for r in self.rows:
            cells.append(
                (
                    r.name,
                    f"{r.r1:g}",
                    f"{r.r2:g}",
                    str(r.level),
                    f"{r.measured_vpp:.6g}",
                    f"{r.predicted_vpp:.6g}",
                    "-" if r.reference_vpp is None else f"{r.reference_vpp:g}",
                    "-" if r.deviation is None else f"{r.deviation:+.1%}",
                    r.note,
                )
            )
        widths = [max(len(row[i]) for row in cells) for i in range(len(header))]
        lines = ["  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip() for row in cells]
        return "\n".join(lines) + "\n"


def experiment_document(name: str) -> NetlistDocument:
    """Netlist of the one circuit behind a single-run experiment: the level-2
    figure amplifier with calibrated R_X, or the two-conveyor comparison."""
    if name in FIGURE_CONFIGS:
        r1, r2, _ = FIGURE_CONFIGS[name]
        cccii = {"level": 2.0, "rx": calibrated_rx()}
        return proposed_amplifier_document(AmplifierSpec(r1, r2, cccii=cccii))
    if name == "ferri":
        return ferri_amplifier_document(FERRI_R1, FERRI_R2)
    raise UnknownExperimentError(f"experiment {name!r} has no single waveform to dump")


def _solve(doc: NetlistDocument) -> Waveform:
    return transient(validate(doc), *doc.tran().args)


_RAIL_SPAN = 1.0  # vdd - vss at the default rails


def _ideal_row(name: str) -> ReproductionRow:
    r1, r2, _ = FIGURE_CONFIGS[name.removesuffix("_ideal")]
    w = _solve(proposed_amplifier_document(AmplifierSpec(r1, r2)))
    return ReproductionRow(
        name=name,
        r1=r1,
        r2=r2,
        level=1,
        measured_vpp=vpp(w, "out"),
        predicted_vpp=INPUT_VPP * r2 / r1,
        note="ideal gain law",
    )


def _figure_row(name: str) -> ReproductionRow:
    r1, r2, ref = FIGURE_CONFIGS[name]
    measured = vpp(_solve(experiment_document(name)), "out")
    return ReproductionRow(
        name=name,
        r1=r1,
        r2=r2,
        level=2,
        measured_vpp=measured,
        predicted_vpp=min(INPUT_VPP * r2 / (r1 + calibrated_rx()), _RAIL_SPAN),
        reference_vpp=ref,
        deviation=(measured - ref) / ref,
        note="calibrated R_X, rails +/-0.5 V",
    )


def _table2_row(name: str) -> ReproductionRow:
    r1, r2 = TABLE2_CONFIGS[name]
    rx_cal = calibrated_rx()
    case = classify_tuning(r1, r2, rx_cal)
    spec = AmplifierSpec(r1, r2, cccii={"level": 2.0, "rx": rx_cal})
    w = _solve(proposed_amplifier_document(spec))
    return ReproductionRow(
        name=name,
        r1=r1,
        r2=r2,
        level=2,
        measured_vpp=vpp(w, "out"),
        predicted_vpp=min(INPUT_VPP * case.predicted_gain, _RAIL_SPAN),
        note=f"{case.label} {case.behavior}, simulated gain {gain_pp(w, 'in', 'out'):.4g}",
    )


def _ferri_row(name: str) -> ReproductionRow:
    return ReproductionRow(
        name=name,
        r1=FERRI_R1,
        r2=FERRI_R2,
        level=1,
        measured_vpp=vpp(_solve(experiment_document(name)), "out"),
        predicted_vpp=INPUT_VPP * FERRI_R2 / FERRI_R1,
        note="two conveyors, one floating Z",
    )


# Builder of each reproduction row, in report order.
_ROW_BUILDERS = {
    "fig6_ideal": _ideal_row,
    "fig6": _figure_row,
    "fig7_ideal": _ideal_row,
    "fig7": _figure_row,
    "fig8_ideal": _ideal_row,
    "fig8": _figure_row,
    "table2_case1": _table2_row,
    "table2_case2": _table2_row,
    "table2_case3": _table2_row,
    "ferri": _ferri_row,
}

# Rows each experiment prints.
EXPERIMENT_ROWS: dict[str, tuple[str, ...]] = {
    "fig6": ("fig6",),
    "fig7": ("fig7",),
    "fig8": ("fig8",),
    "table2": tuple(TABLE2_CONFIGS),
    "ferri": ("ferri",),
    "all": tuple(_ROW_BUILDERS),
}


def experiment_rows(name: str) -> tuple[ReproductionRow, ...]:
    """Rows the named experiment prints, solving only their circuits; an
    unknown name raises before anything is solved."""
    if name not in EXPERIMENT_ROWS:
        raise UnknownExperimentError(
            f"unknown experiment {name!r}; pick one of {', '.join(EXPERIMENT_ROWS)}"
        )
    return tuple(_ROW_BUILDERS[row](row) for row in EXPERIMENT_ROWS[name])


def run_reproduction() -> ReproductionReport:
    """Re-simulate every published operating point; every measured value
    comes from a transient run executed here."""
    return ReproductionReport(experiment_rows("all"))
