"""ccsim: a miniature analog circuit simulator built around a behavioral
CCCII current-conveyor macromodel.

Netlists (or programmatic builders) describe resistive circuits with
independent sources and conveyors; a dense MNA solver with Newton iteration
handles the rail-clamped nonlinear model; measurement helpers extract
peak-to-peak levels, gain, and source power.
"""

from .devices import conveyor_rx, eval_clamp
from .errors import CcsimError
from .experiments import (
    AmplifierSpec,
    ReproductionReport,
    ReproductionRow,
    build_ferri_amplifier,
    build_proposed_amplifier,
    calibrate_rx,
    calibrated_rx,
    ferri_amplifier_document,
    proposed_amplifier_document,
    run_reproduction,
)
from .measure import (
    Measurement,
    TuningCase,
    classify_tuning,
    default_window,
    evaluate_directive,
    gain_pp,
    source_power,
    vpp,
)
from .netlist import (
    Circuit,
    Directive,
    ElementDecl,
    NetlistDocument,
    parse_netlist,
    parse_value,
    serialize,
    validate,
)
from .solver import (
    NewtonOptions,
    Solution,
    Waveform,
    lu_solve,
    newton_solve,
    residual,
    transient,
)

__version__ = "0.1.0"

__all__ = [
    "AmplifierSpec",
    "CcsimError",
    "Circuit",
    "Directive",
    "ElementDecl",
    "Measurement",
    "NetlistDocument",
    "NewtonOptions",
    "ReproductionReport",
    "ReproductionRow",
    "Solution",
    "TuningCase",
    "Waveform",
    "build_ferri_amplifier",
    "build_proposed_amplifier",
    "calibrate_rx",
    "calibrated_rx",
    "classify_tuning",
    "conveyor_rx",
    "default_window",
    "eval_clamp",
    "evaluate_directive",
    "ferri_amplifier_document",
    "gain_pp",
    "lu_solve",
    "newton_solve",
    "parse_netlist",
    "parse_value",
    "proposed_amplifier_document",
    "residual",
    "run_reproduction",
    "serialize",
    "source_power",
    "transient",
    "validate",
    "vpp",
]
