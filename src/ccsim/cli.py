"""Command-line front-end.

Subcommands:

    ccsim run <file>                 parse, validate, execute .op/.tran,
                                     evaluate .measure directives
    ccsim experiment <name>          fig6 | fig7 | fig8 | table2 | ferri | all
    ccsim sweep <file|name> --param K --from A --to B --points N [--log]

Flags: --format csv|table, --out <path>; run and experiment also take
--dump-waveform <node>. Results are emitted as `name,param,value,metric,
result,unit` rows; a waveform dump replaces them with `time,value` pairs.
Exit status: 0 success, 1 input error (a bad argument or flag included),
2 solver failure. Every refusal is a raised CcsimError that ``main`` prints
as one ``error:`` line.
"""

from __future__ import annotations

import argparse
import functools
import io
import math
import re
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .errors import (
    CcsimError,
    InputFileError,
    MeasureError,
    SolverError,
    UnknownExperimentError,
    UnknownNodeError,
    UnknownParameterError,
    UsageError,
    ValidationError,
)
from .experiments import experiment_document, experiment_rows
from .measure import default_window, gain_pp, source_power, vpp
from .netlist import (
    GROUND,
    KIND_CCCII,
    KIND_ISOURCE,
    KIND_RESISTOR,
    KIND_VSOURCE,
    MAX_TRAN_POINTS,
    NetlistDocument,
    conveyor_params,
    parse_netlist,
    parse_value,
    validate,
)
from .solver import solve, transient

Row = tuple[str, str, str, str, str, str]
_HEADER: Row = ("name", "param", "value", "metric", "result", "unit")


def _fmt(x: float) -> str:
    return repr(float(x))


_NEEDS_QUOTES = re.compile(r'[,"\r\n]')


def _csv_line(cells) -> str:
    """One CSV record as ``csv.writer`` writes it with QUOTE_MINIMAL and a
    newline terminator: a cell holding a comma, quote or line break is quoted,
    with inner quotes doubled. Unlike that writer, a lone carriage return is
    quoted too, so readers do not take it for a line end. Written by hand
    because each ``csv.writer`` allocates a record buffer of at least 128 KB."""
    if _NEEDS_QUOTES.search("".join(cells)):  # most records need no quoting
        cells = [
            '"' + c.replace('"', '""') + '"' if _NEEDS_QUOTES.search(c) else c for c in cells
        ]
    return ",".join(cells) + "\n"


def _write_rows(rows: list[Row], fmt: str, stream) -> None:
    if fmt == "csv":
        stream.write("".join(map(_csv_line, [_HEADER, *rows])))
        return
    cells = [_HEADER, *rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(_HEADER))]
    for row in cells:
        stream.write("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip() + "\n")


def _measure_rows(name: str, doc: NetlistDocument, waveform) -> list[Row]:
    window = default_window(waveform)
    readings: list[tuple[str, float, str]] = []
    with np.errstate(over="ignore", invalid="ignore"):  # a reading that overflows is refused below
        for metric, *nodes in (d.args for d in doc.measures()):
            if metric == "vpp":
                readings.append((f"vpp({nodes[0]})", vpp(waveform, nodes[0], window), "V"))
            elif metric == "gain":
                readings.append((f"gain({','.join(nodes)})", gain_pp(waveform, *nodes, window), ""))
            else:
                avg, peak = source_power(waveform, window)
                readings += [("power_avg", avg, "W"), ("power_peak", peak, "W")]
    for metric, value, _ in readings:
        if not math.isfinite(value):
            raise MeasureError(f"{metric} overflows the float range")
    return [(name, "", "", metric, _fmt(value), unit) for metric, value, unit in readings]


def _read_netlist(path: Path) -> NetlistDocument:
    try:
        text = path.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputFileError(f"cannot read {path}: {exc}") from None
    return parse_netlist(text)


def _run_file(args, stream) -> None:
    path = Path(args.file)
    doc = _read_netlist(path)
    _run_document(doc.title or path.stem, doc, args, stream)


def _run_document(name: str, doc: NetlistDocument, args, stream) -> None:
    circuit = validate(doc)
    tran, node = doc.tran(), args.dump_waveform
    if (node or doc.measures()) and tran is None:
        raise ValidationError(".measure and --dump-waveform need a .tran directive")
    if node and node != GROUND and node not in circuit.node_index:  # refused before solving
        raise UnknownNodeError(f"no trace for node {node!r}")
    # .op is the t = 0 point, which is also the first .tran point
    waveform = transient(circuit, *tran.args) if tran is not None else None
    if node:
        stream.write(_csv_line(("time", "value")))
        for t, v in zip(waveform.times, waveform.voltage(node)):
            stream.write(_csv_line((_fmt(t), _fmt(v))))
        return
    rows: list[Row] = []
    ops = sum(d.kind == "op" for d in doc.directives)
    if ops:  # every .op line prints the same point, solved once
        x = (waveform if waveform is not None else solve(circuit, [0.0])).states[0]
        for node, k in circuit.node_index.items():
            rows.append((name, "", "", f"v({node})", _fmt(x[k]), "V"))
        for elem, b in circuit.branch_index.items():
            rows.append((name, "", "", f"i({elem})", _fmt(x[circuit.n_nodes + b]), "A"))
        rows *= ops
    if waveform is not None:
        rows.extend(_measure_rows(name, doc, waveform))
    _write_rows(rows, args.format, stream)


def _run_experiment(args, stream) -> None:
    if args.dump_waveform:
        _run_document(args.name, experiment_document(args.name), args, stream)
        return
    rows: list[Row] = []
    for r in experiment_rows(args.name):
        rows.append((r.name, "", "", "r1", _fmt(r.r1), "ohm"))
        rows.append((r.name, "", "", "r2", _fmt(r.r2), "ohm"))
        rows.append((r.name, "", "", "level", str(r.level), ""))
        rows.append((r.name, "", "", "vpp_out", _fmt(r.measured_vpp), "V"))
        rows.append((r.name, "", "", "vpp_predicted", _fmt(r.predicted_vpp), "V"))
        if r.reference_vpp is not None:
            rows.append((r.name, "", "", "vpp_reference", _fmt(r.reference_vpp), "V"))
            rows.append((r.name, "", "", "deviation", _fmt(r.deviation), ""))
    _write_rows(rows, args.format, stream)


_SWEEPABLE_CCCII_KEYS = ("rx", "ib", "beta", "vdd", "vss")


def _with_param(doc: NetlistDocument, key: str, value: float) -> NetlistDocument:
    """Copy of ``doc`` with one element value replaced."""
    name, _, subkey = key.lower().partition(".")
    target = None
    for elem in doc.elements:
        if elem.name.lower() == name:
            target = elem
            break
    if target is None and key.lower() in _SWEEPABLE_CCCII_KEYS:
        conveyors = [e for e in doc.elements if e.kind == KIND_CCCII]
        if len(conveyors) == 1:
            target, subkey = conveyors[0], key.lower()
    if target is None:
        raise UnknownParameterError(f"parameter {key!r} matches no element")
    if target.kind == KIND_CCCII:
        if not subkey:
            raise UnknownParameterError(
                f"conveyor {target.name} needs a sub-key, e.g. {target.name}.IB"
            )
        if subkey not in _SWEEPABLE_CCCII_KEYS:
            raise UnknownParameterError(f"conveyor parameter {subkey!r} is not sweepable")
        if subkey in ("rx", "ib", "beta") and subkey not in target.params:
            raise UnknownParameterError(
                f"conveyor {target.name} does not use {subkey.upper()}"
            )
        params = conveyor_params(dict(target.params, **{subkey: value}))
    elif subkey:
        raise UnknownParameterError(f"{target.name} takes no sub-key {subkey!r}")
    elif target.kind == KIND_RESISTOR:
        params = dict(target.params, value=value)
    elif target.kind == KIND_ISOURCE:
        params = dict(target.params, dc=value)
    elif target.kind == KIND_VSOURCE:
        which = "dc" if "dc" in target.params else "amplitude"
        params = dict(target.params, **{which: value})
    new_elem = replace(target, params=params)
    elements = tuple(new_elem if e is target else e for e in doc.elements)
    return replace(doc, elements=elements)


def _sweep_base_document(base: str) -> tuple[str, NetlistDocument]:
    path = Path(base)
    if path.exists():
        doc = _read_netlist(path)
        return doc.title or path.stem, doc
    try:
        return base, experiment_document(base)
    except UnknownExperimentError:
        raise UnknownExperimentError(
            f"{base!r} is neither a netlist file nor a sweepable experiment"
        ) from None


def _run_sweep(args, stream) -> None:
    if args.points < 2:
        raise UsageError("--points must be at least 2")
    if args.points > MAX_TRAN_POINTS:
        raise UsageError(f"--points must be at most {MAX_TRAN_POINTS}")
    name, doc = _sweep_base_document(args.base)
    if doc.tran() is None:
        raise ValidationError("sweep base has no .tran directive")
    if not doc.measures():
        raise ValidationError("sweep base has no .measure directives")
    start, stop = parse_value(args.start), parse_value(args.stop)
    if args.log:
        if start <= 0 or stop <= 0:
            raise UsageError("--log sweeps need positive endpoints")
        points = np.geomspace(start, stop, args.points)
    elif not math.isfinite(stop - start):
        raise UsageError(f"sweep span from {args.start} to {args.stop} is not finite")
    else:
        points = np.linspace(start, stop, args.points)
    rows: list[Row] = []
    for value in np.sort(points):
        varied = _with_param(doc, args.param, float(value))
        waveform = transient(validate(varied), *varied.tran().args)
        for row in _measure_rows(name, varied, waveform):
            rows.append((row[0], args.param, _fmt(value), row[3], row[4], row[5]))
    _write_rows(rows, args.format, stream)


class _Parser(argparse.ArgumentParser):
    """Raises a usage error for ``main`` to report, instead of printing it."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on first use and kept: each parser is a
    reference cycle that only the cyclic garbage collector frees."""
    parser = _Parser(prog="ccsim", description="Miniature conveyor-amplifier circuit simulator")
    sub = parser.add_subparsers(dest="command", required=True)  # subparsers are _Parsers too
    p_run = sub.add_parser("run", help="simulate a netlist file")
    p_run.add_argument("file")
    p_exp = sub.add_parser("experiment", help="run a named reproduction experiment")
    p_exp.add_argument("name")
    p_sweep = sub.add_parser("sweep", help="sweep one element value")
    p_sweep.add_argument("base", help="netlist file or experiment name")
    p_sweep.add_argument("--param", required=True, help="element value to vary, e.g. R2 or X1.IB")
    p_sweep.add_argument("--from", dest="start", required=True, help="first sweep value")
    p_sweep.add_argument("--to", dest="stop", required=True, help="last sweep value")
    p_sweep.add_argument("--points", type=int, required=True)
    p_sweep.add_argument("--log", action="store_true", help="logarithmic spacing")
    for p in (p_run, p_exp, p_sweep):
        p.add_argument("--format", choices=("csv", "table"), default="csv")
        p.add_argument("--out", metavar="PATH", help="write results here instead of stdout")
    for p in (p_run, p_exp):  # a waveform is one run's
        p.add_argument("--dump-waveform", metavar="NODE", help="emit time,value pairs for NODE")
    return parser


_HANDLERS = {"run": _run_file, "experiment": _run_experiment, "sweep": _run_sweep}


def main(argv: list[str] | None = None) -> int:
    """Run one command. The only place that reports an error: a CcsimError
    becomes one ``error:`` line on stderr and exit 1, or 2 from the solver."""
    buffer = io.StringIO()
    try:
        args = _build_parser().parse_args(argv)
        _HANDLERS[args.command](args, buffer)
        if args.out:
            try:
                Path(args.out).write_text(buffer.getvalue())
            except OSError as exc:
                raise InputFileError(f"cannot write {args.out}: {exc}") from None
        else:
            sys.stdout.write(buffer.getvalue())
    except SolverError as exc:
        print(f"error: solver: {exc}", file=sys.stderr)
        return 2
    except CcsimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def entry() -> None:
    sys.exit(main())
