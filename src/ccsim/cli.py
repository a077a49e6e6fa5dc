"""Command-line front-end.

Subcommands:

    ccsim run <file>                 parse, validate, execute .op/.tran,
                                     evaluate .measure directives
    ccsim experiment <name>          fig6 | fig7 | fig8 | table2 | ferri | all
    ccsim sweep <file|name> --param K --from A --to B --points N [--log]

Flags: --format csv|table, --out <path>, --dump-waveform <node>.
Results are emitted as `name,param,value,metric,result,unit` rows; a waveform
dump replaces them with `time,value` pairs. Exit status: 0 success, 1 input
error, 2 solver failure.
"""

from __future__ import annotations

import argparse
import functools
import io
import re
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .errors import (
    CcsimError,
    InputFileError,
    SolverError,
    UnknownExperimentError,
    UnknownNodeError,
    UnknownParameterError,
)
from .experiments import experiment_document, experiment_rows
from .measure import evaluate_directive
from .netlist import (
    GROUND,
    KIND_CCCII,
    KIND_ISOURCE,
    KIND_RESISTOR,
    KIND_VSOURCE,
    MAX_TRAN_POINTS,
    Circuit,
    NetlistDocument,
    conveyor_params,
    parse_netlist,
    parse_value,
    validate,
)
from .solver import newton_solve, transient

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


def _check_dump_node(circuit: Circuit, node: str) -> None:
    """Reject a waveform-dump node that has no trace, before solving."""
    if node != GROUND and node not in circuit.node_index:
        raise UnknownNodeError(f"no trace for node {node!r}")


def _dump_waveform(waveform, node: str, stream) -> None:
    trace = waveform.voltage(node)
    stream.write(_csv_line(("time", "value")))
    for t, v in zip(waveform.times, trace):
        stream.write(_csv_line((_fmt(t), _fmt(v))))


def _measure_rows(name: str, doc: NetlistDocument, waveform) -> list[Row]:
    rows: list[Row] = []
    for directive in doc.measures():
        result = evaluate_directive(waveform, directive.args)
        if result.kind == "vpp":
            label = f"vpp({directive.args[1]})"
            rows.append((name, "", "", label, _fmt(result.values[0]), "V"))
        elif result.kind == "gain_pp":
            label = f"gain({directive.args[1]},{directive.args[2]})"
            rows.append((name, "", "", label, _fmt(result.values[0]), ""))
        else:
            avg, peak = result.values
            rows.append((name, "", "", "power_avg", _fmt(avg), "W"))
            rows.append((name, "", "", "power_peak", _fmt(peak), "W"))
    return rows


def _read_netlist(path: Path) -> NetlistDocument:
    try:
        text = path.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputFileError(f"cannot read {path}: {exc}") from None
    return parse_netlist(text)


def _run_file(args, stream) -> int:
    path = Path(args.file)
    doc = _read_netlist(path)
    circuit = validate(doc)
    name = doc.title or path.stem
    tran = doc.tran()
    if (args.dump_waveform or doc.measures()) and tran is None:
        print("error: .measure and --dump-waveform need a .tran directive", file=sys.stderr)
        return 1
    if args.dump_waveform:
        _check_dump_node(circuit, args.dump_waveform)
    # .op is the t = 0 point, which is also the first .tran point
    waveform = transient(circuit, *tran.args) if tran is not None else None
    if args.dump_waveform:
        _dump_waveform(waveform, args.dump_waveform, stream)
        return 0
    rows: list[Row] = []
    for directive in doc.directives:
        if directive.kind == "op":
            sol = waveform.solution_at(0) if waveform is not None else newton_solve(circuit)
            for node, v in sol.voltages.items():
                rows.append((name, "", "", f"v({node})", _fmt(v), "V"))
            for elem, i in sol.currents.items():
                rows.append((name, "", "", f"i({elem})", _fmt(i), "A"))
    if waveform is not None:
        rows.extend(_measure_rows(name, doc, waveform))
    _write_rows(rows, args.format, stream)
    return 0


def _run_experiment(args, stream) -> int:
    if args.dump_waveform:
        doc = experiment_document(args.name)
        circuit = validate(doc)
        _check_dump_node(circuit, args.dump_waveform)
        waveform = transient(circuit, *doc.tran().args)
        _dump_waveform(waveform, args.dump_waveform, stream)
        return 0
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
    return 0


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


def _run_sweep(args, stream) -> int:
    if args.dump_waveform:
        print("error: --dump-waveform does not apply to sweeps", file=sys.stderr)
        return 1
    if args.points < 2:
        print("error: --points must be at least 2", file=sys.stderr)
        return 1
    if args.points > MAX_TRAN_POINTS:
        print(f"error: --points must be at most {MAX_TRAN_POINTS}", file=sys.stderr)
        return 1
    name, doc = _sweep_base_document(args.base)
    if doc.tran() is None:
        print("error: sweep base has no .tran directive", file=sys.stderr)
        return 1
    if not doc.measures():
        print("error: sweep base has no .measure directives", file=sys.stderr)
        return 1
    start, stop = parse_value(args.start), parse_value(args.stop)
    if args.log:
        if start <= 0 or stop <= 0:
            print("error: --log sweeps need positive endpoints", file=sys.stderr)
            return 1
        points = np.geomspace(start, stop, args.points)
    else:
        points = np.linspace(start, stop, args.points)
    points = np.sort(points)
    rows: list[Row] = []
    for value in points:
        varied = _with_param(doc, args.param, float(value))
        circuit = validate(varied)
        waveform = transient(circuit, *varied.tran().args)
        for row in _measure_rows(name, varied, waveform):
            rows.append((row[0], args.param, _fmt(value), row[3], row[4], row[5]))
    _write_rows(rows, args.format, stream)
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on first use and kept: each parser is a
    reference cycle that only the cyclic garbage collector frees."""
    parser = argparse.ArgumentParser(
        prog="ccsim",
        description="Miniature conveyor-amplifier circuit simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=("csv", "table"), default="csv")
        p.add_argument("--out", metavar="PATH", help="write results here instead of stdout")
        p.add_argument("--dump-waveform", metavar="NODE", help="emit time,value pairs for NODE")

    p_run = sub.add_parser("run", help="simulate a netlist file")
    p_run.add_argument("file")
    common(p_run)

    p_exp = sub.add_parser("experiment", help="run a named reproduction experiment")
    p_exp.add_argument("name")
    common(p_exp)

    p_sweep = sub.add_parser("sweep", help="sweep one element value")
    p_sweep.add_argument("base", help="netlist file or experiment name")
    p_sweep.add_argument("--param", required=True, help="element value to vary, e.g. R2 or X1.IB")
    p_sweep.add_argument("--from", dest="start", required=True, help="first sweep value")
    p_sweep.add_argument("--to", dest="stop", required=True, help="last sweep value")
    p_sweep.add_argument("--points", type=int, required=True)
    p_sweep.add_argument("--log", action="store_true", help="logarithmic spacing")
    common(p_sweep)
    return parser


_HANDLERS = {"run": _run_file, "experiment": _run_experiment, "sweep": _run_sweep}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    buffer = io.StringIO()
    try:
        status = _HANDLERS[args.command](args, buffer)
    except SolverError as exc:
        print(f"error: solver: {exc}", file=sys.stderr)
        return 2
    except CcsimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if status == 0:
        if args.out:
            try:
                Path(args.out).write_text(buffer.getvalue())
            except OSError as exc:
                print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
                return 1
        else:
            sys.stdout.write(buffer.getvalue())
    return status


def entry() -> None:
    sys.exit(main())
