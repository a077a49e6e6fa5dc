"""SPICE-like netlist dialect: parser, validator, serializer.

One element or directive per line. Supported lines:

    R<name> n+ n- <value>
    V<name> n+ n- DC <v>
    V<name> n+ n- SIN(<offset> <amplitude> <freq_hz>)
    I<name> n+ n- DC <a>
    X<name> <y> <x> <z> CCCII+|CCCII- [RX=<ohms> | IB=<amps> BETA=<a_per_v2>]
                                      [LEVEL=1|2] [VDD=<v>] [VSS=<v>]
    .tran <tstep> <tstop>                 (at most MAX_TRAN_POINTS points)
    .op
    .measure vpp(<node>) | gain(<in_node>,<out_node>) | power
    .end
    * comment

Numeric literals take the usual engineering suffixes f/p/n/u/m/k/meg/g
(case-insensitive, `m` is milli and `meg` is mega). Node labels are arbitrary
identifiers; "0" is ground. Element names are unique case-insensitively. A
leading comment line, if present, becomes the document title. Everything
after ``.end`` is ignored.

The parser is total: any input yields either a NetlistDocument or a
:class:`~ccsim.errors.NetlistError` carrying the offending line number.
"""

from __future__ import annotations

import math
import re
from collections import deque
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .devices import DEFAULT_VDD, DEFAULT_VSS
from .errors import (
    DanglingNodeError,
    DuplicateNameError,
    MissingEndError,
    NetlistSyntaxError,
    NoGroundReferenceError,
    UnknownElementKindError,
    UnknownNodeError,
)

GROUND = "0"

# Most timepoints a .tran grid may have; the paper's runs use 251. Each point
# holds a full state vector, 8 bytes per unknown, so a linear run peaks at
# about one (points, unknowns) array: 97.7 MiB traced for a 252-unknown
# ladder at 50 001 points (1.02x the array), and a clamped run at about two
# (52.4 MiB, 2.1x, for a 65-unknown clamped ladder at 50 001 points).
MAX_TRAN_POINTS = 100_000

SUFFIXES = {
    "f": 1e-15,
    "p": 1e-12,
    "n": 1e-9,
    "u": 1e-6,
    "m": 1e-3,
    "k": 1e3,
    "meg": 1e6,
    "g": 1e9,
}

_VALUE_RE = re.compile(
    r"^([+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)(meg|[fpnumkg])?$", re.IGNORECASE
)
_NODE_RE = re.compile(r"^\w+$")
_SIN_RE = re.compile(r"^SIN\s*\(\s*(\S+)\s+(\S+)\s+(\S+)\s*\)$", re.IGNORECASE)
_MEASURE_RE = re.compile(r"^(vpp|gain|power)\s*(?:\(\s*([^)]*?)\s*\))?$", re.IGNORECASE)

KIND_RESISTOR = "resistor"
KIND_VSOURCE = "vsource"
KIND_ISOURCE = "isource"
KIND_CCCII = "cccii"

_KIND_BY_LETTER = {
    "R": KIND_RESISTOR,
    "V": KIND_VSOURCE,
    "I": KIND_ISOURCE,
    "X": KIND_CCCII,
}


def parse_value(text: str, line: int | None = None) -> float:
    """Expand an engineering-suffixed literal to its SI float value."""
    m = _VALUE_RE.match(text.strip())
    if not m:
        raise NetlistSyntaxError(f"bad numeric value {text!r}", line)
    mantissa, suffix = m.groups()
    value = float(mantissa)
    if suffix:
        value *= SUFFIXES[suffix.lower()]
    if not math.isfinite(value):
        raise NetlistSyntaxError(f"non-finite value {text!r}", line)
    return value


@dataclass(frozen=True)
class ElementDecl:
    """One parsed element: kind, name, ordered node labels, numeric params."""

    kind: str
    name: str
    nodes: tuple[str, ...]
    params: dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class Directive:
    """One parsed analysis/measurement directive."""

    kind: str  # "tran" | "op" | "measure"
    args: tuple = ()


@dataclass(frozen=True)
class NetlistDocument:
    elements: tuple[ElementDecl, ...] = ()
    directives: tuple[Directive, ...] = ()
    title: str | None = None

    def tran(self) -> Directive | None:
        for d in self.directives:
            if d.kind == "tran":
                return d
        return None

    def measures(self) -> tuple[Directive, ...]:
        return tuple(d for d in self.directives if d.kind == "measure")


@dataclass(frozen=True)
class Circuit:
    """Validated node-indexed circuit ready for assembly.

    ``node_index`` maps labels to dense indices; ground and floating conveyor
    Z nodes carry no index. Each voltage source and each conveyor owns one
    extra branch unknown, ordered by declaration.
    """

    node_index: dict[str, int]
    elements: tuple[ElementDecl, ...]
    branch_count: int
    branch_index: dict[str, int]
    floating_nodes: frozenset[str]

    @property
    def n_nodes(self) -> int:
        return len(self.node_index)

    @property
    def size(self) -> int:
        return self.n_nodes + self.branch_count

    def dense_index(self, label: str) -> int | None:
        if label == GROUND or label in self.floating_nodes:
            return None
        return self.node_index[label]

    def branch_dense_index(self, name: str) -> int:
        return self.n_nodes + self.branch_index[name]

    def unknown_labels(self) -> tuple[str, ...]:
        """Node labels then branch-owning element names, in dense order."""
        nodes = sorted(self.node_index, key=self.node_index.get)
        branches = sorted(self.branch_index, key=self.branch_index.get)
        return tuple(nodes) + tuple(branches)


def _parse_nodes(tokens: list[str], line: int) -> tuple[str, ...]:
    for t in tokens:
        if not _NODE_RE.match(t):
            raise NetlistSyntaxError(f"bad node label {t!r}", line)
    return tuple(tokens)


def _parse_resistor(name, tokens, line) -> ElementDecl:
    if len(tokens) != 3:
        raise NetlistSyntaxError("resistor takes: R<name> n+ n- <value>", line)
    nodes = _parse_nodes(tokens[:2], line)
    value = parse_value(tokens[2], line)
    if not value > 0:
        raise NetlistSyntaxError(f"resistance must be positive, got {tokens[2]!r}", line)
    return ElementDecl(KIND_RESISTOR, name, nodes, {"value": value})


def _parse_vsource(name, tokens, line) -> ElementDecl:
    if len(tokens) < 3:
        raise NetlistSyntaxError("source takes: V<name> n+ n- DC <v> | SIN(...)", line)
    nodes = _parse_nodes(tokens[:2], line)
    spec = " ".join(tokens[2:])
    if tokens[2].upper() == "DC" and len(tokens) == 4:
        return ElementDecl(KIND_VSOURCE, name, nodes, {"dc": parse_value(tokens[3], line)})
    m = _SIN_RE.match(spec)
    if m:
        offset, amplitude, freq = (parse_value(g, line) for g in m.groups())
        if not freq > 0:
            raise NetlistSyntaxError("SIN frequency must be positive", line)
        return ElementDecl(
            KIND_VSOURCE, name, nodes,
            {"offset": offset, "amplitude": amplitude, "freq": freq},
        )
    raise NetlistSyntaxError(f"bad source specification {spec!r}", line)


def _parse_isource(name, tokens, line) -> ElementDecl:
    if len(tokens) != 4 or tokens[2].upper() != "DC":
        raise NetlistSyntaxError("current source takes: I<name> n+ n- DC <a>", line)
    nodes = _parse_nodes(tokens[:2], line)
    return ElementDecl(KIND_ISOURCE, name, nodes, {"dc": parse_value(tokens[3], line)})


_CCCII_KEYS = {"rx", "ib", "beta", "level", "vdd", "vss"}


def _parse_cccii(name, tokens, line) -> ElementDecl:
    if len(tokens) < 4:
        raise NetlistSyntaxError(
            "conveyor takes: X<name> <y> <x> <z> CCCII+|CCCII- [key=value ...]", line
        )
    nodes = _parse_nodes(tokens[:3], line)
    model = tokens[3].upper()
    if model not in ("CCCII+", "CCCII-"):
        raise UnknownElementKindError(f"unknown conveyor model {tokens[3]!r}", line)
    values = {"polarity": +1.0 if model.endswith("+") else -1.0}
    for tok in tokens[4:]:
        key, sep, raw = tok.partition("=")
        if not sep or key.lower() not in _CCCII_KEYS:
            raise NetlistSyntaxError(f"bad conveyor parameter {tok!r}", line)
        values[key.lower()] = parse_value(raw, line)
    return ElementDecl(KIND_CCCII, name, nodes, conveyor_params(values, line))


def conveyor_params(values: Mapping[str, float], line: int | None = None) -> dict[str, float]:
    """The one conveyor record: ``values`` (lower-case netlist keys plus
    ``polarity``, +1 or -1) with the parser's defaults filled in, as a new
    map. Raises NetlistSyntaxError unless it is a valid conveyor, so parsed
    lines, swept values and built amplifiers share one set of checks."""
    for key in values:
        if key not in _CCCII_KEYS and key != "polarity":
            raise NetlistSyntaxError(f"bad conveyor parameter {key!r}", line)
    params = {"polarity": +1.0, "level": 1.0, "vdd": DEFAULT_VDD, "vss": DEFAULT_VSS, **values}
    if "ib" not in params:
        params.setdefault("rx", 0.0)
    if params["polarity"] not in (1.0, -1.0):
        raise NetlistSyntaxError("polarity must be +1 or -1", line)
    if "rx" in params and "ib" in params:
        raise NetlistSyntaxError("RX and IB are mutually exclusive", line)
    if ("ib" in params) != ("beta" in params):
        raise NetlistSyntaxError("bias-derived R_X needs both IB and BETA", line)
    if "ib" in params:
        if not params["ib"] > 0:
            raise NetlistSyntaxError("IB must be positive", line)
        if not params["beta"] > 0:
            raise NetlistSyntaxError("BETA must be positive", line)
        if not 8.0 * params["beta"] * params["ib"] > 0:
            raise NetlistSyntaxError("R_X = 1/sqrt(8*BETA*IB) is not finite", line)
    elif params["rx"] < 0:
        raise NetlistSyntaxError("RX must be non-negative", line)
    if params["level"] not in (1.0, 2.0):
        raise NetlistSyntaxError("LEVEL must be 1 or 2", line)
    if not params["vdd"] > params["vss"]:
        raise NetlistSyntaxError("VDD must exceed VSS", line)
    return params


_ELEMENT_PARSERS = {
    KIND_RESISTOR: _parse_resistor,
    KIND_VSOURCE: _parse_vsource,
    KIND_ISOURCE: _parse_isource,
    KIND_CCCII: _parse_cccii,
}


def tran_step_count(tstep: float, tstop: float) -> int:
    """Steps of the grid t = 0, tstep, ..., tstop, which has one more point.

    Raises ValueError unless tstep > 0, tstop >= tstep and the grid has at
    most MAX_TRAN_POINTS points.
    """
    if not tstep > 0 or tstop < tstep:
        raise ValueError(".tran needs tstep > 0 and tstop >= tstep")
    steps = tstop / tstep + 1e-9
    if not steps < MAX_TRAN_POINTS:
        raise ValueError(f".tran grid exceeds {MAX_TRAN_POINTS} points")
    return int(steps)


def _parse_directive(line_text: str, line: int, have_tran: bool) -> Directive | None:
    tokens = line_text.split()
    word = tokens[0].lower()
    if word == ".end":
        return None
    if word == ".op":
        if len(tokens) != 1:
            raise NetlistSyntaxError(".op takes no arguments", line)
        return Directive("op")
    if word == ".tran":
        if have_tran:
            raise NetlistSyntaxError("more than one .tran directive", line)
        if len(tokens) != 3:
            raise NetlistSyntaxError(".tran takes: .tran <tstep> <tstop>", line)
        tstep = parse_value(tokens[1], line)
        tstop = parse_value(tokens[2], line)
        try:
            tran_step_count(tstep, tstop)
        except ValueError as exc:
            raise NetlistSyntaxError(str(exc), line) from None
        return Directive("tran", (tstep, tstop))
    if word == ".measure":
        m = _MEASURE_RE.match(" ".join(tokens[1:]))
        if not m:
            raise NetlistSyntaxError(
                ".measure takes: vpp(<node>) | gain(<in>,<out>) | power", line
            )
        metric = m.group(1).lower()
        args = tuple(a.strip() for a in m.group(2).split(",")) if m.group(2) else ()
        if metric == "vpp" and len(args) != 1:
            raise NetlistSyntaxError("vpp takes one node", line)
        if metric == "gain" and len(args) != 2:
            raise NetlistSyntaxError("gain takes two nodes", line)
        if metric == "power" and args:
            raise NetlistSyntaxError("power takes no arguments", line)
        if not all(_NODE_RE.match(a) for a in args):
            raise NetlistSyntaxError("bad node label in .measure", line)
        return Directive("measure", (metric,) + args)
    raise NetlistSyntaxError(f"unknown directive {tokens[0]!r}", line)


def parse_netlist(text: str) -> NetlistDocument:
    """Parse a netlist document. Raises located NetlistError subclasses."""
    elements: list[ElementDecl] = []
    directives: list[Directive] = []
    seen_names: dict[str, int] = {}
    title: str | None = None
    saw_content = False
    ended = False
    lines = text.splitlines()
    for lineno, raw in enumerate(lines, 1):
        stripped = raw.strip()
        if not stripped:
            continue
        if stripped.startswith("*"):
            if not saw_content and title is None:
                title = stripped[1:].strip() or None
            continue
        saw_content = True
        if stripped.startswith("."):
            d = _parse_directive(stripped, lineno, any(x.kind == "tran" for x in directives))
            if d is None:
                ended = True
                break
            directives.append(d)
            continue
        tokens = stripped.split()
        name = tokens[0]
        kind = _KIND_BY_LETTER.get(name[0].upper())
        if kind is None:
            raise UnknownElementKindError(f"unknown element kind {name!r}", lineno)
        if name.lower() in seen_names:
            raise DuplicateNameError(
                f"element name {name!r} already used on line {seen_names[name.lower()]}",
                lineno,
            )
        seen_names[name.lower()] = lineno
        elements.append(_ELEMENT_PARSERS[kind](name, tokens[1:], lineno))
    if not ended:
        raise MissingEndError("document does not end with .end", len(lines) + 1)
    return NetlistDocument(tuple(elements), tuple(directives), title)


# ── validation ──────────────────────────────────────────────────────

# Single-touch nodes that force an unsatisfiable KCL row: a current source
# into a dead end, or a conveyor Y port whose node has no other constraint.
_UNSOLVABLE_SINGLE = {(KIND_ISOURCE, 0), (KIND_ISOURCE, 1), (KIND_CCCII, 0)}
_CCCII_Z_TERMINAL = 2


def validate(doc: NetlistDocument) -> Circuit:
    """Resolve node labels, allocate branches, check solvability and that
    every ``.measure`` node is ground or a solved node.

    A node touched only by one conveyor Z port is dropped from the system
    (the mirrored current has no path, so the port is left unstamped); that
    is the conventional "floating Z" idiom for unused conveyor outputs.
    """
    touches: dict[str, list[tuple[ElementDecl, int]]] = {}
    for elem in doc.elements:
        for term, label in enumerate(elem.nodes):
            touches.setdefault(label, []).append((elem, term))
    if GROUND not in touches:
        raise NoGroundReferenceError("no element touches ground node \"0\"")

    floating: set[str] = set()
    for label, touched_by in touches.items():
        if label == GROUND or len(touched_by) != 1:
            continue
        elem, term = touched_by[0]
        if (elem.kind, term) in _UNSOLVABLE_SINGLE:
            raise DanglingNodeError(
                f"node {label!r} is only touched by {elem.name} and has no solvable path"
            )
        if elem.kind == KIND_CCCII and term == _CCCII_Z_TERMINAL:
            floating.add(label)

    node_index: dict[str, int] = {}
    for elem in doc.elements:
        for label in elem.nodes:
            if label != GROUND and label not in floating and label not in node_index:
                node_index[label] = len(node_index)

    # Every indexed node must reach ground through element co-incidence.
    reachable = {GROUND}
    queue = deque([GROUND])
    while queue:
        for elem, _ in touches[queue.popleft()]:
            for nbr in elem.nodes:
                if nbr not in reachable:
                    reachable.add(nbr)
                    queue.append(nbr)
    unreachable = [n for n in node_index if n not in reachable]
    if unreachable:
        raise DanglingNodeError(
            f"nodes not reachable from ground: {', '.join(sorted(unreachable))}"
        )

    for directive in doc.measures():
        for label in directive.args[1:]:
            if label != GROUND and label not in node_index:
                raise UnknownNodeError(f".measure node {label!r} is not a solved node")

    branch_index: dict[str, int] = {}
    for elem in doc.elements:
        if elem.kind in (KIND_VSOURCE, KIND_CCCII):
            branch_index[elem.name] = len(branch_index)

    return Circuit(
        node_index=node_index,
        elements=doc.elements,
        branch_count=len(branch_index),
        branch_index=branch_index,
        floating_nodes=frozenset(floating),
    )


# ── serialization ───────────────────────────────────────────────────


def _fmt(value: float) -> str:
    """Scientific notation that parses back to the identical float."""
    return np.format_float_scientific(value, unique=True)


def _serialize_element(e: ElementDecl) -> str:
    if e.kind == KIND_RESISTOR:
        return f"{e.name} {e.nodes[0]} {e.nodes[1]} {_fmt(e.params['value'])}"
    if e.kind == KIND_VSOURCE:
        if "dc" in e.params:
            return f"{e.name} {e.nodes[0]} {e.nodes[1]} DC {_fmt(e.params['dc'])}"
        p = e.params
        return (
            f"{e.name} {e.nodes[0]} {e.nodes[1]} "
            f"SIN({_fmt(p['offset'])} {_fmt(p['amplitude'])} {_fmt(p['freq'])})"
        )
    if e.kind == KIND_ISOURCE:
        return f"{e.name} {e.nodes[0]} {e.nodes[1]} DC {_fmt(e.params['dc'])}"
    # conveyor
    model = "CCCII+" if e.params["polarity"] > 0 else "CCCII-"
    parts = [e.name, *e.nodes, model]
    if "ib" in e.params:
        parts.append(f"IB={_fmt(e.params['ib'])}")
        parts.append(f"BETA={_fmt(e.params['beta'])}")
    else:
        parts.append(f"RX={_fmt(e.params['rx'])}")
    parts.append(f"LEVEL={int(e.params['level'])}")
    parts.append(f"VDD={_fmt(e.params['vdd'])}")
    parts.append(f"VSS={_fmt(e.params['vss'])}")
    return " ".join(parts)


def _serialize_directive(d: Directive) -> str:
    if d.kind == "op":
        return ".op"
    if d.kind == "tran":
        return f".tran {_fmt(d.args[0])} {_fmt(d.args[1])}"
    metric = d.args[0]
    if metric == "power":
        return ".measure power"
    return f".measure {metric}({','.join(d.args[1:])})"


def serialize(doc: NetlistDocument) -> str:
    """Emit netlist text such that ``parse_netlist(serialize(doc)) == doc``."""
    out: list[str] = []
    if doc.title:
        out.append(f"* {doc.title}")
    out.extend(_serialize_element(e) for e in doc.elements)
    out.extend(_serialize_directive(d) for d in doc.directives)
    out.append(".end")
    return "\n".join(out) + "\n"
