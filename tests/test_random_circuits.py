"""Seeded random-circuit oracles for assembly, serialization and the solver.

The generator draws solvable circuits from all four element kinds, with
ground and floating-Z terminals, parallel elements on one node pair and
conveyors whose X and Z ports share a node. Each circuit is checked against
the devices' ``_*_entries`` stamp layouts summed in declaration order (the
reference the triplet assembly must match bit for bit), the serialize/parse
round trip, the KCL/branch residual at every transient point and ``.op``
against the first ``.tran`` point.

Solvability by construction: every node has a resistor of at most 1 kOhm to
ground (conductance matrix >= 1e-3 * I), voltage sources have distinct +
nodes and no - node that is another source's + node (independent
constraints), and R_X >= 10 kOhm keeps each conveyor's rank-one coupling
below 3e-4 S.
"""

import math

import numpy as np
import pytest

from ccsim.devices import (
    _cccii_entries,
    _isource_entries,
    _resistor_entries,
    _vsource_entries,
)
from ccsim.errors import NonPositiveResistanceError
from ccsim.netlist import (
    GROUND,
    KIND_CCCII,
    KIND_ISOURCE,
    KIND_RESISTOR,
    KIND_VSOURCE,
    Directive,
    ElementDecl,
    NetlistDocument,
    parse_netlist,
    serialize,
    validate,
)
from ccsim.solver import _Assembly, newton_solve, residual, transient

N_CIRCUITS = 60


def _log_uniform(rng, lo: float, hi: float) -> float:
    return float(np.exp(rng.uniform(np.log(lo), np.log(hi))))


def _random_document(rng, index: int) -> NetlistDocument:
    nodes = [f"n{i}" for i in range(int(rng.integers(2, 7)))]
    elements: list[ElementDecl] = []

    def add(kind: str, letter: str, terminals, params: dict) -> None:
        name = f"{letter}{sum(e.kind == kind for e in elements) + 1}"
        elements.append(ElementDecl(kind, name, tuple(terminals), params))

    def pair(choices):
        a, b = rng.choice(choices, 2, replace=False)
        return str(a), str(b)

    for node in nodes:  # backbone to ground, either orientation
        ends = (node, GROUND) if rng.random() < 0.5 else (GROUND, node)
        add(KIND_RESISTOR, "R", ends, {"value": _log_uniform(rng, 10.0, 1e3)})
    for _ in range(int(rng.integers(1, 2 * len(nodes)))):
        ends = pair(nodes + [GROUND])
        value = _log_uniform(rng, 10.0, 1e5)
        add(KIND_RESISTOR, "R", ends, {"value": value})
        if rng.random() < 0.3:  # a parallel twin on the same node pair
            add(KIND_RESISTOR, "R", ends[::-1], {"value": _log_uniform(rng, 10.0, 1e5)})

    plus = [str(p) for p in rng.choice(nodes, int(rng.integers(1, 3)), replace=False)]
    for p in plus:
        minus = str(rng.choice([GROUND] + [n for n in nodes if n not in plus]))
        if rng.random() < 0.5:
            params = {"dc": float(rng.uniform(-1.0, 1.0))}
        else:
            params = {
                "offset": float(rng.uniform(-0.3, 0.3)),
                "amplitude": float(rng.uniform(0.0, 1.0)),
                "freq": _log_uniform(rng, 100.0, 1e4),
            }
        add(KIND_VSOURCE, "V", (p, minus), params)

    for _ in range(int(rng.integers(0, 3))):
        ends = pair(nodes + [GROUND])
        add(KIND_ISOURCE, "I", ends, {"dc": float(rng.uniform(-1e-3, 1e-3))})
        if rng.random() < 0.3:
            add(KIND_ISOURCE, "I", ends, {"dc": float(rng.uniform(-1e-3, 1e-3))})

    for j in range(int(rng.integers(1, 3))):
        y, x, z = (str(t) for t in rng.choice(nodes + [GROUND], 3))
        draw = rng.random()
        if draw < 0.3:
            z = x
        elif draw < 0.6:
            z = f"f{j}"  # touched by this Z port alone: a floating output
        params = {
            "polarity": float(rng.choice([-1.0, 1.0])),
            "level": float(rng.choice([1.0, 2.0])),
            "vdd": float(rng.uniform(0.2, 1.0)),
            "vss": float(rng.uniform(-1.0, -0.2)),
        }
        if rng.random() < 0.5:
            params["rx"] = _log_uniform(rng, 1e4, 1e5)
        else:  # R_X = 1/sqrt(8 beta ib) between about 1e4 and 1e5 ohms
            params["ib"] = _log_uniform(rng, 1e-7, 1e-6)
            params["beta"] = _log_uniform(rng, 1e-5, 1e-4)
        add(KIND_CCCII, "X", (y, x, z), params)

    order = rng.permutation(len(elements))
    directives = [Directive("tran", (1e-4, 1e-3))]
    if rng.random() < 0.5:
        directives.append(Directive("op"))
    directives.append(Directive("measure", ("vpp", nodes[0])))
    directives.append(Directive("measure", ("power",)))
    return NetlistDocument(
        elements=tuple(elements[i] for i in order),
        directives=tuple(directives),
        title=f"random circuit {index}" if rng.random() < 0.5 else None,
    )


def _documents():
    rng = np.random.default_rng(1810)
    return [_random_document(rng, i) for i in range(N_CIRCUITS)]


def _stamped(circuit):
    """Static matrix and RHS as the declaration-order sum of the device
    stamps, entry by entry, skipping entries on index-less nodes.

    Voltage-source values are time-dependent and stay out of the static RHS.
    """
    n = circuit.size
    a, b = np.zeros((n, n)), np.zeros(n)
    for elem in circuit.elements:
        idx = tuple(circuit.dense_index(lbl) for lbl in elem.nodes)
        if elem.kind == KIND_ISOURCE:
            for r, v in zip(*_isource_entries(*idx, elem.params["dc"])):
                if r is not None:
                    b[r] += v
            continue
        if elem.kind == KIND_RESISTOR:
            entries = _resistor_entries(*idx, elem.params["value"])
        elif elem.kind == KIND_VSOURCE:
            entries = _vsource_entries(*idx, circuit.branch_dense_index(elem.name))
        else:
            branch = circuit.branch_dense_index(elem.name)
            entries = _cccii_entries(*idx, branch, elem.params)
        for r, c, v in zip(*entries):
            if r is not None and c is not None:
                a[r, c] += v
    return a, b


def test_generator_covers_every_feature():
    docs = _documents()
    elements = [e for d in docs for e in d.elements]
    assert {e.kind for e in elements} == {KIND_RESISTOR, KIND_VSOURCE, KIND_ISOURCE, KIND_CCCII}
    conveyors = [e for e in elements if e.kind == KIND_CCCII]
    assert any(e.nodes[1] == e.nodes[2] for e in conveyors)
    assert any(e.nodes[2].startswith("f") for e in conveyors)
    assert any(GROUND in e.nodes for e in conveyors)
    assert any(e.params["level"] == 2.0 for e in conveyors)
    assert any(
        sorted(a.nodes) == sorted(b.nodes)
        for d in docs
        for i, a in enumerate(d.elements)
        for b in d.elements[i + 1:]
        if a.kind == b.kind == KIND_RESISTOR
    )
    with_isource = [any(e.kind == KIND_ISOURCE for e in d.elements) for d in docs]
    assert any(with_isource) and not all(with_isource)


def test_assembly_equals_declaration_order_sum_of_stamps():
    for doc in _documents():
        ckt = validate(doc)
        asm = _Assembly(ckt)
        a, b = _stamped(ckt)
        assert np.array_equal(asm.a_static, a)
        assert np.array_equal(asm.rhs_static, b)
        assert asm.a_static.dtype == asm.rhs_static.dtype == np.float64
        clamped = [
            (ckt.node_index[e.nodes[2]], e.params["vdd"], e.params["vss"])
            for e in ckt.elements
            if e.kind == KIND_CCCII and e.params["level"] == 2.0 and e.nodes[2] in ckt.node_index
        ]
        assert asm.clamps == clamped


def test_static_rhs_is_float_without_current_sources():
    ckt = validate(parse_netlist("V1 1 0 DC 1\nR1 1 0 1k\n.end"))
    rhs = _Assembly(ckt).rhs_static
    assert rhs.dtype == np.float64 and rhs.shape == (2,)
    assert not rhs.any()


def test_serialize_parse_round_trip():
    for doc in _documents():
        assert parse_netlist(serialize(doc)) == doc


def test_kcl_residual_at_every_transient_point():
    for doc in _documents():
        ckt = validate(doc)
        w = transient(ckt, *doc.tran().args)
        for j, t in enumerate(w.times):
            x = np.concatenate([w.voltages[j], w.currents[j]])
            assert np.abs(residual(ckt, float(t), x)).max() <= 1e-9


def test_op_equals_first_transient_point():
    # .op is the one-point case of .tran: the same bits at t = 0
    for doc in _documents():
        ckt = validate(doc)
        op = newton_solve(ckt).vector
        assert np.array_equal(op, transient(ckt, *doc.tran().args).solution_at(0).vector)


@pytest.mark.parametrize("value", [0.0, -1e3, math.inf, math.nan])
def test_bad_resistance_declaration_rejected_by_transient(value):
    doc = NetlistDocument(
        elements=(
            ElementDecl(KIND_VSOURCE, "V1", ("1", GROUND), {"dc": 1.0}),
            ElementDecl(KIND_RESISTOR, "R1", ("1", GROUND), {"value": value}),
        )
    )
    with pytest.raises(NonPositiveResistanceError):
        transient(validate(doc), 1e-3, 2e-3)


def _scaled(doc: NetlistDocument, scale: float) -> NetlistDocument:
    """Level-1 copy of ``doc`` with every resistance, R_X included, times
    ``scale`` and every independent current divided by it."""
    elements = []
    for e in doc.elements:
        params = dict(e.params)
        if e.kind == KIND_RESISTOR:
            params["value"] *= scale
        elif e.kind == KIND_ISOURCE:
            params["dc"] /= scale
        elif e.kind == KIND_CCCII:
            params["level"] = 1.0
            if "rx" in params:
                params["rx"] *= scale
            else:  # R_X = 1/sqrt(8 beta ib)
                params["ib"] /= scale * scale
        elements.append(ElementDecl(e.kind, e.name, e.nodes, params))
    return NetlistDocument(tuple(elements), doc.directives, doc.title)


def test_level1_solution_is_invariant_under_impedance_scaling():
    # node voltages do not change and branch currents scale by 1/scale; the
    # paper's amplifier spans 1 kOhm to 100 kOhm, so a singularity check that
    # mixes siemens and ohms refuses it at the larger scales
    for doc in _documents():
        ref = transient(validate(_scaled(doc, 1.0)), *doc.tran().args)
        for k in range(-6, 7):
            scale = 10.0**k
            w = transient(validate(_scaled(doc, scale)), *doc.tran().args)
            assert np.abs(w.voltages - ref.voltages).max() <= 1e-9 * np.abs(ref.voltages).max()
            assert np.abs(w.currents * scale - ref.currents).max() <= (
                1e-9 * np.abs(ref.currents).max()
            )
