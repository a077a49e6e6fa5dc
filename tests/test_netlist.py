"""Parser, validator, and serializer tests.

Round-trip contract: parse(serialize(doc)) == doc for every valid document,
and the parser never escapes with anything but a located NetlistError.
"""

import gc
import random
import string
import tracemalloc
from dataclasses import replace

import pytest

from ccsim.errors import (
    CcsimError,
    DanglingNodeError,
    DuplicateNameError,
    MissingEndError,
    NetlistError,
    NetlistSyntaxError,
    NoGroundReferenceError,
    UnknownElementKindError,
    UnknownNodeError,
)
from ccsim.netlist import (
    MAX_TRAN_POINTS,
    Circuit,
    Directive,
    ElementDecl,
    NetlistDocument,
    parse_netlist,
    parse_value,
    serialize,
    validate,
)


# ── numeric suffixes ────────────────────────────────────────────────


@pytest.mark.parametrize(
    "text,expected",
    [
        ("1k", 1.0 * 1e3),
        ("1K", 1.0 * 1e3),
        ("1meg", 1.0 * 1e6),
        ("2.5MEG", 2.5 * 1e6),
        ("1m", 1.0 * 1e-3),
        ("50u", 50.0 * 1e-6),
        ("4.7n", 4.7 * 1e-9),
        ("3p", 3.0 * 1e-12),
        ("3f", 3.0 * 1e-15),
        ("2g", 2.0 * 1e9),
        ("100", 100.0),
        ("-0.5", -0.5),
        ("1e-6", 1e-6),
        ("1.5E3", 1500.0),
        ("1.e+03", 1000.0),
        (".5k", 0.5 * 1e3),
        ("1e3k", 1e3 * 1e3),
    ],
)
def test_suffix_expansion_exact(text, expected):
    # exact float product, not approximate
    assert parse_value(text) == expected


@pytest.mark.parametrize("text", ["", "k", "1x", "1kk", "1.2.3", "ohm", "1 k", "nan", "inf"])
def test_bad_values_rejected(text):
    with pytest.raises(NetlistSyntaxError):
        parse_value(text, line=7)


def test_bad_value_error_carries_line():
    with pytest.raises(NetlistSyntaxError) as exc:
        parse_netlist("R1 1 0 1x\n.end")
    assert exc.value.line == 1


@pytest.mark.parametrize("text", ["1e999", "-1e999", "1e303meg"])
def test_overflowing_value_is_non_finite(text):
    with pytest.raises(NetlistSyntaxError, match="non-finite value") as exc:
        parse_value(text, line=4)
    assert exc.value.line == 4


def test_overflowing_element_value_names_line():
    with pytest.raises(NetlistSyntaxError, match="non-finite value") as exc:
        parse_netlist("V1 1 0 DC 1\nR1 1 0 1e999\n.end")
    assert exc.value.line == 2


# ── element parsing ─────────────────────────────────────────────────


def test_parse_resistor_line():
    doc = parse_netlist("R1 1 0 1k\n.end")
    assert doc.elements == (
        ElementDecl("resistor", "R1", ("1", "0"), {"value": 1000.0}),
    )


def test_parse_cccii_defaults():
    doc = parse_netlist("XA in x out CCCII+ RX=0\n.end")
    (elem,) = doc.elements
    assert elem.kind == "cccii"
    assert elem.nodes == ("in", "x", "out")
    assert elem.params["rx"] == 0.0
    assert elem.params["polarity"] == +1.0
    assert elem.params["level"] == 1.0
    assert elem.params["vdd"] == 0.5 and elem.params["vss"] == -0.5


def test_parse_cccii_minus_and_bias():
    doc = parse_netlist("xa a b c cccii- ib=50u beta=1m level=2 vdd=1 vss=-1\n.end")
    (elem,) = doc.elements
    assert elem.params["polarity"] == -1.0
    assert elem.params["ib"] == 50.0 * 1e-6  # suffix expands as an exact product
    assert elem.params["beta"] == 1.0 * 1e-3
    assert elem.params["level"] == 2.0
    assert "rx" not in elem.params


def test_parse_sources():
    doc = parse_netlist("V1 a 0 DC 1.5\nV2 b 0 SIN(0 50m 1k)\nI1 0 a DC 2m\n.end")
    v1, v2, i1 = doc.elements
    assert v1.params == {"dc": 1.5}
    assert v2.params == {"offset": 0.0, "amplitude": 0.05, "freq": 1000.0}
    assert i1.params == {"dc": 0.002}


def test_sin_accepts_internal_spaces():
    doc = parse_netlist("V1 a 0 SIN( 0  50m  1k )\n.end")
    assert doc.elements[0].params["freq"] == 1000.0


def test_duplicate_name_case_insensitive():
    with pytest.raises(DuplicateNameError) as exc:
        parse_netlist("R1 1 0 1k\nr1 2 0 2k\n.end")
    assert exc.value.line == 2


def test_unknown_element_kind():
    with pytest.raises(UnknownElementKindError):
        parse_netlist("C1 1 0 1u\n.end")


def test_unknown_conveyor_model():
    with pytest.raises(UnknownElementKindError):
        parse_netlist("X1 a b c CCII+\n.end")


def test_missing_end():
    with pytest.raises(MissingEndError) as exc:
        parse_netlist("R1 1 0 1k\n")
    assert exc.value.line is not None


def test_content_after_end_is_ignored():
    doc = parse_netlist("R1 1 0 1k\n.end\ngarbage that would not parse\n")
    assert len(doc.elements) == 1


def test_title_from_leading_comment_only():
    doc = parse_netlist("* my circuit\n* ignored\nR1 1 0 1k\n* also ignored\n.end")
    assert doc.title == "my circuit"
    assert parse_netlist("R1 1 0 1k\n.end").title is None


# ── directives ──────────────────────────────────────────────────────


def test_tran_and_measure_directives():
    doc = parse_netlist(
        "V1 a 0 DC 1\n.tran 20u 5m\n.measure vpp(a)\n.measure gain(a, b)\n.measure power\n.end"
    )
    assert doc.tran() == Directive("tran", (20.0 * 1e-6, 5.0 * 1e-3))
    assert doc.measures() == (
        Directive("measure", ("vpp", "a")),
        Directive("measure", ("gain", "a", "b")),
        Directive("measure", ("power",)),
    )


@pytest.mark.parametrize(
    "text",
    [
        ".tran 0 1m",
        ".tran 2m 1m",
        ".tran 1m",
        ".measure thd(a)",
        ".measure vpp(a,b)",
        ".measure gain(a)",
        ".weird",
        ".op extra",
    ],
)
def test_bad_directives(text):
    with pytest.raises(NetlistSyntaxError):
        parse_netlist(f"V1 a 0 DC 1\n{text}\n.end")


def test_tran_grid_cap():
    # t = 0, 1, ..., N - 1 has exactly the cap's N points; one more is refused
    last = float(MAX_TRAN_POINTS - 1)
    assert parse_netlist(f"V1 a 0 DC 1\n.tran 1 {last!r}\n.end").tran().args == (1.0, last)
    for grid in (f"1 {last + 1.0!r}", "1f 1"):
        with pytest.raises(NetlistSyntaxError) as exc:
            parse_netlist(f"V1 a 0 DC 1\n.tran {grid}\n.end")
        assert exc.value.line == 2


def test_second_tran_rejected():
    with pytest.raises(NetlistSyntaxError):
        parse_netlist("V1 a 0 DC 1\n.tran 1u 1m\n.tran 1u 2m\n.end")


@pytest.mark.parametrize(
    "line",
    [
        "X1 a b CCCII+",
        "X1 a b c CCCII+ RX=1 IB=1u",
        "X1 a b c CCCII+ IB=1u",
        "X1 a b c CCCII+ BETA=1m",
        "X1 a b c CCCII+ RX=-1",
        "X1 a b c CCCII+ IB=0 BETA=1m",
        "X1 a b c CCCII+ LEVEL=3",
        "X1 a b c CCCII+ VDD=-1 VSS=1",
        "X1 a b c CCCII+ FOO=1",
        "R1 1 0 0",
        "V1 a 0 SIN(0 1 0)",
        "V1 a 0 AC 1",
    ],
)
def test_malformed_elements(line):
    with pytest.raises(NetlistSyntaxError):
        parse_netlist(line + "\n.end")


# Resistor lines as the parser reads them today: the exact value, or the
# exact error class, message and line. The resistor sits on line 2.
_R_LINE = "V1 a 0 DC 1\nR1 {} 1k\n.end"
_R_VALUE = "V1 a 0 DC 1\nR1 a 0 {}\n.end"


@pytest.mark.parametrize(
    "text, expected",
    [
        (_R_VALUE.format("1_0"), (NetlistSyntaxError, "bad numeric value '1_0'", 2)),
        (_R_VALUE.format("nan"), (NetlistSyntaxError, "bad numeric value 'nan'", 2)),
        (_R_VALUE.format("inf"), (NetlistSyntaxError, "bad numeric value 'inf'", 2)),
        (_R_VALUE.format("infinity"), (NetlistSyntaxError, "bad numeric value 'infinity'", 2)),
        (_R_VALUE.format("1e999"), (NetlistSyntaxError, "non-finite value '1e999'", 2)),
        (_R_VALUE.format("0"), (NetlistSyntaxError, "resistance must be positive, got '0'", 2)),
        (_R_VALUE.format("-1"), (NetlistSyntaxError, "resistance must be positive, got '-1'", 2)),
        (_R_VALUE.format("+.5k"), 500.0),
        (_R_VALUE.format("1.e+03"), 1000.0),
        (_R_VALUE.format("\u0661\u0662"), 12.0),  # Arabic-Indic digits, as \d reads them
        (
            _R_VALUE.format("1e-309"),
            (NetlistSyntaxError, "resistance '1e-309' has no finite conductance", 2),
        ),
        (_R_LINE.format("a-b 0"), (NetlistSyntaxError, "bad node label 'a-b'", 2)),
        (_R_LINE.format("a b.c"), (NetlistSyntaxError, "bad node label 'b.c'", 2)),
        (
            "V1 a 0 DC 1\nR1 a 0 1k\nr1 a 0 2k\n.end",
            (DuplicateNameError, "element name 'r1' already used on line 2", 3),
        ),
        (
            "V1 a 0 DC 1\nR1 a 0\n.end",
            (NetlistSyntaxError, "resistor takes: R<name> n+ n- <value>", 2),
        ),
        (
            "V1 a 0 DC 1\nR1 a 0 1k 2k\n.end",
            (NetlistSyntaxError, "resistor takes: R<name> n+ n- <value>", 2),
        ),
        (
            "V1 a\nR1 a 0 1k\n.end",
            (NetlistSyntaxError, "source takes: V<name> n+ n- DC <v> | SIN(...)", 1),
        ),
        (
            "V1 a 0 DC 1\nR1 a 0 1k\nI1 a 0 DC\n.end",
            (NetlistSyntaxError, "current source takes: I<name> n+ n- DC <a>", 3),
        ),
        (
            "V1 a 0 DC 1\nX1 a b CCCII+\n.end",
            (
                NetlistSyntaxError,
                "conveyor takes: X<name> <y> <x> <z> CCCII+|CCCII- [key=value ...]",
                2,
            ),
        ),
        (  # the dotless i upper-cases to I; kinds are the ASCII letters
            "V1 a 0 DC 1\n\u0131" "1 a 0 DC 1m\nR1 a 0 1k\n.end",
            (UnknownElementKindError, "unknown element kind '\u0131" "1'", 2),
        ),
        # keywords and suffixes fold case in ASCII only: the dotless i
        # upper-cases to I, the long s to S and the Kelvin sign lower-cases to k
        (_R_VALUE.format("1\u212a"), (NetlistSyntaxError, "bad numeric value '1\u212a'", 2)),
        (
            "V1 a 0 DC 1\nX1 a b c CCC\u0131I+\nR1 b 0 1k\n.end",
            (UnknownElementKindError, "unknown conveyor model 'CCC\u0131I+'", 2),
        ),
        (
            "V1 a 0 \u017fIN(0 1 1k)\nR1 a 0 1k\n.end",
            (NetlistSyntaxError, "bad source specification '\u017fIN(0 1 1k)'", 1),
        ),
        (
            "V1 a 0 DC 1\nR1 a 0 1k\n.tran 1u 10u\n.measure ga\u0131n(a,a)\n.end",
            (NetlistSyntaxError, ".measure takes: vpp(<node>) | gain(<in>,<out>) | power", 4),
        ),
    ],
)
def test_parse_edge_cases_are_pinned(text, expected):
    if isinstance(expected, float):
        resistor = parse_netlist(text).elements[1]
        assert resistor.params == {"value": expected}
        return
    cls, message, line = expected
    with pytest.raises(NetlistError) as exc:
        parse_netlist(text)
    assert type(exc.value) is cls
    assert (exc.value.reason, exc.value.line) == (message, line)
    assert str(exc.value) == f"line {line}: {message}"


def test_resistor_lines_share_node_labels_with_other_elements():
    # a label first checked on a resistor line is the same node elsewhere,
    # and a bad label is refused wherever it first appears
    doc = parse_netlist("R1 a 0 1k\nV1 a 0 DC 1\nX1 a x z CCCII+\nR2 x 0 1k\nR3 z 0 1k\n.end")
    assert [e.nodes for e in doc.elements] == [
        ("a", "0"), ("a", "0"), ("a", "x", "z"), ("x", "0"), ("z", "0"),
    ]
    with pytest.raises(NetlistSyntaxError, match="bad node label 'a!'") as exc:
        parse_netlist("R1 a 0 1k\nV1 a! 0 DC 1\n.end")
    assert exc.value.line == 2


def test_element_records_compare_and_replace():
    # plain (not frozen) records: equality and dataclasses.replace still hold
    elem = ElementDecl("resistor", "R1", ("a", "0"), {"value": 1.0})
    assert elem == ElementDecl("resistor", "R1", ("a", "0"), {"value": 1.0})
    assert replace(elem, params={"value": 2.0}).params == {"value": 2.0}
    assert elem.params == {"value": 1.0}
    assert repr(elem) == (
        "ElementDecl(kind='resistor', name='R1', nodes=('a', '0'), params={'value': 1.0})"
    )


# ── validation ──────────────────────────────────────────────────────


def test_validate_counts_single_resistor():
    ckt = validate(parse_netlist("R1 1 0 1k\n.end"))
    assert ckt.n_nodes == 1
    assert ckt.branch_count == 0


def test_validate_counts_amplifier():
    ckt = validate(
        parse_netlist("V1 1 0 DC 1\nX1 1 2 3 CCCII+ RX=0\nR1 2 0 1k\nR2 3 0 1k\n.end")
    )
    assert ckt.n_nodes == 3
    assert ckt.branch_count == 2
    assert ckt.size == 5


def test_no_ground_reference():
    with pytest.raises(NoGroundReferenceError):
        validate(parse_netlist("R1 1 2 1k\n.end"))


def test_dangling_isource_rejected():
    with pytest.raises(DanglingNodeError):
        validate(parse_netlist("I1 0 9 DC 1m\n.end"))


def test_dangling_conveyor_y_rejected():
    # Y port carries no current, so a Y-only node has an empty KCL row.
    with pytest.raises(DanglingNodeError):
        validate(parse_netlist("X1 9 2 0 CCCII+ RX=0\nR1 2 0 1k\n.end"))


def test_dangling_resistor_and_x_port_allowed():
    # both have a consistent zero-current solution
    ckt = validate(parse_netlist("V1 1 0 DC 1\nR1 1 9 1k\n.end"))
    assert "9" in ckt.node_index
    ckt = validate(parse_netlist("V1 1 0 DC 1\nX1 1 9 0 CCCII+ RX=0\n.end"))
    assert "9" in ckt.node_index


def test_floating_conveyor_z_dropped():
    ckt = validate(
        parse_netlist("V1 1 0 DC 1\nX1 1 2 9 CCCII+ RX=0\nR1 2 0 1k\n.end")
    )
    assert ckt.floating_nodes == frozenset({"9"})
    assert "9" not in ckt.node_index
    assert ckt.dense_index("9") is None


@pytest.mark.parametrize("node", ["nosuch", "9"])  # unknown, floating Z
def test_measure_of_unsolved_node_rejected(node):
    doc = parse_netlist(
        f"V1 1 0 DC 1\nX1 1 2 9 CCCII+ RX=0\nR1 2 0 1k\n.tran 1m 2m\n.measure vpp({node})\n.end"
    )
    with pytest.raises(UnknownNodeError):
        validate(doc)


def test_measure_of_ground_and_solved_nodes_accepted():
    validate(parse_netlist("V1 1 0 DC 1\nR1 1 0 1k\n.tran 1m 2m\n.measure gain(0,1)\n.end"))


def test_unreachable_island_rejected():
    with pytest.raises(DanglingNodeError):
        validate(parse_netlist("R1 1 0 1k\nR2 5 6 1k\n.end"))


def test_island_reached_only_through_conveyor_ports():
    # nodes 3 and 4 meet the rest of the circuit only at X1's X port
    island = "R2 3 4 1k\nR3 4 3 2k\n"
    ckt = validate(
        parse_netlist("V1 1 0 DC 1\nR1 2 0 1k\nX1 1 3 2 CCCII+ RX=100\n" + island + ".end")
    )
    assert {"3", "4"} <= set(ckt.node_index)
    with pytest.raises(DanglingNodeError, match="3, 4"):
        validate(parse_netlist("V1 1 0 DC 1\nR1 2 0 1k\n" + island + ".end"))


# ── serialization and round trips ───────────────────────────────────


def test_serialize_empty_document():
    assert serialize(NetlistDocument()) == ".end\n"


def test_serialize_scientific_notation():
    doc = parse_netlist("R1 1 0 1000\n.end")
    assert "1.e+03" in serialize(doc)


def _roundtrip(doc: NetlistDocument) -> NetlistDocument:
    return parse_netlist(serialize(doc))


def test_roundtrip_all_element_kinds():
    text = (
        "* everything\n"
        "V1 a 0 SIN(10m 50m 1k)\n"
        "V2 b 0 DC -0.25\n"
        "I1 0 a DC 3.3u\n"
        "R1 a b 12.34k\n"
        "X1 a b c CCCII- IB=50u BETA=1m LEVEL=2 VDD=0.6 VSS=-0.4\n"
        "X2 b c 0 CCCII+ RX=3538.461538461537\n"
        "R2 c 0 1meg\n"
        ".tran 20u 5m\n"
        ".op\n"
        ".measure vpp(c)\n"
        ".measure gain(a,c)\n"
        ".measure power\n"
        ".end\n"
    )
    doc = parse_netlist(text)
    assert _roundtrip(doc) == doc


def _isomorphic(a: Circuit, b: Circuit) -> bool:
    return (
        a.node_index == b.node_index
        and a.branch_index == b.branch_index
        and a.branch_count == b.branch_count
        and a.floating_nodes == b.floating_nodes
        and a.elements == b.elements
    )


def test_roundtrip_fixture_netlists(good_fixtures):
    assert good_fixtures, "fixture directory must not be empty"
    for path in good_fixtures:
        doc = parse_netlist(path.read_text())
        again = _roundtrip(doc)
        assert again == doc, path.name
        assert _isomorphic(validate(again), validate(doc)), path.name


def test_malformed_fixtures_raise_located_errors(bad_fixtures):
    assert bad_fixtures, "fixture directory must not be empty"
    for path in bad_fixtures:
        with pytest.raises(NetlistError) as exc:
            parse_netlist(path.read_text())
        assert exc.value.line is not None, path.name


def test_parser_is_total_on_fuzzed_input():
    # arbitrary garbage must produce a located error or a document, never
    # an unplanned exception
    rng = random.Random(20260808)
    alphabet = string.printable
    for _ in range(300):
        lines = [
            "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 40)))
            for _ in range(rng.randrange(0, 6))
        ]
        text = "\n".join(lines)
        try:
            doc = parse_netlist(text)
        except CcsimError:
            continue
        assert isinstance(doc, NetlistDocument)


# ── front-end footprint ─────────────────────────────────────────────


def _ladder_text(sections: int) -> str:
    lines, prev = ["* ladder", "VIN in 0 SIN(0.5 50m 1k)"], "in"
    for k in range(1, sections + 1):
        lines += [f"RS{k} {prev} n{k} {20.0 + k * 0.25!r}", f"RP{k} n{k} 0 {1e5 + k * 997.0!r}"]
        prev = f"n{k}"
    lines += [".op", ".tran 2e-05 0.005", f".measure gain(in,{prev})", ".measure power", ".end"]
    return "\n".join(lines) + "\n"


# tracemalloc readings per element on the 250-section ladder below (501
# elements): the front end's peak, and what validate holds above the document
# it is given. An (element, terminal) tuple per terminal in validate reads 210.
FRONT_END_BYTES = 670
VALIDATE_BYTES = 115


def test_front_end_footprint_per_element():
    # each bound is its reading plus 25 %
    text = _ladder_text(250)
    validate(parse_netlist(text))  # first-call set-up is not counted
    gc.collect()
    tracemalloc.start()
    try:
        doc = parse_netlist(text)
        parse_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]
        circuit = validate(doc)
        validate_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    elements = len(circuit.elements)
    assert elements == 501
    assert max(parse_peak, validate_peak) / elements <= 1.25 * FRONT_END_BYTES
    assert (validate_peak - held) / elements <= 1.25 * VALIDATE_BYTES
