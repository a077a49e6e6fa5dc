"""Seeded CLI fuzz: mutated netlists and mistyped command lines, run in
process through ``cli.main``.

Netlists are the good fixtures with tokens swapped, lines dropped or
duplicated, and literals from ``LITERALS`` put in; command lines are good
calls with arguments dropped, added or given bad values. The number of draws
is fixed, not a time box, so what is covered does not depend on host speed.
Every draw must exit 0, 1 or 2 with stderr empty or one ``error:`` line
(pytest turns a numpy warning into a failure), and every result on stdout
must be a finite float. A document that parses must survive ``serialize``.
"""

import csv
import io
import math
from pathlib import Path

import numpy as np

from ccsim.cli import main
from ccsim.errors import NetlistError
from ccsim.netlist import parse_netlist, serialize

GOOD = sorted((Path(__file__).parent / "fixtures" / "good").glob("*.cir"))
LITERALS = (
    "1e308", "-1e308", "nan", "1_0", "١٢", "1K", "0", "1e-308",
    "CCCıI+", "ſIN(0", "gaın(in,out)", "LEVEL=2", "RX=1e308",
)
LINES = (".tran 1e-15 1", ".op", ".measure power", ".measure vpp(out)", "R9 out 0 1e-308")
NETLIST_DRAWS = 1200
ARGV_DRAWS = 600


def _mutate(lines: list[str], rng) -> list[str]:
    lines = list(lines)
    for _ in range(rng.integers(1, 4)):
        i = int(rng.integers(len(lines))) if lines else 0
        op = rng.integers(5)
        if not lines or op == 0:
            lines.insert(i, LINES[rng.integers(len(LINES))])
        elif op == 1:
            del lines[i]
        elif op == 2:
            lines.insert(i, lines[i])
        else:
            tokens = lines[i].split() or [""]
            j = int(rng.integers(len(tokens)))
            if op == 3:
                tokens[j] = LITERALS[rng.integers(len(LITERALS))]
            else:
                k = int(rng.integers(len(tokens)))
                tokens[j], tokens[k] = tokens[k], tokens[j]
            lines[i] = " ".join(tokens)
    return lines


def _check(argv: list[str], capsys) -> None:
    status = main(argv)
    out, err = capsys.readouterr()
    assert status in (0, 1, 2), argv
    if status == 0:
        assert err == "", argv
    else:
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n"), argv
        assert out == "", argv
        return
    rows = list(csv.reader(io.StringIO(out)))
    column = 1 if rows[0] == ["time", "value"] else 4
    for row in rows[1:]:
        assert math.isfinite(float(row[column])), (argv, row)


def test_mutated_netlists(tmp_path, capsys):
    rng = np.random.default_rng(1)
    sources = [p.read_text().splitlines() for p in GOOD]
    path = tmp_path / "draw.cir"
    for _ in range(NETLIST_DRAWS):
        text = "\n".join(_mutate(sources[rng.integers(len(sources))], rng)) + "\n"
        path.write_text(text)
        try:
            doc = parse_netlist(text)
        except NetlistError:
            pass
        else:
            assert parse_netlist(serialize(doc)) == doc, text
        extra = [[], ["--dump-waveform", "out"], ["--format", "csv"]][rng.integers(3)]
        _check(["run", str(path), *extra], capsys)


def _sweep(rng) -> list[str]:
    base, param = [
        (str(GOOD[0]), "R2"), (str(GOOD[0]), "VIN"), (str(GOOD[1]), "X1.IB"),
        ("fig8", "R2"), ("fig8", "X1.RX"), ("ferri", "R1"),
    ][rng.integers(6)]
    ends = ["1k", "2k", "0", "-1", "1e308", "-1e308", "1e-308", "abc"]
    start, stop = (ends[i] for i in rng.integers(len(ends), size=2))
    argv = ["sweep", base, "--param", param, f"--from={start}", f"--to={stop}",
            "--points", str(rng.integers(1, 4))]
    return argv + ["--log"] if rng.integers(2) else argv


def test_mistyped_command_lines(capsys):
    rng = np.random.default_rng(2)
    goods = [
        lambda: ["run", str(GOOD[rng.integers(len(GOOD))])],
        lambda: ["experiment", ["fig6", "fig8", "ferri", "table2", "nosuch"][rng.integers(5)]],
        lambda: _sweep(rng),
    ]
    extras = [["--bogus"], ["--format", "xml"], ["--format"], ["--points", "2.5"],
              ["--dump-waveform", "out"], ["--dump-waveform", "nosuch"], ["--out"]]
    for _ in range(ARGV_DRAWS):
        argv = goods[rng.integers(len(goods))]()
        op = rng.integers(4)
        if op == 0:
            del argv[rng.integers(len(argv))]
        elif op == 1:
            argv += extras[rng.integers(len(extras))]
        elif op == 2:
            argv[0] = ["bogus", "Run", "sweep", "experiment"][rng.integers(4)]
        _check(argv, capsys)
