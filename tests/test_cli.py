"""CLI contract tests: exit codes, CSV schema, determinism, sweeps."""

import csv
import gc
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ccsim import cli, experiments
from ccsim.cli import _csv_line, main
from ccsim.netlist import MAX_TRAN_POINTS
from ccsim.solver import transient

FIXTURES = Path(__file__).parent / "fixtures"
PKG_ROOT = Path(__file__).parent.parent

AMP_IDEAL = FIXTURES / "good" / "amp_ideal.cir"


def _rows(out: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(out)))


def _metric(rows: list[dict], metric: str) -> float:
    values = [float(r["result"]) for r in rows if r["metric"] == metric]
    assert values, f"metric {metric} missing"
    return values[0]


# ── run ─────────────────────────────────────────────────────────────


def test_run_emits_measures(capsys):
    assert main(["run", str(AMP_IDEAL)]) == 0
    rows = _rows(capsys.readouterr().out)
    assert _metric(rows, "gain(in,out)") == pytest.approx(100.0, rel=1e-6)
    assert _metric(rows, "vpp(in)") == pytest.approx(0.1, rel=1e-2)


def test_run_op_reports_solution(tmp_path, capsys):
    path = tmp_path / "divider.cir"
    path.write_text("V1 1 0 DC 1\nR1 1 2 1k\nR2 2 0 1k\n.op\n.end\n")
    assert main(["run", str(path)]) == 0
    rows = _rows(capsys.readouterr().out)
    assert _metric(rows, "v(2)") == pytest.approx(0.5)
    assert _metric(rows, "i(V1)") == pytest.approx(-0.5e-3)


def _op_lines(out: str) -> list[str]:
    return [line for line in out.splitlines() if ",v(" in line or ",i(" in line]


@pytest.mark.parametrize(
    "fixture, edit",
    [
        ("amp_level2.cir", ("", "")),
        ("amp_level2.cir", ("SIN(0 50m", "SIN(20m 50m")),  # clipped at t = 0
        ("divider.cir", ("", "")),
    ],
)
def test_op_rows_do_not_depend_on_tran(fixture, edit, tmp_path, capsys, monkeypatch):
    lines = (FIXTURES / "good" / fixture).read_text().replace(*edit).splitlines()
    body = [ln for ln in lines if not ln.startswith((".tran", ".measure", ".op", ".end"))]
    alone, with_tran = tmp_path / "alone.cir", tmp_path / "with_tran.cir"
    alone.write_text("\n".join(body + [".op", ".end"]) + "\n")
    with_tran.write_text("\n".join(body + [".op", ".tran 20u 1m", ".measure power", ".end"]))
    assert main(["run", str(alone)]) == 0
    expected = _op_lines(capsys.readouterr().out)
    assert expected
    # with a .tran, the .op rows come from its t = 0 point, not a second solve
    monkeypatch.setattr(cli, "newton_solve", None)
    assert main(["run", str(with_tran)]) == 0
    out = capsys.readouterr().out
    assert _op_lines(out) == expected
    assert "power_avg" in out


def test_run_rejects_measure_of_unknown_node_before_solving(tmp_path, capsys, monkeypatch):
    path = tmp_path / "nosuch.cir"
    path.write_text("V1 1 0 SIN(0 1 1k)\nR1 1 0 1k\n.tran 20u 1m\n.measure vpp(nosuch)\n.end\n")
    monkeypatch.setattr(cli, "transient", None)
    assert main(["run", str(path)]) == 1
    assert "nosuch" in capsys.readouterr().err


@pytest.mark.parametrize("node", ["nosuch", "9"])  # unknown, floating Z
def test_run_rejects_dump_of_unknown_node_before_solving(tmp_path, capsys, monkeypatch, node):
    path = tmp_path / "dump.cir"
    path.write_text("V1 1 0 SIN(0 1 1k)\nX1 1 2 9 CCCII+ RX=0\nR1 2 0 1k\n.tran 20u 1m\n.end\n")
    monkeypatch.setattr(cli, "transient", None)
    assert main(["run", str(path), "--dump-waveform", node]) == 1
    assert capsys.readouterr().err == f"error: no trace for node {node!r}\n"


def test_run_syntax_error_names_line(tmp_path, capsys):
    path = tmp_path / "broken.cir"
    path.write_text("* title\nV1 1 0 DC 1\nR1 1 0 1x\n.end\n")
    assert main(["run", str(path)]) == 1
    assert "line 3" in capsys.readouterr().err


def test_run_singular_solve_exits_two(tmp_path, capsys):
    path = tmp_path / "singular.cir"
    path.write_text("V1 1 0 DC 1\nV2 1 0 DC 2\nR1 1 0 1k\n.op\n.end\n")
    assert main(["run", str(path)]) == 2
    assert "solver" in capsys.readouterr().err


def test_run_executes_tran_even_without_measures(tmp_path, capsys):
    # solver failures must surface through exit code 2, measures or not
    path = tmp_path / "singular_tran.cir"
    path.write_text("V1 1 0 DC 1\nV2 1 0 DC 2\nR1 1 0 1k\n.tran 1u 10u\n.end\n")
    assert main(["run", str(path)]) == 2
    capsys.readouterr()


def test_run_missing_file(capsys):
    assert main(["run", "does_not_exist.cir"]) == 1


def test_run_table_format(capsys):
    assert main(["run", str(AMP_IDEAL), "--format", "table"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0].split() == ["name", "param", "value", "metric", "result", "unit"]


def test_run_writes_output_file(tmp_path):
    out = tmp_path / "result.csv"
    assert main(["run", str(AMP_IDEAL), "--out", str(out)]) == 0
    assert out.read_text().startswith("name,param,value,metric,result,unit")


def test_dump_waveform(capsys):
    assert main(["run", str(AMP_IDEAL), "--dump-waveform", "out"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "time,value"
    assert len(lines) == 102  # 2 ms at 20 us plus header


def test_output_is_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["run", str(AMP_IDEAL), "--out", str(a)]) == 0
    assert main(["run", str(AMP_IDEAL), "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


# ── experiment ──────────────────────────────────────────────────────


def test_experiment_fig8(capsys):
    assert main(["experiment", "fig8"]) == 0
    rows = _rows(capsys.readouterr().out)
    assert {r["name"] for r in rows} == {"fig8"}
    assert _metric(rows, "vpp_out") == pytest.approx(0.13, rel=0.01)
    assert _metric(rows, "vpp_reference") == 0.13


def test_experiment_table2(capsys):
    assert main(["experiment", "table2"]) == 0
    rows = _rows(capsys.readouterr().out)
    assert {r["name"] for r in rows} == {"table2_case1", "table2_case2", "table2_case3"}


def test_experiment_all_order(capsys):
    assert main(["experiment", "all"]) == 0
    rows = _rows(capsys.readouterr().out)
    seen = list(dict.fromkeys(r["name"] for r in rows))
    assert seen == [
        "fig6_ideal", "fig6", "fig7_ideal", "fig7", "fig8_ideal", "fig8",
        "table2_case1", "table2_case2", "table2_case3", "ferri",
    ]


def test_experiment_unknown(capsys):
    assert main(["experiment", "fig99"]) == 1
    assert "fig99" in capsys.readouterr().err


def test_experiment_waveform_dump(capsys):
    assert main(["experiment", "fig6", "--dump-waveform", "out"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "time,value"
    values = [float(line.split(",")[1]) for line in lines[1:]]
    assert max(values) <= 0.52  # clipped near the rail


def test_experiment_rejects_dump_of_unknown_node_before_solving(capsys, monkeypatch):
    monkeypatch.setattr(cli, "transient", None)
    assert main(["experiment", "fig6", "--dump-waveform", "nosuch"]) == 1
    assert capsys.readouterr().err == "error: no trace for node 'nosuch'\n"


def test_experiment_unknown_fails_before_solving(capsys, monkeypatch):
    def no_solve(*args):
        raise AssertionError("solved a circuit")

    monkeypatch.setattr(experiments, "transient", no_solve)
    assert main(["experiment", "fig9"]) == 1
    assert capsys.readouterr().err == (
        "error: unknown experiment 'fig9'; pick one of fig6, fig7, fig8, table2, ferri, all\n"
    )


@pytest.mark.parametrize(
    "name,runs", [("fig6", 1), ("fig7", 1), ("fig8", 1), ("table2", 3), ("ferri", 1), ("all", 10)]
)
def test_experiment_solves_only_its_own_circuits(name, runs, capsys, monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return transient(*args)

    monkeypatch.setattr(experiments, "transient", counted)
    assert main(["experiment", name]) == 0
    assert len(calls) == runs
    capsys.readouterr()


@pytest.mark.parametrize("name", ["fig6", "fig7", "fig8", "ferri"])
def test_experiment_dump_is_the_row_circuit(name, capsys):
    assert main(["experiment", name]) == 0
    vpp_out = _metric(_rows(capsys.readouterr().out), "vpp_out")
    assert main(["experiment", name, "--dump-waveform", "out"]) == 0
    samples = [tuple(map(float, line.split(","))) for line in capsys.readouterr().out.split()[1:]]
    # vpp's default window: the last two whole 1 kHz periods of the 5 ms run
    tail = [v for t, v in samples if t >= samples[-1][0] - 2e-3 - 1e-9]
    assert max(tail) - min(tail) == vpp_out


# ── one parser per process ──────────────────────────────────────────


@pytest.mark.parametrize(
    "argv",
    [
        ["run", str(FIXTURES / "good" / "amp_level2.cir")],
        ["experiment", "fig8"],
        ["sweep", "fig8", "--param", "X1.RX", "--from", "1k", "--to", "5k", "--points", "3"],
        ["experiment", "fig6", "--dump-waveform", "out"],
    ],
)
def test_main_leaves_no_cyclic_garbage(argv, capsys):
    # cyclic garbage is what triggers the collector's pauses; a parser built
    # per call (ArgumentParser <-> subparsers) left 184 objects of it
    assert main(argv) == 0
    gc.collect()
    gc.disable()
    try:
        assert main(argv) == 0
        assert gc.collect() == 0
    finally:
        gc.enable()
    capsys.readouterr()


def test_table_format_does_not_stick(capsys):
    assert main(["experiment", "fig8", "--format", "table"]) == 0
    table = capsys.readouterr().out
    assert main(["experiment", "fig8"]) == 0
    out = capsys.readouterr().out
    assert out != table
    assert out.splitlines()[0] == "name,param,value,metric,result,unit"


def test_good_call_after_usage_error(capsys):
    assert main(["experiment", "fig8"]) == 0
    expected = capsys.readouterr().out
    with pytest.raises(SystemExit):
        main(["experiment", "fig8", "--format", "xml"])
    assert "invalid choice" in capsys.readouterr().err
    assert main(["experiment", "fig8"]) == 0
    assert capsys.readouterr().out == expected


# ── sweep ───────────────────────────────────────────────────────────


def test_sweep_r2_follows_gain_law(capsys):
    assert main([
        "sweep", str(AMP_IDEAL), "--param", "R2",
        "--from", "1k", "--to", "100k", "--points", "5", "--log",
    ]) == 0
    rows = [r for r in _rows(capsys.readouterr().out) if r["metric"] == "gain(in,out)"]
    assert len(rows) == 5
    values = [float(r["value"]) for r in rows]
    assert values == sorted(values)
    for r in rows:
        assert float(r["result"]) == pytest.approx(float(r["value"]) / 1e3, rel=1e-6)


def test_sweep_bias_current_raises_gain(tmp_path, capsys):
    path = tmp_path / "bias.cir"
    path.write_text(
        "VIN in 0 SIN(0 50m 1k)\n"
        "X1 in x out CCCII+ IB=50u BETA=1m LEVEL=2\n"
        "R1 x 0 8k\nR2 out 0 15k\n"
        ".tran 20u 2m\n.measure gain(in,out)\n.end\n"
    )
    assert main([
        "sweep", str(path), "--param", "IB",
        "--from", "10u", "--to", "500u", "--points", "4", "--log",
    ]) == 0
    gains = [float(r["result"]) for r in _rows(capsys.readouterr().out)]
    assert all(a < b for a, b in zip(gains, gains[1:]))


def test_sweep_dotted_parameter(tmp_path, capsys):
    path = tmp_path / "rx.cir"
    path.write_text(
        "VIN in 0 SIN(0 50m 1k)\nX1 in x out CCCII+ RX=0\n"
        "R1 x 0 1k\nR2 out 0 10k\n.tran 20u 1m\n.measure gain(in,out)\n.end\n"
    )
    assert main([
        "sweep", str(path), "--param", "X1.RX",
        "--from", "0", "--to", "1k", "--points", "3",
    ]) == 0
    gains = [float(r["result"]) for r in _rows(capsys.readouterr().out)]
    assert gains[0] == pytest.approx(10.0, rel=1e-6)
    assert all(a > b for a, b in zip(gains, gains[1:]))


def test_sweep_experiment_base(capsys):
    assert main([
        "sweep", "fig8", "--param", "R2",
        "--from", "10k", "--to", "20k", "--points", "2",
    ]) == 0
    rows = _rows(capsys.readouterr().out)
    assert all(r["name"] == "fig8" for r in rows)
    assert all(r["param"] == "R2" for r in rows)


def test_sweep_unknown_parameter(capsys):
    assert main([
        "sweep", str(AMP_IDEAL), "--param", "R9",
        "--from", "1", "--to", "2", "--points", "2",
    ]) == 1
    assert "R9" in capsys.readouterr().err


def test_sweep_needs_two_points(capsys):
    assert main([
        "sweep", str(AMP_IDEAL), "--param", "R2",
        "--from", "1", "--to", "2", "--points", "1",
    ]) == 1


@pytest.mark.parametrize("points", [MAX_TRAN_POINTS + 1, 10**12])
def test_sweep_rejects_oversized_grid_before_allocating(points, capsys):
    assert main([
        "sweep", "fig8", "--param", "R2",
        "--from", "1k", "--to", "2k", "--points", str(points),
    ]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --points must be at most {MAX_TRAN_POINTS}\n"


def test_sweep_rejects_crossed_rails(capsys):
    # the swept conveyor values meet the parser's checks, not a traceback
    assert main([
        "sweep", "fig8", "--param", "X1.VDD",
        "--from", "-2", "--to", "1", "--points", "3",
    ]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: VDD must exceed VSS\n"


def _bias_amplifier(tmp_path, bias: str) -> Path:
    path = tmp_path / "bias.cir"
    path.write_text(
        "VIN in 0 SIN(0 50m 1k)\n"
        f"X1 in x out CCCII+ {bias}\n"
        "R1 x 0 8k\nR2 out 0 15k\n"
        ".tran 20u 2m\n.measure gain(in,out)\n.end\n"
    )
    return path


def test_sweep_rejects_zero_beta(tmp_path, capsys):
    path = _bias_amplifier(tmp_path, "IB=50u BETA=1m LEVEL=2")
    assert main([
        "sweep", str(path), "--param", "X1.BETA",
        "--from", "0", "--to", "1m", "--points", "3",
    ]) == 1
    assert capsys.readouterr().err == "error: BETA must be positive\n"


_UNDERFLOW = "R_X = 1/sqrt(8*BETA*IB) is not finite"


def test_run_rejects_bias_pair_that_underflows(tmp_path, capsys):
    # 8 * 1e-200 * 1e-200 is 0.0 in double precision
    path = _bias_amplifier(tmp_path, "IB=1e-200 BETA=1e-200")
    assert main(["run", str(path)]) == 1
    assert capsys.readouterr().err == f"error: line 2: {_UNDERFLOW}\n"


def test_sweep_rejects_bias_current_that_underflows(tmp_path, capsys):
    path = _bias_amplifier(tmp_path, "IB=1u BETA=1e-200")
    assert main([
        "sweep", str(path), "--param", "X1.IB",
        "--from", "1e-200", "--to", "1e-6", "--points", "3", "--log",
    ]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {_UNDERFLOW}\n"


@pytest.mark.parametrize("sweep", [False, True], ids=["run", "sweep"])
def test_overflowing_condition_estimate_prints_one_error_line(sweep, tmp_path):
    # run as a process, so numpy's warnings reach stderr as a user sees them
    if sweep:
        argv = ["sweep", "fig8", "--param", "X1.RX", "--from", "0", "--to", "1e308",
                "--points", "3"]
    else:
        argv = ["run", str(_bias_amplifier(tmp_path, "RX=1e308"))]
    env = dict(os.environ, PYTHONPATH=str(PKG_ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "ccsim", *argv],
        capture_output=True, env=env, cwd=PKG_ROOT, text=True,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: solver: condition number ")
    assert proc.stderr.count("\n") == 1


def test_sweep_rejects_unknown_base(capsys):
    assert main([
        "sweep", "table2", "--param", "R2",
        "--from", "1", "--to", "2", "--points", "2",
    ]) == 1


# ── input and output errors ─────────────────────────────────────────


def test_run_non_utf8_netlist(tmp_path, capsys):
    path = tmp_path / "latin1.cir"
    path.write_bytes("* r\xe9sistance\nV1 1 0 DC 1\nR1 1 0 1k\n.op\n.end\n".encode("latin-1"))
    assert main(["run", str(path)]) == 1
    assert capsys.readouterr().err.startswith("error: cannot read")


def test_sweep_directory_base(tmp_path, capsys):
    assert main([
        "sweep", str(tmp_path), "--param", "R2",
        "--from", "1", "--to", "2", "--points", "2",
    ]) == 1
    assert capsys.readouterr().err.startswith("error: cannot read")


def test_out_path_in_missing_directory(tmp_path, capsys):
    out = tmp_path / "missing" / "result.csv"
    assert main(["run", str(AMP_IDEAL), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: cannot write")
    assert not out.exists()


def test_csv_line_matches_csv_writer():
    rows = [
        ("name", "param", "value", "metric", "result", "unit"),
        ("amp", "", "", "gain(in,out)", "100.0", ""),
        ('say "hi"', "a,b", "line\nbreak", "crlf\r\n", '"', ","),
        ("", "", "", "", "", ""),
        (" lead", "trail ", "tab\there", "semi;colon", "1e-05", "V"),
    ]
    expected = io.StringIO()
    csv.writer(expected, lineterminator="\n").writerows(rows)
    assert "".join(map(_csv_line, rows)) == expected.getvalue()
    assert _csv_line(("a\rb", "c")) == '"a\rb",c\n'


# ── module entry point ──────────────────────────────────────────────


def test_module_invocation_exit_codes(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(PKG_ROOT / "src"))
    ok = subprocess.run(
        [sys.executable, "-m", "ccsim", "run", str(AMP_IDEAL)],
        capture_output=True, env=env, cwd=PKG_ROOT, text=True,
    )
    assert ok.returncode == 0
    assert ok.stdout.startswith("name,param,value,metric,result,unit")
    bad = tmp_path / "bad.cir"
    bad.write_text("R1 1 0 1x\n.end\n")
    err = subprocess.run(
        [sys.executable, "-m", "ccsim", "run", str(bad)],
        capture_output=True, env=env, cwd=PKG_ROOT, text=True,
    )
    assert err.returncode == 1
    assert "line 1" in err.stderr
