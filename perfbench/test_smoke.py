"""Smoke tests of the benchmark itself (not part of the ccsim suite).

    python3 -m pytest -q perfbench/test_smoke.py

Every workload runs a few ops with its oracle, traced; two traced runs with
one seed must count the same work; the oracle must reject a wrong output;
a missing traced function must be reported, not crash the tracer.
"""

from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import oracle  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS, generate  # noqa: E402

DETERMINISTIC = ("solver.lu_factor", "devices.eval_clamp", "solver.transient")


def _traced_worker(ops: list[dict], workdir: Path) -> dict:
    """One traced pass over `ops` (`--seconds 0`)."""
    ops_path = workdir / "ops.json"
    ops_path.write_text(json.dumps(ops))
    done = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), str(ops_path), "--seconds", "0", "--trace"],
        env=run._child_env(workdir / "pycache"), capture_output=True, text=True, timeout=300,
        check=True)
    assert (workdir / "spans.csv").is_file()
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_workload_passes_oracle_and_counts_repeat(workload, tmp_path):
    ops = generate(workload, 7, tmp_path)[:2]
    first, second = (_traced_worker(ops, tmp_path) for _ in range(2))
    for result in (first, second):
        assert result["failures"] == []
        assert result["attempted"] == 4
        assert result["trace"]["timepoints"] > 0
    assert first["trace"]["timepoints"] == second["trace"]["timepoints"]
    for name in DETERMINISTIC:
        assert first["trace"]["calls"][name] == second["trace"]["calls"][name]
    metrics, _ = run.per_layer(first)
    assert set(metrics) == set(run.PER_LAYER)


def test_reproduction_factor_ratio_matches_seed_count(tmp_path):
    ops = [op for op in generate("reproduction", 1, tmp_path) if op["argv"][1] == "all"]
    trace = _traced_worker(ops, tmp_path)["trace"]
    assert trace["timepoints"] == 2510
    assert trace["calls"]["solver.lu_factor"] == 3570


def test_seed_fixes_inputs(tmp_path):
    a = generate("ladder_clamped", 3, tmp_path / "a")
    b = generate("ladder_clamped", 3, tmp_path / "b")
    c = generate("ladder_clamped", 4, tmp_path / "c")
    assert [op["expect"] for op in a] == [op["expect"] for op in b]
    assert [op["expect"] for op in a] != [op["expect"] for op in c]


def test_oracle_rejects_perturbed_output(tmp_path):
    from ccsim import cli

    for workload in sorted(WORKLOADS):
        op = generate(workload, 5, tmp_path / workload)[0]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(op["argv"]) == 0
        text = out.getvalue()
        assert oracle.check(text, op["expect"]) == []
        header, first, *rest = text.splitlines()
        cells = first.split(",")
        cells[-2] = repr(float(cells[-2]) * (1 + 1e-4) + 1e-3)
        wrong = "\n".join([header, ",".join(cells), *rest]) + "\n"
        assert oracle.check(wrong, op["expect"]) != []


def test_reported_metrics_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: unit for name, (_, _, unit) in run.PER_LAYER.items()}
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)


def test_missing_binding_is_reported_absent(monkeypatch):
    import ccsim.solver
    from tracer import Tracer

    monkeypatch.delattr(ccsim.solver, "lu_factor")
    tracer = Tracer()
    assert "solver.lu_factor" in tracer.absent
    tracer.install()
    tracer.uninstall()
    result = {"calibration_s": [0.0072], "op_s": [1.0],
              "trace": {"ops": 1, "traced_op_s": [1.1], "calls": tracer.calls,
                        "self_s": tracer.self_s, "entries": tracer.entries,
                        "layer_self_s": dict.fromkeys(tracer.entries, 0.0),
                        "timepoints": 0, "absent": tracer.absent}}
    metrics, lines = run.per_layer(result)
    assert metrics["solver.lu_factor.calls"]["value"] == 0
    assert any("solver.lu_factor.calls" in line and "ABSENT" in line for line in lines)
