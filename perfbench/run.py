"""ccsim benchmark: end-to-end and per-layer metrics for one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the program is imported from
``src/``). Writes the seeded inputs under ``perfbench/out/``, then runs the
workload in its own fresh process as a closed loop with one client for ``S``
seconds, timing fresh ``import ccsim`` probes between its ops, and checks
every op's output against a solver-free oracle. With ``--trace 0`` it prints the
end-to-end metrics, with ``--trace 1`` the per-layer ones; the last line of
stdout is one JSON object. Exits 1 when any op fails its oracle and 2 when
the checkout holds no program to measure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import calib  # noqa: E402
from workloads import WORKLOADS, generate  # noqa: E402

TAIL_BEYOND = 10  # samples a tail percentile must have beyond it

END_TO_END = {  # name -> unit
    "setup_s": "s", "op_s_p50": "s", "op_s_tail": "s",
    "timepoints_per_s": "1/s", "peak_rss_mb": "MB", "op_alloc_mb": "MB",
}
# Per-layer metric -> (kind, traced function or layer, unit). Times and counts
# are per traced op; "ratio" divides a function's calls by solver.timepoints.
PER_LAYER = {
    "solver.lu_factor.calls": ("calls", "solver.lu_factor", "count/op"),
    "solver.lu_factor_per_timepoint": ("ratio", "solver.lu_factor", "calls/point"),
    "devices.eval_clamp.calls": ("calls", "devices.eval_clamp", "count/op"),
    "devices.eval_clamp_per_timepoint": ("ratio", "devices.eval_clamp", "calls/point"),
    "solver.lu_factor.self_s": ("self", "solver.lu_factor", "s/op"),
    "solver.lu_apply.self_s": ("self", "solver.lu_apply", "s/op"),
    "solver.transient.self_s": ("self", "solver.transient", "s/op"),
    "solver.transient.calls": ("calls", "solver.transient", "count/op"),
    "solver.newton_solve.self_s": ("self", "solver.newton_solve", "s/op"),
    "solver.newton_solve.calls": ("calls", "solver.newton_solve", "count/op"),
    "solver.timepoints": ("timepoints", None, "points/op"),
    "netlist.parse.self_s": ("self", "netlist.parse", "s/op"),
    "netlist.parse.calls": ("calls", "netlist.parse", "count/op"),
    "netlist.validate.self_s": ("self", "netlist.validate", "s/op"),
    "netlist.validate.calls": ("calls", "netlist.validate", "count/op"),
    "measure.self_s": ("layer_self", "measure", "s/op"),
    "measure.calls": ("entries", "measure", "count/op"),
    "cli.main.self_s": ("self", "cli.main", "s/op"),
    "experiments.self_s": ("layer_self", "experiments", "s/op"),
    "trace.overhead_frac": ("overhead", None, "ratio"),
}


def _environment(seed: int) -> dict:
    head = ROOT / ".git" / "HEAD"
    commit = "unknown (not a git checkout)"
    if head.is_file():
        ref = head.read_text().strip()
        ref_file = ROOT / ".git" / ref.partition("ref: ")[2]
        commit = ref_file.read_text().strip() if ref.startswith("ref: ") and ref_file.is_file() else ref
    return {
        "python": platform.python_version(),
        "blas_threads": {k: os.environ.get(k, "unset") for k in
                         ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "commit": commit,
        "source_sha256": hashlib.sha256(b"".join(
            p.read_bytes() for p in sorted((SRC / "ccsim").glob("*.py")))).hexdigest()[:16],
    }


def _child_env(pycache: Path) -> dict:
    # A private, initially empty bytecode cache: the worker's own imports fill
    # it before any import is timed, so `setup_s` never depends on .pyc files
    # that other runs or the test suite left in the checkout.
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONPYCACHEPREFIX=str(pycache))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def run_worker(ops_path: Path, seconds: float, trace: bool) -> dict:
    pycache = ops_path.parent / "pycache"
    shutil.rmtree(pycache, ignore_errors=True)
    # One untimed import of everything the worker imports writes the cache, so
    # neither the import probes nor the worker's peak memory include compiling.
    subprocess.run([sys.executable, "-c", f"import sys; sys.path.insert(0, {str(HERE)!r}); "
                    "import worker, tracer, ccsim.cli"],
                   env=_child_env(pycache), cwd=ROOT, timeout=120, check=True)
    argv = [sys.executable, str(HERE / "worker.py"), str(ops_path), "--seconds", str(seconds)]
    if trace:
        argv.append("--trace")
    try:
        done = subprocess.run(argv, env=_child_env(pycache), cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=seconds + 120, check=True)
    finally:
        shutil.rmtree(pycache, ignore_errors=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    for path in [result["ccsim_file"], *result["import_files"]]:
        if not Path(path).is_relative_to(SRC):
            raise SystemExit(f"error: imported ccsim from {path}, not {SRC}")
    return result


def tail(samples: list[float]) -> tuple[float, float, int]:
    """Highest percentile with TAIL_BEYOND samples beyond it, as (value,
    percentile, samples beyond); the maximum when there are too few."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


def end_to_end(result: dict) -> tuple[dict, list[str]]:
    factor = calib.speed_factor(result["calibration_s"])
    op_s = result["op_s"]
    n = len(op_s)
    tail_s, pct, beyond = tail(op_s)
    raw = {
        "setup_s": statistics.median(ccsim_s for ccsim_s, _ in result["import_s"]),
        "op_s_p50": statistics.median(op_s),
        "op_s_tail": tail_s,
        "timepoints_per_s": sum(result["points"]) / sum(op_s),
        "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
        "op_alloc_mb": result["op_alloc_bytes"] / 2**20,
    }
    # Op times are scaled to the reference host speed by the run's one factor;
    # `setup_s` by numpy's import, timed right after each ccsim import.
    setup_s = calib.IMPORT_REFERENCE_S * statistics.median(
        ccsim_s / numpy_s for ccsim_s, numpy_s in result["import_s"])
    values = dict(raw, setup_s=setup_s, op_s_p50=raw["op_s_p50"] * factor,
                  op_s_tail=tail_s * factor, timepoints_per_s=raw["timepoints_per_s"] / factor)
    notes = {
        "setup_s": f"{len(result['import_s'])} fresh interpreters, each paired with an "
                   "import of numpy",
        "op_s_p50": f"median of {n} ops",
        "op_s_tail": f"p{pct:.1f} of {n} ops, {beyond} beyond",
        "timepoints_per_s": f"{sum(result['points'])} points in {sum(op_s):.3f} s of ops",
        "peak_rss_mb": "worker process",
        "op_alloc_mb": "tracemalloc peak of one op on the first (largest) input",
    }
    lines = [f"{name:<18} {values[name]:<22.6g} {unit:<4} raw {raw[name]:<12.6g} {notes[name]}"
             for name, unit in END_TO_END.items()]
    failed = len(result["failures"])
    lines.append(f"{'ops_failed_frac':<18} {failed / result['attempted']:<22.6g} "
                 f"{'':<4} {failed} failed / {result['attempted']} attempted")
    lines.append(f"host speed factor {factor:.4f} from {len(result['calibration_s'])} kernel "
                 f"samples; reference {calib.REFERENCE_S} s")
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}, lines


def per_layer(result: dict) -> tuple[dict, list[str]]:
    trace = result["trace"]
    factor = calib.speed_factor(result["calibration_s"])
    ops = trace["ops"]
    values = {}
    for name, (kind, key, unit) in PER_LAYER.items():
        if kind == "calls":
            value = trace["calls"].get(key, 0) / ops
        elif kind == "ratio":
            value = trace["calls"].get(key, 0) / trace["timepoints"] if trace["timepoints"] else 0.0
        elif kind == "self":
            value = trace["self_s"].get(key, 0.0) / ops * factor
        elif kind == "layer_self":
            value = trace["layer_self_s"][key] / ops * factor
        elif kind == "entries":
            value = trace["entries"][key] / ops
        elif kind == "timepoints":
            value = trace["timepoints"] / ops
        else:
            value = statistics.median(trace["traced_op_s"]) / statistics.median(result["op_s"]) - 1.0
        values[name] = {"value": value, "unit": unit}
    lines = []
    for name, (kind, key, unit) in PER_LAYER.items():
        mark = "  ABSENT" if key in trace["absent"] else ""
        lines.append(f"{name:<34} {values[name]['value']:<14.6g} {unit}{mark}")
    lines.append(f"traced ops {ops}; solver.timepoints total {trace['timepoints']}; "
                 f"absent bindings: {', '.join(trace['absent']) or 'none'}")
    return values, lines


def main() -> int:
    parser = argparse.ArgumentParser(description="ccsim benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "ccsim" / "__init__.py").is_file():
        print(f"error: no ccsim sources under {SRC}; run from a ccsim checkout",
              file=sys.stderr)
        return 2

    workdir = HERE / "out" / f"{args.workload}-s{args.seed}"
    ops = generate(args.workload, args.seed, workdir)
    ops_path = workdir / "ops.json"
    ops_path.write_text(json.dumps(ops))
    result = run_worker(ops_path, args.seconds, bool(args.trace))

    env = dict(_environment(args.seed), numpy=result["numpy"], workload=args.workload,
               trace=args.trace, seconds=args.seconds)
    print("env " + json.dumps(env))
    if args.trace:
        metrics, lines = per_layer(result)
    else:
        metrics, lines = end_to_end(result)
    print("\n".join(lines))
    for failure in result["failures"][:5]:
        print(f"FAILED {failure}", file=sys.stderr)
    failed = len(result["failures"])
    print(json.dumps({"correct": failed == 0, "attempted": result["attempted"],
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    started = time.perf_counter()
    status = main()
    print(f"wall {time.perf_counter() - started:.1f} s", file=sys.stderr)
    sys.exit(status)
