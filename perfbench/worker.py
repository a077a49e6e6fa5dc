"""One workload in a fresh process: a closed loop with a single client.

Each op is an in-process ``ccsim.cli.main(argv)`` call with stdout captured;
its output is checked against the oracle outside the timed region. Prints one
JSON object with the raw samples; ``run.py`` turns them into metrics.

    python3 perfbench/worker.py OPS_JSON --seconds S [--trace]

The loop makes whole passes over the inputs and checks the clock after each
pass, so ``--seconds 0`` runs exactly one pass. Untraced, it also times
SETUP_RUNS pairs of fresh ``import ccsim`` and ``import numpy`` probes spread
through the loop. Traced, it writes ``spans.csv`` next to OPS_JSON.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import subprocess
import sys
import time
import traceback
import tracemalloc
from pathlib import Path

import numpy

import calib
import oracle

CALIBRATE_EVERY_S = 0.1
SETUP_RUNS = 15
IMPORT_PROBE = ("import time; start = time.perf_counter(); import {0}; "
                "print(time.perf_counter() - start, {0}.__file__)")


def _invoke(main, argv: list[str]) -> tuple[float, int | None, str, str]:
    """Run one op; returns (seconds, exit status, stdout, error text)."""
    out = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            status = main(argv)
    except Exception:  # the loop must go on and count the op as failed
        return time.perf_counter() - start, None, out.getvalue(), traceback.format_exc()
    return time.perf_counter() - start, status, out.getvalue(), ""


def _failure(op: dict, status, text: str, error: str) -> str | None:
    if error:
        return f"{op['argv']}: exception\n{error}"
    if status != 0:
        return f"{op['argv']}: exit status {status}"
    problems = oracle.check(text, op["expect"])
    return f"{op['argv']}: {'; '.join(problems[:3])}" if problems else None


def probe_import(module: str) -> tuple[float, str]:
    """Seconds a fresh interpreter takes to import `module`, and the file it
    imported. The interpreter gets this process's environment, so it reads
    the same private bytecode cache that this process's imports wrote."""
    probe = subprocess.run([sys.executable, "-c", IMPORT_PROBE.format(module)],
                           capture_output=True, text=True, timeout=60, check=True)
    seconds, path = probe.stdout.split(maxsplit=1)
    return float(seconds), path.strip()


def probe_pair() -> tuple[float, float, str]:
    """(ccsim import s, numpy import s, ccsim file), from two fresh interpreters
    in a row: numpy's import is the host-speed reference for ccsim's."""
    ccsim_s, path = probe_import("ccsim")
    return ccsim_s, probe_import("numpy")[0], path


def allocation_peak(main, argv: list[str]) -> int:
    """Peak bytes that one op holds at once, as tracemalloc counts them:
    Python objects and numpy arrays allocated during the op. Tracing slows
    the op several times and takes memory of its own, so this runs after the
    timed loop and after the worker's peak RSS is read."""
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            main(argv)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def clipped_residuals(ccsim, ops: list[dict]) -> list[str]:
    """KCL/branch residual of every clipped input at every timepoint, <= 1e-9.

    Runs the solver, so it is checked once per input outside the timed loop.
    """
    problems = []
    for op in ops:
        if not op["expect"].get("clipped"):
            continue
        path = op["argv"][1]
        doc = ccsim.parse_netlist(Path(path).read_text())
        circuit = ccsim.validate(doc)
        waveform = ccsim.transient(circuit, *doc.tran().args)
        worst = max(
            float(abs(ccsim.residual(circuit, float(t), waveform.solution_at(j).vector)).max())
            for j, t in enumerate(waveform.times)
        )
        if not worst <= 1e-9:
            problems.append(f"{path}: residual {worst:.3e} above 1e-9")
    return problems


def run(ops: list[dict], seconds: float, trace: bool) -> tuple[dict, object]:
    import ccsim
    from ccsim import cli

    failures = clipped_residuals(ccsim, ops)
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
    # Warm-up on the largest input: lazy imports and first-call set-up are
    # paid before timing.
    _invoke(cli.main, ops[0]["argv"])

    samples = {"untraced": [], "traced": []}
    points = []
    calibration = [calib.sample()]
    imports = []
    probe_every = seconds / SETUP_RUNS
    attempted = 0
    index = 0
    start = last_calibration = next_probe = time.perf_counter()
    deadline = start + seconds
    # Whole passes over the inputs, so every run times each input equally often
    # and the medians do not depend on where the clock ran out.
    while True:
        for op in ops:
            # A traced run times each op twice, traced and untraced, swapping
            # which goes first on every op and every pass, so both sides see
            # the same inputs and the same host speed.
            first_traced = (index + index // len(ops)) % 2
            modes = (False,) if tracer is None else ((True, False) if first_traced else (False, True))
            for traced in modes:
                if traced:
                    tracer.op_id = index
                    tracer.install()
                try:
                    seconds_taken, status, text, error = _invoke(cli.main, op["argv"])
                finally:
                    if traced:
                        tracer.uninstall()
                attempted += 1
                samples["traced" if traced else "untraced"].append(seconds_taken)
                if not traced:
                    points.append(op["points"])
                problem = _failure(op, status, text, error)
                if problem:
                    failures.append(problem)
            index += 1
            now = time.perf_counter()
            if now - last_calibration >= CALIBRATE_EVERY_S:
                calibration.append(calib.sample())
                last_calibration = time.perf_counter()
            if tracer is None and now >= next_probe and len(imports) < SETUP_RUNS:
                # Import probes are spread through the loop, so they sample the
                # host over the same period as the ops; the clock stops while
                # they run.
                imports.append(probe_pair())
                next_probe += probe_every
                deadline += time.perf_counter() - now
        if time.perf_counter() >= deadline:
            break
    while tracer is None and len(imports) < SETUP_RUNS:
        imports.append(probe_pair())
    calibration.append(calib.sample())
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    result = {
        "attempted": attempted,
        "failures": failures,
        "op_s": samples["untraced"],
        "points": points,
        "import_s": [[ccsim_s, numpy_s] for ccsim_s, numpy_s, _ in imports],
        "import_files": sorted({path for _, _, path in imports}),
        "calibration_s": calibration,
        "peak_rss_kb": peak_rss_kb,
        "ccsim_file": ccsim.__file__,
        "numpy": numpy.__version__,
    }
    if tracer is None:
        result["op_alloc_bytes"] = allocation_peak(cli.main, ops[0]["argv"])
    else:
        result["trace"] = {
            "traced_op_s": samples["traced"],
            "ops": len(samples["traced"]),
            "calls": tracer.calls,
            "self_s": tracer.self_s,
            "entries": tracer.entries,
            "layer_self_s": {layer: tracer.layer_self_s(layer) for layer in tracer.entries},
            "timepoints": tracer.timepoints,
            "absent": tracer.absent,
        }
    return result, tracer


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("ops")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    ops_path = Path(args.ops)
    result, tracer = run(json.loads(ops_path.read_text()), args.seconds, args.trace)
    if tracer is not None:
        tracer.write_spans(ops_path.with_name("spans.csv"))
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
