"""Seeded inputs for the benchmark workloads.

Each workload writes its netlist files into a directory and returns one op
per input: the argv handed to ``ccsim.cli.main``, the expectation the oracle
checks the output against, and the number of operating points the output
needs (a `.tran` point or an `.op` counts as one).

Properties that set an op's cost (ladder sizes, clipping depth, the share of
clipped inputs) are fixed strata; the seed draws everything else (element
values, conveyor polarity and R_X form, the order of the experiments). So two
seeds give different inputs of the same expected cost, and a run's medians
do not move with the seed. Every workload lists its largest input first: the
worker warms up on it and measures ``op_alloc_mb`` on it. Ladder inputs run in
a fixed order: the order sets the heap's high-water mark, and a seeded order
moved the ``ladder`` op's peak resident memory by up to 20 % between seeds.
"""

from __future__ import annotations

import math
import random
from pathlib import Path

from oracle import EXPERIMENT_POINTS, ladder_transfer, time_grid

TRAN = (20e-6, 5e-3)  # the paper's grid: 251 points over five 1 kHz periods
# Newton at ladder size costs ~2 ms a point; 101 points keep ~40 ops in a run.
CLAMPED_TRAN = (50e-6, 5e-3)
FREQS = (500.0, 1e3, 2e3)
LADDER_SIZES = tuple(range(250, 149, -5))
# (sections, clipped). Clipped points take about twice the Newton steps of
# linear ones, so the five inputs rank c60 > c50 > c40 > l55 > l45 and the
# median op, over whole passes, is always the smallest clipped ladder.
CLAMPED_INPUTS = ((60, True), (50, True), (40, True), (55, False), (45, False))
# Newton steps per point depend on how far the input moves between points.
CLAMPED_FREQ = 1e3
CLIPPED_PEAK = 1.2  # V at the unclamped Z node: past both +/-0.5 V rails
LINEAR_PEAK = 0.3  # V: inside the rails minus the clamp's smoothing band


def _num(x: float) -> str:
    return repr(float(x))


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _clamped_conveyor(rng: random.Random) -> tuple[str, float]:
    """Level-2 conveyor parameter text and its R_X, explicit or from bias."""
    if rng.random() < 0.5:
        ib, beta = _log_uniform(rng, 20e-6, 500e-6), _log_uniform(rng, 50e-6, 1e-3)
        rx = 1.0 / math.sqrt(8.0 * beta * ib)
        text = f"IB={_num(ib)} BETA={_num(beta)}"
    else:
        rx = _log_uniform(rng, 200.0, 5e3)
        text = f"RX={_num(rx)}"
    return f"{text} LEVEL=2", rx


def _ladder_lines(rng: random.Random, sections: int) -> tuple[list[str], list[float], list[float]]:
    rs = [rng.uniform(20.0, 80.0) for _ in range(sections)]
    rp = [rng.uniform(100e3, 400e3) for _ in range(sections)]
    lines, prev = [], "in"
    for k in range(sections):
        lines.append(f"RS{k + 1} {prev} n{k + 1} {_num(rs[k])}")
        lines.append(f"RP{k + 1} n{k + 1} 0 {_num(rp[k])}")
        prev = f"n{k + 1}"
    return lines, rs, rp


def _write(directory: Path, name: str, lines: list[str]) -> str:
    path = directory / name
    path.write_text("\n".join(lines) + "\n.end\n")
    return str(path)


def reproduction(rng: random.Random, directory: Path) -> list[dict]:
    # `experiment all` needs the most points, so it goes first.
    names = [name for name in EXPERIMENT_POINTS if name != "all"]
    rng.shuffle(names)
    return [{"argv": ["experiment", name],
             "expect": {"kind": "experiment", "experiment": name},
             "points": EXPERIMENT_POINTS[name]} for name in ["all", *names]]


def ladder(rng: random.Random, directory: Path) -> list[dict]:
    ops = []
    for sections in LADDER_SIZES:
        title = f"ladder{sections}"
        lines, rs, rp = _ladder_lines(rng, sections)
        source = (rng.uniform(0.1, 1.0), rng.uniform(10e-3, 100e-3), rng.choice(FREQS))
        path = _write(directory, f"{title}.cir", [
            f"* {title}",
            f"VIN in 0 SIN({_num(source[0])} {_num(source[1])} {_num(source[2])})",
            *lines,
            ".op",
            f".tran {_num(TRAN[0])} {_num(TRAN[1])}",
            f".measure gain(in,n{sections})",
            ".measure power",
        ])
        ops.append({
            "argv": ["run", path],
            "expect": {"kind": "ladder", "title": title, "rs": rs, "rp": rp, "source": source,
                       "tran": TRAN, "nodes": ["in"] + [f"n{k + 1}" for k in range(sections)]},
            "points": 1 + len(time_grid(*TRAN)),
        })
    return ops


def ladder_clamped(rng: random.Random, directory: Path) -> list[dict]:
    ops = []
    for sections, clipped in CLAMPED_INPUTS:
        title = f"clamped{sections}{'c' if clipped else 'l'}"
        lines, rs, rp = _ladder_lines(rng, sections)
        conveyor, rx = _clamped_conveyor(rng)
        polarity = rng.choice("+-")
        r1, r2 = _log_uniform(rng, 1e3, 10e3), _log_uniform(rng, 10e3, 100e3)
        transfer = ladder_transfer(rs, rp)[0][-1] * r2 / (r1 + rx)
        peak = CLIPPED_PEAK if clipped else LINEAR_PEAK
        source = (0.0, peak / transfer, CLAMPED_FREQ)
        path = _write(directory, f"{title}.cir", [
            f"* {title}",
            f"VIN in 0 SIN({_num(source[0])} {_num(source[1])} {_num(source[2])})",
            *lines,
            f"X1 n{sections} x out CCCII{polarity} {conveyor}",
            f"R1 x 0 {_num(r1)}",
            f"R2 out 0 {_num(r2)}",
            f".tran {_num(CLAMPED_TRAN[0])} {_num(CLAMPED_TRAN[1])}",
            ".measure vpp(out)",
            ".measure gain(in,out)",
        ])
        ops.append({
            "argv": ["run", path],
            "expect": {"kind": "ladder_clamped", "title": title, "rs": rs, "rp": rp,
                       "params": {"r1": r1, "r2": r2, "rx": rx}, "source": source,
                       "tran": CLAMPED_TRAN, "clipped": clipped},
            "points": len(time_grid(*CLAMPED_TRAN)),
        })
    return ops


WORKLOADS = {
    "reproduction": reproduction,
    "ladder": ladder,
    "ladder_clamped": ladder_clamped,
}


def generate(workload: str, seed: int, directory: Path) -> list[dict]:
    """Write the workload's netlists into ``directory``; return its ops."""
    directory.mkdir(parents=True, exist_ok=True)
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"), directory)
