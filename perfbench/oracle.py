"""Solver-free expected outputs for the benchmark's ops.

Everything here is plain Python arithmetic: the conveyor gain law, the
backward recurrence of an unloaded resistive ladder, the sampled input
sinusoid over the measurement window, the rail bound of the level-2 clamp,
and the reproduction table recorded from the seed implementation. Nothing imports
ccsim, so a solver defect cannot hide in its own oracle.
"""

from __future__ import annotations

import csv
import io
import math

# Level-2 clamp geometry and default rails, as documented in the device model.
CLAMP_BAND = 10e-3
CLAMP_RSAT = 1.0
VDD, VSS = 0.5, -0.5

REL_TOL = 1e-7
ABS_TOL = 1e-12

# `ccsim experiment all` rows recorded from the seed implementation:
# (name, metric) -> (result, unit). fig6/fig7/fig8 vpp_out are the paper's
# reproduced levels 0.981, 0.901 and 0.1297 Vpp.
REPRODUCTION = {
    ("fig6_ideal", "r1"): (1000.0, "ohm"),
    ("fig6_ideal", "r2"): (100000.0, "ohm"),
    ("fig6_ideal", "level"): (1, ""),
    ("fig6_ideal", "vpp_out"): (9.980267284282718, "V"),
    ("fig6_ideal", "vpp_predicted"): (10.0, "V"),
    ("fig6", "r1"): (1000.0, "ohm"),
    ("fig6", "r2"): (100000.0, "ohm"),
    ("fig6", "level"): (2, ""),
    ("fig6", "vpp_out"): (0.9806980956519968, "V"),
    ("fig6", "vpp_predicted"): (1.0, "V"),
    ("fig6", "vpp_reference"): (1.0, "V"),
    ("fig6", "deviation"): (-0.019301904348003163, ""),
    ("fig7_ideal", "r1"): (2000.0, "ohm"),
    ("fig7_ideal", "r2"): (50000.0, "ohm"),
    ("fig7_ideal", "level"): (1, ""),
    ("fig7_ideal", "vpp_out"): (2.4950668210706795, "V"),
    ("fig7_ideal", "vpp_predicted"): (2.5, "V"),
    ("fig7", "r1"): (2000.0, "ohm"),
    ("fig7", "r2"): (50000.0, "ohm"),
    ("fig7", "level"): (2, ""),
    ("fig7", "vpp_out"): (0.9009963520533009, "V"),
    ("fig7", "vpp_predicted"): (0.902777777777778, "V"),
    ("fig7", "vpp_reference"): (0.8, "V"),
    ("fig7", "deviation"): (0.12624544006662602, ""),
    ("fig8_ideal", "r1"): (8000.0, "ohm"),
    ("fig8_ideal", "r2"): (15000.0, "ohm"),
    ("fig8_ideal", "level"): (1, ""),
    ("fig8_ideal", "vpp_out"): (0.18713001158030096, "V"),
    ("fig8_ideal", "vpp_predicted"): (0.1875, "V"),
    ("fig8", "r1"): (8000.0, "ohm"),
    ("fig8", "r2"): (15000.0, "ohm"),
    ("fig8", "level"): (2, ""),
    ("fig8", "vpp_out"): (0.12974347469567532, "V"),
    ("fig8", "vpp_predicted"): (0.13, "V"),
    ("fig8", "vpp_reference"): (0.13, "V"),
    ("fig8", "deviation"): (-0.0019732715717283387, ""),
    ("table2_case1", "r1"): (10000.0, "ohm"),
    ("table2_case1", "r2"): (1000.0, "ohm"),
    ("table2_case1", "level"): (2, ""),
    ("table2_case1", "vpp_out"): (0.0073717883349815536, "V"),
    ("table2_case1", "vpp_predicted"): (0.007386363636363637, "V"),
    ("table2_case2", "r1"): (1000.0, "ohm"),
    ("table2_case2", "r2"): (100000.0, "ohm"),
    ("table2_case2", "level"): (2, ""),
    ("table2_case2", "vpp_out"): (0.9806980956519968, "V"),
    ("table2_case2", "vpp_predicted"): (1.0, "V"),
    ("table2_case3", "r1"): (5000.0, "ohm"),
    ("table2_case3", "r2"): (5000.0, "ohm"),
    ("table2_case3", "level"): (2, ""),
    ("table2_case3", "vpp_out"): (0.05844300661967358, "V"),
    ("table2_case3", "vpp_predicted"): (0.05855855855855857, "V"),
    ("ferri", "r1"): (1000.0, "ohm"),
    ("ferri", "r2"): (10000.0, "ohm"),
    ("ferri", "level"): (1, ""),
    ("ferri", "vpp_out"): (0.9980267284282718, "V"),
    ("ferri", "vpp_predicted"): (1.0, "V"),
}
REPRODUCTION_ORDER = ("fig6_ideal", "fig6", "fig7_ideal", "fig7", "fig8_ideal", "fig8",
                      "table2_case1", "table2_case2", "table2_case3", "ferri")
# Transient points each experiment's rows need (251 points per run).
RUN_POINTS = 251
EXPERIMENT_POINTS = {
    "fig6": RUN_POINTS, "fig7": RUN_POINTS, "fig8": RUN_POINTS,
    "table2": 3 * RUN_POINTS, "ferri": RUN_POINTS, "all": 10 * RUN_POINTS,
}


# ── analytic building blocks ────────────────────────────────────────


def time_grid(tstep: float, tstop: float) -> list[float]:
    """The `.tran` grid 0, tstep, ..., as the transient builds it."""
    n = int(math.floor(tstop / tstep + 1e-9))
    return [k * tstep for k in range(n + 1)]


def sine(offset: float, amplitude: float, freq: float, t: float) -> float:
    return offset + amplitude * math.sin(2.0 * math.pi * freq * t)


def window_samples(times: list[float], freq: float) -> list[float]:
    """Times inside the default measurement window: the trailing half of the
    run, shrunk to whole periods of the one sinusoidal source."""
    t1 = times[-1]
    half = (t1 - times[0]) / 2.0
    periods = math.floor(half / (1.0 / freq))
    start = t1 - periods * (1.0 / freq) if periods >= 1 else t1 - half
    tol = (times[1] - times[0]) * 1e-6
    return [t for t in times if start - tol <= t <= t1 + tol]


def ladder_transfer(rs: list[float], rp: list[float]) -> tuple[list[float], float]:
    """Backward recurrence of an unloaded series/shunt ladder.

    Section k has ``rs[k]`` from node k-1 to node k and ``rp[k]`` from node k
    to ground; node 0 is the driven input. Returns the transfer v_k/v_0 for
    k = 0..N and the input resistance v_0/i_0.
    """
    v, i = 1.0, 1.0 / rp[-1]
    volts = [v]
    for k in range(len(rs) - 1, -1, -1):
        v += rs[k] * i
        volts.append(v)
        if k > 0:
            i += v / rp[k - 1]
    volts.reverse()
    return [x / volts[0] for x in volts], volts[0] / i


def clamp_rail_bounds(drive_peak: float, r2: float) -> tuple[float, float]:
    """Range a clipped output's peak-to-peak level must fall in.

    With the unclamped Z voltage swinging past both rails, each extreme sits
    within the smoothing band below a rail and at most the drive current
    times the saturated clamp resistance beyond it.
    """
    span = VDD - VSS
    return span - 2.0 * CLAMP_BAND, span + 2.0 * (drive_peak / r2) * CLAMP_RSAT


# ── comparison ──────────────────────────────────────────────────────


def close(actual: float, expected: float) -> bool:
    return abs(actual - expected) <= REL_TOL * abs(expected) + ABS_TOL


def parse_rows(text: str) -> list[tuple[str, ...]]:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or tuple(rows[0]) != ("name", "param", "value", "metric", "result", "unit"):
        raise ValueError("output lacks the CSV header")
    return [tuple(r) for r in rows[1:]]


def _expect_rows(rows, expected: list[tuple[str, str, float, str]]) -> list[str]:
    """Compare (name, metric, result, unit) rows in order."""
    if len(rows) != len(expected):
        return [f"{len(rows)} rows, expected {len(expected)}"]
    problems = []
    for row, (name, metric, value, unit) in zip(rows, expected):
        if (row[0], row[3], row[5]) != (name, metric, unit):
            problems.append(f"row {row} is not {name} {metric} [{unit}]")
        elif not close(float(row[4]), value):
            problems.append(f"{name} {metric} = {row[4]}, expected {value!r}")
    return problems


def check_experiment(text: str, expect: dict) -> list[str]:
    which = expect["experiment"]
    if which == "all":
        names = REPRODUCTION_ORDER
    elif which == "table2":
        names = tuple(n for n in REPRODUCTION_ORDER if n.startswith("table2_"))
    else:
        names = (which,)
    expected = [(name, metric, value, unit)
                for name in names
                for (n, metric), (value, unit) in REPRODUCTION.items() if n == name]
    return _expect_rows(parse_rows(text), expected)


def _vpp(values: list[float]) -> float:
    return max(values) - min(values)


def check_ladder(text: str, expect: dict) -> list[str]:
    """`.op` node voltages and source current, then gain and source power."""
    rows = parse_rows(text)
    src, title = expect["source"], expect["title"]
    transfer, r_in = ladder_transfer(expect["rs"], expect["rp"])
    nodes = expect["nodes"]
    v0 = sine(*src, 0.0)
    expected = [(title, f"v({node})", v0 * h, "V") for node, h in zip(nodes, transfer)]
    expected.append((title, "i(VIN)", -v0 / r_in, "A"))
    window = window_samples(time_grid(*expect["tran"]), src[2])
    power = [sine(*src, t) ** 2 / r_in for t in window]
    expected += [
        (title, f"gain(in,{nodes[-1]})", transfer[-1], ""),
        (title, "power_avg", (sum(power) - 0.5 * (power[0] + power[-1])) / (len(power) - 1), "W"),
        (title, "power_peak", max(power), "W"),
    ]
    return _expect_rows(rows, expected)


def check_ladder_clamped(text: str, expect: dict) -> list[str]:
    """Unclipped: ladder transfer times the gain law. Clipped: the rail bound."""
    rows = parse_rows(text)
    src, title = expect["source"], expect["title"]
    transfer, _ = ladder_transfer(expect["rs"], expect["rp"])
    p = expect["params"]
    gain = transfer[-1] * p["r2"] / (p["r1"] + p["rx"])
    window = window_samples(time_grid(*expect["tran"]), src[2])
    vin = _vpp([sine(*src, t) for t in window])
    if not expect["clipped"]:
        return _expect_rows(rows, [(title, "vpp(out)", gain * vin, "V"),
                                   (title, "gain(in,out)", gain, "")])
    if len(rows) != 2 or [r[3] for r in rows] != ["vpp(out)", "gain(in,out)"]:
        return [f"unexpected rows {rows}"]
    vout = float(rows[0][4])
    low, high = clamp_rail_bounds(gain * src[1], p["r2"])
    problems = []
    if not low <= vout <= high:
        problems.append(f"clipped vpp(out) {vout!r} outside the rail bound [{low}, {high}]")
    if not close(float(rows[1][4]), vout / vin):
        problems.append(f"gain {rows[1][4]} is not vpp(out)/vpp(in) = {vout / vin!r}")
    return problems


CHECKS = {
    "experiment": check_experiment,
    "ladder": check_ladder,
    "ladder_clamped": check_ladder_clamped,
}


def check(text: str, expect: dict) -> list[str]:
    """Mismatches between one op's CSV output and its expectation."""
    try:
        return CHECKS[expect["kind"]](text, expect)
    except (ValueError, IndexError, KeyError) as exc:
        return [f"unreadable output: {exc!r}"]
