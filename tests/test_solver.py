"""Solver tests: LU oracle checks, Newton behavior, transient properties.

Independent oracles: numpy.linalg.solve for the LU path, series/parallel
ladder reduction for resistive networks, superposition and scaling identities
for linear circuits.
"""

import tracemalloc

import numpy as np
import pytest

from ccsim import solver
from ccsim.devices import CLAMP_BAND, CLAMP_RSAT
from ccsim.errors import NoConvergenceError, SingularMatrixError
from ccsim.netlist import parse_netlist, validate
from ccsim.solver import (
    _Assembly,
    lu_solve,
    residual,
    solve,
    source_value,
    transient,
)

# ── helpers ─────────────────────────────────────────────────────────


def _circuit(text: str):
    return validate(parse_netlist(text + "\n.end"))


def _parallel(a: float, b: float) -> float:
    return a * b / (a + b)


def _ladder_oracle(vin, series, shunts):
    """Node voltages of a series/shunt resistor ladder by impedance
    reduction from the far end; independent of the MNA path."""
    n = len(series)
    z = [0.0] * n
    z[-1] = shunts[-1]
    for i in range(n - 2, -1, -1):
        z[i] = _parallel(shunts[i], series[i + 1] + z[i + 1])
    voltages = []
    v = vin
    for i in range(n):
        v = v * z[i] / (series[i] + z[i])
        voltages.append(v)
    return voltages


LEVEL2_AMP = """
V1 in 0 DC 0.05
X1 in x out CCCII+ RX=0 LEVEL=2
R1 x 0 1k
R2 out 0 100k
"""

# two clamped conveyors in a negative-feedback loop through RF: the clamp
# ports are coupled both ways, so no single sweep of port roots solves them
FEEDBACK_PAIR = """
V1 in 0 SIN(0 1 1k)
R0 in y1 1k
X1 y1 x1 out1 CCCII+ RX=0 LEVEL=2
R1 x1 0 1k
R2 out1 0 100k
X2 out1 x2 out2 CCCII- RX=100 LEVEL=2
R3 x2 0 1k
R4 out2 0 50k
RF out2 y1 100k
"""


# ── LU decomposition ────────────────────────────────────────────────


def test_lu_identity():
    sol = lu_solve(np.eye(2), np.array([1.0, 2.0]))
    assert np.array_equal(sol, [1.0, 2.0])


def test_lu_matches_numpy_on_random_systems():
    rng = np.random.default_rng(42)
    for _ in range(50):
        n = int(rng.integers(1, 13))
        a = rng.standard_normal((n, n)) + n * np.eye(n)
        b = rng.standard_normal(n)
        x = lu_solve(a, b)
        expected = np.linalg.solve(a, b)
        assert np.abs(x - expected).max() <= 1e-9 * max(1.0, np.abs(expected).max())
        # residual contract
        assert np.abs(a @ x - b).max() <= 1e-9 * max(1.0, np.abs(b).max())


def test_lu_detects_floating_network():
    g = 1e-3
    a = np.array([[g, -g], [-g, g]])
    with pytest.raises(SingularMatrixError):
        lu_solve(a, np.zeros(2))


def test_lu_detects_near_singular_matrix():
    # LAPACK factors this without a zero pivot; the condition check refuses it
    a = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-15]])
    with pytest.raises(SingularMatrixError, match=r"condition number 3\.603e\+15 too large"):
        lu_solve(a, np.ones(2))


def test_lu_refusal_after_equilibration_names_the_scaled_condition():
    # raw 1-norm condition number 2.0e26; equilibration brings it down to
    # 5.665e14, still past 1/PIVOT_RTOL, and the message gives that number
    a = np.array([[1e-6, 1e-6], [1e6, 1e6 * (1 + 1e-14)]])
    with pytest.raises(SingularMatrixError, match=r"condition number 5\.665e\+14 too large"):
        lu_solve(a, np.ones(2))


def test_lu_leaves_inputs_unchanged_and_matches_inverse_product():
    rng = np.random.default_rng(7)
    cases = [_Assembly(_circuit(LEVEL2_AMP)).a_static]  # mixed units, a strided view
    for _ in range(30):
        n = int(rng.integers(1, 40))
        cases.append(rng.standard_normal((n, n)) + n * np.eye(n))
    for a in cases:
        n = len(a)
        for b in (rng.standard_normal(n), rng.standard_normal((n, int(rng.integers(1, 5))))):
            a_before, b_before = a.copy(), b.copy()
            x = lu_solve(a, b)
            assert np.array_equal(a, a_before) and np.array_equal(b, b_before)
            assert np.array_equal(x, np.linalg.inv(a) @ b)


def _peak_bytes(fn, *args) -> int:
    """tracemalloc's peak over one call: the arrays it holds at once."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_lu_holds_one_inverse():
    # A^-1 is the only n x n array lu_solve allocates: |A^-1| is taken in place
    n = 300
    rng = np.random.default_rng(5)
    a, b = rng.standard_normal((n, n)) + n * np.eye(n), rng.standard_normal(n)
    assert _peak_bytes(lu_solve, a, b) <= 1.5 * 8 * n * n


def test_high_impedance_amplifier_is_accepted():
    # raw 1-norm condition number 1.0e13: siemens node rows next to the
    # 1 MOhm R_X of the conveyor's branch row; after row/column scaling the
    # system is well conditioned, and the gain is R2/(R1 + R_X)
    ckt = _circuit(
        "VIN in 0 SIN(0 50m 1k)\n"
        "X1 in x out CCCII+ RX=1meg\n"
        "R1 x 0 100k\n"
        "R2 out 0 10meg"
    )
    w = transient(ckt, 20e-6, 5e-3)
    assert np.abs(w.voltage("out") - w.voltage("in") * 10e6 / 1.1e6).max() <= 1e-12


def test_lu_rejects_nonfinite():
    with pytest.raises(ValueError):
        lu_solve(np.array([[np.nan]]), np.ones(1))


# ── assembly ────────────────────────────────────────────────────────


def test_assemble_dimensions():
    assert _Assembly(_circuit("V1 1 0 DC 1\nR1 1 0 1k")).a_static.shape == (2, 2)
    amp = _circuit(
        "V1 in 0 DC 1\nX1 in x out CCCII+ RX=0\nR1 x 0 1k\nR2 out 0 100k"
    )
    assert _Assembly(amp).a_static.shape == (5, 5)


def test_inactive_clamp_assembles_like_level_one():
    # the clamp is no stamp: it enters only through the port equations
    s1 = _Assembly(_circuit(LEVEL2_AMP.replace("LEVEL=2", "LEVEL=1")))
    s2 = _Assembly(_circuit(LEVEL2_AMP))
    assert np.array_equal(s1.a_static, s2.a_static)
    assert np.array_equal(s1.rhs_static, s2.rhs_static)


# ── operating point ────────────────────────────────────────────────


def test_voltage_divider_midpoint():
    w = solve(_circuit("V1 1 0 DC 1\nR1 1 2 1k\nR2 2 0 1k"), [0.0])
    assert w.voltage("2")[0] == pytest.approx(0.5, abs=1e-12)


def test_ladder_network_against_reduction_oracle():
    series = [220.0, 4.7e3, 910.0, 12e3]
    shunts = [1.5e3, 680.0, 3.3e3, 470.0]
    vin = 2.5
    lines = [f"V1 n0 0 DC {vin}"]
    for i, (s, p) in enumerate(zip(series, shunts)):
        lines.append(f"RS{i} n{i} n{i+1} {s}")
        lines.append(f"RP{i} n{i+1} 0 {p}")
    w = solve(_circuit("\n".join(lines)), [0.0])
    for i, expected in enumerate(_ladder_oracle(vin, series, shunts)):
        assert w.voltage(f"n{i+1}")[0] == pytest.approx(expected, rel=1e-9)


def test_linear_circuit_converges_in_one_iteration(monkeypatch):
    monkeypatch.setattr(solver, "MAX_ITER", 1)
    ckt = _circuit("V1 1 0 DC 1\nR1 1 2 1k\nR2 2 0 1k")
    w = solve(ckt, [0.0])
    assert w.voltage("2")[0] == pytest.approx(0.5, abs=1e-12)


@pytest.mark.parametrize(
    "text, expected",
    [
        ("I1 0 n1 DC 0.5n\nR1 n1 0 1meg", 0.5e-3),
        ("V1 n1 0 DC 0.5n\nR1 n1 0 1k", 0.5e-9),
    ],
)
def test_op_resolves_small_signals(text, expected):
    w = solve(_circuit(text), [0.0])
    assert w.voltage("n1")[0] == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("level", [1, 2])
def test_op_matches_transient_at_time_zero(level):
    # the source sits at 0.05 V at t = 0, which clips the level-2 output
    ckt = _circuit(
        f"V1 in 0 SIN(50m 10m 1k)\nX1 in x out CCCII+ RX=3538 LEVEL={level}\n"
        "R1 x 0 1k\nR2 out 0 100k"
    )
    op = solve(ckt, [0.0]).states[0]
    tran = transient(ckt, 2e-5, 1e-3).states[0]
    assert np.abs(op - tran).max() <= 1e-12 * np.abs(op).max()
    assert (abs(op[ckt.dense_index("out")]) < 0.51) == (level == 2)


def test_active_clamp_needs_more_than_one_iteration(monkeypatch):
    # single clamps start at their exact root; ports coupled by feedback iterate
    ckt = _circuit(FEEDBACK_PAIR)
    with monkeypatch.context() as m, pytest.raises(NoConvergenceError) as exc:
        m.setattr(solver, "MAX_ITER", 2)
        solve(ckt, [2.5e-4])
    assert exc.value.residual > 0
    w = solve(ckt, [2.5e-4])
    assert np.abs(residual(ckt, 2.5e-4, w.states[0])).max() <= 1e-9


def test_feedback_pair_converges_in_eight_iterations(monkeypatch):
    ckt = _circuit(FEEDBACK_PAIR)
    monkeypatch.setattr(solver, "MAX_ITER", 7)
    with pytest.raises(NoConvergenceError):
        transient(ckt, 2e-5, 1e-3)
    monkeypatch.setattr(solver, "MAX_ITER", 8)
    transient(ckt, 2e-5, 1e-3)


def test_positive_feedback_latch_converges_everywhere():
    # X2 plus-type closes the loop with positive feedback. Newton's path to a
    # root here raises the full residual on some steps, so rejecting such
    # steps would stall at t = 20 us. A latch may have more than one root,
    # so only the residual is checked.
    ckt = _circuit(
        FEEDBACK_PAIR.replace("CCCII- RX=100", "CCCII+ RX=100")
        .replace("R2 out1 0 100k", "R2 out1 0 10k")
        .replace("R4 out2 0 50k", "R4 out2 0 10k")
    )
    w = transient(ckt, 2e-5, 1e-3)
    for j, t in enumerate(w.times):
        assert np.abs(residual(ckt, float(t), w.states[j])).max() <= 1e-9


def test_clamped_output_stays_near_rails():
    ckt = _circuit(LEVEL2_AMP)
    w = solve(ckt, [0.0])
    assert -0.51 <= w.voltage("out")[0] <= 0.51
    # KCL residual of the accepted solve
    assert np.abs(residual(ckt, 0.0, w.states[0])).max() <= 1e-9


def test_parallel_vsources_are_singular():
    with pytest.raises(SingularMatrixError):
        solve(_circuit("V1 1 0 DC 1\nV2 1 0 DC 2\nR1 1 0 1k"), [0.0])


def test_cccii_polarity_negates_output():
    plus = solve(
        _circuit("V1 in 0 DC 0.05\nX1 in x out CCCII+ RX=250\nR1 x 0 1k\nR2 out 0 5k"), [0.0]
    )
    minus = solve(
        _circuit("V1 in 0 DC 0.05\nX1 in x out CCCII- RX=250\nR1 x 0 1k\nR2 out 0 5k"), [0.0]
    )
    assert minus.voltage("out")[0] == pytest.approx(-plus.voltage("out")[0], rel=1e-12)
    assert minus.voltage("x")[0] == pytest.approx(plus.voltage("x")[0], rel=1e-12)


def test_conveyor_dc_solution_matches_hand_solve():
    # ideal plus-type, R1=1k, R2=100k, 0.05 V at Y: i_x = -50 uA, V_Z = 5 V
    w = solve(
        _circuit("V1 in 0 DC 0.05\nX1 in x out CCCII+ RX=0\nR1 x 0 1k\nR2 out 0 100k"), [0.0]
    )
    assert w.current("X1")[0] == pytest.approx(-50e-6, rel=1e-12)
    assert w.voltage("out")[0] == pytest.approx(5.0, rel=1e-12)
    # with intrinsic resistance: V_Z = 0.05 * 15000 / (8000 + 3538)
    w = solve(
        _circuit("V1 in 0 DC 0.05\nX1 in x out CCCII+ RX=3538\nR1 x 0 8k\nR2 out 0 15k"), [0.0]
    )
    assert w.voltage("out")[0] == pytest.approx(0.06500260010400416, rel=1e-12)


# ── transient ───────────────────────────────────────────────────────


def test_sin_source_evaluation():
    (elem,) = parse_netlist("V1 a 0 SIN(0 0.05 1k)\n.end").elements
    assert source_value(elem, 0.0) == 0.0
    assert source_value(elem, 0.25e-3) == pytest.approx(0.05, abs=1e-15)  # quarter period
    assert source_value(elem, 0.75e-3) == pytest.approx(-0.05, abs=1e-15)


def test_dc_transient_is_time_invariant():
    w = transient(_circuit("V1 1 0 DC 1\nR1 1 2 1k\nR2 2 0 1k"), 1e-4, 1e-3)
    assert len(w.times) == 11
    assert np.ptp(w.states, axis=0).max() == 0.0
    assert w.times[5] == pytest.approx(5e-4)
    assert w.voltage("2")[5] == pytest.approx(0.5, abs=1e-12)


def test_sin_transient_point_count_and_shape():
    ckt = _circuit("V1 in 0 SIN(0 50m 1k)\nR1 in out 1k\nR2 out 0 1k")
    w = transient(ckt, 20e-6, 1e-3)
    assert len(w.times) == 51
    expected = 0.05 * np.sin(2 * np.pi * 1e3 * w.times) / 2
    assert np.abs(w.voltage("out") - expected).max() <= 1e-12


def test_source_scaling_linearity():
    base = "V1 in 0 SIN(0 {a} 1k)\nI1 0 mid DC {i}\nR1 in mid 1k\nR2 mid 0 2k"
    k = 3.7
    w1 = transient(_circuit(base.format(a=0.05, i=1e-3)), 5e-5, 1e-3)
    wk = transient(_circuit(base.format(a=0.05 * k, i=1e-3 * k)), 5e-5, 1e-3)
    scale = np.abs(wk.states - k * w1.states).max()
    assert scale <= 1e-9 * np.abs(wk.states).max()


def test_superposition_of_independent_sources():
    both = _circuit("V1 1 0 DC 2\nI1 0 2 DC 1m\nR1 1 2 1k\nR2 2 0 2k")
    only_v = _circuit("V1 1 0 DC 2\nI1 0 2 DC 0\nR1 1 2 1k\nR2 2 0 2k")
    only_i = _circuit("V1 1 0 DC 0\nI1 0 2 DC 1m\nR1 1 2 1k\nR2 2 0 2k")
    xb = solve(both, [0.0]).states[0]
    xv = solve(only_v, [0.0]).states[0]
    xi = solve(only_i, [0.0]).states[0]
    assert np.abs(xb - (xv + xi)).max() <= 1e-9 * max(1.0, np.abs(xb).max())
    assert solve(both, [0.0]).voltage("2")[0] == pytest.approx(2.0, rel=1e-12)


@pytest.mark.parametrize("dc_at", [0, 1, 2])
def test_superposition_sums_sources_in_declaration_order(dc_at):
    # the reference sum: the static column tiled over the grid, then each
    # source's term added in declaration order
    sins = ["SIN(0.1 0.7 1k)", "SIN(-0.2 0.4 3k)"]
    values = sins[:dc_at] + ["DC 0.3"] + sins[dc_at:]
    ckt = _circuit(
        "".join(f"V{j} s{j} 0 {v}\nR{j} s{j} m {1 + j}k\n" for j, v in enumerate(values))
        + "RM m 0 2k\nI1 0 m DC 1m"
    )
    asm = _Assembly(ckt)
    drives = [row for _, row in asm.vsource_rows]
    columns = np.zeros((ckt.size, 1 + len(drives)))
    columns[:, 0] = asm.rhs_static
    columns[drives, np.arange(1, columns.shape[1])] = 1.0
    solved = lu_solve(asm.a_static, columns)
    w = transient(ckt, 2e-5, 2e-3)
    expected = np.tile(solved[:, 0], (len(w.times), 1))
    for j, (elem, _) in enumerate(asm.vsource_rows, start=1):
        expected += np.multiply.outer(source_value(elem, w.times), solved[:, j])
    assert np.array_equal(w.states, expected)


def _ladder(sections: int, conveyors: int):
    lines, prev = ["VIN in 0 SIN(0 1 1k)"], "in"
    for k in range(1, sections + 1):
        lines += [f"RS{k} {prev} n{k} 50", f"RP{k} n{k} 0 200k"]
        prev = f"n{k}"
    # gain 50 on a ~1 V input: clipped at the 0.5 V rails; each further
    # conveyor, driven by the last one's output, has gain 100
    for j in range(1, conveyors + 1):
        x, out = ("x", "out") if j == 1 else (f"x{j}", f"out{j}")
        lines += [
            f"X{j} {prev} {x} {out} CCCII+ RX=1k LEVEL=2",
            f"R{2 * j - 1} {x} 0 1k",
            f"R{2 * j} {out} 0 100k",
        ]
        prev = out
    return _circuit("\n".join(lines))


@pytest.mark.parametrize("conveyor, bound", [(False, 1.5), (True, 2.6)])
def test_transient_holds_one_state_array(conveyor, bound):
    # a linear solve holds one (T, n) state beside arrays of n or T floats;
    # test_clamp_port_correction_holds_one_state_array bounds clamped ones
    ckt = _ladder(100, conveyor)
    points = 2001
    assert _peak_bytes(transient, ckt, 1e-6, 2e-3) <= bound * 8 * points * ckt.size
    if conveyor:
        assert np.abs(transient(ckt, 1e-4, 2e-3).voltage("out")).max() > 0.45


@pytest.mark.parametrize("conveyors", [1, 2])
def test_clamp_port_correction_holds_one_state_array(conveyors):
    # x -= c(v) M^T runs over row blocks, so a clamped solve holds one (T, n)
    # state whatever the number of clamped ports
    ckt = _ladder(100, conveyors)
    points = 2001
    assert _peak_bytes(transient, ckt, 1e-6, 2e-3) <= 1.6 * 8 * points * ckt.size
    last = "out" if conveyors == 1 else f"out{conveyors}"
    assert np.abs(transient(ckt, 1e-4, 2e-3).voltage(last)).max() > 0.45


def _power_balance_gap(ckt, w) -> float:
    """Relative mismatch between delivered and dissipated power."""
    dissipated = np.zeros_like(w.times)
    delivered = w.total_source_power().copy()
    for elem in ckt.elements:
        if elem.kind == "resistor":
            v = w.voltage(elem.nodes[0]) - w.voltage(elem.nodes[1])
            dissipated += v * v / elem.params["value"]
        elif elem.kind == "cccii":
            vx = w.voltage(elem.nodes[1])
            vz = w.voltage(elem.nodes[2]) if elem.nodes[2] not in ckt.floating_nodes else 0.0
            ix = w.current(elem.name)
            delivered += -(vx * ix + vz * elem.params["polarity"] * ix)
    scale = max(np.abs(dissipated).max(), 1e-30)
    return float(np.abs(delivered - dissipated).max() / scale)


def test_power_balance_resistive():
    ckt = _circuit("V1 in 0 SIN(0 1 1k)\nR1 in mid 1k\nR2 mid 0 2k\nR3 mid 0 3k")
    w = transient(ckt, 5e-5, 2e-3)
    assert _power_balance_gap(ckt, w) <= 1e-6


def test_power_balance_with_conveyor():
    ckt = _circuit(
        "V1 in 0 SIN(0 50m 1k)\nX1 in x out CCCII+ RX=500\nR1 x 0 1k\nR2 out 0 10k"
    )
    w = transient(ckt, 5e-5, 2e-3)
    assert _power_balance_gap(ckt, w) <= 1e-6


def test_transient_kcl_residual_bound():
    for text in (
        "V1 in 0 SIN(0 50m 1k)\nX1 in x out CCCII+ RX=100\nR1 x 0 1k\nR2 out 0 10k",
        "V1 in 0 SIN(0 50m 1k)\nX1 in x out CCCII+ RX=3538 LEVEL=2\nR1 x 0 1k\nR2 out 0 100k",
    ):
        ckt = _circuit(text)
        w = transient(ckt, 5e-5, 1e-3)
        for j, t in enumerate(w.times):
            x = w.states[j]
            assert np.abs(residual(ckt, float(t), x)).max() <= 1e-9


def test_transient_matches_pointwise_op():
    # every timepoint of one batched transient equals a one-point solve
    ckt = _circuit(
        "V1 in 0 SIN(0 50m 1k)\nX1 in x out CCCII+ RX=3538 LEVEL=2\nR1 x 0 1k\nR2 out 0 100k"
    )
    w = transient(ckt, 2e-5, 2e-3)
    assert np.abs(w.voltage("out")).max() > 0.49  # clipping
    for j, t in enumerate(w.times):
        batched = w.states[j]
        pointwise = solve(ckt, [t]).states[0]
        assert np.abs(batched - pointwise).max() <= 1e-9
        assert np.abs(residual(ckt, float(t), batched)).max() <= 1e-9


def test_two_clipping_conveyors_converge_everywhere():
    # k = 2 coupled clamp ports: X1's clipped output drives X2's Y input
    ckt = _circuit(
        "V1 in 0 SIN(0 50m 1k)\n"
        "X1 in x1 out1 CCCII+ RX=0 LEVEL=2\nR1 x1 0 1k\nR2 out1 0 100k\n"
        "X2 out1 x2 out2 CCCII- RX=100 LEVEL=2\nR3 x2 0 1k\nR4 out2 0 50k"
    )
    w = transient(ckt, 2e-5, 2e-3)
    for node in ("out1", "out2"):
        assert 0.49 < np.abs(w.voltage(node)).max() <= 0.51
    for j, t in enumerate(w.times):
        x = w.states[j]
        assert np.abs(residual(ckt, float(t), x)).max() <= 1e-9


def _random_stage(rng, name, y, x, z):
    """Netlist lines of one random level-2 conveyor stage, its gain (Z over
    Y), the Z node's driving-point resistance R2 and the distance from 0 V
    to the nearer rail."""
    r1, r2 = float(10 ** rng.uniform(2.0, 4.5)), float(10 ** rng.uniform(2.5, 5.5))
    if rng.random() < 0.5:
        rx = float(rng.uniform(0.0, 5e3))
        bias = f"RX={rx!r}"
    else:
        ib, beta = float(10 ** rng.uniform(-6.0, -3.0)), float(10 ** rng.uniform(-4.0, -2.0))
        rx = 1.0 / np.sqrt(8.0 * beta * ib)
        bias = f"IB={ib!r} BETA={beta!r}"
    sign = rng.choice([1, -1])
    # rails from 30 mV (narrow, bands of 10 mV on each side) to 3 V apart
    vdd, vss = 10 ** rng.uniform(np.log10(0.015), np.log10(1.5), size=2)
    vdd, vss = float(vdd), -float(vss)
    lines = [
        f"{name} {y} {x} {z} CCCII{'+' if sign > 0 else '-'} {bias} LEVEL=2 "
        f"VDD={vdd!r} VSS={vss!r}",
        f"R1{name} {x} 0 {r1!r}",
        f"R2{name} {z} 0 {r2!r}",
    ]
    return lines, sign * r2 / (r1 + rx), r2, min(vdd, -vss)


def _random_drive(rng, r2, rail):
    """Peak linear Z voltage inside the dead zone, in the clamp band, or on
    the saturated ramp beyond it (in the port equation, the band ends
    R2 * CLAMP_BAND / (2 * CLAMP_RSAT) past the rail)."""
    band_end = rail + r2 / CLAMP_RSAT * CLAMP_BAND / 2.0
    regime = rng.integers(3)
    if regime == 0:
        return rng.uniform(0.2, 0.95) * (rail - CLAMP_BAND)
    if regime == 1:
        return rng.uniform(rail - CLAMP_BAND, band_end)
    return band_end * rng.uniform(1.5, 20.0)


def test_random_clamped_amplifiers_need_no_newton_step(monkeypatch):
    # single conveyors and two-stage cascades in declaration order start at
    # their exact port roots, so one allowed Newton iteration is never used
    monkeypatch.setattr(solver, "MAX_ITER", 1)
    rng = np.random.default_rng(2024)
    for case in range(40):
        lines, gain, r2, rail = _random_stage(rng, "X1", "in", "x1", "out1")
        peak = _random_drive(rng, r2, rail)
        if case % 2:
            second, gain2, r2b, rail2 = _random_stage(rng, "X2", "out1", "x2", "out2")
            lines += second
            peak = min(peak, _random_drive(rng, r2b, rail2) / abs(gain2))
        amplitude = float(peak / abs(gain))
        ckt = _circuit(f"V1 in 0 SIN(0 {amplitude!r} 1k)\n" + "\n".join(lines))
        w = transient(ckt, 2e-5, 1e-3)
        for j, t in enumerate(w.times):
            x = w.states[j]
            assert np.abs(residual(ckt, float(t), x)).max() <= 1e-9


def test_transient_failure_reports_timepoint(monkeypatch):
    ckt = _circuit(FEEDBACK_PAIR)
    monkeypatch.setattr(solver, "MAX_ITER", 2)
    with pytest.raises(NoConvergenceError) as exc:
        transient(ckt, 2e-5, 1e-3)
    first_failing = None
    for t in np.arange(51) * 2e-5:
        try:
            solve(ckt, [t])
        except NoConvergenceError as pointwise:
            first_failing = pointwise
            break
    assert exc.value.time == first_failing.time
    assert exc.value.residual == first_failing.residual


def test_transient_rejects_bad_grid():
    ckt = _circuit("V1 1 0 DC 1\nR1 1 0 1k")
    with pytest.raises(ValueError):
        transient(ckt, 0.0, 1e-3)
    with pytest.raises(ValueError):  # 1e15 points: refused before allocating
        transient(ckt, 1e-15, 1.0)
