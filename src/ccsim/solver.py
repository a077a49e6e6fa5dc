"""MNA assembly, LAPACK solve, port-reduced Newton, quasi-static transient.

Unknown ordering: node voltages in ``Circuit.node_index`` order, then one
branch current per voltage source and per conveyor X port, in declaration
order. The dialect has no energy-storage elements, so a transient run is a
set of independent operating points, one per timepoint. Every point shares
the static MNA matrix, which is factored once per circuit; the only
nonlinearity, the level-2 rail clamp, sits on the diagonal of the k
clamped Z rows, so Newton runs on those k port voltages alone, for all
timepoints at once (the port reduction of the nodal DK method: Yeh, Abel &
Smith, IEEE TASLP 2010; Holters & Zoelzer, EUSIPCO 2015). The clamp is
piecewise quadratic, so each port's own equation has a closed-form root;
Newton starts there and takes no step unless clamp ports feed back on each
other. ``.op`` is the case of one timepoint.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import devices
from .errors import (NoConvergenceError, SingularMatrixError, SolverError, UnknownNodeError,
                     ValidationError)
from .netlist import (
    KIND_CCCII,
    KIND_ISOURCE,
    KIND_RESISTOR,
    KIND_VSOURCE,
    Circuit,
    ElementDecl,
    tran_step_count,
)

PIVOT_RTOL = 1e-13  # reciprocal of the largest accepted 1-norm condition number
ABS_TOL = 1e-9  # largest clamp-current misfit (A) of a converged point
MAX_ITER = 50  # Newton steps before a point counts as unconverged
_MIX_BLOCK = 1 << 14  # floats in each temporary of the clamp-port correction


@dataclass(eq=False, frozen=True)
class Solution:
    """Solved unknowns at one timepoint, keyed by label.

    Ground is implicitly 0 V and absent from ``voltages``. ``vector`` is the
    raw unknown vector in dense order, kept for residual checks.
    """

    time: float
    voltages: dict[str, float]
    currents: dict[str, float]
    vector: np.ndarray


@dataclass(eq=False, frozen=True)
class Waveform:
    """A solved run: the circuit, its time grid, and the unknowns at every
    time in dense order (node voltages, then branch currents)."""

    circuit: Circuit
    times: np.ndarray  # (T,)
    states: np.ndarray  # (T, size)

    def voltage(self, node: str) -> np.ndarray:
        if node == "0":
            return np.zeros_like(self.times)
        try:
            return self.states[:, self.circuit.node_index[node]]
        except KeyError:
            raise UnknownNodeError(f"no trace for node {node!r}") from None

    def current(self, name: str) -> np.ndarray:
        try:
            return self.states[:, self.circuit.branch_dense_index(name)]
        except KeyError:
            raise KeyError(f"no branch current for element {name!r}") from None

    def total_source_power(self) -> np.ndarray:
        """Power delivered by the independent sources at each time: the
        columns -v*i of each source, in declaration order, summed."""
        c, states = self.circuit, self.states
        sources = [e for e in c.elements if e.kind in (KIND_VSOURCE, KIND_ISOURCE)]
        power = np.zeros((len(self.times), len(sources)))
        for s, elem in enumerate(sources):
            ip, im = (c.dense_index(lbl) for lbl in elem.nodes)
            v_branch = (states[:, ip] if ip is not None else 0.0) - (
                states[:, im] if im is not None else 0.0
            )
            if elem.kind == KIND_VSOURCE:
                i_through = states[:, c.branch_dense_index(elem.name)]
            else:
                i_through = source_value(elem, self.times)
            # current enters the + terminal, so delivered power is -v*i
            power[:, s] = -v_branch * i_through
        return power.sum(axis=1)

    def solution_at(self, index: int) -> Solution:
        """The point at ``index`` keyed by label. Only the benchmark's
        residual check reads it; ccsim itself reads ``states``."""
        c, x = self.circuit, self.states[index]
        return Solution(
            time=float(self.times[index]),
            voltages=dict(zip(c.node_index, x[:c.n_nodes].tolist())),
            currents=dict(zip(c.branch_index, x[c.n_nodes:].tolist())),
            vector=x,
        )


def source_value(elem: ElementDecl, t: float | np.ndarray) -> float | np.ndarray:
    """Value of an independent source at time ``t`` (a scalar or an array)."""
    p = elem.params
    if "dc" in p:
        return p["dc"]
    return p["offset"] + p["amplitude"] * np.sin(2.0 * np.pi * p["freq"] * t)


class _Assembly:
    """Static MNA matrix and right-hand side of a circuit, the voltage-source
    branch rows ``vsource_rows`` as (element, row) pairs, and the clamped Z
    rows ``clamps`` as (row, vdd, vss) triples."""

    def __init__(self, circuit: Circuit):
        # Triplet assembly: one pass collects every device's (row, col, value)
        # entries, ground and floating Z terminals sent to a sink index n
        # whose row and column are sliced off; then one scatter sums them in
        # declaration order, so each cell gets the bits of stamping in turn.
        n = circuit.size
        at = circuit.node_index.get
        rows, cols, vals, rhs_rows, rhs_vals = [], [], [], [], []
        self.vsource_rows = []
        self.clamps = []
        for elem in circuit.elements:
            nodes = elem.nodes
            p, m = at(nodes[0], n), at(nodes[1], n)
            if elem.kind == KIND_RESISTOR:
                r, c, v = devices._resistor_entries(p, m, elem.params["value"])
            elif elem.kind == KIND_ISOURCE:
                r, v = devices._isource_entries(p, m, elem.params["dc"])
                rhs_rows += r
                rhs_vals += v
                continue
            elif elem.kind == KIND_VSOURCE:
                b = circuit.branch_dense_index(elem.name)
                r, c, v = devices._vsource_entries(p, m, b)
                self.vsource_rows.append((elem, b))
            else:
                assert elem.kind == KIND_CCCII
                z = at(nodes[2], n)
                b = circuit.branch_dense_index(elem.name)
                r, c, v = devices._cccii_entries(p, m, z, b, elem.params)
                if elem.params["level"] == 2 and z != n:
                    self.clamps.append((z, elem.params["vdd"], elem.params["vss"]))
            rows += r
            cols += c
            vals += v
        a = np.zeros((n + 1) * (n + 1))
        flat = np.fromiter(rows, np.intp, len(rows)) * (n + 1)
        flat += np.fromiter(cols, np.intp, len(cols))
        np.add.at(a, flat, np.fromiter(vals, float, len(vals)))
        self.a_static = a.reshape(n + 1, n + 1)[:n, :n]
        rhs = np.zeros(n + 1)
        np.add.at(rhs, np.fromiter(rhs_rows, np.intp, len(rhs_rows)),
                  np.fromiter(rhs_vals, float, len(rhs_vals)))
        self.rhs_static = rhs[:n]


def residual(circuit: Circuit, t: float, x: np.ndarray) -> np.ndarray:
    """Exact nonlinear KCL/branch residual at state ``x``. The source rows are
    branch rows, where the static right-hand side is zero."""
    asm = _Assembly(circuit)
    f = asm.a_static @ x - asm.rhs_static
    for elem, row in asm.vsource_rows:
        f[row] -= source_value(elem, t)
    for row, vdd, vss in asm.clamps:
        f[row] += devices.eval_clamp(x[row], vdd, vss)[0]
    return f


# ── dense solve ─────────────────────────────────────────────────────


def _equilibrated_condition(a: np.ndarray, abs_inv: np.ndarray) -> float:
    """1-norm condition number of R A C, where the power-of-two diagonal
    scalings R and C bring every row maximum of |A|, then every column
    maximum, into [0.5, 1) (van der Sluis 1969; LAPACK dgeequb). MNA rows mix
    siemens with the ohms of a conveyor's R_X, so the raw number can refuse a
    well-posed high-impedance circuit. The inverse of R A C is
    C^-1 A^-1 R^-1, read off |A^-1|, ``abs_inv``, which is scaled in place.
    A maximum below 2**-1024 has no finite scale, and the estimate is inf."""
    scaled = np.abs(a)
    r = np.ldexp(1.0, -np.frexp(scaled.max(axis=1))[1])
    if np.isinf(r).any():
        return np.inf
    scaled *= r[:, None]
    c = np.ldexp(1.0, -np.frexp(scaled.max(axis=0))[1])
    if np.isinf(c).any():
        return np.inf
    scaled *= c
    norm = scaled.sum(axis=0).max()
    abs_inv /= c[:, None]
    abs_inv /= r
    return norm * abs_inv.sum(axis=0).max()


def lu_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve A x = b by LAPACK; ``b`` may hold many columns.

    Leaves ``a`` and ``b`` unchanged. Beside the result it holds one n x n
    array, the inverse, whose magnitudes then overwrite it; only a refused
    raw condition number adds |A| for the equilibrated recheck.

    Raises SingularMatrixError when A is singular or its 1-norm condition
    number reaches 1/PIVOT_RTOL both as it stands and after row and column
    equilibration (LAPACK itself stops only on an exact zero pivot), and
    ValueError on non-finite or non-square input.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise ValueError("matrix must be square and non-empty")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
        a_norm = np.abs(a).sum(axis=0).max()
        try:
            a_inv = np.linalg.inv(a)
        except np.linalg.LinAlgError:
            raise SingularMatrixError(
                "singular matrix (floating node or unsolvable topology)"
            ) from None
        x = a_inv @ b
        abs_inv = np.abs(a_inv, out=a_inv)  # the inverse is not needed past x
        cond = a_norm * abs_inv.sum(axis=0).max()
        if not cond * PIVOT_RTOL < 1.0:
            cond = _equilibrated_condition(a, abs_inv)
    if not cond * PIVOT_RTOL < 1.0:
        cond = np.nan_to_num(cond, nan=np.inf)  # NaN: the inverse itself overflowed
        raise SingularMatrixError(
            f"condition number {cond:.3e} too large (floating node or unsolvable topology)"
        )
    return x


# ── port-reduced Newton over all timepoints ─────────────────────────


def _clamp_currents(clamps: list, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Clamp currents and conductances at port voltages ``v`` (lanes, k)."""
    i, g = np.empty_like(v), np.empty_like(v)
    for j, (_, vdd, vss) in enumerate(clamps):
        i[:, j], g[:, j] = devices.eval_clamp(v[:, j], vdd, vss)
    return i, g


def _mix(i: np.ndarray, mat: np.ndarray) -> np.ndarray:
    """``i @ mat.T`` for port currents ``i`` (lanes, k >= 1), summed column by
    column: a BLAS product groups its sums by the operand shapes, and a point
    must not depend on how many points share its solve."""
    out = np.multiply.outer(i[:, 0], mat[:, 0])
    for j in range(1, i.shape[1]):
        out += np.multiply.outer(i[:, j], mat[:, j])
    return out


def _port_step(s: np.ndarray, g: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Newton step -J^-1 f on every lane, J = I + S diag(g)."""
    if len(s) == 1:
        return -f / (1.0 + s[0, 0] * g)
    try:
        return -np.linalg.solve(np.eye(len(s)) + s * g[:, None, :], f[..., None])[..., 0]
    except np.linalg.LinAlgError:
        raise SingularMatrixError("singular clamp Jacobian") from None


def _solve_points(asm: _Assembly, times: np.ndarray) -> np.ndarray:
    """Unknown vectors (T, size) at every time in ``times``.

    A x + E c(E^T x) = b(t), where E holds the unit columns of the k clamped
    Z rows and c the clamp currents. With one factorization of A,
    x_lin = A^-1 b(t), M = A^-1 E and S = E^T M, this reduces to k equations
    per timepoint in the port voltages v,

        v - v_lin + S c(v) = 0,     x = x_lin - M c(v),

    solved by Newton on all timepoints at once. Newton starts from one
    Gauss-Seidel sweep in declaration order: port j takes the exact root of
    v_j + S_jj c_j(v_j) = v_lin_j - sum_{i<j} S_ji c_i, so a single clamp or a
    cascade of clamps in declaration order (S_ji = 0 for i > j) starts at its
    solution. The full residual of x is c(E^T x) - c(v) on the clamp rows
    (zero elsewhere); a point has converged when it is at most ``ABS_TOL`` on
    every row, and ``MAX_ITER`` steps that leave one unconverged raise
    NoConvergenceError.
    """
    size = len(asm.rhs_static)
    if size == 0:
        return np.zeros((len(times), 0))
    # one solve against [b_static | unit columns of the source rows | E]
    drives = [row for _, row in asm.vsource_rows]
    z = [row for row, _, _ in asm.clamps]
    columns = np.zeros((size, 1 + len(drives) + len(z)))
    columns[:, 0] = asm.rhs_static
    columns[drives + z, np.arange(1, columns.shape[1])] = 1.0
    try:
        solved = lu_solve(asm.a_static, columns)
    except ValueError:  # the only one possible: a stamp sum that overflowed
        raise SolverError("MNA matrix entries overflow the float range") from None
    # x_lin by superposition, summed in declaration order into one array: a
    # single row until the first time-varying term, which then holds the sum
    # (IEEE addition commutes, so term + x has the bits of x + term)
    x = solved[:, 0]
    for j, (elem, _) in enumerate(asm.vsource_rows, start=1):
        term = np.multiply.outer(source_value(elem, times), solved[:, j])
        if x.ndim == 2:
            x += term
        else:
            term += x
            x = term
    if x.ndim == 1:
        x = np.tile(x, (len(times), 1))
    if not z:
        return x

    m = solved[:, 1 + len(drives):]  # (size, k)
    s = m[z]  # (k, k)
    v_lin = x[:, z]

    def misfit(lanes, i):
        """Full residual of the lanes whose clamp currents are i."""
        x_z = v_lin[lanes] - _mix(i, s)
        return np.abs(_clamp_currents(asm.clamps, x_z)[0] - i).max(axis=1)

    # one Gauss-Seidel sweep of exact port roots; u[:, j] collects the
    # currents predicted for the ports before j
    u = v_lin.copy()
    v, i, g = np.empty_like(u), np.empty_like(u), np.empty_like(u)
    for j, (_, vdd, vss) in enumerate(asm.clamps):
        v[:, j] = devices.clamp_port_root(u[:, j], s[j, j], vdd, vss)
        i[:, j], g[:, j] = devices.eval_clamp(v[:, j], vdd, vss)
        u[:, j + 1:] -= np.multiply.outer(i[:, j], s[j + 1:, j])
    r = misfit(slice(None), i)
    # written ~(r <= tol) so that a NaN residual counts as unconverged
    active = np.flatnonzero(~(r <= ABS_TOL))
    if active.size:  # a point whose linear part overflowed is left for solve to refuse
        active = active[np.isfinite(v_lin[active]).all(axis=1)]
    for _ in range(MAX_ITER):
        if not active.size:
            break
        va = v[active]
        v_new = va + _port_step(s, g[active], va - v_lin[active] + _mix(i[active], s))
        i_new, g_new = _clamp_currents(asm.clamps, v_new)
        r_new = misfit(active, i_new)
        v[active], i[active], g[active], r[active] = v_new, i_new, g_new, r_new
        active = active[~(r_new <= ABS_TOL)]
    if active.size:
        first = active[0]
        raise NoConvergenceError(
            f"no convergence after {MAX_ITER} iterations, residual {r[first]:.3e}",
            residual=float(r[first]),
            time=float(times[first]),
        )
    # x -= i @ m.T over row blocks: _mix is row-local, so the bits are those
    # of one call, and its temporaries stay block-sized beside the (T, n) x
    rows = max(1, _MIX_BLOCK // size)
    for start in range(0, len(x), rows):
        block = x[start:start + rows]  # a view: the subtraction writes into x
        block -= _mix(i[start:start + rows], m)
    return x


def solve(circuit: Circuit, times) -> Waveform:
    """Solve the operating point at each time in ``times``; ``.op`` is the
    one point t = 0.

    Purely linear circuits take one LAPACK solve and no Newton step;
    level-2 conveyor clamps start at the exact root of their port equations
    and are iterated only where clamp ports are coupled both ways (see
    ``_solve_points``). Raises ValidationError, before solving, for a SIN
    source whose phase 2*pi*f*t is not finite on the grid, and SolverError
    for a solution that overflows the float range.
    """
    times = np.asarray(times, dtype=float)
    t_last = float(times[-1])  # largest phase; an infinite 2*pi*f gives NaN at t = 0
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
        asm = _Assembly(circuit)
        for elem, _ in asm.vsource_rows:
            if not math.isfinite(2.0 * math.pi * elem.params.get("freq", 0.0) * t_last):
                raise ValidationError(
                    f"{elem.name}: SIN phase 2*pi*f*t is not finite at t = {t_last}")
        states = _solve_points(asm, times)
    if not np.isfinite(states).all():
        t = float(times[~np.isfinite(states).all(axis=1)][0])
        raise SolverError(f"solution overflows the float range at t = {t}")
    return Waveform(circuit, times, states)


# ── transient sweep ─────────────────────────────────────────────────


def transient(circuit: Circuit, tstep: float, tstop: float) -> Waveform:
    """Solve t = 0, tstep, ..., tstop as independent operating points.

    All points share one factorization of the MNA matrix; clamped circuits
    then run Newton on the clamp ports of every point at once. Raises
    ValueError for a grid that ``.tran`` would reject (``tran_step_count``).
    """
    return solve(circuit, np.arange(tran_step_count(tstep, tstop) + 1) * tstep)
