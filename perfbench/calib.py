"""Host-speed reference kernel.

The shared host this benchmark was written on changes speed by up to 60 %
for tens of seconds at a time, with CPU time rising along with wall time.
Timing a fixed piece of work between ops tracks that drift: every op time a
run reports is scaled by REFERENCE_S / median(kernel samples of its worker),
which cut the run-to-run spread there by half or more. The kernel is frozen
here, independent of ccsim, so a change to the program cannot move it. Raw
wall times are printed beside the scaled ones.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Median kernel time on the reference host (2-vCPU x86-64 VM, CPython 3.11,
# numpy 2.4). Scaled times read as seconds on that host at its usual speed.
REFERENCE_S = 0.0072
# Seconds a fresh interpreter takes to `import numpy` from a warm bytecode
# cache on the reference host. The kernel above does not track import speed:
# `setup_s` is ccsim's import time over numpy's, timed back to back, times
# this. On the reference host that ratio spread 0.03 over fourteen groups of
# 21 pairs, where kernel-scaled import times spread 0.06 and raw ones 0.08.
IMPORT_REFERENCE_S = 0.063

_MATRIX = np.random.default_rng(20181106).random((96, 96)) + 96.0 * np.eye(96)


def _kernel() -> float:
    # Doolittle elimination in numpy slices plus interpreter-bound bookkeeping:
    # the same mix of small-array calls and Python overhead as a ccsim op.
    for _ in range(2):
        lu = _MATRIX.copy()
        for k in range(lu.shape[0]):
            p = k + int(np.argmax(np.abs(lu[k:, k])))
            if p != k:
                lu[[k, p]] = lu[[p, k]]
            lu[k + 1:, k] /= lu[k, k]
            lu[k + 1:, k + 1:] -= np.outer(lu[k + 1:, k], lu[k, k + 1:])
    table: dict[int, float] = {}
    acc = 0.0
    for i in range(40000):
        acc += i * 0.5
        table[i % 64] = acc
    return float(lu[-1, -1]) + acc


def sample() -> float:
    """Seconds one run of the reference kernel takes now."""
    start = time.perf_counter()
    _kernel()
    return time.perf_counter() - start


def speed_factor(samples: list[float]) -> float:
    """Multiplier that converts this run's wall seconds to reference seconds."""
    return REFERENCE_S / statistics.median(samples)
