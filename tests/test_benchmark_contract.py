"""The benchmark's workloads still run and pass their oracles.

The tests here cover ``tests/`` only, so a change that breaks ``perfbench/``
(a function it calls, an output its oracle reads) would otherwise surface
only when the benchmark runs. For each workload this generates the seed-1
inputs, runs the first two ops in process through ``cli.main``, checks their
output with the benchmark's oracle and runs its clipped-input residual check.
Nothing under ``perfbench/`` is changed; its modules are only imported.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent.parent / "perfbench"))

import oracle  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

import ccsim  # noqa: E402
from ccsim import cli  # noqa: E402


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_workload_ops_pass_the_benchmark_oracle(workload, tmp_path, capsys):
    ops = workloads.generate(workload, 1, tmp_path)[:2]
    assert len(ops) == 2
    for op in ops:
        assert cli.main(op["argv"]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        assert oracle.check(out, op["expect"]) == []
    assert worker.clipped_residuals(ccsim, ops) == []
