"""Smoke test of the benchmark's own workloads.

Every operation of each h2bench workload, on the seed-1 inputs, must end
as h2bench/checks.py expects, the invalid inputs of validate-676 included.
cli-cold operations run in-process here through cli.main, while the
benchmark runs each as its own python process. No timing is asserted.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "h2bench"))

import checks  # noqa: E402
import run  # noqa: E402

from h2cost import cli  # noqa: E402


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_op_of_a_workload_passes_its_checks(tmp_path, workload):
    ops = run.make_inputs(workload, 1, tmp_path)
    assert ops
    failed = []
    for op in ops:
        reason = checks.check(op, run.run_inprocess(cli.main, op)[1])
        if reason is not None:
            failed.append((op.key, op.kind, reason))
    assert failed == []
