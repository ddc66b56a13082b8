"""The benchmark's golden ops complete with the right answer.

perfbench/ catches what an op raises, but a fault outside that guard, such
as an import error in `floqlab.cli` or a check that raises, ends the whole
benchmark run.  So each workload is built as the benchmark's set-up probe
builds it, and its golden ops run through `workloads.run_op`.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import workloads  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_golden_ops_are_right(name, tmp_path):
    workload = workloads.WORKLOADS[name](tmp_path / "ops")
    workload.inputs(1, 0)
    for op in workload.golden():
        outcome = workloads.run_op(workload, op)
        assert not outcome.failed, (op, outcome.error)
        assert outcome.malformed is None, (op, outcome.malformed)
        assert outcome.verdict == "right", op
