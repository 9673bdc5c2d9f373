"""One round of each benchmark workload in perfbench/, then its checks.

The workloads call the library in fixed forms: gap points passed
positionally, densities by keyword, and the CLI argv lines of cli_cold.  A
change that breaks one of those forms, or an output its checks reject, fails
here, before a benchmark run reports it as failed operations.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import workloads as W  # noqa: E402


@pytest.mark.parametrize("name", sorted(W.WORKLOADS))
def test_one_round_runs_and_checks_clean(name):
    instance = W.WORKLOADS[name](7)
    ops = instance.operations()
    outputs = {}
    for label, call in ops:
        outputs[label] = call(outputs)
        if getattr(instance, "children", False):
            assert outputs[label].code == 0, (label, outputs[label].stderr)
    assert len(outputs) == len(ops)
    report = instance.check(outputs)
    assert {label: problems for label, problems in report.items() if problems} == {}
