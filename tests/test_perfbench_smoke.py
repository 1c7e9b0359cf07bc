"""The benchmark's own smoke test, run in tier-1.

`perfbench/smoke_test.py` runs every workload at tiny size, untraced and
traced, and checks the metric names, units and the correctness gate. Running
it here makes a change that breaks the benchmark fail the test suite too.
"""
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import smoke_test  # noqa: E402


def test_every_named_metric_is_emitted_with_its_unit():
    smoke_test.test_every_named_metric_is_emitted_with_its_unit()


def test_tampered_conservation_row_fails_the_cell():
    smoke_test.test_tampered_conservation_row_fails_the_cell()


def test_repeat_with_other_output_bytes_fails():
    smoke_test.test_repeat_with_other_output_bytes_fails()
