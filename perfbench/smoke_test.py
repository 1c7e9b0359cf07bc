"""Smoke test of the benchmark at tiny size.

Every workload runs with about 10 devices, a 5 s horizon and one oracle
seed, untraced and traced. The test checks that each metric named in
BENCHMARK.json is emitted with its unit, and that the correctness gate
fails a cell whose output is tampered with.

Run from the repository root:
    python3 perfbench/smoke_test.py
or  python3 -m pytest perfbench/smoke_test.py
"""
import json
import math
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402  (imports fogsim from ./src)
import workloads  # noqa: E402


def _declared():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {0: spec["end_to_end"], 1: spec["per_layer"]}


def test_every_named_metric_is_emitted_with_its_unit():
    for trace, declared in _declared().items():
        expected = {m["name"]: m["unit"] for m in declared}
        for workload in workloads.WORKLOADS:
            result = run.run_workload(workload, seed=1, seconds=0, trace=trace,
                                      tiny=True, probes=1)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] and result["failed"] == 0, (workload, trace)
            assert result["attempted"] >= 2
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == expected, (workload, trace)
            for name, m in result["metrics"].items():
                assert math.isfinite(m["value"]), (workload, name)


def test_tampered_conservation_row_fails_the_cell():
    cell = workloads.make_cells("ref_matrix", 1, tiny=True)[0]
    out_dir = os.path.join(run.OUT, "smoke")
    clean = run.run_cell(cell, out_dir)
    assert clean.problems == []

    execute = workloads.execute

    def tampered(cell, prepared):
        rows, events, study = execute(cell, prepared)
        rows[0]["completed"] += 1
        return rows, events, study

    workloads.execute = tampered
    try:
        outcome = run.run_cell(cell, out_dir)
    finally:
        workloads.execute = execute
    assert any("conservation" in p for p in outcome.problems)
    attempted, failed, _, problems = run.judge([cell], [{"outcomes": [outcome]}])
    assert (attempted, failed) == (1, 1) and cell.label in problems


def test_repeat_with_other_output_bytes_fails():
    cell = workloads.make_cells("oracle_desk", 1, tiny=True)[0]
    first = run.CellOutcome(1.0, 0.01, "a" * 64, [], {})
    repeat = run.CellOutcome(1.0, 0.01, "b" * 64, [], {})
    attempted, failed, _, _ = run.judge([cell], [{"outcomes": [first]},
                                                 {"outcomes": [repeat]}])
    assert (attempted, failed) == (2, 1)


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            fn()
            print(f"ok {name}")
