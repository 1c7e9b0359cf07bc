"""fogsim benchmark: end-to-end metrics and a traced per-layer run.

Usage:
    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

With --trace 0 the workload's cells run untraced, pass after pass, for the
given seconds (at least two passes, so every cell is repeated and its output
bytes compared). It reports `run_ref` (pass time in units of a reference
loop timed around each cell), `setup_s` (measured separately in fresh
interpreters) and `peak_rss_mb`.
With --trace 1 half of the window runs untraced and half traced; the traced
passes give the per-layer metrics and the tracing overhead. Human-readable
lines come first; the last line of stdout is one JSON object.

Run from the repository root; the package is imported from ./src.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")

SETUP_PROBES = 11
PROBE_TIMEOUT_S = 60
REFERENCE_LOOP_ITERATIONS = 100_000


def import_program():
    """Import fogsim from this checkout's src, never from anywhere else."""
    if not os.path.isfile(os.path.join(SRC, "fogsim", "__init__.py")):
        raise SystemExit(f"fogsim sources not found under {SRC}")
    sys.path.insert(0, SRC)
    import fogsim
    if os.path.dirname(os.path.dirname(os.path.abspath(fogsim.__file__))) != SRC:
        raise SystemExit(f"fogsim imported from {fogsim.__file__}, not {SRC}")


import_program()

import layer_trace  # noqa: E402
import workloads  # noqa: E402


@dataclass
class CellOutcome:
    run_s: float             # host seconds of the cell's run, set-up excluded
    ref_s: float             # reference loop seconds measured around the run
    digest: Optional[str]    # None when the cell raised
    problems: List[str]
    counters: Dict[str, int]

    @property
    def run_ref(self) -> float:
        return self.run_s / self.ref_s


def reference_loop_s() -> float:
    """Host seconds of a fixed pure-Python loop, the fastest of three.

    On a shared 2-core VM, other tenants slow Python code by 10-80% in
    spells of seconds to minutes. The loop slows with the cells (correlation
    0.86 between loop and cell times on crowd_urmila), so dividing a cell's
    time by the loop time measured on both sides of it removes most of that
    drift.
    """
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0
        for i in range(REFERENCE_LOOP_ITERATIONS):
            acc += i * i
        best = min(best, time.perf_counter() - t0)
    return best


def run_cell(cell: workloads.Cell, out_dir: str,
             tracer: Optional[layer_trace.Tracer] = None) -> CellOutcome:
    """Set up and run one cell, then write, digest and check its output."""
    gc.collect()
    root = "experiments" if cell.is_oracle else "sim_engine.kernel"
    ref_before = reference_loop_s()
    try:
        with tracer.cell(cell.policy, root) if tracer else nullcontext():
            prepared = workloads.set_up(cell)
            t0 = time.perf_counter()
            rows, events, study = workloads.execute(cell, prepared)
            run_s = time.perf_counter() - t0
        ref_s = (ref_before + reference_loop_s()) / 2.0
        digest = workloads.write_and_digest(cell, rows, events, out_dir)
        problems = workloads.cell_problems(cell, rows, events, study)
        counters = {} if cell.is_oracle else workloads.log_counters(cell, out_dir)
    except Exception as exc:  # a failing cell is counted, not fatal
        traceback.print_exc(file=sys.stderr)
        return CellOutcome(float("nan"), ref_before, None,
                           [f"raised {type(exc).__name__}: {exc}"], {})
    return CellOutcome(run_s, ref_s, digest, problems, counters)


def measure(cells, out_root: str, budget_s: float, min_passes: int,
            traced: bool) -> List[dict]:
    """Repeat passes over all cells until the next one would overrun the budget."""
    passes = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        tracer = layer_trace.Tracer() if traced else None
        if tracer:
            tracer.install()
        try:
            outcomes = [run_cell(cell, os.path.join(out_root, f"cell{i}"), tracer)
                        for i, cell in enumerate(cells)]
        finally:
            if tracer:
                tracer.uninstall()
        passes.append({"outcomes": outcomes, "run_s": sum(o.run_s for o in outcomes),
                       "tracer": tracer})
        now = time.perf_counter()
        if len(passes) >= min_passes and now - start + (now - t0) > budget_s:
            return passes


def setup_times(workload: str, seed: int, tiny: bool, probes: int) -> List[float]:
    """Interpreter start through cell set-up, in fresh interpreters."""
    out = []
    for _ in range(probes):
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "setup_probe.py"), workload,
             str(seed), "1" if tiny else "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"set-up probe failed with exit code {proc.returncode}")
        out.append(float(proc.stdout.strip().splitlines()[-1]) - t0)
    return out


def judge(cells, passes: List[dict]):
    """(attempted, failed, first-pass digest, per-cell problems) over all passes.

    A cell run fails when it has problems or its output bytes differ from
    the first run of the same cell.
    """
    first = [o.digest for o in passes[0]["outcomes"]]
    attempted = failed = 0
    problems: Dict[str, List[str]] = {}
    for p in passes:
        for cell, ref, outcome in zip(cells, first, p["outcomes"]):
            attempted += 1
            issues = list(outcome.problems)
            if outcome.digest != ref:
                issues.append("output differs from the cell's first run")
            if issues:
                failed += 1
                problems.setdefault(cell.label, issues)
    combined = hashlib.sha256("".join(d or "-" for d in first).encode()).hexdigest()
    return attempted, failed, combined, problems


def policy_counters(cells, outcomes) -> Dict[str, int]:
    """Deterministic events.log counters, named log.<policy>.<counter>."""
    out = {f"log.{policy}.{name}": 0
           for policy in workloads.POLICIES for name in workloads.LOG_COUNTERS}
    for cell, outcome in zip(cells, outcomes):
        for name, val in outcome.counters.items():
            out[f"log.{cell.policy}.{name}"] += val
    return out


def per_pass(passes: List[dict], value: Callable[[CellOutcome], float]) -> float:
    """One pass over all cells: the sum of each cell's median value over passes."""
    total = 0.0
    for runs in zip(*(p["outcomes"] for p in passes)):
        ok = [value(o) for o in runs if o.digest is not None]
        if not ok:
            raise SystemExit("a cell raised on every run; nothing to time")
        total += statistics.median(ok)
    return total


def is_host_time(name: str) -> bool:
    return (name.endswith("_s") or "_s." in name) and not name.endswith("sim_s")


def quartiles(values: List[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"q1 {q1:.4f} q3 {q3:.4f} n={len(values)}"


def run_workload(workload: str, seed: int, seconds: float, trace: int,
                 tiny: bool = False, probes: int = SETUP_PROBES) -> dict:
    """Run one workload; returns the result object printed as the last line."""
    cells = workloads.make_cells(workload, seed, tiny)
    out_root = os.path.join(OUT, workload)
    work = sum(cell.work for cell in cells)
    print(f"workload {workload} seed {seed}: {len(cells)} cells, "
          f"{'traced' if trace else 'untraced'}, {seconds:g} s window")
    for cell in cells:
        print(f"  cell {cell.label}")

    setup: List[float] = []
    traced_passes: List[dict] = []
    if not trace:
        # Probes on both sides of the window sample the host state it saw.
        setup += setup_times(workload, seed, tiny, probes // 2)
        passes = measure(cells, out_root, seconds, 2, traced=False)
        setup += setup_times(workload, seed, tiny, probes - probes // 2)
    else:
        passes = measure(cells, out_root, seconds / 2.0, 1, traced=False)
        traced_passes = measure(cells, out_root, seconds / 2.0, 1, traced=True)
    attempted, failed, digest, problems = judge(cells, passes + traced_passes)
    run_s = per_pass(passes, lambda o: o.run_s)
    run_ref = per_pass(passes, lambda o: o.run_ref)
    counters = policy_counters(cells, passes[0]["outcomes"])

    correct = failed == 0
    for label, issues in problems.items():
        print(f"  FAILED {label}: {'; '.join(issues)}")
    print(f"  run_ref {run_ref:.2f} x (pass time over reference-loop time, "
          f"per-cell medians of {len(passes)} passes)")
    print(f"  run_s {run_s:.4f} s (host seconds, per-cell medians; "
          f"reference loop {1e3 * statistics.median(o.ref_s for p in passes for o in p['outcomes']):.2f} ms)")
    throughput = "oracle_placements_per_s" if cells[0].is_oracle else "device_s_per_s"
    print(f"  {throughput} {work / run_s:.2f} 1/s")
    print(f"  error_rate {failed / attempted:.4f} ({failed} of {attempted} cell runs failed)")
    print(f"  output_sha256 {digest}")
    for name, val in counters.items():
        if val:
            print(f"  {name} {val}")

    if not trace:
        metrics = {
            "run_ref": run_ref,
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        print(f"  setup_s {metrics['setup_s']:.4f} s (median of {len(setup)} probes; "
              f"{quartiles(setup)})")
        print(f"  peak_rss_mb {metrics['peak_rss_mb']:.1f} MB")
        return result(correct, attempted, failed, metrics)

    fastest = min(traced_passes, key=lambda p: p["run_s"])
    tracer = fastest["tracer"]
    layer = tracer.metrics()
    if not counts_repeat(traced_passes):
        correct = False
        print("  FAILED deterministic per-layer counters differ between traced passes")
    traced_run_s = per_pass(traced_passes, lambda o: o.run_s)
    layer.update(counters)
    layer["trace.untraced_run_s"] = run_s
    layer["trace.traced_run_s"] = traced_run_s
    layer["trace.overhead_s"] = traced_run_s - run_s
    layer["trace.overhead_ratio"] = (per_pass(traced_passes, lambda o: o.run_ref)
                                     / run_ref - 1.0)
    print(f"  tracing overhead {layer['trace.overhead_s']:.4f} s "
          f"({100 * layer['trace.overhead_ratio']:.1f}% of untraced run_ref)")
    for policy, (name, share) in tracer.heaviest_layers().items():
        print(f"  heaviest layer for {policy}: {name} ({100 * share:.1f}% of traced time)")
    write_trace_summary(workload, seed, tracer)
    return result(correct, attempted, failed, layer)


def counts_repeat(traced_passes: List[dict]) -> bool:
    """Every per-layer metric that is not a host time repeats exactly."""
    per_pass = [p["tracer"].metrics() for p in traced_passes]
    return all(m[name] == per_pass[0][name] for m in per_pass
               for name in per_pass[0] if not is_host_time(name))


def result(correct: bool, attempted: int, failed: int, metrics: Dict[str, float]) -> dict:
    """The result object, each metric with the unit BENCHMARK.json declares."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}


def write_trace_summary(workload: str, seed: int, tracer: layer_trace.Tracer):
    """Aggregated spans of the fastest traced pass, per span name and per policy."""
    summary = {
        "spans": {name: {"calls": calls, "total_s": total, "self_s": own}
                  for name, (calls, total, own) in sorted(tracer.spans.items())},
        "layer_self_s_by_policy": {p: dict(v) for p, v in tracer.policy_layer_s.items()
                                   if v},
    }
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"trace-{workload}-seed{seed}.json"), "w") as fh:
        json.dump(summary, fh, indent=1, sort_keys=True)


def run_all(seed: int, seconds: float, trace: int) -> dict:
    """Every workload, each in its own fresh interpreter, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"workload {workload} exited with code {proc.returncode}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, val in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = val
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=list(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        outcome = run_all(args.seed, args.seconds, args.trace)
    else:
        outcome = run_workload(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(outcome, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
