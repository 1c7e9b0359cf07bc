"""Set-up probe, run in a fresh interpreter by run.py.

Imports fogsim, generates the workload's configs and sets up every cell
(`Simulation` construction, or `build_world` for an oracle seed), then
prints the monotonic clock. CLOCK_MONOTONIC is shared by all processes, so
the caller subtracts the reading it took before starting this interpreter.

Usage: python3 perfbench/setup_probe.py <workload> <seed> <tiny 0|1>
"""
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "src"))

from workloads import make_cells, set_up  # noqa: E402

workload, seed, tiny = sys.argv[1], int(sys.argv[2]), sys.argv[3] == "1"
prepared = [set_up(cell) for cell in make_cells(workload, seed, tiny)]
print(repr(time.monotonic()))
