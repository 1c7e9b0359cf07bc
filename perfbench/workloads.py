"""Benchmark workloads for fogsim: generated configs, cell runs and checks.

Every input is built from a bundled scenario through
`scenario.load_scenario` overrides, derived only from the benchmark seed.
The program is driven through its public API: `sim_engine.Simulation`,
`experiments.optimality_study` and `cli.write_outputs`.

A workload is a list of cells. A cell is one simulation run (one policy,
one config, its checkpoint horizons) or one oracle-study seed. A cell fails
when it raises, when its output breaks an invariant listed in
`cell_problems`, or when a repeat of it writes different bytes.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass
from typing import Dict, List

from fogsim import cli, experiments, scenario, sim_engine

POLICIES = sim_engine.POLICIES

WORKLOADS = ("ref_matrix", "crowd_proposed", "crowd_urmila", "oracle_desk")

# Workload sizes. Each pass over a workload's cells takes a few host seconds
# on a 2-core box, so a measured window holds several passes.
REF_DEVICES = 80
REF_HORIZONS = [100.0, 200.0, 300.0, 400.0]
REF_FAILURE_P = 0.5
CROWD_PROPOSED_DEVICES = 1280
CROWD_URMILA_DEVICES = 160
CROWD_HORIZON = 50.0
ORACLE_SEEDS_PER_PASS = 4

# Event kinds counted from events.log, per policy, as deterministic counters.
LOG_COUNTERS = {
    "placement.cold_starts": ("container_start", False),
    "placement.warm_starts": ("container_start", True),
    "placement.recoveries": ("placement_recovery", None),
    "migration.handovers": ("handover", None),
    "migration.commits": ("migration", None),
    "migration.failures": ("migration_failure", None),
    "migration.stays": ("migration_stay", None),
}


@dataclass
class Cell:
    label: str
    policy: str          # a simulation policy, or "oracle" for a study seed
    config: dict
    horizons: List[float]

    @property
    def is_oracle(self) -> bool:
        return self.policy == "oracle"

    @property
    def devices(self) -> int:
        return int(self.config["devices"]["count"])

    @property
    def work(self) -> float:
        """Simulated device-seconds, or oracle device placements."""
        if self.is_oracle:
            return float(self.devices)
        return self.devices * max(self.horizons)


def _sim_cell(scenario_name: str, policy: str, seed: int, devices: int,
              horizons: List[float], failure_p: float = 0.0) -> Cell:
    overrides = {"policy": policy, "seed": seed, "horizon_s": max(horizons),
                 "devices": {"count": devices},
                 "failure": {"migration_failure_p": failure_p}}
    config = scenario.load_scenario(cli.resolve_scenario(scenario_name), overrides)
    label = f"{policy}/{devices}dev/{max(horizons):g}s/p={failure_p:g}"
    return Cell(label, policy, config, list(horizons))


def make_cells(workload: str, seed: int, tiny: bool = False) -> List[Cell]:
    """The cells of one workload for one benchmark seed.

    `tiny` shrinks every workload to about 10 devices, a 5 s horizon and one
    oracle seed, for the smoke test.
    """
    ref_devices, ref_horizons = (10, [2.5, 5.0]) if tiny else (REF_DEVICES, REF_HORIZONS)
    crowd_h = [5.0] if tiny else [CROWD_HORIZON]
    if workload == "ref_matrix":
        cells = [_sim_cell("urban_80dev", p, seed, ref_devices, ref_horizons)
                 for p in POLICIES]
        cells.append(_sim_cell("urban_80dev", "proposed", seed, ref_devices,
                               ref_horizons, failure_p=REF_FAILURE_P))
        return cells
    if workload == "crowd_proposed":
        n = 10 if tiny else CROWD_PROPOSED_DEVICES
        return [_sim_cell("urban_80dev", "proposed", seed, n, crowd_h)]
    if workload == "crowd_urmila":
        n = 10 if tiny else CROWD_URMILA_DEVICES
        return [_sim_cell("urban_80dev", "urmila", seed, n, crowd_h)]
    if workload == "oracle_desk":
        path = cli.resolve_scenario("desk_optimality")
        count = 1 if tiny else ORACLE_SEEDS_PER_PASS
        cells = []
        for k in range(count):
            study_seed = seed * 100 + k
            config = scenario.load_scenario(path, {"seed": study_seed})
            cells.append(Cell(f"oracle/seed={study_seed}", "oracle", config, []))
        return cells
    raise ValueError(f"unknown workload {workload!r}")


ORACLE_COLUMNS = ["dapt_cost", "oracle_cost", "oracle_gap", "complete"]


def set_up(cell: Cell):
    """Everything a cell needs before its first kernel event or placement.

    `optimality_study` builds its worlds itself, so for an oracle seed this
    only measures the `build_world` those builds repeat.
    """
    if cell.is_oracle:
        return scenario.build_world(cell.config)
    return sim_engine.Simulation(cell.config)


def execute(cell: Cell, prepared):
    """Run a set-up cell; returns (rows, events, oracle results)."""
    if cell.is_oracle:
        study = experiments.optimality_study(cell.config, [cell.config["seed"]])
        rows = [{"technique": "oracle", "app": "all", "horizon_s": 0.0,
                 "seed": r.seed, "dapt_cost": r.dapt_cost,
                 "oracle_cost": r.oracle_cost, "oracle_gap": r.gap,
                 "complete": r.complete} for r in study]
        return rows, [], study
    result = prepared.run(cell.horizons)
    return result.rows, result.events, None


def write_and_digest(cell: Cell, rows, events, out_dir: str) -> str:
    """Write outputs through `cli.write_outputs`; sha256 of metrics.csv + events.log."""
    extra = ORACLE_COLUMNS if cell.is_oracle else None
    cli.write_outputs(rows, events, out_dir, extra)
    digest = hashlib.sha256()
    for name in ("metrics.csv", "events.log"):
        with open(os.path.join(out_dir, name), "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()


def cell_problems(cell: Cell, rows, events, study) -> List[str]:
    """Invariant violations of one cell's output; empty when it is correct."""
    problems = []
    for row in rows:
        for key, val in row.items():
            if isinstance(val, float) and not math.isfinite(val):
                problems.append(f"non-finite {key} in row {row.get('app')}")
        if not cell.is_oracle:
            if row["emitted"] != row["completed"] + row["inflight"] + row["dropped"]:
                problems.append(f"conservation broken at h={row['horizon_s']} "
                                f"app={row['app']}")
    if cell.is_oracle:
        if not study or not all(r.complete for r in study):
            problems.append("oracle search incomplete")
    else:
        started = {e["device"] for e in events if e["kind"] == "service_start"}
        missing = cell.devices - len(started & set(range(1, cell.devices + 1)))
        if missing:
            problems.append(f"{missing} devices never logged service_start")
    return problems


def log_counters(cell: Cell, out_dir: str) -> Dict[str, int]:
    """Deterministic event counts read back from the written events.log."""
    counts = {name: 0 for name in LOG_COUNTERS}
    with open(os.path.join(out_dir, "events.log")) as fh:
        for line in fh:
            record = json.loads(line)
            for name, (kind, warm) in LOG_COUNTERS.items():
                if record["kind"] == kind and (warm is None or record["warm"] is warm):
                    counts[name] += 1
    return counts
