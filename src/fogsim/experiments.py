"""Experiment drivers: run matrices over policies/seeds/horizons and the
placement-optimality study against the exact oracle."""
from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import List, Optional, Sequence

from . import cost_model, oracle, scenario
from .sim_engine import Simulation, run_simulation


def run_matrix(base_config: dict, policies: Sequence[str], seeds: Sequence[int],
               horizons: Sequence[float],
               devices: Optional[Sequence[int]] = None) -> List[dict]:
    """Run every (policy, seed[, device count]) cell; horizons come from
    checkpoints of a single run per cell."""
    rows = []
    device_counts = list(devices) if devices is not None else [None]
    for count in device_counts:
        for policy in policies:
            for seed in seeds:
                config = copy.deepcopy(base_config)
                config["policy"] = policy
                config["seed"] = seed
                if count is not None:
                    config["devices"]["count"] = count
                result = run_simulation(scenario.check_config(config),
                                        horizons=list(horizons))
                for row in result.rows:
                    if count is not None:
                        row["devices"] = count
                    rows.append(row)
    return rows


@dataclass
class OptimalityResult:
    seed: int
    dapt_cost: float
    oracle_cost: float
    complete: bool

    @property
    def gap(self) -> float:
        return (self.dapt_cost - self.oracle_cost) / self.oracle_cost if self.oracle_cost else 0.0


def optimality_study(config: dict, seeds: Sequence[int]) -> List[OptimalityResult]:
    """Compare sequential DAPT placement cost against the sequential oracle.

    Devices are placed one by one in both regimes against the same starting
    capacity, so the comparison isolates decision quality. DAPT runs through
    the simulation's own placement cascade, without the event kernel.
    """
    results = []
    for seed in seeds:
        cfg = dict(copy.deepcopy(config), seed=seed, policy="proposed")

        sim = Simulation(cfg)
        for dev in sim.devices:
            sim.place(dev, 0.0)
        dapt_cost = 0.0
        for dev in sim.devices:
            dapt_cost += cost_model.app_cost(sim.topology, dev.dag, dev.placement,
                                             sim.weights, sim.profile)

        # Oracle pass on a fresh copy of the same world
        fresh = Simulation(cfg)
        candidates = fresh.topology.fog_servers()
        free = {sid: fresh.topology.node(sid).container_capacity for sid in candidates}
        searched = oracle.sequential_placement(
            fresh.topology,
            ((dev.dag, dev.placement) for dev in fresh.devices),
            fresh.weights, fresh.profile, candidates, free)
        oracle_cost = 0.0
        for res in searched:
            oracle_cost += res.cost
        complete = all(res.complete for res in searched)
        results.append(OptimalityResult(seed=seed, dapt_cost=dapt_cost,
                                        oracle_cost=oracle_cost, complete=complete))
    return results
