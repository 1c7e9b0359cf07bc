"""Experiment drivers: run matrices over policies/seeds/horizons and the
placement-optimality study against the exact oracle."""
from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import List, Optional, Sequence

from . import cost_model, oracle, placement
from .app_model import build_schedules, rank_modules
from .clustering import bootstrap_clusters
from .cost_model import Placement
from .placement import CapacityLedger
from .scenario import build_world
from .sim_engine import run_simulation


def run_matrix(base_config: dict, policies: Sequence[str], seeds: Sequence[int],
               horizons: Sequence[float], devices: Optional[Sequence[int]] = None,
               failure_p: Optional[float] = None) -> List[dict]:
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
                if failure_p is not None:
                    config["failure"]["migration_failure_p"] = failure_p
                result = run_simulation(config, horizons=list(horizons))
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
        return (self.dapt_cost - self.oracle_cost) / self.oracle_cost


def _place_device_dapt(topology, ledger, setup, weights, profile) -> Placement:
    """Full DAPT cascade for one device without the event kernel."""
    plc = Placement(setup.dag.app_id)
    for m in setup.dag.modules:
        if m.pinned_to_device:
            plc.assignment[m.id] = setup.sid
    controller = topology.node(setup.sid).parent
    ranked = rank_modules(setup.dag, placement.ready_servers(topology, controller),
                          weights, topology, profile)
    todo = setup.dag.unpinned()
    while todo:
        plan = placement.dapt_place(topology, ledger, controller, setup.dag, plc,
                                    ranked, todo, weights, profile)
        for server, decs in plan.by_server().items():
            if server != controller:
                placement.handle_remote_placement(topology, ledger, server,
                                                  setup.dag, [d.module for d in decs])
        todo = plan.escalated
        if todo:
            controller = topology.node(controller).parent
    return plc


def optimality_study(config: dict, seeds: Sequence[int],
                     node_budget: int = oracle.DEFAULT_NODE_BUDGET) -> List[OptimalityResult]:
    """Compare sequential DAPT placement cost against the sequential oracle.

    Devices are placed one by one in both regimes against the same starting
    capacity, so the comparison isolates decision quality.
    """
    results = []
    for seed in seeds:
        cfg = copy.deepcopy(config)
        cfg["seed"] = seed

        # DAPT pass
        world = build_world(cfg)
        topology = world.topology
        bootstrap_clusters(topology)
        ledger = CapacityLedger(topology)
        dapt_placements = []
        for setup in world.devices:
            plc = _place_device_dapt(topology, ledger, setup, world.weights,
                                     world.profile)
            dapt_placements.append((setup, plc))
        dapt_cost = 0.0
        for setup, plc in dapt_placements:
            schedule_set = build_schedules(setup.dag)
            dapt_cost += cost_model.app_cost(topology, setup.dag, plc, schedule_set,
                                             world.weights, world.profile)

        # Oracle pass on a fresh copy of the same world
        world2 = build_world(cfg)
        topo2 = world2.topology
        bootstrap_clusters(topo2)
        candidates = topo2.fog_servers()
        free = {sid: topo2.node(sid).container_capacity for sid in candidates}
        oracle_cost = 0.0
        complete = True
        for setup in world2.devices:
            schedule_set = build_schedules(setup.dag)
            base = Placement(setup.dag.app_id)
            for m in setup.dag.modules:
                if m.pinned_to_device:
                    base.assignment[m.id] = setup.sid
            res = oracle.optimal_placement(
                topo2, setup.dag, world2.weights, world2.profile, candidates,
                capacity_free=free, schedule_set=schedule_set,
                base_placement=base, node_budget=node_budget)
            complete = complete and res.complete
            oracle_cost += res.cost
            for mid in setup.dag.unpinned():
                free[res.placement.assignment[mid]] -= 1
        results.append(OptimalityResult(seed=seed, dapt_cost=dapt_cost,
                                        oracle_cost=oracle_cost, complete=complete))
    return results
