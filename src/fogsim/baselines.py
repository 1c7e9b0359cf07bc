"""Baseline techniques: edgeward MAAS and centralized Urmila.

Both baselines run without clustering. MAAS controllers place on themselves
and push overflow straight up the hierarchy. Urmila funnels every placement
and migration request to the top-level fog server, which decides with global
knowledge and pays the hierarchy latency plus a FIFO service delay per
request.
"""
from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from .app_model import AppDag, ScheduleSet
from .cost_model import CostWeights, DeviceEnergyProfile, Placement
from .placement import (CapacityLedger, PlacementDecision, PlacementError,
                        PlacementPlan, marginal_cost)
from .topology import ServerId, Topology


def nearest_controller(sensed: Sequence[ServerId]) -> Optional[ServerId]:
    """Baselines pick the closest sensed fog server, no sojourn analysis."""
    return sensed[0] if sensed else None


def maas_place(topology: Topology, ledger: CapacityLedger, controller: ServerId,
               dag: AppDag, placement: Placement, schedule_set: ScheduleSet,
               todo: Sequence[str]) -> PlacementPlan:
    """Edgeward placement: fill this server, escalate the rest to the parent."""
    plan = PlacementPlan(controller=controller)
    todo_set = set(todo)
    ordered = []
    for group in schedule_set.schedules:
        ordered.extend(m for m in group if m in todo_set)
    node = topology.node(controller)
    for idx, module_id in enumerate(ordered):
        if ledger.free(controller) > 0:
            warm = ledger.is_warm(controller, dag.template, module_id)
            ledger.reserve(controller, dag.template, module_id)
            placement.assignment[module_id] = controller
            plan.decisions.append(PlacementDecision(module_id, controller, warm, remote=False))
        else:
            if node.parent is None:
                raise PlacementError(f"no capacity anywhere for {module_id} at {controller}")
            plan.escalated.extend(ordered[idx:])
            break
    return plan


def urmila_place(topology: Topology, ledger: CapacityLedger, central: ServerId,
                 dag: AppDag, placement: Placement, schedule_set: ScheduleSet,
                 ranked: Dict[int, List[str]], todo: Sequence[str],
                 weights: CostWeights, profile: DeviceEnergyProfile) -> PlacementPlan:
    """Central greedy: cheapest capacity-holding server anywhere, per module."""
    plan = PlacementPlan(controller=central)
    todo_set = set(todo)
    ordered = []
    for pos in sorted(ranked):
        ordered.extend(m for m in ranked[pos] if m in todo_set)
    servers = topology.fog_servers()
    for module_id in ordered:
        best = None
        best_key = None
        for cand in servers:
            if ledger.free(cand) <= 0:
                continue
            cost = marginal_cost(topology, dag, placement, module_id, cand,
                                 weights, profile)
            key = (cost, cand.level, cand.index)
            if best_key is None or key < best_key:
                best_key = key
                best = cand
        if best is None:
            raise PlacementError(f"no capacity anywhere for {module_id} (central)")
        ledger.reserve(best, dag.template, module_id)
        placement.assignment[module_id] = best
        warm = ledger.is_warm(best, dag.template, module_id)
        plan.decisions.append(PlacementDecision(module_id, best, warm, remote=(best != central)))
    return plan


class CentralQueue:
    """FIFO request queue of the Urmila controller with fixed service time."""

    def __init__(self, service_time_s: float = 0.001):
        self.service_time_s = service_time_s
        self.busy_until = 0.0

    def admit(self, arrival_s: float) -> float:
        """Returns the time the request's decision completes."""
        start = max(self.busy_until, arrival_s)
        self.busy_until = start + self.service_time_s
        return self.busy_until
