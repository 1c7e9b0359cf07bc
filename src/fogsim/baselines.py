"""Baseline planners, edgeward MAAS and centralized Urmila, and Urmila's request
queue; `scenario.Policy` says how the engine runs each baseline."""
from __future__ import annotations

from typing import Sequence

from .app_model import AppDag
from .cost_model import CostWeights, DeviceEnergyProfile, Placement
from .placement import CapacityLedger, PlacementError, PlacementPlan, _greedy
from .topology import ServerId, Topology


def maas_place(topology: Topology, ledger: CapacityLedger, controller: ServerId,
               dag: AppDag, placement: Placement, ordered: Sequence[str],
               weights: CostWeights, profile: DeviceEnergyProfile) -> PlacementPlan:
    """Edgeward placement: fill this server in the given order, escalate the rest upward."""
    return _greedy(topology, ledger, controller, [controller], dag, placement,
                   ordered, weights, profile)


def urmila_place(topology: Topology, ledger: CapacityLedger, central: ServerId,
                 dag: AppDag, placement: Placement, ordered: Sequence[str],
                 weights: CostWeights, profile: DeviceEnergyProfile) -> PlacementPlan:
    """Central greedy: cheapest capacity-holding server anywhere, per module in the given order.

    Every decision, the central server's own included, holds no slot until
    its target confirms it, as in the distributed placement.
    """
    plan = _greedy(topology, ledger, central, topology.fog_servers(), dag, placement,
                   ordered, weights, profile)
    if plan.escalated:
        raise PlacementError(f"no capacity anywhere for {plan.escalated[0]} (central)")
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
