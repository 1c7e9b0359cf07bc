"""Distributed application placement: per-controller greedy over ready servers.

A controller places each unpinned module, schedule by schedule in rank order,
on the cheapest capacity-holding member of its ready-server list (itself, its
cluster members, its parent). Modules that fit nowhere escalate to the parent,
which repeats the same procedure one level up.

The baselines run the same greedy loop, `_greedy`, with another decider,
candidate list and module order (see `baselines`).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from . import cost_model
from .app_model import AppDag, rank_order
from .cost_model import CostWeights, DeviceEnergyProfile, Placement
from .topology import ServerId, Topology


class PlacementError(RuntimeError):
    """Raised when a module cannot be placed anywhere, cloud included."""


class CapacityLedger:
    """Authoritative container bookkeeping across all servers.

    Tracks slot usage against capacity and which (template, module) container
    types are already active per server, so repeat placements can scale a
    warm container instead of paying the cold startup.
    """

    def __init__(self, topology: Topology):
        self.topology = topology
        self.used: Dict[ServerId, int] = {}
        self.active_types: Dict[Tuple[ServerId, str, str], int] = {}

    def free(self, sid: ServerId) -> int:
        return self.topology.node(sid).container_capacity - self.used.get(sid, 0)

    def is_warm(self, sid: ServerId, template: str, module_id: str) -> bool:
        return self.active_types.get((sid, template, module_id), 0) > 0

    def reserve(self, sid: ServerId, template: str, module_id: str) -> bool:
        if self.free(sid) <= 0:
            return False
        self.used[sid] = self.used.get(sid, 0) + 1
        key = (sid, template, module_id)
        self.active_types[key] = self.active_types.get(key, 0) + 1
        return True

    def release(self, sid: ServerId, template: str, module_id: str):
        """Free one container; raises PlacementError when the server holds none of that type."""
        key = (sid, template, module_id)
        if self.active_types.get(key, 0) <= 0:
            raise PlacementError(
                f"release of {template}/{module_id} at {sid}, which holds no such container")
        self.used[sid] -= 1
        self.active_types[key] -= 1
        if self.active_types[key] <= 0:
            del self.active_types[key]


@dataclass
class PlacementDecision:
    module: str
    server: ServerId


@dataclass
class PlacementPlan:
    decisions: List[PlacementDecision] = field(default_factory=list)
    escalated: List[str] = field(default_factory=list)

    def by_server(self) -> Dict[ServerId, List[PlacementDecision]]:
        grouped: Dict[ServerId, List[PlacementDecision]] = {}
        for dec in self.decisions:
            grouped.setdefault(dec.server, []).append(dec)
        return grouped


def ready_servers(topology: Topology, controller: ServerId) -> List[ServerId]:
    """Controller itself, its cluster members (sorted), then its parent."""
    node = topology.node(controller)
    out = [controller]
    out.extend(sorted(node.cluster_members))
    if node.parent is not None:
        out.append(node.parent)
    return out


def marginal_cost(topology: Topology, dag: AppDag, placement: Placement,
                  module_id: str, candidate: ServerId, weights: CostWeights,
                  profile: DeviceEnergyProfile) -> float:
    """Weighted cost the module adds when run on the candidate, predecessors fixed."""
    return weights.weigh(*cost_model.module_cost(topology, dag, placement, profile,
                                                 module_id, at=candidate))


def find_min_cost(topology: Topology, ledger: CapacityLedger,
                  candidates: Sequence[ServerId], dag: AppDag, placement: Placement,
                  module_id: str, weights: CostWeights, profile: DeviceEnergyProfile,
                  pending: Optional[Dict[ServerId, int]] = None,
                  parent: Optional[ServerId] = None) -> Optional[ServerId]:
    """Cheapest capacity-holding candidate for the module, or None.

    Ties go to non-parent candidates first, then lower level, then lower index.
    A lone candidate with room is taken without scoring.
    """
    pending = pending or {}
    fits = [c for c in candidates if ledger.free(c) - pending.get(c, 0) > 0]
    if len(fits) < 2:
        return fits[0] if fits else None
    return min(fits, key=lambda c: (
        marginal_cost(topology, dag, placement, module_id, c, weights, profile),
        c == parent, c.level, c.index))


def dapt_place(topology: Topology, ledger: CapacityLedger, controller: ServerId,
               dag: AppDag, placement: Placement, ranked: Dict[int, List[str]],
               todo: Sequence[str], weights: CostWeights,
               profile: DeviceEnergyProfile) -> PlacementPlan:
    """Place the given modules, in rank order, from this controller; mutates `placement`."""
    return _greedy(topology, ledger, controller, ready_servers(topology, controller),
                   dag, placement, rank_order(ranked, todo), weights, profile)


def _greedy(topology: Topology, ledger: CapacityLedger, controller: ServerId,
            candidates: Sequence[ServerId], dag: AppDag, placement: Placement,
            ordered: Sequence[str], weights: CostWeights,
            profile: DeviceEnergyProfile) -> PlacementPlan:
    """Put each module, in the given order, on its cheapest candidate.

    Reserves nothing: each pick, the controller's own included, counts against
    its target's free slots until `handle_remote_placement` confirms it.
    Modules that fit nowhere are escalated with everything not yet decided,
    so the parent sees a consistent prefix.
    """
    plan = PlacementPlan()
    parent = topology.node(controller).parent
    pending: Dict[ServerId, int] = {}
    for idx, module_id in enumerate(ordered):
        choice = find_min_cost(topology, ledger, candidates, dag, placement,
                               module_id, weights, profile, pending, parent)
        if choice is None:
            if parent is None:
                raise PlacementError(
                    f"no capacity anywhere for module {module_id} at {controller}")
            plan.escalated.extend(ordered[idx:])
            break
        placement[module_id] = choice
        pending[choice] = pending.get(choice, 0) + 1
        plan.decisions.append(PlacementDecision(module_id, choice))
    return plan


def handle_remote_placement(ledger: CapacityLedger, server: ServerId, dag: AppDag,
                            modules: Sequence[str]) -> List[Tuple[str, bool, bool]]:
    """Confirm a plan's picks at their server, the decider's own included.

    Returns (module, accepted, warm) per module, warmth read before the slot
    is reserved. A module without a free slot is rejected and keeps no
    reservation; none is, as `_greedy` counts each pick against its target.
    """
    results = []
    for module_id in modules:
        warm = ledger.is_warm(server, dag.template, module_id)
        ok = ledger.reserve(server, dag.template, module_id)
        results.append((module_id, ok, warm))
    return results


def dapt_failure_recovery(topology: Topology, ledger: CapacityLedger,
                          controller: ServerId, failed: ServerId, dag: AppDag,
                          placement: Placement, modules: Sequence[str],
                          weights: CostWeights, profile: DeviceEnergyProfile) -> PlacementPlan:
    """Re-home modules whose target failed, in the given order, excluding that target.

    Falls back to escalation when the surviving ready servers are exhausted.
    Unused since no confirmation is rejected; `perfbench/layer_trace.py` patches it.
    """
    candidates = [c for c in ready_servers(topology, controller) if c != failed]
    return _greedy(topology, ledger, controller, candidates, dag, placement,
                   modules, weights, profile)
