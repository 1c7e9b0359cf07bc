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
from .app_model import AppDag
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
class PlacementPlan:
    """The modules a planner escalates; each pick it made is in the placement."""
    escalated: List[str] = field(default_factory=list)


def ready_servers(topology: Topology, controller: ServerId) -> List[ServerId]:
    """Controller itself, its cluster members (sorted), then its parent."""
    node = topology.node(controller)
    out = [controller]
    out.extend(sorted(node.cluster_members))
    if node.parent is not None:
        out.append(node.parent)
    return out


def marginal_cost(topology: Topology, dag: AppDag, placement: Placement,
                  module_id: str, candidates: Sequence[ServerId], weights: CostWeights,
                  profile: DeviceEnergyProfile) -> List[float]:
    """Weighted cost the module adds on each candidate, predecessors fixed."""
    return [weights.weigh(t, e) for t, e in cost_model.module_costs(
        topology, dag, placement, profile, module_id, candidates)]


def find_min_cost(topology: Topology, ledger: CapacityLedger,
                  candidates: Sequence[ServerId], dag: AppDag, placement: Placement,
                  module_id: str, weights: CostWeights, profile: DeviceEnergyProfile,
                  pending: Optional[Dict[ServerId, int]] = None) -> Optional[ServerId]:
    """Cheapest capacity-holding candidate for the module, or None.

    A lone candidate with room is taken without scoring. Otherwise every
    candidate is priced, full or not, the candidates are sorted by (weighted
    cost, server id), so ties go to the lower level, then the lower index,
    and the first with room is taken. The order is kept in
    `topology.order_cache` under everything it reads: the candidates, the
    DAG's shape and the module's id (which fix its incoming flows), weights,
    profile and its predecessors' servers, each by `Topology.held`, as routes
    hold them. An order over a device candidate is not kept, as that
    device's routes move when it is handed over.
    """
    pending = pending or {}
    first = None
    for c in candidates:
        if ledger.free(c) - pending.get(c, 0) > 0:
            if first is not None:
                break
            first = c
    else:
        return first
    key = (tuple(candidates), dag.shape, module_id, weights, profile,
           *[topology.held(placement[flow.src]) for flow in dag.preds[module_id]])
    order = topology.order_cache.get(key)
    if order is None:
        cost = dict(zip(candidates, marginal_cost(topology, dag, placement, module_id,
                                                  candidates, weights, profile)))
        order = sorted(candidates, key=lambda c: (cost[c], c))
        if all(c.level for c in candidates):
            topology.order_cache[key] = order
    # Two candidates have room, so the walk returns one.
    for c in order:
        if ledger.free(c) - pending.get(c, 0) > 0:
            return c


def dapt_place(topology: Topology, ledger: CapacityLedger, controller: ServerId,
               dag: AppDag, placement: Placement, ordered: Sequence[str],
               weights: CostWeights, profile: DeviceEnergyProfile) -> PlacementPlan:
    """Place the given modules, in the given order, from this controller; mutates `placement`."""
    return _greedy(topology, ledger, controller, ready_servers(topology, controller),
                   dag, placement, ordered, weights, profile)


def _greedy(topology: Topology, ledger: CapacityLedger, controller: ServerId,
            candidates: Sequence[ServerId], dag: AppDag, placement: Placement,
            ordered: Sequence[str], weights: CostWeights,
            profile: DeviceEnergyProfile) -> PlacementPlan:
    """Put each module, in the given order, on its cheapest candidate, and
    write the pick into `placement`.

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
                               module_id, weights, profile, pending)
        if choice is None:
            if parent is None:
                raise PlacementError(
                    f"no capacity anywhere for module {module_id} at {controller}")
            plan.escalated.extend(ordered[idx:])
            break
        placement[module_id] = choice
        pending[choice] = pending.get(choice, 0) + 1
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
