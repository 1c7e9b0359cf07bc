"""Weighted time/energy cost model over the hierarchical topology.

Routing follows the seven next-hop rules: climb while the destination is
higher, descend through a child whose closure holds the destination,
otherwise try a cluster member with such a closure, and climb as a last
resort. Same-level traffic prefers the cluster, falling back upward.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, NamedTuple, Optional, Tuple

from .app_model import AppDag
from .topology import RoutingError, ServerId, Topology


@dataclass(frozen=True)
class CostWeights:
    """Relative importance of time (w1) versus energy (w2), each in [0, 1]."""
    w1: float = 0.5
    w2: float = 0.5

    def __post_init__(self):
        for name, val in (("w1", self.w1), ("w2", self.w2)):
            if not 0.0 <= val <= 1.0:
                raise ValueError(f"{name} must be within [0, 1], got {val}")

    def weigh(self, time_s: float, energy_j: float) -> float:
        """w1 * time + w2 * energy."""
        return self.w1 * time_s + self.w2 * energy_j


@dataclass(frozen=True)
class DeviceEnergyProfile:
    """IoT device power draw in watts for compute, idle, and radio transmit."""
    p_cpu_w: float = 0.9
    p_idle_w: float = 0.3
    p_tx_w: float = 1.3


# The profile of time-only queries, whose energy results are discarded.
_TIME_ONLY = DeviceEnergyProfile()


@dataclass(frozen=True)
class MigrationParams:
    """Migration knobs: stop/resume overhead, admissibility slack, dump size draw."""
    i_mig_s: float = 0.05
    epsilon_frac: float = 0.05
    dump_fraction: Tuple[float, float] = (0.05, 0.10)

    def __post_init__(self):
        for name, val in (("i_mig_s", self.i_mig_s), ("epsilon_frac", self.epsilon_frac)):
            if not (math.isfinite(val) and val >= 0.0):
                raise ValueError(f"{name} must be finite and >= 0, got {val}")
        frac = self.dump_fraction
        if not (isinstance(frac, (tuple, list)) and len(frac) == 2
                and 0.0 <= frac[0] <= frac[1] < math.inf):
            raise ValueError("dump_fraction must be a finite pair (lo, hi) with "
                             f"0 <= lo <= hi, got {frac!r}")


# Server assignment of one application's modules: module id -> server.
Placement = Dict[str, ServerId]


# -- next-hop routing ------------------------------------------------------

def _toward(topology: Topology, ids: Iterable[ServerId],
            dest: ServerId) -> Optional[ServerId]:
    """Lowest id among `ids` whose descendant closure holds dest, or None.

    dest lies in a node's closure exactly when the node is dest's ancestor at
    its own level, so the parent chain answers without building the closure.
    """
    best = None
    for sid in ids:
        if topology.ancestor_at_level(dest, sid.level) == sid:
            if best is None or sid < best:
                best = sid
    return best


def next_hop(topology: Topology, current: ServerId, dest: ServerId) -> Tuple[str, ServerId]:
    """One routing step; returns (hop kind, next server).

    Kinds: "arrived", "up", "down", "cluster". Upward fallbacks for lateral
    traffic are still charged as up hops.
    """
    if current == dest:
        return ("arrived", current)
    if current not in topology.nodes or dest not in topology.nodes:
        raise RoutingError(f"route endpoints missing: {current} -> {dest}")
    node = topology.nodes[current]

    def up():
        if node.parent is None:
            raise RoutingError(f"no route from {current} to {dest}: dead end going up")
        return ("up", node.parent)

    if current.level < dest.level:
        return up()
    if current.level > dest.level:
        child = _toward(topology, node.children, dest)
        if child is not None:
            return ("down", child)
        member = _toward(topology, node.cluster_members, dest)
        if member is not None:
            return ("cluster", member)
        return up()
    # same level, different index
    member = _toward(topology, node.cluster_members, dest)
    if member is not None:
        return ("cluster", member)
    return up()


def route(topology: Topology, src: ServerId, dest: ServerId) -> List[Tuple[str, ServerId, ServerId]]:
    """Full hop list [(kind, frm, to), ...]; empty when src == dest."""
    hops = []
    cur = src
    limit = 4 * (topology.max_fog_level + 2) + len(topology.nodes)
    while cur != dest:
        kind, nxt = next_hop(topology, cur, dest)
        hops.append((kind, cur, nxt))
        cur = nxt
        if len(hops) > limit:
            raise RoutingError(f"route {src} -> {dest} did not converge")
    return hops


def _hop_constant(kind: str, frm: ServerId, to: ServerId,
                  up: Dict[int, float], down: Dict[int, float],
                  cluster: Dict[int, float]) -> float:
    """The link constant of one hop from its kind's table.

    Down hops are keyed by the lower endpoint (the hop's destination), up and
    cluster hops by the level the hop leaves from.
    """
    if kind == "down":
        return down[to.level]
    if kind == "cluster":
        return cluster[frm.level]
    return up[frm.level]


class Route(NamedTuple):
    """A cached route's link constants, read once.

    `lat` is the latency constants summed in hop order and `bws` the per-hop
    bandwidths, so cost queries need not walk the hops again.
    """
    lat: float
    bws: Tuple[float, ...]


def _route_record(topology: Topology, hops) -> Route:
    """The `Route` of a hop list, its constants read from `topology.links`."""
    links = topology.links
    lat = 0.0
    bws = []
    for kind, frm, to in hops:
        lat += _hop_constant(kind, frm, to, links.lat_up, links.lat_down,
                             links.lat_cluster)
        bws.append(_hop_constant(kind, frm, to, links.bw_up, links.bw_down,
                                 links.bw_cluster))
    return Route(lat, tuple(bws))


def _cached_route(topology: Topology, src: ServerId, dest: ServerId) -> Route:
    """The `Route` of `route(src, dest)` through the topology's route cache.

    A device relays nothing and has no cluster edge, so its route leaves or
    enters through its parent by one hop whose constants are the same for
    every device. A route with a device endpoint is therefore cached under
    (parent, 0) in the device's place, and a handover invalidates nothing.
    A device's route to itself keeps its own key.
    """
    cache = topology.route_cache
    key = (src, dest)
    rec = cache.get(key)
    if rec is not None:
        return rec
    if src != dest and (src.level == 0 or dest.level == 0):
        key = ((topology.nodes[src].parent, 0) if src.level == 0 else src,
               (topology.nodes[dest].parent, 0) if dest.level == 0 else dest)
        rec = cache.get(key)
        if rec is not None:
            return rec
    rec = cache[key] = _route_record(topology, route(topology, src, dest))
    return rec


def _transfer(profile: DeviceEnergyProfile, bws: Tuple[float, ...],
              payload_bits: float, src: ServerId, dest: ServerId) -> Tuple[float, float]:
    """(seconds, device energy) of shipping a payload over a route's bandwidths.

    Seconds sum payload/bandwidth over the hops. Energy is device-centric:
    the device radio (p_tx) is charged only on the device-facing hop, the
    first hop when the source is a device and the last hop when the
    destination is one; every other second of transfer is billed at idle
    power. Both are zero when src == dest.
    """
    last = len(bws) - 1
    from_device = src.level == 0
    to_device = dest.level == 0
    seconds = 0.0
    energy = 0.0
    for pos, bw in enumerate(bws):
        hop_s = payload_bits / bw
        seconds += hop_s
        device_hop = (pos == 0 and from_device) or (pos == last and to_device)
        energy += hop_s * (profile.p_tx_w if device_hop else profile.p_idle_w)
    return seconds, energy


def transmission_cost(topology: Topology, profile: DeviceEnergyProfile,
                      payload_bits: float, src: ServerId, dest: ServerId) -> Tuple[float, float]:
    """(seconds, device energy) of a payload over the route, from one `_transfer`."""
    return _transfer(profile, _cached_route(topology, src, dest).bws,
                     payload_bits, src, dest)


def transmission_time(topology: Topology, payload_bits: float,
                      src: ServerId, dest: ServerId) -> float:
    """Sum of payload/bandwidth over every hop of the route; zero when src == dest."""
    return transmission_cost(topology, _TIME_ONLY, payload_bits, src, dest)[0]


def internodal_latency(topology: Topology, src: ServerId, dest: ServerId) -> float:
    """Sum of per-hop latency constants over the route; zero when src == dest."""
    return _cached_route(topology, src, dest).lat


# -- energy ----------------------------------------------------------------

def transmission_energy(topology: Topology, profile: DeviceEnergyProfile,
                        payload_bits: float, src: ServerId, dest: ServerId) -> float:
    """Device-centric transmission energy of a payload, as in `_transfer`."""
    return transmission_cost(topology, profile, payload_bits, src, dest)[1]


# -- module and application cost -------------------------------------------

def module_cost(topology: Topology, dag: AppDag, placement: Placement,
                profile: DeviceEnergyProfile, module_id: str,
                at: Optional[ServerId] = None) -> Tuple[float, float]:
    """(time, energy) of one module, from one walk over its incoming flows.

    Time is execution plus the worst incoming latency plus the worst incoming
    transfer time. Energy is device-centric: execution (or idle wait), latency
    billed at idle power, and transfer. Given `at`, the module is priced on
    that server instead of its own; the placement is only read, and needs
    no entry for the module.
    """
    server = placement[module_id] if at is None else at
    cpu_mips = topology.node(server).cpu_mips
    # On the device the CPU burns p_cpu; offloaded work leaves the device
    # idling for exactly the remote execution time.
    p_exe = profile.p_cpu_w if server.level == 0 else profile.p_idle_w
    t_exe = t_lat = t_tra = 0.0
    e_exe = e_lat = e_tra = 0.0
    for flow in dag.preds[module_id]:
        src = placement[flow.src]
        flow_exe = flow.instructions_mi / cpu_mips
        rec = _cached_route(topology, src, server)
        lat = rec.lat
        tra_s, tra_e = _transfer(profile, rec.bws, flow.payload_bits, src, server)
        t_exe += flow_exe
        t_lat = max(t_lat, lat)
        t_tra = max(t_tra, tra_s)
        e_exe += flow_exe * p_exe
        e_lat = max(e_lat, lat * profile.p_idle_w)
        e_tra = max(e_tra, tra_e)
    return t_exe + t_lat + t_tra, e_exe + e_lat + e_tra


def module_time(topology: Topology, dag: AppDag, placement: Placement,
                module_id: str) -> float:
    """Time part of `module_cost`, which no energy profile changes."""
    return module_cost(topology, dag, placement, _TIME_ONLY, module_id)[0]


def module_energy(topology: Topology, dag: AppDag, placement: Placement,
                  profile: DeviceEnergyProfile, module_id: str) -> float:
    """Energy part of `module_cost`."""
    return module_cost(topology, dag, placement, profile, module_id)[1]


def exec_cost(topology: Topology, dag: AppDag, weights: CostWeights,
              profile: DeviceEnergyProfile, module_id: str, sid: ServerId) -> float:
    """Weighted execution-only cost of a module on one server, transfers ignored."""
    t = dag.incoming_mi(module_id) / topology.node(sid).cpu_mips
    p = profile.p_cpu_w if sid.level == 0 else profile.p_idle_w
    return weights.w1 * t + weights.w2 * t * p


# Per-module (time, energy) of one placement, as `module_cost` prices them.
CostTable = Dict[str, Tuple[float, float]]


def schedule_cost(topology: Topology, dag: AppDag, placement: Placement,
                  profile: DeviceEnergyProfile, modules: List[str],
                  costs: Optional[CostTable] = None) -> Tuple[float, float]:
    """(time, energy) of one schedule: the max over its modules (they run in parallel).

    Given `costs`, the modules' costs are read from it instead of priced.
    """
    t = 0.0
    e = 0.0
    for mid in modules:
        mt, me = (costs[mid] if costs is not None
                  else module_cost(topology, dag, placement, profile, mid))
        t = max(t, mt)
        e = max(e, me)
    return t, e


def validate_placement(topology: Topology, dag: AppDag, placement: Placement,
                       capacity_used: Optional[Dict[ServerId, int]] = None) -> List[str]:
    """Check the placement constraints; returns a list of violations.

    C1: every module sits on exactly one known server.
    C2: no server holds more containers than its capacity (optionally against
        a global usage map, otherwise against this placement alone).
    """
    violations = []
    counts: Dict[ServerId, int] = dict(capacity_used) if capacity_used else {}
    for module in dag.modules:
        sid = placement.get(module.id)
        if sid is None or sid not in topology.nodes:
            violations.append(f"C1: module {module.id} has no valid server")
            continue
        if capacity_used is None and not module.pinned_to_device:
            counts[sid] = counts.get(sid, 0) + 1
    for sid, used in counts.items():
        cap = topology.node(sid).container_capacity
        if used > cap:
            violations.append(f"C2: server {sid} holds {used} containers, capacity {cap}")
    return violations


def app_cost_breakdown(topology: Topology, dag: AppDag, placement: Placement,
                       profile: DeviceEnergyProfile,
                       costs: Optional[CostTable] = None) -> Tuple[float, float]:
    """(total time, total energy) summed over all schedules, left to right.

    Given `costs`, every module's cost is read from it instead of priced.
    """
    total_t = 0.0
    total_e = 0.0
    for modules in dag.schedules:
        t, e = schedule_cost(topology, dag, placement, profile, modules, costs)
        total_t += t
        total_e += e
    return total_t, total_e


def app_cost(topology: Topology, dag: AppDag, placement: Placement,
             weights: CostWeights, profile: DeviceEnergyProfile) -> float:
    """Weighted application cost: w1 * total time + w2 * total energy."""
    return weights.weigh(*app_cost_breakdown(topology, dag, placement, profile))


# -- migration -------------------------------------------------------------

@dataclass(frozen=True)
class MigrationCost:
    time_s: float
    energy_j: float
    weighted: float


def module_migration_cost(topology: Topology, profile: DeviceEnergyProfile,
                          params: MigrationParams, weights: CostWeights,
                          dump_bits: float, frm: ServerId, to: ServerId,
                          remaining_mi: float) -> MigrationCost:
    """Cost of moving one container from `frm` to `to`.

    Time: route latency + stop/resume overhead + dump transfer + catching up
    the interrupted execution on the new server. Moving in place reads the
    empty route to itself, so it pays only the stop/resume overhead and the
    execution remainder.
    """
    t_exe = remaining_mi / topology.node(to).cpu_mips
    rec = _cached_route(topology, frm, to)
    t_lat = rec.lat
    t_tra, e_tra = _transfer(profile, rec.bws, dump_bits, frm, to)
    e_lat = t_lat * profile.p_idle_w  # latency billed at idle power
    time_s = t_lat + params.i_mig_s + t_tra + t_exe
    e_exe = t_exe * (profile.p_cpu_w if to.level == 0 else profile.p_idle_w)
    energy_j = e_lat + e_tra + e_exe
    return MigrationCost(time_s=time_s, energy_j=energy_j,
                         weighted=weights.w1 * time_s + weights.w2 * energy_j)


def migration_admissible(old_app_cost: float, new_app_cost: float, epsilon: float) -> bool:
    """A migration is allowed when the new cost stays within epsilon of the old."""
    return new_app_cost <= old_app_cost + epsilon
