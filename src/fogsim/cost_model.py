"""Weighted time/energy cost model over the hierarchical topology.

Routing follows the seven next-hop rules: climb while the destination is
higher, descend through a child whose closure holds the destination,
otherwise try a cluster member with such a closure, and climb as a last
resort. Same-level traffic prefers the cluster, falling back upward.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

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

def next_hop(topology: Topology, current: ServerId, dest: ServerId) -> Tuple[str, ServerId]:
    """One routing step; returns (hop kind, next server).

    Kinds: "arrived", "up", "down", "cluster". Upward fallbacks for lateral
    traffic are still charged as up hops.

    dest lies in a node's descendant closure exactly when the node is dest's
    ancestor at its own level. Children sit one level down and cluster
    members on this node's level, so one ancestor lookup names the only
    child, and the only member, that can hold dest.
    """
    if current == dest:
        return ("arrived", current)
    if current not in topology.nodes or dest not in topology.nodes:
        raise RoutingError(f"route endpoints missing: {current} -> {dest}")
    node = topology.nodes[current]
    if current.level >= dest.level:
        peer = dest
        if current.level > dest.level:
            below = topology.ancestor_at_level(dest, current.level - 1)
            if below in node.children:
                return ("down", below)
            peer = None if below is None else topology.nodes[below].parent
        if peer in node.cluster_members:
            return ("cluster", peer)
    if node.parent is None:
        raise RoutingError(f"no route from {current} to {dest}: dead end going up")
    return ("up", node.parent)


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
    `Topology.held` of the device, and a handover invalidates nothing.
    A device's route to itself keeps its own key.
    """
    cache = topology.route_cache
    key = (src, dest)
    rec = cache.get(key)
    if rec is not None:
        return rec
    if src != dest and (src.level == 0 or dest.level == 0):
        key = (topology.held(src), topology.held(dest))
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


def mean_transfer_costs(topology: Topology, profile: DeviceEnergyProfile,
                        weights: CostWeights, servers: List[ServerId],
                        payloads: Iterable[float]) -> Dict[float, float]:
    """Per distinct payload, the weighted transfer cost averaged over ordered server pairs.

    Each of the n * n ordered pairs of `servers` adds w1 * seconds + w2 *
    energy, a same-server pair adding nothing, and the sum is divided by
    n * n. Between fog servers a transfer depends only on its route's
    bandwidths, so each distinct bandwidth tuple is priced once per payload;
    the pairs' terms are still added one by one in (a, b) order.
    """
    devices = [sid for sid in servers if sid.level == 0]
    if devices:
        raise ValueError("transfer costs are averaged over fog servers only, got "
                         + ", ".join(map(str, devices)))
    payloads = list(dict.fromkeys(payloads))
    if not payloads:
        return {}
    slot_of: Dict[Tuple[float, ...], int] = {}
    shapes = []     # (bandwidths, a, b) of each distinct route shape
    slots = []      # each pair's shape, in (a, b) order
    for a in servers:
        for b in servers:
            if a == b:
                continue
            bws = _cached_route(topology, a, b).bws
            slot = slot_of.get(bws)
            if slot is None:
                slot = slot_of[bws] = len(shapes)
                shapes.append((bws, a, b))
            slots.append(slot)
    n = len(servers)
    out = {}
    for bits in payloads:
        prices = []
        for bws, a, b in shapes:
            prices.append(weights.weigh(*_transfer(profile, bws, bits, a, b)))
        total = 0.0
        for slot in slots:
            total += prices[slot]
        out[bits] = total / (n * n)
    return out


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

def module_costs(topology: Topology, dag: AppDag, placement: Placement,
                 profile: DeviceEnergyProfile, module_id: str,
                 servers: Sequence[ServerId]) -> List[Tuple[float, float]]:
    """(time, energy) of one module on each of `servers`, its incoming flows read once.

    Time is execution plus the worst incoming latency plus the worst incoming
    transfer time. Energy is device-centric: execution (or idle wait), latency
    billed at idle power, and transfer. The placement is only read, and needs
    no entry for the module. Routes are read under the keys `_cached_route`
    stores them by, and a miss is built through it. Into a fog server a
    flow's transfer depends only on the route's bandwidths, so over many
    servers each flow prices each distinct bandwidth tuple once.
    """
    nodes = topology.nodes
    cache = topology.route_cache
    held = topology.held
    p_idle = profile.p_idle_w
    flows = []
    for flow in dag.preds[module_id]:
        src = placement[flow.src]
        flows.append((src, held(src), flow.instructions_mi, flow.payload_bits, {}))
    many = len(servers) > 1
    out = []
    for server in servers:
        cpu_mips = nodes[server].cpu_mips
        fog = server.level != 0
        share = many and fog
        held_server = held(server)
        # On the device the CPU burns p_cpu; offloaded work leaves the device
        # idling for exactly the remote execution time.
        p_exe = p_idle if fog else profile.p_cpu_w
        t_exe = t_lat = t_tra = 0.0
        e_exe = e_lat = e_tra = 0.0
        for src, held_src, mi, bits, priced in flows:
            flow_exe = mi / cpu_mips
            rec = cache.get((src, server) if src == server else (held_src, held_server))
            if rec is None:
                rec = _cached_route(topology, src, server)
            lat = rec.lat
            tra = priced.get(rec.bws) if share else None
            if tra is None:
                tra = _transfer(profile, rec.bws, bits, src, server)
                if share:
                    priced[rec.bws] = tra
            tra_s, tra_e = tra
            # Each `if` keeps the larger value exactly as `max(old, new)` does.
            t_exe += flow_exe
            if lat > t_lat:
                t_lat = lat
            if tra_s > t_tra:
                t_tra = tra_s
            e_exe += flow_exe * p_exe
            lat_e = lat * p_idle
            if lat_e > e_lat:
                e_lat = lat_e
            if tra_e > e_tra:
                e_tra = tra_e
        out.append((t_exe + t_lat + t_tra, e_exe + e_lat + e_tra))
    return out


def module_cost(topology: Topology, dag: AppDag, placement: Placement,
                profile: DeviceEnergyProfile, module_id: str) -> Tuple[float, float]:
    """(time, energy) of one module on its own server: the one-server case of
    `module_costs`."""
    return module_costs(topology, dag, placement, profile, module_id,
                        (placement[module_id],))[0]


def module_time(topology: Topology, dag: AppDag, placement: Placement,
                module_id: str) -> float:
    """Time part of `module_cost`, which no energy profile changes."""
    return module_cost(topology, dag, placement, _TIME_ONLY, module_id)[0]


def module_energy(topology: Topology, dag: AppDag, placement: Placement,
                  profile: DeviceEnergyProfile, module_id: str) -> float:
    """Energy part of `module_cost`."""
    return module_cost(topology, dag, placement, profile, module_id)[1]


def exec_cost(topology: Topology, weights: CostWeights, profile: DeviceEnergyProfile,
              incoming_mi: float, sid: ServerId) -> float:
    """Weighted execution-only cost on one server of a module whose incoming
    flows sum to `incoming_mi` (`AppDag.incoming_mi`), transfers ignored."""
    t = incoming_mi / topology.node(sid).cpu_mips
    p = profile.p_cpu_w if sid.level == 0 else profile.p_idle_w
    return weights.w1 * t + weights.w2 * t * p


# Per-module (time, energy) of one placement, as `module_cost` prices them.
CostTable = Dict[str, Tuple[float, float]]


def reprice(topology: Topology, dag: AppDag, placement: Placement,
            profile: DeviceEnergyProfile, costs: CostTable,
            moved: Optional[Iterable[str]] = None) -> CostTable:
    """Write into `costs` the `module_cost` of each moved module and each of
    its successors, once each (of every module when `moved` is None), and
    return `costs`. A module's cost reads only its own and its predecessors'
    servers; a handover moves the modules on the device."""
    if moved is None:
        todo = dag.module_map
    else:
        todo = {}
        for mid in moved:
            todo[mid] = None
            for flow in dag.succs[mid]:
                todo[flow.dst] = None
    for mid in todo:
        costs[mid] = module_cost(topology, dag, placement, profile, mid)
    return costs


def schedule_cost(costs: CostTable, modules: List[str]) -> Tuple[float, float]:
    """(time, energy) of one schedule: the max over its modules' table
    entries (they run in parallel)."""
    t = 0.0
    e = 0.0
    for mid in modules:
        mt, me = costs[mid]
        # Each `if` keeps the larger value exactly as `max(old, new)` does.
        if mt > t:
            t = mt
        if me > e:
            e = me
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


def schedule_offsets(dag: AppDag, costs: CostTable) -> List[Tuple[float, float]]:
    """Running (time, energy) totals over the schedules, added left to right.

    Entry p sums the schedules before the p-th (counting from 0), so the
    first entry is (0.0, 0.0) and the last is the whole application.
    """
    total_t = 0.0
    total_e = 0.0
    out = [(total_t, total_e)]
    for modules in dag.schedules:
        t, e = schedule_cost(costs, modules)
        total_t += t
        total_e += e
        out.append((total_t, total_e))
    return out


def priced(topology: Topology, dag: AppDag, placement: Placement,
           profile: DeviceEnergyProfile, costs: Optional[CostTable] = None,
           moved: Optional[Iterable[str]] = None) -> Tuple[CostTable, tuple, tuple]:
    """(table, running times, total) of `placement`: every module's `module_cost`,
    then the time column and the last entry of `schedule_offsets` over it.

    Only this reads and fills `topology.table_cache`, keyed by all that
    `module_cost` reads: the shape, the profile, each module's `Topology.held`
    server and each level-0 server's speed (one DAG sits on one device). A
    miss re-prices what `moved` reaches in a copy of `costs` (every module
    when `costs` is None) and stores it; a stored table is never written.
    """
    servers = [placement[mid] for mid in dag.module_map]
    key = (dag.shape, profile, *map(topology.held, servers),
           *[topology.nodes[sid].cpu_mips for sid in servers if sid.level == 0])
    hit = topology.table_cache.get(key)
    if hit is None:
        table = reprice(topology, dag, placement, profile, dict(costs or {}),
                        None if costs is None else moved)
        totals = schedule_offsets(dag, table)
        hit = topology.table_cache[key] = (table, tuple(t for t, _ in totals), totals[-1])
    return hit


def app_cost_breakdown(topology: Topology, dag: AppDag, placement: Placement,
                       profile: DeviceEnergyProfile) -> Tuple[float, float]:
    """(total time, total energy) summed over all schedules: every module
    priced, then the last entry of `schedule_offsets`."""
    return schedule_offsets(dag, reprice(topology, dag, placement, profile, {}))[-1]


def app_cost(topology: Topology, dag: AppDag, placement: Placement,
             weights: CostWeights, profile: DeviceEnergyProfile) -> float:
    """Weighted application cost: w1 * total time + w2 * total energy."""
    return weights.weigh(*app_cost_breakdown(topology, dag, placement, profile))


# -- migration -------------------------------------------------------------

@dataclass(frozen=True)
class MigrationCost:
    """A decided move's cost: the terms of `module_migration_cost`."""
    time_s: float
    energy_j: float
    weighted: float


def module_migration_cost(topology: Topology, profile: DeviceEnergyProfile,
                          params: MigrationParams, weights: CostWeights,
                          dump_bits: float, frm: ServerId, to: ServerId,
                          remaining_mi: float) -> Tuple[float, float, float]:
    """(time, energy, weighted) cost of moving one container from `frm` to `to`,
    as a plain tuple so that scoring many candidates builds no record.

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
    return time_s, energy_j, weights.weigh(time_s, energy_j)


def migration_admissible(old_app_cost: float, new_app_cost: float, epsilon: float) -> bool:
    """A migration is allowed when the new cost stays within epsilon of the old."""
    return new_app_cost <= old_app_cost + epsilon
