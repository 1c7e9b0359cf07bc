"""Mobility-driven migration management.

When a device is about to leave its serving coverage, the old controller
picks a new controller (mobility-aware: longest expected sojourn among
cluster-reachable candidates), and the new controller coordinates moving the
device's containers layer by layer, schedule by schedule, keeping every move
within the admissibility slack of the current application cost.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from . import cost_model
from .app_model import AppDag
from .cost_model import (CostWeights, DeviceEnergyProfile, MigrationCost,
                         MigrationParams, Placement)
from .placement import CapacityLedger
from .topology import ServerId, Topology


def estimate_sojourn(position: Tuple[float, float], velocity: Tuple[float, float],
                     center: Tuple[float, float], radius: float) -> float:
    """Seconds a straight-line mover spends inside a coverage circle from now on.

    Zero when the path never crosses the circle ahead of the mover, or when
    the mover is stationary.
    """
    dx = position[0] - center[0]
    dy = position[1] - center[1]
    a = velocity[0] ** 2 + velocity[1] ** 2
    if a == 0.0:
        return 0.0
    b = 2.0 * (dx * velocity[0] + dy * velocity[1])
    c = dx * dx + dy * dy - radius * radius
    disc = b * b - 4.0 * a * c
    if disc <= 0.0:
        return 0.0
    root = math.sqrt(disc)
    t1 = (-b - root) / (2.0 * a)
    t2 = (-b + root) / (2.0 * a)
    if t2 <= 0.0:
        return 0.0
    return t2 - max(t1, 0.0)


def departure_imminent(node_position: Tuple[float, float], radius: float,
                       device_position: Tuple[float, float],
                       velocity: Tuple[float, float], margin: float = 0.05) -> bool:
    """True when the device sits in the outer margin of the coverage circle
    and is heading outward, or has already left it."""
    dx = device_position[0] - node_position[0]
    dy = device_position[1] - node_position[1]
    dist = math.hypot(dx, dy)
    if dist > radius:
        return True
    if dist < (1.0 - margin) * radius:
        return False
    return dx * velocity[0] + dy * velocity[1] > 0.0


def cluster_reachable(topology: Topology, controller: ServerId) -> set:
    """Servers reachable laterally: cluster members and members-of-members."""
    members = set(topology.node(controller).cluster_members)
    second = set()
    for m in members:
        second.update(topology.nodes[m].cluster_members)
    second.discard(controller)
    return members | second


def analyze_mobility(topology: Topology, controller: ServerId,
                     device_position: Tuple[float, float],
                     velocity: Tuple[float, float], candidates: Sequence[ServerId],
                     required_slots: int, ledger: CapacityLedger, rng) -> ServerId:
    """Choose a departing device's next controller among `candidates` (at least one).

    Preference order: cluster-reachable candidate with the longest sojourn
    and enough free slots; then longest-sojourn reachable regardless of
    slots; then a seeded-random unreachable candidate.
    """
    reachable_set = cluster_reachable(topology, controller)
    reach = [s for s in candidates if s in reachable_set]
    unreach = [s for s in candidates if s not in reachable_set]

    def sojourn(sid: ServerId) -> float:
        node = topology.node(sid)
        return estimate_sojourn(device_position, velocity, node.position,
                                node.coverage_radius)

    with_slots = [s for s in reach if ledger.free(s) >= required_slots]
    pool = with_slots or reach
    if pool:
        return max(pool, key=lambda s: (sojourn(s), -s.index))
    return rng.choice(sorted(unreach))


def remaining_instructions(total_mi: float, cpu_mips: float, interval_s: float,
                           pipeline_offset_s: float, at_time_s: float,
                           service_start_s: float) -> float:
    """Unexecuted instructions of the task in flight at suspension time.

    The module starts each task at emission + pipeline offset and runs for
    total/cpu seconds; outside that execution window the container is idle
    and there is nothing to catch up.
    """
    if total_mi <= 0 or at_time_s < service_start_s:
        return 0.0
    t_exe = total_mi / cpu_mips
    rel = at_time_s - service_start_s - pipeline_offset_s
    if rel < 0:
        return 0.0
    phase = rel % interval_s
    if phase < t_exe:
        return total_mi * (1.0 - phase / t_exe)
    return 0.0


@dataclass
class MigrationDecision:
    module: str
    frm: ServerId
    to: Optional[ServerId]
    cost: Optional[MigrationCost]


def plan_rounds(topology: Topology, new_controller: ServerId, dag: AppDag,
                placement: Placement, central: Optional[ServerId] = None,
                exclude: Sequence[str] = ()) -> List[Dict[ServerId, List[str]]]:
    """Group movable modules per schedule into one round each, a mapping
    from decider to the modules it decides.

    Modules previously served at layer L are decided by the new controller's
    ancestor at layer L (the controller itself for layer 1). With a central
    decider set, everything funnels there instead.
    """
    rounds = []
    skip = set(exclude)
    for group in dag.schedules:
        rnd: Dict[ServerId, List[str]] = {}
        movable = [m for m in group
                   if not dag.module_map[m].pinned_to_device and m not in skip]
        movable.sort(key=lambda m: (-dag.module_map[m].container_ram_mb, m))
        for mid in movable:
            decider = central or topology.ancestor_at_level(new_controller,
                                                            placement[mid].level)
            rnd.setdefault(decider, []).append(mid)
        if rnd:
            rounds.append(rnd)
    return rounds


def migration_candidates(topology: Topology, decider: ServerId) -> List[ServerId]:
    """Ready servers for migration decisions: cluster members, self, children."""
    node = topology.node(decider)
    out = sorted(node.cluster_members)
    out.append(decider)
    out.extend(sorted(c for c in node.children if c.level >= 1))
    return out


def handle_migration_req(topology: Topology, ledger: CapacityLedger,
                         dag: AppDag, working: Placement, modules: Sequence[str],
                         weights: CostWeights, profile: DeviceEnergyProfile,
                         params: MigrationParams,
                         dump_bits_of, remaining_mi_of,
                         candidates: Sequence[ServerId],
                         exclude: Sequence[ServerId] = (),
                         check_admissibility: bool = True,
                         costs: Optional[cost_model.CostTable] = None
                         ) -> List[MigrationDecision]:
    """Decide destinations for the given modules at one decider.

    Candidates are scored by migration cost ascending; the cheapest one whose
    resulting application cost stays admissible wins. Staying put is a valid
    outcome when the old server is among the candidates. Modules with no
    admissible capacity-holding candidate come back with `to` None. With the
    admissibility check off, the cheapest capacity-holding candidate is
    committed outright.

    Staying leaves the application cost as it is, so it is admissible without
    pricing. The working placement's per-module costs are `costs` when given
    (`cost_model.module_cost` of every module on entry; never written), or
    else priced once, when the first move is tried. A trial move re-prices
    a copy with `cost_model.reprice`, and an accepted move's costs become
    the next module's old ones. The result equals pricing every
    candidate with `cost_model.app_cost`.
    """
    skip = set(exclude)
    candidates = [c for c in candidates if c not in skip]
    decisions = []
    old_cost = None  # the working placement's weighted cost, on first need
    for module_id in modules:
        frm = working[module_id]
        dump_bits = dump_bits_of(module_id)
        remaining = remaining_mi_of(module_id)
        scored = []
        for cand in candidates:
            if cand != frm and ledger.free(cand) <= 0:
                continue
            mc = cost_model.module_migration_cost(
                topology, profile, params, weights, dump_bits, frm, cand, remaining)
            scored.append((mc.weighted, cand.level, cand.index, cand, mc))
        scored.sort(key=lambda item: item[:3])
        chosen = None
        for _, _, _, cand, mc in scored:
            if not check_admissibility or cand == frm:
                chosen = (cand, mc)
                break
            if old_cost is None:
                if costs is None:
                    costs = cost_model.reprice(topology, dag, working, profile, {})
                old_cost = weights.weigh(*cost_model.schedule_offsets(dag, costs)[-1])
            working[module_id] = cand
            trial = cost_model.reprice(topology, dag, working, profile, dict(costs),
                                       [module_id])
            working[module_id] = frm
            new_cost = weights.weigh(*cost_model.schedule_offsets(dag, trial)[-1])
            if cost_model.migration_admissible(old_cost, new_cost,
                                               params.epsilon_frac * old_cost):
                chosen = (cand, mc)
                costs, old_cost = trial, new_cost
                break
        if chosen is None:
            decisions.append(MigrationDecision(module_id, frm, None, None))
            continue
        cand, mc = chosen
        working[module_id] = cand
        decisions.append(MigrationDecision(module_id, frm, cand, mc))
    return decisions


def mmt_failure_recovery(*args, failed: ServerId, exclude: Sequence[ServerId] = (),
                         **kw) -> List[MigrationDecision]:
    """Re-decide modules after their migration target `failed` did not confirm.

    `handle_migration_req` with `failed` added to `exclude` (the targets
    that failed before); every other argument is passed on as given. A
    module that finds no target here comes back with `to` None and stays at
    its old server; recovery does not escalate. The working placement must
    hold the modules at their old servers on entry.
    """
    return handle_migration_req(*args, exclude=[*exclude, failed], **kw)
