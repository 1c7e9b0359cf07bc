"""Exact placement optimum via branch and bound, plus an exhaustive reference.

The search assigns unpinned modules in schedule order (rank-descending inside
a schedule) so every partial assignment has all predecessors fixed and its
prefix cost is exact. The lower bound adds, per schedule, the best exact cost
seen among placed modules and the cheapest possible execution-only cost among
unplaced ones; both never exceed the true schedule cost.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from . import cost_model
from .app_model import AppDag, ScheduleSet, build_schedules, rank_modules, rank_order
from .cost_model import CostWeights, DeviceEnergyProfile, Placement
from .topology import ServerId, Topology

DEFAULT_NODE_BUDGET = 10_000_000
_TIE_EPS = 1e-12


@dataclass
class OracleResult:
    placement: Optional[Placement]
    cost: float
    complete: bool
    nodes_explored: int


def _module_weighted(topology, dag, placement, profile, weights, module_id) -> float:
    t = cost_model.module_time(topology, dag, placement, module_id)
    e = cost_model.module_energy(topology, dag, placement, profile, module_id)
    return weights.w1 * t + weights.w2 * e


def optimal_placement(topology: Topology, dag: AppDag, weights: CostWeights,
                      profile: DeviceEnergyProfile,
                      candidates: Sequence[ServerId],
                      capacity_free: Optional[Dict[ServerId, int]] = None,
                      schedule_set: Optional[ScheduleSet] = None,
                      base_placement: Optional[Placement] = None,
                      node_budget: int = DEFAULT_NODE_BUDGET) -> OracleResult:
    """Minimum weighted application cost over all feasible assignments.

    `capacity_free` caps how many modules may land on each candidate; when
    omitted, capacity is unconstrained. On budget exhaustion the incumbent is
    returned with complete=False.
    """
    if schedule_set is None:
        schedule_set = build_schedules(dag)
    candidates = sorted(set(candidates))
    ranked = rank_modules(dag, schedule_set, candidates, weights, topology, profile)
    order = rank_order(ranked, dag.unpinned())
    free = dict(capacity_free) if capacity_free is not None else None

    placement = base_placement.copy() if base_placement else Placement(dag.app_id)
    for m in dag.modules:
        if m.pinned_to_device and m.id not in placement.assignment:
            raise ValueError(f"pinned module {m.id} needs a preset server")

    # Cheapest execution-only cost per unplaced module, for the bound.
    min_exec = {}
    per_module_cands = {}
    for mid in order:
        scored = sorted(
            ((cost_model.exec_cost(topology, dag, weights, profile, mid, sid), sid)
             for sid in candidates),
            key=lambda it: (it[0], it[1]))
        min_exec[mid] = scored[0][0] if scored else 0.0
        per_module_cands[mid] = [sid for _, sid in scored]

    sched_of = {mid: schedule_set.order_of[mid] for mid in order}
    sched_positions = sorted({schedule_set.order_of[m.id] for m in dag.modules})

    best_cost = float("inf")
    best_assign: Optional[Tuple[ServerId, ...]] = None
    nodes = 0
    complete = True
    n = len(order)
    placed_cost: Dict[int, float] = {pos: 0.0 for pos in sched_positions}

    def bound(depth: int) -> float:
        total = 0.0
        per_sched: Dict[int, float] = dict(placed_cost)
        for mid in order[depth:]:
            pos = sched_of[mid]
            per_sched[pos] = max(per_sched.get(pos, 0.0), min_exec[mid])
        return sum(per_sched.values())

    stack_assign: List[ServerId] = []

    def dfs(depth: int):
        nonlocal best_cost, best_assign, nodes, complete
        if not complete:
            return
        if depth == n:
            cost = cost_model.app_cost(topology, dag, placement, schedule_set,
                                       weights, profile)
            key = tuple(stack_assign)
            if cost < best_cost - _TIE_EPS or \
                    (abs(cost - best_cost) <= _TIE_EPS and
                     (best_assign is None or key < best_assign)):
                best_cost = cost
                best_assign = key
            return
        mid = order[depth]
        pos = sched_of[mid]
        saved = placed_cost[pos]
        for sid in per_module_cands[mid]:
            if free is not None and free.get(sid, 0) <= 0:
                continue
            nodes += 1
            if nodes > node_budget:
                complete = False
                return
            placement.assignment[mid] = sid
            placed_cost[pos] = max(
                saved, _module_weighted(topology, dag, placement, profile, weights, mid))
            if bound(depth + 1) <= best_cost + _TIE_EPS:
                if free is not None:
                    free[sid] -= 1
                stack_assign.append(sid)
                dfs(depth + 1)
                stack_assign.pop()
                if free is not None:
                    free[sid] += 1
            placed_cost[pos] = saved
            del placement.assignment[mid]
            if not complete:
                return

    dfs(0)
    if best_assign is None:
        return OracleResult(None, float("inf"), complete, nodes)
    final = placement.copy()
    for mid, sid in zip(order, best_assign):
        final.assignment[mid] = sid
    return OracleResult(final, best_cost, complete, nodes)


def exhaustive_optimal(topology: Topology, dag: AppDag, weights: CostWeights,
                       profile: DeviceEnergyProfile,
                       candidates: Sequence[ServerId],
                       capacity_free: Optional[Dict[ServerId, int]] = None,
                       schedule_set: Optional[ScheduleSet] = None,
                       base_placement: Optional[Placement] = None) -> OracleResult:
    """Brute-force reference: enumerates every assignment. Test-scale only."""
    if schedule_set is None:
        schedule_set = build_schedules(dag)
    candidates = sorted(set(candidates))
    ranked = rank_modules(dag, schedule_set, candidates, weights, topology, profile)
    order = rank_order(ranked, dag.unpinned())
    placement = base_placement.copy() if base_placement else Placement(dag.app_id)
    best_cost = float("inf")
    best_assign = None
    nodes = 0
    for combo in itertools.product(candidates, repeat=len(order)):
        nodes += 1
        if capacity_free is not None:
            used: Dict[ServerId, int] = {}
            ok = True
            for sid in combo:
                used[sid] = used.get(sid, 0) + 1
                if used[sid] > capacity_free.get(sid, 0):
                    ok = False
                    break
            if not ok:
                continue
        for mid, sid in zip(order, combo):
            placement.assignment[mid] = sid
        cost = cost_model.app_cost(topology, dag, placement, schedule_set,
                                   weights, profile)
        if cost < best_cost - _TIE_EPS or \
                (abs(cost - best_cost) <= _TIE_EPS and
                 (best_assign is None or combo < best_assign)):
            best_cost = cost
            best_assign = combo
    for mid in order:
        placement.assignment.pop(mid, None)
    if best_assign is None:
        return OracleResult(None, float("inf"), True, nodes)
    final = placement.copy()
    for mid, sid in zip(order, best_assign):
        final.assignment[mid] = sid
    return OracleResult(final, best_cost, True, nodes)
