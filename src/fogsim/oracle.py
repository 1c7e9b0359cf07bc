"""Exact placement optimum via branch and bound.

The search assigns unpinned modules in schedule order (rank-descending inside
a schedule) so every partial assignment has all predecessors fixed and its
prefix cost is exact. The lower bound adds, per schedule, the largest of the
exact costs of its placed modules and the floors of its unplaced and pinned
modules. A module's floor at a server is its execution-only cost plus its
dearest incoming flow (latency plus transfer, weighted) whose source server
is known: a pinned source sits on its preset server, and for a pinned module
a searched source sits on some candidate, so it counts at the cheapest one.
A module's time is execution plus its worst latency plus its worst transfer,
so it is at least execution plus any one flow's latency and transfer, and so
is its energy; weights and powers are >= 0, so no floor exceeds the exact
cost. A floor adds its terms in another order than `cost_model.module_cost`,
so it can exceed that cost by a few ulps; `_TIE_EPS` in the prune test
absorbs that.

Walking one depth's candidates changes only the current schedule's term, so
each candidate's bound is `sum(tail, head + term)` over a head and tail fixed
per depth: the same double as summing every schedule, as CPython 3.11 adds
floats left to right. A module's memo row holds every candidate once, in
ascending weighted cost with equal costs in server-id order, filled and sorted
when its predecessors' servers first occur. Float addition is monotone, so the
bound never falls along a row, and the incumbent does not change while
siblings are pruned: the walk stops at the first pruned candidate, since every
later one would be pruned too. A full server only skips its own entry. Tests
check the search against an exhaustive reference kept in `tests/`.

`sequential_placement` places many applications one after another against
the capacity the earlier ones left, and every search of that pass shares one
memo, so applications of one template reuse each other's rows.
"""
from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from . import cost_model
from .app_model import AppDag, rank_modules
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


class _ModuleCosts:
    """Module-cost and floor memo for searches on one topology, profile,
    weights and candidate set.

    `rows` maps (row id, searched predecessors' servers) to a module's row:
    (server, time, energy, w1 * time + w2 * energy) per candidate, in
    ascending weighted cost and, among equal costs, in server-id order; a row
    depends only on its key while the candidates stay fixed. `row_ids`
    interns what a search holds fixed to a small int, hashed once per module,
    not once per node: the flows in, the pinned predecessors' servers and a
    pinned module's own server, whose row has that one entry. A floor reads
    no more than that, so `floors` maps (row id, server) to the module's
    `_module_floor` there.
    """

    def __init__(self):
        self.row_ids: Dict[tuple, int] = {}
        self.rows: Dict[tuple, List[tuple]] = {}
        self.floors: Dict[Tuple[int, ServerId], float] = {}

    def row_keys(self, topology: Topology, dag: AppDag,
                 fixed: Placement) -> Dict[str, Tuple[int, List[str]]]:
        """Per module, its row id and its searched predecessors.

        A row keys a device by `Topology.held`, as routes do, so a handover
        stales no row; a pinned module's own row also keys on the device it
        runs on.
        """
        out = {}
        for m in dag.modules:
            srcs = [flow.src for flow in dag.preds[m.id]]
            own = fixed.get(m.id)
            pins = [topology.held(fixed[src]) if src in fixed else None for src in srcs]
            key = (tuple(dag.preds[m.id]), own, own and topology.held(own), *pins)
            out[m.id] = (self.row_ids.setdefault(key, len(self.row_ids)),
                         [src for src in srcs if src not in fixed])
        return out


def _module_floor(topology: Topology, dag: AppDag, weights: CostWeights,
                  profile: DeviceEnergyProfile, candidates: Sequence[ServerId],
                  fixed: Placement, mid: str, servers: Sequence[ServerId]) -> List[float]:
    """Lower bounds on `mid`'s weighted `module_cost` on each of `servers`:
    its execution-only cost there plus its dearest incoming flow from a
    source whose server is known. `fixed` holds the modules the search never
    places; a flow from one of them leaves its server there, and a flow from
    a searched module into a fixed one leaves the cheapest of `candidates`.
    """
    mi = dag.incoming_mi(mid)
    known = []      # (payload, the servers it may leave) per flow with a known source
    for flow in dag.preds[mid]:
        if flow.src in fixed:
            known.append((flow.payload_bits, (fixed[flow.src],)))
        elif mid in fixed:
            known.append((flow.payload_bits, candidates))
    out = []
    for sid in servers:
        hop = 0.0
        for bits, srcs in known:
            cheapest = float("inf")
            for src in srcs:
                lat = cost_model.internodal_latency(topology, src, sid)
                t, e = cost_model.transmission_cost(topology, profile, bits, src, sid)
                cheapest = min(cheapest, weights.weigh(lat + t, lat * profile.p_idle_w + e))
            hop = max(hop, cheapest)
        out.append(cost_model.exec_cost(topology, weights, profile, mi, sid) + hop)
    return out


def optimal_placement(topology: Topology, dag: AppDag, weights: CostWeights,
                      profile: DeviceEnergyProfile,
                      candidates: Sequence[ServerId],
                      capacity_free: Dict[ServerId, int],
                      base_placement: Optional[Placement] = None,
                      node_budget: int = DEFAULT_NODE_BUDGET,
                      memo: Optional[_ModuleCosts] = None) -> OracleResult:
    """Minimum weighted application cost over all feasible assignments.

    `capacity_free` caps how many modules may land on each candidate; a
    candidate it does not name takes none. On budget exhaustion the
    incumbent is returned with complete=False. `memo` is the module-cost memo
    of the sequential pass this search belongs to, on the same candidates; a
    lone search keeps its own.
    """
    candidates = sorted(set(candidates))
    order = rank_modules(dag, candidates, weights, topology, profile)
    free = dict(capacity_free)

    assign = dict(base_placement or {})
    for m in dag.modules:
        if m.pinned_to_device and m.id not in assign:
            raise ValueError(f"pinned module {m.id} needs a preset server")

    # The modules the search never places, on their preset servers.
    fixed = {m.id: assign[m.id] for m in dag.modules if m.pinned_to_device}

    # A module's (time, energy) depends only on its incoming flows, its own
    # server and those of its predecessors, and its floor on less, so a
    # search computes each combination once, and a sequential pass once for
    # all its searches.
    if memo is None:
        memo = _ModuleCosts()
    row_key = memo.row_keys(topology, dag, fixed)
    floors = memo.floors

    def floors_of(mid: str, sids: Sequence[ServerId]) -> List[float]:
        """`mid`'s floor on each of `sids`."""
        keys = [(row_key[mid][0], sid) for sid in sids]
        if not all(k in floors for k in keys):
            floors.update(zip(keys, _module_floor(topology, dag, weights, profile,
                                                  candidates, fixed, mid, sids)))
        return [floors[k] for k in keys]

    n = len(order)
    # Schedule slot of each depth, and per depth the largest floor still to
    # come in each slot (0.0 where none is left): a searched module's is its
    # smallest over the candidates. Pinned modules are never placed, so
    # their floors sit in every depth's row.
    sched_positions = sorted({dag.order_of[m.id] for m in dag.modules})
    slot_of = {pos: i for i, pos in enumerate(sched_positions)}
    slot = [slot_of[dag.order_of[mid]] for mid in order]
    pinned_floor = [0.0] * len(sched_positions)
    for mid, own in fixed.items():
        pos = slot_of[dag.order_of[mid]]
        pinned_floor[pos] = max(pinned_floor[pos], floors_of(mid, (own,))[0])
    suffix_floor = [pinned_floor] * (n + 1)
    for depth in range(n - 1, -1, -1):
        row = suffix_floor[depth] = list(suffix_floor[depth + 1])
        least = min(floors_of(order[depth], candidates), default=0.0)
        row[slot[depth]] = max(row[slot[depth]], least)

    rows = memo.rows
    weigh = weights.weigh

    def memo_row(mid: str, sids: Sequence[ServerId]) -> List[tuple]:
        """`mid`'s row under its searched predecessors' servers."""
        rid, srcs = row_key[mid]
        key = (rid, *[assign[src] for src in srcs])
        row = rows.get(key)
        if row is None:
            priced = cost_model.module_costs(topology, dag, assign, profile, mid, sids)
            row = rows[key] = [(sid, t, e, weigh(t, e))
                               for sid, (t, e) in zip(sids, priced)]
            # `sids` come in server-id order and the sort is stable, so
            # equal costs keep that order.
            row.sort(key=itemgetter(3))
        return row

    best_cost = float("inf")
    best_assign: Optional[Tuple[ServerId, ...]] = None
    nodes = 0
    complete = True
    placed_cost = [0.0] * len(sched_positions)
    # Each module's (time, energy) on its current server: a searched one's
    # written as it is placed, a pinned one's at each leaf.
    costs: cost_model.CostTable = {}

    stack_assign: List[ServerId] = []

    def dfs(depth: int):
        nonlocal best_cost, best_assign, nodes, complete
        if depth == n:
            for mid, own in fixed.items():
                costs[mid] = memo_row(mid, (own,))[0][1:3]
            cost = weights.weigh(*cost_model.schedule_offsets(dag, costs)[-1])
            key = tuple(stack_assign)
            if cost < best_cost - _TIE_EPS or \
                    (abs(cost - best_cost) <= _TIE_EPS and
                     (best_assign is None or key < best_assign)):
                best_cost = cost
                best_assign = key
            return
        mid = order[depth]
        row = memo_row(mid, candidates)
        pos = slot[depth]
        saved = placed_cost[pos]
        suffix = suffix_floor[depth + 1]
        # Only slot `pos` changes below: its term goes between a fixed head
        # and tail, in slot order. A candidate that keeps the term at `floor`
        # gets the bound this node's parent already passed, and every leaf
        # found since lies under that parent and costs at least it, so only
        # a candidate that raises the term can be pruned. The row is cheapest
        # first, so the first candidate pruned ends the walk; a full server
        # only skips its own entry.
        head = sum(map(max, placed_cost[:pos], suffix[:pos]))
        tail = list(map(max, placed_cost[pos + 1:], suffix[pos + 1:]))
        floor = max(saved, suffix[pos])
        for sid, t, e, w in row:
            if free.get(sid, 0) <= 0:
                continue
            nodes += 1
            if nodes > node_budget:
                complete = False
                return
            if w > floor and sum(tail, head + w) > best_cost + _TIE_EPS:
                break
            assign[mid] = sid
            costs[mid] = (t, e)
            placed_cost[pos] = max(saved, w)
            free[sid] -= 1
            stack_assign.append(sid)
            dfs(depth + 1)
            stack_assign.pop()
            free[sid] += 1
            placed_cost[pos] = saved
            del assign[mid]
            if not complete:
                return

    dfs(0)
    # `dfs` refers to itself, a cycle that only the cycle collector would
    # free along with every memo it holds; break it now.
    del dfs
    if best_assign is None:
        return OracleResult(None, float("inf"), complete, nodes)
    return OracleResult({**assign, **dict(zip(order, best_assign))}, best_cost,
                        complete, nodes)


def sequential_placement(topology: Topology,
                         apps: Iterable[Tuple[AppDag, Placement]],
                         weights: CostWeights, profile: DeviceEnergyProfile,
                         candidates: Sequence[ServerId],
                         capacity_free: Dict[ServerId, int]) -> List[OracleResult]:
    """`optimal_placement` of each (dag, base placement) in turn,
    each against the capacity that the placements before it left; no
    candidate is a device. All searches share one module-cost memo, dropped
    when the pass ends; a device handover between two searches stales no row.
    """
    free = dict(capacity_free)
    results = []
    memo = _ModuleCosts()
    for dag, base in apps:
        res = optimal_placement(topology, dag, weights, profile, candidates,
                                capacity_free=free, base_placement=base, memo=memo)
        if res.placement is not None:
            for mid in dag.unpinned():
                free[res.placement[mid]] -= 1
        results.append(res)
    return results
