"""Application DAGs with their topological schedules, and weighted upward ranks."""
from __future__ import annotations

import graphlib
import weakref
from dataclasses import dataclass
from types import MappingProxyType
from typing import Dict, List, Sequence

from .topology import ServerId, Topology


class CycleError(ValueError):
    """Raised when the module graph is not a DAG."""


@dataclass(frozen=True)
class DataFlow:
    """Directed dependency between two modules.

    instructions_mi is the work (million instructions) the destination runs
    on this flow's input; payload_bits is the data shipped along the edge.
    """
    src: str
    dst: str
    instructions_mi: float
    payload_bits: float


@dataclass
class Module:
    id: str
    pinned_to_device: bool = False
    container_ram_mb: float = 64.0


class DagShape:
    """What a DAG's modules (id, pinned) and flows fix, built once and shared
    by every `AppDag` with equal ones: each module's incoming and outgoing
    flows, the modules grouped by topological order value, lowest first, each
    module's order value and the unpinned modules in schedule order.
    Its parts are tuples and read-only maps; it hashes and compares by
    identity, so a cache key names it in one step.
    """
    __slots__ = ("preds", "succs", "schedules", "order_of", "unpinned", "__weakref__")

    def __init__(self, app_id: str, modules: Sequence[Module], flows: Sequence[DataFlow]):
        pinned = {m.id: m.pinned_to_device for m in modules}
        if len(pinned) != len(modules):
            raise ValueError(f"module ids of {app_id} repeat")
        preds: Dict[str, list] = {mid: [] for mid in pinned}
        succs: Dict[str, list] = {mid: [] for mid in pinned}
        for flow in flows:
            if flow.src not in pinned or flow.dst not in pinned:
                raise ValueError(f"flow {flow.src}->{flow.dst} references unknown module")
            preds[flow.dst].append(flow)
            succs[flow.src].append(flow)
        # A module's order is 1 + the max order of its predecessors.
        order: Dict[str, int] = {}
        graph = {mid: [f.src for f in fs] for mid, fs in preds.items()}
        try:
            for mid in graphlib.TopologicalSorter(graph).static_order():
                order[mid] = 1 + max((order[f.src] for f in preds[mid]), default=0)
        except graphlib.CycleError:
            raise CycleError(f"module graph of {app_id} contains a cycle") from None
        by_order: Dict[int, List[str]] = {}
        for mid in pinned:
            by_order.setdefault(order[mid], []).append(mid)
        self.preds = MappingProxyType({mid: tuple(fs) for mid, fs in preds.items()})
        self.succs = MappingProxyType({mid: tuple(fs) for mid, fs in succs.items()})
        self.schedules = tuple(tuple(sorted(by_order[val])) for val in sorted(by_order))
        self.order_of = MappingProxyType({mid: order[mid] for mid in pinned})
        self.unpinned = tuple(mid for group in self.schedules for mid in group
                              if not pinned[mid])


# Every live shape under its (modules' (id, pinned), flows) key; a shape goes
# when the last DAG holding it does.
_SHAPES = weakref.WeakValueDictionary()


@dataclass
class AppDag:
    """One application instance: modules plus data flows, emitting every sensor_interval_s.

    The modules, with their drawn container RAM, and `module_map` are its own;
    `preds`, `succs`, `schedules` and `order_of` are those of its `shape`.
    """
    app_id: str
    template: str
    modules: List[Module]
    flows: List[DataFlow]
    sensor_interval_s: float

    def __post_init__(self):
        self.module_map = {m.id: m for m in self.modules}
        key = (tuple((m.id, m.pinned_to_device) for m in self.modules), tuple(self.flows))
        shape = self.shape = _SHAPES.get(key) or _SHAPES.setdefault(
            key, DagShape(self.app_id, self.modules, self.flows))
        self.preds, self.succs, self.schedules, self.order_of = (
            shape.preds, shape.succs, shape.schedules, shape.order_of)

    def unpinned(self) -> List[str]:
        """Modules not pinned to the device, in schedule order."""
        return list(self.shape.unpinned)

    def incoming_mi(self, module_id: str) -> float:
        return sum(f.instructions_mi for f in self.preds[module_id])


def compute_rank(dag: AppDag, ready_servers: Sequence[ServerId], weights,
                 topology: Topology, profile) -> Dict[str, float]:
    """Weighted upward rank of every module over the candidate server set.

    Execution term averages the weighted run cost across candidates;
    the transfer term averages pairwise transfer cost over all ordered
    candidate pairs, counting same-server pairs as zero, and is priced once
    per distinct payload by `cost_model.mean_transfer_costs`.

    Candidates must be fog servers (a ValueError names any device): the
    rank is memoized in `topology.rank_cache`, and a device's routes move
    with its handovers. The memo key is everything the rank reads: the
    candidates, the DAG's shape (its modules and flows), weights and profile.
    """
    from . import cost_model  # local import: cost_model imports AppDag from here

    servers = list(ready_servers)
    if not servers:
        raise ValueError("rank needs at least one candidate server")
    key = (tuple(servers), dag.shape, weights, profile)
    cached = topology.rank_cache.get(key)
    if cached is not None:
        return dict(cached)
    n = len(servers)
    transfer = cost_model.mean_transfer_costs(
        topology, profile, weights, servers, (flow.payload_bits for flow in dag.flows))

    def mean_exec_cost(module_id: str) -> float:
        mi = dag.incoming_mi(module_id)
        total = 0.0
        for sid in servers:
            total += cost_model.exec_cost(topology, weights, profile, mi, sid)
        return total / n

    rank: Dict[str, float] = {}
    for group in reversed(dag.schedules):
        for mid in group:
            best_succ = 0.0
            for flow in dag.succs[mid]:
                best_succ = max(best_succ, transfer[flow.payload_bits] + rank[flow.dst])
            rank[mid] = mean_exec_cost(mid) + best_succ
    topology.rank_cache[key] = dict(rank)
    return rank


def rank_modules(dag: AppDag, ready_servers: Sequence[ServerId], weights,
                 topology: Topology, profile) -> List[str]:
    """Unpinned modules in placement order: schedule by schedule, rank
    descending inside a schedule, ties broken by module id."""
    rank = compute_rank(dag, ready_servers, weights, topology, profile)
    return sorted(dag.unpinned(), key=lambda m: (dag.order_of[m], -rank[m], m))


# -- bundled application templates ---------------------------------------

def _ecg_modules(ram):
    return (
        [Module("sensor", pinned_to_device=True, container_ram_mb=0.0),
         Module("filter", container_ram_mb=ram()),
         Module("hr_analyzer", container_ram_mb=ram()),
         Module("arrhythmia_detector", container_ram_mb=ram()),
         Module("aggregator", container_ram_mb=ram()),
         Module("display", pinned_to_device=True, container_ram_mb=0.0)],
        [DataFlow("sensor", "filter", 20.0, 64e3),
         DataFlow("filter", "hr_analyzer", 25.0, 32e3),
         DataFlow("filter", "arrhythmia_detector", 30.0, 32e3),
         DataFlow("hr_analyzer", "aggregator", 10.0, 16e3),
         DataFlow("arrhythmia_detector", "aggregator", 10.0, 16e3),
         DataFlow("aggregator", "display", 2.0, 16e3)],
        0.010,
    )


def _eeg_modules(ram):
    return (
        [Module("sensor", pinned_to_device=True, container_ram_mb=0.0),
         Module("client_filter", container_ram_mb=ram()),
         Module("concentration_calculator", container_ram_mb=ram()),
         Module("game_state", container_ram_mb=ram()),
         Module("display", pinned_to_device=True, container_ram_mb=0.0)],
        [DataFlow("sensor", "client_filter", 10.0, 48e3),
         DataFlow("client_filter", "concentration_calculator", 15.0, 24e3),
         DataFlow("concentration_calculator", "game_state", 8.0, 24e3),
         DataFlow("game_state", "display", 2.0, 16e3)],
        0.015,
    )


TEMPLATES = {
    "ECGMH": _ecg_modules,
    "EEGTBG": _eeg_modules,
}


def build_app(template: str, app_id: str, rng=None,
              ram_range=(50.0, 75.0)) -> AppDag:
    """Instantiate a bundled template; container RAM is drawn per module."""
    if template not in TEMPLATES:
        raise ValueError(f"unknown app template {template!r}")

    def ram():
        if rng is None:
            return sum(ram_range) / 2.0
        return rng.uniform(*ram_range)

    modules, flows, interval = TEMPLATES[template](ram)
    return AppDag(app_id=app_id, template=template, modules=modules,
                  flows=flows, sensor_interval_s=interval)
