"""Application DAGs with their topological schedules, and weighted upward ranks."""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
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


@dataclass
class AppDag:
    """One application instance: modules plus data flows, emitting every sensor_interval_s."""
    app_id: str
    template: str
    modules: List[Module]
    flows: List[DataFlow]
    sensor_interval_s: float
    preds: Dict[str, List[DataFlow]] = field(default_factory=dict, repr=False)
    succs: Dict[str, List[DataFlow]] = field(default_factory=dict, repr=False)
    module_map: Dict[str, Module] = field(default_factory=dict, repr=False)
    # Modules grouped by topological order value, lowest first, and each
    # module's order value; computed once, when the DAG is built.
    schedules: List[List[str]] = field(init=False, repr=False)
    order_of: Dict[str, int] = field(init=False, repr=False)

    def __post_init__(self):
        self.module_map = {m.id: m for m in self.modules}
        self.preds = {m.id: [] for m in self.modules}
        self.succs = {m.id: [] for m in self.modules}
        for flow in self.flows:
            if flow.src not in self.module_map or flow.dst not in self.module_map:
                raise ValueError(f"flow {flow.src}->{flow.dst} references unknown module")
            self.preds[flow.dst].append(flow)
            self.succs[flow.src].append(flow)
        # BFS topological grouping: a module's order is 1 + max order of its
        # predecessors.
        indeg = {m.id: len(self.preds[m.id]) for m in self.modules}
        order = self.order_of = {m.id: 1 for m in self.modules}
        queue = deque(sorted(mid for mid, d in indeg.items() if d == 0))
        seen = 0
        while queue:
            cur = queue.popleft()
            seen += 1
            for flow in self.succs[cur]:
                order[flow.dst] = max(order[flow.dst], order[cur] + 1)
                indeg[flow.dst] -= 1
                if indeg[flow.dst] == 0:
                    queue.append(flow.dst)
        if seen != len(self.modules):
            raise CycleError(f"module graph of {self.app_id} contains a cycle")
        by_order: Dict[int, List[str]] = {}
        for mid, val in order.items():
            by_order.setdefault(val, []).append(mid)
        self.schedules = [sorted(by_order[val]) for val in sorted(by_order)]

    def unpinned(self) -> List[str]:
        """Modules not pinned to the device, in schedule order."""
        return [mid for group in self.schedules for mid in group
                if not self.module_map[mid].pinned_to_device]

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
    with its handovers.
    """
    from . import cost_model  # local import: cost_model imports AppDag from here

    servers = list(ready_servers)
    if not servers:
        raise ValueError("rank needs at least one candidate server")
    key = (tuple(servers), tuple(m.id for m in dag.modules), tuple(dag.flows),
           weights, profile)
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
