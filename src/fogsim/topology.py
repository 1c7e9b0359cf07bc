"""Hierarchical fog topology: levels, parent links, clusters, descendant closures."""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, NamedTuple, Optional, Set, Tuple


class ServerId(NamedTuple):
    """Identity of a node in the hierarchy: (level, index), both 1-based except devices at level 0."""
    level: int
    index: int

    def __str__(self):
        return f"({self.level},{self.index})"


class TopologyError(ValueError):
    """Raised for malformed topology input (bad parent level, duplicate id, missing cloud)."""


class RoutingError(RuntimeError):
    """Raised when no route exists between two nodes."""


@dataclass
class LinkParams:
    """Per-level link constants.

    Up/down tables are keyed by the lower endpoint's level of the hop;
    cluster tables are keyed by the level the lateral hop happens at.
    Latencies in seconds, bandwidths in bits per second.
    """
    lat_up: Dict[int, float]
    lat_down: Dict[int, float]
    lat_cluster: Dict[int, float]
    bw_up: Dict[int, float]
    bw_down: Dict[int, float]
    bw_cluster: Dict[int, float]

    def validate(self, max_fog_level: int):
        """Up/down tables cover levels 0..max_fog_level; bandwidths > 0, latencies >= 0."""
        for name, table in vars(self).items():
            for lvl in range(max_fog_level + 1):
                if lvl not in table and "cluster" not in name:
                    raise TopologyError(f"link table {name} missing level {lvl}")
            for lvl, value in table.items():
                if not (value > 0 if name.startswith("bw") else value >= 0):
                    raise TopologyError(f"link table {name} has {value} at level {lvl}")


@dataclass
class ServerNode:
    """One server (or IoT device, at level 0) in the hierarchy."""
    id: ServerId
    cpu_mips: float
    container_capacity: int
    position: Tuple[float, float] = (0.0, 0.0)
    coverage_radius: float = 0.0
    parent: Optional[ServerId] = None
    children: Set[ServerId] = field(default_factory=set)
    cluster_members: Set[ServerId] = field(default_factory=set)

    def distance_to(self, point: Tuple[float, float]) -> float:
        return math.hypot(self.position[0] - point[0], self.position[1] - point[1])

    def covers(self, point: Tuple[float, float]) -> bool:
        return self.coverage_radius > 0 and self.distance_to(point) <= self.coverage_radius


class Topology:
    """Forest of fog servers plus cluster edges.

    The node set and every fog server's parent are fixed at construction,
    and so are the level-1 servers' positions and coverage radii: the grid
    that `sensed_by` reads is built from them once. A level-1 position or
    radius that is not finite is rejected.
    The only structural mutations are cluster edges between fog servers
    (`link_cluster`, which calls `bump()`) and device handovers
    (`set_parent`). `bump()` empties its four caches: `route_cache`,
    `rank_cache`, `order_cache` and `table_cache`. A handover empties
    nothing: a device (a level-0 node) relays nothing and has no cluster
    edge, so `cost_model` caches its routes, `placement` its cost orders and
    `cost_model.priced` its placements' cost tables under its parent.

    Direct edits of node state that routing or costs read (`cpu_mips`) must
    be followed by `bump()`, or cached routes, ranks, orders and tables go
    stale. A cached route holds only its hops' latency and bandwidth
    constants, read from `links` when it was built, so editing a link table
    after the first cost query needs `bump()` too.
    """

    def __init__(self, nodes: Iterable[ServerNode], links: LinkParams, max_fog_level: int):
        self.links = links
        self.max_fog_level = max_fog_level
        self.cloud_id = ServerId(max_fog_level + 1, 1)
        self.nodes: Dict[ServerId, ServerNode] = {}
        for node in nodes:
            if node.id in self.nodes:
                raise TopologyError(f"duplicate node id {node.id}")
            self.nodes[node.id] = node
        if self.cloud_id not in self.nodes:
            raise TopologyError(f"missing cloud node {self.cloud_id}")
        links.validate(max_fog_level)
        # (src, dest) -> cost_model.Route (latency sum, bandwidths), a device
        # endpoint keyed by `held`; filled by cost_model, emptied by bump().
        self.route_cache: Dict[tuple, tuple] = {}
        # upward-rank memo of app_model.compute_rank, emptied likewise.
        self.rank_cache: Dict[tuple, Dict[str, float]] = {}
        # placement.find_min_cost's candidates in cost order, per distinct
        # decision, emptied likewise.
        self.order_cache: Dict[tuple, list] = {}
        # placement cost tables with their running times and total, read and
        # filled only by cost_model.priced, for devices and MMT's trial moves;
        # a stored table is never written again. Emptied likewise.
        self.table_cache: Dict[tuple, tuple] = {}
        # level-1 nodes, which the sensed_by grid indexes, and every fog server
        # sorted by id, for fog_servers; the node set is fixed from here on.
        self._level1 = [n for n in self.nodes.values() if n.id.level == 1]
        self._fog = sorted(sid for sid in self.nodes if sid.level >= 1)
        self._wire_children()
        self._build_grid()

    def _build_grid(self):
        """Index the level-1 servers that cover anything by uniform grid cell.

        The cell side is the largest coverage radius, and a server sits in
        every cell its coverage's bounding box touches plus one cell around
        them, so a point's cell lists every server that can cover it even
        where float rounding puts the point or a box edge across a cell line.
        """
        for node in self._level1:
            if not all(map(math.isfinite, (*node.position, node.coverage_radius))):
                raise TopologyError(f"level-1 server {node.id} needs a finite position "
                                    f"and coverage radius")
        covering = [n for n in self._level1 if n.coverage_radius > 0]
        self._cell_m = max((n.coverage_radius for n in covering), default=1.0)
        self._grid: Dict[Tuple[int, int], list] = {}
        for node in covering:
            (x, y), r = node.position, node.coverage_radius
            x0, y0 = self._cell((x - r, y - r))
            x1, y1 = self._cell((x + r, y + r))
            for cx in range(x0 - 1, x1 + 2):
                for cy in range(y0 - 1, y1 + 2):
                    self._grid.setdefault((cx, cy), []).append(node)

    def _cell(self, point: Tuple[float, float]) -> Tuple[int, int]:
        return (math.floor(point[0] / self._cell_m), math.floor(point[1] / self._cell_m))

    def _wire_children(self):
        """Add each node to its parent's children, once the parent is known and one
        level up; each fog server but the cloud needs a parent, a device does not."""
        for node in self.nodes.values():
            if node.parent is None:
                if 0 < node.id.level <= self.max_fog_level:
                    raise TopologyError(f"fog server {node.id} has no parent")
            elif node.parent not in self.nodes:
                raise TopologyError(f"{node.id} references unknown parent {node.parent}")
            elif node.parent.level != node.id.level + 1:
                raise TopologyError(
                    f"parent of {node.id} must sit one level up, got {node.parent}")
            else:
                self.nodes[node.parent].children.add(node.id)

    # -- mutation ---------------------------------------------------------

    def bump(self):
        """Record a fog mutation: empty the route, rank, cost-order and table caches."""
        self.route_cache.clear()
        self.rank_cache.clear()
        self.order_cache.clear()
        self.table_cache.clear()

    def set_parent(self, child: ServerId, parent: Optional[ServerId]):
        """Hand a device over to a level-1 `parent`, or detach it with None."""
        if child.level != 0 or (parent is not None and parent.level != 1):
            raise TopologyError(f"cannot parent {child} under {parent}")
        node = self.nodes[child]
        if node.parent is not None:
            self.nodes[node.parent].children.discard(child)
        node.parent = parent
        if parent is not None:
            self.nodes[parent].children.add(child)

    def link_cluster(self, a: ServerId, b: ServerId):
        """Join two distinct known fog servers on one level; nothing is written otherwise."""
        if (a not in self.nodes or b not in self.nodes or a.level != b.level
                or a.level == 0 or a == b):
            raise TopologyError(
                f"cluster edge must join two fog servers on one level, known and distinct: {a} {b}")
        self.nodes[a].cluster_members.add(b)
        self.nodes[b].cluster_members.add(a)
        self.bump()

    # -- queries ----------------------------------------------------------

    def node(self, sid: ServerId) -> ServerNode:
        return self.nodes[sid]

    def held(self, sid: ServerId):
        """The key a server is cached under: a device as (its parent, 0), as
        its routes leave through its parent, and a fog server as itself."""
        return (self.nodes[sid].parent, 0) if sid.level == 0 else sid

    def omega(self, sid: ServerId) -> frozenset:
        """Descendant closure of a node: itself plus everything reachable downward.

        Routing does not build closures: `ancestor_at_level` answers the same
        membership question from the parent chain.
        """
        members = {sid}
        stack = list(self.nodes[sid].children)
        while stack:
            cur = stack.pop()
            if cur in members:
                continue
            members.add(cur)
            stack.extend(self.nodes[cur].children)
        return frozenset(members)

    def ancestor_at_level(self, sid: ServerId, level: int) -> Optional[ServerId]:
        cur = sid
        while cur is not None and cur.level < level:
            cur = self.nodes[cur].parent
        if cur is not None and cur.level == level:
            return cur
        return None

    def fog_servers(self, level: Optional[int] = None):
        """Fog/cloud servers (level >= 1), sorted by id, as a fresh list."""
        if level is None:
            return list(self._fog)
        return [sid for sid in self._fog if sid.level == level]

    def sensed_by(self, point: Tuple[float, float]):
        """Level-1 servers whose coverage contains the point, sorted by
        (distance, id); the candidates are those of the point's grid cell."""
        hits = [n for n in self._grid.get(self._cell(point), ()) if n.covers(point)]
        hits.sort(key=lambda n: (n.distance_to(point), n.id))
        return [n.id for n in hits]

    def in_mutual_range(self, a: ServerId, b: ServerId) -> bool:
        """Two same-level servers are cluster-eligible when each sits inside the smaller coverage."""
        na, nb = self.nodes[a], self.nodes[b]
        radius = min(na.coverage_radius, nb.coverage_radius)
        return radius > 0 and na.distance_to(nb.position) <= radius

