"""Shared fixtures: a small reference hierarchy and link tables, and `sum`
as CPython 3.12 adds floats.

The reference layout is one cloud, one level-3 server, three level-2 servers,
and six level-1 servers (11 nodes), with (2,1) parenting (1,1)-(1,3),
(2,2) childless, and (2,3) parenting (1,4)-(1,6).
"""
import math

import pytest

from fogsim.placement import handle_remote_placement
from fogsim.topology import LinkParams, ServerId, ServerNode, Topology

S = ServerId


def picks(placement, ordered, plan):
    """(module, server) of each module in `ordered` that the plan did not
    escalate, in that order: a planner writes its picks into the placement."""
    return [(m, placement[m]) for m in ordered if m not in plan.escalated]


def confirm(ledger, dag, placement, ordered, plan):
    """Every pick of the plan confirmed at its server, servers in sorted order
    as the engine confirms them: (module, ok, warm) each."""
    by_server = {}
    for module_id, server in picks(placement, ordered, plan):
        by_server.setdefault(server, []).append(module_id)
    return [res for server, modules in sorted(by_server.items())
            for res in handle_remote_placement(ledger, server, dag, modules)]


def make_links() -> LinkParams:
    return LinkParams(
        lat_up={0: 0.005, 1: 0.025, 2: 0.05, 3: 0.15},
        lat_down={0: 0.005, 1: 0.025, 2: 0.05, 3: 0.15},
        lat_cluster={1: 0.004, 2: 0.0225},
        bw_up={0: 100e6, 1: 10e9, 2: 10e9, 3: 10e9},
        bw_down={0: 200e6, 1: 10e9, 2: 10e9, 3: 10e9},
        bw_cluster={1: 10e9, 2: 10e9},
    )


def make_small_topology(with_device: bool = False,
                        l1_capacity: int = 10) -> Topology:
    """11-node reference hierarchy; optionally adds device (0,5) under (1,1)."""
    nodes = [
        ServerNode(S(4, 1), cpu_mips=80000, container_capacity=100000,
                   position=(650.0, 0.0)),
        ServerNode(S(3, 1), cpu_mips=10000, container_capacity=60,
                   position=(650.0, 0.0), parent=S(4, 1)),
        ServerNode(S(2, 1), cpu_mips=8000, container_capacity=20,
                   position=(150.0, 0.0), coverage_radius=400.0, parent=S(3, 1)),
        ServerNode(S(2, 2), cpu_mips=8000, container_capacity=20,
                   position=(650.0, 0.0), coverage_radius=400.0, parent=S(3, 1)),
        ServerNode(S(2, 3), cpu_mips=8000, container_capacity=20,
                   position=(1150.0, 0.0), coverage_radius=400.0, parent=S(3, 1)),
    ]
    l1_parent = {1: S(2, 1), 2: S(2, 1), 3: S(2, 1),
                 4: S(2, 3), 5: S(2, 3), 6: S(2, 3)}
    l1_pos = {1: 0.0, 2: 150.0, 3: 300.0, 4: 1000.0, 5: 1150.0, 6: 1300.0}
    for i in range(1, 7):
        nodes.append(ServerNode(
            S(1, i), cpu_mips=4000 if i == 2 else 3500,
            container_capacity=l1_capacity,
            position=(l1_pos[i], 0.0), coverage_radius=200.0,
            parent=l1_parent[i]))
    if with_device:
        nodes.append(ServerNode(S(0, 5), cpu_mips=500, container_capacity=8,
                                position=(10.0, 0.0), parent=S(1, 1)))
    return Topology(nodes, make_links(), max_fog_level=3)


@pytest.fixture
def links():
    return make_links()


@pytest.fixture
def topo():
    return make_small_topology()


@pytest.fixture
def topo_dev():
    return make_small_topology(with_device=True)


def compensated_sum(iterable, start=0):
    """`sum` as CPython 3.12 adds numbers: once the running total is a float,
    each int or float item is added with Neumaier compensation, and the
    compensation joins the total when an item of another type arrives or at
    the end, if it is finite."""
    total, comp = start, 0.0
    for x in iterable:
        if type(total) is float and type(x) in (int, float):
            x = float(x)
            t = total + x
            comp += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
            total = t
            continue
        if comp and math.isfinite(comp):
            total += comp
        comp = 0.0
        total = total + x
    return total + comp if comp and math.isfinite(comp) else total
