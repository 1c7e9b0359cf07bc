"""Clusters of same-level fog servers, kept as the topology's cluster edges.

The join exchange of the proposed scheme (CandidParent → FogJoining →
ReplyNewFog) links two servers exactly when they sit on the same level and
each lies inside the other's coverage. Every server's only candidate parent
is its configured one, so the exchange never reparents anything, and it runs
before simulated time starts. What it leaves behind is therefore the
mutual-range relation itself, which is built here directly.
"""
from __future__ import annotations

from itertools import combinations

from .topology import Topology


def bootstrap_clusters(topology: Topology):
    """Link every pair of same-level servers in mutual range, at levels 1 and 2."""
    for level in (1, 2):
        for a, b in combinations(topology.fog_servers(level), 2):
            if topology.in_mutual_range(a, b):
                topology.link_cluster(a, b)
