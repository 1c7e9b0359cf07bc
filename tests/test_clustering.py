"""Clusters: the mutual-range relation between same-level fog servers."""
from itertools import combinations

import pytest

from fogsim import cli, scenario
from fogsim.clustering import bootstrap_clusters

from conftest import S, make_small_topology


def edges(topo, level):
    return sorted((a, b) for a in topo.fog_servers(level)
                  for b in topo.node(a).cluster_members if a < b)


def test_edges_equal_brute_force_mutual_range_pairs():
    topo = make_small_topology()
    bootstrap_clusters(topo)
    for level in (1, 2):
        expected = []
        for a, b in combinations(topo.fog_servers(level), 2):
            na, nb = topo.node(a), topo.node(b)
            radius = min(na.coverage_radius, nb.coverage_radius)
            if radius > 0 and na.distance_to(nb.position) <= radius:
                expected.append((a, b))
        assert edges(topo, level) == expected
    # (1,1), (1,2), (1,3) sit 150 m apart with 200 m coverage, and so do
    # (1,4), (1,5), (1,6); (2,1)…(2,3) sit 500 m apart with 400 m coverage.
    assert edges(topo, 1) == [(S(1, 1), S(1, 2)), (S(1, 2), S(1, 3)),
                              (S(1, 4), S(1, 5)), (S(1, 5), S(1, 6))]
    assert edges(topo, 2) == []


def test_join_builds_symmetric_views():
    topo = make_small_topology()
    bootstrap_clusters(topo)
    for sid in topo.nodes:
        members = topo.node(sid).cluster_members
        assert sid not in members
        if sid.level not in (1, 2):
            assert members == set()
        for member in members:
            assert member.level == sid.level
            assert sid in topo.node(member).cluster_members


def test_out_of_range_peers_never_cluster():
    topo = make_small_topology()
    bootstrap_clusters(topo)
    # The two groups of three sit ~700 m apart.
    assert S(1, 4) not in topo.node(S(1, 3)).cluster_members
    # (1,1) and (1,3) are 300 m apart, outside the 200 m coverage.
    assert S(1, 3) not in topo.node(S(1, 1)).cluster_members


def test_empty_neighborhood_still_selects_parent():
    topo = make_small_topology()
    parents = {sid: topo.node(sid).parent for sid in topo.nodes}
    bootstrap_clusters(topo)
    # (2,2) is 500 m from both L2 neighbours with 400 m coverage: no peers.
    assert topo.node(S(2, 2)).cluster_members == set()
    assert {sid: topo.node(sid).parent for sid in topo.nodes} == parents


def test_bootstrap_clusters_symmetric_in_range_groups():
    topo = make_small_topology()
    bootstrap_clusters(topo)
    assert S(1, 2) in topo.node(S(1, 1)).cluster_members
    assert S(1, 5) in topo.node(S(1, 4)).cluster_members
    assert S(1, 4) not in topo.node(S(1, 1)).cluster_members


def test_second_bootstrap_adds_no_edge():
    topo = make_small_topology()
    bootstrap_clusters(topo)
    before = {sid: set(topo.node(sid).cluster_members) for sid in topo.nodes}
    bootstrap_clusters(topo)
    assert {sid: topo.node(sid).cluster_members for sid in topo.nodes} == before


@pytest.mark.parametrize("name, level_1, level_2", [
    ("urban_80dev", 24, 4),
    ("desk_optimality", 13, 2),
])
def test_scenario_edge_counts(name, level_1, level_2):
    topo = scenario.build_world(scenario.load_scenario(cli.resolve_scenario(name))).topology
    bootstrap_clusters(topo)
    assert [len(edges(topo, level)) for level in (1, 2, 3)] == [level_1, level_2, 0]
