"""Cluster join protocol and parent choice."""
from fogsim.clustering import (ClusterState, ControlMessage, MessageKind,
                               bootstrap_clusters, handle_cluster_message,
                               select_parent)

from conftest import S, make_small_topology


def deliver_all(topo, states, pending):
    while pending:
        dest, msg = pending.pop(0)
        if dest in states:
            pending.extend(handle_cluster_message(topo, states[dest], msg))


def fresh_states(topo):
    return {sid: ClusterState(owner=sid) for sid in topo.fog_servers()}


def join(topo, states, sid, latency=0.025):
    parent = topo.node(sid).parent
    msg = ControlMessage(MessageKind.CANDID_PARENT, parent, {"latency_s": latency})
    deliver_all(topo, states, [(sid, msg)])


def test_join_builds_symmetric_views():
    # (1,1), (1,2), (1,3) sit 150 m apart with 200 m coverage: each pair of
    # adjacent nodes is in mutual range.
    topo = make_small_topology()
    states = fresh_states(topo)
    for idx in (1, 2, 3):
        join(topo, states, S(1, idx))
    assert S(1, 2) in topo.node(S(1, 1)).cluster_members
    assert S(1, 1) in topo.node(S(1, 2)).cluster_members
    for a in topo.fog_servers(1):
        for b in topo.node(a).cluster_members:
            assert a in topo.node(b).cluster_members


def test_out_of_range_peers_never_cluster():
    topo = make_small_topology()
    states = fresh_states(topo)
    for idx in range(1, 7):
        join(topo, states, S(1, idx))
    # The two groups of three sit ~700 m apart.
    assert S(1, 4) not in topo.node(S(1, 3)).cluster_members


def test_empty_neighborhood_still_selects_parent():
    topo = make_small_topology()
    # (2,2) is 500 m from both L2 neighbours with 400 m coverage: no peers.
    states = fresh_states(topo)
    join(topo, states, S(2, 2))
    assert topo.node(S(2, 2)).cluster_members == set()
    assert topo.node(S(2, 2)).parent == S(3, 1)


def test_select_parent_single_candidate():
    topo = make_small_topology()
    assert select_parent(topo, S(1, 1), {S(2, 1): 0.025}) == S(2, 1)


def test_select_parent_prefers_lower_latency():
    topo = make_small_topology()
    choice = select_parent(topo, S(1, 1), {S(2, 1): 0.025, S(2, 2): 0.005})
    assert choice == S(2, 2)


def test_select_parent_tie_breaks_on_smaller_index():
    topo = make_small_topology()
    choice = select_parent(topo, S(1, 1), {S(2, 3): 0.025, S(2, 2): 0.025})
    assert choice == S(2, 2)


def test_select_parent_ignores_wrong_level():
    topo = make_small_topology()
    choice = select_parent(topo, S(1, 1), {S(2, 2): 0.05, S(3, 1): 0.0, S(1, 2): 0.0})
    assert choice == S(2, 2)


def test_join_from_out_of_range_peer_is_dropped():
    # (1,4) sits 1000 m from (1,1), outside its 200 m coverage.
    topo = make_small_topology()
    states = fresh_states(topo)
    msg = ControlMessage(MessageKind.FOG_JOINING, S(1, 4), {})
    out = handle_cluster_message(topo, states[S(1, 1)], msg)
    assert out == []
    assert S(1, 4) not in topo.node(S(1, 1)).cluster_members


def test_bootstrap_clusters_symmetric_in_range_groups():
    topo = make_small_topology()
    states = bootstrap_clusters(topo)
    assert S(1, 2) in topo.node(S(1, 1)).cluster_members
    assert S(1, 5) in topo.node(S(1, 4)).cluster_members
    assert S(1, 4) not in topo.node(S(1, 1)).cluster_members
    for sid, state in states.items():
        assert sid not in topo.node(sid).cluster_members
        for member in topo.node(sid).cluster_members:
            assert sid in topo.node(member).cluster_members
