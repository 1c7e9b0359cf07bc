"""Topology structure: descendant closures, mutation invariants, validation."""
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fogsim import cli, cost_model, placement, scenario
from fogsim.app_model import build_app
from fogsim.topology import ServerNode, Topology, TopologyError

from conftest import S, make_links, make_small_topology


def test_small_layout_has_eleven_server_nodes(topo):
    assert len(topo.nodes) == 11
    assert topo.cloud_id == S(4, 1)


def test_omega_of_l2_with_three_children(topo):
    assert topo.omega(S(2, 1)) == {S(2, 1), S(1, 1), S(1, 2), S(1, 3)}


def test_omega_of_childless_node_is_singleton(topo):
    assert topo.omega(S(2, 2)) == {S(2, 2)}


def test_omega_of_l3_covers_all_fog_servers(topo):
    omega = topo.omega(S(3, 1))
    assert len(omega) == 10
    assert topo.cloud_id not in omega
    assert all(sid in omega for sid in topo.nodes if sid != topo.cloud_id)


def test_hierarchical_path_queries(topo):
    # A hierarchical path from src to dest exists when dest is in omega(src).
    assert S(1, 2) in topo.omega(S(2, 1))
    assert S(1, 1) not in topo.omega(S(2, 2))
    for sid in topo.nodes:
        assert sid in topo.omega(sid)


def test_parent_two_levels_up_rejected(links):
    nodes = [
        ServerNode(S(2, 1), 80000, 10),
        ServerNode(S(1, 1), 3000, 4, parent=S(2, 1)),
        ServerNode(S(0, 1), 500, 4, parent=S(2, 1)),
    ]
    with pytest.raises(TopologyError):
        Topology(nodes, links, max_fog_level=1)


def test_duplicate_id_rejected(links):
    nodes = [ServerNode(S(2, 1), 80000, 10), ServerNode(S(2, 1), 80000, 10)]
    with pytest.raises(TopologyError):
        Topology(nodes, links, max_fog_level=1)


def test_missing_cloud_rejected(links):
    nodes = [ServerNode(S(1, 1), 3000, 4)]
    with pytest.raises(TopologyError, match="missing cloud"):
        Topology(nodes, links, max_fog_level=1)


def test_cloud_only_topology(links):
    topo = Topology([ServerNode(S(1, 1), 80000, 10)], links, max_fog_level=0)
    assert len(topo.nodes) == 1
    assert topo.node(S(1, 1)).children == set()


def test_orphan_fog_server_rejected(links):
    nodes = [ServerNode(S(2, 1), 80000, 10), ServerNode(S(1, 1), 3000, 4)]
    with pytest.raises(TopologyError, match="no parent"):
        Topology(nodes, links, max_fog_level=1)


def test_set_parent_enforces_adjacent_levels(topo):
    with pytest.raises(TopologyError):
        topo.set_parent(S(1, 1), S(3, 1))


@pytest.mark.parametrize("child, parent", [
    (S(0, 5), S(2, 1)),   # a device under a level-2 server
    (S(1, 3), S(2, 2)),   # a fog server: its parent is fixed
    (S(1, 3), None),
], ids=["device_under_level_2", "fog_reparent", "fog_detach"])
def test_rejected_set_parent_changes_nothing(child, parent):
    topo = make_small_topology(with_device=True)
    before = {sid: (node.parent, set(node.children)) for sid, node in topo.nodes.items()}
    with pytest.raises(TopologyError):
        topo.set_parent(child, parent)
    assert {sid: (node.parent, node.children) for sid, node in topo.nodes.items()} == before


@pytest.mark.parametrize("table, level, value", [
    ("bw_up_bps", 0, 0.0),
    ("bw_down_bps", 2, -1.0),
    ("bw_cluster_bps", 1, 0.0),
    ("bw_cluster_bps", 2, float("nan")),
    ("lat_up_s", 1, -0.001),
    ("lat_down_s", 0, -1.0),
    ("lat_cluster_s", 1, -0.004),
])
def test_malformed_link_table_fails_at_build(table, level, value):
    # Set past `check_config`, which already rejects a NaN when a scenario loads.
    config = scenario.load_scenario(cli.resolve_scenario("urban_80dev"))
    config["links"][table][level] = value
    name = table.rsplit("_", 1)[0]
    with pytest.raises(TopologyError, match=rf"link table {name} has .* at level {level}"):
        scenario.build_world(config)


def test_zero_link_latency_is_allowed(links):
    links.lat_cluster[1] = 0.0
    links.lat_up[0] = 0.0
    links.validate(max_fog_level=3)


def test_cluster_edges_stay_on_one_level(topo):
    with pytest.raises(TopologyError):
        topo.link_cluster(S(1, 1), S(2, 1))
    topo.link_cluster(S(1, 1), S(1, 2))
    assert S(1, 2) in topo.node(S(1, 1)).cluster_members
    assert S(1, 1) in topo.node(S(1, 2)).cluster_members


def test_ancestor_at_level(topo):
    assert topo.ancestor_at_level(S(1, 1), 1) == S(1, 1)
    assert topo.ancestor_at_level(S(1, 1), 2) == S(2, 1)
    assert topo.ancestor_at_level(S(1, 4), 3) == S(3, 1)
    assert topo.ancestor_at_level(S(2, 2), 1) is None


def test_sensed_by_sorts_by_distance(topo):
    sensed = topo.sensed_by((120.0, 0.0))
    assert sensed == [S(1, 2), S(1, 1), S(1, 3)]


def _brute_descendants(topo, sid):
    out = {sid}
    frontier = [sid]
    while frontier:
        cur = frontier.pop()
        for child in topo.nodes[cur].children:
            if child in topo.nodes and child not in out:
                out.add(child)
                frontier.append(child)
    return out


@st.composite
def random_forest(draw):
    """Small random hierarchy: per-level node counts and random parent picks."""
    counts = [draw(st.integers(min_value=1, max_value=4)),
              draw(st.integers(min_value=1, max_value=3))]
    parents = {}
    for idx in range(1, counts[0] + 1):
        parents[S(1, idx)] = S(2, draw(st.integers(1, counts[1])))
    for idx in range(1, counts[1] + 1):
        parents[S(2, idx)] = S(3, 1)
    return counts, parents


@settings(max_examples=100, deadline=None)
@given(random_forest())
def test_omega_matches_brute_force_descent(forest):
    counts, parents = forest
    nodes = [ServerNode(S(3, 1), 80000, 10)]
    for sid, parent in parents.items():
        nodes.append(ServerNode(sid, 3000, 4, parent=parent))
    topo = Topology(nodes, make_links(), max_fog_level=2)
    for sid in topo.nodes:
        assert topo.omega(sid) == _brute_descendants(topo, sid)


@st.composite
def forest_with_devices(draw):
    """A `random_forest` plus level-0 devices, some reparented after the build."""
    counts, parents = draw(random_forest())
    n_devices = draw(st.integers(min_value=1, max_value=5))
    fog_1 = st.integers(1, counts[0]).map(lambda idx: S(1, idx))
    for idx in range(1, n_devices + 1):
        parents[S(0, idx)] = draw(fog_1)
    moves = draw(st.lists(st.tuples(st.integers(1, n_devices), fog_1), max_size=4))
    return parents, [(S(0, idx), parent) for idx, parent in moves]


@settings(max_examples=100, deadline=None)
@given(forest_with_devices())
def test_ancestor_test_equals_omega_membership(forest):
    """Routing asks `ancestor_at_level(dest, sid.level) == sid` in place of
    `dest in omega(sid)`; the two agree after any reparenting."""
    parents, moves = forest
    nodes = [ServerNode(S(3, 1), 80000, 10)]
    for sid, parent in parents.items():
        nodes.append(ServerNode(sid, 3000, 4, parent=parent))
    topo = Topology(nodes, make_links(), max_fog_level=2)
    for device, parent in moves:
        topo.set_parent(device, parent)
    for sid in topo.nodes:
        closure = topo.omega(sid)
        for dest in topo.nodes:
            assert (topo.ancestor_at_level(dest, sid.level) == sid) == (dest in closure)


def _price_filter(topo):
    """One placement decision for an ECGMH filter fed from device (0,5),
    between two fog servers with room; it fills `topo.order_cache`."""
    dag = build_app("ECGMH", "ecg:1")
    pinned = {m.id: S(0, 5) for m in dag.modules if m.pinned_to_device}
    placement.find_min_cost(topo, placement.CapacityLedger(topo), [S(1, 1), S(1, 2)],
                            dag, pinned, "filter", cost_model.CostWeights(),
                            cost_model.DeviceEnergyProfile())


def test_device_reparent_keeps_fog_revision():
    # A device handover is not a fog mutation: it leaves every cached
    # route, the device's own included, and every cost order as they were.
    topo = make_small_topology(with_device=True)
    cost_model._cached_route(topo, S(1, 1), S(2, 2))
    cost_model._cached_route(topo, S(0, 5), S(2, 2))
    cost_model._cached_route(topo, S(2, 2), S(0, 5))
    _price_filter(topo)
    cached = dict(topo.route_cache)
    orders = dict(topo.order_cache)
    assert len(orders) == 1
    topo.set_parent(S(0, 5), S(1, 2))
    assert topo.route_cache.keys() == cached.keys()
    assert all(topo.route_cache[key] is rec for key, rec in cached.items())
    assert topo.order_cache == orders


def _two_device_topology():
    """Default scenario with devices (0,1) and (0,2)."""
    config = scenario.load_scenario(None, {"devices": {"count": 2}})
    return scenario.build_world(config).topology


def test_devices_under_one_parent_share_their_routes():
    topo = _two_device_topology()
    for dev in (S(0, 1), S(0, 2)):
        topo.set_parent(dev, S(1, 7))
    for fog in (S(1, 7), S(2, 3), topo.cloud_id):
        assert cost_model._cached_route(topo, S(0, 1), fog) \
            is cost_model._cached_route(topo, S(0, 2), fog)
        assert cost_model._cached_route(topo, fog, S(0, 1)) \
            is cost_model._cached_route(topo, fog, S(0, 2))


def test_cluster_edge_between_devices_rejected():
    topo = _two_device_topology()
    with pytest.raises(TopologyError, match="two fog servers"):
        topo.link_cluster(S(0, 1), S(0, 2))
    assert not topo.node(S(0, 1)).cluster_members


@pytest.mark.parametrize("mutate", [
    lambda t: t.link_cluster(S(1, 1), S(1, 2)),
    lambda t: t.bump(),
], ids=["link_cluster", "bump"])
def test_fog_mutations_advance_fog_revision(mutate):
    # Every fog mutation empties the route and cost-order caches.
    topo = make_small_topology(with_device=True)
    topo.link_cluster(S(1, 4), S(1, 5))
    cost_model._cached_route(topo, S(1, 1), S(2, 2))
    cost_model._cached_route(topo, S(0, 5), S(1, 4))
    _price_filter(topo)
    assert topo.order_cache
    mutate(topo)
    assert topo.route_cache == {}
    assert topo.order_cache == {}


@pytest.mark.parametrize("a,b", [
    (S(1, 1), S(1, 99)), (S(1, 99), S(1, 1)), (S(1, 1), S(2, 1)),
    (S(1, 1), S(0, 5)), (S(1, 1), S(1, 1)), (S(4, 1), S(4, 1)),
], ids=["unknown-second", "unknown-first", "two-levels", "device", "self", "cloud-self"])
def test_rejected_cluster_edge_writes_nothing(a, b):
    topo = make_small_topology(with_device=True)
    topo.link_cluster(S(1, 4), S(1, 5))
    cost_model._cached_route(topo, S(1, 1), S(1, 4))
    before = {sid: set(node.cluster_members) for sid, node in topo.nodes.items()}
    with pytest.raises(TopologyError, match=re.escape(f"{a} {b}")):
        topo.link_cluster(a, b)
    assert {sid: node.cluster_members for sid, node in topo.nodes.items()} == before
    assert topo.route_cache


@pytest.mark.parametrize("with_device", [False, True])
def test_fog_servers_equal_a_scan_of_the_nodes(with_device):
    topo = make_small_topology(with_device=with_device)
    for level in [None] + list(range(topo.max_fog_level + 3)):
        want = sorted(sid for sid in topo.nodes
                      if sid.level >= 1 and (level is None or sid.level == level))
        assert topo.fog_servers(level) == want
        got = topo.fog_servers(level)
        got.clear()
        assert topo.fog_servers(level) == want
