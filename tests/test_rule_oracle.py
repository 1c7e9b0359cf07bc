"""Routing cross-check against an independent step-by-step rule interpreter.

The interpreter below re-states the next-server rules from scratch (its own
descendant walk, its own hop accounting) so the production routing code is
checked against a second, independently written implementation on a large
population of random hierarchies.
"""
import random

from fogsim import cost_model
from fogsim.cost_model import DeviceEnergyProfile
from fogsim.topology import LinkParams, ServerId, ServerNode, Topology


def _descendants(nodes, sid):
    out = {sid}
    todo = [sid]
    while todo:
        cur = todo.pop()
        for child, node in nodes.items():
            if node.parent == cur and child not in out:
                out.add(child)
                todo.append(child)
    return out


def interp_step(nodes, cur, dest):
    """Literal restatement of the seven next-server rules."""
    if cur == dest:
        return ("arrived", cur)
    node = nodes[cur]
    if cur.level < dest.level:
        return ("up", node.parent)
    if cur.level > dest.level:
        down = [c for c, n in nodes.items()
                if n.parent == cur and dest in _descendants(nodes, c)]
        if down:
            return ("down", min(down))
        lateral = [m for m in node.cluster_members
                   if dest in _descendants(nodes, m)]
        if lateral:
            return ("cluster", min(lateral))
        return ("up", node.parent)
    lateral = [m for m in node.cluster_members
               if dest in _descendants(nodes, m)]
    if lateral:
        return ("cluster", min(lateral))
    return ("up", node.parent)


def interp_costs(topo, src, dest):
    """(latency, transmission-per-bit, hop count) along the interpreted path."""
    links = topo.links
    lat = 0.0
    per_bit = 0.0
    hops = 0
    cur = src
    while cur != dest:
        kind, nxt = interp_step(topo.nodes, cur, dest)
        if kind == "up":
            lat += links.lat_up[cur.level]
            per_bit += 1.0 / links.bw_up[cur.level]
        elif kind == "down":
            lat += links.lat_down[nxt.level]
            per_bit += 1.0 / links.bw_down[nxt.level]
        else:
            lat += links.lat_cluster[cur.level]
            per_bit += 1.0 / links.bw_cluster[cur.level]
        cur = nxt
        hops += 1
        assert hops <= len(topo.nodes) * 2, "interpreter did not converge"
    return lat, per_bit, hops


def random_topology(rng: random.Random, with_devices: bool = False) -> Topology:
    """A random hierarchy with random same-level cluster edges.

    With `with_devices`, two or three devices (level 0) hang under random
    level-1 servers, and ten more under one of them, so a routing step on
    that server has many device children to pass over.
    """
    max_level = rng.choice([2, 3])
    links = LinkParams(
        lat_up={lvl: rng.uniform(0.001, 0.2) for lvl in range(0, max_level + 1)},
        lat_down={lvl: rng.uniform(0.001, 0.2) for lvl in range(0, max_level + 1)},
        lat_cluster={lvl: rng.uniform(0.001, 0.05) for lvl in range(1, max_level + 1)},
        bw_up={lvl: rng.uniform(1e7, 1e10) for lvl in range(0, max_level + 1)},
        bw_down={lvl: rng.uniform(1e7, 1e10) for lvl in range(0, max_level + 1)},
        bw_cluster={lvl: rng.uniform(1e8, 1e10) for lvl in range(1, max_level + 1)},
    )
    counts = {max_level + 1: 1}
    for lvl in range(max_level, 0, -1):
        counts[lvl] = rng.randint(1, 3)
    nodes = []
    for lvl in sorted(counts, reverse=True):
        for idx in range(1, counts[lvl] + 1):
            parent = None
            if lvl <= max_level:
                parent = ServerId(lvl + 1, rng.randint(1, counts[lvl + 1]))
            nodes.append(ServerNode(ServerId(lvl, idx), cpu_mips=3000,
                                    container_capacity=4, parent=parent))
    edges = []
    for lvl in range(1, max_level + 1):
        ids = [ServerId(lvl, i) for i in range(1, counts[lvl] + 1)]
        for i, a in enumerate(ids):
            for b in ids[i + 1:]:
                if rng.random() < 0.4:
                    edges.append((a, b))
    if with_devices:
        l1 = [ServerId(1, i) for i in range(1, counts[1] + 1)]
        spread = rng.randint(2, 3)
        crowded = rng.choice(l1)
        for idx in range(1, spread + 11):
            nodes.append(ServerNode(ServerId(0, idx), cpu_mips=500, container_capacity=2,
                                    parent=rng.choice(l1) if idx <= spread else crowded))
    topo = Topology(nodes, links, max_level)
    for a, b in edges:
        topo.link_cluster(a, b)
    return topo


def devices_of(topo: Topology):
    return sorted(sid for sid in topo.nodes if sid.level == 0)


def test_latency_and_transmission_match_interpreter_on_1000_topologies():
    rng = random.Random(20240817)
    checked = 0
    for _ in range(1000):
        topo = random_topology(rng)
        servers = topo.fog_servers()
        for _ in range(4):
            src = rng.choice(servers)
            dest = rng.choice(servers)
            lat_ref, per_bit_ref, hops = interp_costs(topo, src, dest)
            assert cost_model.internodal_latency(topo, src, dest) \
                == lat_ref
            bits = rng.uniform(1e3, 1e9)
            got = cost_model.transmission_time(topo, bits, src, dest)
            assert abs(got - bits * per_bit_ref) <= 1e-9 * max(1.0, got)
            # Termination bound: climb-to-top plus descend-to-bottom plus
            # at most one lateral hop per level.
            max_hops = 2 * (topo.max_fog_level + 1) + topo.max_fog_level
            assert hops <= max_hops
            assert len(cost_model.route(topo, src, dest)) == hops
            checked += 1
    assert checked == 4000


def test_same_server_costs_exactly_zero():
    rng = random.Random(7)
    for _ in range(50):
        topo = random_topology(rng)
        for sid in topo.fog_servers():
            assert cost_model.internodal_latency(topo, sid, sid) == 0.0
            assert cost_model.transmission_time(topo, 1e6, sid, sid) == 0.0


def test_costs_are_nonnegative_and_asymmetry_is_allowed():
    # Symmetry is deliberately NOT asserted: lateral shortcuts can exist in
    # one direction only, so only non-negativity is universal.
    rng = random.Random(99)
    for _ in range(100):
        topo = random_topology(rng)
        servers = topo.fog_servers()
        a, b = rng.choice(servers), rng.choice(servers)
        assert cost_model.internodal_latency(topo, a, b) >= 0.0
        assert cost_model.transmission_time(topo, 1e6, a, b) >= 0.0


def test_device_routes_match_interpreter_across_reparenting():
    # Devices hang under random level-1 servers and hop between them with
    # set_parent between queries, so a route cached for a device's old
    # attachment would show up as a mismatch after its next handover.
    rng = random.Random(20261018)
    checked = 0
    for _ in range(300):
        topo = random_topology(rng, with_devices=True)
        assert max(len(topo.node(sid).children) for sid in topo.fog_servers(level=1)) >= 10
        l1 = topo.fog_servers(level=1)
        devices = devices_of(topo)
        servers = topo.fog_servers()
        for _ in range(3):
            for dev in devices:
                fog = rng.choice(servers)
                other = rng.choice([d for d in devices if d != dev])
                for src, dest in ((fog, dev), (dev, fog), (dev, other)):
                    lat_ref, per_bit_ref, hops = interp_costs(topo, src, dest)
                    assert cost_model.internodal_latency(topo, src, dest) == lat_ref
                    got = cost_model.transmission_time(topo, 1e6, src, dest)
                    assert abs(got - 1e6 * per_bit_ref) <= 1e-9 * max(1.0, got)
                    assert cost_model._cached_route(topo, src, dest) == \
                        cost_model._route_record(topo, cost_model.route(topo, src, dest))
                    assert len(cost_model.route(topo, src, dest)) == hops
                    checked += 1
            # Handovers keep every cache entry, by identity.
            cached = dict(topo.route_cache)
            assert cached
            for dev in devices:
                topo.set_parent(dev, rng.choice(l1))
            assert topo.route_cache.keys() == cached.keys()
            assert all(topo.route_cache[key] is rec for key, rec in cached.items())
    # 300 topologies x 3 rounds x at least 12 devices x 3 directions.
    assert checked >= 32400


def walked_costs(topo, profile, bits, src, dest):
    """(latency, transmission time, transmission energy) from a fresh hop walk.

    Reads every link constant from `topo.links` per hop, in hop order, with
    the device radio billed on the device-facing hop only.
    """
    hops = cost_model.route(topo, src, dest)
    links = topo.links
    lat = seconds_total = energy = 0.0
    for pos, (kind, frm, to) in enumerate(hops):
        if kind == "down":
            hop_lat, bw = links.lat_down[to.level], links.bw_down[to.level]
        elif kind == "cluster":
            hop_lat, bw = links.lat_cluster[frm.level], links.bw_cluster[frm.level]
        else:
            hop_lat, bw = links.lat_up[frm.level], links.bw_up[frm.level]
        lat += hop_lat
        seconds = bits / bw
        seconds_total += seconds
        device_hop = (pos == 0 and src.level == 0) or \
            (pos == len(hops) - 1 and dest.level == 0)
        energy += seconds * (profile.p_tx_w if device_hop else profile.p_idle_w)
    return lat, seconds_total, energy


def test_route_records_equal_a_fresh_walk_across_mutations():
    # Cached route records carry their latency sum and bandwidths; every
    # mutation between queries (device handover, a new cluster edge, an
    # edited link table) must leave no stale record behind.
    rng = random.Random(20261019)
    profile = DeviceEnergyProfile()
    checked = 0
    for _ in range(150):
        topo = random_topology(rng, with_devices=True)
        l1 = topo.fog_servers(level=1)
        devices = devices_of(topo)
        fog = [sid for sid in topo.nodes if 1 <= sid.level <= topo.max_fog_level]
        for _ in range(6):
            ends = fog + devices
            for _ in range(6):
                src, dest = rng.choice(ends), rng.choice(ends)
                bits = rng.uniform(1e3, 1e8)
                want = walked_costs(topo, profile, bits, src, dest)
                got = (cost_model.internodal_latency(topo, src, dest),
                       cost_model.transmission_time(topo, bits, src, dest),
                       cost_model.transmission_energy(topo, profile, bits, src, dest))
                assert got == want, (src, dest)
                checked += 1
            step = rng.randrange(4)
            if step == 0:
                for dev in devices:
                    topo.set_parent(dev, rng.choice(l1))
            elif step == 1 and len(l1) > 1:
                topo.link_cluster(*rng.sample(l1, 2))
            elif step == 2:
                level = rng.randrange(topo.max_fog_level + 1)
                topo.links.lat_up[level] *= 1.5
                topo.links.bw_down[level] *= 0.5
                topo.bump()
            else:
                topo.set_parent(rng.choice(devices), rng.choice(l1))
    assert checked == 150 * 6 * 6
