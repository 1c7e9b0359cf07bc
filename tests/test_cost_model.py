"""Routing rules, transmission/latency costs, energy terms, migration cost."""
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fogsim import cost_model
from fogsim.app_model import AppDag, DataFlow, Module
from fogsim.cost_model import (CostWeights, DeviceEnergyProfile,
                               MigrationParams, migration_admissible,
                               module_migration_cost)
from fogsim.topology import RoutingError

from conftest import S, make_small_topology
from test_rule_oracle import random_topology

PROFILE = DeviceEnergyProfile(p_cpu_w=0.9, p_idle_w=0.3, p_tx_w=1.3)


# -- weights -----------------------------------------------------------------

def test_weights_need_not_sum_to_one():
    w = CostWeights(0.7, 0.5)
    assert (w.w1, w.w2) == (0.7, 0.5)


@pytest.mark.parametrize("w1,w2", [(-0.1, 0.5), (1.2, 0.5), (0.5, 1.5)])
def test_weights_outside_unit_interval_rejected(w1, w2):
    with pytest.raises(ValueError):
        CostWeights(w1, w2)


@pytest.mark.parametrize("field,value", [
    ("epsilon_frac", -0.01), ("epsilon_frac", float("nan")), ("epsilon_frac", float("inf")),
    ("i_mig_s", -0.05), ("i_mig_s", float("nan")), ("i_mig_s", float("inf"))])
def test_migration_params_reject_negative_or_non_finite_values(field, value):
    with pytest.raises(ValueError, match=rf"^{field} must be finite and >= 0"):
        MigrationParams(**{field: value})


@pytest.mark.parametrize("value", [
    (0.10, 0.05), (-0.05, 0.10), (0.05, float("inf")), (float("nan"), 0.10),
    (0.05,), (0.05, 0.10, 0.2), 0.05])
def test_migration_params_reject_a_dump_fraction_that_is_no_ordered_pair(value):
    with pytest.raises(ValueError, match=r"^dump_fraction must be a finite pair"):
        MigrationParams(dump_fraction=value)


# -- next hop ----------------------------------------------------------------

def test_up_when_destination_above(topo_dev):
    assert cost_model.next_hop(topo_dev, S(1, 1), S(2, 1)) == ("up", S(2, 1))
    assert cost_model.next_hop(topo_dev, S(1, 1), S(4, 1)) == ("up", S(2, 1))


def test_down_through_child_holding_destination(topo_dev):
    assert cost_model.next_hop(topo_dev, S(2, 1), S(1, 2)) == ("down", S(1, 2))
    assert cost_model.next_hop(topo_dev, S(3, 1), S(1, 5)) == ("down", S(2, 3))


def test_cluster_hop_between_clustered_peers(topo_dev):
    topo_dev.link_cluster(S(1, 1), S(1, 2))
    assert cost_model.next_hop(topo_dev, S(1, 1), S(1, 2)) == ("cluster", S(1, 2))


def test_same_level_without_cluster_goes_up(topo_dev):
    assert cost_model.next_hop(topo_dev, S(1, 1), S(1, 4)) == ("up", S(2, 1))


def test_cluster_descent_from_above(topo_dev):
    # (2,2) has no children; with a cluster edge to (2,1) it reaches (1,1)
    # laterally instead of climbing.
    topo_dev.link_cluster(S(2, 2), S(2, 1))
    assert cost_model.next_hop(topo_dev, S(2, 2), S(1, 1)) == ("cluster", S(2, 1))


def test_no_child_or_cluster_route_climbs(topo_dev):
    assert cost_model.next_hop(topo_dev, S(2, 2), S(1, 1)) == ("up", S(3, 1))


def test_arrived(topo_dev):
    assert cost_model.next_hop(topo_dev, S(1, 1), S(1, 1)) == ("arrived", S(1, 1))


def test_route_from_detached_device_rejected(topo_dev):
    topo_dev.set_parent(S(0, 5), None)
    with pytest.raises(RoutingError, match="dead end going up"):
        cost_model.internodal_latency(topo_dev, S(0, 5), S(2, 1))


def test_route_full_hop_list(topo_dev):
    hops = cost_model.route(topo_dev, S(0, 5), S(1, 2))
    assert [(k, f, t) for k, f, t in hops] == [
        ("up", S(0, 5), S(1, 1)), ("up", S(1, 1), S(2, 1)),
        ("down", S(2, 1), S(1, 2))]
    assert cost_model.route(topo_dev, S(1, 1), S(1, 1)) == []


# -- transmission and latency -------------------------------------------------

def test_transmission_time_device_uplink(topo_dev):
    # 10 Mbit over the 100 Mbps device uplink.
    assert cost_model.transmission_time(topo_dev, 10e6, S(0, 5), S(1, 1)) \
        == pytest.approx(0.1)


def test_transmission_time_cluster_hop(topo_dev):
    topo_dev.link_cluster(S(1, 1), S(1, 2))
    assert cost_model.transmission_time(topo_dev, 1e9, S(1, 1), S(1, 2)) \
        == pytest.approx(0.1)


def test_transmission_time_zero_for_same_server(topo_dev):
    assert cost_model.transmission_time(topo_dev, 1e9, S(1, 1), S(1, 1)) == 0.0
    assert cost_model.internodal_latency(topo_dev, S(1, 1), S(1, 1)) == 0.0


def test_latency_single_uplink_hop(topo_dev):
    assert cost_model.internodal_latency(topo_dev, S(0, 5), S(1, 1)) \
        == pytest.approx(0.005)


def test_latency_two_hop_lateral_without_cluster(topo_dev):
    # Unclustered peers route up then down: 25 ms + 25 ms.
    assert cost_model.internodal_latency(topo_dev, S(1, 1), S(1, 2)) \
        == pytest.approx(0.05)


def test_cluster_link_changes_latency_only_for_linked_pair(topo_dev):
    topo_dev.link_cluster(S(1, 1), S(1, 2))
    assert cost_model.internodal_latency(topo_dev, S(1, 1), S(1, 2)) \
        == pytest.approx(0.004)
    assert cost_model.internodal_latency(topo_dev, S(1, 1), S(1, 3)) \
        == pytest.approx(0.05)


@settings(max_examples=50, deadline=None)
@given(st.floats(min_value=0.0, max_value=1e12))
def test_transmission_time_linear_in_payload(bits):
    topo = make_small_topology(with_device=True)
    base = cost_model.transmission_time(topo, 1.0, S(0, 5), S(2, 1))
    assert cost_model.transmission_time(topo, bits, S(0, 5), S(2, 1)) \
        == pytest.approx(bits * base)


# -- energy --------------------------------------------------------------------

def test_transmission_energy_device_uplink(topo_dev):
    # 0.1 s of radio at 1.3 W.
    assert cost_model.transmission_energy(topo_dev, PROFILE, 10e6, S(0, 5), S(1, 1)) \
        == pytest.approx(0.13)


def test_transmission_energy_fog_hop_billed_at_idle(topo_dev):
    # 0.1 s transfer between fog servers leaves the device idling at 0.3 W.
    assert cost_model.transmission_energy(topo_dev, PROFILE, 1e9, S(1, 1), S(2, 1)) \
        == pytest.approx(0.03)


def test_transmission_energy_zero_for_same_server(topo_dev):
    assert cost_model.transmission_energy(topo_dev, PROFILE, 1e9, S(1, 1), S(1, 1)) == 0.0
    assert cost_model.internodal_latency(topo_dev, S(1, 1), S(1, 1)) * PROFILE.p_idle_w == 0.0


def test_internodal_energy_products(topo_dev):
    # Latency seconds billed at device idle power.
    assert cost_model.internodal_latency(topo_dev, S(0, 5), S(1, 1)) * PROFILE.p_idle_w \
        == pytest.approx(1.5e-3)
    assert cost_model.internodal_latency(topo_dev, S(1, 1), S(1, 2)) * PROFILE.p_idle_w \
        == pytest.approx(15e-3)


# -- module and application cost ------------------------------------------------

def _toy_dag():
    return AppDag("t", "t",
                  [Module("s", pinned_to_device=True), Module("m")],
                  [DataFlow("s", "m", 1000.0, 0.0)], 0.01)


def test_module_time_colocated_is_pure_execution(topo_dev):
    dag = _toy_dag()
    plc = {"s": S(1, 2), "m": S(1, 2)}
    assert cost_model.module_time(topo_dev, dag, plc, "m") == pytest.approx(0.25)


def test_module_time_source_module_is_zero(topo_dev):
    dag = _toy_dag()
    plc = {"s": S(1, 2), "m": S(1, 2)}
    assert cost_model.module_time(topo_dev, dag, plc, "s") == 0.0
    assert cost_model.module_energy(topo_dev, dag, plc, PROFILE, "s") == 0.0


def test_module_time_takes_max_over_incoming_flows(topo_dev):
    dag = AppDag("t", "t",
                 [Module("a", pinned_to_device=True), Module("b"), Module("c")],
                 [DataFlow("a", "c", 0.0, 10e6), DataFlow("b", "c", 350.0, 0.0)],
                 0.01)
    plc = {"a": S(0, 5), "b": S(1, 1), "c": S(1, 1)}
    # exe: 350/3500 = 0.1; lat: max(0.005, 0) = 0.005; tra: max(0.1, 0) = 0.1.
    assert cost_model.module_time(topo_dev, dag, plc, "c") \
        == pytest.approx(0.1 + 0.005 + 0.1)


def test_module_energy_execution_branches(topo_dev):
    dag = AppDag("t", "t",
                 [Module("s", pinned_to_device=True), Module("m")],
                 [DataFlow("s", "m", 125.0, 0.0)], 0.01)
    # On the device (500 MIPS): 0.25 s at 0.9 W.
    plc = {"s": S(0, 5), "m": S(0, 5)}
    assert cost_model.module_energy(topo_dev, dag, plc, PROFILE, "m") \
        == pytest.approx(0.225)
    # Offloaded: the device idles for the remote execution time.
    dag2 = AppDag("t", "t",
                  [Module("s", pinned_to_device=True), Module("m")],
                  [DataFlow("s", "m", 875.0, 0.0)], 0.01)
    plc2 = {"s": S(0, 5), "m": S(1, 1)}
    assert cost_model.module_energy(topo_dev, dag2, plc2, PROFILE, "m") \
        == pytest.approx(0.25 * 0.3 + 0.005 * 0.3)


def test_schedule_cost_is_max_over_parallel_modules(topo_dev):
    dag = AppDag("t", "t",
                 [Module("s", pinned_to_device=True), Module("b"), Module("c")],
                 [DataFlow("s", "b", 700.0, 0.0), DataFlow("s", "c", 1050.0, 0.0)],
                 0.01)
    plc = {"s": S(1, 1), "b": S(1, 1), "c": S(1, 1)}
    costs = {mid: cost_model.module_cost(topo_dev, dag, plc, PROFILE, mid)
             for mid in ("b", "c")}
    t, e = cost_model.schedule_cost(costs, ["b", "c"])
    assert t == pytest.approx(0.3)  # max(0.2, 0.3)
    assert e == pytest.approx(0.3 * 0.3)


def test_chain_app_cost_sums_singleton_schedules(topo_dev):
    dag = AppDag("t", "t",
                 [Module("s", pinned_to_device=True), Module("m1"), Module("m2")],
                 [DataFlow("s", "m1", 350.0, 0.0), DataFlow("m1", "m2", 700.0, 0.0)],
                 0.01)
    plc = {"s": S(1, 1), "m1": S(1, 1), "m2": S(1, 1)}
    t, e = cost_model.app_cost_breakdown(topo_dev, dag, plc, PROFILE)
    per_module = sum(cost_model.module_time(topo_dev, dag, plc, m)
                     for m in ("s", "m1", "m2"))
    assert t == pytest.approx(per_module)


def test_app_cost_weight_degeneracies(topo_dev):
    dag = _toy_dag()
    plc = {"s": S(0, 5), "m": S(1, 1)}
    t, e = cost_model.app_cost_breakdown(topo_dev, dag, plc, PROFILE)
    assert cost_model.app_cost(topo_dev, dag, plc, CostWeights(1.0, 0.0),
                               PROFILE) == pytest.approx(t)
    assert cost_model.app_cost(topo_dev, dag, plc, CostWeights(0.0, 1.0),
                               PROFILE) == pytest.approx(e)
    assert t >= 0.0 and e >= 0.0


def test_validate_placement_flags_capacity_breach(topo_dev):
    topo_dev.node(S(1, 1)).container_capacity = 1
    dag = AppDag("t", "t", [Module("m1"), Module("m2")], [], 0.01)
    plc = {"m1": S(1, 1), "m2": S(1, 1)}
    violations = cost_model.validate_placement(topo_dev, dag, plc)
    assert len(violations) == 1 and "C2" in violations[0] and "(1,1)" in violations[0]


def test_validate_placement_flags_missing_assignment(topo_dev):
    dag = AppDag("t", "t", [Module("m1")], [], 0.01)
    plc = {}
    violations = cost_model.validate_placement(topo_dev, dag, plc)
    assert violations and "C1" in violations[0]


def test_validate_placement_clean(topo_dev):
    dag = _toy_dag()
    plc = {"s": S(0, 5), "m": S(1, 1)}
    assert cost_model.validate_placement(topo_dev, dag, plc) == []


# -- migration cost ---------------------------------------------------------------

def test_migration_in_place_costs_only_overhead(topo_dev):
    # A stay ships no dump: it pays the stop/resume overhead and re-runs the
    # remainder where it is, on a level-1 server and on the cloud alike, and
    # its energy is that execution's alone.
    params = MigrationParams(i_mig_s=0.05)
    for dump_bits, remaining_mi, sid in [(0.0, 0.0, S(1, 1)), (40e6, 100.0, S(1, 1)),
                                         (40e6, 100.0, S(4, 1))]:
        time_s, energy_j, _ = module_migration_cost(topo_dev, PROFILE, params, CostWeights(),
                                                    dump_bits, sid, sid, remaining_mi)
        t_exe = remaining_mi / topo_dev.node(sid).cpu_mips
        assert time_s == params.i_mig_s + t_exe
        assert energy_j == t_exe * PROFILE.p_idle_w


def test_migration_to_cluster_neighbor_term_by_term(topo_dev):
    # 4 ms lateral latency + 50 ms stop/resume + 4 ms for a 40 Mbit dump at
    # 10 Gbps + 25 ms to re-run 100 MI on the 4000 MIPS target = 83 ms.
    topo_dev.link_cluster(S(1, 1), S(1, 2))
    params = MigrationParams(i_mig_s=0.05)
    time_s, _, _ = module_migration_cost(topo_dev, PROFILE, params, CostWeights(),
                                         40e6, S(1, 1), S(1, 2), 100.0)
    assert time_s == pytest.approx(0.083)


def test_migration_weighted_combination():
    topo = make_small_topology()
    topo.link_cluster(S(1, 1), S(1, 2))
    params = MigrationParams(i_mig_s=0.05)
    w = CostWeights(0.7, 0.2)
    time_s, energy_j, weighted = module_migration_cost(topo, PROFILE, params, w, 40e6,
                                                       S(1, 1), S(1, 2), 100.0)
    assert weighted == pytest.approx(0.7 * time_s + 0.2 * energy_j)


def test_admissibility_boundary_inclusive():
    assert migration_admissible(1.0, 1.0, 0.0)
    assert migration_admissible(1.0, 1.05, 0.05)
    assert not migration_admissible(1.0, 1.10, 0.05)


# -- rank transfer kernel ----------------------------------------------------

def naive_mean_transfer(topo, profile, weights, servers, bits):
    """Weighted transfer cost averaged over ordered pairs, one pair at a time."""
    n = len(servers)
    total = 0.0
    for a in servers:
        for b in servers:
            if a == b:
                continue
            t, e = cost_model.transmission_cost(topo, profile, bits, a, b)
            total += weights.w1 * t + weights.w2 * e
    return total / (n * n)


def test_mean_transfer_costs_equal_a_pair_by_pair_loop():
    rng = random.Random(20261020)
    checked = 0
    for _ in range(300):
        topo = random_topology(rng, with_devices=rng.random() < 0.5)
        fog = topo.fog_servers()
        weights = CostWeights(rng.random(), rng.random())
        profile = DeviceEnergyProfile(rng.uniform(0.1, 2.0), rng.uniform(0.1, 1.0),
                                      rng.uniform(0.5, 3.0))
        k = rng.choice([1, 1, 2, len(fog), len(fog) + 2])
        servers = rng.choices(fog, k=k)  # may repeat a server
        payloads = rng.choices([16e3, 32e3, rng.uniform(1e3, 1e8), 0.0], k=rng.randint(0, 5))
        got = cost_model.mean_transfer_costs(topo, profile, weights, servers, payloads)
        assert got.keys() == set(payloads)
        for bits in payloads:
            want = naive_mean_transfer(topo, profile, weights, servers, bits)
            assert got[bits].hex() == want.hex(), (servers, bits)
            checked += 1
    assert checked > 500


def test_mean_transfer_costs_name_every_device_among_the_servers(topo_dev):
    with pytest.raises(ValueError, match=r"fog servers only, got \(0,5\)$"):
        cost_model.mean_transfer_costs(topo_dev, PROFILE, CostWeights(),
                                       [S(1, 1), S(0, 5), S(2, 1)], [16e3])
    with pytest.raises(ValueError, match=r"\(0,5\)"):
        cost_model.mean_transfer_costs(topo_dev, PROFILE, CostWeights(), [S(0, 5)], [])


def test_mean_transfer_costs_without_payloads_look_up_no_route(topo):
    assert cost_model.mean_transfer_costs(topo, PROFILE, CostWeights(),
                                          topo.fog_servers(), []) == {}
    assert topo.route_cache == {}


# -- module costs on many servers ------------------------------------------------

def reference_module_cost(topo, dag, placement, profile, mid, server):
    """`module_cost` of `mid` on `server`, summed flow by flow from
    `internodal_latency` and `transmission_cost` in the documented order."""
    cpu_mips = topo.node(server).cpu_mips
    p_exe = profile.p_cpu_w if server.level == 0 else profile.p_idle_w
    t_exe = t_lat = t_tra = 0.0
    e_exe = e_lat = e_tra = 0.0
    for flow in dag.preds[mid]:
        src = placement[flow.src]
        flow_exe = flow.instructions_mi / cpu_mips
        lat = cost_model.internodal_latency(topo, src, server)
        tra_s, tra_e = cost_model.transmission_cost(topo, profile, flow.payload_bits,
                                                    src, server)
        t_exe += flow_exe
        t_lat = max(t_lat, lat)
        t_tra = max(t_tra, tra_s)
        e_exe += flow_exe * p_exe
        e_lat = max(e_lat, lat * profile.p_idle_w)
        e_tra = max(e_tra, tra_e)
    return t_exe + t_lat + t_tra, e_exe + e_lat + e_tra


def random_module_dag(rng):
    """A device-pinned source, a fan-in module `m` with one to three flows in,
    and `lone`, a module with no flows."""
    srcs = [f"p{i}" for i in range(rng.randint(1, 3))]
    modules = [Module(src, pinned_to_device=rng.random() < 0.5) for src in srcs]
    modules += [Module("m"), Module("lone")]
    flows = [DataFlow(src, "m", rng.choice([0.0, rng.uniform(1, 1e4)]),
                      rng.choice([0.0, 16e3, rng.uniform(1e3, 1e8)])) for src in srcs]
    return AppDag("r", "r", modules, flows, 0.01)


def test_module_costs_equal_a_per_server_reference_bit_for_bit():
    rng = random.Random(20261021)
    same_device = 0
    for _ in range(200):
        topo = random_topology(rng, with_devices=True)
        for node in topo.nodes.values():
            node.cpu_mips = rng.uniform(200, 1e4)
        if rng.random() < 0.3:
            # One bandwidth on every link: routes into a device and into a
            # fog server then share bandwidth tuples, yet not their energy.
            for table in (topo.links.bw_up, topo.links.bw_down, topo.links.bw_cluster):
                table.update(dict.fromkeys(table, 1e8))
        topo.bump()
        dag = random_module_dag(rng)
        profile = DeviceEnergyProfile(rng.uniform(0.1, 2.0), rng.uniform(0.1, 1.0),
                                      rng.uniform(0.5, 3.0))
        everywhere = sorted(topo.nodes)
        placement = {mid: rng.choice(everywhere) for mid in dag.module_map}
        servers = rng.choices(everywhere, k=rng.randint(0, 2 * len(everywhere)))
        for mid in ("m", "lone"):
            got = cost_model.module_costs(topo, dag, placement, profile, mid, servers)
            assert len(got) == len(servers)
            for server, cost in zip(servers, got):
                want = reference_module_cost(topo, dag, placement, profile, mid, server)
                assert [x.hex() for x in cost] == [x.hex() for x in want], (mid, server)
                assert cost_model.module_costs(topo, dag, placement, profile, mid,
                                               [server])[0] == cost
                if mid == "m" and server.level == 0:
                    same_device += placement["p0"] == server
            if mid == "lone":
                assert got == [(0.0, 0.0)] * len(servers)
    assert same_device > 0
