"""Application DAGs: schedule grouping, upward ranks, bundled templates."""
import random

import pytest

from fogsim import cli, scenario
from fogsim.app_model import (AppDag, CycleError, DataFlow, Module, build_app,
                              compute_rank, rank_modules)
from fogsim.clustering import bootstrap_clusters
from fogsim.cost_model import CostWeights, DeviceEnergyProfile
from fogsim.placement import CapacityLedger, find_min_cost, ready_servers

from conftest import S, make_small_topology


def chain_dag(k: int) -> AppDag:
    modules = [Module(f"m{i}") for i in range(1, k + 1)]
    flows = [DataFlow(f"m{i}", f"m{i+1}", 10.0, 1e3) for i in range(1, k)]
    return AppDag("chain", "chain", modules, flows, 0.01)


def test_single_module_single_schedule():
    dag = AppDag("one", "one", [Module("m1")], [], 0.01)
    assert dag.schedules == (("m1",),)


def test_chain_gives_singleton_schedules():
    assert chain_dag(5).schedules == (("m1",), ("m2",), ("m3",), ("m4",), ("m5",))


def test_diamond_groups_parallel_branches():
    dag = AppDag("d", "d", [Module(m) for m in ("m1", "m2", "m3", "m4", "m5")],
                 [DataFlow("m1", "m2", 1, 1), DataFlow("m1", "m3", 1, 1),
                  DataFlow("m2", "m4", 1, 1), DataFlow("m3", "m4", 1, 1),
                  DataFlow("m4", "m5", 1, 1)], 0.01)
    assert dag.schedules == (("m1",), ("m2", "m3"), ("m4",), ("m5",))


def test_cycle_raises():
    with pytest.raises(CycleError):
        AppDag("c", "c", [Module("m1"), Module("m2")],
               [DataFlow("m1", "m2", 1, 1), DataFlow("m2", "m1", 1, 1)], 0.01)


def test_rank_of_exit_module_is_its_execution_cost():
    topo = make_small_topology()
    dag = AppDag("r", "r", [Module("s", pinned_to_device=True), Module("m1")],
                 [DataFlow("s", "m1", 500.0, 0.0)], 0.01)
    rank = compute_rank(dag, [S(1, 2)], CostWeights(1.0, 0.0),
                        topo, DeviceEnergyProfile())
    assert rank["m1"] == pytest.approx(500.0 / 4000.0)


def test_rank_two_module_chain_on_single_server():
    # One 1000 MIPS candidate, 500 MI of work per module, time-only weights
    # and no payload: the chain ranks are 0.5 s and 1.0 s.
    topo = make_small_topology()
    topo.node(S(1, 1)).cpu_mips = 1000.0
    dag = AppDag("r", "r",
                 [Module("s", pinned_to_device=True), Module("m1"), Module("m2")],
                 [DataFlow("s", "m1", 500.0, 0.0), DataFlow("m1", "m2", 500.0, 0.0)],
                 0.01)
    rank = compute_rank(dag, [S(1, 1)], CostWeights(1.0, 0.0),
                        topo, DeviceEnergyProfile())
    assert rank["m2"] == pytest.approx(0.5)
    assert rank["m1"] == pytest.approx(1.0)


def test_heavier_branch_ordered_first_within_schedule():
    topo = make_small_topology()
    dag = build_app("ECGMH", "ecg:1")
    ordered = rank_modules(dag, [S(1, 1), S(1, 2), S(2, 1)],
                           CostWeights(), topo, DeviceEnergyProfile())
    # arrhythmia_detector carries 30 MI against hr_analyzer's 25 MI.
    assert ordered == ["filter", "arrhythmia_detector", "hr_analyzer", "aggregator"]


def test_lighter_branch_ordered_first_when_it_ranks_higher():
    # hr_analyzer's flow outweighs arrhythmia_detector's here, so the rank,
    # not the module id, puts it first inside its schedule.
    dag = build_app("ECGMH", "ecg:1")
    dag = AppDag("e", "e", dag.modules,
                 [DataFlow(f.src, f.dst, 90.0 if f.dst == "hr_analyzer" else
                           f.instructions_mi, f.payload_bits) for f in dag.flows], 0.01)
    ordered = rank_modules(dag, [S(1, 1), S(1, 2), S(2, 1)],
                           CostWeights(), make_small_topology(), DeviceEnergyProfile())
    assert ordered == ["filter", "hr_analyzer", "arrhythmia_detector", "aggregator"]


def test_ecg_template_schedule_grouping():
    dag = build_app("ECGMH", "ecg:1")
    assert dag.schedules == (
        ("sensor",), ("filter",), ("arrhythmia_detector", "hr_analyzer"),
        ("aggregator",), ("display",))
    assert dag.sensor_interval_s == pytest.approx(0.010)


def test_eeg_template_schedule_grouping():
    dag = build_app("EEGTBG", "eeg:1")
    assert dag.schedules == (
        ("sensor",), ("client_filter",), ("concentration_calculator",),
        ("game_state",), ("display",))
    assert dag.sensor_interval_s == pytest.approx(0.015)


def test_unknown_template_rejected():
    with pytest.raises(ValueError):
        build_app("NOPE", "x:1")


def test_default_ram_is_range_midpoint():
    dag = build_app("EEGTBG", "eeg:1", rng=None, ram_range=(50.0, 70.0))
    assert dag.module_map["client_filter"].container_ram_mb == pytest.approx(60.0)
    assert dag.module_map["sensor"].container_ram_mb == 0.0


def test_flow_referencing_unknown_module_rejected():
    with pytest.raises(ValueError):
        AppDag("b", "b", [Module("m1")], [DataFlow("m1", "ghost", 1, 1)], 0.01)


def test_repeated_module_id_rejected():
    with pytest.raises(ValueError, match="repeat"):
        AppDag("b", "b", [Module("m1"), Module("m1")], [], 0.01)


def test_incoming_mi_sums_predecessor_flows():
    dag = build_app("ECGMH", "ecg:1")
    assert dag.incoming_mi("aggregator") == pytest.approx(20.0)
    assert dag.incoming_mi("sensor") == 0.0
    assert set(dag.unpinned()) == {"filter", "hr_analyzer",
                                   "arrhythmia_detector", "aggregator"}


def test_unpinned_modules_come_in_schedule_order():
    dag = build_app("ECGMH", "ecg:1")
    assert dag.unpinned() == ["filter", "arrhythmia_detector", "hr_analyzer", "aggregator"]


def test_dags_of_one_template_share_one_read_only_shape():
    # The shape is shared; what each device draws stays its own.
    a = build_app("ECGMH", "ecg:1", rng=random.Random(1))
    b = build_app("ECGMH", "ecg:2", rng=random.Random(2))
    assert a.shape is b.shape
    assert a.preds is b.preds and a.schedules is b.schedules
    assert a.module_map["filter"].container_ram_mb != b.module_map["filter"].container_ram_mb
    assert build_app("EEGTBG", "eeg:1").shape is not a.shape
    with pytest.raises(TypeError):
        del a.preds["filter"][:]
    with pytest.raises(TypeError):
        a.order_of["filter"] = 7


def test_a_hand_built_dag_under_a_template_name_gets_its_own_shape_and_prices():
    # Same template name and modules, heavier hr_analyzer input: another
    # shape, so neither the rank memo nor the cost-order memo hands it the
    # template's prices.
    weights, profile = CostWeights(), DeviceEnergyProfile()
    servers = [S(1, 1), S(1, 2), S(2, 1)]
    dag = build_app("ECGMH", "ecg:1")
    other = AppDag("ecg:2", "ECGMH", dag.modules,
                   [DataFlow(f.src, f.dst, 900.0 if f.dst == "hr_analyzer" else
                             f.instructions_mi, f.payload_bits) for f in dag.flows], 0.01)
    assert other.shape is not dag.shape
    topo = make_small_topology(with_device=True)
    plc = {m.id: S(0, 5) for m in dag.modules if m.pinned_to_device}
    plc.update(filter=S(1, 1), arrhythmia_detector=S(1, 1))
    ledger = CapacityLedger(topo)
    memo = [(compute_rank(d, servers, weights, topo, profile),
             find_min_cost(topo, ledger, servers, d, plc, "hr_analyzer", weights, profile))
            for d in (dag, other)]
    fresh = [(compute_rank(d, servers, weights, make_small_topology(), profile),
              find_min_cost(make_small_topology(with_device=True), ledger, servers, d, plc,
                            "hr_analyzer", weights, profile))
             for d in (dag, other)]
    assert memo == fresh
    assert memo[0][0] != memo[1][0]
    assert len(topo.order_cache) == 2


def test_rank_memo_follows_cluster_changes():
    # The cluster edge (2,2)-(2,1) turns (2,2)'s up-up-down trip to (1,1)
    # into a lateral hop, so the memoized rank must not survive it.
    servers = [S(1, 1), S(1, 4), S(2, 2)]
    weights, profile = CostWeights(), DeviceEnergyProfile()
    dag = build_app("ECGMH", "ecg:1")
    topo = make_small_topology()
    before = compute_rank(dag, servers, weights, topo, profile)
    topo.link_cluster(S(2, 2), S(2, 1))
    after = compute_rank(dag, servers, weights, topo, profile)
    fresh = make_small_topology()
    fresh.link_cluster(S(2, 2), S(2, 1))
    assert after == compute_rank(dag, servers, weights, fresh, profile)
    assert after != before


def test_rank_memo_hands_out_copies():
    topo = make_small_topology()
    dag = build_app("ECGMH", "ecg:1")

    def rank():
        return compute_rank(dag, [S(1, 1), S(1, 2)], CostWeights(),
                            topo, DeviceEnergyProfile())

    computed, memoized = rank(), rank()
    assert memoized == computed
    computed["filter"] = memoized["filter"] = -1.0
    assert rank()["filter"] != -1.0


def test_rank_rejects_device_candidates():
    topo = make_small_topology(with_device=True)
    with pytest.raises(ValueError, match=r"\(0,5\)"):
        compute_rank(build_app("ECGMH", "ecg:1"), [S(1, 1), S(0, 5)], CostWeights(),
                     topo, DeviceEnergyProfile())


def test_rank_of_a_dag_without_flows_builds_no_route():
    topo = make_small_topology()
    dag = AppDag("solo", "solo", [Module("m1"), Module("m2")], [], 0.01)
    rank = compute_rank(dag, topo.fog_servers(), CostWeights(), topo, DeviceEnergyProfile())
    assert set(rank) == {"m1", "m2"}
    assert topo.route_cache == {}


# Upward ranks on urban_80dev with its cluster edges, as float.hex, for the
# bundled templates over every fog server and over controller (1,1)'s ready
# servers [(1,1), (1,7), (2,1)].
RANK_PINS = {
    ("fog", "ECGMH"): {
        "aggregator": "0x1.d33924bd7530bp-9", "arrhythmia_detector": "0x1.140d3db204f41p-7",
        "display": "0x1.53855a9a52dd9p-12", "filter": "0x1.7e57ce16e0795p-7",
        "hr_analyzer": "0x1.f30da53becf5ap-8", "sensor": "0x1.7eb9964023b95p-7"},
    ("fog", "EEGTBG"): {
        "client_filter": "0x1.741d6b6b51226p-8",
        "concentration_calculator": "0x1.09ba68fc24cd2p-8",
        "display": "0x1.53855a9a52dd9p-12", "game_state": "0x1.a92a41936e14ep-10",
        "sensor": "0x1.74b017a936025p-8"},
    ("ready", "ECGMH"): {
        "aggregator": "0x1.a406d9c05a0d3p-9", "arrhythmia_detector": "0x1.f060f5091ed77p-8",
        "display": "0x1.31686d2313292p-12", "filter": "0x1.57acbe779542ep-7",
        "hr_analyzer": "0x1.c0a8a3fba3d90p-8", "sensor": "0x1.57c40227b4f77p-7"},
    ("ready", "EEGTBG"): {
        "client_filter": "0x1.4e38bebe9c5e3p-8",
        "concentration_calculator": "0x1.dd6d53bf1d33cp-9",
        "display": "0x1.31686d2313292p-12", "game_state": "0x1.7df10fcc175cap-10",
        "sensor": "0x1.4e5ba446cbed1p-8"},
}


def test_ranks_on_the_reference_world_match_their_pins():
    world = scenario.build_world(scenario.load_scenario(cli.resolve_scenario("urban_80dev")))
    topo = world.topology
    bootstrap_clusters(topo)
    servers = {"fog": topo.fog_servers(), "ready": ready_servers(topo, S(1, 1))}
    assert servers["ready"] == [S(1, 1), S(1, 7), S(2, 1)]
    for (name, template), pins in RANK_PINS.items():
        rank = compute_rank(build_app(template, "app:1"), servers[name], world.weights,
                            topo, world.profile)
        assert {mid: value.hex() for mid, value in rank.items()} == pins, (name, template)
