"""Per-controller greedy placement, capacity ledger, failure recovery."""
import pytest

from fogsim import cost_model
from fogsim.app_model import build_app, rank_modules
from fogsim.cost_model import CostWeights, DeviceEnergyProfile
from fogsim.placement import (CapacityLedger, PlacementError, dapt_place,
                              dapt_failure_recovery, find_min_cost,
                              handle_remote_placement, ready_servers)

from conftest import S, make_small_topology

WEIGHTS = CostWeights()
PROFILE = DeviceEnergyProfile()


def make_world(l1_capacity=10, clustered=True):
    topo = make_small_topology(with_device=True, l1_capacity=l1_capacity)
    if clustered:
        topo.link_cluster(S(1, 1), S(1, 2))
        topo.link_cluster(S(1, 2), S(1, 3))
    dag = build_app("ECGMH", "ecg:1")
    plc = {m.id: S(0, 5) for m in dag.modules if m.pinned_to_device}
    ledger = CapacityLedger(topo)
    ranked = rank_modules(dag, ready_servers(topo, S(1, 1)), WEIGHTS, topo, PROFILE)
    return topo, dag, plc, ledger, ranked


def test_ledger_reserve_release_and_warmth():
    topo = make_small_topology(l1_capacity=2)
    ledger = CapacityLedger(topo)
    assert ledger.free(S(1, 1)) == 2
    assert ledger.reserve(S(1, 1), "ECGMH", "filter")
    assert ledger.is_warm(S(1, 1), "ECGMH", "filter")
    assert not ledger.is_warm(S(1, 1), "ECGMH", "aggregator")
    assert ledger.reserve(S(1, 1), "ECGMH", "filter")
    assert not ledger.reserve(S(1, 1), "ECGMH", "aggregator")  # full
    ledger.release(S(1, 1), "ECGMH", "filter")
    assert ledger.free(S(1, 1)) == 1
    assert ledger.is_warm(S(1, 1), "ECGMH", "filter")
    ledger.release(S(1, 1), "ECGMH", "filter")
    assert not ledger.is_warm(S(1, 1), "ECGMH", "filter")


def test_ready_servers_order():
    topo = make_small_topology()
    topo.link_cluster(S(1, 1), S(1, 2))
    topo.link_cluster(S(1, 1), S(1, 3))
    assert ready_servers(topo, S(1, 1)) == [S(1, 1), S(1, 2), S(1, 3), S(2, 1)]


def test_all_modules_fit_on_controller():
    topo, dag, plc, ledger, ranked = make_world()
    plan = dapt_place(topo, ledger, S(1, 1), dag, plc, ranked,
                      dag.unpinned(), WEIGHTS, PROFILE)
    assert plan.escalated == []
    assert {d.server for d in plan.decisions} == {S(1, 1)}
    assert cost_model.validate_placement(topo, dag, plc, ledger.used) == []


def test_full_controller_prefers_cluster_member_over_parent():
    topo, dag, plc, ledger, ranked = make_world()
    # Exhaust the controller: overflow must go lateral, not upward.
    while ledger.free(S(1, 1)) > 0:
        ledger.reserve(S(1, 1), "other", "pad")
    plan = dapt_place(topo, ledger, S(1, 1), dag, plc, ranked,
                      dag.unpinned(), WEIGHTS, PROFILE)
    assert plan.escalated == []
    assert {d.server for d in plan.decisions} == {S(1, 2)}
    assert all(d.server != S(1, 1) for d in plan.decisions)


def test_exhausted_ready_servers_escalate_everything():
    topo, dag, plc, ledger, ranked = make_world(clustered=False)
    for sid in (S(1, 1), S(2, 1)):
        while ledger.free(sid) > 0:
            ledger.reserve(sid, "other", "pad")
    plan = dapt_place(topo, ledger, S(1, 1), dag, plc, ranked,
                      dag.unpinned(), WEIGHTS, PROFILE)
    assert plan.decisions == []
    assert sorted(plan.escalated) == sorted(dag.unpinned())


def test_placement_error_when_nothing_above():
    topo, dag, plc, ledger, ranked = make_world(clustered=False)
    cloud = topo.cloud_id
    topo.node(cloud).container_capacity = 0
    with pytest.raises(PlacementError):
        dapt_place(topo, ledger, cloud, dag, plc, ranked,
                   dag.unpinned(), WEIGHTS, PROFILE)


def test_find_min_cost_single_candidate():
    topo, dag, plc, ledger, ranked = make_world()
    choice = find_min_cost(topo, ledger, [S(1, 3)], dag, plc, "filter",
                           WEIGHTS, PROFILE)
    assert choice == S(1, 3)


def test_find_min_cost_prefers_colocated_predecessor():
    topo, dag, plc, ledger, ranked = make_world()
    # The filter's predecessor is the sensor pinned to the device under (1,1):
    # the controller wins on zero-distance input, whether or not the placement
    # already holds the filter elsewhere, and scoring leaves it as it was.
    for held in (None, S(2, 1)):
        if held is not None:
            plc["filter"] = held
        before = dict(plc)
        choice = find_min_cost(topo, ledger, [S(1, 1), S(1, 2), S(2, 1)], dag, plc,
                               "filter", WEIGHTS, PROFILE)
        assert choice == S(1, 1)
        assert plc == before


def test_find_min_cost_tie_prefers_lower_level():
    topo, dag, plc, ledger, ranked = make_world()
    # A module with no placed predecessors costs the same everywhere, so the
    # tie falls through to (not parent, level, index).
    plc.pop("sensor")
    del dag.preds["filter"][:]
    choice = find_min_cost(topo, ledger, [S(2, 1), S(1, 2)], dag, plc,
                           "filter", WEIGHTS, PROFILE)
    assert choice == S(1, 2)
    choice = find_min_cost(topo, ledger, [S(1, 2), S(2, 1)], dag, plc,
                           "filter", WEIGHTS, PROFILE, parent=S(1, 2))
    assert choice == S(2, 1)


def test_remote_placement_confirmation_and_full_target():
    topo, dag, plc, ledger, ranked = make_world()
    results = handle_remote_placement(ledger, S(1, 2), dag, ["filter", "aggregator"])
    assert [(m, ok) for m, ok, _ in results] == [("filter", True),
                                                 ("aggregator", True)]
    assert ledger.free(S(1, 2)) == 8
    while ledger.free(S(1, 2)) > 0:
        ledger.reserve(S(1, 2), dag.template, "aggregator")
    held = (dict(ledger.used), dict(ledger.active_types))
    failed = handle_remote_placement(ledger, S(1, 2), dag, ["filter"])
    # Rejected at the full target, still reporting its warm container.
    assert failed == [("filter", False, True)]
    assert (ledger.used, ledger.active_types) == held  # no reservation kept


def test_warm_container_detected_on_repeat_placement():
    topo, dag, plc, ledger, ranked = make_world()
    assert handle_remote_placement(ledger, S(1, 1), dag, ["filter"]) == [("filter", True, False)]
    plan = dapt_place(topo, ledger, S(1, 1), dag, plc, ranked,
                      ["filter"], WEIGHTS, PROFILE)
    assert [d.server for d in plan.decisions] == [S(1, 1)]
    # Warmth is read at the confirmation, before its slot is reserved.
    assert handle_remote_placement(ledger, S(1, 1), dag, ["filter"]) == [("filter", True, True)]


def test_failure_recovery_rehomes_to_survivor():
    topo, dag, plc, ledger, ranked = make_world()
    plan = dapt_failure_recovery(topo, ledger, S(1, 1), S(1, 2), dag, plc,
                                 ["filter"], WEIGHTS, PROFILE)
    assert plan.decisions[0].server != S(1, 2)
    assert plan.escalated == []


def test_failure_recovery_escalates_when_survivors_full():
    topo, dag, plc, ledger, ranked = make_world(clustered=False)
    for sid in (S(1, 1), S(2, 1)):
        while ledger.free(sid) > 0:
            ledger.reserve(sid, "other", "pad")
    plan = dapt_failure_recovery(topo, ledger, S(1, 1), S(1, 2), dag, plc,
                                 ["filter"], WEIGHTS, PROFILE)
    assert plan.escalated == ["filter"]


def test_failure_recovery_keeps_caller_order_and_skips_failed_server():
    topo, dag, plc, ledger, ranked = make_world()
    plc["filter"] = S(1, 1)
    while ledger.free(S(1, 1)) > 0:
        ledger.reserve(S(1, 1), "other", "pad")
    rank_order = [m for pos in sorted(ranked) for m in ranked[pos]]
    modules = ["hr_analyzer", "arrhythmia_detector"]
    assert rank_order.index(modules[0]) > rank_order.index(modules[1])
    # With the controller full, the failed peer (1,2) is the cheapest server.
    first = dapt_place(topo, ledger, S(1, 1), dag, plc.copy(), ranked,
                       modules, WEIGHTS, PROFILE)
    assert [d.server for d in first.decisions] == [S(1, 2), S(1, 2)]
    plan = dapt_failure_recovery(topo, ledger, S(1, 1), S(1, 2), dag, plc,
                                 modules, WEIGHTS, PROFILE)
    assert [d.module for d in plan.decisions] == modules
    assert all(d.server != S(1, 2) for d in plan.decisions)
    assert plan.escalated == []


def test_constraints_hold_after_full_cascade():
    topo, dag, plc, ledger, ranked = make_world(l1_capacity=2)
    controller = S(1, 1)
    todo = dag.unpinned()
    while todo:
        plan = dapt_place(topo, ledger, controller, dag, plc, ranked,
                          todo, WEIGHTS, PROFILE)
        for server, decs in plan.by_server().items():
            handle_remote_placement(ledger, server, dag, [d.module for d in decs])
        todo = plan.escalated
        if todo:
            controller = topo.node(controller).parent
    assert cost_model.validate_placement(topo, dag, plc, ledger.used) == []
    for sid, count in ledger.used.items():
        assert 0 <= count <= topo.node(sid).container_capacity


def test_ledger_release_of_unheld_container_raises():
    topo = make_small_topology(l1_capacity=2)
    ledger = CapacityLedger(topo)
    with pytest.raises(PlacementError):
        ledger.release(S(1, 1), "ECGMH", "filter")
    ledger.reserve(S(1, 1), "ECGMH", "filter")
    with pytest.raises(PlacementError):
        ledger.release(S(1, 1), "ECGMH", "aggregator")
    ledger.release(S(1, 1), "ECGMH", "filter")
    with pytest.raises(PlacementError):
        ledger.release(S(1, 1), "ECGMH", "filter")
    assert ledger.free(S(1, 1)) == 2
