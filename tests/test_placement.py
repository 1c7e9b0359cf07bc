"""Per-controller greedy placement, capacity ledger, failure recovery."""
import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fogsim import cost_model
from fogsim.app_model import TEMPLATES, AppDag, build_app, rank_modules
from fogsim.cost_model import CostWeights, DeviceEnergyProfile
from fogsim.placement import (CapacityLedger, PlacementError, dapt_place,
                              dapt_failure_recovery, find_min_cost,
                              handle_remote_placement, ready_servers)

from conftest import S, confirm, make_small_topology, picks
from test_rule_oracle import random_topology

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
    ordered = rank_modules(dag, ready_servers(topo, S(1, 1)), WEIGHTS, topo, PROFILE)
    return topo, dag, plc, ledger, ordered


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
    topo, dag, plc, ledger, ordered = make_world()
    plan = dapt_place(topo, ledger, S(1, 1), dag, plc, ordered,
                      WEIGHTS, PROFILE)
    assert plan.escalated == []
    assert {s for _, s in picks(plc, ordered, plan)} == {S(1, 1)}
    assert cost_model.validate_placement(topo, dag, plc, ledger.used) == []


def test_full_controller_prefers_cluster_member_over_parent():
    topo, dag, plc, ledger, ordered = make_world()
    # Exhaust the controller: overflow must go lateral, not upward.
    while ledger.free(S(1, 1)) > 0:
        ledger.reserve(S(1, 1), "other", "pad")
    plan = dapt_place(topo, ledger, S(1, 1), dag, plc, ordered,
                      WEIGHTS, PROFILE)
    assert plan.escalated == []
    servers = [s for _, s in picks(plc, ordered, plan)]
    assert set(servers) == {S(1, 2)}
    assert all(s != S(1, 1) for s in servers)


def test_exhausted_ready_servers_escalate_everything():
    topo, dag, plc, ledger, ordered = make_world(clustered=False)
    for sid in (S(1, 1), S(2, 1)):
        while ledger.free(sid) > 0:
            ledger.reserve(sid, "other", "pad")
    plan = dapt_place(topo, ledger, S(1, 1), dag, plc, ordered,
                      WEIGHTS, PROFILE)
    assert all(m not in plc for m in ordered)  # nothing picked
    assert sorted(plan.escalated) == sorted(dag.unpinned())


def test_placement_error_when_nothing_above():
    topo, dag, plc, ledger, ordered = make_world(clustered=False)
    cloud = topo.cloud_id
    topo.node(cloud).container_capacity = 0
    with pytest.raises(PlacementError):
        dapt_place(topo, ledger, cloud, dag, plc, ordered, WEIGHTS, PROFILE)


def test_find_min_cost_single_candidate():
    topo, dag, plc, ledger, ordered = make_world()
    choice = find_min_cost(topo, ledger, [S(1, 3)], dag, plc, "filter",
                           WEIGHTS, PROFILE)
    assert choice == S(1, 3)


def test_find_min_cost_prefers_colocated_predecessor():
    topo, dag, plc, ledger, ordered = make_world()
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
    topo, dag, plc, ledger, ordered = make_world()
    # Without its sensor->filter flow the filter has no predecessors and costs
    # the same everywhere, so the tie falls through to the server id:
    # (level, index).
    plc.pop("sensor")
    dag = AppDag(dag.app_id, dag.template, dag.modules,
                 [flow for flow in dag.flows if flow.dst != "filter"], dag.sensor_interval_s)
    assert dag.preds["filter"] == ()
    choice = find_min_cost(topo, ledger, [S(2, 1), S(1, 2)], dag, plc,
                           "filter", WEIGHTS, PROFILE)
    assert choice == S(1, 2)


def test_a_device_candidate_is_priced_where_it_is_attached():
    topo, dag, plc, ledger, ordered = make_world()
    # The filter's input leaves (1,1). Device (0,5) sits one hop below it and
    # wins; handed over to (1,4), the device is as far away as (1,4) itself
    # and computes slower.
    plc["sensor"] = S(1, 1)
    candidates = [S(1, 4), S(0, 5)]
    picks = []
    for parent in (S(1, 1), S(1, 4)):
        topo.set_parent(S(0, 5), parent)
        picks.append(find_min_cost(topo, ledger, candidates, dag, plc, "filter",
                                   WEIGHTS, PROFILE))
    assert picks == [S(0, 5), S(1, 4)]


def brute_force_pick(topo, ledger, candidates, dag, placement, module_id, weights,
                     profile, pending):
    """`find_min_cost`'s documented pick: `min` over the candidates with room,
    each priced alone, by (weighted cost, level, index)."""
    fits = [c for c in candidates if ledger.free(c) - pending.get(c, 0) > 0]
    if len(fits) < 2:
        return fits[0] if fits else None
    return min(fits, key=lambda c: (
        weights.weigh(*cost_model.module_costs(topo, dag, placement, profile, module_id,
                                               [c])[0]),
        c.level, c.index))


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_find_min_cost_equals_a_brute_force_min(seed):
    """Random worlds with 0-2 slots per server, in-flight picks, repeated
    decisions, handovers and link edits followed by `bump()`: every pick is
    the brute-force one, and a decision met before prices nothing."""
    rng = random.Random(seed)
    topo = random_topology(rng, with_devices=True)
    fog = topo.fog_servers()
    devices = sorted(sid for sid in topo.nodes if sid.level == 0)
    for sid in fog:
        topo.node(sid).cpu_mips = rng.choice([3000.0, rng.uniform(1e3, 1e4)])
        topo.node(sid).container_capacity = rng.randint(0, 2)
    topo.bump()
    ledger = CapacityLedger(topo)
    for sid in fog:
        if ledger.free(sid) > 0 and rng.random() < 0.3:
            ledger.reserve(sid, "other", "pad")
    dag = build_app(rng.choice(sorted(TEMPLATES)), "a:1")
    placement = {mid: rng.choice(fog + devices) for mid in dag.module_map}
    weights = CostWeights(rng.random(), rng.random())
    profile = DeviceEnergyProfile(rng.uniform(0.1, 2.0), rng.uniform(0.1, 1.0),
                                  rng.uniform(0.5, 3.0))
    seen = []   # (candidates, module) of earlier decisions, met again later
    with mock.patch.object(cost_model, "module_costs",
                           wraps=cost_model.module_costs) as priced:
        for _ in range(rng.randint(1, 10)):
            if seen and rng.random() < 0.7:
                candidates, module_id = rng.choice(seen)
            else:
                candidates = rng.sample(fog, rng.randint(1, len(fog)))
                if rng.random() < 0.3:
                    candidates.insert(rng.randint(0, len(candidates)), rng.choice(devices))
                module_id = rng.choice(list(dag.module_map))
                seen.append((candidates, module_id))
            # Edit the world this decision reads, or leave it as it was.
            step = rng.random()
            if step < 0.2:
                table = rng.choice([topo.links.lat_up, topo.links.lat_down,
                                    topo.links.bw_up, topo.links.bw_down])
                level = rng.choice(sorted(table))
                table[level] *= rng.choice([0.01, 0.1, 10.0, 100.0])
                topo.bump()
            elif step < 0.4:
                moved = [c for c in candidates if c.level == 0] + [
                    placement[flow.src] for flow in dag.preds[module_id]
                    if placement[flow.src].level == 0]
                topo.set_parent(rng.choice(moved or devices), rng.choice(topo.fog_servers(1)))
            elif step < 0.6 and dag.preds[module_id]:
                src = rng.choice(dag.preds[module_id]).src
                placement[src] = rng.choice(fog + devices)
            pending = {c: rng.randint(1, 2) for c in candidates if rng.random() < 0.3}
            for _ in range(rng.randint(1, 4)):
                args = (topo, ledger, candidates, dag, placement, module_id, weights,
                        profile, pending)
                want = brute_force_pick(*args)
                assert find_min_cost(*args) == want
                calls = priced.call_count
                assert find_min_cost(*args) == want
                if all(c.level for c in candidates):
                    assert priced.call_count == calls
                if want is None:
                    break
                pending[want] = pending.get(want, 0) + 1


def test_remote_placement_confirmation_and_full_target():
    topo, dag, plc, ledger, ordered = make_world()
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
    topo, dag, plc, ledger, ordered = make_world()
    assert handle_remote_placement(ledger, S(1, 1), dag, ["filter"]) == [("filter", True, False)]
    plan = dapt_place(topo, ledger, S(1, 1), dag, plc, ["filter"], WEIGHTS, PROFILE)
    assert picks(plc, ["filter"], plan) == [("filter", S(1, 1))]
    # Warmth is read at the confirmation, before its slot is reserved.
    assert handle_remote_placement(ledger, S(1, 1), dag, ["filter"]) == [("filter", True, True)]


def test_failure_recovery_rehomes_to_survivor():
    topo, dag, plc, ledger, ordered = make_world()
    plan = dapt_failure_recovery(topo, ledger, S(1, 1), S(1, 2), dag, plc,
                                 ["filter"], WEIGHTS, PROFILE)
    assert plan.escalated == []
    assert plc["filter"] != S(1, 2)


def test_failure_recovery_escalates_when_survivors_full():
    topo, dag, plc, ledger, ordered = make_world(clustered=False)
    for sid in (S(1, 1), S(2, 1)):
        while ledger.free(sid) > 0:
            ledger.reserve(sid, "other", "pad")
    plan = dapt_failure_recovery(topo, ledger, S(1, 1), S(1, 2), dag, plc,
                                 ["filter"], WEIGHTS, PROFILE)
    assert plan.escalated == ["filter"]


def test_failure_recovery_keeps_caller_order_and_skips_failed_server():
    topo, dag, plc, ledger, ordered = make_world()
    plc["filter"] = S(1, 1)
    while ledger.free(S(1, 1)) > 0:
        ledger.reserve(S(1, 1), "other", "pad")
    modules = ["hr_analyzer", "arrhythmia_detector"]
    assert ordered.index(modules[0]) > ordered.index(modules[1])
    # With the controller full, the failed peer (1,2) is the cheapest server.
    trial = plc.copy()
    dapt_place(topo, ledger, S(1, 1), dag, trial,
               [m for m in ordered if m in modules], WEIGHTS, PROFILE)
    assert [trial[m] for m in modules] == [S(1, 2), S(1, 2)]
    trial = plc.copy()
    plan = dapt_failure_recovery(topo, ledger, S(1, 1), S(1, 2), dag, trial,
                                 modules, WEIGHTS, PROFILE)
    assert all(s != S(1, 2) for _, s in picks(trial, modules, plan))
    assert plan.escalated == []
    # With one slot left on the controller, the first module in the caller's
    # order takes it and the next goes on to the parent, in either order.
    ledger.release(S(1, 1), "other", "pad")
    for caller in (modules, modules[::-1]):
        trial = plc.copy()
        plan = dapt_failure_recovery(topo, ledger, S(1, 1), S(1, 2), dag, trial,
                                     caller, WEIGHTS, PROFILE)
        assert picks(trial, caller, plan) == [(caller[0], S(1, 1)), (caller[1], S(2, 1))]


def test_constraints_hold_after_full_cascade():
    topo, dag, plc, ledger, ordered = make_world(l1_capacity=2)
    controller = S(1, 1)
    todo = ordered
    while todo:
        plan = dapt_place(topo, ledger, controller, dag, plc, todo, WEIGHTS, PROFILE)
        confirm(ledger, dag, plc, todo, plan)
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
