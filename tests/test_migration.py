"""Mobility analysis, migration planning rounds, and destination decisions."""
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fogsim import cost_model
from fogsim.app_model import TEMPLATES, AppDag, DataFlow, Module, build_app
from fogsim.cost_model import (CostWeights, DeviceEnergyProfile, MigrationCost,
                               MigrationParams, module_migration_cost)
from fogsim.migration import (analyze_mobility, cluster_reachable,
                              departure_imminent, estimate_sojourn,
                              handle_migration_req, migration_candidates,
                              mmt_failure_recovery, plan_rounds,
                              remaining_instructions)
from fogsim.placement import CapacityLedger
from fogsim.topology import ServerNode, Topology

from conftest import S, make_links, make_small_topology

WEIGHTS = CostWeights()
PROFILE = DeviceEnergyProfile()
PARAMS = MigrationParams()


# -- sojourn geometry --------------------------------------------------------

def test_sojourn_through_center_is_chord_over_speed():
    # Entering at the circle edge, heading through the center at 2 m/s:
    # the full 400 m chord takes 200 s.
    t = estimate_sojourn((-200.0, 0.0), (2.0, 0.0), (0.0, 0.0), 200.0)
    assert t == pytest.approx(200.0)


def test_sojourn_off_center_chord():
    # Entering 120 m off-axis: chord = 2 * sqrt(200^2 - 120^2) = 320 m.
    t = estimate_sojourn((-200.0, 120.0), (2.0, 0.0), (0.0, 0.0), 200.0)
    chord = 2.0 * math.sqrt(200.0 ** 2 - 120.0 ** 2)
    assert t == pytest.approx(chord / 2.0)


def test_sojourn_zero_when_circle_is_behind():
    assert estimate_sojourn((300.0, 0.0), (2.0, 0.0), (0.0, 0.0), 200.0) == 0.0


def test_sojourn_zero_when_stationary_or_missing():
    assert estimate_sojourn((-200.0, 0.0), (0.0, 0.0), (0.0, 0.0), 200.0) == 0.0
    assert estimate_sojourn((0.0, 500.0), (2.0, 0.0), (0.0, 0.0), 200.0) == 0.0


# -- departure detection -----------------------------------------------------

def test_departure_outside_circle():
    assert departure_imminent((0.0, 0.0), 200.0, (250.0, 0.0), (0.0, 0.0))


def test_departure_in_margin_heading_outward():
    assert departure_imminent((0.0, 0.0), 200.0, (195.0, 0.0), (2.0, 0.0))


def test_no_departure_in_margin_heading_inward():
    assert not departure_imminent((0.0, 0.0), 200.0, (195.0, 0.0), (-2.0, 0.0))


def test_no_departure_deep_inside():
    assert not departure_imminent((0.0, 0.0), 200.0, (50.0, 0.0), (2.0, 0.0))


# -- next-controller analysis --------------------------------------------------

def reach_topo():
    topo = make_small_topology()
    topo.link_cluster(S(1, 1), S(1, 2))
    topo.link_cluster(S(1, 2), S(1, 3))
    return topo


def test_cluster_reachable_includes_members_of_members():
    topo = reach_topo()
    assert cluster_reachable(topo, S(1, 1)) == {S(1, 2), S(1, 3)}


def test_analyze_mobility_prefers_longest_sojourn_with_capacity():
    topo = reach_topo()
    ledger = CapacityLedger(topo)
    # Device between (1,2) at x=150 and (1,3) at x=300, moving toward (1,3):
    # the sojourn inside (1,3)'s circle is longer.
    dest = analyze_mobility(topo, cluster_reachable(topo, S(1, 1)), (140.0, 0.0), (2.0, 0.0),
                            [S(1, 2), S(1, 3)], 1, ledger, random.Random(0))
    assert dest == S(1, 3)


def test_analyze_mobility_falls_back_when_no_capacity():
    topo = reach_topo()
    ledger = CapacityLedger(topo)
    for sid in (S(1, 2), S(1, 3)):
        while ledger.free(sid) > 0:
            ledger.reserve(sid, "pad", "pad")
    dest = analyze_mobility(topo, cluster_reachable(topo, S(1, 1)), (140.0, 0.0), (2.0, 0.0),
                            [S(1, 2), S(1, 3)], 1, ledger, random.Random(0))
    assert dest == S(1, 3)  # max sojourn even though full


def test_analyze_mobility_random_pick_among_unreachable_is_seeded():
    topo = make_small_topology()  # no clusters: nothing is reachable
    ledger = CapacityLedger(topo)
    picks = {analyze_mobility(topo, cluster_reachable(topo, S(1, 1)), (140.0, 0.0), (2.0, 0.0),
                              [S(1, 2), S(1, 3)], 1, ledger,
                              random.Random(42)) for _ in range(5)}
    assert len(picks) == 1
    assert picks.pop() in {S(1, 2), S(1, 3)}


# -- interrupted-task arithmetic -------------------------------------------------

def test_remaining_instructions_phases():
    # 100 MI on 1000 MIPS = 0.1 s of execution per 1 s interval, offset 0.2 s.
    args = dict(total_mi=100.0, cpu_mips=1000.0, interval_s=1.0,
                pipeline_offset_s=0.2, service_start_s=10.0)
    assert remaining_instructions(at_time_s=9.0, **args) == 0.0       # before start
    assert remaining_instructions(at_time_s=10.1, **args) == 0.0      # before offset
    assert remaining_instructions(at_time_s=10.21, **args) == pytest.approx(90.0)
    assert remaining_instructions(at_time_s=10.25, **args) == pytest.approx(50.0)
    assert remaining_instructions(at_time_s=10.5, **args) == 0.0      # idle phase
    assert remaining_instructions(at_time_s=11.25, **args) == pytest.approx(50.0)
    assert remaining_instructions(at_time_s=10.25, total_mi=0.0, cpu_mips=1000.0,
                                  interval_s=1.0, pipeline_offset_s=0.2,
                                  service_start_s=10.0) == 0.0


# -- round planning ----------------------------------------------------------------

def ecg_state(topo, where):
    dag = build_app("ECGMH", "ecg:1")
    return dag, {m.id: S(0, 5) if m.pinned_to_device else where[m.id] for m in dag.modules}


def test_plan_rounds_deciders_follow_previous_levels():
    topo = make_small_topology()
    dag, plc = ecg_state(topo, {
        "filter": S(1, 1), "hr_analyzer": S(1, 1),
        "arrhythmia_detector": S(2, 1), "aggregator": S(4, 1)})
    rounds = plan_rounds(topo, S(1, 4), dag, plc)
    # filter was at L1: decided by the new controller itself.
    assert rounds[0] == {S(1, 4): ["filter"]}
    # L1 and L2 history in one schedule: two deciders along the new chain;
    # the cloud-hosted aggregator is decided by the cloud.
    assert rounds[1] == {S(1, 4): ["hr_analyzer"], S(2, 3): ["arrhythmia_detector"]}
    assert rounds[2] == {S(4, 1): ["aggregator"]}


def test_plan_rounds_orders_by_ram_descending():
    topo = make_small_topology()
    dag = build_app("ECGMH", "ecg:1")
    dag.module_map["hr_analyzer"].container_ram_mb = 50.0
    dag.module_map["arrhythmia_detector"].container_ram_mb = 75.0
    plc = {m.id: S(0, 5) if m.pinned_to_device else S(1, 1) for m in dag.modules}
    rounds = plan_rounds(topo, S(1, 4), dag, plc)
    pair_round = rounds[1]
    assert pair_round[S(1, 4)] == ["arrhythmia_detector", "hr_analyzer"]


def test_plan_rounds_excludes_and_centralizes():
    topo = make_small_topology()
    dag, plc = ecg_state(topo, {
        "filter": S(1, 1), "hr_analyzer": S(1, 1),
        "arrhythmia_detector": S(1, 1), "aggregator": S(1, 1)})
    rounds = plan_rounds(topo, S(1, 4), dag, plc, central=S(3, 1),
                         exclude=["filter"])
    moved = [m for rnd in rounds for mods in rnd.values() for m in mods]
    assert "filter" not in moved
    assert all(set(rnd) == {S(3, 1)} for rnd in rounds)


# -- destination decisions ------------------------------------------------------------

def decision_world():
    """(1,3) is a cheap-to-reach cluster neighbour of (1,1) but a terrible
    host (100 MIPS), (1,2) costs a full up-down trip but serves well."""
    topo = make_small_topology(with_device=True)
    topo.link_cluster(S(1, 1), S(1, 3))
    topo.node(S(1, 3)).cpu_mips = 100.0
    dag = AppDag("t", "t",
                 [Module("s", pinned_to_device=True), Module("m")],
                 [DataFlow("s", "m", 1000.0, 8e3)], 0.01)
    plc = {"s": S(0, 5), "m": S(1, 1)}
    ledger = CapacityLedger(topo)
    return topo, dag, plc, ledger


def test_migration_candidates_cluster_toggle():
    topo = make_small_topology()
    topo.link_cluster(S(2, 1), S(2, 2))
    with_cluster = migration_candidates(topo, S(2, 1))
    assert with_cluster == [S(2, 2), S(2, 1), S(1, 1), S(1, 2), S(1, 3)]
    without = migration_candidates(make_small_topology(), S(2, 1))
    assert without == [S(2, 1), S(1, 1), S(1, 2), S(1, 3)]


def test_staying_put_is_admissible():
    topo, dag, plc, ledger = decision_world()
    decisions = handle_migration_req(
        topo, ledger, dag, plc, ["m"], WEIGHTS, PROFILE,
        PARAMS, lambda m: 1e6, lambda m: 0.0,
        candidates=[S(1, 1), S(1, 3)])
    assert decisions[0].to == S(1, 1)
    assert decisions[0].cost is not None


def test_equal_migration_costs_go_to_the_lower_level():
    # From (2,1), (1,1) is one down hop and (3,1) one up hop. With level 2's
    # up-link constants set to level 1's down-link ones, both moves cost the
    # same double, and the sort's level term must pick (1,1).
    topo = make_small_topology(with_device=True)
    topo.links.lat_up[2] = topo.links.lat_down[1]
    topo.links.bw_up[2] = topo.links.bw_down[1]
    topo.bump()
    dag = AppDag("t", "t",
                 [Module("s", pinned_to_device=True), Module("m")],
                 [DataFlow("s", "m", 1000.0, 8e3)], 0.01)
    plc = {"s": S(0, 5), "m": S(2, 1)}
    tied = 0.041315000000000004
    for to in (S(3, 1), S(1, 1)):
        assert module_migration_cost(topo, PROFILE, PARAMS, WEIGHTS, 1e6,
                                     S(2, 1), to, 0.0)[2] == tied
    decisions = handle_migration_req(
        topo, CapacityLedger(topo), dag, plc, ["m"], WEIGHTS, PROFILE,
        PARAMS, lambda m: 1e6, lambda m: 0.0,
        candidates=[S(3, 1), S(1, 1)], exclude=[S(2, 1)],
        check_admissibility=False)
    assert decisions[0].to == S(1, 1)
    assert decisions[0].cost.weighted == tied


def test_inadmissible_cheapest_falls_through_to_second():
    topo, dag, plc, ledger = decision_world()
    # Migrating to (1,3) is the cheapest move (one 4 ms lateral hop) but its
    # 100 MIPS CPU inflates the application cost far beyond the 5% slack;
    # the up-down neighbour passes.
    decisions = handle_migration_req(
        topo, ledger, dag, plc, ["m"], WEIGHTS, PROFILE,
        PARAMS, lambda m: 1e6, lambda m: 0.0,
        candidates=[S(1, 3), S(1, 2)], exclude=[S(1, 1)])
    assert decisions[0].to == S(1, 2)
    assert plc["m"] == S(1, 2)


def test_admissibility_check_off_commits_cheapest():
    topo, dag, plc, ledger = decision_world()
    decisions = handle_migration_req(
        topo, ledger, dag, plc, ["m"], WEIGHTS, PROFILE,
        PARAMS, lambda m: 1e6, lambda m: 0.0,
        candidates=[S(1, 3), S(1, 2)], exclude=[S(1, 1)],
        check_admissibility=False)
    assert decisions[0].to == S(1, 3)


def test_escalation_when_no_candidate_has_capacity():
    topo, dag, plc, ledger = decision_world()
    while ledger.free(S(1, 2)) > 0:
        ledger.reserve(S(1, 2), "pad", "pad")
    decisions = handle_migration_req(
        topo, ledger, dag, plc, ["m"], WEIGHTS, PROFILE,
        PARAMS, lambda m: 1e6, lambda m: 0.0,
        candidates=[S(1, 2)], exclude=[S(1, 1)])
    assert decisions[0].to is None
    assert plc["m"] == S(1, 1)


def test_failure_recovery_excludes_failed_target():
    topo, dag, plc, ledger = decision_world()
    topo.link_cluster(S(1, 1), S(1, 2))
    decisions = mmt_failure_recovery(
        topo, ledger, dag, plc, ["m"], WEIGHTS, PROFILE, PARAMS,
        lambda m: 1e6, lambda m: 0.0, migration_candidates(topo, S(1, 1)),
        failed=S(1, 2))
    assert decisions[0].to is not None
    assert decisions[0].to != S(1, 2)


def _count_module_costs(monkeypatch):
    calls = []
    priced = cost_model.module_cost

    def counting(*args):
        calls.append(args[-1])
        return priced(*args)

    monkeypatch.setattr(cost_model, "module_cost", counting)
    return calls


def test_staying_as_cheapest_candidate_prices_nothing(monkeypatch):
    topo, dag, plc, ledger = decision_world()
    calls = _count_module_costs(monkeypatch)
    decisions = handle_migration_req(
        topo, ledger, dag, plc, ["m"], WEIGHTS, PROFILE,
        PARAMS, lambda m: 1e6, lambda m: 0.0,
        candidates=[S(1, 3), S(1, 2), S(1, 1)])
    assert decisions[0].to == S(1, 1)
    assert calls == []


def test_a_trial_move_reprices_only_the_moved_module_and_its_successors(monkeypatch):
    topo, dag, plc, ledger = decision_world()
    calls = _count_module_costs(monkeypatch)
    decisions = handle_migration_req(
        topo, ledger, dag, plc, ["m"], WEIGHTS, PROFILE,
        PARAMS, lambda m: 1e6, lambda m: 0.0,
        candidates=[S(1, 3), S(1, 2)], exclude=[S(1, 1)])
    assert decisions[0].to == S(1, 2)
    # The working placement once ("m" has no successor), then each trial move.
    assert sorted(calls[:2]) == ["m", "s"]
    assert calls[2:] == ["m", "m"]


def _reference_decisions(topology, ledger, dag, working, modules, params,
                         dump_bits_of, remaining_mi_of, candidates, exclude,
                         check_admissibility):
    """MMT's decision rule with every candidate priced by a full `app_cost`."""
    candidates = [c for c in candidates if c not in set(exclude)]
    out = []
    for module_id in modules:
        frm = working[module_id]
        old_cost = cost_model.app_cost(topology, dag, working, WEIGHTS, PROFILE)
        dump_bits = dump_bits_of(module_id)
        remaining = remaining_mi_of(module_id)
        scored = []
        for cand in candidates:
            if cand != frm and ledger.free(cand) <= 0:
                continue
            mc = MigrationCost(*module_migration_cost(topology, PROFILE, params, WEIGHTS,
                                                      dump_bits, frm, cand, remaining))
            scored.append((mc.weighted, cand.level, cand.index, cand, mc))
        scored.sort(key=lambda item: item[:3])
        chosen = (None, None)
        for _, _, _, cand, mc in scored:
            working[module_id] = cand
            new_cost = cost_model.app_cost(topology, dag, working, WEIGHTS, PROFILE)
            working[module_id] = frm
            if not check_admissibility or new_cost <= old_cost + params.epsilon_frac * old_cost:
                chosen = (cand, mc)
                break
        if chosen[0] is not None:
            working[module_id] = chosen[0]
        out.append((module_id, frm, *chosen))
    return out


@st.composite
def decision_cases(draw):
    """A two-level world of 1-3 servers per level with 0-2 slots each, one
    device, an application on random servers, and one decider's call."""
    per_level = {1: draw(st.integers(1, 3)), 2: draw(st.integers(1, 3))}
    cloud = S(3, 1)
    specs = [(cloud, 20000.0, draw(st.integers(0, 2)), None)]
    for level in (2, 1):
        for i in range(1, per_level[level] + 1):
            parent = cloud if level == 2 else S(2, (i - 1) % per_level[2] + 1)
            specs.append((S(level, i), float(draw(st.sampled_from([1000, 3500, 8000]))),
                          draw(st.integers(0, 2)), parent))
    device = S(0, 1)
    specs.append((device, 500.0, 8, S(1, draw(st.integers(1, per_level[1])))))
    cluster = draw(st.booleans())
    servers = [sid for sid, *_ in specs if sid != device]
    dag = build_app(draw(st.sampled_from(sorted(TEMPLATES))), "app")
    working = {m.id: device if m.pinned_to_device else draw(st.sampled_from(servers))
               for m in dag.modules}
    modules = draw(st.permutations(dag.unpinned()))[:draw(st.integers(1, 4))]
    candidates = draw(st.lists(st.sampled_from(servers), unique=True))
    for mid in draw(st.lists(st.sampled_from(modules), min_size=1, unique=True)):
        if working[mid] not in candidates:
            candidates.insert(draw(st.integers(0, len(candidates))), working[mid])
    exclude = draw(st.lists(st.sampled_from(servers), max_size=2, unique=True))
    sizes = {mid: draw(st.floats(0.0, 1e7)) for mid in modules}
    params = MigrationParams(epsilon_frac=draw(st.sampled_from([0.0, 0.05])))
    # Three cases in four check admissibility, the path that prices.
    check = draw(st.sampled_from([True, True, True, False]))
    return (specs, cluster, dag, working, modules, candidates, exclude, sizes, params, check)


def _decision_world(specs, cluster):
    topo = Topology([ServerNode(sid, cpu_mips=cpu, container_capacity=cap,
                                position=(0.0, 0.0), parent=parent)
                     for sid, cpu, cap, parent in specs], make_links(), max_fog_level=2)
    if cluster:
        for level in (1, 2):
            same = sorted(sid for sid in topo.nodes if sid.level == level)
            for a, b in zip(same, same[1:]):
                topo.link_cluster(a, b)
    return topo


@settings(max_examples=300, deadline=None)
@given(decision_cases())
def test_decisions_equal_pricing_every_candidate_with_app_cost(case):
    (specs, cluster, dag, working, modules, candidates, exclude, sizes, params,
     check) = case
    expected_working = dict(working)
    topo = _decision_world(specs, cluster)
    expected = _reference_decisions(
        topo, CapacityLedger(topo), dag, expected_working, modules, params,
        sizes.__getitem__, lambda m: sizes[m] / 10.0, candidates, exclude, check)
    topo = _decision_world(specs, cluster)
    decisions = handle_migration_req(
        topo, CapacityLedger(topo), dag, working, modules, WEIGHTS, PROFILE, params,
        sizes.__getitem__, lambda m: sizes[m] / 10.0, candidates, exclude=exclude,
        check_admissibility=check)
    assert [(d.module, d.frm, d.to, d.cost) for d in decisions] == expected
    assert working == expected_working


def _decide(case, topo):
    """One `handle_migration_req` call of `case` on `topo`; returns (decisions,
    final working, module_cost calls)."""
    (_, _, dag, working, modules, candidates, exclude, sizes, params, check) = case
    working = dict(working)
    with pytest.MonkeyPatch.context() as mp:
        calls = _count_module_costs(mp)
        decisions = handle_migration_req(
            topo, CapacityLedger(topo), dag, working, modules, WEIGHTS, PROFILE, params,
            sizes.__getitem__, lambda m: sizes[m] / 10.0, candidates, exclude=exclude,
            check_admissibility=check)
    return [(d.module, d.frm, d.to, d.cost) for d in decisions], working, len(calls)


def _stored(topo):
    """A copy of every table in `topo`'s memo, with its running times and total."""
    return {key: (dict(table), times, total)
            for key, (table, times, total) in topo.table_cache.items()}


def _kept(topo, stored):
    """Whether each table of a `_stored` copy is still in `topo`'s memo as it was."""
    return {key: entry for key, entry in _stored(topo).items() if key in stored} == stored


@settings(max_examples=200, deadline=None)
@given(decision_cases())
def test_a_seeded_table_decides_as_lazy_pricing_does(case):
    """A world whose table memo already holds the working placement's table
    (warm) decides as a world with an empty memo (cold), and prices less."""
    (specs, cluster, dag, working, *_) = case
    cold, cold_working, cold_calls = _decide(case, _decision_world(specs, cluster))
    topo = _decision_world(specs, cluster)
    cost_model.priced(topo, dag, dict(working), PROFILE)
    stored = _stored(topo)
    warm, warm_working, warm_calls = _decide(case, topo)
    assert warm == cold
    assert warm_working == cold_working
    # The cold call prices the whole table before its first trial move; the
    # warm one finds it stored and skips exactly that.
    assert warm_calls == cold_calls - (len(dag.module_map) if cold_calls else 0)
    # Stored tables are only read, by this call and by a second one.
    assert _kept(topo, stored)
    stored = _stored(topo)
    _decide(case, topo)
    assert _kept(topo, stored)


def test_a_seeded_table_saves_the_entry_pricing(monkeypatch):
    topo, dag, plc, ledger = decision_world()
    cost_model.priced(topo, dag, dict(plc), PROFILE)
    stored = _stored(topo)
    calls = _count_module_costs(monkeypatch)
    decisions = handle_migration_req(
        topo, ledger, dag, dict(plc), ["m"], WEIGHTS, PROFILE,
        PARAMS, lambda m: 1e6, lambda m: 0.0,
        candidates=[S(1, 3), S(1, 2)], exclude=[S(1, 1)])
    assert decisions[0].to == S(1, 2)
    assert calls == ["m", "m"]  # the two trial moves only
    assert _kept(topo, stored)
