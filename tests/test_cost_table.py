"""Each priced placement, kept per change, against a fresh pricing.

`cost_model.reprice` re-prices only the modules a change moves and their
successors. A random move in a random world must leave the table equal to a
full pricing. The simulation runs check every table `cost_model.priced`
returns, a device's or an MMT trial move's, found in the world's memo or
priced on a miss: it equals `cost_model.module_cost` of every module of the
placement it was asked for, and its running times equal the prefix sums
`_remaining_mi` used to price itself. They check the device's own table and
running times at every change the engine makes, too.
"""
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fogsim import cli, cost_model, migration, scenario
from fogsim.app_model import build_app
from fogsim.cost_model import DeviceEnergyProfile
from fogsim.scenario import POLICIES, POLICY_RECORDS
from fogsim.sim_engine import Simulation

from test_rule_oracle import random_topology

URBAN = scenario.load_scenario(cli.resolve_scenario("urban_80dev"))


def _config(policy, failure_p, seed, devices, horizon):
    return scenario.load_scenario(cli.resolve_scenario("urban_80dev"), {
        "policy": policy, "seed": seed, "devices": {"count": devices},
        "horizon_s": horizon, "failure": {"migration_failure_p": failure_p}})


def _hex_table(table):
    return {mid: (t.hex(), e.hex()) for mid, (t, e) in table.items()}


def _fresh_table(topology, dag, placement, profile):
    return _hex_table({mid: cost_model.module_cost(topology, dag, placement, profile, mid)
                       for mid in dag.module_map})


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_reprice_of_a_move_equals_a_full_pricing(seed):
    """Modules change servers, or a device is handed over and the modules on
    it are passed: after each move, re-pricing the old table for the moved
    modules gives the same table, bit for bit, as pricing every module."""
    rng = random.Random(seed)
    topo = random_topology(rng, with_devices=True)
    level1 = topo.fog_servers(1)
    devices = sorted(sid for sid in topo.nodes if sid.level == 0)
    everywhere = topo.fog_servers() + devices
    dag = build_app(rng.choice(URBAN["devices"]["templates"]), "a:1")
    placement = {mid: rng.choice(everywhere) for mid in dag.module_map}
    profile = DeviceEnergyProfile(rng.uniform(0.1, 2.0), rng.uniform(0.1, 1.0),
                                  rng.uniform(0.5, 3.0))

    def reprice(costs, moved):
        return cost_model.reprice(topo, dag, placement, profile, costs, moved)

    costs = reprice({}, None)
    for _ in range(rng.randint(1, 8)):
        if rng.random() < 0.5:
            moved = rng.sample(sorted(dag.module_map), rng.randint(1, 3))
            for mid in moved:
                placement[mid] = rng.choice(everywhere)
        else:
            device = rng.choice(sorted(set(placement.values()) & set(devices))
                                or devices)
            topo.set_parent(device, rng.choice(level1))
            moved = [mid for mid, sid in placement.items() if sid == device]
        assert reprice(costs, moved) is costs
        assert _hex_table(costs) == _hex_table(reprice({}, None))


def _prefix_times(topology, dag, placement, profile):
    """The schedules' running times as `_remaining_mi` summed them before the
    table: each schedule priced afresh, added left to right from 0.0."""
    out = [0.0]
    for group in dag.schedules:
        t, _ = cost_model.schedule_cost(
            {mid: cost_model.module_cost(topology, dag, placement, profile, mid)
             for mid in group}, group)
        out.append(out[-1] + t)
    return out


def _hex_times(times):
    return [t.hex() for t in times]


def _checked_run(config) -> Counter:
    """Run `config` with every check in place; returns how often each ran."""
    seen = Counter()
    task_cost = Simulation._task_cost
    remaining_mi = Simulation._remaining_mi
    priced = cost_model.priced

    def checked_task_cost(sim, dev, moved=None):
        out = task_cost(sim, dev, moved)
        assert _hex_table(dev.costs) == _fresh_table(sim.topology, dev.dag,
                                                     dev.placement, sim.profile)
        assert _hex_times(dev.offsets) == _hex_times(
            _prefix_times(sim.topology, dev.dag, dev.placement, sim.profile))
        seen["task_cost"] += moved is not None
        return out

    def checked_priced(topology, dag, placement, profile, costs=None, moved=None):
        out = table, times, _ = priced(topology, dag, placement, profile, costs, moved)
        assert _hex_table(table) == _fresh_table(topology, dag, placement, profile)
        assert _hex_times(times) == _hex_times(
            _prefix_times(topology, dag, placement, profile))
        seen["moved_lookups"] += moved is not None
        return out

    def checked_remaining_mi(sim, dev, module_id, at):
        offset = _prefix_times(sim.topology, dev.dag, dev.placement,
                               sim.profile)[dev.dag.order_of[module_id] - 1]
        want = migration.remaining_instructions(
            dev.dag.incoming_mi(module_id),
            sim.topology.node(dev.placement[module_id]).cpu_mips,
            dev.dag.sensor_interval_s, offset, at, dev.acc.t0)
        got = remaining_mi(sim, dev, module_id, at)
        assert got.hex() == want.hex()
        seen["remaining_mi"] += 1
        return got

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Simulation, "_task_cost", checked_task_cost)
        mp.setattr(Simulation, "_remaining_mi", checked_remaining_mi)
        mp.setattr(cost_model, "priced", checked_priced)
        events = Simulation(config).run().events
    seen.update(ev["kind"] for ev in events)
    # Lookups naming moved modules are a device's partial re-pricings or
    # MMT's trial moves.
    seen["trial_lookups"] = seen.pop("moved_lookups", 0) - seen["task_cost"]
    return seen


@pytest.mark.parametrize("failure_p", [0.0, 0.5])
@pytest.mark.parametrize("policy", POLICIES)
def test_cost_table_equals_a_fresh_pricing_at_every_change(policy, failure_p):
    seen = _checked_run(_config(policy, failure_p, seed=3, devices=20, horizon=100.0))
    # Partial re-pricings ran at attaches and commits, and MMT looked up
    # trial moves wherever it checks admissibility; each check above saw them.
    assert seen["task_cost"] > 0 and seen["handover"] > 0 and seen["migration"] > 0
    assert seen["remaining_mi"] > 0
    assert (seen["trial_lookups"] > 0) == (not POLICY_RECORDS[policy].central)
    assert (seen["migration_failure"] > 0) == (failure_p > 0)


@settings(max_examples=12, deadline=None)
@given(policy=st.sampled_from(POLICIES), failure_p=st.sampled_from([0.0, 0.5]),
       seed=st.integers(1, 10_000))
def test_cost_table_stays_current_over_seeds(policy, failure_p, seed):
    _checked_run(_config(policy, failure_p, seed, devices=10, horizon=60.0))


def _count(monkeypatch, calls, owner, name):
    """Count each call of `owner.name` in `calls[name]`."""
    real = getattr(owner, name)

    def counted(*args, **kw):
        calls[name] += 1
        return real(*args, **kw)
    monkeypatch.setattr(owner, name, counted)


def test_pricing_work_on_a_proposed_cell_is_pinned(monkeypatch):
    """Calls of `cost_model.module_costs` and `cost_model.reprice` over one
    `urban_80dev` proposed cell, 320 devices for 60 s at seed 1, pinned so a
    change in pricing work shows without wall time. Devices with one
    template, device speed and held servers share one cost table; pricing
    each device's table alone took 2470 and 508 calls on this cell."""
    calls = Counter()
    for name in ("module_costs", "reprice"):
        _count(monkeypatch, calls, cost_model, name)
    events = Simulation(_config("proposed", 0.0, seed=1, devices=320, horizon=60.0)).run().events
    assert len(events) == 1628
    assert calls == {"module_costs": 1269, "reprice": 240}


def test_pricing_work_on_a_migration_heavy_cell_is_pinned(monkeypatch):
    """Calls of `cost_model.module_costs`, `cost_model.reprice` and
    `cost_model.priced` over one `urban_80dev` proposed cell, 80 devices for
    60 s at seed 1, where 41 handovers lead to 27 moves, pinned so a change
    in pricing work shows without wall time. MMT's trial moves look their
    tables up in the world's memo, as devices do; pricing each trial in a
    private copy took 792 `module_costs` and 210 `reprice` calls on this
    cell."""
    calls = Counter()
    for name in ("module_costs", "reprice", "priced"):
        _count(monkeypatch, calls, cost_model, name)
    events = Simulation(_config("proposed", 0.0, seed=1, devices=80, horizon=60.0)).run().events
    assert len(events) == 434
    assert calls == {"module_costs": 690, "reprice": 161, "priced": 295}


def test_handover_work_on_a_proposed_cell_is_pinned(monkeypatch):
    """Departure-check and MMT scoring work over one `urban_80dev` proposed
    cell, 80 devices for 120 s at seed 1, pinned so a change in it shows
    without wall time: arms of a departure check, departure tests run
    (`migration.departure_imminent`) and fired, migration prices, the cost
    records of decided moves, and candidate-list builds. Arming each device
    in the margin band for the next tick, a record per priced candidate and
    candidate lists built per decision took 664 arms, 489 tests, 971
    records and 285 + 79 builds on this cell."""
    calls = Counter()
    for owner, name in ((Simulation, "_arm"), (Simulation, "_start_departure"),
                        (migration, "departure_imminent"), (cost_model, "module_migration_cost"),
                        (migration, "MigrationCost"), (migration, "migration_candidates"),
                        (migration, "cluster_reachable")):
        _count(monkeypatch, calls, owner, name)
    events = Simulation(_config("proposed", 0.0, seed=1, devices=80, horizon=120.0)).run().events
    assert len(events) == 525
    assert calls == {"_arm": 329, "departure_imminent": 170, "_start_departure": 121,
                     "module_migration_cost": 971, "MigrationCost": 248,
                     "migration_candidates": 37, "cluster_reachable": 37}
