"""Each device's cost table, kept per change, against a fresh pricing.

`cost_model.reprice` re-prices only the modules a change moves and their
successors. A random move in a random world must leave the table equal to a
full pricing. The simulation runs check, at every change the engine makes,
that the table equals `cost_model.module_cost` of every module, that the
running times equal the prefix sums `_remaining_mi` used to price itself,
and that a table handed to `handle_migration_req` prices its working
placement.
"""
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fogsim import cli, cost_model, migration, scenario
from fogsim.app_model import build_app
from fogsim.cost_model import DeviceEnergyProfile
from fogsim.scenario import POLICIES
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


def _prefix_times(sim, dev):
    """The schedules' running times as `_remaining_mi` summed them before the
    table: each schedule priced afresh, added left to right from 0.0."""
    out = [0.0]
    for group in dev.dag.schedules:
        t, _ = cost_model.schedule_cost(
            {mid: cost_model.module_cost(sim.topology, dev.dag, dev.placement,
                                         sim.profile, mid) for mid in group}, group)
        out.append(out[-1] + t)
    return out


def _checked_run(config) -> Counter:
    """Run `config` with every check in place; returns how often each ran."""
    seen = Counter()
    task_cost = Simulation._task_cost
    remaining_mi = Simulation._remaining_mi
    handle = migration.handle_migration_req

    def checked_task_cost(sim, dev, moved=None):
        out = task_cost(sim, dev, moved)
        assert _hex_table(dev.costs) == _fresh_table(sim.topology, dev.dag,
                                                     dev.placement, sim.profile)
        assert [t.hex() for t in dev.offsets] == [t.hex() for t in _prefix_times(sim, dev)]
        seen["task_cost"] += moved is not None
        return out

    def checked_remaining_mi(sim, dev, module_id, at):
        offset = _prefix_times(sim, dev)[dev.dag.order_of[module_id] - 1]
        want = migration.remaining_instructions(
            dev.dag.incoming_mi(module_id),
            sim.topology.node(dev.placement[module_id]).cpu_mips,
            dev.dag.sensor_interval_s, offset, at, dev.acc.t0)
        got = remaining_mi(sim, dev, module_id, at)
        assert got.hex() == want.hex()
        seen["remaining_mi"] += 1
        return got

    def checked_handle(topology, ledger, dag, working, modules, weights, profile,
                       *args, costs=None, **kw):
        if costs is not None:
            assert _hex_table(costs) == _fresh_table(topology, dag, working, profile)
            seen["seeded"] += 1
        return handle(topology, ledger, dag, working, modules, weights, profile,
                      *args, costs=costs, **kw)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Simulation, "_task_cost", checked_task_cost)
        mp.setattr(Simulation, "_remaining_mi", checked_remaining_mi)
        mp.setattr(migration, "handle_migration_req", checked_handle)
        events = Simulation(config).run().events
    seen.update(ev["kind"] for ev in events)
    return seen


@pytest.mark.parametrize("failure_p", [0.0, 0.5])
@pytest.mark.parametrize("policy", POLICIES)
def test_cost_table_equals_a_fresh_pricing_at_every_change(policy, failure_p):
    seen = _checked_run(_config(policy, failure_p, seed=3, devices=20, horizon=100.0))
    # Partial re-pricings ran at attaches and commits, and the table seeded
    # decisions; each check above saw them.
    assert seen["task_cost"] > 0 and seen["handover"] > 0 and seen["migration"] > 0
    assert seen["remaining_mi"] > 0
    assert seen["seeded"] > 0
    assert (seen["migration_failure"] > 0) == (failure_p > 0)


@settings(max_examples=12, deadline=None)
@given(policy=st.sampled_from(POLICIES), failure_p=st.sampled_from([0.0, 0.5]),
       seed=st.integers(1, 10_000))
def test_cost_table_stays_current_over_seeds(policy, failure_p, seed):
    _checked_run(_config(policy, failure_p, seed, devices=10, horizon=60.0))


def test_pricing_work_on_a_proposed_cell_is_pinned(monkeypatch):
    """Calls of `cost_model.module_costs` and `cost_model.reprice` over one
    `urban_80dev` proposed cell, 320 devices for 60 s at seed 1, pinned so a
    change in pricing work shows without wall time. Devices with one
    template, device speed and held servers share one cost table; pricing
    each device's table alone took 2470 and 508 calls on this cell."""
    calls = Counter()

    def counting(name):
        real = getattr(cost_model, name)

        def counted(*args, **kw):
            calls[name] += 1
            return real(*args, **kw)
        return counted

    for name in ("module_costs", "reprice"):
        monkeypatch.setattr(cost_model, name, counting(name))
    events = Simulation(_config("proposed", 0.0, seed=1, devices=320, horizon=60.0)).run().events
    assert len(events) == 1628
    assert calls == {"module_costs": 1269, "reprice": 240}
