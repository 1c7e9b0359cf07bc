"""Each device's cost table, kept per change, against a fresh pricing.

`Simulation._task_cost` re-prices only the modules a change names. These
runs check, at every change the engine makes, that the table equals
`cost_model.module_cost` of every module, that the running times equal the
prefix sums `_remaining_mi` used to price itself, and that a table handed to
`handle_migration_req` prices its working placement.
"""
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fogsim import cli, cost_model, migration, scenario
from fogsim.scenario import POLICIES
from fogsim.sim_engine import Simulation


def _config(policy, failure_p, seed, devices, horizon):
    return scenario.load_scenario(cli.resolve_scenario("urban_80dev"), {
        "policy": policy, "seed": seed, "devices": {"count": devices},
        "horizon_s": horizon, "failure": {"migration_failure_p": failure_p}})


def _hex_table(table):
    return {mid: (t.hex(), e.hex()) for mid, (t, e) in table.items()}


def _fresh_table(topology, dag, placement, profile):
    return _hex_table({mid: cost_model.module_cost(topology, dag, placement, profile, mid)
                       for mid in dag.module_map})


def _prefix_times(sim, dev):
    """The schedules' running times as `_remaining_mi` summed them before the
    table: each schedule priced afresh, added left to right from 0.0."""
    out = [0.0]
    for group in dev.dag.schedules:
        t, _ = cost_model.schedule_cost(sim.topology, dev.dag, dev.placement,
                                        sim.profile, group)
        out.append(out[-1] + t)
    return out


def _checked_run(config) -> Counter:
    """Run `config` with every check in place; returns how often each ran."""
    seen = Counter()
    task_cost = Simulation._task_cost
    remaining_mi = Simulation._remaining_mi
    handle = migration.handle_migration_req

    def checked_task_cost(sim, dev, touched=None):
        out = task_cost(sim, dev, touched)
        assert _hex_table(dev.costs) == _fresh_table(sim.topology, dev.dag,
                                                     dev.placement, sim.profile)
        assert [t.hex() for t in dev.offsets] == [t.hex() for t in _prefix_times(sim, dev)]
        seen["task_cost"] += touched is not None
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
