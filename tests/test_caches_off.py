"""Differential gate: the engine with every shortcut switched off gives the
same rows and events, byte for byte, as a normal run.

All switches live in `caches_off`, so a new cache adds its line there.
"""
import json

import pytest

from fogsim import cli, cost_model, migration, scenario
from fogsim.scenario import POLICIES
from fogsim.sim_engine import Simulation

from test_topology import _scan_sensed_by


class _NeverStore(dict):
    """A cache that forgets every entry, so each lookup misses."""

    def __setitem__(self, key, value):
        pass


def caches_off(sim, monkeypatch):
    """Switch off every shortcut `sim` would take, once it is built:
    - the topology's route, rank and cost-order memos never store
    - `cost_model.reprice` re-prices every module, not what a move reaches
    - MMT prices the working placement itself, not from the device's table
    - every device is checked for departure on every tick
    - `sensed_by` scans every level-1 server instead of its grid cell
    """
    topo = sim.topology
    topo.route_cache, topo.rank_cache, topo.order_cache = (
        _NeverStore(), _NeverStore(), _NeverStore())
    reprice = cost_model.reprice
    monkeypatch.setattr(cost_model, "reprice", lambda topology, dag, placement, profile,
                        costs, moved=None: reprice(topology, dag, placement, profile, costs))
    handle = migration.handle_migration_req
    monkeypatch.setattr(migration, "handle_migration_req",
                        lambda *args, costs=None, **kw: handle(*args, **kw))
    monkeypatch.setattr(sim, "_ticks_ahead", lambda dev, position, ctrl: 1)
    monkeypatch.setattr(topo, "sensed_by", lambda point: _scan_sensed_by(topo, point))


def _output(sim) -> bytes:
    result = sim.run()
    return json.dumps([result.rows, result.events], sort_keys=True, default=str).encode()


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("failure_p", [0.0, 0.5])
@pytest.mark.parametrize("policy", POLICIES)
def test_caches_off_gives_the_same_bytes(monkeypatch, policy, failure_p, seed):
    config = scenario.load_scenario(cli.resolve_scenario("urban_80dev"), {
        "policy": policy, "seed": seed, "horizon_s": 120.0, "devices": {"count": 20},
        "failure": {"migration_failure_p": failure_p}})
    normal = _output(Simulation(config))
    sim = Simulation(config)
    caches_off(sim, monkeypatch)
    assert _output(sim) == normal
    assert json.loads(normal)[1], "a run without events checks nothing"
