"""Differential gate: the engine with every shortcut switched off gives the
same rows and events, byte for byte, as a normal run, and the oracle with
its memo switched off searches the same.

All the engine's switches live in `caches_off`, so a new cache adds its line
there; the oracle's memo is switched off in its own test.
"""
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fogsim import cli, cost_model, migration, oracle, scenario
from fogsim.scenario import POLICIES
from fogsim.sim_engine import Simulation

from test_oracle import _desk_pass, _desk_world
from test_topology import _scan_sensed_by


class _NeverStore(dict):
    """A cache that forgets every entry, so each lookup misses."""

    def __setitem__(self, key, value):
        pass


class _NeverFound(dict):
    """A cache whose entries are never found, so each one is computed again;
    `update` still stores them for the reads that follow."""

    def __contains__(self, key):
        return False


def caches_off(sim, monkeypatch):
    """Switch off every shortcut `sim` would take, once it is built:
    - the topology's route, rank, cost-order and cost-table memos never store
    - `cost_model.reprice` re-prices every module, not what a move reaches
    - MMT prices the working placement itself, not from the device's table
    - every device is checked for departure on every tick
    - `sensed_by` scans every level-1 server instead of its grid cell
    """
    topo = sim.topology
    topo.route_cache, topo.rank_cache, topo.order_cache, topo.table_cache = (
        _NeverStore(), _NeverStore(), _NeverStore(), _NeverStore())
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


@pytest.mark.parametrize("policy", POLICIES)
def test_caches_off_gives_the_same_bytes_with_devices_of_mixed_speeds(monkeypatch, policy):
    """Devices computing at one of three speeds, so that cost tables priced
    for one device are wrong for another of the same template and servers."""
    config = scenario.load_scenario(cli.resolve_scenario("urban_80dev"), {
        "policy": policy, "seed": 3, "horizon_s": 120.0, "devices": {"count": 20}})

    def build():
        sim = Simulation(config)
        for dev in sim.devices:
            sim.topology.node(dev.sid).cpu_mips = (250.0, 500.0, 1000.0)[dev.sid.index % 3]
        sim.topology.bump()
        return sim

    normal = _output(build())
    sim = build()
    caches_off(sim, monkeypatch)
    assert _output(sim) == normal


@settings(max_examples=30, deadline=None)
@given(policy=st.sampled_from(POLICIES), seed=st.integers(1, 10_000),
       devices=st.integers(0, 12), failure_p=st.sampled_from([0.0, 0.5, 1.0]),
       tick_s=st.sampled_from([0.05, 0.1, 0.5, 1.0]),
       margin=st.sampled_from([0.0, 0.05, 0.3, 0.9]),
       speed_min=st.sampled_from([0.0, 0.5, 5.0]),
       speed_span=st.sampled_from([0.0, 4.0, 30.0]),
       mode=st.sampled_from(["delay", "drop"]))
def test_caches_off_gives_the_same_bytes_on_generated_scenarios(
        policy, seed, devices, failure_p, tick_s, margin, speed_min, speed_span, mode):
    """Tiny `urban_80dev` runs, standing devices (zero speed) included."""
    config = scenario.load_scenario(cli.resolve_scenario("urban_80dev"), {
        "policy": policy, "seed": seed, "horizon_s": 30.0, "devices": {"count": devices},
        "failure": {"migration_failure_p": failure_p}, "interrupted_mode": mode,
        "mobility": {"tick_s": tick_s, "departure_margin": margin,
                     "speed_min_mps": speed_min, "speed_max_mps": speed_min + speed_span}})
    normal = _output(Simulation(config))
    sim = Simulation(config)
    with pytest.MonkeyPatch.context() as mp:
        caches_off(sim, mp)
        assert _output(sim) == normal


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_oracle_without_its_memo_searches_the_same(seed):
    """The desk_optimality oracle pass, its memo rows never stored and its
    floors never found, so every row and floor is computed where it is read,
    gives the same costs, placements, node counts and completeness."""
    sim, candidates, free = _desk_world(seed)
    apps = [(dev.dag, dev.placement) for dev in sim.devices]
    normal = oracle.sequential_placement(sim.topology, apps, sim.weights, sim.profile,
                                         candidates, free)
    sim, candidates, free = _desk_world(seed)
    memo = oracle._ModuleCosts()
    memo.rows, memo.floors = _NeverStore(), _NeverFound()
    off = _desk_pass(sim, candidates, free, memo)
    assert [(float.hex(r.cost), r.placement, r.nodes_explored, r.complete) for r in off] \
        == [(float.hex(r.cost), r.placement, r.nodes_explored, r.complete) for r in normal]
