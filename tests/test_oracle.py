"""Exact placement optimum: branch and bound versus exhaustive enumeration."""
import copy
import random

import pytest

from fogsim import cli, cost_model, oracle, scenario
from fogsim.app_model import AppDag, DataFlow, Module
from fogsim.cost_model import CostWeights, DeviceEnergyProfile
from fogsim.sim_engine import Simulation

from conftest import S, make_small_topology

WEIGHTS = CostWeights()
PROFILE = DeviceEnergyProfile()


def pinned_base(dag, device=S(0, 5)):
    return {m.id: device for m in dag.modules if m.pinned_to_device}


def single_module_dag():
    return AppDag("t", "t",
                  [Module("s", pinned_to_device=True), Module("m")],
                  [DataFlow("s", "m", 700.0, 1e6)], 0.01)


def test_single_module_is_argmin_over_candidates():
    topo = make_small_topology(with_device=True)
    dag = single_module_dag()
    candidates = [S(1, 1), S(1, 2), S(2, 1)]
    costs = {}
    for sid in candidates:
        plc = pinned_base(dag)
        plc["m"] = sid
        costs[sid] = cost_model.app_cost(topo, dag, plc, WEIGHTS, PROFILE)
    res = oracle.optimal_placement(topo, dag, WEIGHTS, PROFILE, candidates,
                                   base_placement=pinned_base(dag))
    best = min(candidates, key=lambda sid: (costs[sid], sid))
    assert res.placement["m"] == best
    assert res.cost == pytest.approx(costs[best])
    assert res.complete


def random_dag(rng):
    n = rng.randint(2, 3)
    modules = [Module("s", pinned_to_device=True)] + \
        [Module(f"m{i}") for i in range(1, n + 1)]
    flows = [DataFlow("s", "m1", rng.uniform(100, 1500), rng.uniform(1e3, 1e7))]
    for i in range(2, n + 1):
        src = f"m{rng.randint(1, i - 1)}"
        flows.append(DataFlow(src, f"m{i}", rng.uniform(100, 1500),
                              rng.uniform(1e3, 1e7)))
    return AppDag("r", "r", modules, flows, 0.01)


def test_branch_and_bound_matches_exhaustive_enumeration():
    rng = random.Random(2024)
    pool = [S(1, 1), S(1, 2), S(1, 3), S(2, 1), S(3, 1)]
    for trial in range(30):
        topo = make_small_topology(with_device=True)
        if rng.random() < 0.5:
            topo.link_cluster(S(1, 1), S(1, 2))
        dag = random_dag(rng)
        candidates = rng.sample(pool, rng.randint(2, 4))
        free = None
        if rng.random() < 0.5:
            free = {sid: rng.randint(1, 2) for sid in candidates}
            if sum(free.values()) < len(dag.unpinned()):
                free[candidates[0]] += len(dag.unpinned())
        base = pinned_base(dag)
        bb = oracle.optimal_placement(topo, dag, WEIGHTS, PROFILE, candidates,
                                      capacity_free=free, base_placement=base)
        ex = oracle.exhaustive_optimal(topo, dag, WEIGHTS, PROFILE, candidates,
                                       capacity_free=free, base_placement=base)
        assert bb.complete
        assert bb.cost == ex.cost
        assert bb.cost == cost_model.app_cost(topo, dag, bb.placement, WEIGHTS, PROFILE)
        assert bb.placement == ex.placement


def test_capacity_limits_are_respected():
    topo = make_small_topology(with_device=True)
    dag = random_dag(random.Random(7))
    candidates = [S(1, 1), S(1, 2)]
    free = {S(1, 1): 1, S(1, 2): 5}
    res = oracle.optimal_placement(topo, dag, WEIGHTS, PROFILE, candidates,
                                   capacity_free=free,
                                   base_placement=pinned_base(dag))
    used = {}
    for mid in dag.unpinned():
        sid = res.placement[mid]
        used[sid] = used.get(sid, 0) + 1
    assert used.get(S(1, 1), 0) <= 1


def test_budget_exhaustion_reports_incomplete():
    topo = make_small_topology(with_device=True)
    dag = random_dag(random.Random(3))
    res = oracle.optimal_placement(topo, dag, WEIGHTS, PROFILE,
                                   [S(1, 1), S(1, 2), S(2, 1)],
                                   base_placement=pinned_base(dag),
                                   node_budget=1)
    assert not res.complete


def test_infeasible_capacity_returns_infinite_cost():
    topo = make_small_topology(with_device=True)
    dag = single_module_dag()
    res = oracle.optimal_placement(topo, dag, WEIGHTS, PROFILE, [S(1, 1)],
                                   capacity_free={S(1, 1): 0},
                                   base_placement=pinned_base(dag))
    assert res.placement is None
    assert res.cost == float("inf")


def test_pinned_module_without_preset_server_rejected():
    topo = make_small_topology(with_device=True)
    dag = single_module_dag()
    with pytest.raises(ValueError):
        oracle.optimal_placement(topo, dag, WEIGHTS, PROFILE, [S(1, 1)])


# Summed nodes_explored of the desk_optimality oracle pass over seeds 1-5;
# a bound that prunes differently moves it.
DESK_NODES_SEEDS_1_TO_5 = 235352


def test_oracle_cost_is_app_cost_bit_for_bit_on_desk_optimality():
    config = scenario.load_scenario(cli.resolve_scenario("desk_optimality"), {})
    nodes = 0
    for seed in range(1, 6):
        # The oracle pass of experiments.optimality_study, device by device.
        sim = Simulation(dict(copy.deepcopy(config), seed=seed, policy="proposed"))
        candidates = sim.topology.fog_servers()
        free = {sid: sim.topology.node(sid).container_capacity for sid in candidates}
        for dev in sim.devices:
            res = oracle.optimal_placement(
                sim.topology, dev.dag, sim.weights, sim.profile, candidates,
                capacity_free=free, base_placement=dev.placement)
            assert res.complete
            assert res.cost == cost_model.app_cost(sim.topology, dev.dag, res.placement,
                                                   sim.weights, sim.profile)
            nodes += res.nodes_explored
            for mid in dev.dag.unpinned():
                free[res.placement[mid]] -= 1
    assert nodes == DESK_NODES_SEEDS_1_TO_5


def _desk_world(seed):
    config = scenario.load_scenario(cli.resolve_scenario("desk_optimality"), {})
    sim = Simulation(dict(copy.deepcopy(config), seed=seed, policy="proposed"))
    candidates = sim.topology.fog_servers()
    free = {sid: sim.topology.node(sid).container_capacity for sid in candidates}
    return sim, candidates, free


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_sequential_placement_equals_one_search_per_device(seed):
    """The pass's shared module-cost memo gives every device exactly what a
    search of its own gives against the same remaining capacity."""
    sim, candidates, free = _desk_world(seed)
    apps = [(dev.dag, dev.placement) for dev in sim.devices]
    shared = oracle.sequential_placement(sim.topology, apps, sim.weights, sim.profile,
                                         candidates, free)
    assert len(shared) == len(apps)
    for (dag, base), got in zip(apps, shared):
        want = oracle.optimal_placement(sim.topology, dag, sim.weights, sim.profile,
                                        candidates, capacity_free=free,
                                        base_placement=base)
        assert got.placement == want.placement
        assert float.hex(got.cost) == float.hex(want.cost)
        assert (got.complete, got.nodes_explored) == (want.complete, want.nodes_explored)
        for mid in dag.unpinned():
            free[want.placement[mid]] -= 1


def test_sequential_placement_rejects_a_topology_change_between_devices():
    sim, candidates, free = _desk_world(1)

    def apps():
        for n, dev in enumerate(sim.devices):
            if n == 1:
                sim.topology.bump()
            yield dev.dag, dev.placement

    with pytest.raises(RuntimeError, match="topology changed"):
        oracle.sequential_placement(sim.topology, apps(), sim.weights, sim.profile,
                                    candidates, free)
