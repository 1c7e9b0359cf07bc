"""Exact placement optimum: branch and bound versus exhaustive enumeration."""
import builtins
import copy
import hashlib
import itertools
import random

import pytest

from fogsim import cli, cost_model, oracle, scenario
from fogsim.app_model import AppDag, DataFlow, Module, rank_modules
from fogsim.cost_model import CostWeights, DeviceEnergyProfile
from fogsim.sim_engine import Simulation

from conftest import S, compensated_sum, make_small_topology
from test_rule_oracle import random_topology

WEIGHTS = CostWeights()
PROFILE = DeviceEnergyProfile()


def pinned_base(dag, device=S(0, 5)):
    return {m.id: device for m in dag.modules if m.pinned_to_device}


def room_for_all(dag, candidates):
    """A capacity table under which every candidate can take every module."""
    return dict.fromkeys(candidates, len(dag.unpinned()))


def exhaustive_optimal(topology, dag, weights, profile, candidates,
                       capacity_free, base_placement=None):
    """Brute-force reference for `oracle.optimal_placement`: enumerates every
    assignment in the search's module order, with its tie rule. Test-scale only."""
    candidates = sorted(set(candidates))
    order = rank_modules(dag, candidates, weights, topology, profile)
    placement = dict(base_placement or {})
    best_cost = float("inf")
    best_assign = None
    nodes = 0
    for combo in itertools.product(candidates, repeat=len(order)):
        nodes += 1
        used = {}
        ok = True
        for sid in combo:
            used[sid] = used.get(sid, 0) + 1
            if used[sid] > capacity_free.get(sid, 0):
                ok = False
                break
        if not ok:
            continue
        placement.update(zip(order, combo))
        cost = cost_model.app_cost(topology, dag, placement, weights, profile)
        if cost < best_cost - oracle._TIE_EPS or \
                (abs(cost - best_cost) <= oracle._TIE_EPS and
                 (best_assign is None or combo < best_assign)):
            best_cost = cost
            best_assign = combo
    if best_assign is None:
        return oracle.OracleResult(None, float("inf"), True, nodes)
    return oracle.OracleResult({**placement, **dict(zip(order, best_assign))}, best_cost,
                               True, nodes)


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
                                   room_for_all(dag, candidates),
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


def random_world(rng, make_dag, device_bps=None):
    """(topology, dag, candidates, capacity) of one random small world:
    random candidates, a random cluster link, and half the time a tight
    capacity table, otherwise one with room for every module. With
    `device_bps`, the device's uplink and downlink run at that bandwidth."""
    topo = make_small_topology(with_device=True)
    if device_bps is not None:
        topo.links.bw_up[0] = topo.links.bw_down[0] = device_bps
    if rng.random() < 0.5:
        topo.link_cluster(S(1, 1), S(1, 2))
    dag = make_dag(rng)
    candidates = rng.sample([S(1, 1), S(1, 2), S(1, 3), S(2, 1), S(3, 1)],
                            rng.randint(2, 4))
    free = room_for_all(dag, candidates)
    if rng.random() < 0.5:
        free = {sid: rng.randint(1, 2) for sid in candidates}
        if sum(free.values()) < len(dag.unpinned()):
            free[candidates[0]] += len(dag.unpinned())
    return topo, dag, candidates, free


def random_searches(seed, make_dag, trials=30):
    """(topology, dag, branch and bound, exhaustive) for `trials` random small
    worlds from `random_world`."""
    rng = random.Random(seed)
    for trial in range(trials):
        topo, dag, candidates, free = random_world(rng, make_dag)
        base = pinned_base(dag)
        bb = oracle.optimal_placement(topo, dag, WEIGHTS, PROFILE, candidates,
                                      capacity_free=free, base_placement=base)
        ex = exhaustive_optimal(topo, dag, WEIGHTS, PROFILE, candidates,
                                capacity_free=free, base_placement=base)
        yield topo, dag, bb, ex


def test_branch_and_bound_matches_exhaustive_enumeration():
    for topo, dag, bb, ex in random_searches(2024, random_dag):
        assert bb.complete
        assert bb.cost == ex.cost
        assert bb.cost == cost_model.app_cost(topo, dag, bb.placement, WEIGHTS, PROFILE)
        assert bb.placement == ex.placement


def random_dag_with_sink(rng, sink_mi=(1.0, 10.0)):
    """A pinned source and sink around 3-4 searched modules. m2 and m3 both
    follow m1, so their schedule slot holds two searched modules; the sink
    follows either the last modules or m1, then sharing m2's slot. m2 works
    less than m3, and searched modules' execution outweighs transfers and the
    sink's light work (`sink_mi`) on the device, so the bound prunes."""
    n = rng.randint(3, 4)
    modules = [Module("s", pinned_to_device=True)] + \
        [Module(f"m{i}") for i in range(1, n + 1)] + [Module("a", pinned_to_device=True)]

    def flow(src, dst):
        work = {"a": sink_mi, "m2": (1e3, 1e4)}.get(dst, (1e4, 1e5))
        return DataFlow(src, dst, rng.uniform(*work), rng.uniform(1e3, 1e5))

    flows = [flow("s", "m1"), flow("m1", "m2"), flow("m1", "m3")]
    if n == 4:
        flows.append(flow(rng.choice(["m2", "m3"]), "m4"))
    leaves = [f"m{i}" for i in range(2, n + 1) if all(f.src != f"m{i}" for f in flows)]
    flows += [flow(src, "a") for src in (leaves if rng.random() < 0.5 else ["m1"])]
    return AppDag("r", "r", modules, flows, 0.01)


def random_dag_with_heavy_sink(rng):
    """`random_dag_with_sink` whose pinned sink runs 1e3-1e5 MI on the device,
    a cost no searched module's placement changes."""
    return random_dag_with_sink(rng, sink_mi=(1e3, 1e5))


# Summed nodes_explored of the 30 searches below. It pins how hard the bound
# prunes on these worlds: summing a shared slot's costs instead of taking
# their max moves it.
SHARED_SLOT_NODES = 380


def test_branch_and_bound_matches_exhaustive_with_pinned_sink_and_shared_slot():
    nodes = 0
    for _, dag, bb, ex in random_searches(2025, random_dag_with_sink):
        assert max(sum(not dag.module_map[m].pinned_to_device for m in modules)
                   for modules in dag.schedules) >= 2
        assert bb.complete
        assert float.hex(bb.cost) == float.hex(ex.cost)
        assert bb.placement == ex.placement
        nodes += bb.nodes_explored
    assert nodes == SHARED_SLOT_NODES


# Summed nodes_explored of the 30 searches below, against 2833 exhaustive
# combinations. A bound that leaves out the pinned sink or the device hop
# explores more, and so does a walk in execution-cost order (835).
HEAVY_SINK_NODES = 666


def test_branch_and_bound_matches_exhaustive_with_heavy_pinned_sink():
    nodes = 0
    combos = 0
    for _, _, bb, ex in random_searches(2026, random_dag_with_heavy_sink):
        assert bb.complete
        assert float.hex(bb.cost) == float.hex(ex.cost)
        assert bb.placement == ex.placement
        nodes += bb.nodes_explored
        combos += ex.nodes_explored
    assert (nodes, combos) == (HEAVY_SINK_NODES, 2833)


@pytest.mark.parametrize("device_bps", [None, 1e5], ids=["default_links", "slow_device_link"])
@pytest.mark.parametrize("seed, make_dag", [
    (2024, random_dag), (2025, random_dag_with_sink), (2026, random_dag_with_heavy_sink),
], ids=["chain", "sink", "heavy_sink"])
def test_module_floor_is_a_lower_bound_on_module_cost(seed, make_dag, device_bps):
    """Every module's floor on every server it can take is at most its
    weighted `module_cost` under every assignment of its predecessors; with
    one incoming flow, from a pinned module, the two are equal."""
    rng = random.Random(seed)
    tight = 0
    for _ in range(30):
        topo, dag, candidates, _ = random_world(rng, make_dag, device_bps)
        fixed = pinned_base(dag)
        for mid, preds in dag.preds.items():
            srcs = [flow.src for flow in preds]
            choices = [[fixed[src]] if src in fixed else candidates for src in srcs]
            for sid in [fixed[mid]] if mid in fixed else candidates:
                floor, = oracle._module_floor(topo, dag, WEIGHTS, PROFILE, candidates,
                                              fixed, mid, [sid])
                for servers in itertools.product(*choices):
                    placement = {**fixed, **dict(zip(srcs, servers)), mid: sid}
                    t, e = cost_model.module_cost(topo, dag, placement, PROFILE, mid)
                    cost = WEIGHTS.w1 * t + WEIGHTS.w2 * e
                    assert floor <= cost + oracle._TIE_EPS
                    if len(srcs) == 1 and srcs[0] in fixed:
                        assert floor == pytest.approx(cost, rel=1e-12)
                        tight += 1
    assert tight > 0


def test_pass_memo_floors_equal_floors_recomputed():
    """Searches that share one memo read each module's floor from it, keyed
    by (row id, server); every kept floor equals `_module_floor` recomputed
    for each application of the pass, and each search explores what it
    explores with a memo of its own. Floors keyed by module id alone, the
    first application's kept for all, would miss in these worlds."""
    rng = random.Random(2027)
    checked = missed_by_module_id = 0
    for _ in range(25):
        topo = random_topology(rng, with_devices=True)
        fog = topo.fog_servers()
        candidates = sorted(rng.sample(fog, rng.randint(2, min(4, len(fog)))))
        devices = sorted(sid for sid in topo.nodes if sid.level == 0)
        shapes = [random_dag(rng), random_dag_with_sink(rng)]
        apps = [(dag, pinned_base(dag, rng.choice(devices)))
                for dag in rng.choices(shapes, k=6)]
        memo = oracle._ModuleCosts()
        by_module_id = {}
        for dag, base in apps:
            free = room_for_all(dag, candidates)
            shared = oracle.optimal_placement(topo, dag, WEIGHTS, PROFILE, candidates,
                                              free, base, memo=memo)
            alone = oracle.optimal_placement(topo, dag, WEIGHTS, PROFILE, candidates,
                                             free, base)
            assert (float.hex(shared.cost), shared.placement, shared.nodes_explored) == \
                (float.hex(alone.cost), alone.placement, alone.nodes_explored)
            row_key = memo.row_keys(topo, dag, base)
            for mid in dag.module_map:
                sids = [base[mid]] if mid in base else candidates
                fresh = oracle._module_floor(topo, dag, WEIGHTS, PROFILE, candidates,
                                             base, mid, sids)
                for sid, floor in zip(sids, fresh):
                    assert float.hex(memo.floors[row_key[mid][0], sid]) == float.hex(floor)
                    kept = by_module_id.setdefault((mid, sid), floor)
                    missed_by_module_id += kept != floor
                    checked += 1
    assert checked > 1000
    assert missed_by_module_id > 0


@pytest.mark.parametrize("seed, make_dag", [
    (2024, random_dag), (2025, random_dag_with_sink), (2026, random_dag_with_heavy_sink),
], ids=["chain", "sink", "heavy_sink"])
def test_module_cost_at_a_server_equals_writing_it_into_the_placement(seed, make_dag):
    """`module_costs(..., [s])` prices a module on s exactly as a placement
    that holds it there does, and leaves the placement it reads as it was,
    whether or not that placement holds the module."""
    rng = random.Random(seed)
    for _ in range(10):
        topo, dag, candidates, _ = random_world(rng, make_dag)
        placement = {**pinned_base(dag),
                     **{mid: rng.choice(candidates) for mid in dag.unpinned()}}
        for mid in dag.module_map:
            without = {k: v for k, v in placement.items() if k != mid}
            for sid in sorted(topo.nodes):
                want = cost_model.module_cost(topo, dag, {**placement, mid: sid},
                                              PROFILE, mid)
                for given in (placement, without):
                    before = dict(given)
                    got = cost_model.module_costs(topo, dag, given, PROFILE, mid, [sid])[0]
                    assert [float.hex(x) for x in got] == [float.hex(x) for x in want]
                    assert given == before


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
    candidates = [S(1, 1), S(1, 2), S(2, 1)]
    res = oracle.optimal_placement(topo, dag, WEIGHTS, PROFILE, candidates,
                                   room_for_all(dag, candidates),
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
        oracle.optimal_placement(topo, dag, WEIGHTS, PROFILE, [S(1, 1)],
                                 room_for_all(dag, [S(1, 1)]))


# Summed nodes_explored of the desk_optimality oracle pass over seeds 1-5;
# a bound or a candidate order that prunes differently moves it (85281 when
# rows are walked in execution-cost order).
DESK_NODES_SEEDS_1_TO_5 = 4540


def _desk_world(seed):
    config = scenario.load_scenario(cli.resolve_scenario("desk_optimality"), {})
    sim = Simulation(dict(copy.deepcopy(config), seed=seed, policy="proposed"))
    candidates = sim.topology.fog_servers()
    free = {sid: sim.topology.node(sid).container_capacity for sid in candidates}
    return sim, candidates, free


def _desk_pass(sim, candidates, free, memo=None):
    """The oracle pass of experiments.optimality_study, device by device;
    with `memo`, every search shares that module-cost memo."""
    free = dict(free)
    results = []
    for dev in sim.devices:
        res = oracle.optimal_placement(
            sim.topology, dev.dag, sim.weights, sim.profile, candidates,
            capacity_free=free, base_placement=dev.placement, memo=memo)
        results.append(res)
        for mid in dev.dag.unpinned():
            free[res.placement[mid]] -= 1
    return results


def test_oracle_cost_is_app_cost_bit_for_bit_on_desk_optimality():
    nodes = 0
    for seed in range(1, 6):
        sim, candidates, free = _desk_world(seed)
        for dev, res in zip(sim.devices, _desk_pass(sim, candidates, free)):
            assert res.complete
            assert res.cost == cost_model.app_cost(sim.topology, dev.dag, res.placement,
                                                   sim.weights, sim.profile)
            nodes += res.nodes_explored
    assert nodes == DESK_NODES_SEEDS_1_TO_5


# sha256 over one line per device of the desk_optimality oracle pass, seeds
# 1-5: float.hex(cost), complete, and the placement sorted by module. It pins
# which optimum the tie rule picks, which a change of search order must keep.
DESK_PLACEMENT_DIGEST = "dc7571a06d9dc521c5c367cf60e5e9d80a6b82ebb0511ddbeab0d4ff0c49e3e9"


def test_desk_optimality_oracle_placements_match_their_digest():
    digest = hashlib.sha256()
    for seed in range(1, 6):
        for res in _desk_pass(*_desk_world(seed)):
            line = " ".join([float.hex(res.cost), str(res.complete)] +
                            [f"{mid}@{sid.level}.{sid.index}"
                             for mid, sid in sorted(res.placement.items())])
            digest.update(line.encode() + b"\n")
    assert digest.hexdigest() == DESK_PLACEMENT_DIGEST


@pytest.mark.parametrize("seed", [1, 2])
def test_memo_rows_hold_every_candidate_once_cheapest_first(seed):
    """Every row a search reads holds each candidate once, in ascending
    weighted cost, equal costs in server-id order, so the search may stop a
    row at its first pruned candidate. A pinned module's row is its one
    server off the candidates."""
    sim, candidates, free = _desk_world(seed)
    memo = oracle._ModuleCosts()
    _desk_pass(sim, candidates, free, memo)
    searched = ties = 0
    for row in memo.rows.values():
        if len(row) == 1 and row[0][0] not in candidates:
            continue
        assert [(w, sid) for sid, _, _, w in row] == \
            sorted((w, sid) for sid, _, _, w in row)
        assert sorted(sid for sid, *_ in row) == sorted(candidates)
        searched += 1
        ties += sum(a[3] == b[3] for a, b in zip(row, row[1:]))
    assert searched > 0 and ties > 0


def test_oracle_does_not_depend_on_how_sum_adds_floats(monkeypatch):
    """The desk_optimality oracle pass gives the same costs, placements and
    node count when `sum` compensates float rounding, as from CPython 3.12."""
    assert compensated_sum([0.1] * 10) != sum([0.1] * 10)
    worlds = [_desk_world(seed) for seed in range(1, 6)]
    plain = [_desk_pass(*world) for world in worlds]
    monkeypatch.setattr(builtins, "sum", compensated_sum)
    compensated = [_desk_pass(*world) for world in worlds]
    monkeypatch.undo()
    nodes = 0
    for want, got in zip(plain, compensated):
        assert [float.hex(r.cost) for r in got] == [float.hex(r.cost) for r in want]
        assert [r.placement for r in got] == [r.placement for r in want]
        assert [r.nodes_explored for r in got] == [r.nodes_explored for r in want]
        nodes += sum(r.nodes_explored for r in got)
    assert nodes == DESK_NODES_SEEDS_1_TO_5


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


def _hand_over(sim, devices):
    """Move the first device to the first level-1 server that is not its parent."""
    parent = sim.topology.node(devices[0].sid).parent
    sim.topology.set_parent(devices[0].sid, next(
        sid for sid in sim.topology.fog_servers(level=1) if sid != parent))


def _share_parent_at_other_cpu(sim, devices):
    """Put the second device under the first one's parent on a slower CPU."""
    first, second = (sim.topology.node(dev.sid) for dev in devices)
    sim.topology.set_parent(second.id, first.parent)
    second.cpu_mips = first.cpu_mips / 2


@pytest.mark.parametrize("change, searched", [
    (lambda sim, devices: sim.topology.bump(), [0, 1, 0]),
    (_hand_over, [0, 1, 0]),
    (_share_parent_at_other_cpu, [0, 2]),
], ids=["bump", "set_parent", "same_parent_other_cpu"])
def test_sequential_placement_survives_a_topology_change_between_devices(change, searched):
    """A change between two searches of one pass stales no memo row: each
    result equals a fresh search of the device as it is then. Device 0 is
    searched before and after its handover; devices 0 and 2 share the
    ECGMH template, and a pinned module's row must tell their CPUs apart."""
    sim, candidates, _ = _desk_world(1)
    # Room for every module of every search, so the searches of the pass
    # explore what lone searches do and meet each other's rows.
    free = dict.fromkeys(candidates, 16)
    devices = [sim.devices[i] for i in searched]
    assert devices[0].dag.template == devices[-1].dag.template
    wanted = []

    def apps():
        for n, dev in enumerate(devices):
            if n == 1:
                change(sim, [devices[0], devices[-1]])
            wanted.append(oracle.optimal_placement(
                sim.topology, dev.dag, sim.weights, sim.profile, candidates,
                capacity_free=free, base_placement=dev.placement))
            yield dev.dag, dev.placement

    got = oracle.sequential_placement(sim.topology, apps(), sim.weights, sim.profile,
                                      candidates, free)
    assert len(got) == len(devices)
    for want, res in zip(wanted, got):
        assert res.placement == want.placement
        assert float.hex(res.cost) == float.hex(want.cost)
        assert (res.complete, res.nodes_explored) == (want.complete, want.nodes_explored)


# Seed-1 desk_optimality device 1 against untouched capacity: the full search
# explores 12 nodes, and a budget k below that stops at node k + 1 with
# these incumbent costs (float.hex). The first leaf, reached at node 4, is
# already the optimum; the rest of the search proves it.
FULL_SEARCH_NODES = 12
BUDGET_INCUMBENTS = {0: "inf", 1: "inf", 2: "inf", 3: "0x1.2389effb95d92p-6",
                     11: "0x1.2389effb95d92p-6"}


def test_node_budget_returns_the_incumbent_below_full_and_the_optimum_from_full():
    sim, candidates, free = _desk_world(1)
    dev = sim.devices[1]

    def search(budget):
        return oracle.optimal_placement(sim.topology, dev.dag, sim.weights, sim.profile,
                                        candidates, capacity_free=free,
                                        base_placement=dev.placement, node_budget=budget)

    full = search(oracle.DEFAULT_NODE_BUDGET)
    assert (full.complete, full.nodes_explored) == (True, FULL_SEARCH_NODES)
    for budget, cost in BUDGET_INCUMBENTS.items():
        got = search(budget)
        assert (got.complete, got.nodes_explored) == (False, budget + 1)
        assert float.hex(got.cost) == cost
        assert (got.placement is None) == (cost == "inf")
    for budget in (FULL_SEARCH_NODES, FULL_SEARCH_NODES + 1):
        assert search(budget) == full
