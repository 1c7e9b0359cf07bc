"""Edgeward and centralized baseline behaviours."""
import pytest

from fogsim import scenario
from fogsim.app_model import build_app, rank_modules
from fogsim.baselines import CentralQueue, maas_place, urmila_place
from fogsim.cost_model import CostWeights, DeviceEnergyProfile
from fogsim.placement import CapacityLedger, PlacementError, dapt_place, ready_servers
from fogsim.sim_engine import run_simulation

from conftest import S, confirm, make_small_topology, picks

WEIGHTS = CostWeights()
PROFILE = DeviceEnergyProfile()


def ecg_setup(topo):
    dag = build_app("ECGMH", "ecg:1")
    return dag, {m.id: S(0, 5) for m in dag.modules if m.pinned_to_device}


def test_maas_fills_controller_then_escalates_past_free_sibling():
    topo = make_small_topology(with_device=True, l1_capacity=1)
    dag, plc = ecg_setup(topo)
    ledger = CapacityLedger(topo)
    plan = maas_place(topo, ledger, S(1, 1), dag, plc, dag.unpinned(),
                      WEIGHTS, PROFILE)
    assert [s for _, s in picks(plc, dag.unpinned(), plan)] == [S(1, 1)]
    # (1,2) has free slots but the edgeward rule never looks sideways.
    assert len(plan.escalated) == 3
    assert ledger.free(S(1, 2)) == 1


def test_maas_identical_to_distributed_greedy_with_infinite_capacity():
    # Unclustered world with ample local capacity: both policies keep every
    # module on the controller.
    topo_a = make_small_topology(with_device=True, l1_capacity=100)
    topo_b = make_small_topology(with_device=True, l1_capacity=100)
    dag_a, plc_a = ecg_setup(topo_a)
    dag_b, plc_b = ecg_setup(topo_b)
    maas_place(topo_a, CapacityLedger(topo_a), S(1, 1), dag_a, plc_a,
               dag_a.unpinned(), WEIGHTS, PROFILE)
    ordered = rank_modules(dag_b, ready_servers(topo_b, S(1, 1)), WEIGHTS,
                           topo_b, PROFILE)
    dapt_place(topo_b, CapacityLedger(topo_b), S(1, 1), dag_b, plc_b, ordered,
               WEIGHTS, PROFILE)
    assert plc_a == plc_b


def test_urmila_central_greedy_places_globally_cheapest():
    topo = make_small_topology(with_device=True)
    dag, plc = ecg_setup(topo)
    ledger = CapacityLedger(topo)
    ordered = rank_modules(dag, topo.fog_servers(), WEIGHTS, topo, PROFILE)
    plan = urmila_place(topo, ledger, S(3, 1), dag, plc, ordered, WEIGHTS, PROFILE)
    servers = [s for _, s in picks(plc, ordered, plan)]
    assert len(servers) == 4
    # The device hangs off (1,1): the per-module global argmin is local to it.
    assert set(servers) == {S(1, 1)}
    assert all(s != S(3, 1) for s in servers)


def test_urmila_first_placement_is_cold_and_repeat_is_warm():
    topo = make_small_topology(with_device=True)
    dag, plc = ecg_setup(topo)
    ledger = CapacityLedger(topo)
    ordered = rank_modules(dag, topo.fog_servers(), WEIGHTS, topo, PROFILE)
    first = urmila_place(topo, ledger, S(3, 1), dag, plc, ordered, WEIGHTS, PROFILE)
    # No decision holds a slot until its target confirms it.
    confirmed = confirm(ledger, dag, plc, ordered, first)
    assert confirmed and all(ok and not warm for _, ok, warm in confirmed)
    replc = plc.copy()
    again = urmila_place(topo, ledger, S(3, 1), dag, replc, ordered,
                         WEIGHTS, PROFILE)
    assert picks(replc, ordered, again) == picks(plc, ordered, first)
    assert all(ok and warm for _, ok, warm in confirm(ledger, dag, replc, ordered, again))


@pytest.mark.parametrize("policy", ["proposed", "maas", "urmila"])
def test_deciding_writes_no_capacity_until_confirmed(policy):
    # Every other server is full, so each pick lands on the decider itself.
    topo = make_small_topology(with_device=True)
    dag, plc = ecg_setup(topo)
    decider = S(3, 1) if policy == "urmila" else S(1, 1)
    for sid in topo.fog_servers():
        if sid != decider:
            topo.node(sid).container_capacity = 0
    ledger = CapacityLedger(topo)
    ledger.reserve(decider, "other", "pad")
    before = (dict(ledger.used), dict(ledger.active_types))
    if policy == "maas":
        ordered = dag.unpinned()
        plan = maas_place(topo, ledger, decider, dag, plc, ordered, WEIGHTS, PROFILE)
    else:
        servers = topo.fog_servers() if policy == "urmila" else ready_servers(topo, decider)
        ordered = rank_modules(dag, servers, WEIGHTS, topo, PROFILE)
        place = urmila_place if policy == "urmila" else dapt_place
        plan = place(topo, ledger, decider, dag, plc, ordered, WEIGHTS, PROFILE)
    assert [s for _, s in picks(plc, ordered, plan)] == [decider] * len(dag.unpinned())
    assert (ledger.used, ledger.active_types) == before
    assert all(ok for _, ok, _ in confirm(ledger, dag, plc, ordered, plan))
    assert ledger.used == {decider: 1 + len(dag.unpinned())}


def test_urmila_raises_when_every_server_is_full():
    topo = make_small_topology(with_device=True, l1_capacity=0)
    for sid in topo.fog_servers():
        topo.node(sid).container_capacity = 0
    dag, plc = ecg_setup(topo)
    ordered = rank_modules(dag, topo.fog_servers(), WEIGHTS, topo, PROFILE)
    with pytest.raises(PlacementError):
        urmila_place(topo, CapacityLedger(topo), S(3, 1), dag, plc, ordered,
                     WEIGHTS, PROFILE)


def test_central_queue_is_fifo_with_fixed_service_time():
    q = CentralQueue(service_time_s=0.001)
    assert q.admit(0.0) == pytest.approx(0.001)
    assert q.admit(0.0) == pytest.approx(0.002)  # waits for the first
    assert q.admit(5.0) == pytest.approx(5.001)  # idle gap resets the queue


def _single_device_cfg(policy):
    return scenario.load_scenario(overrides={
        "policy": policy,
        "seed": 1,
        "horizon_s": 3.0,
        "area": {"width_m": 400.0, "height_m": 400.0},
        "levels": [
            {"level": 1, "count": 1, "cols": 1, "rows": 1, "cpu_mips": 3500,
             "capacity": 10, "coverage_m": 400.0},
            {"level": 2, "count": 1, "cols": 1, "rows": 1, "cpu_mips": 8000,
             "capacity": 20, "coverage_m": 800.0},
            {"level": 3, "count": 1, "cols": 1, "rows": 1, "cpu_mips": 10000,
             "capacity": 60, "coverage_m": 0.0},
        ],
        "devices": {"count": 1, "templates": ["ECGMH"]},
        "mobility": {"speed_min_mps": 0.0, "speed_max_mps": 0.0},
    })


def test_central_control_pays_extra_deployment_latency():
    # One device, one fog server per level: the central baseline reaches the
    # same placement, so execution cost matches while deployment time carries
    # the round trips to the top of the hierarchy.
    prop = run_simulation(_single_device_cfg("proposed"))
    urm = run_simulation(_single_device_cfg("urmila"))
    row_p = prop.rows[0]
    row_u = urm.rows[0]
    assert row_u["artt_s"] == pytest.approx(row_p["artt_s"])
    assert row_u["pdt_s"] > row_p["pdt_s"]
    # Two traversals controller -> top -> controller are in the money.
    up_down = 2 * (0.025 + 0.05)
    assert row_u["pdt_s"] - row_p["pdt_s"] >= up_down - 1e-9
