"""Event kernel, task accounting, mobility stepping, end-to-end determinism."""
import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fogsim import cli, placement, scenario, sim_engine
from fogsim.placement import PlacementError
from fogsim.scenario import POLICIES
from fogsim.sim_engine import (Kernel, Simulation, TaskAccumulator, random_walk_step,
                               run_simulation)
from fogsim.topology import ServerId

TINY = {
    "horizon_s": 5.0,
    "levels": [
        {"level": 1, "count": 6, "cols": 3, "rows": 2, "cpu_mips": [3000, 4000],
         "capacity": 10, "coverage_m": 300.0},
        {"level": 2, "count": 2, "cols": 2, "rows": 1, "cpu_mips": 8000,
         "capacity": 20, "coverage_m": 600.0},
        {"level": 3, "count": 1, "cols": 1, "rows": 1, "cpu_mips": 10000,
         "capacity": 60, "coverage_m": 0.0},
    ],
    "area": {"width_m": 900.0, "height_m": 600.0},
    "devices": {"count": 6},
}


def tiny_config(**overrides):
    cfg = scenario.load_scenario(overrides=TINY)
    return scenario.load_scenario(overrides={**TINY, **overrides}) if overrides else cfg


# -- kernel ------------------------------------------------------------------

def test_kernel_orders_by_time_then_insertion():
    kernel = Kernel()
    seen = []
    kernel.schedule(1.0, "b", lambda e: seen.append("b"))
    kernel.schedule(0.5, "a", lambda e: seen.append("a"))
    kernel.schedule(1.0, "c", lambda e: seen.append("c"))
    kernel.run(2.0)
    assert seen == ["a", "b", "c"]
    assert kernel.now == 2.0


def test_kernel_hands_each_handler_its_argument():
    kernel = Kernel()
    seen = []
    kernel.schedule(1.0, "x", seen.append, "a")
    kernel.schedule(1.0, "y", seen.append)
    kernel.run(1.0)
    assert seen == ["a", None]


def test_kernel_rejects_past_events():
    kernel = Kernel()
    kernel.schedule(1.0, "x", lambda e: None)
    kernel.run(1.0)
    with pytest.raises(ValueError):
        kernel.schedule(0.5, "late", lambda e: None)


# -- task accumulator -----------------------------------------------------------

def test_hundred_emissions_per_second_at_10ms_interval():
    acc = TaskAccumulator(0.010)
    acc.start_service(0.0, 0.05, 0.01)
    snap = acc.snapshot(1.0)
    assert snap["emitted"] == 100
    # Emissions at 0.95 .. 0.99 s are still inside their 50 ms response time,
    # although service started at t = 0.0.
    assert (snap["inflight"], snap["completed"]) == (5, 95)
    assert snap["emitted"] == snap["completed"] + snap["inflight"] + snap["dropped"]


def test_response_sum_is_count_times_cost_without_windows():
    acc = TaskAccumulator(0.010)
    acc.start_service(0.0, 0.05, 0.02)
    acc.flush(0.5)
    assert acc.emitted == 50
    assert acc.resp_sum == pytest.approx(50 * 0.05)
    assert acc.energy_sum == pytest.approx(50 * 0.02)


def test_delay_mode_charges_remaining_window_time():
    # Downtime 0.100..0.183 s; the emission at 0.143 has 40 ms of window left.
    acc = TaskAccumulator(0.143, mode="delay")
    acc.start_service(0.0, 0.01, 0.0)
    acc.add_window(0.100, 0.183)
    acc.flush(1.0)
    interrupted_extra = 0.183 - 0.143
    base = acc.emitted * 0.01
    assert acc.interrupted == 1
    assert acc.resp_sum == pytest.approx(base + interrupted_extra)


def test_drop_mode_removes_interrupted_tasks():
    acc = TaskAccumulator(0.010, mode="drop")
    acc.start_service(0.0, 0.05, 0.02)
    acc.add_window(0.1, 0.2)  # emissions 0.10 .. 0.19 inclusive: 10 tasks
    snap = acc.snapshot(1.0)
    assert snap["dropped"] == 10
    assert snap["interrupted"] == 10
    assert snap["resp_sum"] == pytest.approx((100 - 10) * 0.05)
    assert snap["emitted"] == snap["completed"] + snap["inflight"] + snap["dropped"]


def test_overlapping_windows_merge():
    acc = TaskAccumulator(0.010)
    acc.start_service(0.0, 0.01, 0.0)
    acc.add_window(0.10, 0.20)
    acc.add_window(0.15, 0.25)
    assert acc.windows == [[0.10, 0.25]]


def test_cost_change_splits_segments():
    acc = TaskAccumulator(0.010)
    acc.start_service(0.0, 0.05, 0.01)
    acc.set_cost(0.5, 0.10, 0.02)
    acc.flush(1.0)
    assert acc.resp_sum == pytest.approx(50 * 0.05 + 50 * 0.10)


# -- mobility -------------------------------------------------------------------

def test_walk_step_kinematics():
    leg = ((0.0, 0.0), (10.0, 0.0), 2.0, 0)
    pos, leg, vel = random_walk_step((0.0, 0.0), leg, (100.0, 100.0), random.Random(0),
                                     1.0, (0.5, 4.0), (100.0, 600.0))
    assert pos == pytest.approx((2.0, 0.0))
    assert vel == pytest.approx((2.0, 0.0))
    assert leg == ((0.0, 0.0), (10.0, 0.0), 2.0, 1)


def test_walk_new_leg_is_seeded():
    a = random_walk_step((50.0, 50.0), None, (100.0, 100.0), random.Random(9),
                         0.1, (0.5, 4.0), (100.0, 600.0))
    b = random_walk_step((50.0, 50.0), None, (100.0, 100.0), random.Random(9),
                         0.1, (0.5, 4.0), (100.0, 600.0))
    assert a == b


def test_walk_stays_inside_area():
    rng = random.Random(3)
    pos, leg = (5.0, 5.0), None
    for _ in range(2000):
        pos, leg, _ = random_walk_step(pos, leg, (100.0, 80.0), rng, 0.5,
                                       (0.5, 4.0), (100.0, 600.0))
        assert 0.0 <= pos[0] <= 100.0
        assert 0.0 <= pos[1] <= 80.0


def test_arrival_ends_leg():
    # Four ticks of 2 m leave 2 m to go: the fifth reaches the target exactly.
    leg = ((0.0, 0.0), (10.0, 0.0), 2.0, 4)
    pos, leg, vel = random_walk_step((8.0, 0.0), leg, (100.0, 100.0), random.Random(0),
                                     1.0, (0.5, 4.0), (100.0, 600.0))
    assert pos == (10.0, 0.0)
    assert leg is None
    assert vel == (2.0, 0.0)


def _hex(values):
    return tuple(float.hex(v) for v in values)


def _leg_hex(leg):
    return None if leg is None else (_hex(leg[0]), _hex(leg[1]), leg[2].hex(), leg[3])


@pytest.mark.parametrize("seed", range(8))
def test_walk_of_n_ticks_equals_n_single_ticks(seed):
    # A small area with long, fast legs: walls clip targets and legs end often.
    area, dt, speeds, legs = (100.0, 80.0), 0.5, (2.0, 30.0), (20.0, 300.0)
    one, many = random.Random(seed), random.Random(seed)
    pos1 = posn = (50.0, 40.0)
    leg1 = legn = None
    chunks = random.Random(-seed)
    ends = walls = 0
    for _ in range(40):
        n = chunks.randint(1, 12)
        for _ in range(n):
            pos1, leg1, vel1 = random_walk_step(pos1, leg1, area, one, dt, speeds, legs, 1)
            ends += leg1 is None
            walls += pos1[0] in (0.0, area[0]) or pos1[1] in (0.0, area[1])
        posn, legn, veln = random_walk_step(posn, legn, area, many, dt, speeds, legs, n)
        assert _hex(posn) == _hex(pos1) and _hex(veln) == _hex(vel1)
        assert _leg_hex(legn) == _leg_hex(leg1)
        assert many.getstate() == one.getstate()
    assert ends > 0 and walls > 0


def _reference_tick(position, leg, area, rng, dt, speed_range, leg_range):
    """One tick of the per-tick walk the closed form replaced; `leg` is
    (target, speed). Each tick re-aims at the target from where it stands."""
    x, y = position
    if leg is None:
        theta = rng.uniform(0.0, 2.0 * math.pi)
        dist = rng.uniform(*leg_range)
        target = (min(max(x + dist * math.cos(theta), 0.0), area[0]),
                  min(max(y + dist * math.sin(theta), 0.0), area[1]))
        leg = (target, rng.uniform(*speed_range))
    (tx, ty), speed = leg
    step = speed * dt
    dx, dy = tx - x, ty - y
    dist = math.hypot(dx, dy)
    if dist == 0.0:
        return (tx, ty), None, (0.0, 0.0)
    velocity = (dx / dist * speed, dy / dist * speed)
    if dist <= step:
        return (tx, ty), None, velocity
    return (x + dx / dist * step, y + dy / dist * step), leg, velocity


@pytest.mark.parametrize("speeds", [(2.0, 30.0), (0.0, 0.0), (0.0, 3.0)])
def test_closed_form_legs_follow_the_per_tick_walk(speeds):
    # Start in a corner of a small area with long legs: walls clip targets
    # and a leg drawn from a corner towards it has length zero.
    area, dt, legs = (100.0, 80.0), 0.5, (20.0, 300.0)
    ends = zero = 0
    for seed in range(30):
        ref, rng = random.Random(seed), random.Random(seed)
        pos_ref = pos = (0.0, 0.0)
        leg_ref = leg = None
        for tick in range(400):
            started = leg_ref is None
            pos_ref, leg_ref, vel_ref = _reference_tick(pos_ref, leg_ref, area, ref, dt,
                                                        speeds, legs)
            pos, leg, vel = random_walk_step(pos, leg, area, rng, dt, speeds, legs)
            assert (leg is None) == (leg_ref is None), (seed, tick)
            assert rng.getstate() == ref.getstate(), (seed, tick)
            assert math.dist(pos, pos_ref) <= 1e-9, (seed, tick)
            assert math.dist(vel, vel_ref) <= 1e-9, (seed, tick)
            ends += leg is None
            zero += started and leg is None and vel == (0.0, 0.0)
    assert ends > 0 and zero > 0


def _script_walk(monkeypatch, points):
    """Replace the walk by a fixed path, one point per tick, heading +x."""
    path = iter(points)

    def scripted(position, leg, area, rng, dt, speed_range, leg_range, ticks=1):
        for _ in range(ticks):
            point = next(path)
        return point, leg, (1.0, 0.0)

    monkeypatch.setattr(sim_engine, "random_walk_step", scripted)


def _mover(policy):
    """A tiny-world simulation moving at most 2 m a tick, and its first device
    parked under (1,1); (1,2) sits 300 m east, both with 300 m coverage."""
    sim = Simulation(tiny_config(policy=policy, seed=1, mobility={"speed_max_mps": 20.0}))
    dev = sim.devices[0]
    sim.topology.set_parent(dev.sid, ServerId(1, 1))
    return sim, dev, sim.topology.node(ServerId(1, 1)), sim.topology.node(ServerId(1, 2))


def test_margin_wobble_while_busy_still_latches_the_exit(monkeypatch):
    # A device mid-handover wobbles inside its controller's margin band and
    # then leaves coverage; the lazily scheduled checks must see the exit.
    sim, dev, ctrl, _ = _mover("proposed")
    radius = ctrl.coverage_radius
    band = (1.0 - sim.margin) * radius  # 285 m of 300
    dists = [band + off for off in (-5.0, -3.0, -1.0, 0.5, 1.0, 0.2, 1.1, 0.3)]
    dists += [band + 1.5 * k for k in range(1, 12)]  # out past 300 m
    _script_walk(monkeypatch, [(ctrl.position[0] + d, ctrl.position[1]) for d in dists])
    sim.topology.node(dev.sid).position = (ctrl.position[0] + band - 7.0, ctrl.position[1])
    dev.acc.start_service(0.0, 0.01, 0.0)
    dev.mmt_busy = True
    sim._arm(dev)
    for k, dist in enumerate(dists):
        sim._tick(None)
        assert dev.pending_departure == (dist > radius), k
    assert not any(ev["kind"] == "handover" for ev in sim.events)


def test_full_speed_exit_is_caught_at_its_first_tick_in_the_band(monkeypatch):
    # Straight out from (1,1) at the full 2 m a tick: the skipped ticks must
    # end in time for the check at the first tick inside the margin band.
    sim, dev, ctrl, _ = _mover("maas")
    band = (1.0 - sim.margin) * ctrl.coverage_radius
    x, y = ctrl.position
    dists = [band - 21.0 + 2.0 * k for k in range(1, 13)]  # band + 1 at the 11th
    _script_walk(monkeypatch, [(x + d, y) for d in dists])
    sim.topology.node(dev.sid).position = (x + band - 21.0, y)
    dev.acc.start_service(0.0, 0.01, 0.0)
    sim._arm(dev)
    for dist in dists:
        sim._tick(None)
        handovers = sum(ev["kind"] == "handover" for ev in sim.events)
        assert handovers == (dist >= band), dist


def test_attach_checks_the_device_against_its_new_controller(monkeypatch):
    # 1 m from (1,1)'s centre the next check is 141 ticks off; attached to
    # (1,2), whose edge it sits on, the device must be checked next tick.
    sim, dev, old, new = _mover("urmila")
    x, y = old.position
    sim.topology.node(dev.sid).position = (x + 1.0, y)
    _script_walk(monkeypatch, [(x - 1.0, y)])  # 301 m from (1,2)
    sim.place(dev, 0.0)
    dev.acc.start_service(0.0, *sim._task_cost(dev))
    sim._arm(dev)
    sim._attach(dev, new.id)
    sim._tick(None)
    assert [(ev["frm"], ev["to"]) for ev in sim.events if ev["kind"] == "handover"] \
        == [(str(new.id), str(old.id))]


def test_pending_departure_starts_from_the_current_position(monkeypatch):
    # Unchecked ticks move the device into (1,2)'s coverage; the latched
    # departure must sense from there, not from the last checked point.
    sim, dev, old, new = _mover("maas")
    x, y = old.position
    sim.topology.node(dev.sid).position = (x - 1.0, y)  # sensed by (1,1) alone
    _script_walk(monkeypatch, [(x, y), (x + 1.0, y)])
    dev.acc.start_service(0.0, 0.01, 0.0)
    sim._arm(dev)
    sim._tick(None)
    sim._tick(None)
    dev.mmt_busy = dev.pending_departure = True
    sim._run_round(dev, old.id, [], 0, sim.kernel.now)
    assert [(ev["frm"], ev["to"]) for ev in sim.events if ev["kind"] == "handover"] \
        == [(str(old.id), str(new.id))]


@pytest.mark.parametrize("target_off,first_check", [
    (40.0, 19),  # reaches the band on tick 21: the last tick inside, less 1
    (-5.0, 17),  # stops 5 m short of it on tick 16, then 2 ticks at full reach, less 1
])
def test_leg_aware_check_stops_short_of_the_band(target_off, first_check):
    # At 1 m a tick along its leg, from 21 m inside the band, the device is
    # first checked later than the 2 m-a-tick bound (tick 9) allows.
    sim, dev, ctrl, _ = _mover("maas")
    band = (1.0 - sim.margin) * ctrl.coverage_radius
    x, y = ctrl.position
    origin = (x + band - 21.0, y)
    sim.topology.node(dev.sid).position = origin
    dev.leg = (origin, (x + band + target_off, y), 1.0 / sim.tick_s, 0)
    dev.acc.start_service(0.0, 0.01, 0.0)
    sim._arm(dev)
    assert [tick for tick, _, _ in sim.due] == [first_check]


def _near_the_band(sim):
    """Put each device on the ray from its controller, up to 5 cm inside the
    quiet radius, so that slow legs cross into the margin band during the run."""
    offsets = random.Random(7)
    for dev in sim.devices:
        node = sim.topology.node(dev.sid)
        ctrl = sim.topology.node(node.parent)
        (cx, cy), (x, y) = ctrl.position, node.position
        dist = math.hypot(x - cx, y - cy) or 1.0
        to = sim.quiet * ctrl.coverage_radius - offsets.uniform(0.0, 0.05)
        node.position = (cx + (x - cx) / dist * to, cy + (y - cy) / dist * to)


SETTINGS = {
    "fast": ({"devices": {"count": 40}, "horizon_s": 120.0,
              "mobility": {"speed_min_mps": 0.5, "speed_max_mps": 15.0,
                           "departure_margin": 0.2}}, None),
    "slow": ({"devices": {"count": 40}, "horizon_s": 60.0,
              "mobility": {"speed_min_mps": 0.001, "speed_max_mps": 0.01}}, _near_the_band),
}


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("setting", sorted(SETTINGS))
def test_leg_aware_arming_misses_no_check(monkeypatch, setting, policy):
    # Checking every device at every tick is the reference: a check inside
    # the quiet radius does nothing, so skipping it must change nothing.
    overrides, prepare = SETTINGS[setting]
    config = scenario.load_scenario(cli.resolve_scenario("urban_80dev"), {
        "policy": policy, "seed": 3, **overrides})

    def run():
        sim = Simulation(config)
        if prepare:
            prepare(sim)
        return sim.run()

    lazy = run()
    monkeypatch.setattr(Simulation, "_ticks_ahead", lambda self, dev, position, ctrl: 1)
    eager = run()
    assert lazy.rows == eager.rows
    assert lazy.events == eager.events
    assert sum(ev["kind"] == "handover" for ev in lazy.events) >= 5


# -- end-to-end runs ---------------------------------------------------------------

@pytest.mark.parametrize("policy", POLICIES)
def test_bit_identical_replay(policy):
    cfg = tiny_config(policy=policy, seed=3)
    r1 = run_simulation(cfg)
    r2 = run_simulation(tiny_config(policy=policy, seed=3))
    assert r1.rows == r2.rows
    assert r1.events == r2.events
    assert r1.pdt_mean_s == r2.pdt_mean_s


def test_different_seeds_differ():
    a = run_simulation(tiny_config(policy="proposed", seed=1))
    b = run_simulation(tiny_config(policy="proposed", seed=2))
    assert a.rows != b.rows


def test_zero_horizon_zero_devices_is_empty():
    cfg = tiny_config(devices={"count": 0}, horizon_s=0.0)
    result = run_simulation(cfg, horizons=[0.0])
    assert result.rows == []
    assert result.events == []


@pytest.mark.parametrize("policy", POLICIES)
def test_every_device_gets_service_and_full_placement(policy):
    cfg = tiny_config(policy=policy, seed=1)
    sim = Simulation(cfg)
    sim.run([5.0])
    for dev in sim.devices:
        assert dev.pdt_s is not None and dev.pdt_s > 0
        assert dev.acc.t0 is not None
        for module in dev.dag.modules:
            assert module.id in dev.placement
        for module_id in dev.dag.unpinned():
            # The serving server holds a confirmed container for the module.
            assert sim.ledger.is_warm(dev.placement[module_id],
                                      dev.dag.template, module_id)
    for sid, used in sim.ledger.used.items():
        assert 0 <= used <= sim.topology.node(sid).container_capacity


@settings(max_examples=100, deadline=None)
@given(policy=st.sampled_from(POLICIES), seed=st.integers(1, 10_000),
       devices=st.integers(1, 4),
       levels=st.lists(st.tuples(st.integers(1, 3), st.integers(0, 2)),
                       min_size=1, max_size=3))
def test_every_remote_pick_finds_its_slot(policy, seed, devices, levels):
    """The greedy loop counts each remote pick against its target's free
    slots and nothing reserves before the confirmations, so placement never
    meets a rejection, full fog included, and the ledger holds exactly the
    modules placed on each server."""
    config = scenario.load_scenario(overrides={
        "policy": policy, "seed": seed, "devices": {"count": devices},
        "levels": [{"level": level, "count": count, "cpu_mips": 3000.0,
                    "capacity": capacity, "coverage_m": 300.0}
                   for level, (count, capacity) in enumerate(levels, start=1)]})
    sim = Simulation(config)
    for dev in sim.devices:
        sim.place(dev, 0.0)
    assert sim.ledger.used == Counter(dev.placement[m] for dev in sim.devices
                                      for m in dev.dag.unpinned())


def test_rejected_remote_module_raises_placement_error(monkeypatch):
    # A remote target that rejects a forwarded module breaks the invariant
    # above; the cascade fails loudly instead of carrying on.
    real = placement.handle_remote_placement

    def reject_first(ledger, server, dag, modules):
        (module_id, _, warm), *rest = real(ledger, server, dag, modules)
        return [(module_id, False, warm), *rest]

    monkeypatch.setattr(placement, "handle_remote_placement", reject_first)
    config = scenario.load_scenario(cli.resolve_scenario("urban_80dev"), {
        "policy": "proposed", "seed": 3, "horizon_s": 5.0, "devices": {"count": 80}})
    with pytest.raises(PlacementError, match=r"^\(\d+,\d+\) rejected module \w+$"):
        Simulation(config).run()


def test_no_failure_events_at_probability_zero():
    cfg = tiny_config(policy="proposed", seed=1,
                      failure={"migration_failure_p": 0.0}, horizon_s=30.0)
    result = run_simulation(cfg)
    assert all(ev["kind"] != "migration_failure" for ev in result.events)


def test_certain_failure_still_completes():
    cfg = tiny_config(policy="proposed", seed=1,
                      failure={"migration_failure_p": 1.0}, horizon_s=30.0)
    result = run_simulation(cfg)
    # Every migration attempt fails, so nothing ever commits a move, yet the
    # run finishes and the metrics stay well-formed.
    assert all(ev["kind"] != "migration" for ev in result.events)
    for row in result.rows:
        assert row["migrations"] == 0
        assert row["emitted"] >= 0


def _urban_levels(**fields):
    levels = scenario.load_scenario(cli.resolve_scenario("urban_80dev"))["levels"]
    return [dict(level, **fields) for level in levels]


EXTREMES = {
    "zero_devices": {"devices": {"count": 0}},
    "failure_p_1": {"failure": {"migration_failure_p": 1.0}},
    "one_server_per_level": {"levels": _urban_levels(count=1, cols=1, rows=1)},
    "zero_fog_capacity": {"levels": _urban_levels(capacity=0)},
    "stationary_devices": {"mobility": {"speed_min_mps": 0.0, "speed_max_mps": 0.0}},
}


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("extreme", sorted(EXTREMES))
def test_extreme_settings_finish_and_conserve(extreme, policy):
    config = scenario.load_scenario(cli.resolve_scenario("urban_80dev"), {
        "policy": policy, "seed": 1, "horizon_s": 60.0, "devices": {"count": 20},
        **EXTREMES[extreme]})
    sim = Simulation(config)
    start = [sim.topology.node(dev.sid).position for dev in sim.devices]
    result = sim.run()
    assert len(result.rows) == (0 if extreme == "zero_devices" else 2)
    for row in result.rows:
        assert row["emitted"] == row["completed"] + row["inflight"] + row["dropped"]
    for sid, used in sim.ledger.used.items():
        assert 0 <= used <= sim.topology.node(sid).container_capacity
    if extreme == "zero_fog_capacity":
        # Placement escalates every unpinned module to the cloud.
        for dev in sim.devices:
            for module_id in dev.dag.unpinned():
                assert dev.placement[module_id] == sim.topology.cloud_id
    if extreme == "stationary_devices":
        # Zero reach: a device inside its quiet radius is never checked again.
        assert [sim.topology.node(dev.sid).position for dev in sim.devices] == start
        assert not any(ev["kind"] == "handover" for ev in result.events)


@pytest.mark.parametrize("policy", POLICIES)
def test_only_proposed_builds_cluster_edges(policy):
    # Migration candidates include cluster members under every policy; the
    # baselines get none because only proposed bootstraps clusters.
    sim = Simulation(tiny_config(policy=policy, seed=1))
    clustered = [sid for sid in sim.topology.fog_servers()
                 if sim.topology.node(sid).cluster_members]
    assert bool(clustered) == (policy == "proposed")


def test_metric_row_shape_and_conservation():
    cfg = tiny_config(policy="maas", seed=2)
    result = run_simulation(cfg, horizons=[2.0, 5.0])
    assert len(result.rows) == 4  # 2 horizons x 2 app templates
    for row in result.rows:
        assert row["emitted"] == row["completed"] + row["inflight"] + row["dropped"]
        assert row["awct"] == pytest.approx(0.5 * row["artt_s"] + 0.5 * row["aect_j"])
        assert row["cmwc"] == pytest.approx(0.5 * row["cmt_s"] + 0.5 * row["cmec_j"])


def test_unknown_policy_rejected():
    cfg = tiny_config()
    cfg["policy"] = "nonsense"
    with pytest.raises(ValueError):
        Simulation(cfg)
