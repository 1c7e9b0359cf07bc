"""Deterministic discrete-event simulation engine.

Single event kernel (time, insertion sequence) drives mobility ticks,
placement cascades, handovers, and migration rounds. Task emissions are not
individual events: per-task cost is constant between placement changes, so
emissions are accumulated segment-wise with closed-form counts, which keeps
reference-scale runs fast while preserving exact per-task arithmetic.
"""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from functools import reduce
from operator import add
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from . import baselines, cost_model, migration, placement
from .app_model import AppDag, rank_modules
from .clustering import bootstrap_clusters
from .cost_model import Placement
from .placement import CapacityLedger, PlacementError
from .scenario import POLICIES, POLICY_RECORDS, build_world, stream
from .topology import ServerId, Topology

# Metres the ticks a departure check skips keep clear of where a test fires:
# positions and crossings carry float error, and a very slow leg's tick is
# too short to cover it.
_SLACK_M = 1e-6


def _left_sum(values) -> float:
    """`values` added left to right, as `sum` adds floats up to CPython 3.11;
    from 3.12 `sum` compensates rounding, which moves the metrics' last digit."""
    return reduce(add, values, 0)


class Kernel:
    """Minimal heap-based event kernel with stable FIFO tie-breaking.

    Heap entries are (timestamp, sequence, handler, arg) tuples, and dispatch
    calls handler(arg); sequence numbers are unique, so ordering never
    compares handlers or arguments.
    """

    def __init__(self):
        self.now = 0.0
        self._seq = 0
        self._heap: List[Tuple[float, int, Callable, object]] = []

    def schedule(self, at: float, kind: str, handler: Callable, arg=None):
        if at < self.now - 1e-12:
            raise ValueError(f"cannot schedule {kind} in the past ({at} < {self.now})")
        self._seq += 1
        heapq.heappush(self._heap, (at, self._seq, handler, arg))

    def run(self, until: float):
        heap = self._heap
        while heap and heap[0][0] <= until + 1e-12:
            self.now, _, handler, arg = heapq.heappop(heap)
            handler(arg)
        self.now = until


class TaskAccumulator:
    """Closed-form per-device task ledger.

    Tasks are emitted every `interval_s` from service start. Between change
    points the per-task response/energy is constant, so each segment is
    folded in O(1). Downtime windows mark emissions as interrupted: in delay
    mode they finish at the window end, in drop mode they are lost.
    """

    def __init__(self, interval_s: float, mode: str = "delay"):
        self.interval = interval_s
        self.mode = mode
        self.t0: Optional[float] = None
        self.seg_start = 0.0
        self.cost_time = 0.0
        self.cost_energy = 0.0
        self.emitted = 0
        self.resp_sum = 0.0
        self.energy_sum = 0.0
        self.interrupted = 0
        self.dropped = 0
        self.windows: List[List[float]] = []

    def start_service(self, t0: float, cost_time: float, cost_energy: float):
        self.t0 = t0
        self.seg_start = t0
        self.cost_time = cost_time
        self.cost_energy = cost_energy

    def _count(self, a: float, b: float) -> Tuple[int, float]:
        """Emissions te = t0 + m * interval in [a, b): count and sum of te."""
        if self.t0 is None or b <= a:
            return 0, 0.0
        lo = max(0, math.ceil((a - self.t0) / self.interval - 1e-9))
        hi = max(0, math.ceil((b - self.t0) / self.interval - 1e-9))
        k = hi - lo
        if k <= 0:
            return 0, 0.0
        sum_te = k * self.t0 + self.interval * (lo + hi - 1) * k / 2.0
        return k, sum_te

    def add_window(self, w0: float, w1: float):
        """Record a downtime window; overlapping windows merge into one."""
        if w1 <= w0:
            return
        merged = [w0, w1]
        keep = []
        for win in self.windows:
            if win[1] < merged[0] or win[0] > merged[1]:
                keep.append(win)
            else:
                merged[0] = min(merged[0], win[0])
                merged[1] = max(merged[1], win[1])
        keep.append(merged)
        keep.sort()
        self.windows = keep

    def flush(self, now: float):
        """Fold all emissions in [seg_start, now) into the counters."""
        if self.t0 is None or now <= self.seg_start:
            return
        a, b = self.seg_start, now
        k, _ = self._count(a, b)
        self.emitted += k
        self.resp_sum += k * self.cost_time
        self.energy_sum += k * self.cost_energy
        remaining = []
        for w0, w1 in self.windows:
            lo, hi = max(w0, a), min(w1, b)
            kw, sum_te = self._count(lo, hi)
            if kw:
                self.interrupted += kw
                if self.mode == "delay":
                    self.resp_sum += kw * w1 - sum_te
                else:
                    self.resp_sum -= kw * self.cost_time
                    self.energy_sum -= kw * self.cost_energy
                    self.dropped += kw
            if w1 > b:
                remaining.append([max(w0, b), w1])
        self.windows = remaining
        self.seg_start = now

    def set_cost(self, now: float, cost_time: float, cost_energy: float):
        self.flush(now)
        self.cost_time = cost_time
        self.cost_energy = cost_energy

    def snapshot(self, at: float) -> dict:
        self.flush(at)
        start = at if self.t0 is None else self.t0
        inflight, _ = self._count(max(start, at - self.cost_time), at)
        completed = self.emitted - self.dropped - inflight
        return {"emitted": self.emitted, "completed": completed,
                "inflight": inflight, "dropped": self.dropped,
                "interrupted": self.interrupted,
                "resp_sum": self.resp_sum, "energy_sum": self.energy_sum}


def _leg_ticks(length: float, step: float) -> Optional[int]:
    """The tick on which a leg of `length` metres, walked `step` metres a
    tick, reaches its target; None when it never does (a standing leg)."""
    if length <= step or length == 0.0:
        return 1
    if step <= 0.0:
        return None
    return math.ceil(length / step)


def random_walk_step(position, leg, area, rng, dt, speed_range, leg_range, ticks=1):
    """Advance `ticks` (at least one) mobility ticks; returns (position, leg, velocity).

    `leg` is (origin, target, speed, done) or None. Along a leg the device
    sits at origin + u * (speed * dt * done), u being the unit vector from
    origin to target, and on the tick `_leg_ticks` names it snaps to the
    target and the leg ends (None). A new leg is drawn from the current
    position on the tick after, and its target clamps to the area, so a
    wall ends it. A position depends only on its leg and tick count, so one
    call of n ticks equals n calls of one tick bit for bit; `position` is
    read only to start a leg. The velocity is u * speed, or zero along a
    zero-length leg.
    """
    left = ticks
    while True:
        if leg is None:
            x, y = position
            theta = rng.uniform(0.0, 2.0 * math.pi)
            dist = rng.uniform(*leg_range)
            target = (min(max(x + dist * math.cos(theta), 0.0), area[0]),
                      min(max(y + dist * math.sin(theta), 0.0), area[1]))
            leg = (position, target, rng.uniform(*speed_range), 0)
        (ox, oy), (tx, ty), speed, done = leg
        length = math.hypot(tx - ox, ty - oy)
        step = speed * dt
        end = _leg_ticks(length, step)
        if length == 0.0:
            velocity = (0.0, 0.0)
        else:
            ux, uy = (tx - ox) / length, (ty - oy) / length
            velocity = (ux * speed, uy * speed)
        if end is None or done + left < end:
            done += left
            walked = step * done
            return (ox + ux * walked, oy + uy * walked), leg[:3] + (done,), velocity
        left -= end - done
        position, leg = leg[1], None
        if not left:
            return position, None, velocity


@dataclass
class SimDevice:
    """Per-device run state; the controller is the topology node's parent and
    the service start is `acc.t0`.

    The position on the topology node is current as of tick `walked`;
    `Simulation._walk` brings it up to the kernel's tick count.
    `check_version` tells the live entry of the departure-check heap from
    stale ones. `busy` holds the modules a new migration plan skips: those
    planned in a round not yet started, and those moving.

    From service start, `costs` and `offsets` are the table and running
    times (from 0.0) `cost_model.priced` returns for the current placement
    and parent; `Simulation._task_cost` keeps both current. `priced` shares
    them with other devices and MMT's trial moves, so they are only read.
    """
    sid: ServerId
    dag: AppDag
    placement: Placement
    acc: TaskAccumulator
    rng_mob: object
    leg: Optional[tuple] = None
    velocity: Tuple[float, float] = (0.0, 0.0)
    walked: int = 0
    check_version: int = 0
    pdt_s: Optional[float] = None
    mmt_busy: bool = False
    pending_departure: bool = False
    busy: set = field(default_factory=set)
    mig_events: List[tuple] = field(default_factory=list)  # (ts, moves, cmt, cmec)
    costs: Optional[cost_model.CostTable] = None
    offsets: Tuple[float, ...] = ()


@dataclass
class SimResult:
    rows: List[dict]
    events: List[dict]


class Simulation:
    def __init__(self, config: dict):
        if config["policy"] not in POLICIES:
            raise ValueError(f"unknown policy {config['policy']!r}")
        self.config = config
        self.policy = POLICY_RECORDS[config["policy"]]
        world = build_world(config)
        self.topology: Topology = world.topology
        self.weights = world.weights
        self.profile = world.profile
        self.mig_params = world.migration
        self.ledger = CapacityLedger(self.topology)
        self.kernel = Kernel()
        self.events: List[dict] = []
        seed = config["seed"]
        self.rng_fail = stream(seed, "failure")
        self.rng_dump = stream(seed, "dump")
        self.rng_unreach = stream(seed, "unreach")
        self.failure_p = float(config["failure"]["migration_failure_p"])
        self.startup_s = float(config["container_startup_s"])
        self.sensor_lat = float(config["sensor_attach_latency_s"])
        self.central = ServerId(self.topology.max_fog_level, 1)
        self.queue = baselines.CentralQueue(float(config["urmila"]["service_time_s"]))
        # Read when the simulation is built, so a rebound module attribute counts.
        self.planner = getattr(placement, self.policy.planner, None) \
            or getattr(baselines, self.policy.planner)
        if self.policy.clustered:
            bootstrap_clusters(self.topology)
        # Cluster edges are fixed from here on, so each fog server's migration
        # candidates and cluster-reachable set are built once.
        fog = self.topology.fog_servers()
        self.candidates = {s: tuple(migration.migration_candidates(self.topology, s)) for s in fog}
        self.reachable = {s: migration.cluster_reachable(self.topology, s) for s in fog}
        mob = config["mobility"]
        self.tick_s = float(mob["tick_s"])
        self.speed_range = (float(mob["speed_min_mps"]), float(mob["speed_max_mps"]))
        self.leg_range = (float(mob["leg_min_m"]), float(mob["leg_max_m"]))
        self.margin = float(mob["departure_margin"])
        # Farthest a device moves in one tick, and the part of the coverage
        # radius inside which neither departure test can fire.
        self.reach = max(abs(v) for v in self.speed_range) * self.tick_s
        self.quiet = min(1.0 - self.margin, 1.0)
        self.ticks = 0
        self.due: List[Tuple[int, int, int]] = []  # (tick, device index, version)
        self.area = (float(config["area"]["width_m"]), float(config["area"]["height_m"]))
        self.devices: List[SimDevice] = [
            SimDevice(sid=sid, dag=dag,
                      placement={m.id: sid for m in dag.modules if m.pinned_to_device},
                      acc=TaskAccumulator(dag.sensor_interval_s, config["interrupted_mode"]),
                      rng_mob=stream(seed, f"mob:{sid.index}"))
            for sid, dag in world.devices]

    # -- helpers -----------------------------------------------------------

    def log(self, kind: str, **detail):
        self.events.append({"t": round(self.kernel.now, 9), "kind": kind, **detail})

    def lat(self, a: ServerId, b: ServerId) -> float:
        return cost_model.internodal_latency(self.topology, a, b)

    def _task_cost(self, dev: SimDevice,
                   moved: Optional[Iterable[str]] = None) -> Tuple[float, float]:
        """(response time, energy) of one task under the device's placement, from
        `cost_model.priced`: a miss re-prices what `moved` reaches from `dev.costs`."""
        dev.costs, dev.offsets, (t, e) = cost_model.priced(
            self.topology, dev.dag, dev.placement, self.profile, dev.costs, moved)
        return t + self.sensor_lat, e

    def _dump_bits(self, dev: SimDevice, module_id: str) -> float:
        ram_mb = dev.dag.module_map[module_id].container_ram_mb
        frac = self.rng_dump.uniform(*self.mig_params.dump_fraction)
        return frac * ram_mb * 8e6

    def _remaining_mi(self, dev: SimDevice, module_id: str, at: float) -> float:
        """The module's unexecuted instructions at `at`; its pipeline offset is
        the running time of the schedules before its own, read from `dev.offsets`."""
        frm = dev.placement[module_id]
        return migration.remaining_instructions(
            dev.dag.incoming_mi(module_id), self.topology.node(frm).cpu_mips,
            dev.dag.sensor_interval_s, dev.offsets[dev.dag.order_of[module_id] - 1],
            at, dev.acc.t0)

    # -- placement ---------------------------------------------------------

    def _request_placement(self, dev: SimDevice):
        t0 = self.kernel.now
        last = self.place(dev, t0)
        dev.pdt_s = last - t0
        self.kernel.schedule(last + self.topology.links.lat_down[0], "service_start",
                             self._start_service, dev)

    def _start_service(self, dev: SimDevice):
        dev.acc.start_service(self.kernel.now, *self._task_cost(dev))
        self._arm(dev)
        self.log("service_start", device=dev.sid.index)

    def _decide_at(self, frm: ServerId, decider: ServerId, t: float) -> Tuple[ServerId, float]:
        """(decider, decision time) of a request sent from `frm` at t towards `decider`."""
        if self.policy.central:
            return self.central, self.queue.admit(t + self.lat(frm, self.central))
        return decider, t + self.lat(frm, decider)

    def place(self, dev: SimDevice, t0: float) -> float:
        """Place the device's unpinned modules for a request sent at t0; returns
        the time the controller hears back."""
        controller = self.topology.node(dev.sid).parent
        decider, arrival = self._decide_at(controller, controller,
                                           t0 + self.topology.links.lat_up[0])
        if self.policy.ranked:
            servers = (self.topology.fog_servers() if self.policy.central
                       else placement.ready_servers(self.topology, controller))
            ordered = rank_modules(dev.dag, servers, self.weights, self.topology,
                                   self.profile)
        else:
            ordered = dev.dag.unpinned()
        return self._place_cascade(dev, decider, ordered, arrival) \
            + self.lat(decider, controller)

    def _place_cascade(self, dev: SimDevice, controller: ServerId, ordered: List[str],
                       t: float) -> float:
        """Decide `ordered` at `controller` from time t; returns the last acknowledgement.

        Each server confirms its picks, the controller its own, and has the
        slots the greedy loop counted for them. Servers confirm in sorted
        order, each its modules in `ordered` order. Modules that fit nowhere
        escalate to the parent, in the same order; they are the tail of
        `ordered`, and every module before them is picked in `dev.placement`.
        """
        plan = self.planner(self.topology, self.ledger, controller, dev.dag, dev.placement,
                            ordered, self.weights, self.profile)
        picks: Dict[ServerId, List[str]] = {}
        for module_id in ordered[:len(ordered) - len(plan.escalated)]:
            picks.setdefault(dev.placement[module_id], []).append(module_id)
        acks = [t]
        for server, modules in sorted(picks.items()):
            t_arr = t + self.lat(controller, server)
            for module_id, ok, warm in placement.handle_remote_placement(
                    self.ledger, server, dev.dag, modules):
                if not ok:
                    raise PlacementError(f"{server} rejected module {module_id}")
                start = t_arr + (0.0 if warm else self.startup_s)
                acks.append(start + self.lat(server, controller))
                self.log("container_start", device=dev.sid.index, module=module_id,
                         server=str(server), warm=warm)
        if plan.escalated:
            parent = self.topology.node(controller).parent
            sub = self._place_cascade(dev, parent, plan.escalated,
                                      t + self.lat(controller, parent))
            acks.append(sub + self.lat(parent, controller))
        return max(acks)

    # -- mobility and handover ----------------------------------------------

    def _tick(self, _):
        """Check the devices whose departure check is due, in index order.

        A device walks only when its position is read; the heap holds each
        device's next tick at which it can be in its controller's margin band.
        """
        self.ticks += 1
        due = self.due
        while due and due[0][0] <= self.ticks:
            _, index, version = heapq.heappop(due)
            dev = self.devices[index - 1]
            if version != dev.check_version:
                continue
            node = self._walk(dev)
            ctrl = self.topology.node(node.parent)
            if dev.mmt_busy:
                # Only a confirmed exit latches a follow-up handover; margin
                # wobble during coordination resolves by itself.
                if ctrl.distance_to(node.position) > ctrl.coverage_radius:
                    dev.pending_departure = True
            elif migration.departure_imminent(ctrl.position, ctrl.coverage_radius,
                                              node.position, dev.velocity, self.margin):
                self._start_departure(dev)
            self._arm(dev)
        self.kernel.schedule(self.kernel.now + self.tick_s, "tick", self._tick)

    def _walk(self, dev: SimDevice):
        """Bring the device's walk up to the current tick; returns its node."""
        node = self.topology.node(dev.sid)
        behind = self.ticks - dev.walked
        if behind:
            node.position, dev.leg, dev.velocity = random_walk_step(
                node.position, dev.leg, self.area, dev.rng_mob, self.tick_s,
                self.speed_range, self.leg_range, behind)
            dev.walked = self.ticks
        return node

    def _arm(self, dev: SimDevice):
        """Schedule the device's next departure check, `_ticks_ahead` ticks on."""
        node = self._walk(dev)
        ctrl = self.topology.node(node.parent)
        dev.check_version += 1
        ahead = self._ticks_ahead(dev, node.position, ctrl)
        if ahead is not None:
            heapq.heappush(self.due, (self.ticks + ahead, dev.sid.index, dev.check_version))

    def _ticks_ahead(self, dev: SimDevice, position, ctrl) -> Optional[int]:
        """Ticks from now to the first at which a departure test can fire (the
        next check), each tick before it `_SLACK_M` metres clear; None for never.

        Neither test fires inside the quiet radius Q. After k more ticks a
        device is at most k * reach farther from its controller, so it stays
        inside while that sum does (the max-speed bound). Along its leg it
        moves in a straight line: it stays inside until it crosses Q or, if
        the leg ends first, until its target's room runs out at full reach.
        In the margin band, heading inward along u (w · u < 0, w its offset
        from the controller), its distance falls and w · u stays negative up
        to the closest approach at -(w · u), so neither test fires before
        that or the leg's end. A device that cannot move and sits inside
        gets no check until it is re-armed.
        """
        quiet = self.quiet * ctrl.coverage_radius
        dist = ctrl.distance_to(position)
        room = quiet - dist
        if self.reach <= 0.0:
            return None if room > 0.0 else 1
        ahead = max(1, math.floor((room - _SLACK_M) / self.reach) + 1)
        if dev.leg is None:
            return ahead
        (ox, oy), (tx, ty), speed, done = dev.leg
        step = speed * self.tick_s
        if step <= 0.0:
            return ahead
        length = math.hypot(tx - ox, ty - oy)
        ux, uy = (tx - ox) / length, (ty - oy) / length
        cx, cy = ctrl.position
        wx, wy = position[0] - cx, position[1] - cy
        b = wx * ux + wy * uy
        left = _leg_ticks(length, step) - done
        if room <= 0.0:
            if b >= 0.0 or dist > ctrl.coverage_radius - _SLACK_M:
                return ahead
            return max(ahead, min(math.floor((-b - _SLACK_M) / step), left) + 1)
        limit = quiet - _SLACK_M
        inside = limit * limit - (wx * wx + wy * wy)
        if inside <= 0.0:
            return ahead
        # Distance s along u to the crossing |w + u s| = limit, in the form
        # that does not cancel when heading outward.
        root = math.sqrt(b * b + inside)
        s = inside / (b + root) if b > 0.0 else root - b
        if s < length - step * done:
            return max(ahead, math.floor(s / step) + 1)
        end_room = limit - math.hypot(tx - cx, ty - cy)
        return max(ahead, left + math.floor(end_room / self.reach) + 1)

    def _start_departure(self, dev: SimDevice):
        now = self.kernel.now
        node = self._walk(dev)
        old, position = node.parent, node.position
        sensed = self.topology.sensed_by(position)
        cands = [s for s in sensed if s != old]
        if not cands:
            return
        if self.policy.clustered:
            required = sum(1 for sid in dev.placement.values() if sid == old)
            dest = migration.analyze_mobility(
                self.topology, self.reachable[old], position, dev.velocity, cands,
                required, self.ledger, self.rng_unreach)
        else:
            dest = cands[0]
        dev.mmt_busy = True
        self.log("handover", device=dev.sid.index, frm=str(old), to=str(dest))
        decider, t_dec = self._decide_at(old, old, now)
        self.kernel.schedule(t_dec + self.lat(decider, dest), "attach",
                             lambda _: self._attach(dev, dest))

    def _attach(self, dev: SimDevice, dest: ServerId):
        now = self.kernel.now
        self.topology.set_parent(dev.sid, dest)
        self._arm(dev)
        # The device's routes leave through its parent, so its modules move with it.
        on_device = [mid for mid, sid in dev.placement.items() if sid == dev.sid]
        dev.acc.set_cost(now, *self._task_cost(dev, on_device))
        central = self.central if self.policy.central else None
        rounds = migration.plan_rounds(self.topology, dest, dev.dag, dev.placement, central,
                                       exclude=sorted(dev.busy))
        for rnd in rounds:
            for mods in rnd.values():
                dev.busy.update(mods)
        if self.policy.central:  # the busy set keeps the plans disjoint
            dev.mmt_busy = False
        self._run_round(dev, dest, rounds, 0, now)

    # -- migration rounds ----------------------------------------------------

    def _run_round(self, dev: SimDevice, new_ctrl: ServerId,
                   rounds: List[Dict[ServerId, List[str]]], k: int, t: float):
        if k >= len(rounds):
            dev.mmt_busy = False
            if dev.pending_departure:
                # A departure latched while coordinating proceeds right away.
                dev.pending_departure = False
                self._start_departure(dev)
            return
        rnd = rounds[k]
        for mods in rnd.values():
            dev.busy.difference_update(mods)
        working = dev.placement.copy()
        completions = [t]
        moves = 0
        cmt = 0.0
        cmec = 0.0
        for decider, modules in sorted(rnd.items()):
            outs = self._decide_migrations(dev, new_ctrl, decider, modules, working, t)
            for notify, window, energy, moved in outs:
                completions.append(notify)
                if moved:
                    moves += 1
                    cmt = max(cmt, window)
                    cmec = max(cmec, energy)
        done = max(completions)
        if moves:
            dev.mig_events.append((done, moves, cmt, cmec))
        self.kernel.schedule(done, "round",
                             lambda _: self._run_round(dev, new_ctrl, rounds, k + 1, done))

    def _decide_migrations(self, dev: SimDevice, new_ctrl: ServerId,
                           decider: ServerId, modules: List[str],
                           working: Placement, t: float):
        """Returns per-module (notify_time, window_len, energy, moved)."""
        decider, t_dec = self._decide_at(new_ctrl, decider, t)
        if not self.policy.central:
            return self._escalate(dev, new_ctrl, decider, modules, working, t_dec)
        outs = []
        for module_id in modules:
            prev = working[module_id]
            anchor = self.topology.ancestor_at_level(new_ctrl, max(prev.level, 1) + 1) \
                or self.topology.cloud_id
            outs.extend(self._escalate(dev, new_ctrl, anchor, [module_id], working,
                                       t_dec, exclude=[prev]))
        return outs

    def _escalate(self, dev: SimDevice, new_ctrl: ServerId, cur: ServerId,
                  modules: List[str], working: Placement, t_dec: float, exclude=(),
                  failed: Optional[ServerId] = None):
        """Decide the modules among `cur`'s ready servers, escalating misses upward.

        With `failed` set this is failure recovery: the modules' chosen target
        `failed` did not confirm, and `exclude` holds the targets that failed
        before it. The modules are re-decided at `cur` without all of them,
        and a module with no target left stays where it is instead of climbing.
        """
        tried = [] if failed is None else [*exclude, failed]
        outs = []
        pending = list(modules)
        while True:
            decider = self.central if self.policy.central else cur
            args = (self.topology, self.ledger, dev.dag, working, pending,
                    self.weights, self.profile, self.mig_params,
                    lambda m: self._dump_bits(dev, m),
                    lambda m: self._remaining_mi(dev, m, t_dec),
                    self.candidates[cur])
            kw = {"exclude": exclude, "check_admissibility": not self.policy.central}
            decisions = (migration.handle_migration_req(*args, **kw) if failed is None
                         else migration.mmt_failure_recovery(*args, failed=failed, **kw))
            pending = []
            for dec in decisions:
                if dec.to is None:
                    pending.append(dec.module)
                else:
                    outs.append(self._commit_migration(dev, new_ctrl, decider, dec,
                                                       working, t_dec, tried))
            if not pending:
                return outs
            parent = self.topology.node(cur).parent
            if failed is not None or parent is None:
                for module_id in pending:
                    # Recovery found nothing, or nothing is above the cloud.
                    self.log("migration_stay", device=dev.sid.index, module=module_id)
                    outs.append((t_dec + self.lat(decider, new_ctrl), 0.0, 0.0, False))
                return outs
            if not self.policy.central:
                t_dec = t_dec + self.lat(cur, parent)
            cur = parent

    def _commit_migration(self, dev: SimDevice, new_ctrl: ServerId,
                          decider: ServerId, dec: migration.MigrationDecision,
                          working: Placement, t_dec: float, tried: List[ServerId]):
        """Confirm a decided move at its target; a failed target re-enters `_escalate`.

        `tried` lists the targets that already failed for this module, so a
        recovered decision to stay put is logged as a stay.
        """
        module_id, frm, to, mc = dec.module, dec.frm, dec.to, dec.cost
        if to == frm:
            if tried:
                self.log("migration_stay", device=dev.sid.index, module=module_id)
            return (t_dec + self.lat(decider, new_ctrl), 0.0, 0.0, False)
        # Confirmation at the target: capacity reservation plus injected failures.
        failed = self.failure_p > 0.0 and self.rng_fail.random() < self.failure_p
        if failed or not self.ledger.reserve(to, dev.dag.template, module_id):
            self.log("migration_failure", device=dev.sid.index, module=module_id,
                     target=str(to))
            working[module_id] = frm
            t_dec = t_dec + self.lat(decider, to) + self.lat(to, decider)
            return self._escalate(dev, new_ctrl, decider, [module_id], working, t_dec,
                                  exclude=tried, failed=to)[0]
        coord = self.lat(decider, to) + self.lat(to, frm)
        dev.busy.add(module_id)
        w_start = t_dec
        w_end = t_dec + coord + mc.time_s
        dev.acc.add_window(w_start, w_end)
        energy = mc.energy_j + coord * self.profile.p_idle_w
        window_len = w_end - w_start
        self.log("migration", device=dev.sid.index, module=module_id,
                 frm=str(frm), to=str(to), window_s=round(window_len, 9))

        def commit(_):
            dev.busy.discard(module_id)
            dev.placement[module_id] = to
            self.ledger.release(frm, dev.dag.template, module_id)
            dev.acc.set_cost(self.kernel.now, *self._task_cost(dev, [module_id]))

        self.kernel.schedule(w_end, "migration_commit", commit)
        notify = w_end + self.lat(to, new_ctrl)
        return (notify, window_len, energy, True)

    # -- run and summarize ---------------------------------------------------

    def run(self, horizons: Optional[List[float]] = None) -> SimResult:
        # A horizon repeated in the list is one checkpoint with one row set.
        horizons = sorted(set(horizons or [float(self.config["horizon_s"])]))
        for h in horizons:
            if not (math.isfinite(h) and h >= 0.0):
                raise ValueError(f"horizon {h!r} must be finite and >= 0")
        end = horizons[-1]
        for i, dev in enumerate(self.devices):
            self.kernel.schedule(0.001 * i, "placement_request", self._request_placement, dev)
        self.kernel.schedule(self.tick_s, "tick", self._tick)
        rows: List[dict] = []
        templates = sorted({dev.dag.template for dev in self.devices})
        fr_mode = "fr" if self.failure_p > 0 else "none"

        def checkpoint(h: float):
            # One row per template; cmt and cmec add per device, then across devices.
            for template in templates:
                devs = [dev for dev in self.devices if dev.dag.template == template]
                sub = [dev.acc.snapshot(h) for dev in devs]
                migs = [[m for m in dev.mig_events if m[0] <= h] for dev in devs]
                served = sum(r["emitted"] - r["dropped"] for r in sub)
                resp = _left_sum(r["resp_sum"] for r in sub)
                energy = _left_sum(r["energy_sum"] for r in sub)
                artt = resp / served if served else 0.0
                aect = energy / served if served else 0.0
                pdts = [dev.pdt_s for dev in devs if dev.pdt_s is not None]
                cmt = _left_sum(_left_sum(m[2] for m in ms) for ms in migs)
                cmec = _left_sum(_left_sum(m[3] for m in ms) for ms in migs)
                rows.append({
                    "technique": self.policy.name, "app": template, "horizon_s": h,
                    "seed": self.config["seed"],
                    "pdt_s": _left_sum(pdts) / len(pdts) if pdts else 0.0,
                    "artt_s": artt, "aect_j": aect,
                    "awct": self.weights.weigh(artt, aect),
                    "migrations": sum(m[1] for ms in migs for m in ms),
                    "cmt_s": cmt, "cmec_j": cmec,
                    "cmwc": self.weights.weigh(cmt, cmec),
                    "tit": sum(r["interrupted"] for r in sub),
                    "fr_mode": fr_mode,
                    "emitted": sum(r["emitted"] for r in sub),
                    "completed": sum(r["completed"] for r in sub),
                    "inflight": sum(r["inflight"] for r in sub),
                    "dropped": sum(r["dropped"] for r in sub),
                })

        for h in horizons:
            self.kernel.schedule(h, "checkpoint", checkpoint, h)
        self.kernel.run(end)
        for dev in self.devices:
            self._walk(dev)
        return SimResult(rows=rows, events=self.events)


def run_simulation(config: dict, horizons: Optional[List[float]] = None) -> SimResult:
    return Simulation(config).run(horizons)
