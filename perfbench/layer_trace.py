"""Per-layer tracing of fogsim from outside the package.

`Tracer.install` replaces public functions and methods of each fogsim module
with wrappers that time a span and count the call; every binding of the same
function (including names other modules imported with `from x import f`) is
replaced, and `uninstall` puts the originals back. A span's self time is its
duration minus the time of the spans it called. Spans are aggregated in
memory per span name and per (policy, layer); individual spans are not kept,
because a crowd run makes millions of cost-model calls.
"""
from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional

from fogsim import (app_model, baselines, clustering, cost_model, migration,
                    oracle, placement, scenario, sim_engine, topology)

# Layers for self-time accounting; the heaviest one is named per policy.
LAYERS = ("sim_engine.kernel", "sim_engine.mobility", "topology", "cost_model",
          "app_model", "placement", "migration", "baselines", "oracle",
          "scenario", "clustering", "experiments")

EVENT_KINDS = ("placement_request", "service_start", "tick", "attach", "round",
               "migration_commit", "checkpoint", "other")


class Tracer:
    def __init__(self):
        self.spans: Dict[str, List[float]] = {}      # name -> [calls, total_s, self_s]
        self.layers: Dict[str, List[float]] = {layer: [0.0] for layer in LAYERS}
        self.counts: Counter = Counter()
        self.policy_layer_s: Dict[str, Dict[str, float]] = defaultdict(
            lambda: defaultdict(float))
        self._stack: List[List[float]] = [[0.0]]
        self._restore: List[tuple] = []

    # -- spans ---------------------------------------------------------------

    def _wrap(self, fn: Callable, name: str, layer: str,
              after: Optional[Callable] = None) -> Callable:
        stack = self._stack
        push, pop = stack.append, stack.pop
        stats = self.spans.setdefault(name, [0, 0.0, 0.0])
        layer_total = self.layers[layer]
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            frame = [0.0]
            push(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                pop()
                stack[-1][0] += dt
                own = dt - frame[0]
                stats[0] += 1
                stats[1] += dt
                stats[2] += own
                layer_total[0] += own
            if after is not None:
                after(args, result)
            return result

        return wrapper

    @contextmanager
    def cell(self, policy: str, root_layer: str):
        """Root span of one cell; time outside every wrapped call goes to root_layer.

        Layer self times accrued inside the span are credited to `policy`.
        """
        before = {layer: total[0] for layer, total in self.layers.items()}
        frame = [0.0]
        self._stack.append(frame)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            dt = time.perf_counter() - t0
            self._stack.pop()
            self.layers[root_layer][0] += dt - frame[0]
            per_layer = self.policy_layer_s[policy]
            for layer, total in self.layers.items():
                per_layer[layer] += total[0] - before[layer]

    # -- installation --------------------------------------------------------

    def _patch_function(self, module, attr: str, layer: str,
                        after: Optional[Callable] = None):
        original = getattr(module, attr)
        wrapper = self._wrap(original, f"{module.__name__.split('.')[-1]}.{attr}",
                             layer, after)
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("fogsim"):
                for key, val in list(vars(mod).items()):
                    if val is original:
                        self._restore.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def _patch_method(self, cls, attr: str, layer: str,
                      after: Optional[Callable] = None):
        original = cls.__dict__[attr]
        self._restore.append((cls, attr, original))
        setattr(cls, attr, self._wrap(original, f"{cls.__name__}.{attr}", layer, after))

    def install(self):
        counts = self.counts

        def lookup(args, result):
            # transmission_time(topo, bits, src, dest), internodal_latency(topo,
            # src, dest) and transmission_energy(topo, profile, bits, src, dest).
            if args[-2] != args[-1]:
                counts["route_lookups"] += 1

        def build(args, result):
            if args[1] != args[2]:
                counts["route_builds"] += 1

        def escalated(args, result):
            counts["escalated_modules"] += len(result.escalated)

        def remote(args, result):
            counts["remote_rejects"] += sum(1 for _, ok, _ in result if not ok)

        def reserve(args, result):
            if not result:
                counts["reserve_fails"] += 1

        def admit(args, result):
            queue, arrival = args[0], args[1]
            counts["queue_wait_sim_s"] += max(0.0, result - queue.service_time_s - arrival)

        def searched(args, result):
            counts["oracle_nodes"] += result.nodes_explored
            counts["oracle_complete"] += int(result.complete)

        kernel_schedule = sim_engine.Kernel.schedule
        tracer = self

        def schedule(kernel, at, kind, handler, payload=None):
            key = kind if kind in EVENT_KINDS else "other"
            layer = "sim_engine.mobility" if kind == "tick" else "sim_engine.kernel"
            return kernel_schedule(kernel, at, kind,
                                   tracer._wrap(handler, f"dispatch.{key}", layer), payload)

        self._restore.append((sim_engine.Kernel, "schedule", kernel_schedule))
        sim_engine.Kernel.schedule = schedule

        self._patch_function(sim_engine, "random_walk_step", "sim_engine.mobility")
        self._patch_method(topology.Topology, "bump", "topology")
        self._patch_method(topology.Topology, "omega", "topology")
        self._patch_method(topology.Topology, "sensed_by", "topology")
        self._patch_function(cost_model, "route", "cost_model", build)
        for attr in ("transmission_time", "internodal_latency", "transmission_energy"):
            self._patch_function(cost_model, attr, "cost_model", lookup)
        for attr in ("module_time", "module_energy", "schedule_cost",
                     "app_cost_breakdown", "app_cost", "module_migration_cost"):
            self._patch_function(cost_model, attr, "cost_model")
        self._patch_function(app_model, "compute_rank", "app_model")
        self._patch_function(app_model, "rank_modules", "app_model")
        self._patch_function(placement, "dapt_place", "placement", escalated)
        self._patch_function(placement, "dapt_failure_recovery", "placement", escalated)
        self._patch_function(placement, "handle_remote_placement", "placement", remote)
        self._patch_function(placement, "marginal_cost", "placement")
        self._patch_method(placement.CapacityLedger, "reserve", "placement", reserve)
        for attr in ("plan_rounds", "handle_migration_req", "analyze_mobility",
                     "mmt_failure_recovery"):
            self._patch_function(migration, attr, "migration")
        self._patch_function(baselines, "maas_place", "baselines")
        self._patch_function(baselines, "urmila_place", "baselines")
        self._patch_method(baselines.CentralQueue, "admit", "baselines", admit)
        self._patch_function(oracle, "optimal_placement", "oracle", searched)
        self._patch_function(scenario, "build_world", "scenario")
        self._patch_function(clustering, "bootstrap_clusters", "clustering")

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- results -------------------------------------------------------------

    def metrics(self) -> Dict[str, float]:
        """Per-layer metrics by their benchmark names."""
        calls = defaultdict(int, {name: int(st[0]) for name, st in self.spans.items()})
        total = defaultdict(float, {name: st[1] for name, st in self.spans.items()})
        own = defaultdict(float, {name: st[2] for name, st in self.spans.items()})
        counts = self.counts
        lookups = counts["route_lookups"]
        reserves = calls["CapacityLedger.reserve"]
        oracle_calls = calls["oracle.optimal_placement"]
        out: Dict[str, float] = {}
        for kind in EVENT_KINDS:
            out[f"sim_engine.events.{kind}"] = calls[f"dispatch.{kind}"]
            out[f"sim_engine.dispatch_self_s.{kind}"] = own[f"dispatch.{kind}"]
        out["sim_engine.random_walk_step_calls"] = calls["sim_engine.random_walk_step"]
        out["topology.revision_bumps"] = calls["Topology.bump"]
        out["topology.omega_calls"] = calls["Topology.omega"]
        out["topology.omega_s"] = total["Topology.omega"]
        out["topology.sensed_by_s"] = total["Topology.sensed_by"]
        out["cost_model.route_lookups"] = lookups
        out["cost_model.route_builds"] = counts["route_builds"]
        out["cost_model.route_hit_ratio"] = (
            (lookups - counts["route_builds"]) / lookups if lookups else 0.0)
        out["cost_model.app_cost_calls"] = calls["cost_model.app_cost"]
        out["cost_model.schedule_cost_calls"] = calls["cost_model.schedule_cost"]
        out["cost_model.self_s"] = sum(v for k, v in own.items()
                                       if k.startswith("cost_model."))
        out["app_model.rank_calls"] = calls["app_model.rank_modules"]
        out["app_model.rank_s"] = total["app_model.rank_modules"]
        out["placement.dapt_place_calls"] = calls["placement.dapt_place"]
        out["placement.dapt_place_s"] = total["placement.dapt_place"]
        out["placement.escalated_modules"] = counts["escalated_modules"]
        out["placement.remote_rejects"] = counts["remote_rejects"]
        out["placement.recovery_calls"] = calls["placement.dapt_failure_recovery"]
        out["placement.reserve_calls"] = reserves
        out["placement.reserve_fail_ratio"] = (
            counts["reserve_fails"] / reserves if reserves else 0.0)
        out["placement.marginal_cost_calls"] = calls["placement.marginal_cost"]
        out["migration.plan_rounds_calls"] = calls["migration.plan_rounds"]
        out["migration.handle_req_calls"] = calls["migration.handle_migration_req"]
        out["migration.handle_req_s"] = total["migration.handle_migration_req"]
        out["migration.analyze_mobility_s"] = total["migration.analyze_mobility"]
        out["migration.failure_recovery_calls"] = calls["migration.mmt_failure_recovery"]
        out["baselines.maas_place_s"] = total["baselines.maas_place"]
        out["baselines.urmila_place_s"] = total["baselines.urmila_place"]
        out["baselines.queue_admits"] = calls["CentralQueue.admit"]
        out["baselines.queue_wait_sim_s"] = float(counts["queue_wait_sim_s"])
        out["oracle.calls"] = oracle_calls
        out["oracle.nodes_explored"] = counts["oracle_nodes"]
        out["oracle.search_s"] = total["oracle.optimal_placement"]
        out["oracle.complete_ratio"] = (
            counts["oracle_complete"] / oracle_calls if oracle_calls else 0.0)
        out["scenario.build_world_s"] = total["scenario.build_world"]
        out["clustering.bootstrap_s"] = total["clustering.bootstrap_clusters"]
        for layer in LAYERS:
            out[f"layer_self_s.{layer}"] = self.layers[layer][0]
        return out

    def heaviest_layers(self) -> Dict[str, tuple]:
        """Per policy: (layer, its share of the policy's traced time)."""
        out = {}
        for policy, per_layer in sorted(self.policy_layer_s.items()):
            total = sum(per_layer.values())
            if total <= 0.0:
                continue
            layer = max(per_layer, key=per_layer.get)
            out[policy] = (layer, per_layer[layer] / total)
        return out

