"""End-to-end acceptance checks.

Each test prints one PASS line on success (and fails loudly otherwise), so the
pytest log carries a single pass/fail verdict per criterion.
"""
import copy
import time

import pytest

from fogsim import cli, cost_model, experiments, scenario
from fogsim.cost_model import CostWeights, DeviceEnergyProfile
from fogsim.scenario import POLICIES
from fogsim.sim_engine import Simulation, run_simulation

import test_rule_oracle as rule_oracle
from conftest import S, make_small_topology

SEEDS = [1, 2, 3]
HORIZONS = [100.0, 200.0, 300.0, 400.0]


def urban_config(policy, seed, **extra):
    cfg = scenario.load_scenario(cli.resolve_scenario("urban_80dev"))
    cfg["policy"] = policy
    cfg["seed"] = seed
    for key, val in extra.items():
        if isinstance(val, dict):
            cfg[key].update(val)
        else:
            cfg[key] = val
    return cfg


@pytest.fixture(scope="module")
def urban_runs():
    """One 400 s run per (policy, seed) with per-horizon checkpoints."""
    runs = {}
    for policy in POLICIES:
        for seed in SEEDS:
            result = run_simulation(urban_config(policy, seed), horizons=HORIZONS)
            runs[(policy, seed)] = {(row["horizon_s"], row["app"]): row
                                    for row in result.rows}
    return runs


def totals(rows, horizon, key):
    return sum(rows[(horizon, app)][key] for app in ("ECGMH", "EEGTBG"))


def test_criterion_1_optimality_gap_within_25_percent():
    config = scenario.load_scenario(cli.resolve_scenario("desk_optimality"))
    started = time.monotonic()
    results = experiments.optimality_study(config, seeds=[1, 2, 3, 4, 5])
    elapsed = time.monotonic() - started
    assert elapsed <= 600.0, f"optimality study took {elapsed:.0f}s"
    assert all(r.complete for r in results)
    gaps = [r.gap for r in results]
    mean_gap = sum(gaps) / len(gaps)
    assert mean_gap < 0.25, f"mean gap {mean_gap:.3f} over seeds 1-5"
    print(f"\nACCEPTANCE 1 (optimality gap): PASS "
          f"(mean gap {mean_gap * 100:.1f}%, {elapsed:.1f}s, 5 seeds)")


def test_criterion_2_deployment_time_ordering_over_device_sweep():
    config = scenario.load_scenario(cli.resolve_scenario("urban_80dev"))
    counts = [10, 20, 40, 80, 160]
    rows = experiments.run_matrix(config, list(POLICIES), SEEDS, [10.0],
                                  devices=counts)
    pdt = {}
    for row in rows:
        key = (row["technique"], row["seed"], row["devices"])
        pdt.setdefault(key, []).append(row["pdt_s"])
    for seed in SEEDS:
        for count in counts:
            if count < 40:
                continue
            vals = {p: sum(pdt[(p, seed, count)]) / len(pdt[(p, seed, count)])
                    for p in POLICIES}
            assert vals["proposed"] < vals["maas"] < vals["urmila"], \
                f"PDT ordering broken at {count} devices, seed {seed}: {vals}"
    print("\nACCEPTANCE 2 (deployment time ordering, 10-160 devices, "
          "3 seeds): PASS")


def test_criterion_3_execution_cost_ordering_at_reference_scale(urban_runs):
    for seed in SEEDS:
        for app in ("ECGMH", "EEGTBG"):
            for metric in ("artt_s", "aect_j", "awct"):
                vals = {p: urban_runs[(p, seed)][(400.0, app)][metric]
                        for p in POLICIES}
                assert vals["proposed"] < vals["maas"] < vals["urmila"], \
                    f"{metric} ordering broken for {app}, seed {seed}: {vals}"
    print("\nACCEPTANCE 3 (ARTT/AECT/AWCT ordering, 80 devices, 400s, "
          "3 seeds): PASS")


def test_criterion_4_migrations_and_interruptions(urban_runs):
    for seed in SEEDS:
        migrations = {p: totals(urban_runs[(p, seed)], 400.0, "migrations")
                      for p in POLICIES}
        tit = {p: totals(urban_runs[(p, seed)], 400.0, "tit") for p in POLICIES}
        assert migrations["proposed"] < migrations["maas"] <= migrations["urmila"], \
            f"migration ordering broken, seed {seed}: {migrations}"
        assert tit["proposed"] < tit["maas"] <= tit["urmila"], \
            f"TIT ordering broken, seed {seed}: {tit}"
        # Per-app comparison at the shared evaluation horizon: the 15 ms
        # emitter accumulates fewer interruptions than the 10 ms one.
        for policy in POLICIES:
            rows = urban_runs[(policy, seed)]
            assert rows[(400.0, "EEGTBG")]["tit"] < rows[(400.0, "ECGMH")]["tit"], \
                f"TIT app ordering broken: {policy}, seed {seed}"
    print("\nACCEPTANCE 4 (migration and TIT ordering, per-app TIT gap): PASS")


def test_criterion_5_cumulative_migration_cost_growth(urban_runs):
    for seed in SEEDS:
        series = {}
        for policy in POLICIES:
            for metric in ("cmt_s", "cmec_j", "cmwc"):
                vals = [totals(urban_runs[(policy, seed)], h, metric)
                        for h in HORIZONS]
                for earlier, later in zip(vals, vals[1:]):
                    assert later >= earlier - 1e-9, \
                        f"{metric} decreased for {policy}, seed {seed}: {vals}"
                series[(policy, metric)] = vals
        for metric in ("cmt_s", "cmec_j", "cmwc"):
            urm = series[("urmila", metric)]
            prop = series[("proposed", metric)]
            for step in range(1, len(HORIZONS)):
                growth_u = urm[step] - urm[step - 1]
                growth_p = prop[step] - prop[step - 1]
                assert growth_u > growth_p, \
                    f"{metric} growth not dominated at step {step}, seed {seed}"
    print("\nACCEPTANCE 5 (CMT/CMEC/CMWC non-decreasing, growth dominated): PASS")


def test_criterion_6_failure_recovery(urban_runs):
    for policy in POLICIES:
        for seed in SEEDS:
            cfg = urban_config(policy, seed,
                               failure={"migration_failure_p": 0.05})
            sim = Simulation(cfg)
            result = sim.run([400.0])
            assert result.rows, f"no output for {policy}, seed {seed}"
            for dev in sim.devices:
                for module in dev.dag.modules:
                    sid = dev.placement.get(module.id)
                    assert sid is not None and sid in sim.topology.nodes, \
                        f"{module.id} unplaced at horizon ({policy}, seed {seed})"
            with_fr = sum(row["migrations"] for row in result.rows
                          if row["horizon_s"] == 400.0)
            without = totals(urban_runs[(policy, seed)], 400.0, "migrations")
            assert with_fr < without, \
                f"FR migrations {with_fr} not below no-FR {without} " \
                f"({policy}, seed {seed})"
    print("\nACCEPTANCE 6 (failure recovery at p=0.05): PASS")


def test_criterion_7_property_suite(urban_runs):
    # Routing equals the independent rule interpreter on 1000 random
    # topologies, within the termination bound (asserted inside).
    rule_oracle.test_latency_and_transmission_match_interpreter_on_1000_topologies()

    # Same-server traffic costs exactly zero.
    topo = make_small_topology(with_device=True)
    for sid in topo.nodes:
        assert cost_model.internodal_latency(topo, sid, sid) == 0.0
        assert cost_model.transmission_time(topo, 1e6, sid, sid) == 0.0

    # Weight degeneracies: pure-time and pure-energy objectives.
    from fogsim.app_model import build_app
    dag = build_app("ECGMH", "ecg:1")
    plc = {m.id: S(0, 5) if m.pinned_to_device else S(1, 1) for m in dag.modules}
    profile = DeviceEnergyProfile()
    t, e = cost_model.app_cost_breakdown(topo, dag, plc, profile)
    assert cost_model.app_cost(topo, dag, plc, CostWeights(1.0, 0.0),
                               profile) == pytest.approx(t)
    assert cost_model.app_cost(topo, dag, plc, CostWeights(0.0, 1.0),
                               profile) == pytest.approx(e)

    # C1-C3 hold on every placement a full run accepts.
    cfg = urban_config("proposed", 1, horizon_s=20.0, devices={"count": 20})
    sim = Simulation(cfg)
    sim.run([20.0])
    usage = sim.ledger.used
    for dev in sim.devices:
        violations = cost_model.validate_placement(
            sim.topology, dev.dag, dev.placement, usage)
        assert violations == [], violations

    # Branch and bound equals exhaustive enumeration on random instances
    # (search spaces up to 4^3 = 64 <= 1e5).
    import test_oracle
    test_oracle.test_branch_and_bound_matches_exhaustive_enumeration()

    # CMWC is exactly the weighted combination of CMT and CMEC.
    for (policy, seed), rows in urban_runs.items():
        for row in rows.values():
            expect = 0.5 * row["cmt_s"] + 0.5 * row["cmec_j"]
            assert row["cmwc"] == pytest.approx(expect, rel=1e-9)

    # Bit-identical replays for every policy.
    for policy in POLICIES:
        cfg1 = urban_config(policy, 4, horizon_s=30.0, devices={"count": 12})
        cfg2 = copy.deepcopy(cfg1)
        r1 = run_simulation(cfg1)
        r2 = run_simulation(cfg2)
        assert r1.rows == r2.rows
        assert r1.events == r2.events

    print("\nACCEPTANCE 7 (property suite): PASS")
