"""Golden byte-identity gate.

Pins the sha256 of `metrics.csv` + `events.log`, written through
`cli.write_outputs`, for a small cut of the reference matrix and for one
oracle-study seed. Performance changes must leave these bytes untouched;
a change that moves them on purpose re-records the hashes and says why.
"""
import builtins
import hashlib

import pytest

from fogsim import cli, experiments, scenario, sim_engine

from conftest import compensated_sum

GOLDEN_SIM = {
    # (policy, migration_failure_p): sha256 of metrics.csv + events.log
    ("proposed", 0.0):
        "03589f8c23428aa51667c2e92ede59027f716c7fc9182e603a880b39f12ea752",
    ("maas", 0.0):
        "a8391577d5b3d9f7d902eeb018517c8c2e0a7ad674ec958d13b04cdecb94842b",
    ("urmila", 0.0):
        "98b278c62bc3dbbd432f95ad9bc01d6f3d074937f1615b9190b801e68548216f",
    ("proposed", 0.5):
        "f294cfb337eae6cca8033bb0cdda56fad1ca8eccc51765672eca76596e6f1704",
    ("maas", 0.5):
        "50b7701c6b1c7e7ad4676fe181b750ae8367db5c03db8d9d75efd79058eb2859",
    ("urmila", 0.5):
        "4809d2c4fd60c7ac18194643350f1a03b0b9001316292bf70b8f2da0b000c9ff",
    ("proposed", 1.0):
        "ecc09e76fc1fa8ddabac6989dd764511fc236b12746b6919eda03bf07e43f91b",
    ("maas", 1.0):
        "e7fcabe07281aba4041f28855396e6662814041127ea5259c03424e1145976f1",
    ("urmila", 1.0):
        "eb76529f2c7811ab6ae9af0bb1ac958f107ccd8bc6c015c1e1815e6b20b6918b",
}
# Fast devices and a wide margin band: many handovers, departure checks
# while coordinating, and walls (40 devices, 0.5-15 m/s, margin 0.2, 120 s).
GOLDEN_FAST_MOBILITY = {
    "proposed": "e35eaf6178fcf513eb3907b4954556c758c82420d6128e799cff672de1d9180b",
    "maas": "820d787a5ceb587d1faa458128151966595eecd8c62b6c9ea1acf370cdf05694",
    "urmila": "1f8184f42682c8eba51929e7243b205a03cdbd5de099732bbc6532fd85813019",
}
# Saturated fog: 320 devices for 5 s fill the fog slots (300, 100 and 60 on
# levels 1-3 under proposed and maas; urmila ends at 297, 100 and 58), so
# placement skips full servers and in-flight picks and the rest goes to the
# cloud.
GOLDEN_SATURATED = {
    "proposed": "500489953f1052cdda08727118baf25bd0f7e53d8dd19a16803344bd962a0ac8",
    "maas": "a093a4a76a46614ebe1104dbdd0ca072d4163b21ffefbcc68e0ef3b573d2e479",
    "urmila": "73e6eee78f3830f7c8126d93a83177d4b290be61312efaed93137e20b27d4b33",
}
GOLDEN_ORACLE = "cd19f2301ddd2570e3de1b1f49b3704d29e3dbd9b7d063480b48ca69f66e3298"
ORACLE_SEED = 1
ORACLE_COLUMNS = ["dapt_cost", "oracle_cost", "oracle_gap", "complete"]


def _digest(out_dir) -> str:
    digest = hashlib.sha256()
    for name in ("metrics.csv", "events.log"):
        digest.update((out_dir / name).read_bytes())
    return digest.hexdigest()


def _cell_digest(out_dir, overrides, horizons) -> str:
    """The golden digest of one `urban_80dev` run under `overrides`."""
    config = scenario.load_scenario(cli.resolve_scenario("urban_80dev"), overrides)
    result = sim_engine.run_simulation(config, horizons=horizons)
    cli.write_outputs(result.rows, result.events, str(out_dir))
    return _digest(out_dir)


def _sim_cell(out_dir, policy, failure_p) -> str:
    return _cell_digest(out_dir, {
        "policy": policy, "seed": 3, "horizon_s": 60.0,
        "devices": {"count": 24},
        "failure": {"migration_failure_p": failure_p}}, [30.0, 60.0])


def _fast_mobility_cell(out_dir, policy) -> str:
    return _cell_digest(out_dir, {
        "policy": policy, "seed": 3, "horizon_s": 120.0, "devices": {"count": 40},
        "mobility": {"speed_min_mps": 0.5, "speed_max_mps": 15.0,
                     "departure_margin": 0.2}}, [60.0, 120.0])


def _saturated_cell(out_dir, policy) -> str:
    return _cell_digest(out_dir, {"policy": policy, "seed": 3, "horizon_s": 5.0,
                                  "devices": {"count": 320}}, [5.0])


@pytest.mark.parametrize("policy,failure_p", sorted(GOLDEN_SIM))
def test_simulation_output_matches_golden(tmp_path, policy, failure_p):
    assert _sim_cell(tmp_path, policy, failure_p) == GOLDEN_SIM[(policy, failure_p)]


@pytest.mark.parametrize("policy", sorted(GOLDEN_FAST_MOBILITY))
def test_fast_mobility_output_matches_golden(tmp_path, policy):
    assert _fast_mobility_cell(tmp_path, policy) == GOLDEN_FAST_MOBILITY[policy]


@pytest.mark.parametrize("policy", sorted(GOLDEN_SATURATED))
def test_saturated_fog_output_matches_golden(tmp_path, policy):
    assert _saturated_cell(tmp_path, policy) == GOLDEN_SATURATED[policy]


def test_golden_cells_do_not_depend_on_how_sum_adds_floats(tmp_path, monkeypatch):
    """Two golden cells give their digests when `sum` compensates float
    rounding, as from CPython 3.12."""
    monkeypatch.setattr(builtins, "sum", compensated_sum)
    assert sum([0.1] * 10) == 1.0
    assert _sim_cell(tmp_path / "sim", "proposed", 0.5) == GOLDEN_SIM[("proposed", 0.5)]
    assert _fast_mobility_cell(tmp_path / "fast", "maas") == GOLDEN_FAST_MOBILITY["maas"]


def test_oracle_study_output_matches_golden(tmp_path):
    config = scenario.load_scenario(cli.resolve_scenario("desk_optimality"),
                                    {"seed": ORACLE_SEED})
    study = experiments.optimality_study(config, [ORACLE_SEED])
    rows = [{"technique": "oracle", "app": "all", "horizon_s": 0.0,
             "seed": r.seed, "dapt_cost": r.dapt_cost,
             "oracle_cost": r.oracle_cost, "oracle_gap": r.gap,
             "complete": r.complete} for r in study]
    cli.write_outputs(rows, [], str(tmp_path), ORACLE_COLUMNS)
    assert _digest(tmp_path) == GOLDEN_ORACLE
