"""Scenario loading, CLI entry points, CSV output and reproducibility."""
import csv
import os
from importlib import resources

import pytest
import yaml

from fogsim import cli, experiments, scenario
from fogsim.scenario import build_world, effective_config, load_scenario
from fogsim.sim_engine import Simulation

TINY_SCENARIO = {
    "name": "tiny",
    "horizon_s": 2.0,
    "levels": [
        {"level": 1, "count": 4, "cols": 2, "rows": 2, "cpu_mips": [3000, 4000],
         "capacity": 10, "coverage_m": 400.0},
        {"level": 2, "count": 1, "cols": 1, "rows": 1, "cpu_mips": 8000,
         "capacity": 20, "coverage_m": 800.0},
        {"level": 3, "count": 1, "cols": 1, "rows": 1, "cpu_mips": 10000,
         "capacity": 60, "coverage_m": 0.0},
    ],
    "area": {"width_m": 800.0, "height_m": 800.0},
    "devices": {"count": 4},
}


@pytest.fixture
def tiny_scenario(tmp_path):
    path = tmp_path / "tiny.yaml"
    path.write_text(yaml.safe_dump(TINY_SCENARIO))
    return str(path)


def test_bundled_urban_scenario_resolves_and_builds():
    path = cli.resolve_scenario("urban_80dev")
    config = load_scenario(path)
    assert config["devices"]["count"] == 80
    world = build_world(config)
    fog = [sid for sid in world.topology.nodes if 1 <= sid.level <= 3]
    assert len(fog) == 36
    assert len(world.devices) == 80


def test_bundled_desk_scenario_has_small_oracle_footprint():
    config = load_scenario(cli.resolve_scenario("desk_optimality"))
    world = build_world(config)
    servers = world.topology.fog_servers()
    assert len(servers) == 15  # 10 + 3 + 1 + cloud
    assert len(world.devices) == 20


def test_bundled_scenarios_hold_only_known_keys():
    files = sorted(f for f in resources.files("fogsim").joinpath("scenarios").iterdir()
                   if f.name.endswith(".yaml"))
    assert len(files) >= 2
    for f in files:
        stale = scenario._stale_keys(yaml.safe_load(f.read_text()), scenario.DEFAULTS)
        assert stale == [], f.name


def test_stale_key_check_reports_nested_keys():
    stale = {"seed": 2, "migration": {"i_mig_s": 0.1, "gone_s": 1.0}, "bogus": [1]}
    assert scenario._stale_keys(stale, scenario.DEFAULTS) == [("migration", "gone_s"), ("bogus",)]


def test_misspelled_scenario_key_raises(tmp_path):
    path = tmp_path / "typo.yaml"
    path.write_text(yaml.safe_dump({"mobilty": {"tick_s": 0.5}}))
    with pytest.raises(ValueError, match="mobilty"):
        load_scenario(str(path))
    with pytest.raises(ValueError, match=r"mobility\.tick"):
        load_scenario(None, {"mobility": {"tick": 0.5}})


def test_misspelled_level_key_raises(tmp_path):
    levels = [dict(level) for level in TINY_SCENARIO["levels"]]
    levels[1]["coverage"] = levels[1].pop("coverage_m")
    path = tmp_path / "typo.yaml"
    path.write_text(yaml.safe_dump(dict(TINY_SCENARIO, levels=levels)))
    with pytest.raises(ValueError, match=r"levels\[1\]\.coverage\b"):
        load_scenario(str(path))
    with pytest.raises(ValueError, match=r"levels\[0\]\.cpu\b"):
        load_scenario(None, {"levels": [{"level": 1, "count": 1, "cpu": 1}]})


def test_missing_level_key_raises(tmp_path):
    levels = [dict(level) for level in TINY_SCENARIO["levels"]]
    del levels[2]["cpu_mips"]
    path = tmp_path / "no_cpu.yaml"
    path.write_text(yaml.safe_dump(dict(TINY_SCENARIO, levels=levels)))
    with pytest.raises(ValueError, match=r"levels\[2\]\.cpu_mips\b"):
        load_scenario(str(path))
    with pytest.raises(ValueError, match=r"levels\[0\]\.cpu_mips, levels\[0\]\.capacity$"):
        load_scenario(None, {"levels": [{"level": 1, "count": 3}]})


def _empty_level(index):
    levels = [dict(level) for level in TINY_SCENARIO["levels"]]
    levels[index]["count"] = 0
    del levels[index]["cols"]
    return levels


def _level_with(index, **values):
    levels = [dict(level) for level in TINY_SCENARIO["levels"]]
    levels[index].update(values)
    return levels


def _levels(*numbers):
    base = TINY_SCENARIO["levels"][0]
    return [dict(base, level=n, count=1, cols=1, rows=1) for n in numbers]


@pytest.mark.parametrize("overrides, match", [
    # A zero tick would re-schedule itself at t = 0 forever.
    ({"mobility": {"tick_s": 0}}, r"mobility\.tick_s = 0 "),
    ({"mobility": {"tick_s": -0.1}}, r"mobility\.tick_s = -0\.1 "),
    ({"levels": _empty_level(0)}, r"levels\[0\]\.count = 0 "),
    ({"levels": _empty_level(1)}, r"levels\[1\]\.count = 0 "),
    ({"devices": {"count": -3}}, r"devices\.count = -3 "),
    # A zero area side divides by zero when a level leaves out `cols`.
    ({"area": {"height_m": 0}}, r"area\.height_m = 0 "),
    ({"area": {"width_m": -5.0}}, r"area\.width_m = -5\.0 "),
    ({"interrupted_mode": "dorp"}, r"interrupted_mode = 'dorp' "),
    ({"policy": "bogus"}, r"policy = 'bogus' \(must be proposed or maas or urmila\)"),
    ({"failure": {"migration_failure_p": 1.5}}, r"failure\.migration_failure_p = 1\.5 "),
    ({"failure": {"migration_failure_p": -0.1}}, r"failure\.migration_failure_p = -0\.1 "),
    ({"levels": []}, r"levels\[\*\]\.level = \[\] "),
    ({"levels": _levels(1, 3)}, r"levels\[\*\]\.level = \[1, 3\] "),
    ({"levels": _levels(1, 2, 2)}, r"levels\[\*\]\.level = \[1, 2, 2\] "),
    ({"levels": _levels(2, 3)}, r"levels\[\*\]\.level = \[2, 3\] "),
    # A negative time runs silently wrong; the horizon one fails mid-run.
    ({"sensor_attach_latency_s": -1.0}, r"sensor_attach_latency_s = -1\.0 "),
    ({"container_startup_s": -1.0}, r"container_startup_s = -1\.0 "),
    ({"urmila": {"service_time_s": -0.01}}, r"urmila\.service_time_s = -0\.01 "),
    ({"horizon_s": -5}, r"horizon_s = -5 "),
    # A zero cpu_mips divides by zero mid-run, an empty template list at build.
    ({"levels": _level_with(1, cpu_mips=0)}, r"levels\[1\]\.cpu_mips = 0 "),
    ({"levels": _level_with(0, cpu_mips=[3000, -1])}, r"levels\[0\]\.cpu_mips = \[3000, -1\] "),
    ({"levels": _level_with(0, cpu_mips=[0.0, 4000])}, r"levels\[0\]\.cpu_mips = \[0\.0, 4000\] "),
    ({"cloud": {"cpu_mips": 0}}, r"cloud\.cpu_mips = 0 "),
    ({"devices": {"templates": []}}, r"devices\.templates = \[\] "),
    ({"devices": {"templates": ["ECGMH", "ECG"]}},
     r"devices\.templates = \['ECGMH', 'ECG'\] "),
    # The oracle's lower bound holds only for weights and powers >= 0.
    ({"weights": {"w1": -0.1}}, r"weights\.w1 = -0\.1 "),
    ({"weights": {"w2": -0.5}}, r"weights\.w2 = -0\.5 "),
    ({"energy": {"p_cpu_w": -0.9}}, r"energy\.p_cpu_w = -0\.9 "),
    ({"energy": {"p_idle_w": -0.3}}, r"energy\.p_idle_w = -0\.3 "),
    ({"energy": {"p_tx_w": -1}}, r"energy\.p_tx_w = -1 "),
    # Each of these used to run to the end, silently wrong.
    ({"levels": _level_with(0, capacity=-1)}, r"levels\[0\]\.capacity = -1 "),
    ({"levels": _level_with(1, coverage_m=-5.0)}, r"levels\[1\]\.coverage_m = -5\.0 "),
    ({"cloud": {"capacity": -1}}, r"cloud\.capacity = -1 "),
    ({"devices": {"ram_mb": [-50.0, -10.0]}}, r"devices\.ram_mb = \[-50\.0, -10\.0\] "),
    ({"devices": {"ram_mb": [75.0, 50.0]}}, r"devices\.ram_mb = \[75\.0, 50\.0\] "),
    ({"devices": {"ram_mb": [50.0]}}, r"devices\.ram_mb = \[50\.0\] "),
    ({"migration": {"dump_fraction": [-0.1, 0.1]}},
     r"migration\.dump_fraction = \[-0\.1, 0\.1\] "),
    ({"mobility": {"speed_min_mps": 5, "speed_max_mps": 1}},
     r"mobility\.speed_min_mps/speed_max_mps = \[5, 1\] "),
    ({"mobility": {"speed_min_mps": -1.0}},
     r"mobility\.speed_min_mps/speed_max_mps = \[-1\.0, 4\.0\] "),
    ({"mobility": {"leg_min_m": -100.0, "leg_max_m": -10.0}},
     r"mobility\.leg_min_m/leg_max_m = \[-100\.0, -10\.0\] "),
    ({"mobility": {"departure_margin": 1.5}}, r"mobility\.departure_margin = 1\.5 "),
    ({"mobility": {"departure_margin": 1.0}}, r"mobility\.departure_margin = 1\.0 "),
    ({"mobility": {"departure_margin": -0.05}}, r"mobility\.departure_margin = -0\.05 "),
    ({"migration": {"i_mig_s": -1}}, r"migration\.i_mig_s = -1 "),
    ({"migration": {"epsilon_frac": -1}}, r"migration\.epsilon_frac = -1 "),
    # An infinite horizon never ends; the others give inf or NaN metrics or
    # fail inside `build_world`.
    ({"horizon_s": float("inf")}, r"horizon_s = inf$"),
    ({"area": {"width_m": float("inf")}}, r"area\.width_m = inf$"),
    ({"energy": {"p_tx_w": float("inf")}}, r"energy\.p_tx_w = inf$"),
    ({"levels": _level_with(0, cpu_mips=[3000, float("inf")])},
     r"levels\[0\]\.cpu_mips\[1\] = inf$"),
    ({"links": {"bw_cluster_bps": {2: float("nan")}}}, r"links\.bw_cluster_bps\.2 = nan$"),
], ids=["zero_tick", "negative_tick", "empty_level_1", "empty_level_2",
        "negative_devices", "zero_height", "negative_width", "unknown_interrupted_mode",
        "unknown_policy",
        "failure_p_above_1", "negative_failure_p", "no_levels", "skipped_level",
        "repeated_level", "no_level_1", "negative_attach_latency",
        "negative_container_startup", "negative_urmila_service_time", "negative_horizon",
        "zero_level_cpu", "negative_level_cpu_hi", "zero_level_cpu_lo", "zero_cloud_cpu",
        "no_templates", "unknown_template", "negative_w1", "negative_w2",
        "negative_p_cpu", "negative_p_idle", "negative_p_tx", "negative_level_capacity",
        "negative_coverage", "negative_cloud_capacity", "negative_ram", "ram_min_above_max", "ram_one_end",
        "negative_dump_fraction", "speed_min_above_max", "negative_speed",
        "negative_legs", "departure_margin_above_1", "departure_margin_1",
        "negative_departure_margin", "negative_i_mig", "negative_epsilon",
        "infinite_horizon", "infinite_width", "infinite_p_tx", "infinite_level_cpu_hi",
        "nan_link_bandwidth"])
def test_out_of_range_scenario_value_raises(overrides, match):
    with pytest.raises(ValueError, match=match):
        load_scenario(None, overrides)


@pytest.mark.parametrize("overrides, match", [
    ({"devices": {"count": "8"}}, r"devices\.count = '8'"),
    ({"devices": {"count": True}}, r"devices\.count = True"),
    ({"devices": {"count": 8.0}}, r"devices\.count = 8\.0"),
    ({"horizon_s": "10"}, r"horizon_s = '10'"),
    ({"horizon_s": False}, r"horizon_s = False"),
    ({"failure": {"migration_failure_p": "0.5"}}, r"failure\.migration_failure_p = '0\.5'"),
    ({"seed": 1.5}, r"seed = 1\.5"),
    ({"devices": {"templates": "ECGMH"}}, r"devices\.templates = 'ECGMH'"),
    ({"links": {"lat_up_s": {4: "0.2"}}}, r"links\.lat_up_s\.4 = '0\.2'"),
    ({"levels": _levels(1, 2.0)}, r"levels\[1\]\.level = 2\.0"),
    ({"levels": [dict(TINY_SCENARIO["levels"][0], cpu_mips=[3000, "4000"])]},
     r"levels\[0\]\.cpu_mips\[1\] = '4000'"),
    ({"levels": [dict(TINY_SCENARIO["levels"][0], cpu_mips=[1, 2, 3])]},
     r"levels\[0\]\.cpu_mips = \[1, 2, 3\]"),
    ({"cloud": {"cpu_mips": [1000, 2000]}}, r"cloud\.cpu_mips = \[1000, 2000\]"),
], ids=["count_str", "count_bool", "count_float", "horizon_str", "horizon_bool",
        "failure_p_str", "seed_float", "templates_str", "link_level_str",
        "level_float", "cpu_mips_pair_str", "cpu_mips_triple", "cloud_cpu_mips_pair"])
def test_wrong_typed_scenario_value_raises(overrides, match):
    with pytest.raises(ValueError, match="wrong-typed scenario value.*" + match):
        load_scenario(None, overrides)


def test_int_for_float_and_cpu_mips_shapes_load():
    config = load_scenario(None, {
        "horizon_s": 10, "cloud": {"cpu_mips": 80000.0},
        "levels": [dict(TINY_SCENARIO["levels"][0], cpu_mips=[3000, 4000.5])]})
    assert config["horizon_s"] == 10
    assert config["levels"][0]["cpu_mips"] == [3000, 4000.5]


def test_fog_depth_comes_from_the_deepest_level(tmp_path):
    levels = TINY_SCENARIO["levels"] + [
        {"level": 4, "count": 1, "cols": 1, "rows": 1, "cpu_mips": 20000,
         "capacity": 80, "coverage_m": 0.0}]
    links = {name: {4: 0.2 if name.startswith("lat") else 10e9}
             for name in ("lat_up_s", "lat_down_s", "bw_up_bps", "bw_down_bps")}
    path = tmp_path / "four_levels.yaml"
    path.write_text(yaml.safe_dump(dict(TINY_SCENARIO, levels=levels, links=links)))
    sim = Simulation(load_scenario(str(path)))
    assert sim.topology.max_fog_level == 4
    assert sim.topology.cloud_id == (5, 1)
    assert sim.central == (4, 1)


def test_fog_levels_key_is_rejected(tmp_path):
    path = tmp_path / "old.yaml"
    path.write_text(yaml.safe_dump(dict(TINY_SCENARIO, fog_levels=3)))
    with pytest.raises(ValueError, match=r"unknown scenario key\(s\) fog_levels$"):
        load_scenario(str(path))


def test_extra_link_level_loads(tmp_path):
    levels = TINY_SCENARIO["levels"] + [
        {"level": 4, "count": 1, "cols": 1, "rows": 1, "cpu_mips": 20000,
         "capacity": 80, "coverage_m": 0.0}]
    path = tmp_path / "four_levels.yaml"
    path.write_text(yaml.safe_dump(dict(
        TINY_SCENARIO, levels=levels,
        links={"lat_up_s": {4: 0.2}, "bw_up_bps": {4: 10e9}})))
    config = load_scenario(str(path))
    assert config["links"]["lat_up_s"][4] == 0.2
    assert config["links"]["lat_up_s"][1] == 0.025  # default kept


def test_unknown_scenario_exits(tmp_path):
    with pytest.raises(SystemExit):
        cli.resolve_scenario("no_such_scenario")


def test_effective_config_is_byte_stable(tiny_scenario):
    a = effective_config(load_scenario(tiny_scenario))
    b = effective_config(load_scenario(tiny_scenario))
    assert a == b
    assert yaml.safe_load(a)["name"] == "tiny"


def test_overrides_win_over_file(tiny_scenario):
    config = load_scenario(tiny_scenario, {"seed": 9, "devices": {"count": 2}})
    assert config["seed"] == 9
    assert config["devices"]["count"] == 2
    assert config["devices"]["templates"] == ["ECGMH", "EEGTBG"]  # default kept


def test_weights_not_summing_to_one_accepted(tiny_scenario):
    config = load_scenario(tiny_scenario, {"weights": {"w1": 0.7, "w2": 0.5}})
    world = build_world(config)
    assert world.weights.w1 == 0.7
    assert world.weights.w2 == 0.5


def test_run_command_writes_outputs(tiny_scenario, tmp_path):
    out = str(tmp_path / "out")
    rc = cli.main(["run", tiny_scenario, "--policy", "proposed", "--seed", "2",
                   "--out", out])
    assert rc == 0
    with open(os.path.join(out, "metrics.csv")) as fh:
        rows = list(csv.DictReader(fh))
    assert {r["technique"] for r in rows} == {"proposed"}
    assert {r["app"] for r in rows} == {"ECGMH", "EEGTBG"}
    assert os.path.exists(os.path.join(out, "events.log"))


def test_run_rerun_is_byte_identical(tiny_scenario, tmp_path):
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    cli.main(["run", tiny_scenario, "--policy", "maas", "--seed", "5",
              "--out", out1])
    cli.main(["run", tiny_scenario, "--policy", "maas", "--seed", "5",
              "--out", out2])
    with open(os.path.join(out1, "metrics.csv"), "rb") as fh:
        bytes1 = fh.read()
    with open(os.path.join(out2, "metrics.csv"), "rb") as fh:
        bytes2 = fh.read()
    assert bytes1 == bytes2


def test_print_effective_config(tiny_scenario, capsys):
    rc = cli.main(["run", tiny_scenario, "--print-effective-config"])
    assert rc == 0
    dumped = capsys.readouterr().out
    assert yaml.safe_load(dumped)["name"] == "tiny"


def test_sweep_matrix_produces_72_rows(tiny_scenario, tmp_path):
    out = str(tmp_path / "sweep")
    rc = cli.main(["sweep", tiny_scenario,
                   "--policies", "proposed,maas,urmila",
                   "--seeds", "1,2,3",
                   "--horizons", "0.5,1.0,1.5,2.0",
                   "--out", out])
    assert rc == 0
    with open(os.path.join(out, "metrics.csv")) as fh:
        reader = csv.DictReader(fh)
        rows = list(reader)
        assert reader.fieldnames == cli.CSV_COLUMNS
    # 3 policies x 2 apps x 4 horizons x 3 seeds.
    assert len(rows) == 72


def test_sweep_rejects_unknown_policy(tiny_scenario, tmp_path):
    with pytest.raises(SystemExit):
        cli.main(["sweep", tiny_scenario, "--policies", "proposed,bogus",
                  "--out", str(tmp_path / "x")])


def test_optimality_flag_adds_oracle_gap_column(tmp_path):
    out = str(tmp_path / "opt")
    rc = cli.main(["run", "desk_optimality", "--devices", "4", "--horizon", "1",
                   "--optimality", "--out", out])
    assert rc == 0
    with open(os.path.join(out, "metrics.csv")) as fh:
        reader = csv.DictReader(fh)
        rows = list(reader)
        assert "oracle_gap" in reader.fieldnames
    gaps = {r["oracle_gap"] for r in rows}
    assert len(gaps) == 1
    float(gaps.pop())  # parses as a number


@pytest.mark.parametrize("edit, devices", [
    ({}, "0"),
    ({"weights": {"w1": 0.0, "w2": 0.0}}, "1"),
], ids=["zero_devices", "zero_weights"])
def test_optimality_gap_is_zero_when_the_optimum_costs_nothing(tmp_path, edit, devices):
    # Both placements then cost 0, which used to divide by zero.
    with open(cli.resolve_scenario("desk_optimality")) as fh:
        config = yaml.safe_load(fh)
    path = tmp_path / "desk.yaml"
    path.write_text(yaml.safe_dump({**config, **edit}))
    out = str(tmp_path / "opt")
    assert cli.main(["run", str(path), "--devices", devices, "--horizon", "1",
                     "--optimality", "--out", out]) == 0
    with open(os.path.join(out, "metrics.csv")) as fh:
        gaps = [float(row["oracle_gap"]) for row in csv.DictReader(fh)]
    assert gaps == ([0.0] if edit else [])


@pytest.mark.parametrize("policy", ["maas", "urmila"])
def test_optimality_flag_rejects_other_policies_before_writing(tmp_path, policy):
    # The study measures the proposed policy's placement, so its gap would
    # mislabel another policy's rows.
    out = tmp_path / "opt"
    with pytest.raises(SystemExit, match=policy):
        cli.main(["run", "desk_optimality", "--policy", policy, "--devices", "4",
                  "--horizon", "1", "--optimality", "--out", str(out)])
    assert not out.exists()


def test_run_matrix_device_sweep_tags_rows(tiny_scenario):
    config = load_scenario(tiny_scenario)
    rows = experiments.run_matrix(config, ["proposed"], [1], [1.0],
                                  devices=[2, 4])
    assert {r["devices"] for r in rows} == {2, 4}
    assert len(rows) == 4  # 2 device counts x 2 apps


def test_sweep_cells_are_checked_like_loaded_scenarios(tiny_scenario, tmp_path):
    config = load_scenario(tiny_scenario)
    with pytest.raises(ValueError, match=r"devices\.count = -3 "):
        experiments.run_matrix(config, ["proposed"], [1], [1.0], devices=[-3])
    with pytest.raises(ValueError, match=r"failure\.migration_failure_p = 1\.5 "):
        cli.main(["sweep", tiny_scenario, "--policies", "proposed", "--seeds", "1",
                  "--horizons", "1", "--failure-p", "1.5", "--out", str(tmp_path / "x")])


def test_infinite_run_horizon_fails_before_running(tmp_path):
    out = tmp_path / "out"
    with pytest.raises(ValueError, match=r"^non-finite scenario value\(s\) horizon_s = inf$"):
        cli.main(["run", "urban_80dev", "--horizon", "inf", "--devices", "2",
                  "--out", str(out)])
    assert not out.exists()


@pytest.mark.parametrize("horizon", ["nan", "inf", "-5"])
def test_sweep_rejects_unusable_horizons(tmp_path, horizon):
    with pytest.raises(ValueError, match=rf"^horizon {float(horizon)!r} must be finite and >= 0$"):
        cli.main(["sweep", "urban_80dev", "--seeds", "1", "--devices", "2",
                  "--horizons", horizon, "--out", str(tmp_path / "out")])
