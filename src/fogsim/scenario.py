"""Scenario files: schema defaults, loading, and world construction.

A scenario is a YAML mapping; anything omitted falls back to the defaults
below. `build_world` turns a scenario into a topology plus per-device
application instances, all drawn from seed-derived streams so the same
(scenario, seed) pair always builds the same world.
"""
from __future__ import annotations

import copy
import math
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import yaml

from . import app_model
from .cost_model import CostWeights, DeviceEnergyProfile, MigrationParams
from .topology import LinkParams, ServerId, ServerNode, Topology


# libyaml's parser where it is built in; both share SafeLoader's constructor and resolver.
SCENARIO_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


@dataclass(frozen=True)
class Policy:
    """What sets a technique apart; `Simulation` reads these fields, never the name.

    `planner` names the placement function, a `placement` or `baselines` attribute
    read when a simulation is built. `central`: the top-level fog server decides
    every request behind a FIFO queue, ranks modules over all fog servers, moves
    them one at a time along the new serving chain, commits the cheapest outright (the
    admissibility handshake belongs to the distributed protocol), and releases a
    handed-over device at attach. Otherwise the controller places, and each
    level's server decides migrations, escalating whole subsets up at hop latency.
    `clustered`: servers cluster at start, and sojourn analysis, not the nearest
    sensed server, picks a departing device's next controller. `ranked`: modules
    go in rank order over the decider's candidates, not schedule order (maas's
    controllers fill themselves and push the rest straight up).
    """
    name: str
    planner: str
    central: bool
    clustered: bool
    ranked: bool


POLICY_RECORDS = {p.name: p for p in (
    Policy("proposed", "dapt_place", central=False, clustered=True, ranked=True),
    Policy("maas", "maas_place", central=False, clustered=False, ranked=False),
    Policy("urmila", "urmila_place", central=True, clustered=False, ranked=True))}
POLICIES = tuple(POLICY_RECORDS)

DEFAULTS: Dict = {
    "name": "scenario",
    "seed": 1,
    "policy": "proposed",
    "horizon_s": 400.0,
    "area": {"width_m": 2000.0, "height_m": 1000.0},
    "weights": {"w1": 0.5, "w2": 0.5},
    "energy": {"p_cpu_w": 0.9, "p_idle_w": 0.3, "p_tx_w": 1.3},
    "migration": {"i_mig_s": 0.05, "epsilon_frac": 0.05, "dump_fraction": [0.05, 0.10]},
    "mobility": {"tick_s": 0.1, "speed_min_mps": 0.5, "speed_max_mps": 4.0,
                 "leg_min_m": 100.0, "leg_max_m": 600.0, "departure_margin": 0.05},
    "failure": {"migration_failure_p": 0.0},
    "container_startup_s": 0.1,
    "sensor_attach_latency_s": 0.002,
    "interrupted_mode": "delay",
    "urmila": {"service_time_s": 0.001},
    "levels": [
        {"level": 1, "count": 30, "cols": 6, "rows": 5, "cpu_mips": [3000, 4000],
         "capacity": 10, "coverage_m": 200.0},
        {"level": 2, "count": 5, "cols": 5, "rows": 1, "cpu_mips": 8000,
         "capacity": 20, "coverage_m": 400.0},
        {"level": 3, "count": 1, "cols": 1, "rows": 1, "cpu_mips": 10000,
         "capacity": 60, "coverage_m": 0.0},
    ],
    "cloud": {"cpu_mips": 80000, "capacity": 100000},
    "links": {
        "lat_up_s": {0: 0.005, 1: 0.025, 2: 0.05, 3: 0.15},
        "lat_down_s": {0: 0.005, 1: 0.025, 2: 0.05, 3: 0.15},
        "lat_cluster_s": {1: 0.004, 2: 0.0225},
        "bw_up_bps": {0: 100e6, 1: 10e9, 2: 10e9, 3: 10e9},
        "bw_down_bps": {0: 200e6, 1: 10e9, 2: 10e9, 3: 10e9},
        "bw_cluster_bps": {1: 10e9, 2: 10e9},
    },
    "devices": {"count": 80, "ram_mb": [50.0, 75.0],
                "templates": ["ECGMH", "EEGTBG"]},
}


# Keys every `levels` entry must set; `cols`, `rows` and `coverage_m` may be left out.
LEVEL_KEYS = ("level", "count", "cpu_mips", "capacity")
# The default `_leaves` gives a key that `DEFAULTS` does not know.
_UNKNOWN = object()


def _deep_merge(base: Dict, override: Dict) -> Dict:
    out = copy.deepcopy(base)
    for key, val in override.items():
        if isinstance(val, dict) and isinstance(out.get(key), dict):
            out[key] = _deep_merge(out[key], val)
        else:
            out[key] = copy.deepcopy(val)
    return out


def _reject_unknown(leaves, source: str = ""):
    unknown = [key for key, _, default in leaves if default is _UNKNOWN]
    if unknown:
        raise ValueError(f"{source}unknown scenario key(s) {', '.join(unknown)}")


def _merge_known(config: Dict, extra: Dict, source: str) -> Dict:
    _reject_unknown(_leaves(extra, DEFAULTS, ""), f"{source}: ")
    return _deep_merge(config, extra)


def load_scenario(path=None, overrides: Optional[Dict] = None) -> Dict:
    """Load a scenario file (YAML) merged over the defaults, then overrides.

    `path` is a file name or a resource with its own `open()` (a bundled scenario).

    A key that the defaults do not know raises ValueError naming its path,
    and so does every value that `check_config` rejects.
    """
    config = copy.deepcopy(DEFAULTS)
    if path is not None:
        with (path.open() if hasattr(path, "open") else open(path)) as fh:
            user = yaml.load(fh, Loader=SCENARIO_LOADER) or {}
        if not isinstance(user, dict):
            raise ValueError(f"scenario file {path} must hold a mapping")
        config = _merge_known(config, user, f"scenario file {path}")
    if overrides:
        config = _merge_known(config, overrides, "overrides")
    return check_config(config)


def _leaves(value, default, path: str) -> List[Tuple[str, object, object]]:
    """(key path, value, `default` there) of each leaf under `value`; a `links`
    level is typed as level 1, a list item as item 0, a misshapen value is a
    leaf, and so is a key the defaults do not know, with default `_UNKNOWN`.
    A known `cpu_mips` is any number, or a [lo, hi] pair in `levels`."""
    if path.endswith("cpu_mips") and default is not _UNKNOWN:
        pair = path.startswith("levels") and isinstance(value, list) and len(value) == 2
        default = [0.0] if pair else 0.0
    if isinstance(default, dict) and isinstance(value, dict):
        level = default.get(1, _UNKNOWN)  # the default of any level in `links`
        return [leaf for key, val in value.items() for leaf in _leaves(
            val, default.get(key, level if isinstance(key, int) else _UNKNOWN),
            f"{path}.{key}" if path else str(key))]
    if isinstance(default, list) and isinstance(value, list):
        return [leaf for i, val in enumerate(value)
                for leaf in _leaves(val, default[0], f"{path}[{i}]")]
    return [(path, value, default)]


def check_config(config: Dict) -> Dict:
    """Returns `config` if its values are usable, else raises ValueError naming them.

    Rejected: a key that `DEFAULTS` does not know, a value typed unlike its
    `DEFAULTS` leaf (an int may stand for a float), an infinite or NaN number,
    a `levels` entry without one of `LEVEL_KEYS`, a level without servers,
    levels not numbered 1 to n once each (n >= 1, the fog depth), a
    non-positive `mobility.tick_s`, area side or `cpu_mips` (of the cloud, or
    either end of a level's pair), a negative `devices.count`, `horizon_s`,
    `container_startup_s`, `sensor_attach_latency_s`, `urmila.service_time_s`,
    level or cloud `capacity`, level `coverage_m`, `energy` power,
    `migration.i_mig_s` or `migration.epsilon_frac`, a `weights` entry or
    `failure.migration_failure_p` outside [0, 1], a `mobility.departure_margin`
    outside [0, 1), a `devices.ram_mb`, `migration.dump_fraction`, mobility
    speed or leg range that is not a [min, max] pair with 0 <= min <= max, a
    `policy` not in `POLICIES`, an `interrupted_mode` other than delay or drop,
    `devices.templates` empty or naming no `app_model.TEMPLATES` entry, a
    level's `cols` or `rows` below 1, and, once all else is valid, a level
    whose server grid has fewer cells than its `count`. A sweep checks each
    cell it edits again. The oracle's lower bound holds only for weights and
    powers >= 0.
    """
    leaves = _leaves(config, DEFAULTS, "")
    _reject_unknown(leaves)
    mistyped = [(key, val) for key, val, default in leaves if type(val) is not type(default)
                and not (type(default) is float and type(val) is int)]
    nonfinite = [(key, val) for key, val, _ in leaves
                 if isinstance(val, float) and not math.isfinite(val)]
    for kind, found in (("wrong-typed", mistyped), ("non-finite", nonfinite)):
        if found:
            raise ValueError(f"{kind} scenario value(s) " + ", ".join(
                f"{key} = {val!r}" for key, val in found))
    levels = config["levels"]
    missing = [f"levels[{i}].{key}" for i, spec in enumerate(levels)
               for key in LEVEL_KEYS if key not in spec]
    if missing:
        raise ValueError(f"missing scenario key(s) {', '.join(missing)}")
    bad = []
    for i, spec in enumerate(levels):
        cpu = spec["cpu_mips"]
        if int(spec["count"]) < 1:
            bad.append((f"levels[{i}].count", spec["count"], ">= 1"))
        if not all(float(v) > 0.0 for v in (cpu if isinstance(cpu, list) else [cpu])):
            bad.append((f"levels[{i}].cpu_mips", cpu, "> 0"))
        for key in ("capacity", "coverage_m"):
            if float(spec.get(key, 0.0)) < 0.0:
                bad.append((f"levels[{i}].{key}", spec[key], ">= 0"))
        for key in ("cols", "rows"):
            if int(spec.get(key, 1)) < 1:
                bad.append((f"levels[{i}].{key}", spec[key], ">= 1"))
    numbers = sorted(int(spec["level"]) for spec in levels)
    if not numbers or numbers != list(range(1, len(numbers) + 1)):
        bad.append(("levels[*].level", numbers, "1 to n once each, n >= 1"))
    positive = (lambda v: float(v) > 0.0, "> 0")
    at_least_0 = (lambda v: float(v) >= 0.0, ">= 0")
    unit = (lambda v: 0.0 <= float(v) <= 1.0, "in [0, 1]")
    for key, (ok, need) in (
            ("mobility.tick_s", positive),
            ("mobility.departure_margin", (lambda v: 0.0 <= float(v) < 1.0, "in [0, 1)")),
            ("horizon_s", at_least_0),
            ("container_startup_s", at_least_0),
            ("sensor_attach_latency_s", at_least_0),
            ("urmila.service_time_s", at_least_0),
            ("migration.i_mig_s", at_least_0),
            ("migration.epsilon_frac", at_least_0),
            ("energy.p_cpu_w", at_least_0),
            ("energy.p_idle_w", at_least_0),
            ("energy.p_tx_w", at_least_0),
            ("weights.w1", unit),
            ("weights.w2", unit),
            ("cloud.cpu_mips", positive),
            ("cloud.capacity", at_least_0),
            ("devices.count", at_least_0),
            ("area.width_m", positive),
            ("area.height_m", positive),
            ("failure.migration_failure_p", unit),
            ("policy", (lambda v: v in POLICIES, " or ".join(POLICIES))),
            ("interrupted_mode", (lambda v: v in ("delay", "drop"), "delay or drop")),
            ("devices.templates", (
                lambda v: v and all(t in app_model.TEMPLATES for t in v),
                "a non-empty list of " + ", ".join(sorted(app_model.TEMPLATES))))):
        val = config
        for part in key.split("."):
            val = val[part]
        if not ok(val):
            bad.append((key, val, need))
    mobility = config["mobility"]
    for key, pair in (
            ("devices.ram_mb", config["devices"]["ram_mb"]),
            ("migration.dump_fraction", config["migration"]["dump_fraction"]),
            ("mobility.speed_min_mps/speed_max_mps",
             [mobility["speed_min_mps"], mobility["speed_max_mps"]]),
            ("mobility.leg_min_m/leg_max_m", [mobility["leg_min_m"], mobility["leg_max_m"]])):
        if not (len(pair) == 2 and 0.0 <= float(pair[0]) <= float(pair[1])):
            bad.append((key, pair, "[min, max] with 0 <= min <= max"))
    if not bad:  # a grid can be sized only from valid counts, sides and area
        area = config["area"]
        for i, spec in enumerate(levels):
            cols, rows = _grid_shape(spec, float(area["width_m"]), float(area["height_m"]))
            if cols * rows < int(spec["count"]):
                bad.append((f"levels[{i}].cols/rows", [cols, rows],
                            f"a grid of at least count = {spec['count']} cells"))
    if bad:
        raise ValueError("out-of-range scenario value(s) " + ", ".join(
            f"{key} = {val!r} (must be {need})" for key, val, need in bad))
    return config


def effective_config(config: Dict) -> str:
    """Canonical, byte-stable dump of the fully resolved configuration."""
    return yaml.safe_dump(config, sort_keys=True, default_flow_style=False)


def stream(seed, label: str) -> random.Random:
    """Independent deterministic stream derived from the master seed."""
    return random.Random(f"{seed}/{label}")


@dataclass
class World:
    topology: Topology
    # (device id, its application) per device
    devices: List[Tuple[ServerId, app_model.AppDag]]
    weights: CostWeights
    profile: DeviceEnergyProfile
    migration: MigrationParams


def _grid_shape(spec: Dict, width: float, height: float) -> Tuple[int, int]:
    """(cols, rows) of a level's server grid; a side left out is derived."""
    count = int(spec["count"])
    cols = int(spec.get("cols") or math.ceil(math.sqrt(count * width / height)))
    rows = int(spec.get("rows") or math.ceil(count / cols))
    return cols, rows


def _grid_positions(spec: Dict, width: float, height: float) -> List[Tuple[float, float]]:
    """A level's cell centres, row by row; `check_config` ensures enough cells."""
    cols, rows = _grid_shape(spec, width, height)
    cell_w, cell_h = width / cols, height / rows
    return [(cell_w * (i % cols + 0.5), cell_h * (i // cols + 0.5))
            for i in range(int(spec["count"]))]


def _link_params(cfg: Dict) -> LinkParams:
    def table(name):
        return {int(k): float(v) for k, v in cfg[name].items()}
    return LinkParams(
        lat_up=table("lat_up_s"), lat_down=table("lat_down_s"),
        lat_cluster=table("lat_cluster_s"),
        bw_up=table("bw_up_bps"), bw_down=table("bw_down_bps"),
        bw_cluster=table("bw_cluster_bps"))


def build_world(config: Dict) -> World:
    """Materialize a scenario: servers on grids, devices at seeded positions."""
    seed = config["seed"]
    rng_topo = stream(seed, "topology")
    rng_dev = stream(seed, "devices")
    area = config["area"]
    width, height = float(area["width_m"]), float(area["height_m"])
    max_level = max(int(spec["level"]) for spec in config["levels"])

    nodes: List[ServerNode] = []
    by_level: Dict[int, List[ServerNode]] = {}
    for spec in sorted(config["levels"], key=lambda s: s["level"]):
        level = int(spec["level"])
        count = int(spec["count"])
        positions = _grid_positions(spec, width, height)
        cpu = spec["cpu_mips"]
        for idx in range(1, count + 1):
            mips = rng_topo.uniform(*cpu) if isinstance(cpu, (list, tuple)) else float(cpu)
            node = ServerNode(
                id=ServerId(level, idx), cpu_mips=mips,
                container_capacity=int(spec["capacity"]),
                position=positions[idx - 1],
                coverage_radius=float(spec.get("coverage_m", 0.0)))
            nodes.append(node)
            by_level.setdefault(level, []).append(node)

    cloud_cfg = config["cloud"]
    cloud = ServerNode(id=ServerId(max_level + 1, 1),
                       cpu_mips=float(cloud_cfg["cpu_mips"]),
                       container_capacity=int(cloud_cfg["capacity"]),
                       position=(width / 2.0, height / 2.0))
    nodes.append(cloud)
    by_level[max_level + 1] = [cloud]

    # Parents: geometrically nearest node one level up.
    for level in sorted(by_level):
        if level >= max_level + 1:
            continue
        uppers = by_level.get(level + 1, [])
        for node in by_level[level]:
            if not uppers:
                raise ValueError(f"no level-{level + 1} servers to parent {node.id}")
            best = min(uppers, key=lambda up: (node.distance_to(up.position), up.id))
            node.parent = best.id

    dev_cfg = config["devices"]
    templates = dev_cfg["templates"]
    device_setups = []
    for n in range(1, int(dev_cfg["count"]) + 1):
        pos = (rng_dev.uniform(0.0, width), rng_dev.uniform(0.0, height))
        template = templates[(n - 1) % len(templates)]
        dag = app_model.build_app(template, f"{template}:{n}",
                                  rng=stream(seed, f"ram:{n}"),
                                  ram_range=tuple(dev_cfg["ram_mb"]))
        sid = ServerId(0, n)
        level1 = by_level.get(1, [])
        covering = [fs for fs in level1 if fs.covers(pos)]
        pool = covering or level1
        home = min(pool, key=lambda fs: (fs.distance_to(pos), fs.id))
        nodes.append(ServerNode(id=sid, cpu_mips=500.0,
                                container_capacity=len(dag.modules),
                                position=pos, parent=home.id))
        device_setups.append((sid, dag))

    topology = Topology(nodes, _link_params(config["links"]), max_level)
    weights = CostWeights(**{k: float(v) for k, v in config["weights"].items()})
    profile = DeviceEnergyProfile(**{k: float(v) for k, v in config["energy"].items()})
    mig_cfg = config["migration"]
    migration = MigrationParams(
        i_mig_s=float(mig_cfg["i_mig_s"]),
        epsilon_frac=float(mig_cfg["epsilon_frac"]),
        dump_fraction=tuple(float(x) for x in mig_cfg["dump_fraction"]))
    return World(topology=topology, devices=device_setups,
                 weights=weights, profile=profile, migration=migration)
