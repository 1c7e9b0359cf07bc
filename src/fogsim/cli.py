"""Command line interface: run scenarios and sweeps, emit metrics.csv and events.log."""
from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from importlib import resources
from typing import List, Optional

from . import experiments, scenario
from .sim_engine import run_simulation

CSV_COLUMNS = ["technique", "app", "horizon_s", "seed", "pdt_s", "artt_s",
               "aect_j", "awct", "migrations", "cmt_s", "cmec_j", "cmwc",
               "tit", "fr_mode"]


def resolve_scenario(name: str) -> str | resources.abc.Traversable:
    """A scenario argument is a file path or the name of a bundled scenario,
    which comes back as the package resource itself, for `load_scenario`."""
    if os.path.isfile(name):
        return name
    bundled = resources.files("fogsim").joinpath(f"scenarios/{name}.yaml")
    if bundled.is_file():
        return bundled
    raise SystemExit(f"scenario not found: {name}")


def write_outputs(rows: List[dict], events: List[dict], out_dir: str,
                  extra_columns: Optional[List[str]] = None):
    os.makedirs(out_dir, exist_ok=True)
    columns = CSV_COLUMNS + (extra_columns or [])
    with open(os.path.join(out_dir, "metrics.csv"), "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns, extrasaction="ignore")
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
    with open(os.path.join(out_dir, "events.log"), "w") as fh:
        for record in events:
            fh.write(json.dumps(record, sort_keys=True, default=str) + "\n")


def _overrides(args) -> dict:
    overrides: dict = {}
    if args.policy:
        overrides["policy"] = args.policy
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.horizon is not None:
        overrides["horizon_s"] = args.horizon
    if args.failure_p is not None:
        overrides["failure"] = {"migration_failure_p": args.failure_p}
    if args.devices is not None:
        overrides["devices"] = {"count": args.devices}
    return overrides


def cmd_run(args) -> int:
    path = resolve_scenario(args.scenario)
    config = scenario.load_scenario(path, _overrides(args))
    if args.optimality and config["policy"] != "proposed":
        raise SystemExit(f"--optimality measures the proposed policy's placement; "
                         f"got policy {config['policy']!r}")
    if args.print_effective_config:
        sys.stdout.write(scenario.effective_config(config))
        return 0
    result = run_simulation(config, horizons=[float(config["horizon_s"])])
    rows = result.rows
    extra = []
    if args.optimality:
        study = experiments.optimality_study(config, [config["seed"]])
        gap = study[0].gap
        for row in rows:
            row["oracle_gap"] = gap
        extra = ["oracle_gap"]
    write_outputs(rows, result.events, args.out, extra)
    for row in rows:
        print(f"{row['technique']} {row['app']} h={row['horizon_s']} "
              f"artt={row['artt_s']:.6f}s aect={row['aect_j']:.6f}J "
              f"migrations={row['migrations']} tit={row['tit']}")
    print(f"wrote {args.out}/metrics.csv and {args.out}/events.log")
    return 0


def cmd_sweep(args) -> int:
    path = resolve_scenario(args.scenario)
    config = scenario.load_scenario(path, None if args.failure_p is None else
                                    {"failure": {"migration_failure_p": args.failure_p}})
    policies = args.policies.split(",")
    for p in policies:
        if p not in scenario.POLICIES:
            raise SystemExit(f"unknown policy {p!r}")
    seeds = [int(s) for s in args.seeds.split(",")]
    horizons = [float(h) for h in args.horizons.split(",")]
    devices = [int(d) for d in args.devices.split(",")] if args.devices else None
    rows = experiments.run_matrix(config, policies, seeds, horizons, devices)
    extra = ["devices"] if devices else []
    write_outputs(rows, [], args.out, extra)
    print(f"wrote {len(rows)} rows to {args.out}/metrics.csv")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fogsim")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one scenario")
    run_p.add_argument("scenario")
    run_p.add_argument("--policy", choices=scenario.POLICIES)
    run_p.add_argument("--horizon", type=float)
    run_p.add_argument("--seed", type=int)
    run_p.add_argument("--devices", type=int)
    run_p.add_argument("--out", default="out")
    run_p.add_argument("--optimality", action="store_true")
    run_p.add_argument("--failure-p", type=float, dest="failure_p")
    run_p.add_argument("--print-effective-config", action="store_true")
    run_p.set_defaults(func=cmd_run)

    sweep_p = sub.add_parser("sweep", help="run a policy/seed/horizon matrix")
    sweep_p.add_argument("scenario")
    sweep_p.add_argument("--policies", default="proposed,maas,urmila")
    sweep_p.add_argument("--seeds", default="1,2,3")
    sweep_p.add_argument("--horizons", default="100,200,300,400")
    sweep_p.add_argument("--devices")
    sweep_p.add_argument("--failure-p", type=float, dest="failure_p")
    sweep_p.add_argument("--out", default="out")
    sweep_p.set_defaults(func=cmd_sweep)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
