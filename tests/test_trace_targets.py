"""The benchmark tracer patches fogsim functions by name from outside the
package, so a renamed or removed target breaks only traced benchmark runs.
This installs it over tiny workload cells and checks that every target
exists, is called, and is put back."""
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import layer_trace  # noqa: E402
import workloads  # noqa: E402


def _bindings():
    """Every attribute of every fogsim module and of the classes it defines."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if name == "fogsim" or name.startswith("fogsim."):
            for key, val in vars(mod).items():
                out[(name, key)] = val
                if isinstance(val, type) and val.__module__ == name:
                    for attr, member in vars(val).items():
                        out[(name, key, attr)] = member
    return out


def test_tracer_targets_exist_and_are_restored():
    cells = workloads.make_cells("ref_matrix", 1, tiny=True) + \
        workloads.make_cells("oracle_desk", 1, tiny=True)[:1]
    before = _bindings()
    tracer = layer_trace.Tracer()
    tracer.install()
    try:
        for cell in cells:
            root = "experiments" if cell.is_oracle else "sim_engine.kernel"
            with tracer.cell(cell.policy, root):
                workloads.execute(cell, workloads.set_up(cell))
    finally:
        tracer.uninstall()
    after = _bindings()
    assert [key for key, val in before.items() if after.get(key) is not val] == []
    metrics = tracer.metrics()
    for name in ("cost_model.route_lookups", "cost_model.route_builds",
                 "cost_model.app_cost_calls", "cost_model.schedule_cost_calls",
                 "placement.dapt_place_calls", "baselines.maas_place_s",
                 "baselines.urmila_place_s", "baselines.queue_admits",
                 "oracle.calls",
                 "oracle.nodes_explored", "sim_engine.events.service_start"):
        assert metrics[name] > 0, name
