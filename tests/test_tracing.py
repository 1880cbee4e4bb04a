"""The benchmark tracer must find every function it traces by name, and every
bench workload must run under it with each of its layers reached."""
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from gconv import cli, sweep

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve their module by name
    spec.loader.exec_module(module)
    return module


tracing = _load("tracing")
workloads = _load("workloads")


def test_bench_tracer_installs_and_uninstalls():
    # install raises AttributeError when a traced function was renamed or
    # deleted, which would break ``bench/run.py --trace 1``
    originals = (cli.main, sweep.run_eigen_potential, sweep.eig_smallest)
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert sweep.run_eigen_potential is not originals[1]
    finally:
        tracer.uninstall()
    assert (cli.main, sweep.run_eigen_potential, sweep.eig_smallest) == originals


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_bench_workload_runs_traced(tmp_path, capsys, name):
    # what ``bench/run.py --trace 1`` needs: exit 0, the gate passes, and every
    # layer of the workload records a call (the hooks bind their arguments)
    workload = workloads.WORKLOADS[name]
    doc = workload.config(7)
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(doc))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        code = cli.main([workload.subcommand, "--config", str(cfg),
                         "--out", str(tmp_path)])
    finally:
        tracer.uninstall()
    assert code == 0, capsys.readouterr().err
    report = json.loads((tmp_path / doc["output"]["json"]).read_text())
    assert workload.gate(report) is None
    metrics = tracer.metrics()
    for layer in workload.layers:
        assert any(value for key, value in metrics.items()
                   if key.startswith(layer + ".") and key.endswith(".calls")), layer
