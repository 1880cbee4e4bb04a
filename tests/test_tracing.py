"""The benchmark tracer must find every function it traces by name."""
import importlib.util
from pathlib import Path

from gconv import cli, sweep

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def test_bench_tracer_installs_and_uninstalls():
    # install raises AttributeError when a traced function was renamed or
    # deleted, which would break ``bench/run.py --trace 1``
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    originals = (cli.main, sweep.run_eigen_potential, sweep.eig_smallest)
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert sweep.run_eigen_potential is not originals[1]
    finally:
        tracer.uninstall()
    assert (cli.main, sweep.run_eigen_potential, sweep.eig_smallest) == originals
