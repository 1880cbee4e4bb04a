"""One workload process: import gconv, then run experiments through its CLI.

Started by ``run.py`` with ``PYTHONPATH=src`` and BLAS pinned to one thread.
It speaks one JSON object per line on stdout:

* ``{"event": "ready", ...}`` once ``gconv.cli`` is imported and the config
  validated, with the library versions;
* ``{"event": "calibration", "scale": x}`` right after: the factor that
  scales a time measured now to the reference speed (``Calibration``);
* ``{"event": "rep", "wall": s, "scaled": s, "problem": str|null,
  "traced": bool, "trace": {...}, "rss_mb": MiB}`` per experiment: its wall
  time, raw and scaled to the reference speed (``Calibration``), and the
  process's peak resident set so far; the first one is the warm-up;
* ``{"event": "done"}`` when the measuring window has closed.

Every experiment calls ``gconv.cli.main`` in this process, writing its
reports to ``--out``, and is then checked: the exit code, the workload's
gate, and byte identity with the warm-up's reports (the JSON once the
per-rung ``wall_clock`` is dropped).  With ``--trace 1`` experiments
alternate between traced and untraced, starting with a traced one after the
warm-up, so the same process measures the tracing overhead.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import platform
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

import numpy
import scipy
from scipy import sparse

from gconv import cli, config

from workloads import WORKLOADS

# typical seconds of Calibration.measure on a shared 2-vCPU Intel Xeon VM;
# it only sets the scale of the scaled wall times
CALIBRATION_REF_S = 0.065


class Calibration:
    """A fixed mix of interpreter, numpy and sparse work, timed.

    The host's speed swings by a quarter within seconds, and gconv's run
    time swings with it.  Timing this same work right after set-up, and
    before and after each experiment, measures the swing, so those times
    can be scaled to the reference speed: t * CALIBRATION_REF_S / calibration.
    """

    def __init__(self):
        rng = numpy.random.default_rng(0)
        self.x = rng.random(200_000)
        rows = numpy.repeat(numpy.arange(20_000), 4)
        self.A = sparse.csr_matrix(
            (rng.random(rows.size), (rows, rng.integers(0, 20_000, rows.size))),
            shape=(20_000, 20_000))

    def measure(self) -> float:
        start = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc += i * i
        for _ in range(15):
            y = numpy.cumsum(numpy.sort(self.x))
            self.A @ y[:20_000]
        return time.perf_counter() - start


def _emit(obj) -> None:
    sys.__stdout__.write(json.dumps(obj) + "\n")
    sys.__stdout__.flush()


def _read_reports(out: Path) -> dict:
    """Report files of one experiment; JSON parsed, wall_clock dropped."""
    reports = {}
    for path in sorted(out.iterdir()):
        if path.suffix == ".json":
            doc = json.loads(path.read_text())
            for rec in doc.get("records", ()):
                rec.pop("wall_clock", None)
            reports[path.name] = doc
        else:
            reports[path.name] = path.read_bytes()
    return reports


def _run_once(argv, out: Path):
    """Run one experiment; return (wall seconds, exit code, captured output)."""
    shutil.rmtree(out, ignore_errors=True)
    gc.collect()  # each experiment starts from the same heap, untimed
    captured = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:  # a traceback is a failed experiment, not a crash
            traceback.print_exc()
            code = "traceback"
    return time.perf_counter() - start, code, captured.getvalue()


def _check(workload, code, text, out: Path, first):
    """Problem with one experiment's outcome, or None; and its reports."""
    if code != 0:
        lines = text.strip().splitlines() or ["no output"]
        return f"exit {code}: {lines[-1]}", None
    try:
        reports = _read_reports(out)
        main = next(doc for doc in reports.values() if isinstance(doc, dict))
    except (OSError, ValueError, StopIteration) as exc:
        return f"unreadable reports: {exc!r}", None
    try:
        problem = workload.gate(main)
    except (KeyError, IndexError, TypeError) as exc:
        problem = f"report lacks a gated field: {exc!r}"
    if problem is None and first is not None and reports != first:
        changed = sorted(k for k in reports.keys() | first.keys()
                         if reports.get(k) != first.get(k))
        problem = f"reports differ from the warm-up's: {', '.join(changed)}"
    return problem, reports


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--seconds", type=float, default=0.0,
                        help="measuring window; 0 only checks set-up")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    config.validate_config(config.load_config(args.config))
    _emit({"event": "ready", "versions": {
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__}})
    calibration = Calibration()
    cal_before = calibration.measure()
    _emit({"event": "calibration", "scale": CALIBRATION_REF_S / cal_before})
    if args.seconds <= 0:
        return 0

    workload = WORKLOADS[args.workload]
    argv = [workload.subcommand, "--config", args.config, "--out", args.out]
    out = Path(args.out)
    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()

    first = None
    deadline = None
    rep = 0
    while deadline is None or time.perf_counter() < deadline:
        traced = tracer is not None and rep % 2 == 1
        if traced:
            tracer.reset()
            tracer.install()
        try:
            wall, code, text = _run_once(argv, out)
        finally:
            if traced:
                tracer.uninstall()
        cal_after = calibration.measure()
        scale = 2.0 * CALIBRATION_REF_S / (cal_before + cal_after)
        cal_before = cal_after
        problem, reports = _check(workload, code, text, out, first)
        _emit({"event": "rep", "wall": wall, "scaled": wall * scale,
               "problem": problem,
               "traced": traced,
               "trace": tracer.metrics() if traced else None,
               "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024})
        if rep == 0:  # the warm-up: its reports are the reference
            first = reports
            deadline = time.perf_counter() + args.seconds
        rep += 1
    _emit({"event": "done"})
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
