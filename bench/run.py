"""gconv benchmark: one workload, closed loop, end-to-end or per-layer metrics.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload eigen2d-laminate --seed 1 --seconds 20 --trace 0

It writes the workload's config, generated from ``--seed``, to a fresh
directory under ``.bench_tmp/``, and drives it through ``gconv.cli.main`` in
one worker process (``worker.py``): one client, one experiment at a time,
OpenBLAS/OpenMP/MKL pinned to one thread, never two workload processes at
once.  The reports go to the same directory, which is removed at the end.

``--trace 0`` prints the end-to-end metrics (``setup_s``, ``wall_s``,
``peak_rss_mb``, ``success_ratio``); ``--trace 1`` runs the worker with
spans around each gconv module (``tracing.py``) and prints the per-layer
metrics.  The last line of stdout is the result object; the line before it
holds the sample count, the library versions and ``src_lines``.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import selectors
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.dont_write_bytecode = True  # keep the benchmark's directory as committed
from tracing import metric_specs  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
# a warm experiment takes about 2 s; 15x that is a hung one
EXPERIMENT_TIMEOUT_S = 30.0
# fresh interpreters timed for setup_s, after one that warms the caches;
# the workload process adds one more sample
SETUP_SPAWNS = 4


class BenchError(RuntimeError):
    """The benchmark itself could not measure; no result is printed."""


class Worker:
    """A worker process whose stdout is read one JSON line at a time."""

    def __init__(self, args):
        # bytecode is never written, so every set-up compiles gconv alike
        # and nothing outside the checkout is touched
        env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1",
                   GCONV_THREADS="1", OPENBLAS_NUM_THREADS="1",
                   OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(WORKER), *args], cwd=ROOT, env=env,
            stdout=subprocess.PIPE, stdin=subprocess.DEVNULL)
        self._selector = selectors.DefaultSelector()
        self._selector.register(self.proc.stdout, selectors.EVENT_READ)
        self._buffer = b""

    def read(self, timeout: float):
        """Next message; None on timeout; raises BenchError at end of output."""
        deadline = time.monotonic() + timeout
        while b"\n" not in self._buffer:
            left = deadline - time.monotonic()
            if left <= 0 or not self._selector.select(left):
                return None
            chunk = os.read(self.proc.stdout.fileno(), 65536)
            if not chunk:
                raise BenchError(f"worker exited with code {self.proc.wait()} "
                                 f"before finishing")
            self._buffer += chunk
        line, self._buffer = self._buffer.split(b"\n", 1)
        return json.loads(line)

    def ready(self) -> tuple[float, float, dict]:
        """Seconds from spawn until gconv is imported and the config valid,
        raw and scaled to the reference speed; the library versions."""
        msg = self.read(EXPERIMENT_TIMEOUT_S)
        elapsed = time.perf_counter() - self.started
        if msg is None or msg.get("event") != "ready":
            raise BenchError(f"worker set-up failed: {msg!r}")
        cal = self.read(EXPERIMENT_TIMEOUT_S)
        if cal is None or cal.get("event") != "calibration":
            raise BenchError(f"worker calibration failed: {cal!r}")
        return elapsed, elapsed * cal["scale"], msg["versions"]

    def close(self) -> None:
        """Let the worker exit (killing it after a grace period), reap it."""
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        self._selector.close()


def _tail(samples):
    """Highest percentile with at least ten samples beyond it, if above p50."""
    n = len(samples)
    if n <= 20:
        return None
    return {"percentile": round(100.0 * (n - 10) / n, 1),
            "value": sorted(samples)[n - 11]}


def _src_lines() -> int:
    return sum(len(p.read_text().splitlines())
               for p in sorted((ROOT / "src" / "gconv").rglob("*.py")))


def _lost(problem: str) -> dict:
    """A failed experiment without a report; it counts at the timeout."""
    return {"wall": EXPERIMENT_TIMEOUT_S, "scaled": EXPERIMENT_TIMEOUT_S,
            "traced": False, "problem": problem}


def _run_workload(name, seed, seconds, trace, work: Path):
    workload = WORKLOADS[name]
    cfg = work / "config.json"
    cfg.write_text(json.dumps(workload.config(seed), indent=2) + "\n")
    args = ["--workload", name, "--config", str(cfg),
            "--out", str(work / "out")]

    setup = []  # (raw, scaled) seconds
    for i in range(0 if trace else SETUP_SPAWNS + 1):
        worker = Worker(args)
        try:
            raw, scaled, _ = worker.ready()
        finally:
            worker.close()
        if i:
            setup.append((raw, scaled))

    reps = []
    worker = Worker([*args, "--seconds", str(seconds), "--trace", str(trace)])
    try:
        raw, scaled, versions = worker.ready()
        setup.append((raw, scaled))
        while True:
            try:
                msg = worker.read(EXPERIMENT_TIMEOUT_S)
            except BenchError as exc:  # the program took the worker down
                reps.append(_lost(str(exc)))
                break
            if msg is None:
                worker.proc.kill()
                reps.append(_lost(f"timed out after {EXPERIMENT_TIMEOUT_S:.0f} s"))
                break
            if msg["event"] == "done":
                break
            reps.append(msg)
    finally:
        worker.close()
    # peak through import and the warm-up: later experiments add only
    # allocator fragmentation, which differs from run to run
    rss_mb = reps[0].get("rss_mb") or (
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0)
    return workload, setup, reps, versions, rss_mb


def _per_layer(workload, traced, untraced):
    """Median per-experiment trace metrics; BenchError if a layer read 0."""
    metrics = {}
    for key, unit, _ in metric_specs():
        metrics[key] = {"value": statistics.median(r["trace"][key] for r in traced),
                        "unit": unit}
    silent = [layer for layer in workload.layers
              if not any(v["value"] for k, v in metrics.items()
                         if k.startswith(layer + ".") and k.endswith(".calls"))]
    if silent:
        raise BenchError(f"traced layers recorded zero calls: {silent}; "
                         f"re-point the spans in bench/tracing.py")
    traced_wall = statistics.median(r["wall"] for r in traced)
    untraced_wall = statistics.median(r["wall"] for r in untraced)
    coverage = statistics.median(
        sum(v for k, v in r["trace"].items() if k.endswith(".self_s")) / r["wall"]
        for r in traced)
    metrics["trace.wall_s"] = {"value": traced_wall, "unit": "s"}
    metrics["trace.untraced_wall_s"] = {"value": untraced_wall, "unit": "s"}
    metrics["trace.overhead_s"] = {"value": traced_wall - untraced_wall,
                                   "unit": "s"}
    metrics["trace.coverage"] = {"value": coverage, "unit": "ratio"}
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "gconv" / "cli.py").is_file():
        print(f"bench: no gconv sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    tmp_root = ROOT / ".bench_tmp"
    tmp_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=tmp_root))
    try:
        workload, setup, reps, versions, rss_mb = _run_workload(
            args.workload, args.seed % 2**32, args.seconds, args.trace, work)
        measured = reps[1:]  # reps[0] is the warm-up
        traced = [r for r in measured if r["traced"] and not r["problem"]]
        untraced = [r for r in measured if not r["traced"]] or reps[:1]
        failed = sum(1 for r in reps if r["problem"])
        if args.trace:
            if not traced:
                raise BenchError("no traced experiment completed")
            metrics = _per_layer(workload, traced, untraced)
        else:
            scaled = [r["scaled"] for r in untraced]
            metrics = {
                "setup_s": {"value": statistics.median(s for _, s in setup),
                            "unit": "s"},
                "wall_s": {"value": statistics.median(scaled), "unit": "s"},
                "peak_rss_mb": {"value": rss_mb, "unit": "MiB"},
                "success_ratio": {"value": 1.0 - failed / len(reps),
                                  "unit": "ratio"},
            }
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            tmp_root.rmdir()
        except OSError:
            pass  # another run's directory is still there

    scaled = [r["scaled"] for r in untraced]
    raw = [r["wall"] for r in untraced]
    print(json.dumps({"info": {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "samples": len(scaled), "scaled_wall_samples_s": scaled,
        "tail": _tail(scaled), "raw_wall_median_s": statistics.median(raw),
        "raw_wall_samples_s": raw,
        "setup_samples_s": [s for _, s in setup],
        "raw_setup_samples_s": [r for r, _ in setup],
        "problems": [r["problem"] for r in reps if r["problem"]],
        "versions": versions, "nproc": len(os.sched_getaffinity(0)),
        "src_lines": _src_lines()}}))
    print(json.dumps({"correct": failed == 0, "attempted": len(reps),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
