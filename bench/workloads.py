"""The benchmark's workloads: generated configs, correctness gates, layers.

Standard library only, so the driver (``run.py``) can import it without
numpy.  Each workload is one ``gconv`` subcommand on one generated config;
why each was chosen is recorded in ``NOTES.md``.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

# the README's sweep tolerance, also acceptance criterion A3
SWEEP_REL_TOL = 2e-2
# acceptance criterion A4: laminate2d [1, 4] has the limit diag(1.6, 2.5)
LAMINATE_LIMIT = ((1.6, 0.0), (0.0, 2.5))
LAMINATE_TOL = 1e-2
# acceptance criterion A7: relative recovery bound at the top rung
RECOVERY_REL_TOL = 1e-2

LAMINATE = {"name": "laminate2d", "params": [1.0, 4.0], "alpha": 1.0, "beta": 4.0}


@dataclass(frozen=True)
class Workload:
    subcommand: str
    config: Callable[[int], dict]      # seed -> raw config
    layers: tuple                      # modules the traced run must see called
    gate: Callable[[dict], str | None]  # JSON report -> problem, or None


def _eigen_config(seed: int) -> dict:
    return {
        "experiment": "eigen-homog",
        "family": dict(LAMINATE),
        "h_list": [1, 2, 4],
        "points_per_period": 32,
        "eigen_count": 3,
        "seed": seed,
        "output": {"csv": "report.csv", "json": "report.json"},
    }


def _eigen_gate(doc: dict) -> str | None:
    tol = doc["config"]["solver"]["eig_tol"]
    for rec in doc["records"]:
        worst = max(rec["residuals"])
        if not worst <= tol:
            return f"h={rec['h']}: eigen residual {worst:.3e} > eig_tol {tol:.1e}"
    top = doc["records"][-1]
    rel = max(top["rel_errors"])
    if not rel <= SWEEP_REL_TOL:
        return f"top rung h={top['h']}: rel_err {rel:.3e} > {SWEEP_REL_TOL}"
    return None


def _gamma_config(seed: int) -> dict:
    return {
        "experiment": "gamma",
        "potential": {"name": "sin2-potential"},
        "h_list": [8, 16, 32, 64, 128, 256, 512],
        "points_per_period": 32,
        "targets": 20,
        "seed": seed,
        "output": {"csv": "recovery_trace.csv", "json": "gamma.json"},
    }


def _gamma_gate(doc: dict) -> str | None:
    liminf = doc["liminf"]
    if not liminf["passed"] == liminf["total"] == doc["config"]["targets"]:
        return f"liminf {liminf['passed']}/{liminf['total']} targets passed"
    rec = doc["recovery"]
    bound = RECOVERY_REL_TOL * abs(rec["limit"]) + 1e-10
    if not rec["abs_errors"][-1] <= bound:
        return f"recovery error {rec['abs_errors'][-1]:.3e} > bound {bound:.3e}"
    return None


def _cell_config(seed: int) -> dict:
    return {
        "experiment": "homogenize",
        "family": dict(LAMINATE),
        "cell_resolution": 256,
        "seed": seed,
        "output": {"json": "homogenize.json"},
    }


def _cell_gate(doc: dict) -> str | None:
    tensor = doc["tensor"]
    for i in range(2):
        for j in range(2):
            err = abs(tensor[i][j] - LAMINATE_LIMIT[i][j]) / LAMINATE_LIMIT[i][i]
            if not err <= LAMINATE_TOL:
                return (f"tensor[{i}][{j}] = {tensor[i][j]!r} is off "
                        f"diag(1.6, 2.5) by {err:.3e} relative")
    return None


WORKLOADS = {
    "eigen2d-laminate": Workload(
        "sweep-eigen", _eigen_config,
        ("mesh", "families", "assembly", "linalg", "homogenize", "sweep",
         "config", "cli"),
        _eigen_gate),
    "gamma1d-sin2": Workload(
        "gamma-check", _gamma_config,
        ("mesh", "families", "assembly", "variational", "sweep", "config",
         "cli"),
        _gamma_gate),
    "cell2d-laminate": Workload(
        "homogenize", _cell_config,
        ("mesh", "families", "assembly", "linalg", "homogenize", "config",
         "cli"),
        _cell_gate),
}
