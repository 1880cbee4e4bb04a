"""Convergence sweeps over dyadic h with homogenized references and rates.

Each experiment walks an ascending ladder of frequencies h, solves the
h-dependent problem on a mesh coupled to the oscillation (delta = 1/(m h)
with m sample points per period), and measures errors against a reference
computed from the limit operator on the finest mesh of the ladder, so the
reported errors measure the operator convergence rather than the
discretization.

``EXPERIMENTS`` is the one table of experiment kinds: the CLI subcommand,
required config keys, runner and default report names of each.  Every
report goes through ``emit_report``, the one writer of CSV tables and JSON
documents (the effective config echoed for reproducibility).
"""
from __future__ import annotations

import csv
import functools
import json
import math
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from . import __version__, assembly
from .families import ConstantMatrixCoefficient
from .homogenize import homogenized_tensor
from .linalg import ConvergenceError, eig_smallest, residuals
from .mesh import FeSpace, build_dirichlet_space
from .variational import (
    dirichlet_solve,
    dirichlet_solves,
    div_curl_test,
    flux_weak_limit,
    liminf_check,
    potential_ladder,
    recovery_check,
    window_flux,
)


@dataclass(frozen=True)
class Experiment:
    """One experiment kind: how the CLI runs it and where its reports go."""

    subcommand: str
    summary: str       # one-line help of the subcommand
    requires: tuple    # family-valued config keys the kind needs
    runner: str        # name of the run_* function of this module
    outputs: tuple     # default (CSV, JSON) report names; no CSV when None
    optional: tuple = ()  # family-valued config keys the kind also reads
    ladder: bool = True  # builds a mesh of points_per_period * max(h_list)
    strip_rung: int | None = None  # h_list index of the mesh cut into strips


EXPERIMENTS = {
    "eigen-homog": Experiment(
        "sweep-eigen", "eigenvalue sweep of an oscillating pencil vs its limit",
        ("family",), "run_eigen_homog", ("report.csv", "report.json"), ("potential",)),
    "source-homog": Experiment(
        "sweep-source", "Dirichlet source sweep vs the homogenized solution",
        ("family", "source"), "run_source_homog", ("report.csv", "report.json"),
        strip_rung=0),
    "eigen-potential": Experiment(
        "sweep-potential", "spectral sweep of a perturbed operator K0 + V_h",
        ("potential",), "run_eigen_potential", ("report.csv", "report.json"), ("family",)),
    "gamma": Experiment(
        "gamma-check", "liminf sampling and affine recovery traces",
        ("potential",), "run_gamma", ("recovery_trace.csv", "gamma.json")),
    "divcurl": Experiment(
        "divcurl", "div-curl pairing trace and flux window averages",
        ("family", "source"), "run_divcurl", ("divcurl_trace.csv", "divcurl.json"),
        strip_rung=-1),
    "homogenize": Experiment(
        "homogenize", "compute the limit tensor of a coefficient family",
        ("family",), "run_homogenize", (None, "homogenize.json"), ladder=False),
}


@dataclass(frozen=True, eq=False)
class ExperimentConfig:
    """One experiment run, as ``config.validate_config`` builds it from a config."""

    kind: str
    h_list: tuple
    points_per_period: int = 32
    eigen_count: int = 3
    eig_tol: float = 1e-10
    quad_order: int = 4
    seed: int = 0
    family: object = None          # these three: None when the config omits them
    potential: object = None
    source: object = None
    windows: int = 8
    phi_support: tuple = (0.25, 0.75)
    affine: tuple = (1.0, 0.0)
    targets: int = 20
    perturbation_scale: float = 0.5
    cell_resolution: int = 128
    quad_points: int = 512
    echo: dict = field(default_factory=dict)


class Report:
    """What ``emit_report`` needs from every experiment report.

    A report is a dataclass with ``kind`` and ``config_echo`` fields;
    ``table``, for kinds that write a CSV, returns its header and rows.
    """

    # a numerical check that failed after the reports were complete
    failed_stage = None

    def body(self) -> dict:
        """The kind-specific JSON fields: every field but kind and config_echo."""
        body = asdict(self)
        del body["kind"], body["config_echo"]
        return body

    def lines(self) -> list:
        """Summary lines printed by ``gconv -v``."""
        return []


@dataclass(eq=False)
class SweepRecord:
    """Per-h results of a sweep."""

    h: int
    values: np.ndarray
    abs_errors: np.ndarray
    rel_errors: np.ndarray
    residuals: np.ndarray | None = None
    vector_errors: np.ndarray | None = None
    limit_residuals: np.ndarray | None = None
    wall_clock: float = 0.0


@dataclass(eq=False)
class RateFit:
    """Least-squares slope of log(error) against log(1/h)."""

    slope: float
    intercept: float
    n_used: int
    excluded: tuple = ()


@dataclass(eq=False)
class SweepReport(Report):
    """Full sweep output: per-h records, references, fitted rates."""

    kind: str
    h_values: tuple
    records: list
    reference: np.ndarray
    reference_meta: dict
    config_echo: dict
    rates: list = field(init=False)  # one fit_rate of the abs errors per mode

    def __post_init__(self):
        self.rates = [fit_rate(self.h_values, errs)
                      for errs in zip(*(rec.abs_errors for rec in self.records))]

    def table(self):
        """CSV header and rows: one row per h and mode k (1-based for
        eigenvalues; for source sweeps k=0 is the L2 distance)."""
        first_k = 0 if self.kind == "source-homog" else 1
        rows = [[rec.h, first_k + mode, rec.values[mode], self.reference[mode],
                 rec.abs_errors[mode], rec.rel_errors[mode]]
                for rec in self.records for mode in range(rec.values.shape[0])]
        return ["h", "k", "value", "reference", "abs_err", "rel_err"], rows

    def lines(self) -> list:
        return [f"  h={rec.h}: max rel err {float(np.max(rec.rel_errors)):.3e} "
                f"({rec.wall_clock:.3f}s)" for rec in self.records]


def _jsonify(obj):
    """``obj`` as strict JSON values: arrays become lists, NaN and inf null."""
    if isinstance(obj, np.ndarray):
        return _jsonify(obj.tolist())
    if isinstance(obj, dict):
        return {k: _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        obj = obj.item()
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def interpolate_between(space_from: FeSpace, u: np.ndarray,
                        space_to: FeSpace) -> np.ndarray:
    """P1 interpolation of a coarse-space function onto a finer space.

    Both spaces must discretize the same structured domain; Dirichlet
    boundary values are zero on both sides.
    """
    mesh = space_from.mesh
    coords = space_to.dof_coordinates()
    full = np.zeros(mesh.num_vertices)
    full[space_from.dof_vertices] = u
    if mesh.dimension == 1:
        return np.interp(coords[:, 0], mesh.vertices[:, 0], full)
    (nx, ny), (x0, y0), (x1, y1) = mesh.structure
    grid = full.reshape(nx + 1, ny + 1)
    dx = (x1 - x0) / nx
    dy = (y1 - y0) / ny
    gx = np.clip((coords[:, 0] - x0) / dx, 0.0, nx * (1 - 1e-15))
    gy = np.clip((coords[:, 1] - y0) / dy, 0.0, ny * (1 - 1e-15))
    i = np.floor(gx).astype(int)
    j = np.floor(gy).astype(int)
    xi = gx - i
    eta = gy - j
    lower = xi >= eta  # below the fixed diagonal of each grid square
    v00 = grid[i, j]
    v10 = grid[i + 1, j]
    v11 = grid[i + 1, j + 1]
    v01 = grid[i, j + 1]
    vals_low = v00 * (1.0 - xi) + v10 * (xi - eta) + v11 * eta
    vals_up = v00 * (1.0 - eta) + v11 * xi + v01 * (eta - xi)
    return np.where(lower, vals_low, vals_up)


# relative gap below which two eigenvalues count as one cluster
CLUSTER_GAP = 1e-6


def _clusters(values: np.ndarray):
    """Group indices of near-equal eigenvalues (relative gap < CLUSTER_GAP)."""
    groups = [[0]]
    for i in range(1, values.size):
        if values[i] - values[i - 1] <= CLUSTER_GAP * max(abs(values[i]), 1e-30):
            groups[-1].append(i)
        else:
            groups.append([i])
    return groups


def eigenvector_errors(interp: np.ndarray, vectors_ref: np.ndarray,
                       mass_ref, ref_values: np.ndarray) -> np.ndarray:
    """L2 distances between eigenvectors after sign alignment.

    ``interp`` holds a rung's vectors interpolated onto the reference space;
    a copy is normalized in the reference mass norm.  Inside a degenerate
    cluster the individual vectors are not comparable, so every vector of
    the cluster is scored by the principal-angle distance between the
    spanned subspaces.
    """
    k = interp.shape[1]
    interp = interp.copy()
    for j in range(k):
        nrm = np.sqrt(interp[:, j] @ (mass_ref @ interp[:, j]))
        if nrm > 0:
            interp[:, j] /= nrm
    errors = np.empty(k)
    for group in _clusters(ref_values[:k]):
        idx = np.asarray(group)
        if idx.size == 1:
            j = idx[0]
            ref = vectors_ref[:, j]
            vec = interp[:, j]
            if vec @ (mass_ref @ ref) < 0:
                vec = -vec
            diff = vec - ref
            errors[j] = np.sqrt(max(diff @ (mass_ref @ diff), 0.0))
        else:
            Xr = vectors_ref[:, idx]
            Xh = interp[:, idx]
            overlap = Xr.T @ (mass_ref @ Xh)
            s = np.clip(np.linalg.svd(overlap, compute_uv=False), 0.0, 1.0)
            errors[idx] = np.sqrt(max(0.0, 2.0 * idx.size - 2.0 * np.sum(s)))
    return errors


def fit_rate(h_values, errors) -> RateFit:
    """Slope of log(error) vs log(1/h): errors c/h^p fit to slope p.

    Nonpositive errors are excluded; with fewer than 3 left the fit is NaN."""
    h_values = np.asarray(h_values, dtype=float)
    errors = np.asarray(errors, dtype=float)
    usable = errors > 0.0
    if np.count_nonzero(usable) < 3:  # no rate: every h is left out
        return RateFit(math.nan, math.nan, 0, tuple(int(h) for h in h_values))
    x = np.log(1.0 / h_values[usable])
    y = np.log(errors[usable])
    slope, intercept = np.polyfit(x, y, 1)
    return RateFit(float(slope), float(intercept), int(np.count_nonzero(usable)),
                   tuple(int(h) for h in h_values[~usable]))


UNIT = ConstantMatrixCoefficient(np.eye(1))  # the coefficient of K0 = -Laplacian


def _limit_tensor(config: ExperimentConfig):
    return homogenized_tensor(config.family, quad_points=config.quad_points,
                              cell_resolution=config.cell_resolution)


def _finest(config: ExperimentConfig, dim: int):
    """Finest space of the ladder, where every reference lives, and its unit mass."""
    space = build_dirichlet_space(dim, config.points_per_period * max(config.h_list))
    return space, assembly.assemble_mass(space, quad_order=config.quad_order)


def _rung_space(config: ExperimentConfig, dim: int, h: int,
                space_ref: FeSpace) -> FeSpace:
    """Space of one rung; the top rung shares the finest space and its caches."""
    if h == max(config.h_list):
        return space_ref
    return build_dirichlet_space(dim, config.points_per_period * h)


def _eigen_sweep(config: ExperimentConfig, kind: str) -> SweepReport:
    """Sweep of H_h = -div(A_h grad) + V_h against -div(A* grad) + V, with A*
    the family's limit tensor and V the potential's declared limit.  Without a
    family the stiffness is K0 at every h; without a potential there is no V.

    Every operator is paired with the unit mass of its space; the reference
    eigenpairs live on the finest space.  Each rung's eigenvectors are
    interpolated onto the finest space once; when no coefficient oscillates
    (no ``family``) they are also scored there as eigenpairs of the limit
    operator."""
    family, potential, q = config.family, config.potential, config.quad_order
    coefficient, limit, limit_weight, meta = family or UNIT, UNIT, None, {}
    if family is not None:
        tensor = _limit_tensor(config)
        limit = ConstantMatrixCoefficient(tensor.matrix)
        meta = {"tensor": tensor.matrix, "provenance": tensor.provenance,
                "tensor_est_error": tensor.est_error}
    if potential is not None:
        limit_weight = potential.limit_family()
        meta.update(potential=potential.name, convergence_class=potential.convergence)

    @functools.cache  # the reference and the top rung share the finest space
    def unit_stiffness(space):
        return assembly.assemble_stiffness(space, UNIT, quad_order=q)

    def operator(space, coefficient, weight, h):
        K = (unit_stiffness(space) if coefficient is UNIT
             else assembly.assemble_stiffness(space, coefficient, h=h, quad_order=q))
        return K if weight is None else (
            K + assembly.assemble_mass(space, weight, h=h, quad_order=q)).tocsr()

    def eigenpairs(rung, K, M):
        try:
            return eig_smallest(K, M, config.eigen_count, tol=config.eig_tol)
        except ConvergenceError as exc:
            raise ConvergenceError(f"{rung}: {exc}") from exc

    space_ref, M_ref = _finest(config, coefficient.dim)
    H_ref = operator(space_ref, limit, limit_weight, 1)
    ref = eigenpairs("reference", H_ref, M_ref)
    records = []
    for h in config.h_list:
        t0 = time.perf_counter()
        space = _rung_space(config, coefficient.dim, h, space_ref)
        M = M_ref if space is space_ref else assembly.assemble_mass(space, quad_order=q)
        eig = eigenpairs(f"h={h}", operator(space, coefficient, potential, h), M)
        X = np.column_stack([interpolate_between(space, x, space_ref)
                             for x in eig.vectors.T])
        vec_err = eigenvector_errors(X, ref.vectors, M_ref, ref.values)
        limit_res = None
        if family is None:
            # contiguous columns: the dot products of a strided column round
            # differently in the last bit
            limit_res = residuals(H_ref, M_ref, eig.values, np.asfortranarray(X))
        abs_err = np.abs(eig.values - ref.values)
        records.append(SweepRecord(
            h=h, values=eig.values, abs_errors=abs_err,
            rel_errors=abs_err / np.abs(ref.values),
            residuals=eig.residuals, vector_errors=vec_err,
            limit_residuals=limit_res, wall_clock=time.perf_counter() - t0,
        ))
    meta["finest_cells"] = config.points_per_period * max(config.h_list)
    return SweepReport(kind, config.h_list, records, ref.values, meta,
                       dict(config.echo))


# two names of one sweep, each bound by its callers: defs, so a tracer wraps each once
def run_eigen_homog(config: ExperimentConfig) -> SweepReport:
    return _eigen_sweep(config, "eigen-homog")


def run_eigen_potential(config: ExperimentConfig) -> SweepReport:
    return _eigen_sweep(config, "eigen-potential")


def run_source_homog(config: ExperimentConfig) -> SweepReport:
    """Dirichlet source sweep: solutions against the homogenized solution.

    Record values hold the L2 distance to the reference (mode 0) followed by
    window averages of the first gradient component, the weak-H1 probes.
    """
    family, source, q = config.family, config.source, config.quad_order
    tensor = _limit_tensor(config)
    space_ref, M_ref = _finest(config, family.dim)
    u_star = dirichlet_solve(space_ref, ConstantMatrixCoefficient(tensor.matrix),
                             source.limit_family(), 1, q)
    ref_norm = float(np.sqrt(u_star @ (M_ref @ u_star)))
    edges = np.linspace(0.0, 1.0, config.windows + 1)
    identity = ConstantMatrixCoefficient(np.eye(family.dim))

    def probes(space, u):  # strip averages of the first gradient component
        return window_flux(space, identity, 1, u, edges, q)[:, 0]

    ref_probes = probes(space_ref, u_star)
    reference = np.concatenate([[0.0], ref_probes])
    records = []
    for h in config.h_list:
        t0 = time.perf_counter()
        space = _rung_space(config, family.dim, h, space_ref)
        u_h = dirichlet_solve(space, family, source, h, q)
        diff = interpolate_between(space, u_h, space_ref) - u_star
        l2_err = float(np.sqrt(max(diff @ (M_ref @ diff), 0.0)))
        values = np.concatenate([[l2_err], probes(space, u_h)])
        abs_err = np.abs(values - reference)
        rel = np.empty_like(abs_err)
        rel[0] = l2_err / ref_norm
        denom = np.where(np.abs(ref_probes) > 0, np.abs(ref_probes), 1.0)
        rel[1:] = abs_err[1:] / denom
        records.append(SweepRecord(h=h, values=values, abs_errors=abs_err,
                                   rel_errors=rel, wall_clock=time.perf_counter() - t0))
    meta = {"tensor": tensor.matrix, "provenance": tensor.provenance,
            "reference_l2_norm": ref_norm, "window_edges": edges}
    return SweepReport("source-homog", config.h_list, records, reference,
                       meta, dict(config.echo))


@dataclass(eq=False)
class GammaReport(Report):
    """Liminf sampling summary plus the affine recovery trace."""

    kind: str
    liminf_passed: int
    liminf_total: int
    liminf_margins: np.ndarray     # LiminfReport.margin per target
    recovery: object               # PairingTrace
    config_echo: dict

    @property
    def failed_stage(self):
        if self.liminf_passed != self.liminf_total:
            return "gamma liminf sampling"
        return None

    def body(self) -> dict:
        return {
            "h_values": self.recovery.h_values,
            "liminf": {
                "passed": self.liminf_passed,
                "total": self.liminf_total,
                "margins": self.liminf_margins,
            },
            "recovery": {
                "values": self.recovery.values,
                "limit": self.recovery.limit,
                "abs_errors": self.recovery.abs_errors,
            },
        }

    def table(self):
        return self.recovery.table()

    def lines(self) -> list:
        return [f"  liminf {self.liminf_passed}/{self.liminf_total}"]


def run_gamma(config: ExperimentConfig) -> GammaReport:
    """Sample the liminf inequality and trace the affine recovery sequence."""
    potential = config.potential
    space, M = _finest(config, 1)
    K0 = assembly.assemble_stiffness(space, UNIT, h=1, quad_order=config.quad_order)
    ladder = potential_ladder(space, potential, config.h_list, config.quad_order)
    rng = np.random.default_rng(config.seed)
    margins = np.empty(config.targets)
    passed = 0
    for t in range(config.targets):
        u = rng.normal(size=space.num_dofs)
        u /= np.sqrt(u @ (M @ u))
        rep = liminf_check(space, K0, ladder, u, config.perturbation_scale,
                           seed=config.seed + 1 + t)
        margins[t] = rep.margin
        passed += int(rep.passed)
    trace = recovery_check(space, K0, ladder, config.affine)
    return GammaReport("gamma", passed, config.targets, margins, trace,
                       dict(config.echo))


@dataclass(eq=False)
class DivCurlReport(Report):
    """Div-curl pairing trace plus flux window averages at the largest h."""

    kind: str
    trace: object                  # PairingTrace
    flux_windows: object           # FluxWindowReport
    envelope_prediction: float     # 1/h fit from the leading rungs at h_max
    config_echo: dict

    def table(self):
        return self.trace.table()


def run_divcurl(config: ExperimentConfig) -> DivCurlReport:
    """Pair the discrete energy density against its homogenized limit."""
    solves = dirichlet_solves(config.family, config.source,
                              config.points_per_period * max(config.h_list),
                              config.quad_order, _limit_tensor(config))
    trace = div_curl_test(config.family, config.h_list, config.source,
                          config.phi_support, quad_order=config.quad_order,
                          solves=solves)
    flux = flux_weak_limit(config.family, max(config.h_list), config.source,
                           config.windows, quad_order=config.quad_order,
                           solves=solves)
    lead = min(3, len(config.h_list) - 1)
    hs = np.asarray(config.h_list[:lead], dtype=float)
    errs = np.asarray(trace.abs_errors[:lead])
    usable = errs > 0
    if np.count_nonzero(usable) >= 2:
        c = float(np.exp(np.mean(np.log(errs[usable]) + np.log(hs[usable]))))
        prediction = c / max(config.h_list)
    else:
        prediction = float("nan")
    return DivCurlReport("divcurl", trace, flux, prediction, dict(config.echo))


@dataclass(eq=False)
class HomogenizeReport(Report):
    """Limit tensor of a coefficient family."""

    kind: str
    family: str
    tensor: np.ndarray
    provenance: str
    est_error: float
    config_echo: dict

    def lines(self) -> list:
        return [str(self.tensor.tolist())]


def run_homogenize(config: ExperimentConfig) -> HomogenizeReport:
    """Limit tensor of the configured family from its oracle."""
    tensor = _limit_tensor(config)
    return HomogenizeReport("homogenize", config.family.name, tensor.matrix,
                            tensor.provenance, tensor.est_error,
                            dict(config.echo))


def emit_report(report: Report, fmt: str, path) -> None:
    """Write a report as its CSV table or as a JSON document.

    The JSON document is the report's kind, the tool version and the echoed
    config plus the report's body.  CSV floats carry 17 significant digits
    so reruns are byte-comparable.
    """
    if fmt == "csv":
        header, rows = report.table()
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows([format(v, ".17g") if isinstance(v, float) else v
                              for v in row] for row in rows)
        return
    if fmt == "json":
        doc = {"kind": report.kind, "tool_version": __version__,
               "config": report.config_echo, **report.body()}
        with open(path, "w") as fh:
            json.dump(_jsonify(doc), fh, indent=2, sort_keys=True, allow_nan=False)
            fh.write("\n")
        return
    raise ValueError(f"unknown report format '{fmt}'")
