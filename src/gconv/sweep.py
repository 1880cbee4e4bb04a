"""Convergence sweeps over dyadic h with homogenized references and rates.

Each experiment walks an ascending ladder of frequencies h, solves the
h-dependent problem on a mesh coupled to the oscillation (delta = 1/(m h)
with m sample points per period), and measures errors against the run's
``Limit`` on the finest mesh of the ladder, from exact eigenvectors in 1D
and an eigensolve in 2D.  A rung's P1 operator tends to a discrete limit
O(m^-2) off A*, as m stays fixed: from h = 32 on, osc1d's errors measure
that floor (5.35e-4 relative at m = 32) rather than the operator convergence.

``EXPERIMENTS`` is the one table of experiment kinds: the CLI subcommand,
required config keys, runner and default report names of each.  Every
report goes through ``emit_report``, the one writer of CSV tables and JSON
documents; a JSON document takes its kind and the echoed effective config
from the run's config.
"""
from __future__ import annotations

import csv
import json
import math
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from . import __version__, assembly
from .homogenize import CELL_RESOLUTION, cell_problem_2d, limit_of
from .linalg import EIG_TOL, cholesky, eig_smallest, prefix_failures, residuals
from .mesh import FeSpace, build_dirichlet_space, transfer
from .variational import (
    LIMINF_TOL,
    POINTS_PER_PERIOD,
    dirichlet_solve,
    dirichlet_solves,
    div_curl_test,
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
    rung_meshes: bool = True  # samples each h on its rung's mesh, else on the finest
    eigen: bool = False  # solves eigenproblems and reads eigen_count

    def reports(self, output: dict) -> dict:
        """Format -> file name of each report the kind writes: the name the
        config's ``output`` gives, else the default."""
        return {fmt: output[fmt] or default
                for fmt, default in zip(("csv", "json"), self.outputs) if default is not None}


EXPERIMENTS = {
    "eigen-homog": Experiment(
        "sweep-eigen", "eigenvalue sweep of an oscillating pencil vs its limit",
        ("family",), "run_eigen_homog", ("report.csv", "report.json"), ("potential",),
        eigen=True),
    "source-homog": Experiment(
        "sweep-source", "Dirichlet source sweep vs the homogenized solution",
        ("family", "source"), "run_source_homog", ("report.csv", "report.json")),
    "eigen-potential": Experiment(
        "sweep-potential", "spectral sweep of a perturbed operator K0 + V_h",
        ("potential",), "run_eigen_potential", ("report.csv", "report.json"), ("family",),
        eigen=True),
    "gamma": Experiment(
        "gamma-check", "envelope check of the limit and affine recovery trace",
        ("potential",), "run_gamma", ("recovery_trace.csv", "gamma.json"),
        rung_meshes=False),
    "divcurl": Experiment(
        "divcurl", "div-curl pairing trace and flux window averages",
        ("family", "source"), "run_divcurl", ("divcurl_trace.csv", "divcurl.json"),
        rung_meshes=False),
    "homogenize": Experiment(
        "homogenize", "compute the limit tensor of a coefficient family",
        ("family",), "run_homogenize", (None, "homogenize.json"), ladder=False),
}

# the fixed probes: edges of the 8 strips of the weak-convergence averages,
# support of the div-curl pairing bump, and u(x) = a x + b of the recovery
# trace as (a, b).  With points_per_period >= 16, every strip and the bump
# span two cells or more
WINDOW_EDGES = np.linspace(0.0, 1.0, 9)
PHI_SUPPORT = (0.25, 0.75)
AFFINE = (1.0, 0.0)


@dataclass(frozen=True, eq=False)
class ExperimentConfig:
    """One experiment run, as ``config.validate_config`` builds it from a config."""

    kind: str
    h_list: tuple
    points_per_period: int = POINTS_PER_PERIOD
    eigen_count: int = 3
    eig_tol: float = EIG_TOL
    seed: int = 0
    family: object = None          # these three: None when the config omits them
    potential: object = None
    source: object = None
    targets: int = 20
    cell_resolution: int = CELL_RESOLUTION
    echo: dict = field(default_factory=dict)


class Report:
    """What ``emit_report`` needs from every experiment report.

    A report is a dataclass; ``table``, for kinds that write a CSV, returns
    its header and rows.
    """

    # a numerical check that failed after the reports were complete
    failed_stage = None

    def body(self) -> dict:
        """The report's JSON fields."""
        return asdict(self)

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

    h_values: tuple
    records: list
    reference: np.ndarray
    reference_meta: dict
    rates: list = field(init=False)  # one fit_rate of the abs errors per mode
    first_k = 1  # the CSV's k of the first mode: eigenvalues count from 1

    def __post_init__(self):
        self.rates = [fit_rate(self.h_values, errs)
                      for errs in zip(*(rec.abs_errors for rec in self.records))]

    def table(self):
        """CSV header and rows: one row per h and mode k, from ``first_k``."""
        rows = [[rec.h, self.first_k + mode, rec.values[mode], self.reference[mode],
                 rec.abs_errors[mode], rec.rel_errors[mode]]
                for rec in self.records for mode in range(rec.values.shape[0])]
        return ["h", "k", "value", "reference", "abs_err", "rel_err"], rows

    def lines(self) -> list:
        return [f"  h={rec.h}: max rel err {float(np.max(rec.rel_errors)):.3e} "
                f"({rec.wall_clock:.3f}s)" for rec in self.records]


class SourceReport(SweepReport):
    """A source sweep, whose CSV's k=0 is the L2 distance to the reference."""

    first_k = 0


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
    """``mesh.transfer``'s P1 interpolation of u, a vector or an (n, k) block."""
    return transfer(space_from, space_to) @ u


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


def _finest(config: ExperimentConfig, dim: int) -> FeSpace:
    """Finest space of the ladder, where every reference lives."""
    return build_dirichlet_space(dim, config.points_per_period * max(config.h_list))


def _rung_space(config: ExperimentConfig, dim: int, h: int,
                space_ref: FeSpace) -> FeSpace:
    """Space of one rung; the top rung shares the finest space and its caches."""
    if h == max(config.h_list):
        return space_ref
    return build_dirichlet_space(dim, config.points_per_period * h)


def _eigen_sweep(config: ExperimentConfig) -> SweepReport:
    """Sweep of H_h = -div(A_h grad) + V_h against the run's ``Limit``.

    Without a family every rung has the limit's coefficient, the identity.
    Every operator is paired with the unit mass of its space.  The reference
    eigenpairs live on the finest space: the limit's ``spectrum`` where it
    answers, else an eigensolve of its ``pencil``.  Each rung's eigenvectors
    are interpolated there once; with no ``family`` they are also scored
    there as eigenpairs of the limit operator."""
    family, potential = config.family, config.potential
    limit = limit_of(family, potential)
    coefficient, A = family or limit.coefficient, limit.coefficient
    meta = {} if family is None else {"tensor": A.matrix, "provenance": A.provenance,
                                      "tensor_est_error": A.est_error}
    if potential is not None:
        meta["potential"] = potential.name

    k, tol = config.eigen_count, config.eig_tol
    space_ref = _finest(config, coefficient.dim)
    H_ref, M_ref = pencil = limit.pencil(space_ref)
    with prefix_failures("reference"):
        ref = limit.spectrum(space_ref, pencil, k) or eig_smallest(*pencil, k, tol=tol)
    records = []
    for h in config.h_list:
        t0 = time.perf_counter()
        space = _rung_space(config, coefficient.dim, h, space_ref)
        M = M_ref if space is space_ref else assembly.assemble_mass(space)
        K = assembly.assemble_operator(space, coefficient, potential, h)
        with prefix_failures(f"h={h}"):
            eig = eig_smallest(K, M, k, tol=tol)
        X = interpolate_between(space, eig.vectors, space_ref)
        vec_err = eigenvector_errors(X, ref.vectors, M_ref, ref.values)
        # contiguous columns: a strided column's dot products round differently
        limit_res = None if family else residuals(H_ref, M_ref, eig.values,
                                                  np.asfortranarray(X))
        abs_err = np.abs(eig.values - ref.values)
        records.append(SweepRecord(
            h=h, values=eig.values, abs_errors=abs_err,
            rel_errors=abs_err / np.abs(ref.values),
            residuals=eig.residuals, vector_errors=vec_err,
            limit_residuals=limit_res, wall_clock=time.perf_counter() - t0,
        ))
    meta["finest_cells"] = config.points_per_period * max(config.h_list)
    return SweepReport(config.h_list, records, ref.values, meta)


# two names of one sweep, each bound by its callers: defs, so a tracer wraps each once
def run_eigen_homog(config: ExperimentConfig) -> SweepReport:
    return _eigen_sweep(config)


def run_eigen_potential(config: ExperimentConfig) -> SweepReport:
    return _eigen_sweep(config)


def run_source_homog(config: ExperimentConfig) -> SweepReport:
    """Dirichlet source sweep: solutions against the homogenized solution.

    Record values hold the L2 distance to the reference (mode 0) followed by
    window averages of the first gradient component, the weak-H1 probes.
    """
    family, source = config.family, config.source
    limit = limit_of(family, source=source)
    space_ref = _finest(config, family.dim)
    M_ref = assembly.assemble_mass(space_ref)
    with prefix_failures("reference"):
        u_star = dirichlet_solve(space_ref, limit.coefficient, limit.source, 1)
    ref_norm = float(np.sqrt(u_star @ (M_ref @ u_star)))

    def probes(space, u):  # strip averages of the first gradient component
        grad = assembly.cell_gradients(space, u)[None, :, :1]
        return assembly.strip_averages(space, grad, WINDOW_EDGES)[:, 0]

    ref_probes = probes(space_ref, u_star)
    reference = np.concatenate([[0.0], ref_probes])
    records = []
    for h in config.h_list:
        t0 = time.perf_counter()
        space = _rung_space(config, family.dim, h, space_ref)
        with prefix_failures(f"h={h}"):
            u_h = dirichlet_solve(space, family, source, h)
        diff = interpolate_between(space, u_h, space_ref) - u_star
        l2_err = float(np.sqrt(max(diff @ (M_ref @ diff), 0.0)))
        values = np.concatenate([[l2_err], probes(space, u_h)])
        abs_err = np.abs(values - reference)
        rel = np.empty_like(abs_err)
        rel[0] = l2_err / (ref_norm or 1.0)  # as the probes: 1 where the reference is 0
        denom = np.where(np.abs(ref_probes) > 0, np.abs(ref_probes), 1.0)
        rel[1:] = abs_err[1:] / denom
        records.append(SweepRecord(h=h, values=values, abs_errors=abs_err,
                                   rel_errors=rel, wall_clock=time.perf_counter() - t0))
    meta = {"tensor": limit.coefficient.matrix, "provenance": limit.coefficient.provenance,
            "reference_l2_norm": ref_norm, "window_edges": WINDOW_EDGES}
    return SourceReport(config.h_list, records, reference, meta)


@dataclass(eq=False)
class GammaReport(Report):
    """Envelope check summary plus the affine recovery trace."""

    liminf_passed: int
    liminf_total: int
    liminf_margins: np.ndarray     # LIMINF_TOL - envelope gap, per target
    recovery: object               # PairingTrace

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
    """Compare the envelopes at the top rung with those of the declared limit
    at smooth random targets, and trace the affine recovery sequence."""
    space = _finest(config, 1)
    K0, M = limit_of().pencil(space)  # -Laplacian; the ladder brings V and each V_h
    ladder = potential_ladder(space, config.potential, config.h_list)
    # smooth and zero on the boundary; the gaps do not depend on their scale.
    # Solved in place by column: the targets budget is one (n, t) block
    targets = np.random.default_rng(config.seed).normal(size=(space.num_dofs, config.targets))
    solve = cholesky(K0).solve
    for j in range(config.targets):
        targets[:, j] = solve(targets[:, j])
    gaps = liminf_check(K0, M, ladder, targets)
    trace = recovery_check(space, K0, ladder, AFFINE)
    return GammaReport(int(np.count_nonzero(gaps <= LIMINF_TOL)), config.targets,
                       LIMINF_TOL - gaps, trace)


@dataclass(eq=False)
class DivCurlReport(Report):
    """Div-curl pairing trace plus flux window averages at the largest h."""

    trace: object                  # PairingTrace
    # h, the strip edges, the flux and reference averages per strip (W, dim)
    # and their distances (W,)
    flux_windows: dict
    envelope_prediction: float     # 1/h fit from the leading rungs at h_max

    def table(self):
        return self.trace.table()


def run_divcurl(config: ExperimentConfig) -> DivCurlReport:
    """Pair the discrete energy density against its homogenized limit, and
    average the flux A_h grad u_h at the largest h over the strips, against
    the homogenized flux on the same mesh: the weak limit of the flux."""
    h = max(config.h_list)
    solves = dirichlet_solves(config.family, config.source, config.points_per_period * h)
    trace = div_curl_test(config.family, config.h_list, config.source,
                          PHI_SUPPORT, solves=solves)
    space, limit, u = solves
    flux = window_flux(space, config.family, h, u(h), WINDOW_EDGES)
    ref = window_flux(space, limit, 1, u(None), WINDOW_EDGES)
    windows = {"h": int(h), "edges": WINDOW_EDGES, "flux_averages": flux,
               "reference_averages": ref, "abs_errors": np.linalg.norm(flux - ref, axis=1)}
    lead = min(3, len(config.h_list) - 1)
    hs = np.asarray(config.h_list[:lead], dtype=float)
    errs = np.asarray(trace.abs_errors[:lead])
    usable = errs > 0
    if np.count_nonzero(usable) >= 2:
        c = float(np.exp(np.mean(np.log(errs[usable]) + np.log(hs[usable]))))
        prediction = c / h
    else:
        prediction = float("nan")
    return DivCurlReport(trace, windows, prediction)


@dataclass(eq=False)
class HomogenizeReport(Report):
    """Limit tensor of a coefficient family.

    For a 2D family the tensor is the cell problem's, and the report adds
    the lamination formula's tensor it is checked against and the largest
    entry of their difference; no other report has these two fields.
    """

    family: str
    tensor: np.ndarray
    provenance: str
    est_error: float
    closed_form: np.ndarray | None = None
    closed_form_gap: float | None = None

    def body(self) -> dict:  # a field left None is not written
        return {key: value for key, value in asdict(self).items() if value is not None}

    def lines(self) -> list:
        if self.closed_form is None:
            return [str(self.tensor.tolist())]
        return [str(self.tensor.tolist()), f"  closed form {self.closed_form.tolist()}, "
                f"gap {self.closed_form_gap:.3e}"]


def run_homogenize(config: ExperimentConfig) -> HomogenizeReport:
    """Limit tensor of the configured family.

    A 1D family reports its oracle's tensor.  A 2D family solves its cell
    problem at ``cell_resolution``: the report's tensor is the cell
    problem's, checked against the oracle's lamination formula.
    """
    family, limit = config.family, limit_of(config.family).coefficient
    if family.dim == 1:
        return HomogenizeReport(family.name, limit.matrix, limit.provenance,
                                limit.est_error)
    cell = cell_problem_2d(family, config.cell_resolution)
    return HomogenizeReport(family.name, cell.matrix, cell.provenance, cell.est_error,
                            limit.matrix, float(np.max(np.abs(cell.matrix - limit.matrix))))


def emit_report(report: Report, fmt: str, path, config: ExperimentConfig) -> None:
    """Write the report of a run of ``config`` as its CSV table or as a JSON
    document.

    The JSON document is the config's kind, the tool version and the
    config's echo plus the report's body.  CSV floats carry 17 significant
    digits so reruns are byte-comparable.
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
        doc = {"kind": config.kind, "tool_version": __version__,
               "config": config.echo, **report.body()}
        with open(path, "w") as fh:
            json.dump(_jsonify(doc), fh, indent=2, sort_keys=True, allow_nan=False)
            fh.write("\n")
        return
    raise ValueError(f"unknown report format '{fmt}'")
