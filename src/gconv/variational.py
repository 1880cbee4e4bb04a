"""Quadratic-form diagnostics: liminf sampling, recovery traces, div-curl.

All the h-indexed diagnostics here run on one matched fine mesh sized for
the largest h in the ladder, so the discretization error is common mode
across the sweep and the traces isolate the convergence of the coefficient
or potential sequence itself.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np
from scipy import sparse

from . import assembly
from .families import PotentialFamily, SourceFamily
from .homogenize import homogenized_tensor
from .linalg import cholesky
from .mesh import FeSpace, build_dirichlet_space

# relative slack of the liminf inequality: round-off in the sampled energies
LIMINF_SLACK = 1e-8
# mesh points per period of div_curl_test's own matched mesh
POINTS_PER_PERIOD = 32


@dataclass(frozen=True, eq=False)
class QuadraticForm:
    """Energy u -> u'(K0 + V)u of a background operator plus a potential."""

    base: sparse.spmatrix
    potential: sparse.spmatrix | None = None

    @property
    def n(self) -> int:
        return self.base.shape[0]

    def apply(self, u: np.ndarray) -> np.ndarray:
        out = self.base @ u
        if self.potential is not None:
            out = out + self.potential @ u
        return out


def form_eval(form: QuadraticForm, u: np.ndarray) -> float:
    """Evaluate the quadratic form; nonnegative for SPD base and V >= 0."""
    u = np.asarray(u, dtype=float)
    if u.shape != (form.n,):
        raise ValueError(f"vector has shape {u.shape}, expected ({form.n},)")
    return float(u @ form.apply(u))


def form_continuity_probe(form: QuadraticForm, u: np.ndarray,
                          v: np.ndarray) -> tuple[float, float]:
    """Continuity bound |F(u) - F(v)| <= ||H(u+v)|| ||u - v||.

    Returns (lhs, rhs); the inequality is asserted with slack 1e-12 relative
    before returning, since a violation means the form lost symmetry.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape != (form.n,) or v.shape != (form.n,):
        raise ValueError("dimension mismatch in continuity probe")
    lhs = abs(form_eval(form, u) - form_eval(form, v))
    rhs = float(np.linalg.norm(form.apply(u + v)) * np.linalg.norm(u - v))
    if lhs > rhs + 1e-12 * max(1.0, lhs):
        raise AssertionError(f"continuity bound violated: {lhs} > {rhs}")
    return lhs, rhs


@dataclass(frozen=True, eq=False)
class PairingTrace:
    """Values of an h-indexed pairing with its limit and absolute errors."""

    h_values: np.ndarray
    values: np.ndarray
    limit: float
    abs_errors: np.ndarray

    def table(self):
        """CSV header and rows: one row per h."""
        return (["h", "value", "limit", "abs_error"],
                [[int(h), v, self.limit, e]
                 for h, v, e in zip(self.h_values, self.values, self.abs_errors)])


def _trace(h_values, values, limit) -> PairingTrace:
    h_values = np.asarray(h_values, dtype=int)
    values = np.asarray(values, dtype=float)
    return PairingTrace(h_values, values, float(limit),
                        np.abs(values - float(limit)))


@dataclass(frozen=True, eq=False)
class PotentialLadder:
    """Limit potential matrix V and V_h per ``h_values`` entry, on one space."""

    h_values: np.ndarray
    limit: sparse.csr_matrix
    matrices: tuple


def potential_ladder(space: FeSpace, family: PotentialFamily, h_list) -> PotentialLadder:
    """Assemble the limit potential and each V_h of an ascending ladder once."""
    h_list = [int(h) for h in h_list]
    if sorted(h_list) != h_list:
        raise ValueError("h_list must be ascending")
    limit = assembly.assemble_mass(space, family.limit_family(), 1)
    matrices = tuple(assembly.assemble_mass(space, family, h) for h in h_list)
    return PotentialLadder(np.asarray(h_list), limit, matrices)


@dataclass(frozen=True, eq=False)
class LiminfReport:
    """Sampled lower-semicontinuity check along randomly perturbed sequences.

    For each h the perturbed energy is reported together with a computable
    vanishing envelope: the Cauchy-Schwarz bound on the perturbation cross
    term plus the potential pairing defect |u'(V_h - V)u| at the target.
    The check passes when the limit energy stays below every tail value
    plus its envelope, within ``LIMINF_SLACK``: when ``margin`` is nonnegative.
    """

    h_values: np.ndarray
    energies: np.ndarray       # F_h(u_h) along the perturbed sequence
    envelopes: np.ndarray      # vanishing bound per h
    limit_value: float         # F(u) with the limit potential
    tail_min: float            # min over the tail of energies + envelopes
    margin: float              # tail_min + LIMINF_SLACK * max(1, |F(u)|) - F(u)
    passed: bool


def liminf_check(space: FeSpace, base: sparse.spmatrix,
                 ladder: PotentialLadder, u_target: np.ndarray,
                 perturbation_scale: float, seed: int) -> LiminfReport:
    """Probe the liminf inequality F(u) <= liminf F_h(u_h) at one target.

    The sequence u_h = u + scale * (1/h) * r_h / ||r_h|| converges to u in
    L2; r_h is drawn per h from a seeded generator.  Potentials V_h >= 0
    keep the quadratic perturbation term nonnegative, so the one-sided
    envelope only needs the cross term and the pairing defect.
    """
    u = np.asarray(u_target, dtype=float)
    n = space.num_dofs
    if u.shape != (n,):
        raise ValueError(f"target has shape {u.shape}, expected ({n},)")
    rng = np.random.default_rng(seed)
    limit_pairing = float(u @ (ladder.limit @ u))
    limit_value = float(u @ (base @ u)) + limit_pairing
    h_values = ladder.h_values
    energies = np.empty(len(h_values))
    envelopes = np.empty(len(h_values))
    for i, (h, vmat) in enumerate(zip(h_values, ladder.matrices)):
        form = QuadraticForm(base, vmat)
        r = rng.normal(size=n)
        r /= np.linalg.norm(r)
        s = perturbation_scale / int(h)
        u_h = u + s * r
        energies[i] = form_eval(form, u_h)
        cross = 2.0 * s * float(np.linalg.norm(form.apply(u)))
        defect = abs(float(u @ (vmat @ u)) - limit_pairing)
        envelopes[i] = cross + defect
    tail = slice(len(h_values) // 2, None)
    tail_min = float(np.min(energies[tail] + envelopes[tail]))
    margin = tail_min + LIMINF_SLACK * max(1.0, abs(limit_value)) - limit_value
    return LiminfReport(h_values, energies, envelopes, limit_value, tail_min,
                        margin, margin >= 0.0)


def recovery_check(space: FeSpace, base: sparse.spmatrix,
                   ladder: PotentialLadder, u_affine) -> PairingTrace:
    """Energy trace along the constant recovery sequence u_h = u for affine u.

    ``u_affine`` is (a, b) for u(x) = a x + b, interpolated onto the space
    (Dirichlet spaces clamp the boundary values; the background energy is
    common to F_h and F, so the trace isolates the potential defect).  The
    trace |F_h(u) - F(u)| over the ladder must decay toward zero.
    """
    a, b = (float(u_affine[0]), float(u_affine[1]))
    u = space.interpolate(lambda x, *_: a * x + b)
    f_limit = float(u @ (base @ u) + u @ (ladder.limit @ u))
    values = [float(u @ (base @ u) + u @ (vmat @ u)) for vmat in ladder.matrices]
    return _trace(ladder.h_values, values, f_limit)


def interpolate_bump(space: FeSpace, support) -> np.ndarray:
    """P1 tent profile supported on an interval of the first coordinate."""
    x0, x1 = float(support[0]), float(support[1])
    if not x1 > x0:
        raise ValueError(f"degenerate bump support [{x0}, {x1}]")
    mid = 0.5 * (x0 + x1)

    def tent(x):
        x = np.asarray(x, dtype=float)
        up = (x - x0) / (mid - x0)
        down = (x1 - x) / (x1 - mid)
        return np.clip(np.minimum(up, down), 0.0, None)

    return space.interpolate(lambda x, *_: tent(x))


def dirichlet_solve(space: FeSpace, coefficient, source: SourceFamily,
                    h: int) -> np.ndarray:
    """u solving -div(A_h grad u) = f_h on a Dirichlet space: assemble, factor, solve."""
    K = assembly.assemble_stiffness(space, coefficient, h=h)
    return cholesky(K).solve(assembly.assemble_load(space, source, h))


def dirichlet_solves(family, source: SourceFamily, n: int, limit=None) -> tuple:
    """(space, limit, u) on the n-cell Dirichlet space: ``limit`` is the limit
    coefficient (the family's oracle by default), ``u(h)`` solves
    -div(A_h grad u) = f_h once per h and ``u(None)`` is u_star."""
    space = build_dirichlet_space(family.dim, n)
    if limit is None:
        limit = homogenized_tensor(family)

    @cache
    def u(h):
        fam, src, k = (family, source, h) if h else (limit, source.limit_family(), 1)
        return dirichlet_solve(space, fam, src, k)

    return space, limit, u


def _energy_pairing(space, family, h, u, phi):
    """integral( phi * (A_h grad u . grad u) ) for P1 u and phi."""
    dofs, measure, _, pts, gw, phi_vals = space.cell_data()
    grad_u = assembly.cell_gradients(space, u)            # (nc, d)
    A = family.matrix_at(h, pts)                          # (nq, nc, d, d)
    energy_density = np.einsum("qcde,ce,cd->qc", A, grad_u, grad_u)
    phic = np.where(dofs >= 0, np.asarray(phi)[np.clip(dofs, 0, None)], 0.0)
    phi_at_q = np.einsum("ci,qi->qc", phic, phi_vals)
    return float(np.einsum("q,qc,qc,c->", gw, phi_at_q, energy_density, measure))


def div_curl_test(coeff_family, h_list, source: SourceFamily, phi_support,
                  solves: tuple | None = None) -> PairingTrace:
    """Pairing trace integral(phi * (A_h grad u_h . grad u_h)) over an h ladder.

    For each h the Dirichlet problem is solved on the matched fine mesh and
    the energy density is paired against a fixed P1 bump phi; the limit is
    the same pairing built from the homogenized solution on the same mesh.
    The trace errors must decay like 1/h.  ``solves`` (``dirichlet_solves`` of
    this problem and mesh) shares the solutions with ``flux_weak_limit``;
    without it the mesh has ``POINTS_PER_PERIOD`` points per period of the
    largest h.
    """
    h_list = [int(h) for h in h_list]
    space, limit, u = solves or dirichlet_solves(
        coeff_family, source, POINTS_PER_PERIOD * max(h_list))
    phi = interpolate_bump(space, phi_support)
    limit_pairing = _energy_pairing(space, limit, 1, u(None), phi)
    values = [_energy_pairing(space, coeff_family, h, u(h), phi) for h in h_list]
    return _trace(h_list, values, limit_pairing)


@dataclass(frozen=True, eq=False)
class FluxWindowReport:
    """Window averages of the discrete flux against the homogenized flux."""

    h: int
    edges: np.ndarray              # (W + 1,)
    flux_averages: np.ndarray      # (W, dim)
    reference_averages: np.ndarray
    abs_errors: np.ndarray         # (W,)


def flux_weak_limit(coeff_family, h: int, window_count: int,
                    solves: tuple) -> FluxWindowReport:
    """Window averages of the flux A_h grad u_h over strips of the domain.

    Weak convergence of the flux is tested against window indicators: as h
    grows the averages approach those of A grad u_star computed from the
    homogenized tensor on the same mesh.  Windows are strips in the first
    coordinate.  ``solves`` is ``dirichlet_solves`` of the problem, whose
    ``u(h)`` and ``u(None)`` are read.
    """
    space, limit, u = solves
    edges = np.linspace(0.0, 1.0, window_count + 1)
    flux = window_flux(space, coeff_family, h, u(h), edges)
    ref = window_flux(space, limit, 1, u(None), edges)
    err = np.linalg.norm(flux - ref, axis=1)
    return FluxWindowReport(int(h), edges, flux, ref, err)


def window_flux(space, family, h, u, edges):
    """Per-strip averages of A_h grad u, binned by quadrature point; with the
    identity coefficient, of grad u (the weak-H1 probes of the source sweep)."""
    grad_u = assembly.cell_gradients(space, u)                  # (nc, d)
    A = family.matrix_at(h, space.cell_data().points)           # (nq, nc, d, d)
    flux_q = np.einsum("qcde,ce->qcd", A, grad_u)               # (nq, nc, d)
    return assembly.strip_averages(space, flux_q, edges)
