"""Quadratic-form diagnostics: envelope comparison, recovery traces, div-curl.

All the h-indexed diagnostics here run on one matched fine mesh sized for
the largest h in the ladder, so the discretization error is common mode
across the sweep and the traces isolate the convergence of the coefficient
or potential sequence itself.  Energies and fluxes scale ``grad u @ matrix`` by a_h.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np
from scipy import sparse

from . import assembly
from .families import PotentialFamily, SourceFamily
from .homogenize import limit_of
from .linalg import cholesky, prefix_failures
from .mesh import FeSpace, build_dirichlet_space

# weight mu of the Moreau-Yosida envelopes.  A larger mu brings e_h nearer
# F_h, so the gaps of a wrong limit and of a true one both grow.  Over the
# targets and ladder of LIMINF_TOL, at mu = 1, 10 and 100: least gap of
# sin2-potential declared 0.49, 1.2e-6, 9.1e-6 and 3.1e-5; worst gap of
# the true spike-potential [2], 7.0e-8, 4.3e-7 and 1.2e-6
YOSIDA_MU = 10.0
# largest relative envelope gap that passes.  Worst gaps over the 20
# targets of seed 7 at 32 points per period and h_max = 256 (the a7
# configs): true limits 1.4e-9 (sin2-potential), 4.3e-7 (spike-potential
# [2]) and 0 (const-potential [1]); declared limits 0.49, 0.001 and 0.99
# instead 4.7e-4, 5.0e-5 and 4.4e-4.  A short ladder fails as a wrong limit
# does: sin2-potential passes from h_max = 4 (4.0e-6; 5.8e-5 at 2) and
# spike-potential [2] from 128 (2.3e-6; 1.4e-5 at 64)
LIMINF_TOL = 1e-5
# mesh points per period: the config default, and div_curl_test's own mesh
POINTS_PER_PERIOD = 32


@dataclass(frozen=True, eq=False)
class QuadraticForm:
    """Energy u -> u'Hu of a symmetric operator H, such as K0 + V."""

    base: sparse.spmatrix


def form_eval(form: QuadraticForm, u: np.ndarray) -> float:
    """Evaluate the quadratic form; nonnegative for positive semidefinite H."""
    u = np.asarray(u, dtype=float)
    n = form.base.shape[0]
    if u.shape != (n,):
        raise ValueError(f"vector has shape {u.shape}, expected ({n},)")
    return float(u @ (form.base @ u))


def form_continuity_probe(form: QuadraticForm, u: np.ndarray,
                          v: np.ndarray) -> tuple[float, float]:
    """Continuity bound |F(u) - F(v)| <= ||H(u+v)|| ||u - v||.

    Returns (lhs, rhs); the inequality is asserted with slack 1e-12 relative
    before returning, since a violation means the form lost symmetry.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape != v.shape:
        raise ValueError("dimension mismatch in continuity probe")
    lhs = abs(form_eval(form, u) - form_eval(form, v))  # checks the dimension
    rhs = float(np.linalg.norm(form.base @ (u + v)) * np.linalg.norm(u - v))
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
    limit = assembly.assemble_mass(space, limit_of(potential=family).potential, 1)
    matrices = tuple(assembly.assemble_mass(space, family, h) for h in h_list)
    return PotentialLadder(np.asarray(h_list), limit, matrices)


def liminf_check(base: sparse.spmatrix, mass: sparse.spmatrix,
                 ladder: PotentialLadder, targets: np.ndarray) -> np.ndarray:
    """Relative gaps |e_hmax(u) - e(u)| / e(u) of Moreau-Yosida envelopes.

    For nonnegative quadratic forms, Gamma-convergence in L2 is convergence
    of the envelopes e_h(u) = min_v F_h(v) + mu ||v - u||_M^2 (Dal Maso,
    1993); for F(u) = u'Hu, e(u) = mu u'Mu - mu^2 (Mu)'(H + mu M)^-1 (Mu).
    F_h = u'(base + V_h)u at the top rung and the declared limit
    F = u'(base + V)u are compared at each column u of ``targets`` (n, t),
    through one ``cholesky`` factor of H + mu M each.  A target passes when
    its gap is at most ``LIMINF_TOL``.
    """
    U = np.asarray(targets, dtype=float)
    if U.ndim != 2 or U.shape[0] != base.shape[0]:
        raise ValueError(f"targets have shape {U.shape}, expected ({base.shape[0]}, t)")
    solvers = [cholesky(base + potential + YOSIDA_MU * mass).solve
               for potential in (ladder.limit, ladder.matrices[-1])]
    gaps = np.empty(U.shape[1])
    # by column: (n, t) temporaries took bench gamma1d-sin2's peak RSS 80.2 -> 82.1 MiB
    for j, u in enumerate(U.T):
        # BLAS sums a strided vector in another order than a contiguous one:
        # a contiguous column gives the same gaps for either layout of U
        u = np.ascontiguousarray(u)
        Mu = mass @ u
        e_limit, e_top = (YOSIDA_MU * (u @ Mu - YOSIDA_MU * (Mu @ solve(Mu)))
                          for solve in solvers)
        gaps[j] = abs(e_top - e_limit) / e_limit
    return gaps


def recovery_check(space: FeSpace, base: sparse.spmatrix,
                   ladder: PotentialLadder, u_affine) -> PairingTrace:
    """Energy trace along the constant recovery sequence u_h = u for affine u.

    ``u_affine`` is (a, b) for u(x) = a x + b, interpolated onto the space
    (Dirichlet spaces clamp the boundary values; the background energy is
    common to F_h and F, so the trace isolates the potential defect).  The
    trace |F_h(u) - F(u)| falls only to the clamp's floor, about delta / 3,
    which ``configs/a7_gamma_sin2.json`` reaches by h = 32, near 4e-5.
    """
    a, b = (float(u_affine[0]), float(u_affine[1]))
    u = space.interpolate(lambda p: a * p[:, 0] + b)
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

    return space.interpolate(lambda p: tent(p[:, 0]))


def dirichlet_solve(space: FeSpace, coefficient, source: SourceFamily,
                    h: int) -> np.ndarray:
    """u solving -div(A_h grad u) = f_h on a Dirichlet space: assemble, factor, solve."""
    K = assembly.assemble_stiffness(space, coefficient, h=h)
    return cholesky(K).solve(assembly.assemble_load(space, source, h))


def dirichlet_solves(family, source: SourceFamily, n: int) -> tuple:
    """(space, limit, u) on the n-cell Dirichlet space: ``limit`` is the
    coefficient of the run's ``Limit``, ``u(h)`` solves -div(A_h grad u) = f_h
    once per h and ``u(None)`` is u_star."""
    space = build_dirichlet_space(family.dim, n)
    limit = limit_of(family, source=source)

    @cache
    def u(h):
        fam, src, k = (family, source, h) if h else (limit.coefficient, limit.source, 1)
        with prefix_failures(f"h={h}" if h else "reference"):
            return dirichlet_solve(space, fam, src, k)

    return space, limit.coefficient, u


def _energy_pairing(space, family, h, u, phi):
    """integral( phi * (a_h matrix grad u . grad u) ) for P1 u and phi."""
    dofs, measure, _, pts, gw, phi_vals = space.cell_data()
    grad_u = assembly.cell_gradients(space, u)            # (nc, d)
    energy = np.einsum("cd,cd->c", grad_u @ family.matrix, grad_u)
    energy_density = family.values_at(h, pts) * energy    # (nq, nc)
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
    this problem and mesh) shares the solutions with the run's flux windows;
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


def window_flux(space, family, h, u, edges):
    """Per-strip averages of the flux a_h matrix grad u, binned by quadrature point."""
    a = family.values_at(h, space.cell_data().points)           # (nq, nc)
    flux = assembly.cell_gradients(space, u) @ family.matrix    # (nc, d)
    return assembly.strip_averages(space, a[..., None] * flux, edges)
