"""Homogenized limit tensors for the built-in coefficient families.

The limit of a 1D periodic family is the harmonic mean of its profile; in
2D the limit tensor is assembled from periodic cell problems: two corrector
solves on the unit cell with constant-nullspace deflation.  These oracles
make every convergence sweep checkable against an independent reference.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import assembly
from .families import CoefficientFamily, PiecewiseCoefficient, check_resolution
from .linalg import cholesky
from .mesh import PERIODIC, build_rect_mesh, build_space

CLOSED_FORM = "closed-form"
CELL_PROBLEM = "cell-problem"
MIN_QUAD_POINTS = 64


@dataclass(frozen=True, eq=False)
class HomogenizedTensor:
    """Symmetric limit tensor with provenance and an error estimate."""

    matrix: np.ndarray
    provenance: str
    est_error: float


def harmonic_mean_1d(profile, quad_points: int = 256) -> HomogenizedTensor:
    """Limit coefficient (integral of 1/a over one period)^-1 of a 1D profile.

    The error estimate comes from one quadrature refinement: the value is
    computed at ``quad_points`` and ``2 * quad_points`` subintervals and the
    finer value is returned.
    """
    if quad_points < MIN_QUAD_POINTS:
        raise ValueError(
            f"quad_points must be >= {MIN_QUAD_POINTS}, got {quad_points}")

    gq, gw = np.polynomial.legendre.leggauss(4)
    gq = 0.5 * (gq + 1.0)
    gw = 0.5 * gw

    def value(n):
        # composite 4-point Gauss rule on n subintervals of (0, 1)
        width = 1.0 / n
        offsets = np.arange(n) * width
        nodes = (offsets[:, None] + width * gq[None, :]).ravel()
        weights = np.tile(width * gw, n)
        a = np.asarray(profile(nodes), dtype=float)
        if np.any(a <= 0.0):
            raise ValueError("profile is not positive on the unit cell")
        return 1.0 / float(np.sum(weights / a))

    coarse = value(quad_points)
    fine = value(2 * quad_points)
    return HomogenizedTensor(np.array([[fine]]), CLOSED_FORM, abs(fine - coarse))


class _UnitCellField:
    """Adapter presenting a unit-cell matrix field as an assembly coefficient."""

    name = "unit-cell-profile"

    def __init__(self, field):
        self._field = field

    def feature_scale(self, h: int) -> float:
        return 1.0  # one period per unit cell

    def matrix_at(self, h: int, pts) -> np.ndarray:
        pts = np.asarray(pts, dtype=float)
        out = np.asarray(self._field(pts), dtype=float)
        if out.shape == pts.shape[:-1]:
            eye = np.eye(2)
            out = out[..., None, None] * eye
        return out


def cell_problem_2d(profile, cell_resolution: int = 64) -> HomogenizedTensor:
    """Effective 2x2 tensor of a 1-periodic coefficient field on the unit cell.

    Solves the two corrector problems div(A(y)(e_i + grad chi_i)) = 0 on the
    periodic cell space.  The singular constant direction is deflated by
    grounding one dof for the SPD solve and projecting the mean out of each
    corrector afterwards.  ``profile`` maps points (..., 2) to scalars
    (isotropic a(y) I) or to (..., 2, 2) matrices; a 2D coefficient family
    may be passed directly (its unit-cell field at h = 1 is used).

    The error estimate is a Richardson difference against a companion solve
    at half resolution (nan when the resolution is too small to halve).
    """
    if isinstance(profile, CoefficientFamily):
        if profile.dim != 2:
            raise ValueError("cell_problem_2d needs a 2D family")
        field = _UnitCellField(lambda pts: profile.matrix_at(1, pts))
    else:
        field = _UnitCellField(profile)
    check_resolution(1.0, 1.0 / cell_resolution,
                     f"cell_problem_2d(resolution={cell_resolution})")

    def solve_at(res):
        mesh = build_rect_mesh(res, res, (0.0, 1.0, 0.0, 1.0))
        space = build_space(mesh, PERIODIC)
        K = assembly.assemble_stiffness(space, field, h=1)
        M = assembly.assemble_mass(space)
        n = space.num_dofs
        keep = np.arange(1, n)
        K_red = K[keep][:, keep].tocsc()
        factor = cholesky(K_red)

        dofs, measure, grads, pts, gw, _ = space.cell_data(2)
        A = field.matrix_at(1, pts)                          # (nq, nc, 2, 2)
        Abar = np.einsum("q,qcij->cij", gw, A)               # cell averages of A
        ones = np.ones(n)
        mass_total = float(ones @ (M @ ones))

        eff = np.zeros((2, 2))
        for j in range(2):
            ej = np.zeros(2)
            ej[j] = 1.0
            # rhs[i] = -integral( A e_j . grad phi_i )
            Aej = Abar @ ej                                  # (nc, 2)
            local = -np.einsum("cd,cid->ci", Aej, grads) * measure[:, None]
            b = np.zeros(n)
            valid = dofs >= 0
            np.add.at(b, dofs[valid], local[valid])
            chi = np.zeros(n)
            chi[keep] = factor.solve(b[keep])
            chi -= (ones @ (M @ chi)) / mass_total
            grad_chi = assembly.cell_gradients(space, chi)   # (nc, 2)
            flux = np.einsum("cde,ce->cd", Abar, ej + grad_chi)
            eff[:, j] = np.einsum("cd,c->d", flux, measure)
        return 0.5 * (eff + eff.T)

    eff = solve_at(cell_resolution)
    if cell_resolution >= 32 and cell_resolution % 2 == 0:
        coarse = solve_at(cell_resolution // 2)
        est = float(np.max(np.abs(eff - coarse)))
    else:
        est = float("nan")
    return HomogenizedTensor(eff, CELL_PROBLEM, est)


def homogenized_tensor(family: CoefficientFamily, *, quad_points: int = 512,
                       cell_resolution: int = 64) -> HomogenizedTensor:
    """Dispatch a coefficient family to its limit oracle.

    1D families use the harmonic mean of their unit profile, 2D families the
    periodic cell problem.
    """
    if family.dim == 1:
        return harmonic_mean_1d(family.unit_profile, quad_points)
    return cell_problem_2d(family, cell_resolution)


def locality_check(family: PiecewiseCoefficient, subdomain,
                   **oracle_kwargs) -> HomogenizedTensor:
    """Limit tensor on one subdomain of a piecewise family.

    The limit of a piecewise composition restricted to a subdomain equals
    the limit of the standalone family living there, so the returned tensor
    is the standalone oracle of the matching piece.  Raises when the
    subdomain matches no piece.
    """
    if not isinstance(family, PiecewiseCoefficient):
        raise TypeError("locality_check needs a piecewise family")
    a, b = float(subdomain[0]), float(subdomain[1])
    for (x0, x1), piece in family.pieces:
        if abs(x0 - a) <= 1e-12 and abs(x1 - b) <= 1e-12:
            return homogenized_tensor(piece, **oracle_kwargs)
    raise ValueError(f"no piece matches subdomain [{a}, {b}]")

