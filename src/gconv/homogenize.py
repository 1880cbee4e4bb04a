"""Homogenized limit coefficients for the built-in coefficient families.

The G-limit of -div(A_h grad) is -div(A* grad) with a constant tensor A*,
returned as a ``ConstantMatrixCoefficient`` that assembly reads directly.
The limit of a 1D periodic family is the harmonic mean of its profile; in
2D the limit tensor is assembled from periodic cell problems: two corrector
solves on the unit cell, by CG preconditioned with a factored half-resolution
companion.  These oracles make every convergence sweep checkable against an
independent reference.
"""
from __future__ import annotations

import numpy as np
from scipy import sparse

from . import assembly
from .families import (
    CoefficientFamily,
    ConstantMatrixCoefficient,
    PiecewiseCoefficient,
    check_resolution,
)
from .linalg import ConvergenceError, cholesky
from .mesh import PERIODIC, QUADRATURE, build_rect_mesh, build_space

CLOSED_FORM = "closed-form"
CELL_PROBLEM = "cell-problem"
MIN_QUAD_POINTS = 64
CG_RTOL = 1e-12      # full-resolution corrector solves: relative residual
CG_MAXITER = 500     # and the step budget


def harmonic_mean_1d(profile, quad_points: int = 512) -> ConstantMatrixCoefficient:
    """Limit coefficient (integral of 1/a over one period)^-1 of a 1D profile.

    ``profile`` reads points (..., 1), as a family's ``unit_profile`` does.
    The error estimate comes from one quadrature refinement: the value is
    computed at ``quad_points`` and ``2 * quad_points`` subintervals and the
    finer value is returned.
    """
    if quad_points < MIN_QUAD_POINTS:
        raise ValueError(
            f"quad_points must be >= {MIN_QUAD_POINTS}, got {quad_points}")

    ref, gw = QUADRATURE[1]
    gq = ref[:, 0]

    def value(n):
        # composite 4-point Gauss rule on n subintervals of (0, 1)
        width = 1.0 / n
        offsets = np.arange(n) * width
        nodes = (offsets[:, None] + width * gq[None, :]).ravel()
        weights = np.tile(width * gw, n)
        a = np.asarray(profile(nodes[:, None]), dtype=float)
        if a.shape != nodes.shape:  # (n, 1) would broadcast against the weights
            raise ValueError(f"profile maps points (n, 1) to shape {a.shape}, not (n,)")
        if np.any(a <= 0.0):
            raise ValueError("profile is not positive on the unit cell")
        return 1.0 / float(np.sum(weights / a))

    coarse = value(quad_points)
    fine = value(2 * quad_points)
    return ConstantMatrixCoefficient(np.array([[fine]]), CLOSED_FORM, abs(fine - coarse))


def _prolongation(res: int) -> sparse.csr_matrix:
    """Periodic P1 prolongation from the res/2 to the res grid: the meshes nest,
    so fine node (i, j) averages coarse (i, j) // 2 and (i + 1, j + 1) // 2."""
    m = res // 2
    i, j = np.divmod(np.tile(np.arange(res * res), 2), res)
    shift = np.repeat([0, 1], res * res)
    cols = ((i + shift) // 2 % m) * m + (j + shift) // 2 % m
    return sparse.csr_matrix((np.full(i.size, 0.5), (i * res + j, cols)))


def cell_problem_2d(profile, cell_resolution: int) -> ConstantMatrixCoefficient:
    """Effective 2x2 tensor of a 1-periodic coefficient field on the unit cell.

    Solves the corrector problems div(A(y)(e_i + grad chi_i)) = 0 on the
    periodic cell space.  ``profile`` is a 2D coefficient family, or a
    callable mapping points (..., 2) to a(y), taken as the family a(y) I.

    An even resolution >= 32 first solves a half-resolution companion by its
    factor (one dof grounded); the tensors' difference is the error estimate,
    nan without a companion.  The full-resolution correctors are solved by CG
    on the singular stiffness, preconditioned by a two-grid cycle on that
    factor; no fine dof is grounded and no mean is taken out of chi, as the
    tensor reads only grad chi.  CG short of ``CG_RTOL`` raises ConvergenceError.
    """
    family = profile if isinstance(profile, CoefficientFamily) else CoefficientFamily(
        "unit-cell-profile", 2, float("nan"), float("nan"), profile, 1.0)
    if family.dim != 2:
        raise ValueError("cell_problem_2d needs a 2D family")
    context = f"cell_problem_2d(resolution={cell_resolution})"
    check_resolution(1.0, 1.0 / cell_resolution, context)

    def level(res):  # periodic stiffness, corrector right-hand sides, tensor map
        space = build_space(build_rect_mesh(res, res), PERIODIC)
        dofs, measure, grads = space.cell_data()[:3]
        # the level's one sampling of the field, read by the stiffness, the
        # right-hand sides and the tensor map; the samples go with this call
        Abar = assembly.cell_means(space, family)
        K = assembly.assemble_stiffness(space, family, means=Abar)
        # rhs[i, j] = -integral( A e_j . grad phi_i ); batched matmul beats einsum
        local = -(grads @ Abar) * measure[:, None, None]
        b = np.column_stack([np.bincount(dofs.ravel(), local[..., j].ravel(),
                                         space.num_dofs) for j in range(2)])
        b -= b.mean(axis=0)  # zero up to round-off; exactly zero keeps CG consistent

        def tensor(chi):  # symmetrized integral of A (I + grad chi), chi (n, 2)
            grad_chi = grads.transpose(0, 2, 1) @ chi[dofs]      # (nc, 2, 2)
            eff = np.tensordot(measure, Abar @ (np.eye(2) + grad_chi), axes=1)
            return 0.5 * (eff + eff.T)

        return K, b, tensor

    refine = cell_resolution >= 32 and cell_resolution % 2 == 0
    Kc, bc, tensor_c = level(cell_resolution // 2 if refine else cell_resolution)
    factor = cholesky(Kc[1:, 1:].tocsc())

    def coarse_solve(r):  # dof 0 grounded
        return np.insert(factor.solve(r[1:]), 0, 0.0, axis=0)

    eff_c = tensor_c(coarse_solve(bc))
    if not refine:
        return ConstantMatrixCoefficient(eff_c, CELL_PROBLEM, float("nan"))
    del Kc, bc, tensor_c  # only the companion's factor is read from here on

    K, b, tensor = level(cell_resolution)
    P = _prolongation(cell_resolution)
    jacobi = (2.0 / 3.0) / K.diagonal()

    def two_grid(r):
        r = r - r.mean()  # as for b: CG's recurred residual drifts off mean zero
        x = jacobi * r
        x += P @ coarse_solve(P.T @ (r - K @ x))
        return x + jacobi * (r - K @ x)

    chi = np.zeros_like(b)
    for j in range(2):  # CG preconditioned by two_grid; a breakdown stops it
        r = b[:, j].copy()
        p = z = two_grid(r)
        rz, bnorm, step = r @ z, np.linalg.norm(r), 0
        while np.linalg.norm(r) > CG_RTOL * bnorm and rz > 0 and step < CG_MAXITER:
            step += 1
            q = K @ p
            alpha = rz / (p @ q)
            chi[:, j] += alpha * p
            r -= alpha * q
            z = two_grid(r)
            rz, rz_old = r @ z, rz
            p = z + (rz / rz_old) * p
        rel = np.linalg.norm(r) / (bnorm or 1.0)
        if rel > CG_RTOL:
            raise ConvergenceError(
                f"{context}: corrector {j} CG stopped at step {step}, relative "
                f"residual {rel:.3e} > {CG_RTOL:.1e}", "cell problem")
    eff = tensor(chi)
    return ConstantMatrixCoefficient(eff, CELL_PROBLEM, float(np.max(np.abs(eff - eff_c))))


def homogenized_tensor(family: CoefficientFamily, *,
                       cell_resolution: int = 64) -> ConstantMatrixCoefficient:
    """Dispatch a coefficient family to its limit oracle.

    1D families use the harmonic mean of their unit profile, 2D families the
    periodic cell problem.
    """
    if family.dim == 1:
        return harmonic_mean_1d(family.unit_profile)
    return cell_problem_2d(family, cell_resolution)


def locality_check(family: PiecewiseCoefficient, subdomain) -> ConstantMatrixCoefficient:
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
            return homogenized_tensor(piece)
    raise ValueError(f"no piece matches subdomain [{a}, {b}]")

