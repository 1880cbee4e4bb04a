"""Homogenized limit coefficients for the built-in coefficient families.

The G-limit of -div(A_h grad) is -div(A* grad) with a constant tensor A*,
returned as a ``ConstantMatrixCoefficient`` that assembly reads directly.
Every family the program builds is a laminate, whose profile reads only
its first coordinate, so its limit is in closed form: the lamination
formula, the harmonic mean of the profile across the layers and the
arithmetic mean along them, which in 1D is the harmonic mean alone.  The
2D periodic cell problem, two corrector solves K chi = b on the unit cell
by CG preconditioned with a half-resolution companion that ``cholesky``
solves, gives A* of any 2D field as the symmetric part of
integral(A) - b^T chi - chi^T (b - K chi); ``homogenize`` runs it on a 2D
laminate as a check on the formula, and there the companion takes the
layered backend's transform, not a SuperLU factor.  These
oracles make every convergence sweep checkable against an independent
reference: ``limit_of`` builds the one ``Limit`` every runner takes it from.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import assembly
from .families import (
    CoefficientFamily,
    ConstantMatrixCoefficient,
    PiecewiseCoefficient,
    check_resolution,
)
from .linalg import ConvergenceError, EigenResult, cholesky, prefix_failures, residuals
from .mesh import DIRICHLET, PERIODIC, QUADRATURE, build_rect_mesh, build_space, transfer

CLOSED_FORM = "closed-form"
CELL_PROBLEM = "cell-problem"
MIN_QUAD_POINTS = 64
CG_RTOL = 1e-12      # full-resolution corrector solves: relative residual
CG_MAXITER = 500     # and the step budget
CELL_RESOLUTION = 128  # default unit-cell resolution of the 2D cell problem


def lamination_formula(profile, dim: int, quad_points: int = 512) -> ConstantMatrixCoefficient:
    """Limit tensor harm(a) e1 e1^T + arith(a) (I - e1 e1^T) of a laminate.

    ``profile`` reads points (..., dim), as a family's ``unit_profile`` does,
    and only their first coordinate.  Across the layers the limit is the
    harmonic mean of a over one period, (integral of 1/a)^-1, and along them
    the arithmetic mean (Milton 2002, ch. 9; Allaire 2002, ch. 2); in 1D it
    is the harmonic mean alone.  Both means come from one pass of a composite
    ``QUADRATURE[1]`` rule, at ``quad_points`` and at ``2 * quad_points``
    subintervals: the finer tensor is returned, and the largest change of an
    entry is the error estimate.
    """
    if quad_points < MIN_QUAD_POINTS:
        raise ValueError(
            f"quad_points must be >= {MIN_QUAD_POINTS}, got {quad_points}")

    ref, gw = QUADRATURE[1]
    gq = ref[:, 0]

    def tensor(n):
        # composite 4-point Gauss rule on n subintervals of (0, 1), on the first axis
        width = 1.0 / n
        offsets = np.arange(n) * width
        nodes = (offsets[:, None] + width * gq[None, :]).ravel()
        weights = np.tile(width * gw, n)
        points = np.zeros((nodes.size, dim))
        points[:, 0] = nodes
        a = np.asarray(profile(points), dtype=float)
        if a.shape != nodes.shape:  # (n, 1) would broadcast against the weights
            raise ValueError(f"profile maps points (n, {dim}) to shape {a.shape}, not (n,)")
        if np.any(a <= 0.0):
            raise ValueError("profile is not positive on the unit cell")
        across = 1.0 / float(np.sum(weights / a))
        if dim == 1:
            return np.array([[across]])
        return np.diag([across] + [float(np.sum(weights * a))] * (dim - 1))

    coarse = tensor(quad_points)
    fine = tensor(2 * quad_points)
    return ConstantMatrixCoefficient(fine, CLOSED_FORM, float(np.max(np.abs(fine - coarse))))


def harmonic_mean_1d(profile, quad_points: int = 512) -> ConstantMatrixCoefficient:
    """Limit coefficient (integral of 1/a over one period)^-1 of a 1D profile:
    the lamination formula in 1D."""
    return lamination_formula(profile, 1, quad_points)


def _by_edges(K, x: np.ndarray) -> np.ndarray:
    """K x for a CSR K, formed by edges: sum_j K_ij (x_j - x_i) plus the row sum
    times x_i.  A constant part of x, which the stored row sums nearly cancel,
    then costs no more rounding than its variation."""
    counts, starts = np.diff(K.indptr), K.indptr[:-1]
    rowsum = np.add.reduceat(K.data, starts)
    out = np.empty_like(x)
    for j in range(x.shape[1]):  # one column at a time: nnz-sized transients
        c = x[:, j]
        out[:, j] = np.add.reduceat(K.data * (c[K.indices] - np.repeat(c, counts)), starts)
        out[:, j] += rowsum * c
    return out


def cell_problem_2d(profile, cell_resolution: int) -> ConstantMatrixCoefficient:
    """Effective 2x2 tensor of a 1-periodic coefficient field on the unit cell.

    Solves the corrector problems div(A(y)(e_i + grad chi_i)) = 0 on the
    periodic cell space, K chi = b, and returns the symmetric part of
    integral(A (I + grad chi)) = integral(A) - b^T chi (Jikov, Kozlov &
    Oleinik 1994, ch. 1), less chi^T r for the residual r = b - K chi, which
    makes the tensor's error second order in chi's: r is formed by edges
    (``_by_edges``), so chi's constant part costs it no digits.  ``profile``
    is a 2D coefficient family, or a callable mapping points (..., 2) to
    a(y), taken as the family a(y) I.

    An even resolution >= 32 also solves a half-resolution companion through
    ``cholesky`` (one dof grounded); the tensors' difference is the error
    estimate, nan without a companion.  A laminate's companion on a grid whose
    step is a power of two takes the layered backend, a real DFT along the
    layers and stacked tridiagonal solves across them; any other goes to
    SuperLU.  The full-resolution correctors are solved by CG on the singular
    stiffness, preconditioned by a two-grid cycle on that companion solve; no
    fine dof is grounded and no mean is taken out of chi, as b has mean zero.
    CG short of ``CG_RTOL`` raises ConvergenceError.

    Each grid is built once.  The fine level comes first, then the
    prolongation P from the companion's grid onto the fine space, which is
    released before the companion level and its factor, so no level's
    transients (its pattern build above all) stack on each other.  The peak
    is the fine stiffness's assembly; a SuperLU factor of a companion at 256^2
    and more can pass it.
    """
    family = profile if isinstance(profile, CoefficientFamily) else CoefficientFamily(
        "unit-cell-profile", 2, float("nan"), float("nan"), profile, 1.0)
    if family.dim != 2:
        raise ValueError("cell_problem_2d needs a 2D family")
    context = f"cell_problem_2d(resolution={cell_resolution})"
    check_resolution(1.0, 1.0 / cell_resolution, context)

    def grid(res):
        return build_space(build_rect_mesh(res, res), PERIODIC)

    def level(space):  # periodic stiffness, corrector right-hand sides, integral of A
        dofs, measure, grads = space.cell_data()[:3]
        # the level's one sampling of a, for the stiffness and the right-hand sides
        mean = assembly.cell_means(space, family)
        K = assembly.assemble_stiffness(space, family, means=mean)
        # b[i, j] = -integral( a e_j . grad phi_i ), as A = a I
        local = -grads * (mean * measure)[:, None, None]
        b = np.column_stack([np.bincount(dofs.ravel(), local[..., j].ravel(),
                                         space.num_dofs) for j in range(2)])
        b -= b.mean(axis=0)  # zero up to round-off; exactly zero keeps CG consistent
        return K, b, (mean @ measure) * np.eye(2)

    def tensor(K, b, integral, chi):
        # b[:, j] . chi[:, k] = -integral(A grad chi_k . e_j); less chi^T r, the
        # tensor's error is second order in chi's, (chi - K^+ b)^T K (chi - K^+ b)
        r = b - _by_edges(K, chi)
        eff = integral - b.T @ chi - chi.T @ r
        return 0.5 * (eff + eff.T)

    refine = cell_resolution >= 32 and cell_resolution % 2 == 0
    coarse = cell_resolution // 2 if refine else cell_resolution
    space = grid(cell_resolution)
    if refine:
        K, b, integral = level(space)
        fine, space = space, grid(coarse)
        P = transfer(space, fine)
        del fine  # its cell data and pattern go before the companion's are built
    Kc, bc, integral_c = level(space)
    del space  # the companion's cell data and pattern go before its factor is made
    with prefix_failures(context):
        factor = cholesky(Kc[1:, 1:].tocsc())

    def coarse_solve(r):  # dof 0 grounded
        return np.insert(factor.solve(r[1:]), 0, 0.0, axis=0)

    eff_c = tensor(Kc, bc, integral_c, coarse_solve(bc))
    del Kc  # only the companion's factor is read from here on
    if not refine:
        return ConstantMatrixCoefficient(eff_c, CELL_PROBLEM, float("nan"))
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
    eff = tensor(K, b, integral, chi)
    return ConstantMatrixCoefficient(eff, CELL_PROBLEM, float(np.max(np.abs(eff - eff_c))))


def homogenized_tensor(family: CoefficientFamily) -> ConstantMatrixCoefficient:
    """Limit tensor of a coefficient family from its oracle.

    Every built-in family is a laminate, so this is the lamination formula
    of its unit profile, provenance ``closed-form``.  A 2D family whose
    field reads both coordinates would take ``cell_problem_2d`` here.
    """
    return lamination_formula(family.unit_profile, family.dim)


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



@dataclass(frozen=True, eq=False)
class Limit:
    """A run's G-limit -div(A* grad) + V and its source's limit f; V and f are
    None where the run has no potential or no source."""

    coefficient: ConstantMatrixCoefficient
    potential: object = None
    source: object = None

    def pencil(self, space) -> tuple:
        """(K, M): the limit operator and the unit mass, assembled on ``space``."""
        M = assembly.assemble_mass(space)
        return assembly.assemble_operator(space, self.coefficient, self.potential), M

    def spectrum(self, space, pencil: tuple, k: int) -> EigenResult | None:
        """The k smallest eigenpairs of ``pencil``, this limit's ``pencil(space)``,
        where their vectors are known in closed form, else None.

        On a 1D Dirichlet grid, with a coefficient and potential that sample as
        constants, they are the nodal sines sin(j pi x), normalized in M, and
        their Rayleigh quotients: a* lambda_j + V up to the assembled sum's
        rounding of V M (5.7e-9 relative on sin2-potential at 16,384 cells)."""
        if space.mesh.dimension != 1 or space.rule != DIRICHLET:
            return None
        points = space.cell_data().points
        v = np.zeros(1) if self.potential is None else self.potential.values_at(1, points)
        if np.ptp(self.coefficient.values_at(1, points)) or np.ptp(v):
            return None
        K, M = pencil
        X = np.sin(np.pi * np.outer(space.dof_coordinates()[:, 0], np.arange(1, k + 1)))
        norms = np.einsum("ij,ij->j", X, M @ X)
        values = np.einsum("ij,ij->j", X, K @ X) / norms
        X /= np.sqrt(norms)
        return EigenResult(values, X, residuals(K, M, values, X))


def limit_of(family=None, potential=None, source=None) -> Limit:
    """The ``Limit`` of a run's families: A* from ``homogenized_tensor``, or
    without a coefficient family the identity of the 1D -Laplacian."""
    coefficient = (ConstantMatrixCoefficient(np.eye(1)) if family is None
                   else homogenized_tensor(family))
    return Limit(coefficient, potential and potential.limit_family(),
                 source and source.limit_family())
