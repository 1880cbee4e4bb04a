"""P1 assembly of stiffness, weighted mass and load vectors.

Element integrals use the one rule per dimension of ``mesh.QUADRATURE``.
Oscillatory coefficients are additionally guarded by the points-per-feature
rule of the families module, which keeps coefficient aliasing below
discretization error.  Dirichlet dofs are eliminated at assembly, never
penalized.

Each call only evaluates its coefficient and the local integrals; the cell
geometry, quadrature points and sparsity pattern are cached on the space.
Global matrices are exactly symmetric by construction: both orientations of
every off-diagonal entry are summed from the same upper-triangle local
entries in the same order (``mesh.SymmetricPattern``), so the two sums
agree bit for bit.
"""
from __future__ import annotations

import numpy as np
from scipy import sparse

from .families import check_resolution
from .mesh import FeSpace


def _check(space: FeSpace, caller: str, family, h: int) -> None:
    """Refuse a space without dofs, then a family sampled below the resolution rule."""
    if space.num_dofs == 0:
        raise ValueError("space has no degrees of freedom")
    scale = family.feature_scale(h) if family is not None else None
    check_resolution(scale, space.mesh.max_cell_span,
                     f"{caller}({getattr(family, 'name', 'unit')}, h={h})")


def _fill(space: FeSpace, local: np.ndarray) -> sparse.csr_matrix:
    """Sum local matrices into the space's cached symmetric CSR pattern."""
    pattern = space.pattern
    data = np.add.reduceat(local.ravel()[pattern.gather], pattern.starts)
    return sparse.csr_matrix((data, pattern.indices, pattern.indptr),
                             shape=(space.num_dofs, space.num_dofs))


def cell_means(space: FeSpace, family, h: int = 1) -> np.ndarray:
    """Cell averages of the coefficient matrices A_h, shape (nc, dim, dim)."""
    cd = space.cell_data()
    return np.einsum("q,qcij->cij", cd.weights, family.matrix_at(h, cd.points))


def assemble_stiffness(space: FeSpace, family, h: int = 1,
                       means=None) -> sparse.csr_matrix:
    """Stiffness matrix K[i,j] = integral(A_h grad(phi_j) . grad(phi_i)).

    Symmetric positive definite on Dirichlet spaces; on periodic spaces the
    kernel is the constant vector.  A P1 stiffness reads A_h only through
    its cell means: ``means`` passes ``cell_means(space, family, h)`` already
    sampled, and ``family`` is then only checked against the resolution rule.
    """
    _check(space, "assemble_stiffness", family, h)
    space.pattern  # its first build is the largest transient: before any array here
    _, measure, grads = space.cell_data()[:3]
    A = cell_means(space, family, h) if means is None else means
    dim = A.shape[-1]
    # grads A grads^T, one product per small axis: np.matmul is as fast, but
    # BLAS kernels with fused multiply-add change the last bits
    GA = sum(grads[:, :, k, None] * A[:, None, k] for k in range(dim))
    del A  # each temporary goes once the next one exists
    # one (nc,) column per local entry, scaled into place; _fill reads only
    # the upper triangle, so the lower one is never written
    local = np.empty(grads.shape[:2] + (dim + 1,))
    for i in range(dim + 1):
        for j in range(i, dim + 1):
            np.multiply(sum(GA[:, i, l] * grads[:, j, l] for l in range(dim)), measure,
                        out=local[:, i, j])
    del GA  # gone before _fill gathers, the call's last transient
    return _fill(space, local)


def assemble_mass(space: FeSpace, weight=None, h: int = 1,
                  quad_order: int = 4) -> sparse.csr_matrix:
    """Weighted mass matrix M[i,j] = integral(w phi_i phi_j).

    ``weight=None`` gives the plain mass matrix; a potential family gives
    the discrete multiplicative-perturbation matrix at index h.
    ``quad_order`` takes only 4: the rule is ``mesh.QUADRATURE``'s, and the
    parameter stays because the benchmark's tracer binds it by name.
    """
    if quad_order != 4:
        raise ValueError(f"quad_order must be 4, got {quad_order}")
    _check(space, "assemble_mass", weight, h)
    cd = space.cell_data()
    w = np.ones(cd.points.shape[:2]) if weight is None else weight.values_at(h, cd.points)
    local = (np.einsum("q,qc,qi,qj->cij", cd.weights, w, cd.phi, cd.phi)
             * cd.measure[:, None, None])
    return _fill(space, local)


def assemble_load(space: FeSpace, source, h: int = 1) -> np.ndarray:
    """Load vector b[i] = integral(f_h phi_i)."""
    _check(space, "assemble_load", source, h)
    cd = space.cell_data()
    f = source.values_at(h, cd.points)
    local = np.einsum("q,qc,qi->ci", cd.weights, f, cd.phi) * cd.measure[:, None]
    b = np.zeros(space.num_dofs)
    keep = cd.dofs >= 0
    np.add.at(b, cd.dofs[keep], local[keep])
    return b


def cell_gradients(space: FeSpace, u: np.ndarray) -> np.ndarray:
    """Piecewise-constant gradient of a P1 function, shape (nc, dim)."""
    dofs, _, grads = space.cell_data()[:3]
    uc = np.where(dofs >= 0, np.asarray(u, dtype=float)[np.clip(dofs, 0, None)], 0.0)
    return np.einsum("ci,cid->cd", uc, grads)


def strip_averages(space: FeSpace, values: np.ndarray,
                   edges: np.ndarray) -> np.ndarray:
    """Averages over strips of the first coordinate, binned by quadrature point.

    ``values`` broadcasts to (nq, nc, k); the result has shape (strips, k).
    """
    cd = space.cell_data()
    bins = np.clip(np.searchsorted(edges, cd.points[..., 0], side="right") - 1,
                   0, len(edges) - 2).ravel()
    w = cd.weights[:, None] * cd.measure[None, :]               # (nq, nc)
    weighted = w[..., None] * values
    sums = np.zeros((len(edges) - 1, weighted.shape[-1]))
    vols = np.zeros(len(edges) - 1)
    np.add.at(vols, bins, w.ravel())
    np.add.at(sums, bins, weighted.reshape(-1, weighted.shape[-1]))
    return sums / vols[:, None]
