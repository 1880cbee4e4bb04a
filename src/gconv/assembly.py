"""P1 assembly of stiffness, weighted mass and load vectors.

Element integrals use the one rule per dimension of ``mesh.QUADRATURE``, and
the families module's points-per-feature rule keeps coefficient aliasing
below discretization error.  Dirichlet dofs are eliminated at assembly,
never penalized.

Each call only samples its coefficient's scalar field (``values_at``; a
stiffness also reads the constant ``matrix`` it scales) and forms the local
integrals; the cell data and sparsity pattern are cached on the space.
Global matrices are exactly symmetric by construction: both orientations of
every off-diagonal entry are summed from the same upper-triangle local
entries in the same order (``mesh.SymmetricPattern``), so the two sums
agree bit for bit.
"""
from __future__ import annotations

import numpy as np
from scipy import sparse

from .families import check_resolution
from .mesh import PATTERN_BLOCK, FeSpace


def _check(space: FeSpace, caller: str, family, h: int) -> None:
    """Refuse a space without dofs, then a family sampled below the resolution rule."""
    if space.num_dofs == 0:
        raise ValueError("space has no degrees of freedom")
    scale = family.feature_scale(h) if family is not None else None
    check_resolution(scale, space.mesh.max_cell_span,
                     f"{caller}({getattr(family, 'name', 'unit')}, h={h})")


def _fill(space: FeSpace, local: np.ndarray) -> sparse.csr_matrix:
    """Sum local matrices into the space's cached symmetric CSR pattern.

    The sums run over blocks of ``PATTERN_BLOCK`` CSR entries, each gathering
    only its own segment of ``local.ravel()[pattern.gather]``: no copy the
    size of ``local``, and no intp copy of ``starts``, is ever made.  Every
    entry sums the same values in the same order as one whole
    ``np.add.reduceat`` would, so the matrix is the same bit for bit.
    """
    pattern = space.pattern
    flat, gather, starts = local.ravel(), pattern.gather, pattern.starts
    data = np.empty(starts.size)
    for a in range(0, starts.size, PATTERN_BLOCK):
        b = min(a + PATTERN_BLOCK, starts.size)
        lo, hi = starts[a], starts[b] if b < starts.size else gather.size
        np.add.reduceat(flat[gather[lo:hi]], np.subtract(starts[a:b], lo, dtype=np.intp),
                        out=data[a:b])
    return sparse.csr_matrix((data, pattern.indices, pattern.indptr),
                             shape=(space.num_dofs, space.num_dofs))


def cell_means(space: FeSpace, family, h: int = 1) -> np.ndarray:
    """Cell averages of the coefficient's scalar field a_h, shape (nc,)."""
    cd = space.cell_data()
    return np.einsum("q,qc->c", cd.weights, family.values_at(h, cd.points))


def assemble_stiffness(space: FeSpace, family, h: int = 1,
                       means=None) -> sparse.csr_matrix:
    """Stiffness matrix K[i,j] = integral(a_h matrix grad(phi_j) . grad(phi_i)).

    Symmetric positive definite on Dirichlet spaces; on periodic spaces the
    kernel is the constant vector.  A P1 stiffness reads the field a_h only
    through its cell means: ``means`` passes ``cell_means(space, family, h)``
    already sampled; ``family`` then gives only its ``matrix`` and feature scale.
    """
    _check(space, "assemble_stiffness", family, h)
    space.pattern  # its first build is the largest transient: before any array here
    _, measure, grads = space.cell_data()[:3]
    a = cell_means(space, family, h) if means is None else means
    A, (nb, dim) = family.matrix, grads.shape[1:]
    # allocated before the grads A columns, whose many (nc,) blocks would
    # otherwise split the free heap that _fill's gather then needs whole
    local = np.empty((measure.shape[0], nb, nb))
    # grads A grads^T a from the contiguous (nc,) columns grads[:, i, k], one
    # product per small axis: np.matmul is as fast, but BLAS kernels with
    # fused multiply-add change the last bits
    GA = [[sum(grads[:, i, k] * A[k, l] for k in range(dim)) * a for l in range(dim)]
          for i in range(nb)]
    del a  # each temporary goes once the next one exists
    # one (nc,) column per local entry, scaled into place; _fill reads only
    # the upper triangle, so the lower one is never written
    for i in range(nb):
        for j in range(i, nb):
            np.multiply(sum(GA[i][l] * grads[:, j, l] for l in range(dim)), measure,
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
    # w_q w per point, (nq, nc); the unit weight is the scalar 1.0, an (nq, 1)
    # column that broadcasts against the measure.  w is never held beside it
    ww = cd.weights[:, None] * (1.0 if weight is None else weight.values_at(h, cd.points))
    # one (nc,) column per upper-triangle local entry, in the einsum
    # contraction's arithmetic: ((w_q w) phi_i) phi_j summed over ascending q,
    # then scaled by the measure.  np.einsum's generic n-operand loop took
    # 3 to 6 ms per 16,384 cells
    nq, nb = cd.phi.shape
    local = np.empty((cd.measure.shape[0], nb, nb))
    for i in range(nb):
        for j in range(i, nb):
            np.multiply(sum(ww[q] * cd.phi[q, i] * cd.phi[q, j] for q in range(nq)),
                        cd.measure, out=local[:, i, j])
    del ww  # gone before _fill gathers
    return _fill(space, local)


def assemble_operator(space: FeSpace, coefficient, potential=None, h: int = 1):
    """-div(A_h grad) + V_h: the stiffness, plus the potential's weighted mass."""
    K = assemble_stiffness(space, coefficient, h=h)
    return K if potential is None else (K + assemble_mass(space, potential, h=h)).tocsr()


def assemble_load(space: FeSpace, source, h: int = 1) -> np.ndarray:
    """Load vector b[i] = integral(f_h phi_i)."""
    _check(space, "assemble_load", source, h)
    cd = space.cell_data()
    wf = cd.weights[:, None] * source.values_at(h, cd.points)
    # the mass's column kernel: (w_q f) phi_i summed over ascending q
    nq, nb = cd.phi.shape
    local = np.empty((cd.measure.shape[0], nb))
    for i in range(nb):
        np.multiply(sum(wf[q] * cd.phi[q, i] for q in range(nq)), cd.measure,
                    out=local[:, i])
    del wf
    keep = cd.dofs >= 0
    return np.bincount(cd.dofs[keep], local[keep], minlength=space.num_dofs)


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
    strips = len(edges) - 1
    bins = np.clip(np.searchsorted(edges, cd.points[..., 0], side="right") - 1,
                   0, strips - 1).ravel()
    w = cd.weights[:, None] * cd.measure[None, :]               # (nq, nc)
    weighted = w[..., None] * values
    # bincount sums each strip in index order from 0.0, as assemble_load does
    sums = np.column_stack([np.bincount(bins, weighted[..., j].ravel(), strips)
                            for j in range(weighted.shape[-1])])
    return sums / np.bincount(bins, w.ravel(), strips)[:, None]
