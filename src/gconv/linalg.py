"""Sparse SPD factorization and a shift-invert generalized eigensolver.

The factorization is a SuperLU decomposition run in symmetric mode with a
fill-reducing ordering and diagonal pivoting disabled, which for a
symmetric positive definite matrix is a Cholesky factorization up to a
diagonal scaling; ``CholeskyFactor.lower`` recovers the genuine L such that
L L' equals the symmetrically permuted input.

The eigensolver extracts the k smallest eigenvalues of K x = lambda M x
with ARPACK (``scipy.sparse.linalg.eigsh``) in shift-invert mode at
sigma = 0, applying inv(K) through the one SuperLU factor of K.  The start
vector is all ones and ARPACK's restart vectors come from a fixed seed, so
identical inputs produce bit-identical results.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.linalg import eigh
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh, splu


class NotPositiveDefiniteError(RuntimeError):
    """Factorization hit a non-positive pivot (not positive definite)."""


class ConvergenceError(RuntimeError):
    """The eigensolver did not reach its residual tolerance."""


@dataclass(eq=False)
class CholeskyFactor:
    """Lower-triangular sparse factor with a fill-reducing permutation."""

    n: int
    _lu: object

    def solve(self, b: np.ndarray) -> np.ndarray:
        b = np.asarray(b, dtype=float)
        if b.shape[0] != self.n:
            raise ValueError(f"rhs has length {b.shape[0]}, expected {self.n}")
        return self._lu.solve(b)

    def lower(self):
        """Return (L, perm) with L L' = A[perm][:, perm] for the input A."""
        d = np.sqrt(self._lu.U.diagonal())
        L = self._lu.L @ sparse.diags(d)
        return L.tocsr(), np.argsort(self._lu.perm_c)


def cholesky(matrix) -> CholeskyFactor:
    """Factor a sparse symmetric positive definite matrix.

    Raises ``NotPositiveDefiniteError`` when a pivot is non-positive, which
    signals either violated ellipticity or the constant kernel of a
    periodic-space stiffness matrix.
    """
    A = sparse.csc_matrix(matrix)
    if A.shape[0] != A.shape[1]:
        raise ValueError("matrix must be square")
    asym = abs(A - A.T)
    if asym.nnz and asym.max() != 0.0:
        raise ValueError("matrix must be symmetric")
    try:
        lu = splu(A, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                  options=dict(SymmetricMode=True))
    except RuntimeError as exc:
        raise NotPositiveDefiniteError(f"not positive definite: {exc}") from exc
    diag = lu.U.diagonal()
    if np.any(diag <= 0.0) or not np.all(np.isfinite(diag)):
        raise NotPositiveDefiniteError(
            "not positive definite: factorization produced a non-positive pivot"
        )
    return CholeskyFactor(A.shape[0], lu)


@dataclass(eq=False)
class EigenResult:
    """Ascending eigenvalues with M-orthonormal eigenvectors and residuals.

    ``residuals[k]`` is ||K x - lambda M x||_2 / (lambda ||x||_M).
    """

    values: np.ndarray     # (k,)
    vectors: np.ndarray    # (n, k)
    residuals: np.ndarray  # (k,)


def _fix_sign(x: np.ndarray) -> np.ndarray:
    # largest-magnitude entry positive; np.argmax breaks ties at lowest index
    i = int(np.argmax(np.abs(x)))
    return -x if x[i] < 0.0 else x


def _residuals(K, M, vals, vecs) -> np.ndarray:
    res = np.empty(vals.shape[0])
    for j in range(vals.shape[0]):
        x = vecs[:, j]
        r = K @ x - vals[j] * (M @ x)
        xm = np.sqrt(max(x @ (M @ x), np.finfo(float).tiny))
        res[j] = np.linalg.norm(r) / (vals[j] * xm)
    return res


def eig_smallest(K, M, k: int, tol: float = 1e-10) -> EigenResult:
    """k smallest eigenpairs of the generalized pencil K x = lambda M x.

    K must be SPD (factored once; the factor applies inv(K) to every ARPACK
    iterate), M SPD.  For k = n ARPACK cannot run and the dense pencil is
    solved instead.  Raises ``ConvergenceError`` when ARPACK does not
    converge or when the worst final residual exceeds ``tol``.
    """
    K = sparse.csr_matrix(K)
    M = sparse.csr_matrix(M)
    n = K.shape[0]
    if k < 1 or k > n:
        raise ValueError(f"k={k} outside 1..{n}")
    kfac = cholesky(K)
    if k == n:
        vals, vecs = eigh(K.toarray(), M.toarray())
    else:
        op = LinearOperator((n, n), matvec=kfac.solve, dtype=float)
        try:
            vals, vecs = eigsh(K, k, M=M, sigma=0.0, OPinv=op, v0=np.ones(n),
                               rng=0)
        except ArpackNoConvergence as exc:
            raise ConvergenceError(f"eig_smallest: {exc}") from exc
    order = np.argsort(vals)
    vals = vals[order]
    vecs = np.column_stack([_fix_sign(vecs[:, j]) for j in order])
    res = _residuals(K, M, vals, vecs)
    worst = np.max(res)
    if not worst <= tol:  # a NaN residual fails too
        raise ConvergenceError(
            f"eig_smallest: worst residual {worst:.3e} exceeds tol {tol:.1e}"
        )
    return EigenResult(values=vals, vectors=vecs, residuals=res)
