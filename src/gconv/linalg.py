"""Sparse SPD solvers and a shift-invert Lanczos generalized eigensolver.

The factorization is a SuperLU decomposition run in symmetric mode with a
fill-reducing ordering and diagonal pivoting disabled, which for a
symmetric positive definite matrix is a Cholesky factorization up to a
diagonal scaling; ``CholeskyFactor.lower`` recovers the genuine L such that
L L' equals the symmetrically permuted input.

The eigensolver extracts the k smallest eigenvalues of K x = lambda M x by
Lanczos iteration on inv(K) M in the M inner product (shift-invert at
sigma = 0) with full reorthogonalization, a deterministic start vector and
deflation restarts, so degenerate eigenvalues are returned with their full
multiplicity.  Everything here is deterministic: identical inputs produce
bit-identical results.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.linalg import eigh_tridiagonal
from scipy.sparse.linalg import splu

# relative gap below which two eigenvalues count as one cluster
CLUSTER_GAP = 1e-6


class NotPositiveDefiniteError(RuntimeError):
    """Factorization hit a non-positive pivot (not positive definite)."""


class ConvergenceError(RuntimeError):
    """An iterative solve exceeded its iteration cap."""


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


class _LanczosState:
    """One deflated Lanczos pass on inv(K) M in the M inner product."""

    def __init__(self, kfac, M, locked_vecs, locked_mvecs):
        self.kfac = kfac
        self.M = M
        self.locked = locked_vecs       # (n, nl) or None
        self.locked_m = locked_mvecs    # M @ locked
        self.V = []                     # M-orthonormal basis vectors
        self.MV = []
        self.alphas = []
        self.betas = []

    def orthogonalize(self, w: np.ndarray) -> np.ndarray:
        for _ in range(2):
            if self.locked is not None and self.locked.shape[1]:
                w = w - self.locked @ (self.locked_m.T @ w)
            if self.V:
                Vm = np.column_stack(self.V)
                MVm = np.column_stack(self.MV)
                w = w - Vm @ (MVm.T @ w)
        return w

    def push(self, v: np.ndarray) -> None:
        self.V.append(v)
        self.MV.append(self.M @ v)

    def ritz(self, want: int):
        """Ritz pairs from the tridiagonal: eigenvalues ascending."""
        a = np.asarray(self.alphas)
        b = np.asarray(self.betas[: len(self.alphas) - 1])
        if a.size == 1:
            theta, S = np.array([a[0]]), np.array([[1.0]])
        else:
            theta, S = eigh_tridiagonal(a, b)
        # largest theta of inv(K)M correspond to the smallest lambda = 1/theta
        order = np.argsort(theta)[::-1]
        take = order[: min(want, theta.size)]
        good = theta[take] > 0.0
        take = take[good]
        lam = 1.0 / theta[take]
        Vm = np.column_stack(self.V)
        X = Vm @ S[:, take]
        asc = np.argsort(lam)
        return lam[asc], X[:, asc]


def eig_smallest(K, M, k: int, tol: float = 1e-10) -> EigenResult:
    """k smallest eigenpairs of the generalized pencil K x = lambda M x.

    K must be SPD (factored once and reused), M SPD.  The iteration cap is
    max(20 k, 200) shift-invert applications in total; exceeding it raises
    ``ConvergenceError``.  After k pairs converge, one extra deflated probe
    pass checks that no eigenvalue at or below the kth was missed, which is
    what returns degenerate clusters with their full multiplicity.
    """
    K = sparse.csr_matrix(K)
    M = sparse.csr_matrix(M)
    n = K.shape[0]
    if k < 1 or k > n:
        raise ValueError(f"k={k} outside 1..{n}")
    kfac = cholesky(K)
    cap = max(20 * k, 200)
    steps = 0
    locked_vals: list[float] = []
    locked_vecs: list[np.ndarray] = []
    start_index = 0

    def next_start():
        nonlocal start_index
        state = _LanczosState(kfac, M, _stack(locked_vecs), _mstack(locked_vecs))
        while start_index <= n:
            v = (np.ones(n) if start_index == 0
                 else _basis_vector(n, start_index - 1))
            start_index += 1
            v = state.orthogonalize(v)
            nrm = np.sqrt(max(v @ (M @ v), 0.0))
            if nrm > 1e-10:
                return v / nrm
        return None

    def _stack(vecs):
        return np.column_stack(vecs) if vecs else None

    def _mstack(vecs):
        return np.column_stack([M @ v for v in vecs]) if vecs else None

    while True:
        if len(locked_vals) >= k:
            threshold = np.sort(locked_vals)[k - 1] * (1.0 + CLUSTER_GAP)
            probing = True
        else:
            threshold = np.inf
            probing = False
        v0 = next_start()
        if v0 is None:
            break  # whole space exhausted
        want = 1 if probing else k - len(locked_vals)
        state = _LanczosState(kfac, M, _stack(locked_vecs), _mstack(locked_vecs))
        state.push(v0)
        converged: list[tuple[float, np.ndarray]] = []
        theta_scale = 0.0
        while steps < cap:
            v = state.V[-1]
            w = kfac.solve(state.MV[-1])
            steps += 1
            alpha = float(w @ state.MV[-1])
            theta_scale = max(theta_scale, abs(alpha))
            w = w - alpha * v
            if len(state.V) > 1:
                w = w - state.betas[-1] * state.V[-2]
            w = state.orthogonalize(w)
            state.alphas.append(alpha)
            beta = float(np.sqrt(max(w @ (M @ w), 0.0)))
            exhausted = beta <= 1e-13 * max(theta_scale, 1.0)
            if len(state.V) >= want or exhausted:
                lam, X = state.ritz(want)
                if lam.size:
                    res = _residuals(K, M, lam, X)
                    if np.all(res <= tol) or exhausted:
                        converged = [(lam[j], X[:, j]) for j in range(lam.size)
                                     if res[j] <= tol]
                        break
            if exhausted:
                break
            state.betas.append(beta)
            state.push(w / beta)
        newly = [(lv, lx) for lv, lx in converged if lv <= threshold]
        for lv, lx in newly:
            xm = np.sqrt(lx @ (M @ lx))
            locked_vals.append(float(lv))
            locked_vecs.append(lx / xm)
        if probing and not newly:
            break  # nothing reachable at or below the kth eigenvalue remains
        if steps >= cap and len(locked_vals) < k:
            raise ConvergenceError(
                f"eig_smallest: {len(locked_vals)}/{k} eigenpairs converged "
                f"within the cap of {cap} Lanczos steps"
            )
        if steps >= cap:
            break

    if len(locked_vals) < k:
        raise ConvergenceError(
            f"eig_smallest: only {len(locked_vals)}/{k} eigenpairs found"
        )
    order = np.argsort(locked_vals)[:k]
    vals = np.array([locked_vals[i] for i in order])
    vecs = np.column_stack([_fix_sign(locked_vecs[i]) for i in order])
    res = _residuals(K, M, vals, vecs)
    return EigenResult(values=vals, vectors=vecs, residuals=res)


def _basis_vector(n: int, i: int) -> np.ndarray:
    e = np.zeros(n)
    e[i] = 1.0
    return e
