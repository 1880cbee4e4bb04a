"""Sparse SPD factorization and a shift-invert generalized eigensolver.

``cholesky`` is the one factorization, and it reads the matrix to choose
one of three backends:

- A tridiagonal matrix, such as every 1D P1 operator, gets LAPACK's
  ``pttrf``, a factor of two length-n arrays.
- A matrix ``T x I + W x L`` on an m x m grid, T tridiagonal, ``W = diag(w)``
  and L the path Laplacian, is split by the type-I sine transform along the
  grid rows into m tridiagonal systems (Hockney's method), each factored
  from its row excess.  The grid's squares are cut along their 00-11
  diagonals, whose couplings vanish for a diagonal tensor, so this is the P1
  stiffness of a diagonal tensor times a field of x1 alone on a Dirichlet
  grid of the unit square whose step is a power of two: every 2D laminate
  rung, and every 2D constant-coefficient reference and Dirichlet solve.
- Any other matrix gets a SuperLU decomposition run in symmetric mode with
  a fill-reducing ordering and diagonal pivoting disabled, which for a
  symmetric positive definite matrix is a Cholesky factorization up to a
  diagonal scaling.

The eigensolver extracts the k smallest eigenvalues of K x = lambda M x
with ARPACK (``scipy.sparse.linalg.eigsh``) in shift-invert mode at
sigma = 0, applying inv(K) through the one factor of K.  The start vector
is all ones and ARPACK's restart vectors come from a fixed seed, so
identical inputs produce bit-identical results.  ``lanczos_vectors`` is the
size of ARPACK's basis, which validation holds to a memory budget.
"""
from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np
from scipy import sparse
from scipy.linalg import eigh
from scipy.linalg.lapack import dpttrf, dpttrs
from scipy.sparse.linalg import ArpackError, LinearOperator, eigsh, splu

EIG_TOL = 1e-10  # default bound on eig_smallest's worst relative residual


class NumericalError(RuntimeError):
    """A numerical failure; ``stage`` names where, for the CLI's exit 2."""

    stage = "numerics"

    def __init__(self, message: str, stage: str | None = None):
        super().__init__(message)
        self.stage = stage or self.stage


class NotPositiveDefiniteError(NumericalError):
    """Factorization hit a non-positive pivot (not positive definite)."""

    stage = "factorization"


class ConvergenceError(NumericalError):
    """An iterative solver did not reach its tolerance."""

    stage = "eigensolver"


@contextlib.contextmanager
def prefix_failures(context: str):
    """Prefix a ``NumericalError`` raised inside with ``context``; class and stage
    stay.  A ``FloatingPointError`` (an overflow, a division by zero or a NaN
    under ``np.errstate``) leaves as a ``NumericalError`` at stage ``arithmetic``,
    and a ``MemoryError`` as one at stage ``memory``."""
    try:
        yield
    except NumericalError as exc:
        raise type(exc)(f"{context}: {exc}", exc.stage) from exc
    except FloatingPointError as exc:
        raise NumericalError(f"{context}: {exc}", "arithmetic") from exc
    except MemoryError as exc:  # numpy's names the array it could not allocate
        raise NumericalError(f"{context}: {str(exc) or 'out of memory'}", "memory") from exc


@dataclass(eq=False)
class CholeskyFactor:
    """SPD factor; ``_lu``, the backend's own factor, has ``solve`` and ``nnz``."""

    n: int
    _lu: object

    def solve(self, b: np.ndarray) -> np.ndarray:
        b = np.asarray(b, dtype=float)
        if b.shape[0] != self.n:  # dpttrs leaves a longer b's tail unsolved
            raise ValueError(f"rhs has length {b.shape[0]}, expected {self.n}")
        return self._lu.solve(b)


def _dst(x: np.ndarray) -> np.ndarray:
    """Orthonormal type-I sine transform along the last axis, its own inverse:
    the imaginary part of the ``rfft`` of the odd extension [0, -x, 0, x reversed]."""
    m = x.shape[-1]
    ext = np.zeros(x.shape[:-1] + (2 * m + 2,))
    np.negative(x, out=ext[..., 1:m + 1])
    ext[..., m + 2:] = x[..., ::-1]
    return np.fft.rfft(ext, norm="ortho").imag[..., 1:m + 1]


def _layer_pivots(d: np.ndarray, s: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Pivots ``(m, m)`` of ``T + mu_q W``, one row per sine mode q of L, from the
    row excess: each term is non-negative where the excess is, so the smallest
    pivots keep their relative accuracy (Alfa, Xue and Ye, Math. Comp. 71, 2002)."""
    m = d.size
    mu = 4.0 * np.sin(np.arange(1, m + 1) * (np.pi / (2 * (m + 1)))) ** 2
    left, right = np.insert(np.abs(s), 0, 0.0), np.append(np.abs(s), 0.0)
    delta = ((d - 2.0 * w) - left - right)[:, None] + w[:, None] * mu
    p, r, q = np.empty_like(delta), 0.0, 1.0
    for i in range(m):  # r_i = p_i - |s_i|, the excess of the factored row
        r = delta[i] + left[i] * r / q
        p[i] = q = r + right[i]
    return p.T.copy()


def _layered(A) -> tuple | None:
    """``(pivots, factor)`` when A is exactly ``T x I + W x L`` on an m x m grid
    (n = m^2, m >= 2): ``d_i`` on the diagonal of grid row i, ``s_i`` between rows
    i and i + 1, ``-w_i`` within row i, and nothing else but zeros; else None.
    The sine transform along the rows splits it into m tridiagonal systems
    ``T + mu_q W`` (Hockney, J. ACM 12, 1965), factored as one stack of n rows."""
    n = A.shape[0]
    m = math.isqrt(n)
    if m < 2 or m * m != n:
        return None
    d, fast = A.diagonal().reshape(m, m), A.diagonal(1)
    if fast[m - 1::m].any() or not np.all(d == d[:, :1]):
        return None
    slow = np.repeat(A.diagonal(m)[::m], m)
    within = np.pad(np.repeat(fast[::m, None], m - 1, 1), ((0, 0), (0, 1))).ravel()[:-1]
    if (A != sparse.diags([slow, within, d.ravel(), within, slow], [-m, -1, 0, 1, m],
                          format="csc")).nnz:
        return None
    # in units of a power of two near the largest entry: the pivots and the
    # solves stay in b's range, and only a solution beyond it overflows
    scale = np.ldexp(1.0, np.frexp(d.max())[1])
    s = slow[::m] / scale
    with np.errstate(divide="ignore", invalid="ignore"):  # a zero pivot fails the check
        p = _layer_pivots(d[:, 0] / scale, s, -fast[::m] / scale)
        mult = np.pad(s / p[:, :-1], ((0, 0), (0, 1))).ravel()[:-1]

    def solve(b: np.ndarray) -> np.ndarray:
        # b's columns as m x m grids [i, j]: transformed along j, stacked by
        # mode [q, i] for dpttrs, and transformed back
        y = _dst(b.T.reshape(-1, m, m)).swapaxes(1, 2).reshape(-1, n)
        y = dpttrs(p.ravel(), mult, y.T)[0].T.reshape(-1, m, m).swapaxes(1, 2)
        return (_dst(y) / scale).reshape(b.T.shape).T

    return p * scale, SimpleNamespace(solve=solve, nnz=2 * n - 1)


def cholesky(matrix) -> CholeskyFactor:
    """Factor a sparse symmetric positive definite matrix.

    A matrix whose every stored entry, an explicit zero too, lies within one
    of the diagonal is factored by ``pttrf``; a matrix ``T x I + W x L`` on an
    m x m grid (``_layered``) by the sine transform and stacked ``pttrs``
    solves.  The P1 stiffness of a diagonal tensor times a field of x1 alone
    on a Dirichlet grid is such a matrix when the grid's step is a power of
    two (8, 128 and 256 cells are; 24, 96 and 100 are not: their entries
    differ in the last bits).  Any other matrix goes to SuperLU.  Raises
    ``ValueError`` unless the matrix is square and symmetric, and
    ``NotPositiveDefiniteError`` on a non-positive pivot: violated
    ellipticity, or the constant kernel of a periodic-space stiffness.
    """
    A = sparse.csc_matrix(matrix)
    n = A.shape[0]
    if A.shape[1] != n:
        raise ValueError("matrix must be square")
    # the count first: a 2D operator builds no nnz-sized array here
    if A.nnz <= 3 * n and np.all(
            np.abs(A.indices - np.repeat(np.arange(n), np.diff(A.indptr))) <= 1):
        sub = A.diagonal(1)
        if not np.array_equal(sub, A.diagonal(-1)):
            raise ValueError("matrix must be symmetric")
        # f2py's dpttrf and dpttrs take an off-diagonal of length 1 at n = 1;
        # a failing dpttrf stops at the first non-positive pivot
        pivots, e, _ = dpttrf(A.diagonal(), sub if n > 1 else np.zeros(1))
        # L D L' as two arrays; dpttrs's info is nonzero only on a b of another length
        factor = SimpleNamespace(solve=lambda b: dpttrs(pivots, e, b)[0], nnz=2 * n - 1)
    elif (layered := _layered(A)) is not None:
        pivots, factor = layered
    else:
        asym = abs(A - A.T)
        if asym.nnz and asym.max() != 0.0:
            raise ValueError("matrix must be symmetric")
        try:
            factor = splu(A, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                          options=dict(SymmetricMode=True))
        except RuntimeError as exc:
            raise NotPositiveDefiniteError(f"not positive definite: {exc}") from exc
        pivots = factor.U.diagonal()
    ok = np.isfinite(pivots) & (pivots > 0.0)
    if not ok.all():
        i = int(np.argmin(ok))
        raise NotPositiveDefiniteError(
            f"not positive definite: pivot {i + 1} of {n} is {pivots.flat[i]:.3e}")
    return CholeskyFactor(n, factor)


def lanczos_vectors(n: int, k: int) -> int:
    """Lanczos vectors ARPACK keeps for k eigenpairs of an n-dof pencil (scipy's default)."""
    return min(n, max(2 * k + 1, 20))


@dataclass(eq=False)
class EigenResult:
    """Ascending eigenvalues, M-orthonormal eigenvectors and their ``residuals``."""

    values: np.ndarray     # (k,)
    vectors: np.ndarray    # (n, k)
    residuals: np.ndarray  # (k,)


def _fix_sign(x: np.ndarray) -> np.ndarray:
    # largest-magnitude entry positive; np.argmax breaks ties at lowest index
    i = int(np.argmax(np.abs(x)))
    return -x if x[i] < 0.0 else x


def residuals(K, M, vals, vecs) -> np.ndarray:
    """||K x - lam M x||_2 / (lam ||x||_M) for each pair (lam, column x)."""
    res = np.empty(vals.shape[0])
    for j in range(vals.shape[0]):
        x = vecs[:, j]
        r = K @ x - vals[j] * (M @ x)
        xm = np.sqrt(max(x @ (M @ x), np.finfo(float).tiny))
        res[j] = np.linalg.norm(r) / (vals[j] * xm)
    return res


def eig_smallest(K, M, k: int, tol: float = EIG_TOL) -> EigenResult:
    """k smallest eigenpairs of the generalized pencil K x = lambda M x.

    K must be SPD (factored once; the factor applies inv(K) to every ARPACK
    iterate), M SPD.  For k = n ARPACK cannot run and the dense pencil is
    solved instead.  Raises ``ConvergenceError`` on any ARPACK error, no
    convergence among them, and when the worst final residual exceeds ``tol``.
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
                               ncv=lanczos_vectors(n, k), rng=0)
        except ArpackError as exc:
            raise ConvergenceError(f"eig_smallest: {exc}") from exc
    order = np.argsort(vals)
    vals = vals[order]
    vecs = np.column_stack([_fix_sign(vecs[:, j]) for j in order])
    res = residuals(K, M, vals, vecs)
    worst = np.max(res)
    if not worst <= tol:  # a NaN residual fails too
        raise ConvergenceError(
            f"eig_smallest: worst residual {worst:.3e} exceeds tol {tol:.1e}"
        )
    return EigenResult(values=vals, vectors=vecs, residuals=res)
