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
  The same stiffness on the periodic grid, T and L cyclic, with its first
  dof grounded, is split by a real DFT along the rows instead: each mode's
  layers but the first are one more tridiagonal stack, and what is left of
  the first layer is circulant.  That is the companion of every 2D laminate
  cell problem.
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


def _layer_pivots(delta: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Pivots ``(modes, layers)`` of the tridiagonal systems with off-diagonal s
    whose row excess (diagonal less the off-diagonal's magnitudes) is
    ``delta[:, q]`` for mode q: each term is non-negative where the excess is,
    so the smallest pivots keep their relative accuracy (Alfa, Xue and Ye,
    Math. Comp. 71, 2002)."""
    left, right = np.insert(np.abs(s), 0, 0.0), np.append(np.abs(s), 0.0)
    p, r, q = np.empty_like(delta), 0.0, 1.0
    for i in range(delta.shape[0]):  # r_i = p_i - |s_i|, the excess of the factored row
        r = delta[i] + left[i] * r / q
        p[i] = q = r + right[i]
    return p.T.copy()


def _stacked(p: np.ndarray, s: np.ndarray) -> np.ndarray:
    """``dpttrs``'s multipliers of the systems of pivots p (one per row of p)
    and off-diagonal s, stacked as one tridiagonal system uncoupled between them."""
    return np.pad(s / p[:, :-1], ((0, 0), (0, 1))).ravel()[:-1]


def _sine_layers(d, s, w) -> tuple:
    """Hockney's method on the Dirichlet grid: the sine transform along the grid
    rows splits ``T x I + W x L`` into m tridiagonal systems ``T + mu_q W``,
    factored as one stack of n rows."""
    m = d.size
    mu = 4.0 * np.sin(np.arange(1, m + 1) * (np.pi / (2 * (m + 1)))) ** 2
    excess = (d - 2.0 * w) - np.insert(np.abs(s), 0, 0.0) - np.append(np.abs(s), 0.0)
    p = _layer_pivots(excess[:, None] + w[:, None] * mu, s)
    mult = _stacked(p, s)

    def solve(b: np.ndarray) -> np.ndarray:
        # b's columns as m x m grids [i, j]: transformed along j, stacked by
        # mode [q, i] for dpttrs, and transformed back
        y = _dst(b.T.reshape(-1, m, m)).swapaxes(1, 2).reshape(-1, m * m)
        y = dpttrs(p.ravel(), mult, y.T)[0].T.reshape(-1, m, m).swapaxes(1, 2)
        return _dst(y).reshape(b.T.shape).T

    return p, SimpleNamespace(solve=solve, nnz=p.size + mult.size)


def _fourier_layers(d, s, w) -> tuple:
    """Hockney's method on the periodic grid, grounded: ``A = Kc[1:, 1:]`` with
    ``Kc = T x I + W x L``, T and L cyclic (s ends with the coupling of the last
    layer to the first).  A real DFT along the grid rows splits Kc into cyclic
    systems ``T + mu_q W``, one per mode q.  Layers 1..m-1 of each are one
    stacked ``pttrs``; what is left of layer 0 is circulant, with eigenvalues
    ``sigma_q``, and the grounded dof's reaction is eliminated by the condition
    that its value be zero.  ``sigma_q`` is layer 0's excess plus the excess of
    the other layers carried to it, a sum of non-negative terms (Grassmann,
    Taksar and Heyman, Oper. Res. 33, 1985), so the small modes, ``sigma_0``
    above all, keep their relative accuracy and no row sum is taken as zero."""
    m = d.size
    n, half = m * m, m // 2 + 1
    mu = 4.0 * np.sin(np.arange(half) * (np.pi / m)) ** 2
    # each grid row's excess, correctly rounded: zero exactly where its sum is
    excess = np.array([math.fsum(row) for row in zip(d, -w, -w, s, np.roll(s, 1))])
    delta = excess[:, None] + w[:, None] * mu  # (m, half): the excess of T + mu_q W
    inner = delta[1:].copy()  # layers 1..m-1, whose couplings to layer 0 count as excess
    inner[0] -= s[0]
    inner[-1] -= s[-1]
    p = _layer_pivots(inner, s[1:-1])
    mult = _stacked(p, s[1:-1])
    rim = np.zeros_like(inner)  # the inner layers' coupling to layer 0
    rim[0], rim[-1] = s[0], s[-1]
    # z solves the inner systems on their excess, v on rim: 1 = z - v
    z, v = dpttrs(p.ravel(), mult, np.column_stack([delta[1:].T.ravel(), rim.T.ravel()]))[0].T
    z, v = z.reshape(half, m - 1), v.reshape(half, m - 1)
    sigma = delta[0] - s[0] * z[:, 0] - s[-1] * z[:, -1]
    # sums over modes 1..m-1 from the half spectrum: q and m - q alike
    twice = np.where(np.arange(1, half) == m - np.arange(1, half), 1.0, 2.0)
    harmonic = np.sum(twice / sigma[1:])
    ratio = sigma[0] / sigma[1:]

    def solve(b: np.ndarray) -> np.ndarray:
        # b's columns as m x m grids [i, j], dof (0, 0) put back at zero, and
        # transformed along j; the inner layers stacked by mode [q, i] for dpttrs
        f = np.fft.rfft(np.insert(b.T.reshape(-1, n - 1), 0, 0.0, axis=1).reshape(-1, m, m))
        y = f[:, 1:].swapaxes(1, 2)
        y = dpttrs(p.ravel(), mult, np.stack([y.real, y.imag], 1).reshape(-1, p.size).T)[0]
        y = y.T.reshape(-1, 2, half, m - 1)
        y = y[:, 0] + 1j * y[:, 1]
        # layer 0's circulant system, g = sigma x0 less the reaction h at dof
        # (0, 0), whose transform is h in every mode; x0 sums to m x0[0] = 0
        g = f[:, 0] - s[0] * y[..., 0] - s[-1] * y[..., -1]
        t = (g[:, 1:] - g[:, :1]) / sigma[1:]
        x0 = np.empty_like(g)
        x0[:, 0] = -np.sum(twice * t.real, axis=-1) / (1.0 + sigma[0] * harmonic)
        x0[:, 1:] = t + x0[:, :1] * ratio
        f[:, 0] = x0
        f[:, 1:] = (y - x0[..., None] * v).swapaxes(1, 2)
        x = np.fft.irfft(f, m).reshape(-1, n)[:, 1:]
        return x.reshape(b.T.shape).T

    # the grounded circulant is positive definite, given sigma_q > 0 for q > 0,
    # when its pivot at the grounded mode, sigma_0 + 1 / harmonic, is positive
    pivots = np.concatenate([p.ravel(), sigma[1:], [sigma[0] + 1.0 / harmonic]])
    return pivots, SimpleNamespace(solve=solve, nnz=p.size + mult.size + v.size + half)


def _layered(A) -> tuple | None:
    """``(pivots, factor)`` when A is exactly ``T x I + W x L`` on an m x m grid:
    ``d_i`` on the diagonal of grid row i, ``s_i`` between rows i and i + 1,
    ``-w_i`` within row i, and nothing else but zeros; else None.  On the
    Dirichlet grid n = m^2 and m >= 2 (``_sine_layers``); on the periodic grid
    grounded at dof 0, n = m^2 - 1 and m >= 3, T and L are cyclic, and
    ``s <= 0 <= w`` (``_fourier_layers``)."""
    n = A.shape[0]
    m = math.isqrt(n + 1)
    periodic = m >= 3 and m * m == n + 1
    if not periodic:
        m = math.isqrt(n)
        if m < 2 or m * m != n:
            return None
    diag = A.diagonal()  # periodic: A's dof k is the grid's k + 1
    d = (np.insert(diag, 0, diag[0]) if periodic else diag).reshape(m, m)
    if not np.all(d == d[:, :1]):
        return None
    d, w, s = d[:, 0], -A.diagonal(1)[::m], A.diagonal(m)[::m]
    within = np.pad(np.repeat(-w[:, None], m - 1, 1), ((0, 0), (0, 1))).ravel()[:-1]
    bands = {0: np.repeat(d, m), 1: within, m: np.repeat(s, m)}
    if periodic:
        s = np.append(s, A[0, (m - 1) * m])
        if (s > 0.0).any() or (w < 0.0).any():
            return None
        wrap = np.zeros(m * m - m + 1)
        wrap[::m] = -w
        bands.update({m - 1: wrap, m * m - m: np.full(m, s[-1])})
    offsets = sorted(bands)
    grid = sparse.diags([bands[k] for k in offsets] + [bands[k] for k in offsets[1:]],
                        offsets + [-k for k in offsets[1:]], format="csc")
    if (A != (grid[1:, 1:] if periodic else grid)).nnz:
        return None
    # in units of a power of two near the largest entry: the pivots and the
    # solves stay in b's range, and only a solution beyond it overflows
    scale = np.ldexp(1.0, np.frexp(d.max())[1])
    with np.errstate(divide="ignore", invalid="ignore"):  # a zero pivot fails the check
        pivots, factor = (_fourier_layers if periodic else _sine_layers)(
            d / scale, s / scale, w / scale)
    return pivots * scale, SimpleNamespace(solve=lambda b: factor.solve(b) / scale,
                                           nnz=factor.nnz)


def cholesky(matrix) -> CholeskyFactor:
    """Factor a sparse symmetric positive definite matrix.

    A matrix whose every stored entry, an explicit zero too, lies within one
    of the diagonal is factored by ``pttrf``; a matrix ``T x I + W x L`` on an
    m x m grid (``_layered``), Dirichlet, or periodic with its first dof
    grounded, by a transform along the grid rows and stacked ``pttrs``
    solves.  The P1 stiffness of a diagonal tensor times a field of x1 alone
    is such a matrix when the grid's step is a power of two (8, 128 and 256
    cells are; 24, 48, 96 and 100 are not: their entries differ in the last
    bits), and so is the cell problem's grounded companion ``Kc[1:, 1:]`` of
    a two-phase laminate on such a grid; a sinusoidal laminate's diagonal
    differs along a grid row in its last bits.  Any other matrix goes to
    SuperLU.  Raises ``ValueError`` unless the matrix is square and
    symmetric, and ``NotPositiveDefiniteError`` on a non-positive pivot:
    violated ellipticity, or the constant kernel of a periodic-space
    stiffness.
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
    iterate), M SPD.  The pencil is solved with K in units of 2^e, e the
    exponent of K's largest diagonal entry, and the values are scaled back:
    exact, so a K far below M finds the same eigenvalues times its scale.
    For k = n ARPACK cannot run and the dense pencil is solved instead.
    Raises ``ConvergenceError`` on any ARPACK error, no convergence among
    them, and when the worst final residual exceeds ``tol``.
    """
    K = sparse.csr_matrix(K)
    M = sparse.csr_matrix(M)
    n = K.shape[0]
    if k < 1 or k > n:
        raise ValueError(f"k={k} outside 1..{n}")
    # ARPACK's shift-inverted iterates, of size 1/lambda, stay in range
    e = int(np.frexp(K.diagonal().max())[1])
    K = sparse.csr_matrix((np.ldexp(K.data, -e), K.indices, K.indptr), shape=K.shape)
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
    return EigenResult(values=np.ldexp(vals, e), vectors=vecs, residuals=res)
