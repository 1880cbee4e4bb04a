import numpy as np
import pytest
from scipy import linalg as sla
from scipy import sparse

from gconv import assembly
from gconv.families import ConstantMatrixCoefficient, make_builtin_family
from gconv.linalg import (
    ConvergenceError,
    NotPositiveDefiniteError,
    cholesky,
    eig_smallest,
)
from gconv.mesh import DIRICHLET, build_interval_mesh, build_rect_mesh, build_space

from conftest import fem_laplacian_eigenvalues


def _random_spd(n, seed, shift=None):
    rng = np.random.default_rng(seed)
    B = rng.normal(size=(n, n))
    return sparse.csr_matrix(B @ B.T + (shift if shift is not None else n) * np.eye(n))


def test_cholesky_identity():
    f = cholesky(sparse.identity(5, format="csr"))
    L, perm = f.lower()
    assert np.allclose(L.toarray(), np.eye(5))
    assert np.array_equal(np.sort(perm), np.arange(5))


def test_cholesky_reproduces_permuted_input():
    A = _random_spd(40, seed=2)
    L, perm = cholesky(A).lower()
    Ap = A.toarray()[np.ix_(perm, perm)]
    rel = np.linalg.norm((L @ L.T).toarray() - Ap) / np.linalg.norm(Ap)
    assert rel <= 1e-12
    assert abs(sparse.triu(L, 1)).sum() == 0.0


def test_cholesky_solve_tridiagonal(quarter_space, unit_family):
    K = assembly.assemble_stiffness(quarter_space, unit_family)
    # brute-force elimination oracle for K = tridiag(-4, 8, -4), b = ones
    expected = np.linalg.solve(K.toarray(), np.ones(3))
    assert np.allclose(expected, [0.375, 0.5, 0.375])
    u = cholesky(K).solve(np.ones(3))
    assert np.allclose(u, expected, rtol=1e-14)


def test_cholesky_rejects_zero_row():
    A = sparse.csr_matrix(np.diag([1.0, 0.0, 2.0]))
    with pytest.raises(NotPositiveDefiniteError, match="not positive definite"):
        cholesky(A)


def test_cholesky_rejects_indefinite():
    with pytest.raises(NotPositiveDefiniteError):
        cholesky(sparse.diags([1.0, -1.0]).tocsr())


def test_cholesky_rejects_unsymmetric():
    A = sparse.csr_matrix(np.array([[2.0, 1.0], [0.0, 2.0]]))
    with pytest.raises(ValueError, match="symmetric"):
        cholesky(A)


def test_solve_identity():
    b = np.array([3.0, -1.0, 2.0])
    assert np.array_equal(cholesky(sparse.identity(3, format="csr")).solve(b), b)


def test_solve_dirichlet_poisson(quarter_space, unit_family):
    K = assembly.assemble_stiffness(quarter_space, unit_family)
    b = assembly.assemble_load(quarter_space, make_builtin_family("const-source", [1.0]))
    u = cholesky(K).solve(b)
    # P1 is nodally exact in 1D: u(x) = x(1-x)/2 at the nodes
    assert np.allclose(u, [0.09375, 0.125, 0.09375], atol=1e-15)


def test_solve_reuses_factor(quarter_space, unit_family):
    K = assembly.assemble_stiffness(quarter_space, unit_family)
    factor = cholesky(K)
    b = np.array([0.25, 0.25, 0.25])
    assert np.allclose(factor.solve(b), cholesky(K).solve(b))


def test_eig_diagonal_pencil():
    K = sparse.diags([2.0, 5.0]).tocsr()
    M = sparse.identity(2, format="csr")
    res = eig_smallest(K, M, 2)
    assert np.allclose(res.values, [2.0, 5.0], rtol=1e-13)


def test_eig_k_equals_m():
    A = _random_spd(12, seed=3)
    res = eig_smallest(A, A.copy(), 3)
    assert np.allclose(res.values, 1.0, rtol=1e-12)


def test_eig_rejects_bad_k(quarter_pencil):
    K, M = quarter_pencil
    with pytest.raises(ValueError):
        eig_smallest(K, M, 4)
    with pytest.raises(ValueError):
        eig_smallest(K, M, 0)


@pytest.mark.parametrize("n_cells", [4, 32, 256])
def test_eig_matches_fem_closed_form(n_cells, unit_family):
    sp = build_space(build_interval_mesh(n_cells), DIRICHLET)
    K = assembly.assemble_stiffness(sp, unit_family)
    M = assembly.assemble_mass(sp)
    k = min(5, sp.num_dofs)
    res = eig_smallest(K, M, k)
    exact = fem_laplacian_eigenvalues(n_cells, k)
    assert np.all(np.abs(res.values - exact) <= 1e-10 * exact)


def test_eig_residuals_certify_dense_case(quarter_pencil):
    K, M = quarter_pencil
    res = eig_smallest(K, M, 3)
    exact = sla.eigh(K.toarray(), M.toarray(), eigvals_only=True)
    assert np.all(np.abs(res.values - exact) <= res.residuals * res.values + 1e-13)


def test_eig_m_orthonormal_ascending(quarter_pencil):
    K, M = quarter_pencil
    res = eig_smallest(K, M, 3)
    gram = res.vectors.T @ (M @ res.vectors)
    assert np.abs(gram - np.eye(3)).max() <= 1e-8
    assert np.all(np.diff(res.values) >= 0)
    assert np.all(res.values > 0)
    assert np.all(res.residuals <= 1e-10)


def test_eig_sign_convention(quarter_pencil):
    K, M = quarter_pencil
    res = eig_smallest(K, M, 3)
    for j in range(3):
        x = res.vectors[:, j]
        assert x[np.argmax(np.abs(x))] > 0


def test_eig_exact_multiplicity():
    K = sparse.diags([1.0, 2.0, 2.0, 3.0]).tocsr()
    M = sparse.identity(4, format="csr")
    res = eig_smallest(K, M, 3)
    assert np.allclose(res.values, [1.0, 2.0, 2.0], rtol=1e-12)
    assert np.abs(res.vectors.T @ res.vectors - np.eye(3)).max() <= 1e-10


def test_eig_2d_cluster_multiset():
    sp = build_space(build_rect_mesh(12, 12), DIRICHLET)
    eye = ConstantMatrixCoefficient(np.eye(2))
    K = assembly.assemble_stiffness(sp, eye)
    M = assembly.assemble_mass(sp)
    res = eig_smallest(K, M, 5)
    dense = sla.eigh(K.toarray(), M.toarray(), eigvals_only=True)[:5]
    assert np.allclose(np.sort(res.values), dense, rtol=1e-9)


def test_eig_monotone_under_nonnegative_potential():
    rng = np.random.default_rng(11)
    for trial in range(5):
        K = _random_spd(16, seed=20 + trial)
        W = rng.normal(size=(16, 4))
        V = sparse.csr_matrix(W @ W.T)  # PSD
        M = sparse.identity(16, format="csr")
        base = eig_smallest(K, M, 4).values
        bumped = eig_smallest((K + V).tocsr(), M, 4).values
        assert np.all(bumped >= base - 1e-9 * np.abs(base))


def test_eig_nonconvergence_raises():
    sp = build_space(build_interval_mesh(1024), DIRICHLET)
    unit = make_builtin_family("const", [1.0])
    K = assembly.assemble_stiffness(sp, unit)
    M = assembly.assemble_mass(sp)
    # no residual reaches zero, so the final residual check rejects the pairs
    with pytest.raises(ConvergenceError, match="residual"):
        eig_smallest(K, M, 2, tol=0.0)
