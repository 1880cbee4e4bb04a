import contextlib
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import linalg as sla
from scipy import sparse
from scipy.sparse.linalg import SuperLU, splu

from gconv import assembly, linalg
from gconv.families import CoefficientFamily, ConstantMatrixCoefficient, make_builtin_family
from gconv.homogenize import homogenized_tensor
from gconv.linalg import (
    ConvergenceError,
    NotPositiveDefiniteError,
    cholesky,
    eig_smallest,
    lanczos_vectors,
)
from gconv.mesh import (
    DIRICHLET,
    PERIODIC,
    build_dirichlet_space,
    build_interval_mesh,
    build_rect_mesh,
    build_space,
)

from conftest import fem_laplacian_eigenvalues


def _random_spd(n, seed, shift=None):
    rng = np.random.default_rng(seed)
    B = rng.normal(size=(n, n))
    return sparse.csr_matrix(B @ B.T + (shift if shift is not None else n) * np.eye(n))


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
    # diagonal, so through pttrf
    with pytest.raises(NotPositiveDefiniteError):
        cholesky(sparse.diags([1.0, -1.0]).tocsr())


def test_cholesky_rejects_unsymmetric():
    # tridiagonal, so through pttrf's band check
    A = sparse.csr_matrix(np.array([[2.0, 1.0], [0.0, 2.0]]))
    with pytest.raises(ValueError, match="symmetric"):
        cholesky(A)


def test_cholesky_tridiagonal_matches_dense():
    sp = build_space(build_interval_mesh(128), DIRICHLET)
    K = (assembly.assemble_stiffness(sp, make_builtin_family("const", [1.0]))
         + assembly.assemble_mass(sp, make_builtin_family("sin2-potential"), h=4))
    b = np.random.default_rng(3).normal(size=(sp.num_dofs, 3))
    factor = cholesky(K)
    assert factor._lu.nnz == 2 * sp.num_dofs - 1  # pttrf: two arrays, no fill
    x = factor.solve(b)
    ref = np.linalg.solve(K.toarray(), b)
    bound = np.linalg.cond(K.toarray()) * np.finfo(float).eps
    assert np.linalg.norm(x - ref) <= bound * np.linalg.norm(ref)
    assert np.array_equal(factor.solve(b[:, 0]), x[:, 0])


@pytest.mark.parametrize("matrix,error,message", [
    (np.diag([2.0, 2.0, 2.0]) + np.diag([1.0, 1.0], 1) + np.diag([0.5, 1.0], -1),
     ValueError, "symmetric"),
    # pivots 1, 0.5 - 1: dpttrf stops inside the band, not at a diagonal entry
    (np.diag([1.0, 0.5, 2.0]) + np.diag([-1.0, -1.0], 1) + np.diag([-1.0, -1.0], -1),
     NotPositiveDefiniteError, "pivot 2 of 3"),
], ids=["unsymmetric", "indefinite"])
def test_tridiagonal_solver_rejects(matrix, error, message):
    # the pttrf path of cholesky: every entry within one of the diagonal
    with pytest.raises(error, match=message):
        cholesky(sparse.csr_matrix(matrix))


def test_cholesky_one_by_one():
    factor = cholesky(sparse.csr_matrix([[4.0]]))
    assert factor._lu.nnz == 1
    assert np.array_equal(factor.solve(np.array([2.0])), [0.5])


PENTADIAGONAL = np.diag([1.0, 1.0, 1.0]) + np.diag([0.5], 2) + np.diag([0.5], -2)


@pytest.mark.parametrize("matrix", [
    PENTADIAGONAL,
    # an explicitly stored zero two off the diagonal: the pattern is not a band
    sparse.csr_matrix(([2.0, 0.0, 2.0, 2.0], [0, 2, 1, 2], [0, 2, 3, 4]), shape=(3, 3)),
], ids=["pentadiagonal", "stored-zero"])
def test_cholesky_off_band_uses_superlu(matrix):
    A = sparse.csr_matrix(matrix)
    factor = cholesky(A)
    assert isinstance(factor._lu, SuperLU)
    b = np.array([1.0, -2.0, 3.0])
    assert np.allclose(factor.solve(b), np.linalg.solve(A.toarray(), b), rtol=1e-14)


@pytest.mark.parametrize("matrix,error", [
    (PENTADIAGONAL + np.diag([0.25], 2), ValueError),
    (PENTADIAGONAL - np.diag([2.0, 0.0, 0.0]), NotPositiveDefiniteError),
], ids=["unsymmetric", "indefinite"])
def test_cholesky_off_band_rejects(matrix, error):
    with pytest.raises(error):
        cholesky(sparse.csr_matrix(matrix))


@pytest.mark.parametrize("length", [2, 4])
def test_tridiagonal_solve_checks_rhs_length(length):
    # LAPACK's dpttrs returns a longer b's tail unsolved and a shorter one
    # as garbage with a negative info
    factor = cholesky(sparse.diags([[-1.0] * 2, [2.0] * 3, [-1.0] * 2], [-1, 0, 1],
                                   format="csr"))
    assert not isinstance(factor._lu, SuperLU)
    with pytest.raises(ValueError, match="rhs has length .*, expected 3"):
        factor.solve(np.ones(length))


@pytest.mark.parametrize("length", [2, 4])
def test_superlu_solve_checks_rhs_length(length):
    factor = cholesky(sparse.csr_matrix(PENTADIAGONAL))
    assert isinstance(factor._lu, SuperLU)
    with pytest.raises(ValueError, match="rhs has length .*, expected 3"):
        factor.solve(np.ones(length))


LIMIT = ConstantMatrixCoefficient(np.diag([1.6, 2.5]))  # laminate2d [1, 4]'s A*


def _superlu_calls(monkeypatch) -> list:
    """Shapes of the matrices cholesky hands to SuperLU from now on."""
    splu, seen = linalg.splu, []

    def recording(A, **kwargs):
        seen.append(A.shape)
        return splu(A, **kwargs)

    monkeypatch.setattr(linalg, "splu", recording)
    return seen


@pytest.mark.parametrize("cells", [4, 8, 16])
def test_sine_transform_solves_constant_grid_operators(monkeypatch, cells):
    # the P1 stiffness of a constant diagonal tensor is a Kronecker sum, which
    # the sine transform splits into tridiagonal systems: two length-n arrays
    K = assembly.assemble_stiffness(build_dirichlet_space(2, cells), LIMIT)
    seen = _superlu_calls(monkeypatch)
    factor = cholesky(K)
    assert not seen and factor._lu.nnz == 2 * K.shape[0] - 1
    b = np.random.default_rng(cells).normal(size=(K.shape[0], 3))
    x = factor.solve(b)
    ref = np.linalg.solve(K.toarray(), b)
    assert np.all(np.linalg.norm(x - ref, axis=0) <= 1e-13 * np.linalg.norm(ref, axis=0))
    for j in range(3):  # a block solves each column to the bits of its own solve
        assert np.array_equal(factor.solve(b[:, j]), x[:, j])


def test_sine_transform_overflows_only_with_its_solution():
    # scaled by 1e-307 the solution peaks at 9.1e307, within the float range;
    # dividing by each eigenvalue before the inverse transform would overflow
    K = assembly.assemble_stiffness(build_dirichlet_space(2, 16), LIMIT)
    b = np.ones(K.shape[0])
    x = cholesky(K).solve(b)
    with np.errstate(over="raise"):
        tiny = cholesky(1e-307 * K).solve(b)
    assert np.abs(1e-307 * tiny - x).max() <= 1e-13 * np.abs(x).max()


def test_subnormal_laminate_rung_solves_in_units_of_a_power_of_two():
    # laminate2d [1e-308, 4e-308]'s rung has subnormal entries; without the
    # scale the pivots' products underflow and the solve overflows
    K = _laminate_rung(32, 1, [1.0, 4.0])
    b = np.full(K.shape[0], 1e-3)  # the tiny rung's solution peaks at 4.3e305
    x = cholesky(K).solve(b)
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        tiny = cholesky(1e-308 * K).solve(b)
    assert np.abs(1e-308 * tiny - x).max() <= 1e-14 * np.abs(x).max()


def _periodic_stiffness(cells, coefficient=LIMIT):
    return assembly.assemble_stiffness(build_space(build_rect_mesh(cells, cells), PERIODIC),
                                       coefficient)


def _laminate(params):  # the resolution rule is off: any grid samples the layers
    return replace(make_builtin_family("laminate2d", params), feature_fraction=None)


def _laminate_rung(cells, h, params):
    return assembly.assemble_stiffness(build_dirichlet_space(2, cells), _laminate(params), h=h)


def _layers_along_rows(K):
    """P K P', the grid transposed: the layers then run along the fast axis."""
    m = math.isqrt(K.shape[0])
    order = np.arange(K.shape[0]).reshape(m, m).T.ravel()
    return K[order][:, order]


def _goes_to_superlu(A) -> bool:
    with pytest.MonkeyPatch.context() as patch:
        seen = _superlu_calls(patch)
        with contextlib.suppress(NotPositiveDefiniteError):  # the periodic kernel
            cholesky(A)
    return seen == [A.shape]


FULL_TENSOR = ConstantMatrixCoefficient(np.array([[2.0, 0.5], [0.5, 1.0]]))


def _companion(cells, coefficient):
    """The cell problem's grounded companion Kc[1:, 1:] on a cells^2 periodic grid."""
    return _periodic_stiffness(cells, coefficient)[1:, 1:]


def _checkerboard(pts):
    return np.where((pts[..., 0] < 0.5) ^ (pts[..., 1] < 0.5), 100.0, 1.0)


@pytest.mark.parametrize("matrix", [
    lambda: assembly.assemble_stiffness(build_dirichlet_space(2, 8), FULL_TENSOR),
    lambda: _periodic_stiffness(8),
    lambda: _companion(8, FULL_TENSOR),
    lambda: _companion(16, CoefficientFamily("checkerboard", 2, 1.0, 100.0, _checkerboard, 1.0)),
    lambda: assembly.assemble_stiffness(build_space(build_rect_mesh(8, 4)), LIMIT),
    lambda: _layers_along_rows(_laminate_rung(32, 1, [1.0, 4.0])),
    # the mass's 00-11 couplings are not zero
    lambda: _laminate_rung(32, 1, [1.0, 4.0]) + assembly.assemble_mass(
        build_dirichlet_space(2, 32)),
], ids=["full-tensor", "periodic", "grounded-full-tensor", "grounded-checkerboard",
        "non-square-n", "layers-along-rows", "rung-plus-mass"])
def test_other_grid_operators_go_to_superlu(matrix):
    assert _goes_to_superlu(matrix())


EPS = np.finfo(float).eps


def _backward_error(A, x, b):
    """max over columns of ||b - A x|| / (||A|| ||x|| + ||b||), in the max norm."""
    r = b - A @ x
    norm = abs(A).sum(axis=1).max()
    return np.max(np.abs(r).max(0) / (norm * np.abs(x).max(0) + np.abs(b).max(0)))


@pytest.mark.parametrize("matrix", [
    lambda: assembly.assemble_stiffness(build_dirichlet_space(2, 96), LIMIT),
    lambda: _companion(48, _laminate([1.0, 4.0])),  # resolution 96's companion
], ids=["96-cells", "48-cell-companion"])
def test_grids_of_any_step_take_the_layers(matrix):
    # a step that is no power of two: the cells of one type are congruent to
    # the bit, so the operator is exactly layered
    A = matrix().tocsc()
    assert not _goes_to_superlu(A)
    b = np.random.default_rng(A.shape[0]).normal(size=(A.shape[0], 2))
    assert _backward_error(A, cholesky(A).solve(b), b) <= 4 * EPS


@pytest.mark.parametrize("cells,coefficient", [
    (8, LIMIT), (32, _laminate([1.0, 4.0])), (64, _laminate([0.5, 7.0])),
    (128, _laminate([0.3, 7.7])), (32, _laminate([2.0])), (128, _laminate([1.01]))],
    ids=["grounded", "32-1-4", "64-0.5-7", "128-0.3-7.7", "32-2", "128-1.01"])
def test_cell_problem_companions_solve_without_superlu(monkeypatch, cells, coefficient):
    # a grounded periodic laminate: the real DFT along the layers, stacked
    # pttrs across them, and layer 0's circulant; stored, about 3n/2 numbers.
    # A sinusoidal laminate's diagonal is constant along each grid row too:
    # the wrap's dofs sum their cells in the interior's order
    A = _companion(cells, coefficient).tocsc()
    seen = _superlu_calls(monkeypatch)
    factor = cholesky(A)
    half = cells // 2 + 1
    assert not seen and factor._lu.nnz == 3 * half * (cells - 1) - 1 + half
    b = np.random.default_rng(cells).normal(size=(A.shape[0], 2))
    x = factor.solve(b)
    assert _backward_error(A, x, b) <= 4 * EPS
    ref = splu(A).solve(b)
    assert np.abs(x - ref).max() <= 1e-11 * np.abs(ref).max()


@settings(derandomize=True, deadline=None, max_examples=30)
@given(m=st.sampled_from([3, 6, 12, 16, 24, 32, 48, 64, 96, 128]),
       params=st.one_of(st.tuples(st.floats(0.1, 10.0), st.floats(0.1, 10.0)),
                        st.tuples(st.floats(1.01, 10.0))))
def test_grounded_periodic_laminates_take_the_layers_property(m, params):
    # every two-phase or sinusoidal laminate2d on a periodic grid of any step
    # is exactly T x I + W x L: _layered takes Kc[1:, 1:]
    assert linalg._layered(_companion(m, _laminate(list(params))).tocsc()) is not None


def _grounded_layers(across, within, shift):
    """Kc[1:, 1:] for Kc = T x I + W x L on the m x m periodic grid: -across_i
    between layers i and i + 1 (cyclic), -within_i along layer i, and on the
    diagonal the sum of the row's couplings, plus ``shift``."""
    m = across.size
    rows, cols = np.arange(m), (np.arange(m) + 1) % m

    def cyclic(values):  # values_i between i and i + 1
        T = sparse.coo_matrix((values, (rows, cols)), shape=(m, m))
        return T + T.T

    diagonal = (2.0 * within + across + np.roll(across, 1) + shift).repeat(m)
    Kc = (sparse.diags(diagonal) - sparse.kron(cyclic(across), sparse.identity(m))
          - sparse.kron(sparse.diags(within), cyclic(np.ones(m))))
    return sparse.csc_matrix(Kc)[1:, 1:]


@settings(derandomize=True, deadline=None, max_examples=40)
@given(m=st.integers(4, 64), data=st.data(),
       shift=st.sampled_from([0.0, 1e-12, 1e-3, 1.0]))
def test_grounded_periodic_layers_property(m, data, shift):
    # the excess of each row is the shift, or the rounding of the diagonal's
    # sum, either sign: the solve does not take the row sums as zero
    layer = st.lists(st.floats(0.1, 10.0), min_size=m, max_size=m)
    across, within = np.array(data.draw(layer)), np.array(data.draw(layer))
    A = _grounded_layers(across, within, shift)
    with pytest.MonkeyPatch.context() as patch:
        seen = _superlu_calls(patch)
        factor = cholesky(A)
    assert not seen
    b = np.random.default_rng(m).normal(size=(A.shape[0], 3))
    x = factor.solve(b)
    assert _backward_error(A, x, b) <= 4 * EPS
    ref = splu(A).solve(b)
    assert np.abs(x - ref).max() <= 1e-12 * np.abs(ref).max()
    for j in range(3):
        assert np.array_equal(factor.solve(b[:, j]), x[:, j])


def test_layers_reject_an_indefinite_grounded_operator(monkeypatch):
    # Kc - 20 I: the excess is -20 in every row, and the pivots say so
    A = _companion(8, LIMIT) - 20.0 * sparse.identity(63)
    seen = _superlu_calls(monkeypatch)
    with pytest.raises(NotPositiveDefiniteError, match="not positive definite: pivot"):
        cholesky(A)
    assert not seen


@settings(derandomize=True, deadline=None, max_examples=40)
@given(params=st.one_of(st.tuples(st.floats(0.1, 10.0), st.floats(0.1, 10.0)),
                        st.tuples(st.floats(1.1, 10.0))),
       cells=st.sampled_from([2, 3, 4, 6, 8, 12, 16, 24, 32, 48]), h=st.integers(1, 4))
def test_laminate_rungs_solve_without_superlu(params, cells, h):
    # a rung is T x I + W x L, the layers across the slow axis; permuted or
    # summed with a mass, it is not
    K = _laminate_rung(cells, h, list(params))
    with pytest.MonkeyPatch.context() as patch:
        seen = _superlu_calls(patch)
        factor = cholesky(K)
    assert not seen
    b = np.random.default_rng(cells).normal(size=(K.shape[0], 3))
    x = factor.solve(b)
    ref = np.linalg.solve(K.toarray(), b)
    assert np.all(np.linalg.norm(x - ref, axis=0) <= 1e-13 * np.linalg.norm(ref, axis=0))
    for j in range(3):
        assert np.array_equal(factor.solve(b[:, j]), x[:, j])
    if K.shape[0] > 1:
        M = assembly.assemble_mass(build_dirichlet_space(2, cells))
        assert _goes_to_superlu(K + M)
        # a field that samples as a constant is transposed into itself
        P = _layers_along_rows(K)
        assert (P != K).nnz == 0 or _goes_to_superlu(P)


def test_sine_transform_rejects_an_indefinite_operator(monkeypatch):
    # alpha < 0 on a 7 x 7 grid: the first pivot of the q = 1 system is its
    # first diagonal entry, 2 alpha + 4 beta sin^2(pi/16)
    K = assembly.assemble_stiffness(build_dirichlet_space(2, 8),
                                    ConstantMatrixCoefficient(np.diag([-1.6, 2.5])))
    seen = _superlu_calls(monkeypatch)
    with pytest.raises(NotPositiveDefiniteError,
                       match="not positive definite: pivot 1 of 49 is -2.819e\\+00"):
        cholesky(K)
    assert not seen


def test_2d_reference_eigenvalues_match_a_longdouble_rayleigh_quotient():
    # the 128^2 reference of laminate2d [1, 4], against x'Kx / x'Mx of its own
    # eigenvectors in longdouble (accurate to the residual squared)
    space = build_dirichlet_space(2, 128)
    K = assembly.assemble_stiffness(
        space, homogenized_tensor(make_builtin_family("laminate2d", [1.0, 4.0])))
    M = assembly.assemble_mass(space)
    res = eig_smallest(K, M, 3)
    X = res.vectors.astype(np.longdouble)
    quotient = np.einsum("ij,ij->j", X, K.astype(np.longdouble) @ X) / np.einsum(
        "ij,ij->j", X, M.astype(np.longdouble) @ X)
    assert np.all(np.abs(res.values - quotient) <= 1e-14 * quotient)


@pytest.mark.parametrize("h", [1, 2, 4])
def test_laminate_rung_eigenvalues_match_a_longdouble_rayleigh_quotient(h):
    # the 32^2, 64^2 and 128^2 rungs of laminate2d [1, 4], by the reference's recipe
    space = build_dirichlet_space(2, 32 * h)
    K = assembly.assemble_stiffness(space, make_builtin_family("laminate2d", [1.0, 4.0]), h=h)
    M = assembly.assemble_mass(space)
    res = eig_smallest(K, M, 3)
    X = res.vectors.astype(np.longdouble)
    quotient = np.einsum("ij,ij->j", X, K.astype(np.longdouble) @ X) / np.einsum(
        "ij,ij->j", X, M.astype(np.longdouble) @ X)
    assert np.all(np.abs(res.values - quotient) <= 1e-14 * quotient)


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


# 7 dofs cap the basis at n; 31 dofs take the floor of 20; 255 take 2k + 1
@pytest.mark.parametrize("n_cells,k", [(8, 2), (32, 3), (256, 12)])
def test_eig_basis_is_lanczos_vectors(monkeypatch, unit_family, n_cells, k):
    # ARPACK gets the basis validation budgets, which is scipy's own default:
    # the pairs are bit-identical to those of eigsh left to choose it
    sp = build_space(build_interval_mesh(n_cells), DIRICHLET)
    K = assembly.assemble_stiffness(sp, unit_family)
    M = assembly.assemble_mass(sp)
    eigsh, seen = linalg.eigsh, []

    def recording(K, k, **kwargs):
        seen.append(kwargs["ncv"])
        return eigsh(K, k, **kwargs)

    def scipy_default(K, k, ncv, **kwargs):
        return eigsh(K, k, **kwargs)

    monkeypatch.setattr(linalg, "eigsh", recording)
    given = eig_smallest(K, M, k)
    assert seen == [lanczos_vectors(sp.num_dofs, k)]
    monkeypatch.setattr(linalg, "eigsh", scipy_default)
    default = eig_smallest(K, M, k)
    assert np.array_equal(given.values, default.values)
    assert np.array_equal(given.vectors, default.vectors)


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
