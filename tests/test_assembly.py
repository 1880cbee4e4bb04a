import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from gconv import assembly
from gconv.families import (
    ConstantMatrixCoefficient,
    ResolutionError,
    SourceFamily,
    make_builtin_family,
)
from gconv.linalg import cholesky, eig_smallest
from gconv.mesh import (
    DIRICHLET,
    PERIODIC,
    build_interval_mesh,
    build_rect_mesh,
    build_space,
)


def test_unit_stiffness_quarter_mesh(quarter_space, unit_family):
    K = assembly.assemble_stiffness(quarter_space, unit_family)
    expected = 4.0 * np.array([[2.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 2.0]])
    assert np.allclose(K.toarray(), expected, atol=1e-13)


def test_stiffness_scales_linearly(quarter_space, unit_family):
    K1 = assembly.assemble_stiffness(quarter_space, unit_family)
    Kc = assembly.assemble_stiffness(quarter_space, make_builtin_family("const", [3.7]))
    assert np.allclose(Kc.toarray(), 3.7 * K1.toarray(), rtol=1e-14)


def test_unit_mass_quarter_mesh(quarter_space):
    M = assembly.assemble_mass(quarter_space)
    d = 0.25
    expected = (d / 6.0) * np.array([[4.0, 1.0, 0.0], [1.0, 4.0, 1.0], [0.0, 1.0, 4.0]])
    assert np.allclose(M.toarray(), expected, atol=1e-15)


def test_constant_weight_scales_mass(quarter_space):
    M = assembly.assemble_mass(quarter_space)
    Mc = assembly.assemble_mass(quarter_space,
                                make_builtin_family("const-potential", [2.0]))
    assert np.allclose(Mc.toarray(), 2.0 * M.toarray(), rtol=1e-14)


def test_spike_mass_support_locality():
    # spike at h=4 lives on [0, 1/4]: rows of dofs beyond it are empty
    sp = build_space(build_interval_mesh(64), DIRICHLET)
    V = assembly.assemble_mass(sp, make_builtin_family("spike-potential", [2.0]), h=4)
    coords = sp.dof_coordinates()[:, 0]
    outside = coords > 0.25 + 1.0 / 64 + 1e-12
    assert np.abs(V.toarray()[outside]).max() == 0.0
    inside = coords < 0.25 - 1.0 / 64
    assert np.abs(V.diagonal()[inside]).min() > 0.0


def test_load_constant_source(quarter_space):
    b = assembly.assemble_load(quarter_space, make_builtin_family("const-source", [1.0]))
    assert np.allclose(b, [0.25, 0.25, 0.25], atol=1e-16)


def test_load_zero_source(quarter_space):
    b = assembly.assemble_load(quarter_space, make_builtin_family("const-source", [0.0]))
    assert np.array_equal(b, np.zeros(3))


def test_load_affine_source(quarter_space):
    from gconv.families import SourceFamily

    src = SourceFamily(name="x", values=lambda h, x: x[..., 0], limit=lambda x: x[..., 0])
    b = assembly.assemble_load(quarter_space, src)
    assert np.allclose(b, 0.25 * quarter_space.dof_coordinates()[:, 0], atol=1e-16)


def test_bitwise_symmetry():
    # Mass with two weights, then stiffness, all on one space: each matrix is
    # exactly symmetric and equals, bit for bit, the same assembly on a fresh
    # space, so no assembly leaks state into the next through the space's
    # cached data, which callers cannot write to.
    radial = SourceFamily(name="1+|x|^2", limit=lambda x: 1.0 + np.sum(x**2, axis=-1),
                          values=lambda h, x: 1.0 + np.sum(x**2, axis=-1))
    lam = make_builtin_family("laminate2d", [1.0, 4.0])
    cases = [
        (lambda: build_space(build_interval_mesh(256), DIRICHLET),
         make_builtin_family("osc1d", [2.0]), 8),
        (lambda: build_space(build_rect_mesh(24, 24), DIRICHLET), lam, 1),
        (lambda: build_space(build_rect_mesh(24, 24), PERIODIC), lam, 1),
    ]

    def spd(h, x):  # a full SPD field, the same on every call
        B = np.random.default_rng(7).normal(size=(*x.shape, x.shape[-1]))
        return B @ np.swapaxes(B, -1, -2) + np.eye(x.shape[-1])

    # a periodic axis of 2 cells maps one local pair onto a dof pair both
    # ways round, so both orientations of an entry gather the same cells
    for cells in ((2,), (2, 5), (2, 2), (5, 2)):
        mesh = build_interval_mesh if len(cells) == 1 else build_rect_mesh
        cases.append((lambda mesh=mesh, cells=cells: build_space(mesh(*cells), PERIODIC),
                      SimpleNamespace(name="spd", feature_scale=lambda h: None,
                                      matrix_at=spd), 1))
    for build, coeff, h in cases:
        steps = [lambda sp: assembly.assemble_mass(sp),
                 lambda sp: assembly.assemble_mass(sp, radial),
                 lambda sp: assembly.assemble_stiffness(sp, coeff, h=h)]
        sp = build()
        shared = [step(sp) for step in steps]
        for mat, step in zip(shared, steps):
            fresh = step(build())
            for part in ("data", "indices", "indptr"):
                a, b = getattr(mat, part), getattr(fresh, part)
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), part
            diff = mat - mat.T
            assert diff.nnz == 0 or abs(diff).max() == 0.0
        for cached in (*sp.pattern, *sp.cell_data()):
            assert cached.flags.writeable is False


def test_periodic_stiffness_kernel_is_constants():
    sp = build_space(build_rect_mesh(2, 2), PERIODIC)
    K = assembly.assemble_stiffness(sp, ConstantMatrixCoefficient(np.eye(2)))
    ones = np.ones(sp.num_dofs)
    assert np.abs(K @ ones).max() <= 1e-12
    evals = np.linalg.eigvalsh(K.toarray())
    assert abs(evals[0]) <= 1e-12 and evals[1] > 1e-10


def test_periodic_mass_row_sums_reproduce_measure():
    for sp in (
        build_space(build_interval_mesh(16), PERIODIC),
        build_space(build_rect_mesh(6, 9), PERIODIC),
    ):
        M = assembly.assemble_mass(sp)
        ones = np.ones(sp.num_dofs)
        assert abs(ones @ (M @ ones) - 1.0) <= 1e-12


def test_resolution_rule_refusal():
    fam = make_builtin_family("osc1d", [2.0])
    sp = build_space(build_interval_mesh(64), DIRICHLET)  # delta = 1/64
    with pytest.raises(ResolutionError):
        assembly.assemble_stiffness(sp, fam, h=8)  # needs delta <= 1/128
    assembly.assemble_stiffness(sp, fam, h=4)  # 16 points per period: allowed


def test_empty_space_rejected():
    sp = build_space(build_interval_mesh(1), DIRICHLET)  # no interior vertex
    with pytest.raises(ValueError, match="no degrees of freedom"):
        assembly.assemble_stiffness(sp, make_builtin_family("const", [1.0]))


@pytest.mark.parametrize("h", [1, 2, 4])
def test_discrete_ellipticity_sandwich(h):
    fam = make_builtin_family("twophase1d", [1.0, 4.0])
    sp = build_space(build_interval_mesh(64 * h), DIRICHLET)
    K = assembly.assemble_stiffness(sp, fam, h=h)
    K1 = assembly.assemble_stiffness(sp, make_builtin_family("const", [1.0]))
    rng = np.random.default_rng(h)
    for _ in range(100):
        u = rng.normal(size=sp.num_dofs)
        base = u @ (K1 @ u)
        mid = u @ (K @ u)
        assert fam.alpha * base <= mid * (1 + 1e-10)
        assert mid <= fam.beta * base * (1 + 1e-10)


def test_h1_seminorm_hat(quarter_space, unit_family):
    u = np.array([0.0, 1.0, 0.0])  # hat at the midpoint, gradient +-4 on two cells
    K1 = assembly.assemble_stiffness(quarter_space, unit_family)
    assert abs(u @ (K1 @ u) - 8.0) <= 1e-12


def test_h1_seminorm_constant_on_periodic(unit_family):
    sp = build_space(build_interval_mesh(8), PERIODIC)
    K1 = assembly.assemble_stiffness(sp, unit_family)
    u = np.ones(sp.num_dofs)
    assert np.sqrt(max(u @ (K1 @ u), 0.0)) <= 1e-13


def test_energy_bound_with_poincare_constant(unit_family):
    # a priori bound: |u|_H1 <= C_P ||f||_L2 / alpha
    fam = make_builtin_family("osc1d", [2.0])
    sp = build_space(build_interval_mesh(256), DIRICHLET)
    K = assembly.assemble_stiffness(sp, fam, h=8)
    b = assembly.assemble_load(sp, make_builtin_family("const-source", [1.0]))
    u = cholesky(K).solve(b)
    K1 = assembly.assemble_stiffness(sp, unit_family)
    semi = np.sqrt(u @ (K1 @ u))
    M = assembly.assemble_mass(sp)
    lam1 = eig_smallest(K1, M, 1).values[0]
    poincare = 1.0 / np.sqrt(lam1)
    assert semi <= poincare * 1.0 / fam.alpha + 1e-12


def _csr_bytes(K) -> int:
    return K.data.nbytes + K.indices.nbytes + K.indptr.nbytes


def _random_spd_field(seed):
    """A full SPD tensor drawn afresh per point, the same draws on every call."""
    def matrix_at(h, x):
        B = np.random.default_rng(seed).normal(size=np.shape(x)[:-1] + (2, 2))
        return B @ np.swapaxes(B, -1, -2) + 0.1 * np.eye(2)
    return SimpleNamespace(name="random-spd", feature_scale=lambda h: None,
                           matrix_at=matrix_at)


@pytest.mark.parametrize("n", [32, 64])
@pytest.mark.parametrize("field", ["laminate2d", "random-spd"])
def test_one_point_rule_on_cell_means_is_exact(n, field):
    # the cell problem hands its sampled cell means to the stiffness, which
    # is then the field's own stiffness bit for bit
    sp = build_space(build_rect_mesh(n, n), PERIODIC)
    family = (make_builtin_family("laminate2d", [1.0, 4.0]) if field == "laminate2d"
              else _random_spd_field(n))
    K1 = assembly.assemble_stiffness(sp, family, means=assembly.cell_means(sp, family))
    K = assembly.assemble_stiffness(sp, family)
    for part in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(K1, part), getattr(K, part)), part


def test_stiffness_peak_memory_is_a_few_matrices():
    # past the space's cached set-up (pattern, quadrature points), assembly
    # holds the cell means, grads A and the local matrices one after another,
    # never all at once: its peak stays within a few times the bytes of the
    # matrix it returns
    sp = build_space(build_rect_mesh(128, 128), PERIODIC)
    sp.pattern, sp.cell_data()
    tracemalloc.start()
    try:
        K = assembly.assemble_stiffness(sp, make_builtin_family("laminate2d", [1.0, 4.0]))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5.5 * _csr_bytes(K)


def test_mass_takes_only_the_one_rule():
    sp = build_space(build_interval_mesh(8), DIRICHLET)
    with pytest.raises(ValueError, match="quad_order must be 4"):
        assembly.assemble_mass(sp, quad_order=2)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(cells=st.one_of(st.tuples(st.integers(2, 512)),
                       st.tuples(st.integers(2, 32), st.integers(2, 32))),
       rule=st.sampled_from([DIRICHLET, PERIODIC]))
def test_grid_invariants_property(cells, rule):
    dim = len(cells)
    mesh = build_interval_mesh(*cells) if dim == 1 else build_rect_mesh(*cells)
    sp = build_space(mesh, rule)
    corners = mesh.vertices[mesh.cells]                  # (nc, dim + 1, dim)
    pts = sp.cell_data().points  # every quadrature point lies in its cell's box
    assert pts.shape[1:] == (mesh.num_cells, dim)
    assert np.all(pts >= corners.min(axis=1)) and np.all(pts <= corners.max(axis=1))
    assert mesh.max_cell_span == (corners.max(axis=1) - corners.min(axis=1)).max()
    K = assembly.assemble_stiffness(sp, ConstantMatrixCoefficient(np.eye(dim)))
    M = assembly.assemble_mass(sp)
    for mat in (K, M):
        assert np.array_equal(mat.toarray(), mat.T.toarray())
    # on a full SPD field the local stiffness is the einsum contraction's
    # arithmetic, bit for bit
    cd = sp.cell_data()
    rng = np.random.default_rng(sp.num_dofs)
    B = rng.normal(size=(*cd.points.shape[:2], dim, dim))
    A = B @ np.swapaxes(B, -1, -2) + np.eye(dim)
    Ka = assembly.assemble_stiffness(sp, SimpleNamespace(
        name="random", feature_scale=lambda h: None, matrix_at=lambda h, x: A))
    GA = np.einsum("cik,ckl->cil", cd.grads, np.einsum("q,qcij->cij", cd.weights, A))
    local = np.einsum("cil,cjl->cij", GA, cd.grads) * cd.measure[:, None, None]
    data = np.add.reduceat(local.ravel()[sp.pattern.gather], sp.pattern.starts)
    assert Ka.data.tobytes() == data.tobytes()
    # the cached pattern scatters like scipy's COO sum of the same local matrices
    w = rng.uniform(0.5, 2.0, size=cd.points.shape[:2])
    Mw = assembly.assemble_mass(sp, SourceFamily(name="random", values=lambda h, x: w,
                                                 limit=lambda x: w))
    local = np.einsum("qc,qi,qj->cij", cd.weights[:, None] * w * cd.measure, cd.phi, cd.phi)
    rows, cols = np.broadcast_arrays(cd.dofs[:, :, None], cd.dofs[:, None, :])
    keep = (rows >= 0) & (cols >= 0)
    ref = sparse.coo_matrix((local[keep], (rows[keep], cols[keep])),
                            shape=Mw.shape).tocsr()
    assert np.array_equal(Mw.indices, ref.indices) and np.array_equal(Mw.indptr, ref.indptr)
    np.testing.assert_allclose(Mw.data, ref.data, rtol=1e-14, atol=0.0)
    if rule == PERIODIC:
        assert sp.num_dofs == np.prod(cells)
        grid = sp.dof_of_vertex.reshape([n + 1 for n in cells])
        for axis in range(dim):  # opposite faces share their dofs
            assert np.array_equal(np.take(grid, 0, axis), np.take(grid, -1, axis))
        ones = np.ones(sp.num_dofs)
        assert np.abs(K @ ones).max() <= 1e-12 * abs(K).max()
        assert ones @ (M @ ones) == pytest.approx(1.0, rel=1e-12)
