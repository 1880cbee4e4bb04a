import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gconv import assembly
from gconv.families import ConstantMatrixCoefficient
from gconv.mesh import (
    DIRICHLET,
    PERIODIC,
    QUADRATURE,
    build_interval_mesh,
    build_rect_mesh,
    build_space,
    transfer,
)

from conftest import peak_bytes


def test_interval_mesh_uniform():
    m = build_interval_mesh(4)
    assert np.allclose(m.vertices[:, 0], [0.0, 0.25, 0.5, 0.75, 1.0])
    assert m.boundary.sum() == 2
    assert m.boundary[0] and m.boundary[-1]


def test_interval_mesh_single_cell():
    m = build_interval_mesh(1)
    assert m.num_cells == 1
    assert m.boundary.all()


@pytest.mark.parametrize("dim,degree", [(1, 7), (2, 2)])
def test_one_quadrature_rule_per_dimension(dim, degree):
    # weights summing to one average x^p (1D) or x^p y^q (2D) over the
    # reference cell, whose exact mean is dim! p! q! / (p + q + dim)!; the
    # rule is exact through its degree and not one degree further
    ref, weights = QUADRATURE[dim]
    assert ref.shape == (weights.size, dim) and abs(weights.sum() - 1.0) <= 1e-15
    for total in range(degree + 2):
        powers = [(total,)] if dim == 1 else [(p, total - p) for p in range(total + 1)]
        errors = [weights @ np.prod(ref ** np.array(pw), axis=1)
                  - math.factorial(dim) * math.prod(map(math.factorial, pw))
                  / math.factorial(total + dim) for pw in powers]
        assert (np.abs(errors).max() <= 1e-14) == (total <= degree), (total, errors)
    if dim == 2:  # strictly inside: a jump along a cell edge is sampled on one side
        assert np.all(ref > 0.0) and np.all(ref.sum(axis=1) < 1.0)


def _cell_measures(mesh):
    return build_space(mesh, DIRICHLET).cell_data().measure


def test_interval_mesh_scaled():
    for n_cells in (4, 8):  # cells of the unit interval scale as 1 / n
        assert np.allclose(_cell_measures(build_interval_mesh(n_cells)), 1.0 / n_cells)


@pytest.mark.parametrize("n_cells", [0, -3])
def test_interval_mesh_rejects_bad_count(n_cells):
    with pytest.raises(ValueError):
        build_interval_mesh(n_cells)


@pytest.mark.parametrize("nx,ny", [(0, 3), (3, 0), (-2, 4), (4, -1)])
def test_rect_mesh_rejects_bad_count(nx, ny):
    with pytest.raises(ValueError):
        build_rect_mesh(nx, ny)


def _reference_grid(cells):
    """The grid built explicitly, axis by axis: vertices, cells and boundary."""
    if len(cells) == 1:
        (n,) = cells
        verts = np.linspace(0.0, 1.0, n + 1)[:, None]
        simplices = np.column_stack([np.arange(n), np.arange(1, n + 1)])
        boundary = np.zeros(n + 1, dtype=bool)
        boundary[0] = boundary[-1] = True
        return verts, simplices, boundary
    nx, ny = cells
    X, Y = np.meshgrid(np.linspace(0.0, 1.0, nx + 1), np.linspace(0.0, 1.0, ny + 1),
                       indexing="ij")
    verts = np.column_stack([X.ravel(), Y.ravel()])
    I, J = (a.ravel() for a in np.meshgrid(np.arange(nx), np.arange(ny), indexing="ij"))
    v00, v10 = I * (ny + 1) + J, (I + 1) * (ny + 1) + J
    v11, v01 = v10 + 1, v00 + 1
    simplices = np.empty((2 * nx * ny, 3), dtype=np.int64)
    simplices[0::2] = np.column_stack([v00, v10, v11])  # lower triangle first
    simplices[1::2] = np.column_stack([v00, v11, v01])
    gi = np.repeat(np.arange(nx + 1), ny + 1)
    gj = np.tile(np.arange(ny + 1), nx + 1)
    boundary = (gi == 0) | (gi == nx) | (gj == 0) | (gj == ny)
    return verts, simplices, boundary


@settings(derandomize=True, deadline=None, max_examples=80)
@given(cells=st.one_of(st.tuples(st.integers(1, 64)),
                       st.tuples(st.integers(1, 64), st.integers(1, 64))))
def test_grid_builders_match_the_explicit_construction(cells):
    mesh = (build_interval_mesh if len(cells) == 1 else build_rect_mesh)(*cells)
    assert mesh.dimension == len(cells) and mesh.structure == cells
    for got, want in zip((mesh.vertices, mesh.cells, mesh.boundary), _reference_grid(cells)):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()  # bit for bit


def test_rect_mesh_counts():
    m = build_rect_mesh(2, 2)
    assert m.num_vertices == 9
    assert m.num_cells == 8
    m = build_rect_mesh(4, 2)
    assert m.num_vertices == 15
    assert m.num_cells == 16


def test_rect_mesh_single_square():
    m = build_rect_mesh(1, 1)
    assert m.num_cells == 2
    assert np.allclose(_cell_measures(m), 0.5)


@pytest.mark.parametrize("builder,args,measure", [
    (build_interval_mesh, (7,), 1.0),
    (build_interval_mesh, (5,), 1.0),
    (build_rect_mesh, (3, 5), 1.0),
])
def test_cell_measures_sum_to_domain(builder, args, measure):
    cell_measures = _cell_measures(builder(*args))
    assert abs(cell_measures.sum() - measure) <= 1e-12 * measure
    assert np.all(cell_measures > 0)


def test_every_vertex_referenced():
    for m in (build_interval_mesh(6), build_rect_mesh(3, 4)):
        assert np.array_equal(np.unique(m.cells), np.arange(m.num_vertices))


def test_dirichlet_space_counts():
    assert build_space(build_interval_mesh(4), DIRICHLET).num_dofs == 3
    assert build_space(build_rect_mesh(2, 2), DIRICHLET).num_dofs == 1


def test_dirichlet_dofs_are_interior():
    sp = build_space(build_rect_mesh(4, 3), DIRICHLET)
    assert not sp.mesh.boundary[sp.dof_vertices].any()
    owned = sp.dof_of_vertex >= 0
    assert not (owned & sp.mesh.boundary).any()


def test_periodic_space_counts():
    assert build_space(build_interval_mesh(4), PERIODIC).num_dofs == 4
    assert build_space(build_rect_mesh(2, 2), PERIODIC).num_dofs == 4


def test_periodic_identification_idempotent():
    sp = build_space(build_rect_mesh(3, 3), PERIODIC)
    # the representative of every dof maps to itself
    reps = sp.dof_vertices
    assert np.array_equal(sp.dof_of_vertex[reps], np.arange(sp.num_dofs))
    # identification preserves cell measures
    assert abs(sp.cell_data().measure.sum() - 1.0) <= 1e-12


def test_unknown_rule_rejected():
    with pytest.raises(ValueError):
        build_space(build_interval_mesh(4), "neumann")


def test_interpolate_nodal_values():
    sp = build_space(build_interval_mesh(8), DIRICHLET)
    u = sp.interpolate(lambda p: p[:, 0] ** 2)
    assert np.allclose(u, sp.dof_coordinates()[:, 0] ** 2)
    # points (n, dim) in 2D too, as every family callable reads them
    sq = build_space(build_rect_mesh(4, 4), DIRICHLET)
    u = sq.interpolate(lambda p: p[:, 0] * p[:, 1] ** 2)
    x, y = sq.dof_coordinates().T
    assert np.array_equal(u, x * y ** 2)


def test_pattern_build_peak_memory():
    # the pattern build is the largest transient of a periodic stiffness's
    # first assembly: the sorted keys are taken one block at a time
    sp = build_space(build_rect_mesh(128, 128), PERIODIC)
    sp.cell_data()   # the geometry it reads is built before, and kept
    peak, pattern = peak_bytes(lambda: sp.pattern)
    assert peak <= 3.8 * sum(a.nbytes for a in pattern)


@pytest.mark.parametrize("build", [
    lambda: build_space(build_interval_mesh(3000), DIRICHLET),
    lambda: build_space(build_rect_mesh(30, 20), PERIODIC),
    lambda: build_space(build_rect_mesh(2, 300), PERIODIC),
], ids=["1d-dirichlet", "2d-periodic", "2d-two-cell-axis"])
def test_pattern_is_the_same_in_any_blocks(monkeypatch, build):
    # the keys are sorted whole and read one block at a time: wherever the
    # block edges fall, between equal keys too, the pattern is the one-block one
    monkeypatch.setattr("gconv.mesh.PATTERN_BLOCK", 1 << 40)
    whole = build().pattern
    assert len(whole.gather) > 1000
    for block in (1, 2, 7, 1000):
        monkeypatch.setattr("gconv.mesh.PATTERN_BLOCK", block)
        for got, want in zip(build().pattern, whole):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), block


@pytest.mark.parametrize("space", [
    lambda: build_space(build_rect_mesh(128, 128), PERIODIC),
    lambda: build_space(build_interval_mesh(16384), DIRICHLET),
], ids=["2d-periodic", "1d-dirichlet"])
def test_cell_data_build_peak_memory(space):
    # one corner gather, then the points, then the gradients, each temporary
    # gone before the next is made: the build's peak stays within a small
    # margin over the arrays it keeps
    sp = space()
    peak, cd = peak_bytes(sp.cell_data)
    assert peak <= 1.4 * sum(a.nbytes for a in (cd.dofs, cd.measure, cd.grads, cd.points))


def _reference_cell_data(space):
    """dofs, measure, grads and points of every cell from its vertices[cells]
    corners, cell-major, in the arithmetic the space's cell data keeps."""
    mesh, dim = space.mesh, space.mesh.dimension
    corners = mesh.vertices[mesh.cells]                 # (nc, dim + 1, dim)
    e = corners[:, 1:] - corners[:, :1]                 # e[c, m]: edge m
    grads = np.empty((mesh.num_cells, dim + 1, dim))
    if dim == 1:
        measure = e[:, 0, 0]
        grads[:, 1, 0] = 1.0 / measure
    else:
        measure = 0.5 * (e[:, 0, 0] * e[:, 1, 1] - e[:, 0, 1] * e[:, 1, 0])
        det = 2.0 * measure
        grads[:, 1, 0] = e[:, 1, 1] / det
        grads[:, 1, 1] = -e[:, 1, 0] / det
        grads[:, 2, 0] = -e[:, 0, 1] / det
        grads[:, 2, 1] = e[:, 0, 0] / det
    grads[:, 0] = -grads[:, 1:].sum(axis=1)
    ref = QUADRATURE[dim][0]
    points = corners[None, :, 0]
    for k in range(dim):  # (x0 + r0 e0) + r1 e1
        points = points + ref[:, k, None, None] * e[None, :, k]
    return space.dof_of_vertex[mesh.cells], measure, grads, points


@settings(derandomize=True, deadline=None, max_examples=80)
@given(cells=st.one_of(st.tuples(st.integers(1, 512)),
                       st.tuples(st.integers(1, 40), st.integers(1, 40))),
       rule=st.sampled_from([DIRICHLET, PERIODIC]))
@example(cells=(255,), rule=DIRICHLET)  # linspace steps that differ by an ulp
@example(cells=(37,), rule=PERIODIC)
@example(cells=(3, 7), rule=DIRICHLET)
@example(cells=(33, 40), rule=PERIODIC)
def test_cell_data_matches_the_explicit_construction(cells, rule):
    mesh = (build_interval_mesh if len(cells) == 1 else build_rect_mesh)(*cells)
    sp = build_space(mesh, rule)
    cd = sp.cell_data()
    for got, want in zip(cd, _reference_cell_data(sp)):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()  # bit for bit
        assert not got.flags.writeable
    # stored by component: every column a kernel reads is one contiguous run
    nb, dim = cd.grads.shape[1:]
    columns = [cd.grads[:, i, k] for i in range(nb) for k in range(dim)]
    for col in columns + [cd.points[..., k] for k in range(dim)]:
        assert col.flags.c_contiguous and not col.flags.writeable


def _float_interpolation(space_from, u, space_to):
    """P1 interpolation that locates points in floating point, with a clip
    at the upper faces: the reference for ``transfer``, nested or not."""
    mesh = space_from.mesh
    coords = space_to.dof_coordinates()
    dof = space_from.dof_of_vertex
    full = np.where(dof >= 0, u[dof], 0.0)
    if mesh.dimension == 1:
        return np.interp(coords[:, 0], mesh.vertices[:, 0], full)
    nx, ny = mesh.structure
    grid = full.reshape(nx + 1, ny + 1)
    gx = np.clip(coords[:, 0] / (1.0 / nx), 0.0, nx * (1 - 1e-15))
    gy = np.clip(coords[:, 1] / (1.0 / ny), 0.0, ny * (1 - 1e-15))
    i = np.floor(gx).astype(int)
    j = np.floor(gy).astype(int)
    xi = gx - i
    eta = gy - j
    v00, v10 = grid[i, j], grid[i + 1, j]
    v11, v01 = grid[i + 1, j + 1], grid[i, j + 1]
    vals_low = v00 * (1.0 - xi) + v10 * (xi - eta) + v11 * eta
    vals_up = v00 * (1.0 - eta) + v11 * xi + v01 * (eta - xi)
    return np.where(xi >= eta, vals_low, vals_up)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(dim=st.sampled_from([1, 2]), rule=st.sampled_from([DIRICHLET, PERIODIC]),
       cells=st.integers(2, 6), ratio=st.integers(1, 4), other=st.integers(2, 25))
def test_transfer_property(dim, rule, cells, ratio, other):
    def space(n):
        return build_space(build_interval_mesh(n) if dim == 1 else build_rect_mesh(n, n),
                           rule)

    coarse, fine, apart = space(cells), space(ratio * cells), space(other)
    # a grid onto itself: the identity, bit for bit
    same = transfer(coarse, coarse)
    assert same.nnz == coarse.num_dofs
    assert np.array_equal(same.toarray(), np.eye(coarse.num_dofs))
    P = transfer(coarse, fine)
    pairs = [(coarse, fine), (fine, coarse), (coarse, apart), (apart, coarse)]
    if rule == PERIODIC:  # every point sits in a cell whose corners all own dofs
        for s, t in pairs:
            assert np.abs(transfer(s, t) @ np.ones(s.num_dofs) - 1.0).max() <= 1e-15
    # nested P1 spaces: the Galerkin product of the unit stiffness is the
    # coarse unit stiffness
    unit = ConstantMatrixCoefficient(np.eye(dim))
    K_to, K_from = (assembly.assemble_stiffness(s, unit) for s in (fine, coarse))
    assert np.abs((P.T @ K_to @ P - K_from).toarray()).max() <= 1e-12
    # either direction, nested or not: the floating-point location's values
    rng = np.random.default_rng(cells * 100 + other)
    for s, t in pairs:
        u = rng.normal(size=s.num_dofs)
        ref = _float_interpolation(s, u, t)
        assert np.abs(transfer(s, t) @ u - ref).max() <= 1e-13 * np.abs(u).max()
