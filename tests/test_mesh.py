import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gconv import assembly
from gconv.families import ConstantMatrixCoefficient
from gconv.mesh import (
    _GRID_SIMPLICES,
    DIRICHLET,
    PATTERN_BLOCK,
    PERIODIC,
    QUADRATURE,
    SymmetricPattern,
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


@pytest.mark.parametrize("cells", [(1,), (2,), (5,), (1, 4), (2, 2), (3, 7), (33, 40)])
def test_periodic_representatives_are_the_first_vertices(cells):
    # each dof's representative is its grid point below the upper faces: the
    # first vertex that maps to it
    sp = build_space((build_interval_mesh if len(cells) == 1 else build_rect_mesh)(*cells),
                     PERIODIC)
    want = np.unique(sp.dof_of_vertex, return_index=True)[1]
    assert sp.dof_vertices.dtype == want.dtype and np.array_equal(sp.dof_vertices, want)


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
    # first assembly: one table the size of the gather, transposed once, and
    # the entries' columns filled in place
    for space in (build_space(build_rect_mesh(128, 128), PERIODIC),
                  build_space(build_rect_mesh(128, 128), DIRICHLET),
                  build_space(build_interval_mesh(1 << 16), DIRICHLET)):
        peak, pattern = peak_bytes(lambda: space.pattern)
        assert peak <= 3.8 * sum(a.nbytes for a in pattern), space.mesh.structure


def _reference_pattern(space) -> SymmetricPattern:
    """The pattern by one stable sort of every term's (row, col) key, read in
    blocks: the builder the stencil tables replaced, kept as their oracle."""
    dofs = space.cell_data().dofs
    nd = dofs.shape[1]
    n = space.num_dofs
    kept = dofs >= 0
    pairs = [(i, j) for i in range(nd) for j in range(i, nd)]
    sizes = [(1 + (i != j)) * np.count_nonzero(kept[:, i] & kept[:, j])
             for i, j in pairs]
    simplices = _GRID_SIMPLICES[space.mesh.dimension]
    # sort key row * n + col and local entry of every orientation, each
    # cell's two side by side, filled in place: this build is the largest
    # transient of a large periodic level, so each temporary goes once used
    key = np.empty(sum(sizes), dtype=np.int64)
    src = np.empty(sum(sizes), dtype=np.int32)
    at = 0
    for (i, j), size in zip(pairs, sizes):
        cell = np.flatnonzero(kept[:, i] & kept[:, j])
        if i == j and len(simplices) > 1:
            # a dof's cells as local vertex i, one of each simplex type, in the
            # order of their grid squares, as an interior dof has them in cell
            # order: a periodic dof at the wrap sums its diagonal in the same
            # order, not in the wrapped squares' order
            ranked = sorted(range(len(simplices)),
                            key=lambda t: ([-o for o in simplices[t][i]], t))
            cell = np.concatenate([cell[cell % len(simplices) == t] for t in ranked])
        r, c, step = dofs[cell, i], dofs[cell, j], 1 + (i != j)
        for k, (a, b) in enumerate([(r, c), (c, r)][:step]):
            key[at + k:at + size:step] = a * n + b
            src[at + k:at + size:step] = cell * (nd * nd) + (i * nd + j)
        at += size
    del kept, cell, r, c, a, b
    order = np.argsort(key, kind="stable")
    gather = src[order]
    del src
    # the sorted keys by block, never whole: where each new key starts
    starts, keys, prev = [], [], -1
    for lo in range(0, order.size, PATTERN_BLOCK):
        block = key[order[lo:lo + PATTERN_BLOCK]]
        new = np.flatnonzero(np.diff(block, prepend=prev))  # ascending keys
        starts.append((new + lo).astype(np.int32))
        keys.append(block[new])
        prev = block[-1]
    del key, order
    starts, key = np.concatenate(starts), np.concatenate(keys)
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.bincount(key // n, minlength=n), out=indptr[1:])
    return SymmetricPattern(gather, starts, (key % n).astype(np.int32), indptr)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(cells=st.one_of(st.tuples(st.integers(1, 600)),
                       st.tuples(st.integers(1, 40), st.integers(1, 40))),
       rule=st.sampled_from([DIRICHLET, PERIODIC]))
@example(cells=(255,), rule=DIRICHLET)
@example(cells=(2, 300), rule=PERIODIC)    # an axis of 2 cells: entries alias
@example(cells=(1, 4), rule=PERIODIC)      # an axis of 1 cell
@example(cells=(2, 2), rule=PERIODIC)
@example(cells=(2, 2), rule=DIRICHLET)     # one dof
@example(cells=(33, 40), rule=DIRICHLET)
@example(cells=(33, 40), rule=PERIODIC)
def test_pattern_matches_the_sorted_keys(cells, rule):
    # the stencil tables give the stable sort's pattern bit for bit: the same
    # entries, each summing the same terms in the same order
    space = build_space((build_interval_mesh if len(cells) == 1 else build_rect_mesh)(*cells),
                        rule)
    pattern = space.pattern
    if space.num_dofs == 0:  # a Dirichlet axis of 1 cell; assembly refuses the space
        assert [a.tolist() for a in pattern] == [[], [], [], [0]]
        want = [np.empty(0, dtype=np.int32)] * 3 + [np.zeros(1, dtype=np.int32)]
    else:
        want = _reference_pattern(space)
    for got, ref in zip(pattern, want):
        assert got.dtype == ref.dtype == np.int32
        assert got.tobytes() == ref.tobytes()
        assert not got.flags.writeable


def test_grid_setup_sorts_nothing(monkeypatch):
    # the order of every row comes from its kind's representative, and each
    # periodic dof's representative from its grid point: no sort of the
    # grid's entries, and no unique of its dofs
    def refuse(*args, **kwargs):
        raise AssertionError("the grid set-up sorted")

    for name in ("argsort", "sort", "lexsort", "unique"):
        monkeypatch.setattr(np, name, refuse)
    for cells in [(9, 7), (2, 5), (1, 3), (50,), (1,)]:
        mesh = (build_interval_mesh if len(cells) == 1 else build_rect_mesh)(*cells)
        for rule in (DIRICHLET, PERIODIC):
            build_space(mesh, rule).pattern


def _diagonal_sources(space) -> list:
    """Per dof of a 2D space, the (local entry, simplex type) of each term its
    diagonal sums, in order; a grid square's cells are its lower then upper
    triangle, so a cell's type is its index's parity."""
    pattern, nd = space.pattern, space.mesh.dimension + 1
    ends = np.append(pattern.starts[1:], pattern.gather.size)
    out = []
    for i in range(space.num_dofs):
        k = pattern.indptr[i] + np.flatnonzero(
            pattern.indices[pattern.indptr[i]:pattern.indptr[i + 1]] == i)[0]
        g = pattern.gather[pattern.starts[k]:ends[k]]
        out.append([(int(e), int(c) % 2) for c, e in zip(g // nd ** 2, g % nd ** 2)])
    return out


@pytest.mark.parametrize("cells", [(8, 8), (5, 3), (1, 4), (2, 2)])
def test_dirichlet_pattern_sums_in_cell_order(cells):
    # every entry of a Dirichlet matrix sums its terms by local pair, then in
    # cell order: the plain stable sort of the keys, so its bits are kept
    for space in (build_space(build_rect_mesh(*cells), DIRICHLET),
                  build_space(build_interval_mesh(cells[0] * cells[1]), DIRICHLET)):
        dofs, nd = space.cell_data().dofs, space.mesh.dimension + 1
        keys, srcs = [], []
        for i in range(nd):
            for j in range(i, nd):
                cell = np.flatnonzero((dofs[:, i] >= 0) & (dofs[:, j] >= 0))
                for a, b in [(i, j), (j, i)][:1 + (i != j)]:
                    keys.append(dofs[cell, a] * space.num_dofs + dofs[cell, b])
                    srcs.append(cell * nd * nd + i * nd + j)
        # each cell's two orientations side by side, as the pattern builds them
        order = np.argsort(np.concatenate(keys), kind="stable")
        want = np.concatenate(srcs)[order]
        if space.num_dofs:
            assert np.array_equal(space.pattern.gather, want)


@pytest.mark.parametrize("cells", [(8, 8), (3, 5), (2, 2), (16, 4)])
def test_periodic_diagonal_sums_every_dof_in_the_interior_order(cells):
    # a periodic dof at the wrap sums its six cell terms in the order an
    # interior dof of a Dirichlet grid does, so a laminate's diagonal is the
    # same along a grid row bit for bit
    interior = _diagonal_sources(build_space(build_rect_mesh(8, 8), DIRICHLET))
    assert all(terms == interior[0] for terms in interior)
    for terms in _diagonal_sources(build_space(build_rect_mesh(*cells), PERIODIC)):
        assert terms == interior[0]


@pytest.mark.parametrize("space", [
    lambda: build_space(build_rect_mesh(128, 128), PERIODIC),
    lambda: build_space(build_interval_mesh(16384), DIRICHLET),
], ids=["2d-periodic", "1d-dirichlet"])
def test_cell_data_build_peak_memory(space):
    # the gradients once per simplex type, then one gather of each cell's first
    # corner and the points, the gather gone before the dofs are taken: the
    # build's peak stays within a small margin over the arrays it keeps
    sp = space()
    peak, cd = peak_bytes(sp.cell_data)
    assert peak <= 1.4 * sum(a.nbytes for a in (cd.dofs, cd.measure, cd.grads, cd.points))


def _reference_cell_data(space):
    """dofs, measure, grads and points of every cell, cell-major: its edges are
    its corners' grid index differences times each axis's step 1 / n, and its
    points are its first corner plus the reference points' multiples of them."""
    mesh, dim = space.mesh, space.mesh.dimension
    step = 1.0 / np.array(mesh.structure)
    index = np.stack(np.unravel_index(mesh.cells, [n + 1 for n in mesh.structure]), -1)
    e = (index[:, 1:] - index[:, :1]) * step            # e[c, m]: edge m
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
    points = mesh.vertices[mesh.cells[:, 0]][None]
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


@pytest.mark.parametrize("cells,rule", [
    ((255,), DIRICHLET), ((37,), PERIODIC), ((3, 7), DIRICHLET), ((33, 40), PERIODIC)],
    ids=["255", "37-periodic", "3x7", "33x40-periodic"])
def test_cells_of_one_type_are_congruent(cells, rule):
    # every grid square holds one cell of each simplex type, in the same order;
    # cells of one type have the same measure and gradients to the bit, so a
    # stiffness with layered coefficients is exactly layered on any grid
    cd = build_space((build_interval_mesh if len(cells) == 1 else build_rect_mesh)(*cells),
                     rule).cell_data()
    types = cd.measure.size // math.prod(cells)
    for data in (cd.measure, cd.grads):
        by_type = data.reshape((-1, types) + data.shape[1:])
        assert (by_type == by_type[:1]).all()


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
