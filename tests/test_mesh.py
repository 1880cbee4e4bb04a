import math
import tracemalloc

import numpy as np
import pytest

from gconv.mesh import (
    DIRICHLET,
    PERIODIC,
    QUADRATURE,
    build_interval_mesh,
    build_rect_mesh,
    build_space,
)


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
    u = sp.interpolate(lambda x: x**2)
    assert np.allclose(u, sp.dof_coordinates()[:, 0] ** 2)


def test_pattern_build_peak_memory():
    # the pattern build sets the peak memory of a large periodic cell
    # problem; numpy reports its array buffers to tracemalloc
    sp = build_space(build_rect_mesh(128, 128), PERIODIC)
    sp.cell_data()   # the geometry it reads is built before, and kept
    tracemalloc.start()
    try:
        pattern = sp.pattern
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4.5 * sum(a.nbytes for a in pattern)
