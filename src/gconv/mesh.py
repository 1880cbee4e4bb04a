"""Structured unit interval and unit square meshes with a P1 nodal space.

Convergence ladders need a tightly controlled mesh size, so only uniform
structured meshes are provided.  The mesh size is called delta throughout
the package; h always indexes a coefficient sequence, never the mesh.

Each dimension has one quadrature rule, ``QUADRATURE``.  What assembly
needs that depends only on the space (cell geometry, quadrature points, the
sparsity pattern) is computed once per space, on first use, and stored
read-only on the space itself.  The cell data is stored by component: the
gradients ``(nc, dim + 1, dim)`` and the points ``(nq, nc, dim)`` keep their
shapes, but each is a view of a ``(dim + 1, dim, nc)`` or ``(dim, nq, nc)``
array, so every column ``grads[:, i, k]`` and ``points[..., k]`` that a
kernel reads is contiguous.  The geometry comes once per simplex type from
the grid's steps, so cells of one type are congruent to the bit on any grid.
The pattern comes from the grid's stencil: every row of one kind (per axis,
at the low end, the high end, both or neither) has the same terms in the
same order, so one representative row per kind orders them all, and no
entry of the grid is sorted.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, reduce
from typing import NamedTuple

import numpy as np
from scipy import sparse

DIRICHLET = "dirichlet-zero"
PERIODIC = "periodic"
# CSR entries per block of assembly's sums over a pattern: a block's
# transients take about 0.5 MiB, where a whole pass's are the size of the pattern
PATTERN_BLOCK = 1 << 14


def _read_only(*arrays):
    for a in arrays:
        a.flags.writeable = False
    return arrays


_GAUSS = np.polynomial.legendre.leggauss(4)
# the one quadrature rule of each dimension: reference points (nq, dim) and
# weights summing to one.  On [0, 1] the 4-point Gauss rule, exact through
# degree 7; on the reference triangle the interior 3-point rule, exact for
# quadratics, whose points never land on cell edges, so coefficients with
# mesh-aligned jumps are sampled on the correct side
QUADRATURE = {
    1: _read_only(0.5 * (_GAUSS[0][:, None] + 1.0), 0.5 * _GAUSS[1]),
    2: _read_only(np.array([[1.0 / 6.0, 1.0 / 6.0],
                            [2.0 / 3.0, 1.0 / 6.0],
                            [1.0 / 6.0, 2.0 / 3.0]]), np.array([1.0, 1.0, 1.0]) / 3.0),
}


@dataclass(frozen=True, eq=False)
class Mesh:
    """Simplicial mesh: vertex coordinates, connectivity, boundary flags.

    The domain is the unit interval or square.  ``structure`` records how
    the mesh was built: the cells per axis; vertices are the grid points in
    C order.  Instances are immutable after construction.
    """

    dimension: int
    vertices: np.ndarray   # (nv, dimension)
    cells: np.ndarray      # (nc, dimension + 1) vertex indices
    boundary: np.ndarray   # (nv,) bool
    structure: tuple

    @property
    def num_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def num_cells(self) -> int:
        return self.cells.shape[0]

    @cached_property
    def max_cell_span(self) -> float:
        """Largest per-axis extent of any cell (drives the resolution rule).

        A cell spans one step of every grid axis, so this is the largest
        step between the axes' grid points, the same bits as the cell corners.
        """
        return max(axis_step(n) for n in self.structure)


def axis_step(n: int) -> float:
    """Largest step between the grid points of a unit axis of n cells."""
    return float(np.diff(np.linspace(0.0, 1.0, n + 1)).max())


class CellData(NamedTuple):
    """Per-cell P1 data of a space under its dimension's quadrature rule."""

    dofs: np.ndarray      # (nc, dim + 1) dof of each local vertex, -1 if eliminated
    measure: np.ndarray   # (nc,) cell lengths or areas
    grads: np.ndarray     # (nc, dim + 1, dim) gradients of the local basis
    points: np.ndarray    # (nq, nc, dim) physical quadrature points
    weights: np.ndarray   # (nq,) summing to one
    phi: np.ndarray       # (nq, dim + 1) local basis values at the points


class SymmetricPattern(NamedTuple):
    """CSR pattern of the global matrices plus the order that fills it.

    ``local.ravel()[gather]`` lists the upper-triangle local entries of
    every cell, off-diagonal ones twice (as (row, col) and mirrored), by
    global (row, col); ``np.add.reduceat`` over ``starts`` sums them.  The
    terms of one entry come by local pair (i, j), then, on a diagonal, by the
    rank of their simplex type (the order of a dof's grid squares, at a
    periodic wrap too), then in cell order, then (row, col) before its mirror.
    Both orientations of an entry sum the same values in the same order, so
    the global matrix is symmetric bit for bit, also where one local pair of
    a cell maps a dof pair both ways round (a periodic axis of 2 cells).
    """

    gather: np.ndarray    # int32 indices into local.ravel()
    starts: np.ndarray    # int32 first gathered entry of each CSR entry
    indices: np.ndarray   # int32 CSR column indices
    indptr: np.ndarray    # int32 CSR row pointers


@dataclass(frozen=True, eq=False)
class FeSpace:
    """P1 nodal space on a mesh with Dirichlet or periodic boundary handling.

    ``dof_of_vertex[v]`` is the degree of freedom owning vertex ``v`` or -1
    for an eliminated (Dirichlet) vertex; ``dof_vertices[i]`` is the
    representative vertex of dof ``i`` (used for nodal interpolation).
    """

    mesh: Mesh
    rule: str
    dof_of_vertex: np.ndarray
    dof_vertices: np.ndarray

    @property
    def num_dofs(self) -> int:
        return self.dof_vertices.shape[0]

    def dof_coordinates(self) -> np.ndarray:
        return self.mesh.vertices[self.dof_vertices]

    def interpolate(self, fn) -> np.ndarray:
        """Nodal interpolant: evaluate ``fn`` at the dof coordinates, points (n, dim).

        On Dirichlet spaces the boundary values of ``fn`` are discarded
        (the represented function is clamped to zero there).
        """
        vals = fn(self.dof_coordinates())
        return np.asarray(vals, dtype=float).reshape(self.num_dofs)

    def cell_data(self) -> CellData:
        """Cell geometry and ``QUADRATURE[dimension]``'s data, cached on the space."""
        return self._cell_data

    @cached_property
    def _cell_data(self) -> CellData:
        mesh, dim, nc = self.mesh, self.mesh.dimension, self.mesh.num_cells
        ref, weights = QUADRATURE[dim]
        # cells of one simplex type are congruent: e[k, m, t] is coordinate k of
        # edge m of type t, in steps 1 / n of axis k; cell c has type c % types
        offsets = np.array(_GRID_SIMPLICES[dim])   # (types, dim + 1, dim)
        types, step = len(offsets), 1.0 / np.array(mesh.structure)
        e = (offsets[:, 1:] - offsets[:, :1]).transpose(2, 1, 0) * step[:, None, None]
        grads = np.empty((dim + 1, dim, types))
        if dim == 1:
            measure = e[0, 0]
            np.divide(1.0, measure, out=grads[1, 0])
        else:
            measure = 0.5 * (e[0, 0] * e[1, 1] - e[1, 0] * e[0, 1])
            det = 2.0 * measure   # exact: the measure is half the determinant
            np.divide(e[1, 1], det, out=grads[1, 0])
            np.divide(-e[0, 1], det, out=grads[1, 1])
            np.divide(-e[1, 0], det, out=grads[2, 0])
            np.divide(e[0, 0], det, out=grads[2, 1])
        np.negative(grads[1:].sum(axis=0), out=grads[0])
        measure, grads = np.tile(measure, nc // types), np.tile(grads, nc // types)
        # the one corner gathered: x[k, s, t], coordinate k of the first corner of
        # grid square s's cell of type t, and the cell's points by_type[k, q, s, t]
        x = np.take(mesh.vertices, mesh.cells[:, 0], axis=0).T.reshape(dim, -1, types)
        pts = np.empty((dim, len(ref), nc))
        by_type = pts.reshape(dim, len(ref), -1, types)
        # (x0 + r0 e0) + r1 e1 per point: the order fixes the last bit
        for q, r in enumerate(ref):
            np.add(x, r[0] * e[:, 0, None], out=by_type[:, q])
            for m in range(1, dim):
                by_type[:, q] += r[m] * e[:, m, None]
        del x, by_type
        phi = np.column_stack([reduce(np.subtract, ref.T, 1.0), ref])  # (1 - r0) - r1
        _read_only(grads, pts)  # the views below are read-only too
        # taken last: taken first, it left the cell problem's heap 9 MiB higher
        dofs = np.take(self.dof_of_vertex, mesh.cells)
        return CellData(*_read_only(dofs, measure), grads.transpose(2, 0, 1),
                        pts.transpose(1, 2, 0), *_read_only(weights, phi))

    @cached_property
    def pattern(self) -> SymmetricPattern:
        """Symmetric CSR pattern of this space's P1 matrices (see SymmetricPattern)."""
        return _stencil_pattern(self.mesh.structure, self.rule == PERIODIC)


# each grid cell's simplices as corner offsets in grid steps: the interval; the
# square cut along its lower-left to upper-right diagonal, lower triangle first
_GRID_SIMPLICES = {1: [[(0,), (1,)]],
                   2: [[(0, 0), (1, 0), (1, 1)], [(0, 0), (1, 1), (0, 1)]]}


def _stencil_terms(simplices) -> list:
    """Every term a row of a P1 matrix can sum: (type, pair, rank, row corner,
    column corner, orientation, local entry) for each upper-triangle local pair
    (i, j) of a cell of each type, both ways round where i != j.  A diagonal
    sums a dof's cells in the order of their grid squares: its rank orders
    the types by corner i's offset, largest first."""
    nd = len(simplices[0])
    terms = []
    for pair, (i, j) in enumerate((i, j) for i in range(nd) for j in range(i, nd)):
        ranked = sorted(range(len(simplices)),
                        key=lambda t: ([-o for o in simplices[t][i]], t))
        for t in range(len(simplices)):
            for o, (a, b) in enumerate([(i, j), (j, i)][:1 + (i != j)]):
                terms.append((t, pair, ranked.index(t) if i == j else 0, a, b, o,
                              i * nd + j))
    return terms


_TERMS = {dim: _stencil_terms(simplices) for dim, simplices in _GRID_SIMPLICES.items()}


def _row_order(p: tuple, cells: tuple, periodic: bool, step: list) -> tuple:
    """The terms the row at dof grid point ``p`` sums, in the order it sums
    them: by column, then pair, rank, cell and orientation, where columns and
    cells are grid points compared axis by axis, as in C order.  Also each
    CSR entry's first term and column offset from the row, int32, for dofs
    of C-order strides ``step``."""
    simplices, shift = _GRID_SIMPLICES[len(cells)], 0 if periodic else 1
    keys = []
    for k, (t, pair, rank, a, b, o, _) in enumerate(_TERMS[len(cells)]):
        square = [pk + shift - off for pk, off in zip(p, simplices[t][a])]
        col = [s + off - shift for s, off in zip(square, simplices[t][b])]
        if periodic:
            square, col = ([v % n for v, n in zip(x, cells)] for x in (square, col))
        if all(0 <= c < n - shift for c, n in zip(col, cells)):
            keys.append((col, pair, rank, square, t, o, k))
    keys.sort()
    first = [e for e, key in enumerate(keys) if e == 0 or key[0] != keys[e - 1][0]]
    delta = [sum((c - pk) * s for c, pk, s in zip(keys[e][0], p, step)) for e in first]
    return ([key[-1] for key in keys], np.array(first, dtype=np.int32),
            np.array(delta, dtype=np.int32))


def _stencil_pattern(cells: tuple, periodic: bool) -> SymmetricPattern:
    """SymmetricPattern of the P1 space of a uniform grid, from its stencil.

    A row's terms depend on its grid point only through its kind: per axis,
    whether it is at the low end, the high end, both or neither.  The kind
    fixes which terms exist, where they wrap and the order they sum in, so
    each kind's order comes from one representative row.  The gathered entry
    of each term is affine in the row's grid point: it fills one contiguous
    column per term in an interior row's order, the columns are transposed to
    rows once, and only the rows of the other kinds are reordered and cut.
    """
    dim, shift = len(cells), 0 if periodic else 1
    simplices, terms, nd = _GRID_SIMPLICES[dim], _TERMS[dim], dim + 1
    shape = tuple(n - shift for n in cells)   # dofs per axis
    n = math.prod(shape)
    step = [math.prod(shape[k + 1:]) for k in range(dim)]   # dof strides, C order
    # an interior row, on axes of 4 cells, orders the tables' columns
    interior, first, delta = _row_order((1,) * dim, (4,) * dim, periodic, step)
    column_of = {k: c for c, k in enumerate(interior)}
    width = len(interior)
    # every row's gathered entry cell * nd**2 + entry per term: along each axis
    # the row's grid square is its grid point less the row corner's offset
    cell_step = [math.prod(cells[k + 1:]) * len(simplices) * nd * nd for k in range(dim)]
    table = np.empty((width, n), dtype=np.int32)
    for column, k in zip(table, interior):
        t, _, _, a, _, _, entry = terms[k]
        parts = []
        for m, off, stride, axis_cells in zip(shape, simplices[t][a], cell_step, cells):
            square = np.arange(shift - off, m + shift - off, dtype=np.int32)
            parts.append((square % axis_cells if periodic else square) * stride)
        *head, last = np.ix_(*parts)
        np.add(sum(head, t * nd * nd + entry), last, out=column.reshape(shape))
    gather = table.T.copy()
    del table
    # the rows of each other kind: their terms reordered from the interior
    # order, their entries' first terms and columns from one representative;
    # offset and indptr count each row's terms and entries, then sum them
    kinds = [[(1, range(1, m - 1))] + [(0, [0]), (m - 1, [m - 1])][:min(m, 2)]
             for m in shape]
    edges = []
    offset = np.full(n + 1, width, dtype=np.int32)
    indptr = np.full(n + 1, first.size, dtype=np.int32)
    for kind in list(itertools.product(*kinds))[1:]:   # the first is the interior
        at = np.ravel_multi_index(np.ix_(*[r for _, r in kind]), shape).ravel()
        if at.size == 0:
            continue
        row, edge_first, edge_delta = _row_order(tuple(rep for rep, _ in kind), cells,
                                                 periodic, step)
        gather[at, :len(row)] = gather[at[:, None], [column_of[k] for k in row]]
        offset[at + 1], indptr[at + 1] = len(row), edge_first.size
        edges.append((at, edge_first, edge_delta))
    offset[0] = indptr[0] = 0
    np.cumsum(offset, out=offset)
    np.cumsum(indptr, out=indptr)
    gather = _cut(gather, offset)
    # each entry's first term and column, filled one strided column at a time
    rows = np.arange(n, dtype=np.int32)
    starts, indices = (np.empty((n, first.size), dtype=np.int32) for _ in range(2))
    for e in range(first.size):
        np.add(offset[:-1], first[e], out=starts[:, e])
        np.add(rows, delta[e], out=indices[:, e])
    for at, edge_first, edge_delta in edges:
        starts[at, :edge_first.size] = offset[at, None] + edge_first
        indices[at, :edge_delta.size] = at[:, None] + edge_delta
    return SymmetricPattern(*_read_only(gather, _cut(starts, indptr),
                                        _cut(indices, indptr), indptr))


def _cut(rows: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """The first ``ends[r + 1] - ends[r]`` columns of each row ``r``, flattened:
    a row short of the table's width loses its last columns."""
    width = rows.shape[1]
    flat = rows.reshape(-1)
    counts = np.diff(ends)
    short = np.flatnonzero(counts < width)
    if short.size == 0:
        return flat
    # the runs between the short rows' missing columns, one copy in all
    lo = np.append(0, (short + 1) * width)
    hi = np.append(short * width + counts[short], flat.size)
    return np.concatenate([flat[a:b] for a, b in zip(lo.tolist(), hi.tolist())])


def _grid_mesh(cells: tuple) -> Mesh:
    """Uniform grid of the unit interval or square, ``cells`` cells per axis:
    the vertices are the grid points in C order, and every square is split
    along the same diagonal, so refinement studies reproduce golden values."""
    if min(cells) < 1:
        raise ValueError(f"cells per axis must be >= 1, got {cells}")
    dim, shape = len(cells), tuple(n + 1 for n in cells)
    vertices = np.empty(shape + (dim,))
    for k, m in enumerate(shape):  # axis k's points, broadcast over the later axes
        vertices[..., k] = np.linspace(0.0, 1.0, m).reshape((m,) + (1,) * (dim - 1 - k))
    ids = np.arange(math.prod(shape)).reshape(shape)
    corners = ids[tuple(slice(n) for n in cells)].ravel()
    local = np.array([[ids[c] for c in simplex] for simplex in _GRID_SIMPLICES[dim]])
    # filled in place: freeing a temporary of this size moved glibc's mmap
    # threshold and with it the peak RSS of a whole 2D sweep
    simplices = np.empty((corners.size,) + local.shape, dtype=np.int64)
    for (s, j), offset in np.ndenumerate(local):
        np.add(corners, offset, out=simplices[:, s, j])
    boundary = np.ones(shape, dtype=bool)
    boundary[tuple(slice(1, -1) for _ in shape)] = False
    return Mesh(dim, vertices.reshape(-1, dim), simplices.reshape(-1, dim + 1),
                boundary.ravel(), cells)


def build_interval_mesh(n_cells: int) -> Mesh:
    """Uniform mesh of the unit interval with ``n_cells`` cells."""
    return _grid_mesh((n_cells,))


def build_rect_mesh(nx: int, ny: int) -> Mesh:
    """Structured triangulation of the unit square, 2 triangles per grid square."""
    return _grid_mesh((nx, ny))


def build_space(mesh: Mesh, rule: str = DIRICHLET) -> FeSpace:
    """Attach a dof map to a mesh under a boundary rule.

    ``dirichlet-zero`` assigns dofs to interior vertices only (conforming
    zero-trace subspace); ``periodic`` identifies opposite-face vertices of
    the structured box, leaving one dof per cell of the grid.
    """
    if rule == DIRICHLET:
        dof_of_vertex = np.full(mesh.num_vertices, -1, dtype=np.int64)
        interior = np.flatnonzero(~mesh.boundary)
        dof_of_vertex[interior] = np.arange(interior.size)
        return FeSpace(mesh, rule, dof_of_vertex, interior)
    if rule == PERIODIC:
        cells = mesh.structure
        points = [n + 1 for n in cells]
        grid = np.unravel_index(np.arange(mesh.num_vertices), points)
        dof_of_vertex = np.ravel_multi_index(grid, cells, mode="wrap")
        # each dof's first vertex is its grid point below the upper faces
        reps = np.ravel_multi_index(np.indices(cells).reshape(len(cells), -1), points)
        return FeSpace(mesh, rule, dof_of_vertex, reps)
    raise ValueError(f"unknown boundary rule '{rule}'")


def build_dirichlet_space(dim: int, n: int) -> FeSpace:
    """Dirichlet P1 space on the unit interval or square, n cells per side."""
    mesh = build_interval_mesh(n) if dim == 1 else build_rect_mesh(n, n)
    return build_space(mesh, DIRICHLET)


def transfer(space_from: FeSpace, space_to: FeSpace) -> sparse.csr_matrix:
    """P1 interpolation of ``space_from`` functions at ``space_to``'s dofs, 1D or 2D.

    Points are located in integer arithmetic: grid point g / b of a b-cell
    axis lies in cell c = min(g a // b, a - 1) of an a-cell axis, at local
    coordinate (g a - c b) / b, so a space onto itself is exactly the identity.
    Columns come from ``space_from.dof_of_vertex``: eliminated (Dirichlet)
    vertices drop out and periodic ones wrap.  Zero weights are not stored.
    """
    a, b = (np.array(s.mesh.structure)[:, None] for s in (space_from, space_to))
    g = np.array(np.unravel_index(space_to.dof_vertices, b[:, 0] + 1))  # (dim, n)
    cell = np.minimum(g * a // b, a - 1)
    local = (g * a - cell * b) / b
    # with each square cut along its 00-11 diagonal, the triangle holding local
    # coordinates p >= q has corners 00, one step along p's axis, and 11, with
    # weights 1 - p, p - q and q; in 1D p = q, and the middle weight is zero
    stride = np.ravel_multi_index(np.eye(a.size, dtype=int), a[:, 0] + 1)
    v00, p, q = stride @ cell, local.max(axis=0), local.min(axis=0)
    vertex = np.column_stack([v00, v00 + stride[local.argmax(axis=0)], v00 + stride.sum()])
    weights = np.column_stack([1.0 - p, p - q, q])
    cols = space_from.dof_of_vertex[vertex]
    kept = (cols >= 0) & (weights != 0.0)
    indptr = np.zeros(space_to.num_dofs + 1, dtype=np.int32)
    np.cumsum(np.count_nonzero(kept, axis=1), out=indptr[1:])
    return sparse.csr_matrix((weights[kept], cols[kept].astype(np.int32), indptr),
                             shape=(space_to.num_dofs, space_from.num_dofs))
