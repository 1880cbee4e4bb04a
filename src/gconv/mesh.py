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
kernel reads is contiguous.  All of it comes from one gather of the cell
corners.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, reduce
from typing import NamedTuple

import numpy as np
from scipy import sparse

DIRICHLET = "dirichlet-zero"
PERIODIC = "periodic"
# entries per block of the passes over a pattern's sorted entries (its build's
# keys, assembly's sums): a block's transients take about 0.5 MiB, where a
# whole pass's are the size of the pattern
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
    every cell, off-diagonal ones twice (as (row, col) and mirrored, side by
    side per cell), stably sorted by global (row, col); ``np.add.reduceat``
    over ``starts`` sums them.  Both orientations of an entry sum the same
    values in the same order, so the global matrix is symmetric bit for bit,
    also where one local pair of a cell maps a dof pair both ways round (a
    periodic axis of 2 cells).
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
        # the corners of every cell, gathered once; x[k, m] is coordinate k of
        # local vertex m and e[k, m] that of edge m, each an (nc,) column
        x = np.take(mesh.vertices, mesh.cells, axis=0).transpose(2, 1, 0)
        e = np.empty((dim, dim, nc))
        np.subtract(x[:, 1:], x[:, :1], out=e)
        # (x0 + r0 e0) + r1 e1 per point: the order fixes the last bit
        pts = np.empty((dim, len(ref), nc))
        for q, r in enumerate(ref):
            np.add(x[:, 0], r[0] * e[:, 0], out=pts[:, q])
            for m in range(1, dim):
                pts[:, q] += r[m] * e[:, m]
        del x  # each temporary goes before the next is made
        grads = np.empty((dim + 1, dim, nc))
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
        phi = np.column_stack([reduce(np.subtract, ref.T, 1.0), ref])  # (1 - r0) - r1
        _read_only(grads, pts)  # the views below are read-only too
        # taken last: taken first, it left the cell problem's heap 9 MiB higher
        dofs = np.take(self.dof_of_vertex, mesh.cells)
        return CellData(*_read_only(dofs, measure), grads.transpose(2, 0, 1),
                        pts.transpose(1, 2, 0), *_read_only(weights, phi))

    @cached_property
    def pattern(self) -> SymmetricPattern:
        """Symmetric CSR pattern of this space's P1 matrices (see SymmetricPattern)."""
        dofs = self.cell_data().dofs
        nd = dofs.shape[1]
        n = self.num_dofs
        kept = dofs >= 0
        pairs = [(i, j) for i in range(nd) for j in range(i, nd)]
        sizes = [(1 + (i != j)) * np.count_nonzero(kept[:, i] & kept[:, j])
                 for i, j in pairs]
        # sort key row * n + col and local entry of every orientation, each
        # cell's two side by side, filled in place: this build is the largest
        # transient of a large periodic level, so each temporary goes once used
        key = np.empty(sum(sizes), dtype=np.int64)
        src = np.empty(sum(sizes), dtype=np.int32)
        at = 0
        for (i, j), size in zip(pairs, sizes):
            cell = np.flatnonzero(kept[:, i] & kept[:, j])
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
        return SymmetricPattern(*_read_only(gather, starts,
                                            (key % n).astype(np.int32), indptr))


# each grid cell's simplices as corner offsets in grid steps: the interval; the
# square cut along its lower-left to upper-right diagonal, lower triangle first
_GRID_SIMPLICES = {1: [[(0,), (1,)]],
                   2: [[(0, 0), (1, 0), (1, 1)], [(0, 0), (1, 1), (0, 1)]]}


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
        grid = np.unravel_index(np.arange(mesh.num_vertices), [n + 1 for n in cells])
        dof_of_vertex = np.ravel_multi_index(grid, cells, mode="wrap")
        # each dof's first vertex is its grid point below the upper faces
        reps = np.unique(dof_of_vertex, return_index=True)[1]
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
