"""Structured unit interval and unit square meshes with a P1 nodal space.

Convergence ladders need a tightly controlled mesh size, so only uniform
structured meshes are provided.  The mesh size is called delta throughout
the package; h always indexes a coefficient sequence, never the mesh.

Each dimension has one quadrature rule, ``QUADRATURE``.  What assembly
needs that depends only on the space (cell geometry, quadrature points, the
sparsity pattern) is computed once per space, on first use, and stored
read-only on the space itself.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from typing import NamedTuple

import numpy as np

DIRICHLET = "dirichlet-zero"
PERIODIC = "periodic"


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

    def edges(self) -> np.ndarray:
        """Edge vectors from each cell's first vertex, shape (nc, dim, dim)."""
        pts = self.vertices[self.cells]             # (nc, dim + 1, dim)
        return pts[:, 1:] - pts[:, :1]

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
        """Nodal interpolant: evaluate ``fn`` at the dof coordinates.

        On Dirichlet spaces the boundary values of ``fn`` are discarded
        (the represented function is clamped to zero there).
        """
        vals = fn(*self.dof_coordinates().T)
        return np.asarray(vals, dtype=float).reshape(self.num_dofs)

    def cell_data(self) -> CellData:
        """Cell geometry and ``QUADRATURE[dimension]``'s data, cached on the space."""
        return self._cell_data

    @cached_property
    def _cell_data(self) -> CellData:
        mesh = self.mesh
        ref, weights = QUADRATURE[mesh.dimension]
        # (x0 + r0 e1) + r1 e2 and (1 - r0) - r1: the order fixes the last bit
        edges = mesh.edges()
        pts = mesh.vertices[mesh.cells[:, 0]][None]
        for k in range(mesh.dimension):
            pts = pts + ref[:, k, None, None] * edges[None, :, k]
        phi = np.column_stack([reduce(np.subtract, ref.T, 1.0), ref])
        return CellData(*self._geometry, *_read_only(pts, weights, phi))

    @cached_property
    def _geometry(self):
        """Quadrature-independent cell data: dof map, measures, P1 gradients."""
        mesh = self.mesh
        e = mesh.edges()
        grads = np.empty((mesh.num_cells, mesh.dimension + 1, mesh.dimension))
        if mesh.dimension == 1:
            measure = e[:, 0, 0]
            grads[:, 1, 0] = 1.0 / measure
        else:
            measure = 0.5 * (e[:, 0, 0] * e[:, 1, 1] - e[:, 0, 1] * e[:, 1, 0])
            det = 2.0 * measure   # exact: the measure is half the determinant
            grads[:, 1, 0] = e[:, 1, 1] / det
            grads[:, 1, 1] = -e[:, 1, 0] / det
            grads[:, 2, 0] = -e[:, 0, 1] / det
            grads[:, 2, 1] = e[:, 0, 0] / det
        grads[:, 0] = -grads[:, 1:].sum(axis=1)
        return _read_only(self.dof_of_vertex[mesh.cells], measure, grads)

    @cached_property
    def pattern(self) -> SymmetricPattern:
        """Symmetric CSR pattern of this space's P1 matrices (see SymmetricPattern)."""
        dofs = self._geometry[0]
        nd = dofs.shape[1]
        n = self.num_dofs
        kept = dofs >= 0
        pairs = [(i, j) for i in range(nd) for j in range(i, nd)]
        sizes = [(1 + (i != j)) * np.count_nonzero(kept[:, i] & kept[:, j])
                 for i, j in pairs]
        # sort key row * n + col and local entry of every orientation, each
        # cell's two side by side, filled in place: this build sets the peak
        # memory of a large periodic cell problem, so each temporary goes once used
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
        key = key[order]
        del order
        starts = np.flatnonzero(np.concatenate([[True], key[1:] != key[:-1]]))
        key = key[starts]
        indptr = np.zeros(n + 1, dtype=np.int32)
        np.cumsum(np.bincount(key // n, minlength=n), out=indptr[1:])
        return SymmetricPattern(*_read_only(gather, starts.astype(np.int32),
                                            (key % n).astype(np.int32), indptr))


def build_interval_mesh(n_cells: int) -> Mesh:
    """Uniform mesh of the unit interval with ``n_cells`` cells."""
    if n_cells < 1:
        raise ValueError(f"n_cells must be >= 1, got {n_cells}")
    verts = np.linspace(0.0, 1.0, n_cells + 1)[:, None]
    cells = np.column_stack([np.arange(n_cells), np.arange(1, n_cells + 1)])
    boundary = np.zeros(n_cells + 1, dtype=bool)
    boundary[0] = boundary[-1] = True
    return Mesh(1, verts, cells, boundary, (n_cells,))


def build_rect_mesh(nx: int, ny: int) -> Mesh:
    """Structured triangulation of the unit square, 2 triangles per grid square.

    Every square is split along the same diagonal (lower-left to upper-right)
    so that refinement studies reproduce bit-identical golden values.
    """
    if nx < 1 or ny < 1:
        raise ValueError(f"nx, ny must be >= 1, got ({nx}, {ny})")
    xs = np.linspace(0.0, 1.0, nx + 1)
    ys = np.linspace(0.0, 1.0, ny + 1)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    verts = np.column_stack([X.ravel(), Y.ravel()])

    def vid(i, j):
        return i * (ny + 1) + j

    I, J = np.meshgrid(np.arange(nx), np.arange(ny), indexing="ij")
    I, J = I.ravel(), J.ravel()
    v00, v10 = vid(I, J), vid(I + 1, J)
    v11, v01 = vid(I + 1, J + 1), vid(I, J + 1)
    lower = np.column_stack([v00, v10, v11])
    upper = np.column_stack([v00, v11, v01])
    cells = np.empty((2 * nx * ny, 3), dtype=np.int64)
    cells[0::2] = lower
    cells[1::2] = upper

    gi = np.repeat(np.arange(nx + 1), ny + 1)
    gj = np.tile(np.arange(ny + 1), nx + 1)
    boundary = (gi == 0) | (gi == nx) | (gj == 0) | (gj == ny)
    return Mesh(2, verts, cells, boundary, (nx, ny))


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
