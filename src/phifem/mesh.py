"""Uniform simplicial background meshes on an axis-aligned rectangle.

Every grid cell is split into two triangles along its lower-left to
upper-right diagonal.  All numbering is deterministic: vertices are
row-major in (i, j) grid indices, cells are row-major, and each cell
contributes its lower triangle first.  Facets are enumerated as all
horizontal edges, then all vertical edges, then all diagonals.  Those
are the only three facet orientations, so no length or normal is stored
per facet: `fem_core.facet_frames` gives them per triangle shape and
local facet, in closed form from the cell size.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = [
    "BackgroundMesh",
    "BoundaryFacets",
    "build_background_mesh",
    "submesh_boundary_facets",
    "locate_points",
]


@dataclass(frozen=True)
class BackgroundMesh:
    """Structured triangulation of a rectangle.

    Attributes
    ----------
    box : (xmin, ymin, xmax, ymax)
    n_cells : (nx, ny) grid cells per direction.
    vertices : (n_vertices, 2) float array of coordinates.
    vertex_lattice : (n_vertices, 2) int array of (i, j) grid indices.
    triangles : (n_triangles, 3) int array, counter-clockwise vertex ids.
    facets : (n_facets, 2) int array, each row a vertex pair with a < b.
    facet_triangles : (n_facets, 2) int array of incident triangles in
        ascending order, -1 marking a missing neighbour.
    triangle_facets : (n_triangles, 3) int array, facets of each triangle.
    h : float, the cell diagonal; the mesh size used everywhere.
    """

    box: tuple[float, float, float, float]
    n_cells: tuple[int, int]
    vertices: np.ndarray
    vertex_lattice: np.ndarray
    triangles: np.ndarray
    facets: np.ndarray
    facet_triangles: np.ndarray
    triangle_facets: np.ndarray
    h: float

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def n_triangles(self) -> int:
        return self.triangles.shape[0]

    @property
    def n_facets(self) -> int:
        return self.facets.shape[0]

    @property
    def cell_size(self) -> tuple[float, float]:
        xmin, ymin, xmax, ymax = self.box
        nx, ny = self.n_cells
        return (xmax - xmin) / nx, (ymax - ymin) / ny

    def triangle_coords(self, tris: np.ndarray) -> np.ndarray:
        """Vertex coordinates of the given triangles, shape (..., 3, 2)."""
        return self.vertices[self.triangles[tris]]

    def facet_coords(self, facets: np.ndarray) -> np.ndarray:
        """Endpoint coordinates of the given facets, shape (..., 2, 2)."""
        return self.vertices[self.facets[facets]]

    def interior_facets_mask(self) -> np.ndarray:
        """True for facets with two incident triangles."""
        return self.facet_triangles[:, 1] >= 0


class BoundaryFacets(NamedTuple):
    """Facets bounding a triangle subset, with their owners."""

    facets: np.ndarray   # (F,) facet ids, ascending
    owners: np.ndarray   # (F,) the unique incident triangle inside the subset


def build_background_mesh(box: tuple[float, float, float, float],
                          n_cells: tuple[int, int]) -> BackgroundMesh:
    """Build the structured triangle mesh of a rectangle.

    Parameters
    ----------
    box : (xmin, ymin, xmax, ymax), xmax > xmin and ymax > ymin.
    n_cells : (nx, ny), both at least 1.

    Returns
    -------
    BackgroundMesh with (nx+1)(ny+1) vertices, 2*nx*ny triangles and
    3*nx*ny + nx + ny facets.
    """
    xmin, ymin, xmax, ymax = map(float, box)
    nx, ny = n_cells
    if not (np.isfinite([xmin, ymin, xmax, ymax]).all()):
        raise ValueError("box coordinates must be finite")
    if xmax <= xmin or ymax <= ymin:
        raise ValueError(f"degenerate box {box!r}")
    if nx < 1 or ny < 1:
        raise ValueError(f"cell counts must be positive, got {n_cells!r}")

    xs = np.linspace(xmin, xmax, nx + 1)
    ys = np.linspace(ymin, ymax, ny + 1)
    X, Y = np.meshgrid(xs, ys)                      # row-major in (i, j)
    vertices = np.column_stack([X.ravel(), Y.ravel()])
    I, J = np.meshgrid(np.arange(nx + 1), np.arange(ny + 1))
    vertex_lattice = np.column_stack([I.ravel(), J.ravel()]).astype(np.int64)

    def vid(i, j):
        return j * (nx + 1) + i

    ci, cj = np.meshgrid(np.arange(nx), np.arange(ny))
    ci, cj = ci.ravel(), cj.ravel()
    v00 = vid(ci, cj)
    v10 = vid(ci + 1, cj)
    v01 = vid(ci, cj + 1)
    v11 = vid(ci + 1, cj + 1)
    lower = np.column_stack([v00, v10, v11])        # both counter-clockwise
    upper = np.column_stack([v00, v11, v01])
    triangles = np.empty((2 * nx * ny, 3), dtype=np.int64)
    triangles[0::2] = lower
    triangles[1::2] = upper

    # Facet ids: horizontal block, then vertical, then diagonal.
    n_h = (ny + 1) * nx
    n_v = ny * (nx + 1)

    def fh(i, j):
        return j * nx + i

    def fv(i, j):
        return n_h + j * (nx + 1) + i

    def fd(i, j):
        return n_h + n_v + j * nx + i

    hi, hj = np.meshgrid(np.arange(nx), np.arange(ny + 1))
    hi, hj = hi.ravel(), hj.ravel()
    vi, vj = np.meshgrid(np.arange(nx + 1), np.arange(ny))
    vi, vj = vi.ravel(), vj.ravel()
    facets = np.empty((n_h + n_v + nx * ny, 2), dtype=np.int64)
    facets[fh(hi, hj)] = np.column_stack([vid(hi, hj), vid(hi + 1, hj)])
    facets[fv(vi, vj)] = np.column_stack([vid(vi, vj), vid(vi, vj + 1)])
    facets[fd(ci, cj)] = np.column_stack([v00, v11])

    cell = cj * nx + ci
    t_lo = 2 * cell
    t_up = 2 * cell + 1

    facet_triangles = np.full((facets.shape[0], 2), -1, dtype=np.int64)
    # Horizontal facet (i, j): upper triangle of cell (i, j-1) below, lower
    # triangle of cell (i, j) above; ids listed ascending.
    below = np.full(n_h, -1, dtype=np.int64)
    above = np.full(n_h, -1, dtype=np.int64)
    has_below = hj > 0
    below[fh(hi[has_below], hj[has_below])] = \
        2 * ((hj[has_below] - 1) * nx + hi[has_below]) + 1
    has_above = hj < ny
    above[fh(hi[has_above], hj[has_above])] = \
        2 * (hj[has_above] * nx + hi[has_above])
    facet_triangles[:n_h, 0] = np.where(below >= 0, below, above)
    facet_triangles[:n_h, 1] = np.where(below >= 0, above, -1)
    # Vertical facet (i, j): lower triangle of cell (i-1, j) on the left,
    # upper triangle of cell (i, j) on the right.
    left = np.full(n_v, -1, dtype=np.int64)
    right = np.full(n_v, -1, dtype=np.int64)
    has_left = vi > 0
    left[fv(vi[has_left], vj[has_left]) - n_h] = \
        2 * (vj[has_left] * nx + vi[has_left] - 1)
    has_right = vi < nx
    right[fv(vi[has_right], vj[has_right]) - n_h] = \
        2 * (vj[has_right] * nx + vi[has_right]) + 1
    facet_triangles[n_h:n_h + n_v, 0] = np.where(left >= 0, left, right)
    facet_triangles[n_h:n_h + n_v, 1] = np.where(left >= 0, right, -1)
    # Diagonal facet: the two triangles of its own cell.
    facet_triangles[fd(ci, cj), 0] = t_lo
    facet_triangles[fd(ci, cj), 1] = t_up

    triangle_facets = np.empty((2 * nx * ny, 3), dtype=np.int64)
    triangle_facets[t_lo, 0] = fh(ci, cj)           # bottom
    triangle_facets[t_lo, 1] = fv(ci + 1, cj)       # right
    triangle_facets[t_lo, 2] = fd(ci, cj)           # diagonal
    triangle_facets[t_up, 0] = fd(ci, cj)           # diagonal
    triangle_facets[t_up, 1] = fh(ci, cj + 1)       # top
    triangle_facets[t_up, 2] = fv(ci, cj)           # left

    dx = (xmax - xmin) / nx
    dy = (ymax - ymin) / ny
    for arr in (vertices, vertex_lattice, triangles, facets,
                facet_triangles, triangle_facets):
        arr.setflags(write=False)
    return BackgroundMesh(
        box=(xmin, ymin, xmax, ymax),
        n_cells=(int(nx), int(ny)),
        vertices=vertices,
        vertex_lattice=vertex_lattice,
        triangles=triangles,
        facets=facets,
        facet_triangles=facet_triangles,
        triangle_facets=triangle_facets,
        h=float(np.hypot(dx, dy)),
    )


def submesh_boundary_facets(mesh: BackgroundMesh,
                            active: np.ndarray) -> BoundaryFacets:
    """Facets with exactly one incident triangle in `active`.

    Together these facets bound the union of the active triangles.  Each
    comes with its unique active triangle; its outward normal is that of
    the owner's shape and local facet (`fem_core.facet_frames`).
    """
    active = np.asarray(active, dtype=np.int64)
    if active.size == 0:
        raise ValueError("active triangle set is empty")
    if active.min() < 0 or active.max() >= mesh.n_triangles:
        raise ValueError("active triangle ids out of range")
    mask = np.zeros(mesh.n_triangles, dtype=bool)
    mask[active] = True

    ft = mesh.facet_triangles
    in0 = mask[ft[:, 0]]
    in1 = (ft[:, 1] >= 0) & mask[np.where(ft[:, 1] >= 0, ft[:, 1], 0)]
    count = in0.astype(np.int64) + in1.astype(np.int64)
    ids = np.nonzero(count == 1)[0]
    owners = np.where(in0[ids], ft[ids, 0], ft[ids, 1])
    return BoundaryFacets(facets=ids, owners=owners)


def locate_points(mesh: BackgroundMesh, points: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Map points to containing triangles and barycentric coordinates.

    Points outside the box are clamped to the nearest cell.  Returns
    (triangle ids, barycentric coordinates) with shapes (P,) and (P, 3);
    barycentric components follow the local vertex order of the triangle.
    """
    pts = np.asarray(points, dtype=float)
    xmin, ymin, xmax, ymax = mesh.box
    nx, ny = mesh.n_cells
    dx, dy = mesh.cell_size
    sx = (pts[..., 0] - xmin) / dx
    sy = (pts[..., 1] - ymin) / dy
    ci = np.clip(np.floor(sx).astype(np.int64), 0, nx - 1)
    cj = np.clip(np.floor(sy).astype(np.int64), 0, ny - 1)
    s = sx - ci
    t = sy - cj
    lower = t <= s
    tri = 2 * (cj * nx + ci) + np.where(lower, 0, 1)
    bary = np.empty(pts.shape[:-1] + (3,))
    # lower triangle (v00, v10, v11): lambdas (1-s, s-t, t)
    # upper triangle (v00, v11, v01): lambdas (1-t, s, t-s)
    bary[..., 0] = np.where(lower, 1.0 - s, 1.0 - t)
    bary[..., 1] = np.where(lower, s - t, s)
    bary[..., 2] = np.where(lower, t, t - s)
    return tri, bary
