"""Uniform simplicial background meshes on an axis-aligned rectangle.

Every grid cell is split into two triangles along its lower-left to
upper-right diagonal.  All numbering is deterministic: vertices are
row-major in (i, j) grid indices, cells are row-major, and each cell
contributes its lower triangle first.  Facets are enumerated as all
horizontal edges, then all vertical edges, then all diagonals, each kind
row-major in its own grid.

The two triangle shapes have six (shape, local facet) pairs, and
`LOCAL_FACETS` is the one source of their convention: each row gives
the facet's kind, its cell offset in its kind's grid, the triangle's
side on it and its two ends.  `build_background_mesh` builds the facet
arrays from it, and `fem_core` its facet tables and its closed-form
facet lengths and normals, so no length or normal is stored per facet.
The mesh knows no subset of its triangles: which facets bound or lie
inside an active set is read off `facet_triangles` by
`levelset.classify_domain`.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = [
    "HORIZONTAL",
    "VERTICAL",
    "DIAGONAL",
    "LocalFacet",
    "LOCAL_FACETS",
    "BackgroundMesh",
    "build_background_mesh",
    "locate_points",
]

#: Facet kinds, in the order of their id blocks.
HORIZONTAL, VERTICAL, DIAGONAL = 0, 1, 2


class LocalFacet(NamedTuple):
    """One (shape, local facet) pair of the structured mesh."""

    kind: int                # HORIZONTAL, VERTICAL or DIAGONAL
    offset: tuple[int, int]  # the facet's (i, j) in its kind's grid,
                             # minus those of the triangle's cell
    side: int                # 0 if the triangle is the lower id on it, else 1
    ends: tuple[int, int]    # local vertices, the lower vertex id first


#: The six (shape, local facet) pairs, row 3 * shape + local facet.  The
#: lower triangle is (v00, v10, v11), the upper one (v00, v11, v01), and
#: vertex ids grow along x, then y, so v00 < v10 < v01 < v11.
LOCAL_FACETS = (
    LocalFacet(HORIZONTAL, (0, 0), 1, (0, 1)),   # lower: bottom
    LocalFacet(VERTICAL, (1, 0), 0, (1, 2)),     # lower: right
    LocalFacet(DIAGONAL, (0, 0), 0, (0, 2)),     # lower: diagonal
    LocalFacet(DIAGONAL, (0, 0), 1, (0, 1)),     # upper: diagonal
    LocalFacet(HORIZONTAL, (0, 1), 0, (2, 1)),   # upper: top
    LocalFacet(VERTICAL, (0, 0), 1, (0, 2)),     # upper: left
)


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
    triangle_facets : (n_triangles, 3) int array, facets of each triangle
        in the local order of `LOCAL_FACETS`.
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

    J, I = np.divmod(np.arange((nx + 1) * (ny + 1)), nx + 1)   # row-major
    vertex_lattice = np.column_stack([I, J])
    vertices = np.column_stack([np.linspace(xmin, xmax, nx + 1)[I],
                                np.linspace(ymin, ymax, ny + 1)[J]])

    cj, ci = np.divmod(np.arange(nx * ny), nx)
    # v00, v10, v01, v11 of every cell; both triangles counter-clockwise
    corners = (cj * (nx + 1) + ci)[:, None] + np.array([0, 1, nx + 1, nx + 2])
    triangles = corners[:, [[0, 1, 3], [0, 3, 2]]].reshape(-1, 3)

    # each kind's facets form a grid, numbered row-major after the kinds
    # before it; a facet's ends come from any triangle that holds it, and
    # a facet along the box has its one triangle in slot 0
    widths = (nx, nx + 1, nx)
    starts = np.cumsum([0, nx * (ny + 1), (nx + 1) * ny])
    facets = np.empty((starts[2] + nx * ny, 2), dtype=np.int64)
    facet_triangles = np.full((len(facets), 2), -1, dtype=np.int64)
    triangle_facets = np.empty((2 * nx * ny, 3), dtype=np.int64)
    for row, (kind, (oi, oj), side, ends) in enumerate(LOCAL_FACETS):
        shape, local = divmod(row, 3)
        ids = starts[kind] + (cj + oj) * widths[kind] + ci + oi
        facets[ids] = triangles[shape::2][:, ends]
        facet_triangles[ids, side] = np.arange(shape, len(triangles), 2)
        triangle_facets[shape::2, local] = ids
    on_box = facet_triangles[:, 0] < 0
    facet_triangles[on_box] = facet_triangles[on_box, ::-1]

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
        h=float(np.hypot((xmax - xmin) / nx, (ymax - ymin) / ny)),
    )


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
