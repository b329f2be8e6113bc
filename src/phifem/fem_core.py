"""Reference Lagrange elements, quadrature rules, dof maps and the maps
that turn reference tabulations into physical values.

Reference triangle: vertices (0,0), (1,0), (0,1); barycentric coordinates
(1 - x - y, x, y).  Lagrange nodes of degree p sit on the barycentric
lattice {(a, b, c)/p : a + b + c = p}, enumerated bottom row first.  Basis
coefficients come from inverting the monomial Vandermonde matrix at the
nodes, which is exact to rounding for p <= 3.

The background mesh has two triangle shapes and one cell area: triangle
t is the lower (t even) or upper (t odd) half of its cell.  `shape_maps`
gives both affine maps in closed form from the cell size, and a
triangle's map is the one of its shape, so there is one source of
geometric truth.  The shapes have six (shape, local facet) pairs but
only three facet kinds, and `mesh.LOCAL_FACETS` is the one source of
their convention: `facet_frames` reads each pair's kind and side to give
its length and its conormal inv @ n, n the unit normal out of the
triangle, in closed form too, and `facet_tables` reads its ends.  A
quadrature rule's basis tables are tabulated once per (degree, rule
exactness, need_hess) by `rule_tables`, and those of the edge rules on
the six pairs by `facet_tables`; `physical_tables` maps triangle
tables to physical gradients and Laplacians per shape, a facet table
times its conormal gives the outward normal derivatives, and
`eval_shapes` contracts per-entity coefficients against such tables
with one GEMM per group.  `eval_lagrange` evaluates fields at arbitrary
points (located points, a single point), which no fixed table covers.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import roots_jacobi, roots_legendre

from .mesh import LOCAL_FACETS, BackgroundMesh

__all__ = [
    "QUAD_DEGREE_CAP",
    "ReferenceElement",
    "QuadratureRule",
    "DofMap",
    "make_reference_element",
    "triangle_quadrature",
    "edge_quadrature",
    "quadrature_degrees",
    "build_dof_map",
    "shape_maps",
    "facet_frames",
    "physical_points",
    "rule_tables",
    "facet_tables",
    "physical_tables",
    "eval_shapes",
    "eval_lagrange",
]

#: Hard ceiling on requested polynomial exactness of any quadrature rule.
QUAD_DEGREE_CAP = 12


def _monomial_exponents(p: int) -> np.ndarray:
    return np.array([(a, b) for a in range(p + 1) for b in range(p + 1 - a)],
                    dtype=np.int64)


def _lattice_multi_indices(p: int) -> np.ndarray:
    """Barycentric multi-indices (a0, a1, a2), a0+a1+a2 = p, bottom row first."""
    out = [(p - i - j, i, j) for j in range(p + 1) for i in range(p + 1 - j)]
    return np.array(out, dtype=np.int64)


@dataclass(frozen=True)
class ReferenceElement:
    """Nodal Lagrange basis of total degree `degree` on the reference triangle."""

    degree: int
    nodes_bary: np.ndarray   # (n_basis, 3) barycentric node coordinates
    _exponents: np.ndarray   # (n_basis, 2) monomial exponents
    _coeffs: np.ndarray      # (n_basis, n_basis) monomial-to-nodal coefficients

    @property
    def n_basis(self) -> int:
        return self.nodes_bary.shape[0]

    def tabulate(self, points_bary: np.ndarray, need_hess: bool = True
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        """Values, reference gradients and reference Hessians at given points.

        Parameters
        ----------
        points_bary : (Q, 3) barycentric coordinates.
        need_hess : build the Hessians; without them the result has None
            in their place.

        Returns
        -------
        values : (Q, n_basis)
        grads : (Q, n_basis, 2), derivatives in reference coordinates.
        hessians : (Q, n_basis, 2, 2), or None unless `need_hess`.
        """
        pts = np.asarray(points_bary, dtype=float)
        x = pts[:, 1]
        y = pts[:, 2]
        a = self._exponents[:, 0]
        b = self._exponents[:, 1]

        def mono(da: int, db: int) -> np.ndarray:
            ea = a - da
            eb = b - db
            coef = np.ones_like(a, dtype=float)
            for s in range(da):
                coef *= a - s
            for s in range(db):
                coef *= b - s
            valid = (ea >= 0) & (eb >= 0)
            out = np.zeros((len(x), len(a)))
            xa = x[:, None] ** np.where(valid, ea, 0)
            yb = y[:, None] ** np.where(valid, eb, 0)
            out[:, valid] = (coef * xa * yb)[:, valid]
            return out

        C = self._coeffs
        values = mono(0, 0) @ C
        grads = np.stack([mono(1, 0) @ C, mono(0, 1) @ C], axis=-1)
        if not need_hess:
            return values, grads, None
        hess = np.empty((len(x), self.n_basis, 2, 2))
        hess[:, :, 0, 0] = mono(2, 0) @ C
        hess[:, :, 0, 1] = hess[:, :, 1, 0] = mono(1, 1) @ C
        hess[:, :, 1, 1] = mono(0, 2) @ C
        return values, grads, hess


@lru_cache(maxsize=None)
def make_reference_element(degree: int) -> ReferenceElement:
    """Construct (and cache) the P_degree reference element, degree in 1..3."""
    if degree not in (1, 2, 3):
        raise ValueError(f"unsupported polynomial degree {degree}")
    multi = _lattice_multi_indices(degree)
    nodes_bary = multi / float(degree)
    exps = _monomial_exponents(degree)
    x = nodes_bary[:, 1]
    y = nodes_bary[:, 2]
    vand = x[:, None] ** exps[:, 0] * y[:, None] ** exps[:, 1]
    coeffs = np.linalg.solve(vand, np.eye(len(multi)))
    for arr in (nodes_bary, exps, coeffs):
        arr.setflags(write=False)
    return ReferenceElement(degree=degree, nodes_bary=nodes_bary,
                            _exponents=exps, _coeffs=coeffs)


@dataclass(frozen=True)
class QuadratureRule:
    """Quadrature nodes in barycentric coordinates of the reference simplex.

    For triangles `points` has shape (Q, 3) and weights sum to 1/2; for
    edges it has shape (Q, 2) and weights sum to 1.
    """

    points: np.ndarray
    weights: np.ndarray
    degree: int


@lru_cache(maxsize=None)
def triangle_quadrature(exactness: int) -> QuadratureRule:
    """Positive-weight triangle rule exact for polynomials up to `exactness`.

    Built as a conical product rule: Gauss-Legendre in one direction and
    Gauss-Jacobi (weight 1 - t) in the other, collapsed onto the triangle.
    All nodes are strictly interior and all weights positive.
    """
    if exactness < 0:
        raise ValueError("exactness must be nonnegative")
    if exactness > QUAD_DEGREE_CAP:
        raise ValueError(
            f"exactness {exactness} exceeds cap {QUAD_DEGREE_CAP}")
    n = max(1, (exactness + 2) // 2)        # Gauss exactness 2n-1 >= exactness
    xl, wl = roots_legendre(n)
    xj, wj = roots_jacobi(n, 1.0, 0.0)
    u = 0.5 * (xl + 1.0)                    # [0, 1]
    v = 0.5 * (xj + 1.0)
    wu = 0.5 * wl
    wv = 0.25 * wj
    X = np.outer(1.0 - v, u).ravel()        # x = u (1 - v), y = v
    Y = np.repeat(v, n)
    W = np.outer(wv, wu).ravel()
    points = np.column_stack([1.0 - X - Y, X, Y])
    points.setflags(write=False)
    W.setflags(write=False)
    return QuadratureRule(points=points, weights=W, degree=exactness)


@lru_cache(maxsize=None)
def edge_quadrature(exactness: int) -> QuadratureRule:
    """Gauss-Legendre rule on the reference edge, barycentric (1-s, s)."""
    if exactness < 0:
        raise ValueError("exactness must be nonnegative")
    if exactness > QUAD_DEGREE_CAP:
        raise ValueError(
            f"exactness {exactness} exceeds cap {QUAD_DEGREE_CAP}")
    n = max(1, (exactness + 2) // 2)
    x, w = roots_legendre(n)
    s = 0.5 * (x + 1.0)
    points = np.column_stack([1.0 - s, s])
    weights = 0.5 * w
    points.setflags(write=False)
    weights.setflags(write=False)
    return QuadratureRule(points=points, weights=weights, degree=exactness)


def quadrature_degrees(k: int, l: int) -> dict[str, int]:
    """Polynomial exactness targets for the bilinear form and data terms.

    `volume` covers the stiffness-like products, `ghost_facet` the normal
    jump penalties, `boundary_facet` the boundary correction, and `data`
    the right-hand side and error integrals.  The data degree is clamped
    at QUAD_DEGREE_CAP; data integrands are generically non-polynomial, so
    the clamp only caps the sampling effort.
    """
    return {
        "volume": 2 * (k + l),
        "ghost_facet": 2 * (k + l - 1),
        "boundary_facet": 2 * (k + l),
        "data": min(2 * (k + l) + 2, QUAD_DEGREE_CAP),
    }


@dataclass(frozen=True)
class DofMap:
    """Global numbering of Lagrange nodes over a set of triangles.

    Nodes shared between triangles receive one global id.  Ids are sorted
    by integer lattice key (x index first), which makes the numbering
    independent of the order triangles are visited.
    """

    mesh: BackgroundMesh
    degree: int
    triangles: np.ndarray     # (nT,) triangle ids the map covers, ascending
    cell_dofs: np.ndarray     # (nT, n_local) global dof per local node
    node_coords: np.ndarray   # (n_dofs, 2) coordinates of each global node
    node_keys: np.ndarray     # (n_dofs, 2) integer lattice keys of the nodes

    @property
    def n_dofs(self) -> int:
        return self.node_coords.shape[0]

    def rows_for(self, tris: np.ndarray) -> np.ndarray:
        """Rows of `cell_dofs` for the given triangle ids."""
        rows = np.searchsorted(self.triangles, tris)
        if np.any(rows >= len(self.triangles)) or \
                np.any(self.triangles[np.minimum(rows, len(self.triangles) - 1)] != tris):
            raise ValueError("triangle not covered by this dof map")
        return rows


def build_dof_map(mesh: BackgroundMesh, triangles: np.ndarray,
                  degree: int) -> DofMap:
    """Number the degree-`degree` Lagrange nodes of the given triangles.

    Node identity is decided on the integer refinement lattice (grid index
    times degree), so shared edge and vertex nodes coincide exactly with no
    floating point tolerance involved.
    """
    if degree not in (1, 2, 3):
        raise ValueError(f"unsupported polynomial degree {degree}")
    tris = np.asarray(triangles, dtype=np.int64)
    if tris.size == 0:
        raise ValueError("empty triangle set")
    if tris.min() < 0 or tris.max() >= mesh.n_triangles:
        raise ValueError("triangle ids out of range")
    covered = np.zeros(mesh.n_triangles, dtype=bool)
    covered[tris] = True
    tris = np.flatnonzero(covered)                  # ascending, no repeats

    # one int64 code per node key, ordered like the keys themselves (x
    # index first); a node key is sum_a multi[a] * vertex key, exact
    # integers, and the code is linear in the key
    stride = degree * mesh.n_cells[1] + 1
    vertex_codes = mesh.vertex_lattice @ np.array([stride, 1])
    multi = _lattice_multi_indices(degree)          # (n_local, 3)
    codes = vertex_codes[mesh.triangles[tris]] @ multi.T    # (nT, n_local)
    # ids number the codes in use in ascending order, read off a mask of
    # the whole node lattice, so no sort is needed
    n_codes = (degree * mesh.n_cells[0] + 1) * stride
    if tris.size == mesh.n_triangles:
        # every lattice node is in use: the ids are the codes themselves
        cell_dofs = codes
        used = np.arange(n_codes)
    else:
        in_use = np.zeros(n_codes, dtype=bool)
        in_use[codes.ravel()] = True
        cell_dofs = (np.cumsum(in_use) - 1)[codes]
        used = np.flatnonzero(in_use)
    uniq = np.column_stack([used // stride, used % stride])

    xmin, ymin, _, _ = mesh.box
    dx, dy = mesh.cell_size
    node_coords = np.column_stack([
        xmin + uniq[:, 0] * (dx / degree),
        ymin + uniq[:, 1] * (dy / degree),
    ])
    for arr in (tris, cell_dofs, node_coords, uniq):
        arr.setflags(write=False)
    return DofMap(mesh=mesh, degree=degree, triangles=tris,
                  cell_dofs=cell_dofs, node_coords=node_coords,
                  node_keys=uniq)


# ---------------------------------------------------------------------------
# the two triangle shapes, their maps and their tables

def shape_maps(mesh: BackgroundMesh):
    """Affine maps of the mesh's two triangle shapes, in closed form.

    Triangle t has shape t % 2: 0 for the lower triangle (v00, v10, v11)
    of its cell, 1 for the upper one (v00, v11, v01).  Returns (jac, det,
    inv): jac and inv are (2, 2, 2), indexed by shape, with the edge
    vectors as the columns of jac; det = dx dy = 2 * area is shared.
    """
    dx, dy = mesh.cell_size
    jac = np.array([[[dx, dx], [0.0, dy]],
                    [[dx, 0.0], [dy, dy]]])
    inv = np.array([[[1.0 / dx, -1.0 / dy], [0.0, 1.0 / dy]],
                    [[1.0 / dx, 0.0], [-1.0 / dx, 1.0 / dy]]])
    return jac, dx * dy, inv


def facet_frames(mesh: BackgroundMesh):
    """Lengths (6,) and conormals (6, 2) of the local facets of both
    shapes, in closed form from the cell size; row 3 * shape + local
    facet, as in `mesh.LOCAL_FACETS`.

    The conormal is inv @ n, with inv the shape's inverse Jacobian and n
    the unit normal pointing out of the triangle, so the outward normal
    derivative of a function with reference gradient g is g . conormal.
    Each facet kind has one length and one normal, pointing from its
    lower-id triangle to its higher-id one; a triangle on side 1 of its
    facet turns that normal around.
    """
    dx, dy = mesh.cell_size
    h = mesh.h
    kind, side = np.array([(f.kind, f.side) for f in LOCAL_FACETS]).T
    # indexed by kind: horizontal, vertical, diagonal
    lengths = np.array([dx, dy, h])[kind]
    normals = np.array([[0.0, 1.0], [1.0, 0.0], [-dy / h, dx / h]])[kind]
    normals *= (1 - 2 * side)[:, None]
    inv = np.repeat(shape_maps(mesh)[2], 3, axis=0)
    return lengths, (inv @ normals[:, :, None])[..., 0]


def physical_points(mesh: BackgroundMesh, tris: np.ndarray,
                    bary: np.ndarray) -> np.ndarray:
    """Physical coordinates (nT, Q, 2) of barycentric points (Q, 3) shared
    by every triangle: its first vertex plus the offset of its shape."""
    jac, _, _ = shape_maps(mesh)
    offsets = bary[:, 1:] @ jac.swapaxes(1, 2)          # (2, Q, 2)
    v0 = mesh.vertices[mesh.triangles[tris, 0]]
    return v0[:, None, :] + offsets[tris % 2]


def _frozen(arrays: tuple) -> tuple:
    for arr in arrays:
        if arr is not None:
            arr.setflags(write=False)
    return arrays


@lru_cache(maxsize=None)
def rule_tables(degree: int, exactness: int, need_hess: bool):
    """Reference values (Q, n), gradients (Q, n, 2) and Hessians
    (Q, n, 2, 2), or None unless `need_hess`, of the degree-`degree`
    basis at the points of `triangle_quadrature(exactness)`.  Tabulated
    once per key; every triangle of both shapes shares them."""
    return _frozen(make_reference_element(degree).tabulate(
        triangle_quadrature(exactness).points, need_hess))


@lru_cache(maxsize=None)
def facet_tables(degree: int, exactness: int):
    """Reference values (6, Q, n) and gradients (6, Q, n, 2) of the
    degree-`degree` basis at the points of `edge_quadrature(exactness)`
    on every local facet of both shapes, each run from its lower to its
    higher vertex id (the ends of `mesh.LOCAL_FACETS`).  Row 3 * shape +
    local facet.  Tabulated once per key, in one call over all six point
    sets."""
    s = edge_quadrature(exactness).points[:, 1]
    bary = np.zeros((6, s.size, 3))
    for row, facet in enumerate(LOCAL_FACETS):
        lo, hi = facet.ends
        bary[row, :, lo] = 1.0 - s
        bary[row, :, hi] = s
    values, grads, _ = make_reference_element(degree).tabulate(
        bary.reshape(-1, 3), need_hess=False)
    n = values.shape[-1]
    return _frozen((values.reshape(6, s.size, n),
                    grads.reshape(6, s.size, n, 2)))


def physical_tables(tables: tuple, inv: np.ndarray, need_lap: bool = False):
    """Physical gradients and Laplacians of a triangle rule's reference
    tables (`rule_tables`), which every shape shares; `inv` is (S, 2, 2),
    the two shapes' inverse Jacobians.  Returns gradients (S, Q, n, 2)
    and Laplacians (S, Q, n), or None unless `need_lap`.
    """
    _, tab_g, tab_h = tables
    Q, n = tab_g.shape[:2]
    S = len(inv)
    grads = (tab_g.reshape(Q * n, 2) @ inv).reshape(S, Q, n, 2)
    lap = None
    if need_lap:
        # the trace of inv.T H_ref inv: sum_dc H_ref[d, c] (inv inv.T)[d, c]
        metric = (inv @ inv.swapaxes(1, 2)).reshape(S, 4, 1)
        lap = (tab_h.reshape(Q * n, 4) @ metric).reshape(S, Q, n)
    return grads, lap


def eval_shapes(coef: np.ndarray, group: np.ndarray, values: np.ndarray,
                derivs: np.ndarray):
    """Values and physical derivatives of per-entity Lagrange fields whose
    tables depend only on a group: the shape of a triangle, or the shape
    and local facet of a facet trace.

    coef : (N, m) nodal values; group : (N,) table row of each entity.
    values : (Q, m), shared by every group, or (S, Q, m).
    derivs : (S, Q, m, c), any c derivative columns: the gradients from
        `physical_tables`, or a facet table's outward normal derivatives.
    Returns values (N, Q) and derivatives (N, Q, c), one GEMM per group.
    """
    S, Q, m, c = derivs.shape
    table = np.concatenate(
        [np.broadcast_to(values, (S, Q, m))[..., None], derivs], axis=-1)
    table = table.transpose(0, 2, 1, 3).reshape(S, m, Q * (c + 1))
    out = np.empty((len(coef), Q, c + 1))
    for s in range(S):
        rows = np.nonzero(group == s)[0]
        out[rows] = (coef[rows] @ table[s]).reshape(-1, Q, c + 1)
    return out[..., 0], out[..., 1:]


def eval_lagrange(coef: np.ndarray, degree: int, inv: np.ndarray,
                  bary: np.ndarray, need_hess: bool = False):
    """Values and physical derivatives of per-triangle Lagrange fields at
    arbitrary points, such as located points or a single point.

    Parameters
    ----------
    coef : (..., nT, m) nodal values of degree-`degree` fields per
        triangle; leading axes stack several fields on the same points.
    inv : (nT, 2, 2) inverse Jacobians, `shape_maps`' of each
        triangle's shape.
    bary : (Q, 3) points shared by every triangle, or (nT, Q, 3).

    Returns
    -------
    values (..., nT, Q), gradients (..., nT, Q, 2) and, when `need_hess`,
    Hessians inv.T H_ref inv of shape (..., nT, Q, 2, 2), else None.

    The points are tabulated once for every stacked field, and the
    coefficients are contracted in reference coordinates first, so the
    inverse Jacobian acts on one gradient per point, not one per basis
    function.  The contraction is a fixed-order einsum, not a GEMM.
    """
    bary = np.broadcast_to(np.asarray(bary, dtype=float),
                           (len(inv),) + np.shape(bary)[-2:])
    tab_v, tab_g, tab_h = make_reference_element(degree).tabulate(
        bary.reshape(-1, 3), need_hess)
    P, m = tab_v.shape
    parts = [tab_v[..., None], tab_g]
    if need_hess:
        parts.append(tab_h.reshape(P, m, 4))
    tab = np.concatenate(parts, axis=-1)            # (P, m, c)
    lead, Q, c = coef.shape[:-1], bary.shape[-2], tab.shape[-1]
    ref = np.einsum("...tm,tqmc->...tqc", coef,
                    tab.reshape(len(inv), Q, m, c))
    val = ref[..., 0]
    grad = ref[..., 1:3] @ inv
    hess = None
    if need_hess:
        # (inv.T H inv)[a, b] = sum_dc inv[d, a] H[d, c] inv[c, b]
        outer = np.einsum("tda,tcb->tdcab", inv, inv).reshape(-1, 4, 4)
        hess = (ref[..., 3:] @ outer).reshape(lead + (Q, 2, 2))
    return val, grad, hess
