"""The Lagrange basis, quadrature rules, dof maps and the maps that turn
reference tabulations into physical values.

Reference triangle: vertices (0,0), (1,0), (0,1); barycentric coordinates
(1 - x - y, x, y).  Lagrange nodes of degree p sit on the barycentric
lattice {(a, b, c)/p : a + b + c = p}, enumerated bottom row first.  The
basis function of node alpha has the closed form prod_i prod_{j < alpha_i}
(p lambda_i - j) / (j + 1) in the barycentric coordinates lambda, so
`tabulate(p, points)` evaluates it and its derivatives directly, with no
coefficient matrix; it is exactly 0 or 1 at the nodes.  It is the one
evaluator of the basis: the package only ever needs it at fixed point
sets, each tabulated once per key.

The quadrature rules are Gauss rules: a collapsed product of
Gauss-Legendre and Gauss-Jacobi (weight 1 - t) on the triangle, and
Gauss-Legendre on an edge.  Both one-dimensional rules come from
`_gauss_jacobi`, by Golub-Welsch: the nodes are the eigenvalues of the
symmetric tridiagonal Jacobi matrix of the orthogonal polynomials'
three-term recurrence, and the weights come from the first entries of
its eigenvectors.  numpy's `eigh` does the work, so scipy is needed only
for the sparse matrices and their solver.

The background mesh has two triangle shapes and one cell area: triangle
t is the lower (t even) or upper (t odd) half of its cell.  `shape_maps`
gives both affine maps in closed form from the cell size, and a
triangle's map is the one of its shape, so there is one source of
geometric truth.  The shapes have six (shape, local facet) pairs but
only three facet kinds, and `mesh.LOCAL_FACETS` is the one source of
their convention: `facet_frames` reads each pair's kind and side to give
its length and its conormal inv @ n, n the unit normal out of the
triangle, in closed form too, and `facet_tables` reads its ends.  Basis
tables are always tabulated whole, Hessians included, since a rule has
at most 49 points and an element 10 functions: those of a quadrature
rule once per (degree, rule exactness) by `rule_tables`, and those of
the edge rules on the six pairs by `facet_tables`.  `physical_tables`
maps triangle tables to physical gradients and Laplacians per shape, and
a facet table times its conormal gives the outward normal derivatives.
`group_matmul` contracts per-entity coefficients against the table of
each entity's group with one GEMM per group; `eval_shapes` and the
assembly kernels call it.  `eval_shapes` orders its tables so that the
GEMM writes each entity's values and derivatives as component planes of
Q points each, [values | d_1 | ... | d_c], and returns the derivatives
as a transposed view of them: the same (N, Q, c) shape as interleaved
columns, but numpy's ufuncs iterate in memory order, so every product
and error sum downstream runs along unit-stride rows instead of every
(c + 1)-th element.
`product_rule` turns the values and derivatives of phi and of w into
those of u = phi * w, and the Laplacian on request; it is the only
place that rule is written, and it serves both the basis products of
assembly and the contracted fields of the error norms.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .mesh import LOCAL_FACETS, BackgroundMesh

__all__ = [
    "QUAD_DEGREE_CAP",
    "QuadratureRule",
    "DofMap",
    "tabulate",
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
    "group_matmul",
    "eval_shapes",
    "product_rule",
]

#: Hard ceiling on requested polynomial exactness of any quadrature rule.
QUAD_DEGREE_CAP = 12

# the Lagrange degrees the package accepts, for the solution and the level
# set alike; the basis, the dof map, the level set and RunConfig read it
_DEGREES = (1, 2, 3)


def _lattice_multi_indices(p: int) -> np.ndarray:
    """Barycentric multi-indices (a0, a1, a2), a0+a1+a2 = p, bottom row first."""
    out = [(p - i - j, i, j) for j in range(p + 1) for i in range(p + 1 - j)]
    return np.array(out, dtype=np.int64)


# reference gradients of the barycentric coordinates (1 - x - y, x, y)
_BARY_GRADS = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])


def tabulate(degree: int, points_bary: np.ndarray
             ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Values, reference gradients and reference Hessians of the nodal
    Lagrange basis of total degree `degree`, 1..3, at given points;
    ValueError for any other degree.

    The basis function of node alpha is the product over i and
    j < alpha_i of the factors (degree lambda_i - j) / (j + 1), lambda
    the barycentric coordinates of the point, all three read as given.
    The gradient and the Hessian are carried through the factors by the
    product rule; each factor is linear in (x, y), so it adds no Hessian
    of its own.

    Parameters
    ----------
    points_bary : (Q, 3) barycentric coordinates.

    Returns
    -------
    values : (Q, n), n the number of nodes.
    grads : (Q, n, 2), derivatives in reference coordinates.
    hessians : (Q, n, 2, 2)
    """
    if degree not in _DEGREES:
        raise ValueError(f"unsupported polynomial degree {degree}")
    lam = np.asarray(points_bary, dtype=float)
    alpha = _lattice_multi_indices(degree)
    values = np.ones((len(lam), len(alpha)))
    grads = np.zeros(values.shape + (2,))
    hess = np.zeros(values.shape + (2, 2))
    for j in range(degree):
        for i in range(3):
            on = alpha[:, i] > j
            f = np.where(on, (degree * lam[:, i:i + 1] - j) / (j + 1), 1.0)
            df = np.outer(on, _BARY_GRADS[i] * degree / (j + 1))   # (n, 2)
            cross = grads[..., :, None] * df[:, None, :]
            hess = (hess * f[..., None, None] + cross
                    + cross.swapaxes(-1, -2))
            grads = grads * f[..., None] + values[..., None] * df
            values = values * f
    return values, grads, hess


@dataclass(frozen=True)
class QuadratureRule:
    """Quadrature nodes in barycentric coordinates of the reference simplex.

    For triangles `points` has shape (Q, 3) and weights sum to 1/2; for
    edges it has shape (Q, 2) and weights sum to 1.
    """

    points: np.ndarray
    weights: np.ndarray
    degree: int


def _gauss_jacobi(n: int, a: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-point Gauss rule for the weight (1 - x)^a on [-1, 1], a in
    {0, 1}: nodes in ascending order and their weights, by Golub-Welsch.

    The nodes are the eigenvalues of the symmetric tridiagonal Jacobi
    matrix of the monic Jacobi(a, 0) recurrence, and each weight is
    mu0 v0^2, v0 the first entry of the node's unit eigenvector and
    mu0 = 2^(a+1) / (a + 1) the integral of the weight.
    """
    k = np.arange(n, dtype=float)
    s = 2.0 * k + a
    diag = np.zeros(n) if a == 0 else -a * a / (s * (s + 2.0))
    k, s = k[1:], s[1:]
    off = np.sqrt(4.0 * k * k * (k + a) ** 2 / (s * s * (s * s - 1.0)))
    nodes, vecs = np.linalg.eigh(
        np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    return nodes, 2.0 ** (a + 1) / (a + 1) * vecs[0] ** 2


def _gauss_size(exactness: int) -> int:
    """Number n of Gauss points per direction, whose exactness 2n - 1
    covers `exactness`; ValueError unless 0 <= exactness <= the cap."""
    if exactness < 0:
        raise ValueError("exactness must be nonnegative")
    if exactness > QUAD_DEGREE_CAP:
        raise ValueError(
            f"exactness {exactness} exceeds cap {QUAD_DEGREE_CAP}")
    return max(1, (exactness + 2) // 2)


@lru_cache(maxsize=None)
def triangle_quadrature(exactness: int) -> QuadratureRule:
    """Positive-weight triangle rule exact for polynomials up to `exactness`.

    Built as a conical product rule: Gauss-Legendre in one direction and
    Gauss-Jacobi (weight 1 - t) in the other, collapsed onto the triangle,
    both with the same number of points from `_gauss_jacobi`
    (Golub-Welsch).  All nodes are strictly interior and all weights
    positive.
    """
    n = _gauss_size(exactness)
    xl, wl = _gauss_jacobi(n, 0)
    xj, wj = _gauss_jacobi(n, 1)
    u = 0.5 * (xl + 1.0)                    # [0, 1]
    v = 0.5 * (xj + 1.0)
    wu = 0.5 * wl
    wv = 0.25 * wj
    X = np.outer(1.0 - v, u).ravel()        # x = u (1 - v), y = v
    Y = np.repeat(v, n)
    W = np.outer(wv, wu).ravel()
    points = np.column_stack([1.0 - X - Y, X, Y])
    _frozen((points, W))
    return QuadratureRule(points=points, weights=W, degree=exactness)


@lru_cache(maxsize=None)
def edge_quadrature(exactness: int) -> QuadratureRule:
    """Gauss-Legendre rule on the reference edge, barycentric (1-s, s),
    from `_gauss_jacobi` (Golub-Welsch) with the weight 1."""
    x, w = _gauss_jacobi(_gauss_size(exactness), 0)
    s = 0.5 * (x + 1.0)
    points = np.column_stack([1.0 - s, s])
    weights = 0.5 * w
    _frozen((points, weights))
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
    if degree not in _DEGREES:
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
    in_use = np.zeros((degree * mesh.n_cells[0] + 1) * stride, dtype=bool)
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
    _frozen((tris, cell_dofs, node_coords, uniq))
    return DofMap(mesh=mesh, degree=degree, triangles=tris,
                  cell_dofs=cell_dofs, node_coords=node_coords,
                  node_keys=uniq)


# ---------------------------------------------------------------------------
# the two triangle shapes, their maps and their tables

def shape_maps(cell_size: tuple[float, float]):
    """Affine maps of a mesh's two triangle shapes, in closed form from
    its cell size (dx, dy), `BackgroundMesh.cell_size`.

    Triangle t has shape t % 2: 0 for the lower triangle (v00, v10, v11)
    of its cell, 1 for the upper one (v00, v11, v01).  Returns (jac, det,
    inv): jac and inv are (2, 2, 2), indexed by shape, with the edge
    vectors as the columns of jac; det = dx dy = 2 * area is shared.
    """
    dx, dy = cell_size
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
    inv = np.repeat(shape_maps(mesh.cell_size)[2], 3, axis=0)
    return lengths, (inv @ normals[:, :, None])[..., 0]


def physical_points(mesh: BackgroundMesh, tris: np.ndarray,
                    bary: np.ndarray) -> np.ndarray:
    """Physical coordinates (nT, Q, 2) of barycentric points (Q, 3) shared
    by every triangle: its first vertex plus the offset of its shape."""
    jac, _, _ = shape_maps(mesh.cell_size)
    offsets = bary[:, 1:] @ jac.swapaxes(1, 2)          # (2, Q, 2)
    v0 = mesh.vertices[mesh.triangles[tris, 0]]
    return v0[:, None, :] + offsets[tris % 2]


def _frozen(arrays: tuple) -> tuple:
    for arr in arrays:
        arr.setflags(write=False)
    return arrays


@lru_cache(maxsize=None)
def rule_tables(degree: int, exactness: int):
    """Reference values (Q, n), gradients (Q, n, 2) and Hessians
    (Q, n, 2, 2) of the degree-`degree` basis at the points of
    `triangle_quadrature(exactness)`.  Tabulated once per key; every
    triangle of both shapes shares them."""
    return _frozen(tabulate(degree, triangle_quadrature(exactness).points))


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
    values, grads, _ = tabulate(degree, bary.reshape(-1, 3))
    n = values.shape[-1]
    return _frozen((values.reshape(6, s.size, n),
                    grads.reshape(6, s.size, n, 2)))


def physical_tables(tables: tuple, inv: np.ndarray):
    """Physical gradients and Laplacians of a triangle rule's reference
    tables (`rule_tables`), which every shape shares; `inv` is (S, 2, 2),
    the two shapes' inverse Jacobians.  Returns gradients (S, Q, n, 2)
    and Laplacians (S, Q, n).
    """
    _, tab_g, tab_h = tables
    Q, n = tab_g.shape[:2]
    S = len(inv)
    grads = (tab_g.reshape(Q * n, 2) @ inv).reshape(S, Q, n, 2)
    # the trace of inv.T H_ref inv: sum_dc H_ref[d, c] (inv inv.T)[d, c]
    metric = (inv @ inv.swapaxes(1, 2)).reshape(S, 4, 1)
    lap = (tab_h.reshape(Q * n, 4) @ metric).reshape(S, Q, n)
    return grads, lap


def group_matmul(coef: np.ndarray, group: np.ndarray, tables: np.ndarray
                 ) -> np.ndarray:
    """out[e] = coef[e] @ tables[group[e]] for entities whose table
    depends only on a group, such as the shape of a triangle: coef
    (N, m), group (N,) ids into tables (S, m, p).  Returns (N, p), one
    GEMM per group over its rows in their order."""
    out = np.empty((len(coef), tables.shape[-1]))
    for s in range(len(tables)):
        rows = np.flatnonzero(group == s)
        out[rows] = coef[rows] @ tables[s]
    return out


def eval_shapes(coef: np.ndarray, group: np.ndarray, values: np.ndarray,
                derivs: np.ndarray):
    """Values and physical derivatives of per-entity Lagrange fields whose
    tables depend only on a group: the shape of a triangle, or the shape
    and local facet of a facet trace.

    coef : (N, m) nodal values; group : (N,) table row of each entity.
    values : (Q, m), shared by every group, or (S, Q, m).
    derivs : (S, Q, m, c), any c derivative columns: the gradients from
        `physical_tables`, or a facet table's outward normal derivatives.
    Returns values (N, Q) and derivatives (N, Q, c), by `group_matmul`.

    Each group's table is laid out (m, (c + 1) Q), so the one GEMM writes
    each entity's row as the planes [values | d_1 | ... | d_c] of Q
    points each.  The derivatives are a transposed view of those planes:
    each column runs with unit stride along Q, so the ufuncs that
    consume them (`product_rule`, the error sums) iterate unit-stride
    rows rather than every (c + 1)-th element.
    """
    S, Q, m, c = derivs.shape
    table = np.concatenate([np.broadcast_to(values, (S, Q, m))[:, None],
                            derivs.transpose(0, 3, 1, 2)], axis=1)
    table = table.transpose(0, 3, 1, 2).reshape(S, m, (c + 1) * Q)
    out = group_matmul(coef, group, table).reshape(-1, c + 1, Q)
    return out[:, 0], out[:, 1:].transpose(0, 2, 1)


def product_rule(pv, pd, wv, wd, plap=None, wlap=None):
    """Value, derivatives and Laplacian of u = phi * w from those of phi
    and of w, the one place the product rule is written.

    pv, wv : values; any shapes that broadcast against each other, such as
        contracted fields, or basis functions laid out (..., m, 1) for phi
        and (..., 1, n) for w.
    pd, wd : derivatives, the values' shapes plus a last axis of any
        number of columns (gradients, or one normal derivative).
    plap, wlap : Laplacians, the values' shapes, or None.
    Returns the value, the derivatives and, when both Laplacians are
    given, lap(phi) w + 2 grad(phi) . grad(w) + phi lap(w), else None.
    """
    value = pv * wv
    derivs = wv[..., None] * pd + pv[..., None] * wd
    if plap is None or wlap is None:
        return value, derivs, None
    dot = (pd[..., None, :] @ wd[..., :, None])[..., 0, 0]
    return value, derivs, plap * wv + 2.0 * dot + pv * wlap
