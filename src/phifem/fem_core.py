"""Reference Lagrange elements, quadrature rules, dof maps and the maps
that turn reference tabulations into physical values.

Reference triangle: vertices (0,0), (1,0), (0,1); barycentric coordinates
(1 - x - y, x, y).  Lagrange nodes of degree p sit on the barycentric
lattice {(a, b, c)/p : a + b + c = p}, enumerated bottom row first.  Basis
coefficients come from inverting the monomial Vandermonde matrix at the
nodes, which is exact to rounding for p <= 3.

Every physical value in the package comes from here: `basis_values` and
`basis_tables` give the basis functions themselves, and `eval_lagrange`
gives a per-triangle Lagrange field (the level set, the factor w)
contracted with its nodal coefficients.  All take barycentric points
either shared by every triangle, shape (Q, 3), or one set per triangle,
shape (nT, Q, 3).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import roots_jacobi, roots_legendre

from .mesh import BackgroundMesh

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
    "element_maps",
    "physical_points",
    "basis_values",
    "basis_tables",
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
    tris = np.unique(np.asarray(triangles, dtype=np.int64))
    if tris.size == 0:
        raise ValueError("empty triangle set")
    if tris[0] < 0 or tris[-1] >= mesh.n_triangles:
        raise ValueError("triangle ids out of range")

    multi = _lattice_multi_indices(degree)          # (n_local, 3)
    vkeys = mesh.vertex_lattice[mesh.triangles[tris]]   # (nT, 3, 2)
    # node key = sum_a multi[a] * degree-scaled vertex key, exact integers
    keys = np.einsum("la,tad->tld", multi, vkeys)   # (nT, n_local, 2)

    # one int64 per key, ordered like the keys themselves (x index first)
    stride = degree * mesh.n_cells[1] + 1
    codes, inverse = np.unique(keys[..., 0] * stride + keys[..., 1],
                               return_inverse=True)
    cell_dofs = inverse.reshape(keys.shape[:2]).astype(np.int64)
    uniq = np.column_stack([codes // stride, codes % stride])

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
# element maps and physical tabulations

def element_maps(mesh: BackgroundMesh, tris: np.ndarray):
    """Affine maps of the given triangles.

    Returns (v0, jac, det, inv) where jac columns are the edge vectors,
    det = 2 * area > 0 and inv is the inverse Jacobian.  The physical
    gradient of a reference function g is inv.T @ g_ref.
    """
    verts = mesh.triangle_coords(tris)
    v0 = verts[:, 0, :]
    jac = np.stack([verts[:, 1, :] - v0, verts[:, 2, :] - v0], axis=-1)
    det = jac[:, 0, 0] * jac[:, 1, 1] - jac[:, 0, 1] * jac[:, 1, 0]
    inv = np.empty_like(jac)
    inv[:, 0, 0] = jac[:, 1, 1]
    inv[:, 0, 1] = -jac[:, 0, 1]
    inv[:, 1, 0] = -jac[:, 1, 0]
    inv[:, 1, 1] = jac[:, 0, 0]
    inv /= det[:, None, None]
    return v0, jac, det, inv


def physical_points(v0: np.ndarray, jac: np.ndarray,
                    bary: np.ndarray) -> np.ndarray:
    """Physical coordinates of barycentric points, shape (nT, Q, 2)."""
    return v0[:, None, :] + bary[..., 1:] @ jac.swapaxes(1, 2)


def basis_values(ref: ReferenceElement, bary: np.ndarray) -> np.ndarray:
    """Basis values at barycentric points (Q, 3) or (nT, Q, 3); the
    result keeps the shape of the points, (Q, n) or (nT, Q, n)."""
    bary = np.asarray(bary, dtype=float)
    values, _, _ = ref.tabulate(bary.reshape(-1, 3), need_hess=False)
    return values.reshape(bary.shape[:-1] + (ref.n_basis,))


def basis_tables(ref: ReferenceElement, inv: np.ndarray, bary: np.ndarray,
                 need_lap: bool = False):
    """Basis values, physical gradients and physical Laplacians.

    `bary` is (Q, 3), shared by every triangle, or (nT, Q, 3).  Values
    keep the shape of the points, (Q, n) or (nT, Q, n); gradients are
    (nT, Q, n, 2) and Laplacians (nT, Q, n), or None unless `need_lap`.
    """
    bary = np.asarray(bary, dtype=float)
    tab_v, tab_g, tab_h = ref.tabulate(bary.reshape(-1, 3), need_lap)
    lead = bary.shape[:-2]                          # () or (nT,)
    Q, n = bary.shape[-2], ref.n_basis
    shape = (len(inv), Q, n)
    grad = (tab_g.reshape(lead + (Q * n, 2)) @ inv).reshape(shape + (2,))
    lap = None
    if need_lap:
        # the trace of inv.T H_ref inv: sum_dc H_ref[d, c] (inv inv.T)[d, c]
        metric = (inv @ inv.swapaxes(1, 2)).reshape(-1, 4, 1)
        lap = (tab_h.reshape(lead + (Q * n, 4)) @ metric).reshape(shape)
    return tab_v.reshape(bary.shape[:-1] + (n,)), grad, lap


def eval_lagrange(coef: np.ndarray, degree: int, inv: np.ndarray,
                  bary: np.ndarray, need_hess: bool = False):
    """Values and physical derivatives of per-triangle Lagrange fields.

    Parameters
    ----------
    coef : (nT, m) nodal values of a degree-`degree` field per triangle.
    inv : (nT, 2, 2) inverse Jacobians from `element_maps`.
    bary : (Q, 3) points shared by every triangle, or (nT, Q, 3).

    Returns
    -------
    values (nT, Q), gradients (nT, Q, 2) and, when `need_hess`, Hessians
    inv.T H_ref inv of shape (nT, Q, 2, 2), else None.

    The coefficients are contracted in reference coordinates first, so
    the inverse Jacobian acts on one gradient per point, not one per
    basis function.
    """
    bary = np.asarray(bary, dtype=float)
    tab_v, tab_g, tab_h = make_reference_element(degree).tabulate(
        bary.reshape(-1, 3), need_hess)
    P, m = tab_v.shape
    parts = [tab_v[..., None], tab_g]
    if need_hess:
        parts.append(tab_h.reshape(P, m, 4))
    tab = np.concatenate(parts, axis=-1)            # (P, m, c)
    nT, Q, c = len(coef), bary.shape[-2], tab.shape[-1]
    if bary.ndim == 2:
        # shared points: one GEMM over every triangle
        ref = (coef @ tab.swapaxes(0, 1).reshape(m, Q * c)).reshape(nT, Q, c)
    else:
        ref = np.einsum("tm,tqmc->tqc", coef, tab.reshape(nT, Q, m, c))
    val = ref[..., 0]
    grad = ref[..., 1:3] @ inv
    hess = None
    if need_hess:
        # (inv.T H inv)[a, b] = sum_dc inv[d, a] H[d, c] inv[c, b]
        outer = np.einsum("tda,tcb->tdcab", inv, inv).reshape(nT, 4, 4)
        hess = (ref[..., 3:] @ outer).reshape(nT, Q, 2, 2)
    return val, grad, hess
