"""Reference Lagrange elements, quadrature rules and dof maps.

Reference triangle: vertices (0,0), (1,0), (0,1); barycentric coordinates
(1 - x - y, x, y).  Lagrange nodes of degree p sit on the barycentric
lattice {(a, b, c)/p : a + b + c = p}, enumerated bottom row first.  Basis
coefficients come from inverting the monomial Vandermonde matrix at the
nodes, which is exact to rounding for p <= 3.
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

    def tabulate(self, points_bary: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Values, reference gradients and reference Hessians at given points.

        Parameters
        ----------
        points_bary : (Q, 3) barycentric coordinates.

        Returns
        -------
        values : (Q, n_basis)
        grads : (Q, n_basis, 2), derivatives in reference coordinates.
        hessians : (Q, n_basis, 2, 2)
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

    @property
    def n_local(self) -> int:
        return self.cell_dofs.shape[1]

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
