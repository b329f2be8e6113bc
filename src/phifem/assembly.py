"""Assembly of the stabilized fictitious-domain system.

The unknown is the factor w in u = phi * w, so the Dirichlet condition on
the zero set of phi holds by construction and no boundary mesh is needed.
All integrals run over full triangles of the active submesh; nothing is
ever integrated over a cut polygon or the implicit curve itself.

The bilinear form assembled here is

    a(w, v) = (grad(phi w), grad(phi v))_active
            - (d/dn (phi w), phi v)_boundary facets
            + sigma * h   * sum over ghost facets of [d/dn(phi w)][d/dn(phi v)]
            + sigma * h^2 * sum over cut triangles of (lap(phi w), lap(phi v))

with the matching right-hand side

    l(v) = (f, phi v)_active - sigma * h^2 * (f, lap(phi v))_cut.

Each term has one public batched kernel, and assembly calls it: the
product and Laplacian penalty matrices and the load and its correction
over chunks of triangles, the boundary and ghost facet terms over all
their facets in one call each.  A single triangle or facet is a
length-1 call, so the hand-integral tests pin the code that assembly
runs.

The mesh has two triangle shapes, so every basis table is per shape,
never per triangle (`fem_core.shape_maps`, `rule_tables`,
`facet_tables`).  Only the level-set coefficients c of a triangle vary.
The two volume forms are quadratic in c, so each is the pair product
(c_a c_b)_{a<=b} @ T_shape with a pair tensor T_shape[ab, ij] built by
one matmul per shape from the tables; the load and its correction are
one GEMM per shape against the tables at v0 + offset[shape] points.  A
facet trace takes the values and outward normal derivatives of its
triangle's shape and local facet, the latter one matmul of the facet
table with the conormal of `fem_core.facet_frames`, and each side of a
ghost facet differentiates along its own outward normal.
Both penalty terms and the load correction are linear in sigma, so
their kernels and `assemble_ghost_part` return the sigma = 1 forms,
with h read from the mesh; `assemble_parts` builds the core A0, b0 and
the penalty part G, g once per level, and `SystemParts.system` forms
A = A0 + sigma G, b = b0 + sigma g for each strength.  The penalty part
is assembled separately from the core so that its matrix is exactly
symmetric and can be inspected on its own.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .fem_core import (QuadratureRule, ReferenceElement, DofMap,
                       build_dof_map, edge_quadrature, eval_shapes,
                       facet_frames, facet_tables, make_reference_element,
                       physical_points, physical_tables, quadrature_degrees,
                       rule_tables, shape_maps, triangle_quadrature)
from .levelset import ActiveDomain, AnalyticField, LevelSetField

__all__ = [
    "SparseSystem",
    "SystemParts",
    "assemble_parts",
    "assemble_system",
    "assemble_ghost_part",
    "element_product_kernel",
    "ghost_laplacian_kernel",
    "load_kernel",
    "load_correction_kernel",
    "boundary_term_kernel",
    "ghost_jump_kernel",
]

_CHUNK = 4096


@dataclass(frozen=True)
class SparseSystem:
    """Assembled linear system A w = b over the active dofs."""

    A: sp.csr_matrix
    b: np.ndarray
    dofmap: DofMap

    @property
    def n_dofs(self) -> int:
        return self.b.shape[0]


# ---------------------------------------------------------------------------
# kernels: one batched function per term; a single entity is a length-1 call

def _gram(w, a, b):
    """Batched sum over q of w[..., q] a[..., q, i] b[..., q, j]."""
    return (a * w[..., None]).swapaxes(-1, -2) @ b


def _symmetrize(m: np.ndarray) -> np.ndarray:
    """Copy each lower triangle onto the upper one, making symmetry exact."""
    return np.tril(m) + np.tril(m, -1).swapaxes(-1, -2)


def _exactness(quad: QuadratureRule, rule_of) -> int:
    """The key of `quad`'s cached tables, its exactness.  The tables hold
    the points of `rule_of(exactness)`, so `quad` must be that rule."""
    if quad is not rule_of(quad.degree):
        raise ValueError(f"kernels take rules from {rule_of.__name__}")
    return quad.degree


def _shape_tables(degree, quad, inv, need_lap=False):
    """Values (Q, n), per-shape physical gradients (2, Q, n, 2) and
    Laplacians (2, Q, n) or None, from the cached reference tables."""
    tables = rule_tables(degree, _exactness(quad, triangle_quadrature),
                         need_lap)
    return (tables[0],) + physical_tables(tables, inv, need_lap)


def _gradient_terms(field, ref, quad, inv):
    """grad(phi_a psi_i) at the rule's points for both shapes, phi_a the
    level-set basis: shape (2, Q, 2, m, n), the (q, e) axes leading."""
    pv, pg, _ = _shape_tables(field.degree, quad, inv)
    bv, bg, _ = _shape_tables(ref.degree, quad, inv)
    terms = (pg[:, :, :, None, :] * bv[None, :, None, :, None]
             + pv[None, :, :, None, None] * bg[:, :, None, :, :])
    return terms.transpose(0, 1, 4, 2, 3)


def _laplacian_terms(field, ref, quad, inv):
    """lap(phi_a psi_i) at the rule's points for both shapes, phi_a the
    level-set basis: shape (2, Q, m, n)."""
    pv, pg, plap = _shape_tables(field.degree, quad, inv, need_lap=True)
    bv, bg, blap = _shape_tables(ref.degree, quad, inv, need_lap=True)
    return (plap[:, :, :, None] * bv[None, :, None, :]
            + 2.0 * pg @ bg.swapaxes(-1, -2)
            + pv[None, :, :, None] * blap[:, :, None, :])


def _pair_forms(coef, shape, terms, weights):
    """Per-triangle matrices sum_r w_r (c . X_r)_i (c . X_r)_j, with
    X_r = terms[shape, r] of shape (m, n) and c the triangle's level-set
    coefficients.

    The form is quadratic in c, so it is (c_a c_b)_{a<=b} @ T_shape with
    the pair tensor T[ab, ij] = sum_r w_r X_r[a, i] X_r[b, j] (plus its
    (b, a) twin off the diagonal), built by one matmul per shape.
    """
    m, n = terms.shape[-2:]
    ia, ib = np.triu_indices(m)
    off = (ia != ib)[:, None, None]
    pairs = coef[:, ia] * coef[:, ib]
    out = np.empty((len(coef), n, n))
    for s in (0, 1):
        x = terms[s].reshape(-1, m * n)
        t = ((x * weights[:, None]).T @ x).reshape(m, n, m, n)
        t = t.transpose(0, 2, 1, 3)                     # (a, b, i, j)
        table = t[ia, ib] + off * t[ib, ia]
        rows = np.flatnonzero(shape == s)
        out[rows] = (pairs[rows] @ table.reshape(-1, n * n)).reshape(-1, n, n)
    return out


def _facet_traces(field, ref, facets, tris, quad):
    """Lengths, traces phi psi_i and outward normal derivatives
    d/dn(phi psi_i) on one side of each facet.

    Facet f is seen from triangle tris[f] and parametrized at the points
    of the edge rule `quad` from its lower to its higher vertex id, so both
    incident triangles see the same physical points.  The tables and the
    frame are those of the triangle's shape and local facet, and the
    normal points out of tris[f].  Returns (F,) lengths and two (F, Q, n)
    arrays.
    """
    mesh = field.mesh
    local = np.argmax(mesh.triangle_facets[tris] == facets[:, None], axis=1)
    group = 3 * (tris % 2) + local
    exactness = _exactness(quad, edge_quadrature)
    lengths, conormals = facet_frames(mesh)
    conormals = conormals[:, None, :, None]         # one per table row
    values, grads = facet_tables(field.degree, exactness)
    pv, pdn = eval_shapes(field.cell_coefficients(tris), group, values,
                          grads @ conormals)
    values, grads = facet_tables(ref.degree, exactness)
    bv = values[group]
    bdn = (grads @ conormals)[group, ..., 0]
    return lengths[group], pv[..., None] * bv, bv * pdn + pv[..., None] * bdn


def element_product_kernel(triangles: np.ndarray, field: LevelSetField,
                           ref: ReferenceElement,
                           quad: QuadratureRule) -> np.ndarray:
    """Local matrices of integral grad(phi psi_j) . grad(phi psi_i) dx.

    One (n, n) matrix per triangle id in `triangles`: shape (nT, n, n).
    """
    _, det, inv = shape_maps(field.mesh)
    terms = _gradient_terms(field, ref, quad, inv)
    _, Q, _, m, n = terms.shape
    return _pair_forms(field.cell_coefficients(triangles), triangles % 2,
                       terms.reshape(2, 2 * Q, m, n),
                       np.repeat(det * quad.weights, 2))


def ghost_laplacian_kernel(triangles: np.ndarray, field: LevelSetField,
                           ref: ReferenceElement,
                           quad: QuadratureRule) -> np.ndarray:
    """Penalty matrices h^2 * integral lap(phi psi_j) lap(phi psi_i) dx,
    at sigma = 1 with h = field.mesh.h.

    One exactly symmetric (n, n) matrix per triangle: shape (nT, n, n).
    """
    h = field.mesh.h
    _, det, inv = shape_maps(field.mesh)
    terms = _laplacian_terms(field, ref, quad, inv)
    return _symmetrize(_pair_forms(field.cell_coefficients(triangles),
                                   triangles % 2, terms,
                                   h * h * det * quad.weights))


def _source(f, mesh, triangles, quad):
    """f at the rule's points of each triangle, times the weights."""
    pts = physical_points(mesh, triangles, quad.points)
    fv = np.asarray(f.value(pts[..., 0], pts[..., 1]), dtype=float)
    return fv * (shape_maps(mesh)[1] * quad.weights)


def load_kernel(triangles: np.ndarray, f: AnalyticField,
                field: LevelSetField, ref: ReferenceElement,
                quad: QuadratureRule) -> np.ndarray:
    """Element load vectors (f, phi psi_i), shape (nT, n)."""
    exactness = _exactness(quad, triangle_quadrature)
    wf = _source(f, field.mesh, triangles, quad)
    pv = field.cell_coefficients(triangles) @ rule_tables(
        field.degree, exactness, False)[0].T
    return (wf * pv) @ rule_tables(ref.degree, exactness, False)[0]


def load_correction_kernel(triangles: np.ndarray, f: AnalyticField,
                           field: LevelSetField, ref: ReferenceElement,
                           quad: QuadratureRule) -> np.ndarray:
    """Stabilization corrections -h^2 (f, lap(phi psi_i)) at sigma = 1,
    with h = field.mesh.h, shape (nT, n); the right-hand side adds them
    on cut triangles only."""
    h = field.mesh.h
    terms = _laplacian_terms(field, ref, quad, shape_maps(field.mesh)[2])
    Q, m, n = terms.shape[1:]
    wf = _source(f, field.mesh, triangles, quad)
    coef = field.cell_coefficients(triangles)
    shape = triangles % 2
    out = np.empty((len(triangles), n))
    for s in (0, 1):
        rows = np.flatnonzero(shape == s)
        x = wf[rows, :, None] * coef[rows, None, :]        # (nT, Q, m)
        out[rows] = x.reshape(-1, Q * m) @ terms[s].reshape(Q * m, n)
    return -h * h * out


def boundary_term_kernel(facets: np.ndarray, owners: np.ndarray,
                         field: LevelSetField, ref: ReferenceElement,
                         quad: QuadratureRule) -> np.ndarray:
    """Local matrices of integral d/dn(phi psi_j) * (phi psi_i) ds.

    Traces of facet facets[f] are taken from owners[f], its unique active
    triangle, and n points out of that triangle, so out of the active
    set.  Returns (F, n, n); the assembled system subtracts these
    matrices.
    """
    lengths, test, dn = _facet_traces(field, ref, facets, owners, quad)
    return _gram(quad.weights * lengths[:, None], test, dn)


def ghost_jump_kernel(facets: np.ndarray, field: LevelSetField,
                      ref: ReferenceElement, quad: QuadratureRule
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Jump penalties h * integral [d/dn(phi psi_j)][d/dn(phi psi_i)] ds,
    at sigma = 1 with h = field.mesh.h.

    Returns (tris, local): tris (F, 2) holds the two incident triangles
    of each facet in ascending id order, and local (F, 2n, 2n) the exactly
    symmetric matrices over their stacked dofs.  Dofs shared by both
    triangles appear twice; duplicate entries add up correctly during
    global accumulation.  Each side takes the derivative along its own
    outward normal; the two normals are opposite, so the jump is the sum
    of the two sides.
    """
    mesh = field.mesh
    tris = mesh.facet_triangles[facets]                   # (F, 2) ascending
    single = tris[:, 1] < 0
    if single.any():
        raise ValueError(f"facet {facets[single][0]} has a single "
                         "incident triangle")
    lengths, _, dn_lo = _facet_traces(field, ref, facets, tris[:, 0], quad)
    _, _, dn_hi = _facet_traces(field, ref, facets, tris[:, 1], quad)
    jump = np.concatenate([dn_lo, dn_hi], axis=-1)        # (F, Q, 2n)
    w = mesh.h * quad.weights * lengths[:, None]
    return tris, _symmetrize(_gram(w, jump, jump))


# ---------------------------------------------------------------------------
# global assembly

def _accumulate(rows, cols, vals, dofs_i, dofs_j, local):
    rows.append(np.broadcast_to(dofs_i[..., :, None], local.shape).ravel())
    cols.append(np.broadcast_to(dofs_j[..., None, :], local.shape).ravel())
    vals.append(local.ravel())


def assemble_ghost_part(domain: ActiveDomain, field: LevelSetField,
                        f: AnalyticField, k: int, dofmap: DofMap
                        ) -> tuple[sp.csr_matrix, np.ndarray]:
    """Assemble the penalty matrix and its right-hand side correction at
    sigma = 1; the system for strength sigma adds sigma times them.

    The matrix couples facet jumps on ghost facets with element Laplacian
    products on cut triangles.  Local blocks are symmetrized exactly, and
    the accumulated matrix is averaged with its transpose: summation order
    of duplicate entries is not mirror-invariant, so the average is what
    makes the result symmetric entry for entry, not merely up to rounding.
    """
    ref = make_reference_element(k)
    degrees = quadrature_degrees(k, field.degree)
    edge_rule = edge_quadrature(degrees["ghost_facet"])
    vol_rule = triangle_quadrature(degrees["volume"])
    data_rule = triangle_quadrature(degrees["data"])
    n = ref.n_basis

    rows: list[np.ndarray] = []
    cols: list[np.ndarray] = []
    vals: list[np.ndarray] = []

    tris, local = ghost_jump_kernel(domain.ghost_facets, field, ref,
                                    edge_rule)
    dofs = dofmap.cell_dofs[dofmap.rows_for(tris)].reshape(len(tris), 2 * n)
    _accumulate(rows, cols, vals, dofs, dofs, local)

    b_corr = np.zeros(dofmap.n_dofs)
    cut = domain.cut_triangles
    cut_rows = dofmap.rows_for(cut)
    for start in range(0, cut.size, _CHUNK):
        sel = slice(start, start + _CHUNK)
        local = ghost_laplacian_kernel(cut[sel], field, ref, vol_rule)
        dofs = dofmap.cell_dofs[cut_rows[sel]]
        _accumulate(rows, cols, vals, dofs, dofs, local)
        corr = load_correction_kernel(cut[sel], f, field, ref, data_rule)
        np.add.at(b_corr, dofs.ravel(), corr.ravel())

    mat = sp.coo_matrix((np.concatenate(vals),
                         (np.concatenate(rows), np.concatenate(cols))),
                        shape=(dofmap.n_dofs, dofmap.n_dofs)).tocsr()
    return ((mat + mat.T) * 0.5).tocsr(), b_corr


def _box_boundary_dofs(domain: ActiveDomain, dofmap: DofMap) -> np.ndarray:
    """Dofs whose node lies on the part of the active boundary that
    coincides with the background-box boundary.  Decided on the integer
    node lattice, so no tolerance is involved."""
    mesh = domain.mesh
    on_box = mesh.facet_triangles[domain.boundary_facets, 1] < 0
    facets = domain.boundary_facets[on_box]
    k = dofmap.degree
    ends = mesh.vertex_lattice[mesh.facets[facets]]       # (F, 2, 2)
    step = ends[:, 1] - ends[:, 0]      # primitive: entries in {-1, 0, 1}
    # the lattice points of a facet are its k + 1 nodes, ends included
    on_facets = (k * ends[:, None, 0]
                 + np.arange(k + 1)[None, :, None] * step[:, None, :])
    code = np.array([k * mesh.n_cells[1] + 1, 1])
    pinned = np.isin(dofmap.node_keys @ code, on_facets.reshape(-1, 2) @ code)
    return np.nonzero(pinned)[0]


def _check_sigma(sigma: float) -> None:
    if not np.isfinite(sigma) or sigma < 0.0:
        raise ValueError(
            f"penalty strength must be finite and >= 0, got {sigma}")


@dataclass(frozen=True)
class SystemParts:
    """The sigma-free parts of one level's system.

    The system for penalty strength sigma is A = A0 + sigma G and
    b = b0 + sigma g, with Dirichlet rows on the pinned dofs; `system`
    forms it.  G and g are the penalty part at sigma = 1 and are None
    when the parts were built for sigma = 0 only.
    """

    A0: sp.csr_matrix
    b0: np.ndarray
    G: sp.csr_matrix | None
    g: np.ndarray | None
    pinned: np.ndarray          # dofs with Dirichlet rows
    pinned_values: np.ndarray   # their right-hand side values
    dofmap: DofMap

    def system(self, sigma: float) -> SparseSystem:
        """The assembled system for one penalty strength."""
        _check_sigma(sigma)
        if sigma == 0.0:
            A = self.A0.copy()
            b = self.b0.copy()
        elif self.G is None:
            raise ValueError(f"penalty part not assembled; sigma = {sigma} "
                             "was not among the strengths asked for")
        else:
            A = (self.A0 + sigma * self.G).tocsr()
            b = self.b0 + sigma * self.g
        if self.pinned.size:
            # zero the pinned rows in place, then put 1 on their diagonal
            pinned_row = np.zeros(A.shape[0], dtype=bool)
            pinned_row[self.pinned] = True
            A.data[np.repeat(pinned_row, np.diff(A.indptr))] = 0.0
            A = (A + sp.csr_matrix((np.ones(self.pinned.size),
                                    (self.pinned, self.pinned)),
                                   shape=A.shape)).tocsr()
            b[self.pinned] = self.pinned_values
        A.eliminate_zeros()
        A.sort_indices()
        return SparseSystem(A=A, b=b, dofmap=self.dofmap)


def assemble_parts(domain: ActiveDomain, field: LevelSetField,
                   f: AnalyticField, k: int, sigmas: list[float],
                   outer_data: AnalyticField | None = None) -> SystemParts:
    """Assemble everything that does not depend on the penalty strength.

    Parameters
    ----------
    domain : classification of the mesh against `field`.
    field : level-set interpolant, degree l.
    f : source term of the strong problem -lap(u) = f.
    k : polynomial degree of the unknown factor, 1..3.
    sigmas : the penalty strengths, each >= 0, that the parts will be
        asked for.  The penalty part is assembled only when one of them
        is nonzero; with sigma = 0 only the plain product form remains.
    outer_data : values of the factor w where the active region reaches
        the background-box boundary.  The weak form carries no condition
        there (the zero set is meant to stay inside the box), so problems
        whose geometry does touch the box must pin w to stay uniquely
        solvable; dofs on that part of the boundary get Dirichlet rows.

    Quadrature exactness follows `quadrature_degrees(k, l)`.
    """
    if k not in (1, 2, 3):
        raise ValueError(f"unsupported polynomial degree {k}")
    for sigma in sigmas:
        _check_sigma(sigma)
    mesh = domain.mesh
    if field.mesh is not mesh:
        raise ValueError("level set and domain live on different meshes")

    dofmap = build_dof_map(mesh, domain.active_triangles, k)
    ref = make_reference_element(k)
    degrees = quadrature_degrees(k, field.degree)
    vol_rule = triangle_quadrature(degrees["volume"])
    data_rule = triangle_quadrature(degrees["data"])
    bnd_rule = edge_quadrature(degrees["boundary_facet"])

    rows: list[np.ndarray] = []
    cols: list[np.ndarray] = []
    vals: list[np.ndarray] = []
    b0 = np.zeros(dofmap.n_dofs)

    active = domain.active_triangles
    for start in range(0, active.size, _CHUNK):
        sel = slice(start, start + _CHUNK)
        tris = active[sel]
        local = element_product_kernel(tris, field, ref, vol_rule)
        dofs = dofmap.cell_dofs[dofmap.rows_for(tris)]
        _accumulate(rows, cols, vals, dofs, dofs, local)
        load = load_kernel(tris, f, field, ref, data_rule)
        np.add.at(b0, dofs.ravel(), load.ravel())

    local = boundary_term_kernel(domain.boundary_facets,
                                 domain.boundary_owners, field, ref, bnd_rule)
    dofs = dofmap.cell_dofs[dofmap.rows_for(domain.boundary_owners)]
    _accumulate(rows, cols, vals, dofs, dofs, -local)

    A0 = sp.coo_matrix((np.concatenate(vals),
                        (np.concatenate(rows), np.concatenate(cols))),
                       shape=(dofmap.n_dofs, dofmap.n_dofs)).tocsr()

    G = g = None
    if any(sigmas):
        G, g = assemble_ghost_part(domain, field, f, k, dofmap)

    pinned = np.zeros(0, dtype=np.int64)
    pinned_values = np.zeros(0)
    if outer_data is not None:
        pinned = _box_boundary_dofs(domain, dofmap)
    if pinned.size:
        nodes = dofmap.node_coords[pinned]
        pinned_values = np.asarray(outer_data.value(nodes[:, 0], nodes[:, 1]),
                                   dtype=np.float64)

    return SystemParts(A0=A0, b0=b0, G=G, g=g, pinned=pinned,
                       pinned_values=pinned_values, dofmap=dofmap)


def assemble_system(domain: ActiveDomain, field: LevelSetField,
                    f: AnalyticField, k: int, sigma: float,
                    outer_data: AnalyticField | None = None) -> SparseSystem:
    """Assemble the full linear system over the active submesh for one
    penalty strength: `assemble_parts` for [sigma], then its `system`.

    See `assemble_parts` for the parameters.  With sigma = 0 the penalty
    terms are skipped entirely.
    """
    return assemble_parts(domain, field, f, k, [sigma],
                          outer_data).system(sigma)
