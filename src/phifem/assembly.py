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
over chunks of triangles at shared quadrature points, the boundary and
ghost facet terms over all their facets in one call each, at per-facet
points.  A single triangle or facet is a length-1 call, so the
hand-integral tests pin the code that assembly runs.  Values and
physical derivatives of phi and of the basis come from `fem_core`
(`eval_lagrange`, `basis_tables`, `basis_values`), which takes both kinds
of points; this module only forms the products.
Both penalty terms and the load correction are linear in sigma, so
`assemble_parts` builds the core A0, b0 and the penalty part G, g at
sigma = 1 once per level, and `SystemParts.system` forms
A = A0 + sigma G, b = b0 + sigma g for each strength.  The penalty part
is assembled separately from the core so that its matrix is exactly
symmetric and can be inspected on its own.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .fem_core import (QuadratureRule, ReferenceElement, DofMap,
                       basis_tables, basis_values, build_dof_map,
                       edge_quadrature, element_maps, eval_lagrange,
                       make_reference_element, physical_points,
                       quadrature_degrees, triangle_quadrature)
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
    sigma: float
    h: float
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


def _laplacian_local(field, tris, ref, quad):
    """Laplacians lap(phi psi_i) at quadrature points and the weights."""
    _, _, det, inv = element_maps(field.mesh, tris)
    pv, pg, ph = eval_lagrange(field.cell_coefficients(tris), field.degree,
                               inv, quad.points, need_hess=True)
    bv, bg, blap = basis_tables(ref, inv, quad.points, need_lap=True)
    plap = ph[..., 0, 0] + ph[..., 1, 1]
    lap = (bv[None, :, :] * plap[:, :, None]
           + 2.0 * np.einsum("aqe,aqie->aqi", pg, bg)
           + pv[:, :, None] * blap)                     # (nT, Q, n)
    w = quad.weights[None, :] * det[:, None]
    return lap, w


def _facet_traces(field, ref, facets, tris, normals, s):
    """Traces phi psi_i and d/dn(phi psi_i) on one side of each facet.

    Facet f is seen from triangle tris[f] and parametrized at `s` from its
    lower to its higher vertex id, so both incident triangles see the same
    physical points.  Returns two (F, Q, n) arrays.
    """
    mesh = field.mesh
    ends = mesh.facets[facets]
    verts = mesh.triangles[tris]
    bary = ((1.0 - s)[:, None] * (verts == ends[:, :1])[:, None, :]
            + s[:, None] * (verts == ends[:, 1:])[:, None, :])  # (F, Q, 3)
    _, _, _, inv = element_maps(mesh, tris)
    pv, pg, _ = eval_lagrange(field.cell_coefficients(tris), field.degree,
                              inv, bary)
    bv, bg, _ = basis_tables(ref, inv, bary)
    pdn = np.einsum("fqd,fd->fq", pg, normals)
    bdn = np.einsum("fqid,fd->fqi", bg, normals)
    return pv[..., None] * bv, bv * pdn[..., None] + pv[..., None] * bdn


def element_product_kernel(triangles: np.ndarray, field: LevelSetField,
                           ref: ReferenceElement,
                           quad: QuadratureRule) -> np.ndarray:
    """Local matrices of integral grad(phi psi_j) . grad(phi psi_i) dx.

    One (n, n) matrix per triangle id in `triangles`: shape (nT, n, n).
    """
    _, _, det, inv = element_maps(field.mesh, triangles)
    pv, pg, _ = eval_lagrange(field.cell_coefficients(triangles),
                              field.degree, inv, quad.points)
    bv, bg, _ = basis_tables(ref, inv, quad.points)
    nT, Q, n, _ = bg.shape
    # built as (nT, Q, 2, n) so that (q, e) stacks into one axis for free
    # and the contraction becomes a matmul
    grads = pg[:, :, :, None] * bv[None, :, None, :]
    grads += pv[:, :, None, None] * bg.swapaxes(2, 3)
    grads = grads.reshape(nT, 2 * Q, n)
    w = np.repeat(quad.weights[None, :] * det[:, None], 2, axis=1)
    return _gram(w, grads, grads)


def ghost_laplacian_kernel(triangles: np.ndarray, field: LevelSetField,
                           ref: ReferenceElement, quad: QuadratureRule,
                           sigma: float, h: float) -> np.ndarray:
    """Penalty matrices sigma h^2 * integral lap(phi psi_j) lap(phi psi_i) dx.

    One exactly symmetric (n, n) matrix per triangle: shape (nT, n, n).
    """
    lap, w = _laplacian_local(field, triangles, ref, quad)
    return _symmetrize(sigma * h * h * _gram(w, lap, lap))


def load_kernel(triangles: np.ndarray, f: AnalyticField,
                field: LevelSetField, ref: ReferenceElement,
                quad: QuadratureRule) -> np.ndarray:
    """Element load vectors (f, phi psi_i), shape (nT, n)."""
    v0, jac, det, inv = element_maps(field.mesh, triangles)
    pts = physical_points(v0, jac, quad.points)
    fv = np.asarray(f.value(pts[..., 0], pts[..., 1]), dtype=float)
    pv, _, _ = eval_lagrange(field.cell_coefficients(triangles),
                             field.degree, inv, quad.points)
    w = quad.weights[None, :] * det[:, None]
    return np.einsum("aq,qi->ai", w * fv * pv,
                     basis_values(ref, quad.points))


def load_correction_kernel(triangles: np.ndarray, f: AnalyticField,
                           field: LevelSetField, ref: ReferenceElement,
                           quad: QuadratureRule, sigma: float,
                           h: float) -> np.ndarray:
    """Stabilization corrections -sigma h^2 (f, lap(phi psi_i)), shape
    (nT, n); the right-hand side adds them on cut triangles only."""
    v0, jac, _, _ = element_maps(field.mesh, triangles)
    pts = physical_points(v0, jac, quad.points)
    fv = np.asarray(f.value(pts[..., 0], pts[..., 1]), dtype=float)
    lap, w = _laplacian_local(field, triangles, ref, quad)
    return -sigma * h * h * np.einsum("aq,aqi->ai", w * fv, lap)


def boundary_term_kernel(facets: np.ndarray, owners: np.ndarray,
                         normals: np.ndarray, field: LevelSetField,
                         ref: ReferenceElement,
                         quad: QuadratureRule) -> np.ndarray:
    """Local matrices of integral d/dn(phi psi_j) * (phi psi_i) ds.

    Traces of facet facets[f] are taken from owners[f], its unique active
    triangle, and normals[f] must point out of the active set.  Returns
    (F, n, n); the assembled system subtracts these matrices.
    """
    test, dn = _facet_traces(field, ref, facets, owners, normals,
                             quad.points[:, 1])
    w = quad.weights * field.mesh.facet_lengths(facets)[:, None]
    return _gram(w, test, dn)


def ghost_jump_kernel(facets: np.ndarray, field: LevelSetField,
                      ref: ReferenceElement, quad: QuadratureRule,
                      sigma: float, h: float) -> tuple[np.ndarray, np.ndarray]:
    """Jump penalties sigma h * integral [d/dn(phi psi_j)][d/dn(phi psi_i)] ds.

    Returns (tris, local): tris (F, 2) holds the two incident triangles
    of each facet in ascending id order, and local (F, 2n, 2n) the exactly
    symmetric matrices over their stacked dofs.  Dofs shared by both
    triangles appear twice; duplicate entries add up correctly during
    global accumulation.  Each facet normal is fixed from the lower-id
    towards the higher-id triangle, and the jump is invariant under
    flipping it.
    """
    mesh = field.mesh
    tris = mesh.facet_triangles[facets]                   # (F, 2) ascending
    single = tris[:, 1] < 0
    if single.any():
        raise ValueError(f"facet {facets[single][0]} has a single "
                         "incident triangle")
    normals = mesh.facet_normals(facets, tris[:, 0])
    s = quad.points[:, 1]
    _, dn_lo = _facet_traces(field, ref, facets, tris[:, 0], normals, s)
    _, dn_hi = _facet_traces(field, ref, facets, tris[:, 1], normals, s)
    jump = np.concatenate([dn_lo, -dn_hi], axis=-1)       # (F, Q, 2n)
    w = sigma * h * quad.weights * mesh.facet_lengths(facets)[:, None]
    return tris, _symmetrize(_gram(w, jump, jump))


# ---------------------------------------------------------------------------
# global assembly

def _accumulate(rows, cols, vals, dofs_i, dofs_j, local):
    rows.append(np.broadcast_to(dofs_i[..., :, None], local.shape).ravel())
    cols.append(np.broadcast_to(dofs_j[..., None, :], local.shape).ravel())
    vals.append(local.ravel())


def assemble_ghost_part(domain: ActiveDomain, field: LevelSetField,
                        f: AnalyticField, k: int, sigma: float,
                        dofmap: DofMap | None = None
                        ) -> tuple[sp.csr_matrix, np.ndarray]:
    """Assemble the penalty matrix and its right-hand side correction.

    The matrix couples facet jumps on ghost facets with element Laplacian
    products on cut triangles.  Local blocks are symmetrized exactly, and
    the accumulated matrix is averaged with its transpose: summation order
    of duplicate entries is not mirror-invariant, so the average is what
    makes the result symmetric entry for entry, not merely up to rounding.
    """
    mesh = domain.mesh
    if dofmap is None:
        dofmap = build_dof_map(mesh, domain.active_triangles, k)
    ref = make_reference_element(k)
    degrees = quadrature_degrees(k, field.degree)
    edge_rule = edge_quadrature(degrees["ghost_facet"])
    vol_rule = triangle_quadrature(degrees["volume"])
    data_rule = triangle_quadrature(degrees["data"])
    h = mesh.h
    n = ref.n_basis

    rows: list[np.ndarray] = []
    cols: list[np.ndarray] = []
    vals: list[np.ndarray] = []

    tris, local = ghost_jump_kernel(domain.ghost_facets, field, ref,
                                    edge_rule, sigma, h)
    dofs = dofmap.cell_dofs[dofmap.rows_for(tris)].reshape(len(tris), 2 * n)
    _accumulate(rows, cols, vals, dofs, dofs, local)

    b_corr = np.zeros(dofmap.n_dofs)
    cut = domain.cut_triangles
    cut_rows = dofmap.rows_for(cut)
    for start in range(0, cut.size, _CHUNK):
        sel = slice(start, start + _CHUNK)
        local = ghost_laplacian_kernel(cut[sel], field, ref, vol_rule,
                                       sigma, h)
        dofs = dofmap.cell_dofs[cut_rows[sel]]
        _accumulate(rows, cols, vals, dofs, dofs, local)
        corr = load_correction_kernel(cut[sel], f, field, ref, data_rule,
                                      sigma, h)
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
    h: float
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
        return SparseSystem(A=A, b=b, sigma=float(sigma), h=self.h,
                            dofmap=self.dofmap)


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
                                 domain.boundary_owners,
                                 domain.boundary_normals, field, ref, bnd_rule)
    dofs = dofmap.cell_dofs[dofmap.rows_for(domain.boundary_owners)]
    _accumulate(rows, cols, vals, dofs, dofs, -local)

    A0 = sp.coo_matrix((np.concatenate(vals),
                        (np.concatenate(rows), np.concatenate(cols))),
                       shape=(dofmap.n_dofs, dofmap.n_dofs)).tocsr()

    G = g = None
    if any(sigmas):
        G, g = assemble_ghost_part(domain, field, f, k, 1.0, dofmap)

    pinned = np.zeros(0, dtype=np.int64)
    pinned_values = np.zeros(0)
    if outer_data is not None:
        pinned = _box_boundary_dofs(domain, dofmap)
    if pinned.size:
        nodes = dofmap.node_coords[pinned]
        pinned_values = np.asarray(outer_data.value(nodes[:, 0], nodes[:, 1]),
                                   dtype=np.float64)

    return SystemParts(A0=A0, b0=b0, G=G, g=g, pinned=pinned,
                       pinned_values=pinned_values, h=mesh.h, dofmap=dofmap)


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
