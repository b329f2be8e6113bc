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

Each term has one public batched kernel, and assembly runs its code:
the product and Laplacian penalty matrices and the load and its
correction over chunks of triangles (`_in_chunks`, the one chunk loop),
the boundary and ghost facet terms over all their facets in one call
each.  A chunk holds as many triangles as fit the point budget of
`fem_core._chunks` at the point count of the kernel's rule, and its
output is written straight into the array that the whole pass fills.
The volume kernels run on the dof map's own triangles, so their dof
rows are `cell_dofs` itself.  `_sparse` sums the (dofs, local) blocks
of a matrix into CSR arrays that hold exactly its nonzeros; the two
volume matrices write their chunks into their slice of its COO values,
so a level's element matrices never exist as one array.  Each vector
is one `np.bincount`.  A single triangle or facet is a length-1 call,
so the hand-integral tests pin the code that assembly runs.  A kernel
takes the degree k of w and looks up the cached rule of its term in
`quadrature_degrees(k, field.degree)`, so no caller passes an element
or a rule.

The mesh has two triangle shapes, so every basis table is per shape,
never per triangle (`fem_core.shape_maps`, `rule_tables`,
`facet_tables`).  Only the level-set coefficients c of a triangle vary.
The two volume forms are quadratic in c, so each is the pair product
(c_a c_b)_{a<=b} @ T_shape with a pair tensor T_shape[ab, ij] built by
one matmul per shape from the tables; the load is one GEMM against the
values the shapes share, at v0 + offset[shape] points, and its
correction one GEMM per shape, as are the pair products
(`fem_core.group_matmul`).  A facet trace takes the values and outward
normal derivatives of its triangle's shape and local facet, the latter
one matmul of the facet table with the conormal of
`fem_core.facet_frames`, and each side of a ghost facet differentiates
along its own outward normal.  The gradients and Laplacians of the basis
products phi_a psi_i and the facet traces all come from
`fem_core.product_rule`, the one place the product rule of u = phi * w
is written.  A volume kernel builds only the basis product it reads,
gradients or Laplacians, in one such call from the cached rule tables.
Each chunked kernel has a pass builder (`_element_products`,
`_ghost_laplacians`, `_loads`, `_load_corrections`) that builds its
tables, such as the pair tensors, and returns a function of one chunk:
the public kernel calls it once on all its triangles, and `_in_chunks`
builds it once per pass and drops it when the pass ends.  The tables
depend on the cell size, which every level of a study changes, so none
outlives its pass.
Both penalty terms and the load correction are linear in sigma, so
their kernels and `assemble_ghost_part` return the sigma = 1 forms,
with h read from the mesh; `assemble_parts` builds the core A0, b0 and
the penalty part G, g once per level, and `SystemParts.system` forms
A = A0 + sigma G, b = b0 + sigma g for each strength.  The penalty part
is assembled separately from the core so that its matrix is exactly
symmetric and can be inspected on its own.  The three entry points
take the classified domain and read the level set from `domain.field`,
so they cannot be given a level set of another mesh; the parts and
every system keep that domain, and a solution takes it from its system.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .fem_core import (DofMap, _chunks, build_dof_map, edge_quadrature,
                       eval_shapes, facet_frames, facet_tables, group_matmul,
                       physical_points, physical_tables, product_rule,
                       quadrature_degrees, rule_tables, shape_maps,
                       triangle_quadrature)
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

@dataclass(frozen=True)
class SparseSystem:
    """Assembled linear system A w = b over the active dofs of `domain`."""

    A: sp.csr_matrix
    b: np.ndarray
    domain: ActiveDomain
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


def _rule(k, field, term):
    """The cached rule of `term` in `quadrature_degrees(k, field.degree)`;
    its `degree`, the exactness, keys the cached tables."""
    exactness = quadrature_degrees(k, field.degree)[term]
    if term.endswith("facet"):
        return edge_quadrature(exactness)
    return triangle_quadrature(exactness)


def _basis_products(l, k, exactness, cell_size):
    """The `product_rule` inputs of the basis products phi_a psi_i at the
    points of `triangle_quadrature(exactness)`, for both shapes of a mesh
    with that cell size: values, physical gradients and Laplacians of
    the degree-l level-set basis phi_a laid out (2, Q, m, 1), and of the
    degree-k basis psi_i of w laid out (2, Q, 1, n), the gradients with
    a last axis of 2.  Built from the cached `rule_tables` once per
    pass, by its pass builder, which passes `product_rule` only what it
    reads."""
    inv = shape_maps(cell_size)[2]
    phi_tables = rule_tables(l, exactness)
    w_tables = rule_tables(k, exactness)
    pg, plap = physical_tables(phi_tables, inv)
    bg, blap = physical_tables(w_tables, inv)
    return (phi_tables[0][:, :, None], pg[..., None, :],
            w_tables[0][:, None, :], bg[..., None, :, :],
            plap[..., :, None], blap[..., None, :])


def _pair_forms(terms, weights):
    """Per-triangle matrices sum_r w_r (c . X_r)_i (c . X_r)_j, with
    X_r = terms[shape, r] of shape (m, n) and c the triangle's level-set
    coefficients, as a function of (c, shape) for a chunk of triangles.

    The form is quadratic in c, so it is (c_a c_b)_{a<=b} @ T_shape with
    the pair tensor T[ab, ij] = sum_r w_r X_r[a, i] X_r[b, j] (plus its
    (b, a) twin off the diagonal), built here by one matmul per shape;
    the function returned holds it for one pass.
    """
    m, n = terms.shape[-2:]
    ia, ib = np.triu_indices(m)
    off = (ia != ib)[:, None, None]
    tables = []
    for x in terms.reshape(2, -1, m * n):
        t = ((x * weights[:, None]).T @ x).reshape(m, n, m, n)
        t = t.transpose(0, 2, 1, 3)                     # (a, b, i, j)
        tables.append((t[ia, ib] + off * t[ib, ia]).reshape(-1, n * n))
    tables = np.stack(tables)
    return lambda coef, shape: group_matmul(
        coef[:, ia] * coef[:, ib], shape, tables).reshape(-1, n, n)


def _facet_traces(field, k, facets, tris, exactness):
    """Lengths, traces phi psi_i and outward normal derivatives
    d/dn(phi psi_i) on one side of each facet.

    Facet f is seen from triangle tris[f] and parametrized at the points
    of the edge rule of that exactness from its lower to its higher
    vertex id, so both incident triangles see the same physical points.
    The tables and the frame are those of the triangle's shape and local
    facet, and the normal points out of tris[f].  Returns (F,) lengths
    and two (F, Q, n) arrays.
    """
    mesh = field.mesh
    local = np.argmax(mesh.triangle_facets[tris] == facets[:, None], axis=1)
    group = 3 * (tris % 2) + local
    lengths, conormals = facet_frames(mesh)
    conormals = conormals[:, None, :, None]         # one per table row
    values, grads = facet_tables(field.degree, exactness)
    pv, pdn = eval_shapes(field.cell_coefficients(tris), group, values,
                          grads @ conormals)
    values, grads = facet_tables(k, exactness)
    trace, dn, _ = product_rule(pv[..., None], pdn[..., None, :],
                                values[group], (grads @ conormals)[group])
    return lengths[group], trace, dn[..., 0]


def _element_products(field, k):
    """The pass of `element_product_kernel`: a function of a chunk of
    triangles, holding the pair tensor built once for the pass."""
    quad = _rule(k, field, "volume")
    grad = product_rule(*_basis_products(field.degree, k, quad.degree,
                                         field.mesh.cell_size)[:4])[1]
    _, Q, m, n, _ = grad.shape
    terms = grad.transpose(0, 1, 4, 2, 3).reshape(2, 2 * Q, m, n)
    weights = np.repeat(shape_maps(field.mesh.cell_size)[1] * quad.weights, 2)
    forms = _pair_forms(terms, weights)
    return lambda tris: forms(field.cell_coefficients(tris), tris % 2)


def element_product_kernel(triangles: np.ndarray, field: LevelSetField,
                           k: int) -> np.ndarray:
    """Local matrices of integral grad(phi psi_j) . grad(phi psi_i) dx,
    psi the degree-k basis.

    One (n, n) matrix per triangle id in `triangles`: shape (nT, n, n).
    """
    return _element_products(field, k)(triangles)


def _ghost_laplacians(field, k):
    """The pass of `ghost_laplacian_kernel`: a function of a chunk of
    triangles, holding the pair tensor built once for the pass."""
    h = field.mesh.h
    quad = _rule(k, field, "volume")
    lap = product_rule(*_basis_products(field.degree, k, quad.degree,
                                        field.mesh.cell_size))[2]
    weights = h * h * shape_maps(field.mesh.cell_size)[1] * quad.weights
    forms = _pair_forms(lap, weights)
    return lambda tris: _symmetrize(forms(field.cell_coefficients(tris),
                                          tris % 2))


def ghost_laplacian_kernel(triangles: np.ndarray, field: LevelSetField,
                           k: int) -> np.ndarray:
    """Penalty matrices h^2 * integral lap(phi psi_j) lap(phi psi_i) dx,
    at sigma = 1 with h = field.mesh.h, psi the degree-k basis.

    One exactly symmetric (n, n) matrix per triangle: shape (nT, n, n).
    """
    return _ghost_laplacians(field, k)(triangles)


def _source(f, mesh, triangles, quad):
    """f at the rule's points of each triangle, times the weights."""
    pts = physical_points(mesh, triangles, quad.points)
    fv = np.asarray(f.value(pts[..., 0], pts[..., 1]), dtype=float)
    return fv * (shape_maps(mesh.cell_size)[1] * quad.weights)


def _loads(f, field, k):
    """The pass of `load_kernel`: a function of a chunk of triangles."""
    quad = _rule(k, field, "data")
    phi_values = rule_tables(field.degree, quad.degree)[0].T
    w_values = rule_tables(k, quad.degree)[0]
    return lambda tris: (_source(f, field.mesh, tris, quad) * (
        field.cell_coefficients(tris) @ phi_values)) @ w_values


def load_kernel(triangles: np.ndarray, f: AnalyticField,
                field: LevelSetField, k: int) -> np.ndarray:
    """Element load vectors (f, phi psi_i), psi the degree-k basis, shape
    (nT, n)."""
    return _loads(f, field, k)(triangles)


def _load_corrections(f, field, k):
    """The pass of `load_correction_kernel`: a function of a chunk of
    triangles, holding the Laplacians of the basis products built once
    for the pass."""
    h = field.mesh.h
    quad = _rule(k, field, "data")
    terms = product_rule(*_basis_products(field.degree, k, quad.degree,
                                          field.mesh.cell_size))[2]
    Q, m, n = terms.shape[1:]
    terms = terms.reshape(2, Q * m, n)

    def kernel(tris):
        wf = _source(f, field.mesh, tris, quad)
        x = wf[:, :, None] * field.cell_coefficients(tris)[:, None, :]
        return -h * h * group_matmul(x.reshape(-1, Q * m), tris % 2, terms)
    return kernel


def load_correction_kernel(triangles: np.ndarray, f: AnalyticField,
                           field: LevelSetField, k: int) -> np.ndarray:
    """Stabilization corrections -h^2 (f, lap(phi psi_i)) at sigma = 1,
    with h = field.mesh.h and psi the degree-k basis, shape (nT, n); the
    right-hand side adds them on cut triangles only."""
    return _load_corrections(f, field, k)(triangles)


def boundary_term_kernel(facets: np.ndarray, owners: np.ndarray,
                         field: LevelSetField, k: int) -> np.ndarray:
    """Local matrices of integral d/dn(phi psi_j) * (phi psi_i) ds, psi
    the degree-k basis.

    Traces of facet facets[f] are taken from owners[f], its unique active
    triangle, and n points out of that triangle, so out of the active
    set.  Returns (F, n, n); the assembled system subtracts these
    matrices.
    """
    quad = _rule(k, field, "boundary_facet")
    lengths, test, dn = _facet_traces(field, k, facets, owners, quad.degree)
    return _gram(quad.weights * lengths[:, None], test, dn)


def ghost_jump_kernel(facets: np.ndarray, field: LevelSetField, k: int
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Jump penalties h * integral [d/dn(phi psi_j)][d/dn(phi psi_i)] ds,
    at sigma = 1 with h = field.mesh.h, psi the degree-k basis.

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
    quad = _rule(k, field, "ghost_facet")
    lengths, _, dn_lo = _facet_traces(field, k, facets, tris[:, 0],
                                      quad.degree)
    _, _, dn_hi = _facet_traces(field, k, facets, tris[:, 1], quad.degree)
    jump = np.concatenate([dn_lo, dn_hi], axis=-1)        # (F, Q, 2n)
    w = mesh.h * quad.weights * lengths[:, None]
    return tris, _symmetrize(_gram(w, jump, jump))


# ---------------------------------------------------------------------------
# global assembly

def _in_chunks(out, kernel_pass, term, triangles, *args):
    """Write kernel(triangles[part]) into out[part], chunk by chunk, and
    return out.  kernel = kernel_pass(*args), with args ending in
    (field, k), is a function of one chunk that holds the tables of the
    pass: they are built once here and dropped when the pass ends, so
    none outlives it.  The rule of `term` sizes the chunks by its point
    count (`fem_core._chunks`).  Each chunk's output goes straight to
    its place in out, so the pass keeps no list of chunks and makes no
    concatenated copy."""
    field, k = args[-2:]
    points = _rule(k, field, term).weights.size
    kernel = kernel_pass(*args)
    for part in _chunks(triangles.size, points):
        out[part] = kernel(triangles[part])
    return out


def _sparse(blocks, n: int) -> sp.csr_matrix:
    """The n x n CSR matrix summing the (dofs, local) blocks: local[e, i, j]
    goes to row dofs[e, i] and column dofs[e, j].  For dofs (E, d), local
    is the (E, d, d) array or a function that writes it into the view it
    is given: a volume term passes its `_in_chunks` pass, so each chunk
    of element matrices lands in its slice of the COO values and no
    array of a whole level's element matrices exists.  The COO arrays
    are allocated once and filled block by block in place.  The indices
    are int32, the type scipy gives the CSR indices of any n that fits
    it: with int64 ones it would make an int32 copy of both.  The CSR's
    data and indices hold exactly nnz entries, since a level keeps its
    matrices until its last solve."""
    shapes = [d.shape + d.shape[1:] for d, _ in blocks]
    size = sum(np.prod(shape) for shape in shapes)
    rows, cols = np.empty(size, dtype=np.int32), np.empty(size, dtype=np.int32)
    vals = np.empty(size)
    start = 0
    for (d, local), shape in zip(blocks, shapes):
        part = slice(start, start + np.prod(shape))
        rows[part].reshape(shape)[...] = d[:, :, None]
        cols[part].reshape(shape)[...] = d[:, None, :]
        if callable(local):
            local(vals[part].reshape(shape))
        else:
            vals[part].reshape(shape)[...] = local
        start = part.stop
    mat = sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
    # scipy's sum of duplicates leaves data and indices as views of the
    # COO-sized buffers unless they fill under half of them; then the COO
    # arrays go first, and exact-size copies replace the views
    if mat.data.base is not None:
        del rows, cols, vals
        mat.data, mat.indices = mat.data.copy(), mat.indices.copy()
    return mat


def assemble_ghost_part(domain: ActiveDomain, f: AnalyticField, k: int,
                        dofmap: DofMap) -> tuple[sp.csr_matrix, np.ndarray]:
    """Assemble the penalty matrix and its right-hand side correction at
    sigma = 1; the system for strength sigma adds sigma times them.

    The matrix couples facet jumps on ghost facets with element Laplacian
    products on cut triangles.  Local blocks are symmetrized exactly, and
    the accumulated matrix is averaged with its transpose: summation order
    of duplicate entries is not mirror-invariant, so the average is what
    makes the result symmetric entry for entry, not merely up to rounding.
    """
    field = domain.field
    tris, jumps = ghost_jump_kernel(domain.ghost_facets, field, k)
    jump_dofs = dofmap.cell_dofs[dofmap.rows_for(tris)].reshape(
        jumps.shape[:2])
    cut = domain.cut_triangles
    cut_dofs = dofmap.cell_dofs[dofmap.rows_for(cut)]
    mat = _sparse([(jump_dofs, jumps),
                   (cut_dofs, lambda out: _in_chunks(
                       out, _ghost_laplacians, "volume", cut, field, k))],
                  dofmap.n_dofs)
    # without cut triangles bincount returns integer zeros
    g = np.bincount(cut_dofs.ravel(), weights=_in_chunks(
        np.empty(cut_dofs.shape), _load_corrections, "data", cut, f,
        field, k).ravel(), minlength=dofmap.n_dofs).astype(float, copy=False)
    mat = (mat + mat.T).tocsr()
    mat.data *= 0.5
    return mat, g


def _box_boundary_dofs(domain: ActiveDomain, dofmap: DofMap) -> np.ndarray:
    """Dofs whose node lies on the part of the active boundary that
    coincides with the background-box boundary.  Decided on the integer
    node lattice, so no tolerance is involved."""
    mesh = domain.field.mesh
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
    """The sigma-free parts of one level's system over the active dofs
    of `domain`, which every system it forms keeps.

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
    domain: ActiveDomain
    dofmap: DofMap

    def system(self, sigma: float) -> SparseSystem:
        """The assembled system for one penalty strength.  A pinned row
        is the identity row: diag(free) A + diag(1 - free), with `free`
        the 0/1 mask of free rows, and its right-hand side the pinned
        value."""
        _check_sigma(sigma)
        if sigma and self.G is None:
            raise ValueError(f"penalty part not assembled; sigma = {sigma} "
                             "was not among the strengths asked for")
        A, b = ((self.A0 + sigma * self.G, self.b0 + sigma * self.g) if sigma
                else (self.A0.copy(), self.b0.copy()))
        if self.pinned.size:
            free = np.ones(A.shape[0])
            free[self.pinned] = 0.0
            A = sp.diags(free) @ A + sp.diags(1.0 - free)
            b[self.pinned] = self.pinned_values
        A.eliminate_zeros()
        A.sort_indices()
        return SparseSystem(A=A, b=b, domain=self.domain, dofmap=self.dofmap)


def assemble_parts(domain: ActiveDomain, f: AnalyticField, k: int,
                   sigmas: list[float],
                   outer_data: AnalyticField | None = None) -> SystemParts:
    """Assemble everything that does not depend on the penalty strength.

    Parameters
    ----------
    domain : classification of the mesh against the level-set
        interpolant `domain.field`, of degree l.
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
    for sigma in sigmas:
        _check_sigma(sigma)
    field = domain.field
    dofmap = build_dof_map(field.mesh, domain.active_triangles, k)
    owner_dofs = dofmap.cell_dofs[dofmap.rows_for(domain.boundary_owners)]
    A0 = _sparse([(dofmap.cell_dofs, lambda out: _in_chunks(
                      out, _element_products, "volume", dofmap.triangles,
                      field, k)),
                  (owner_dofs, -boundary_term_kernel(
                      domain.boundary_facets, domain.boundary_owners,
                      field, k))], dofmap.n_dofs)
    b0 = np.bincount(dofmap.cell_dofs.ravel(), weights=_in_chunks(
        np.empty(dofmap.cell_dofs.shape), _loads, "data",
        dofmap.triangles, f, field, k).ravel(), minlength=dofmap.n_dofs)

    G = g = None
    if any(sigmas):
        G, g = assemble_ghost_part(domain, f, k, dofmap)

    pinned = np.zeros(0, dtype=np.int64)
    pinned_values = np.zeros(0)
    if outer_data is not None:
        pinned = _box_boundary_dofs(domain, dofmap)
    if pinned.size:
        nodes = dofmap.node_coords[pinned]
        pinned_values = np.asarray(outer_data.value(nodes[:, 0], nodes[:, 1]),
                                   dtype=np.float64)

    return SystemParts(A0=A0, b0=b0, G=G, g=g, pinned=pinned,
                       pinned_values=pinned_values, domain=domain,
                       dofmap=dofmap)


def assemble_system(domain: ActiveDomain, f: AnalyticField, k: int,
                    sigma: float, outer_data: AnalyticField | None = None
                    ) -> SparseSystem:
    """Assemble the full linear system over the active submesh for one
    penalty strength: `assemble_parts` for [sigma], then its `system`.

    See `assemble_parts` for the parameters.  With sigma = 0 the penalty
    terms are skipped entirely.
    """
    return assemble_parts(domain, f, k, [sigma], outer_data).system(sigma)
