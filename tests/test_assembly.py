"""Tests for the assembled forms.

Each term has one batched kernel; the tests call it for one triangle or
facet as a length-1 array and take entry [0].  Local kernels are checked
against integrals worked out by hand on the unit-square mesh (one or two
cells), where the affine maps are simple enough to integrate the
products on paper.  Global properties (symmetry,
positivity, consistency of the planted polynomial) are checked on the
built-in cases with seeded random vectors.
"""
import dataclasses
import gc
import tracemalloc
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

import phifem.assembly as assembly
import phifem.fem_core as fem_core
from phifem.assembly import (assemble_ghost_part, assemble_parts,
                             assemble_system, boundary_term_kernel,
                             element_product_kernel, ghost_jump_kernel,
                             ghost_laplacian_kernel, load_correction_kernel,
                             load_kernel)
from phifem.cases import get_case
from phifem.fem_core import (_lattice_multi_indices, build_dof_map,
                             edge_quadrature, quadrature_degrees, tabulate,
                             triangle_quadrature)
from phifem.levelset import AnalyticField, classify_domain, \
    interpolate_levelset
from phifem.linalg import solve
from phifem.mesh import build_background_mesh

UNIT_BOX = (0.0, 0.0, 1.0, 1.0)


def _const_field(mesh, value, degree=1):
    return interpolate_levelset(
        AnalyticField(value=lambda x, y: np.full_like(x, value)),
        mesh, degree)


def test_product_kernel_reduces_to_stiffness():
    # With phi constant +-1, grad(phi psi) = +-grad(psi), so the kernel is
    # the plain stiffness matrix of the triangle.  Triangle 0 of the 1x1
    # mesh has vertices (0,0), (1,0), (1,1) with basis gradients
    # (-1,0), (1,-1), (0,1) and area 1/2.
    mesh = build_background_mesh(UNIT_BOX, (1, 1))
    expected = 0.5 * np.array([[1.0, -1.0, 0.0],
                               [-1.0, 2.0, -1.0],
                               [0.0, -1.0, 1.0]])
    for value in (1.0, -1.0):
        field = _const_field(mesh, value)
        local = element_product_kernel(np.array([0]), field, 1)[0]
        np.testing.assert_allclose(local, expected, rtol=0, atol=1e-14)


def test_boundary_kernel_hand_integral():
    # phi = x - 0.6 on the bottom edge of triangle 0, outward normal
    # (0,-1).  There d/dn phi = 0 and the traces are polynomials in the
    # arclength s, so every entry is a 1D integral done by hand:
    #   basis on the edge: (1-s, s, 0), d/dn basis: (0, 1, -1)
    #   K[i][j] = int (x-0.6)(basis_i) * (x-0.6)(dn basis_j) ds
    # giving K = [[0, 19/300, -19/300], [0, 3/100, -3/100], [0, 0, 0]].
    mesh = build_background_mesh(UNIT_BOX, (1, 1))
    field = interpolate_levelset(AnalyticField(value=lambda x, y: x - 0.6),
                                 mesh, 1)
    local = boundary_term_kernel(np.array([0]), np.array([0]), field, 1)[0]
    expected = np.array([[0.0, 19.0 / 300.0, -19.0 / 300.0],
                         [0.0, 3.0 / 100.0, -3.0 / 100.0],
                         [0.0, 0.0, 0.0]])
    np.testing.assert_allclose(local, expected, rtol=0, atol=1e-15)


def test_full_system_matches_manual_assembly():
    # phi = -1 keeps every triangle active and uncut, so the system is the
    # core form alone and can be rebuilt kernel by kernel.
    mesh = build_background_mesh(UNIT_BOX, (2, 2))
    field = _const_field(mesh, -1.0)
    domain = classify_domain(field)
    f = AnalyticField(value=lambda x, y: x + 2.0 * y)
    system = assemble_system(domain, f, 1, 20.0)
    assert domain.cut_triangles.size == 0
    assert domain.ghost_facets.size == 0

    dofmap = system.dofmap
    n = dofmap.n_dofs
    a = np.zeros((n, n))
    b = np.zeros(n)
    for tri in domain.active_triangles:
        dofs = dofmap.cell_dofs[dofmap.rows_for(np.array([tri]))[0]]
        a[np.ix_(dofs, dofs)] += element_product_kernel(
            np.array([tri]), field, 1)[0]
        b[dofs] += load_kernel(np.array([tri]), f, field, 1)[0]
    for facet, owner in zip(domain.boundary_facets, domain.boundary_owners):
        dofs = dofmap.cell_dofs[dofmap.rows_for(np.array([owner]))[0]]
        a[np.ix_(dofs, dofs)] -= boundary_term_kernel(
            np.array([facet]), np.array([owner]), field, 1)[0]
    np.testing.assert_allclose(system.A.toarray(), a, rtol=1e-12,
                               atol=1e-14)
    np.testing.assert_allclose(system.b, b, rtol=1e-12, atol=1e-14)

    # without cut cells the penalty changes nothing
    plain = assemble_system(domain, f, 1, 0.0)
    assert (system.A != plain.A).nnz == 0
    np.testing.assert_array_equal(system.b, plain.b)
    # and its parts, summed over no cut triangle, are float zeros
    G, g = assemble_ghost_part(domain, f, 1, dofmap)
    assert not G.toarray().any()
    assert g.dtype == np.float64 and g.shape == (n,) and not g.any()


def test_ghost_jump_kernel_hand_integral():
    # phi = -1 across the diagonal facet of the 1x1 mesh: the normal
    # derivative of each phi*psi is constant along the facet, so the jump
    # vector is constant and the kernel is sigma*h*len * outer(c, c).
    # Each side differentiates along its own outward normal, (-1,1)/sqrt(2)
    # out of the lower triangle and its opposite out of the upper one, so
    # the stacked jump evaluates to c = (-1, 2, -1, -1, -1, 2)/sqrt(2);
    # sigma=2 (applied here) and h=len=sqrt(2) give local = 2 * outer(m, m)
    # with m = (-1, 2, -1, -1, -1, 2).
    mesh = build_background_mesh(UNIT_BOX, (1, 1))
    field = _const_field(mesh, -1.0)
    assert mesh.h == np.sqrt(2.0)
    tris, local = ghost_jump_kernel(np.array([4]), field, 1)
    tris, local = tris[0], 2.0 * local[0]
    np.testing.assert_array_equal(tris, [0, 1])
    m = np.array([-1.0, 2.0, -1.0, -1.0, -1.0, 2.0])
    np.testing.assert_allclose(local, 2.0 * np.outer(m, m), rtol=0,
                               atol=1e-13)
    np.testing.assert_array_equal(local, local.T)


def test_ghost_jump_kernel_rejects_single_neighbour_facet():
    mesh = build_background_mesh(UNIT_BOX, (1, 1))
    field = _const_field(mesh, -1.0)
    assert mesh.facet_triangles[0, 1] < 0
    with pytest.raises(ValueError, match="single incident triangle"):
        ghost_jump_kernel(np.array([0]), field, 1)


def test_ghost_jump_annihilates_global_polynomials():
    # For an affine level set the product phi*w is one global polynomial
    # whenever w is, so its normal-derivative jump vanishes and the jump
    # matrix must annihilate the stacked nodal vector of w.
    mesh = build_background_mesh(UNIT_BOX, (3, 3))
    field = interpolate_levelset(AnalyticField(value=lambda x, y: x - 0.51),
                                 mesh, 1)

    def w(x, y):
        return x * x - 0.3 * x * y + y - 0.2

    for k in (2, 3):
        interior = np.nonzero(mesh.facet_triangles[:, 1] >= 0)[0]
        for facet in interior[:6]:
            tris, local = ghost_jump_kernel(np.array([facet]), field, k)
            tris, local = tris[0], local[0]
            verts = mesh.vertices[mesh.triangles[tris]]      # (2, 3, 2)
            nodes = np.einsum("nb,tbd->tnd", _lattice_multi_indices(k) / k,
                              verts)
            stacked = w(nodes[..., 0], nodes[..., 1]).ravel()
            residual = local @ stacked
            assert np.abs(residual).max() <= 1e-11 * np.abs(local).max()
            np.testing.assert_array_equal(local, local.T)
            assert np.linalg.eigvalsh(local).min() >= -1e-12


def test_ghost_laplacian_hand_integrals():
    # phi = x^2 + y^2 - 1/2 is reproduced exactly at l=2 and has lap = 4.
    # For w = 1: lap(phi*1) = 4;  for w = x: lap(phi*x) = 8x.  On triangle
    # 0 ((0,0),(1,0),(1,1); int x = 1/3, int x^2 = 1/4, area = 1/2) the
    # quadratic forms of sigma times the kernel, h = sqrt(2) the mesh
    # size, against those vectors are
    #   1' L 1 = s h^2 * 16 * (1/2),  x' L 1 = s h^2 * 32 * (1/3),
    #   x' L x = s h^2 * 64 * (1/4).
    mesh = build_background_mesh(UNIT_BOX, (1, 1))
    field = interpolate_levelset(
        AnalyticField(value=lambda x, y: x * x + y * y - 0.5), mesh, 2)
    sigma, h = 3.0, mesh.h
    local = sigma * ghost_laplacian_kernel(np.array([0]), field, 2)[0]
    verts = mesh.vertices[mesh.triangles[0]]
    nodes = _lattice_multi_indices(2) / 2 @ verts
    ones = np.ones(len(nodes))
    xs = nodes[:, 0]
    factor = sigma * h * h
    assert abs(ones @ local @ ones - factor * 8.0) <= 1e-12
    assert abs(xs @ local @ ones - factor * 32.0 / 3.0) <= 1e-12
    assert abs(xs @ local @ xs - factor * 16.0) <= 1e-12
    np.testing.assert_array_equal(local, local.T)


@settings(max_examples=20, derandomize=True, deadline=None)
@given(n=st.integers(8, 12), k=st.sampled_from([1, 2, 3]),
       radius=st.floats(0.2, 0.4),
       shift=st.tuples(st.floats(-0.5, 0.5), st.floats(-0.5, 0.5)))
def test_ghost_matrix_symmetric_and_psd(n, k, radius, shift):
    # wherever the circle slices the cells: a disk centred up to half a
    # cell off the middle of the unit box gives a penalty matrix that is
    # symmetric entry for entry and positive semidefinite to rounding
    cx, cy = 0.5 + shift[0] / n, 0.5 + shift[1] / n
    phi = AnalyticField(
        value=lambda x, y: (x - cx) ** 2 + (y - cy) ** 2 - radius ** 2)
    f = AnalyticField(value=lambda x, y: np.ones_like(x))
    mesh = build_background_mesh(UNIT_BOX, (n, n))
    field = interpolate_levelset(phi, mesh, k)
    domain = classify_domain(field)
    assert domain.ghost_facets.size > 0
    ghost, _ = assemble_ghost_part(
        domain, f, k, build_dof_map(mesh, domain.active_triangles, k))
    assert (ghost != ghost.T).nnz == 0
    eigenvalues = np.linalg.eigvalsh(ghost.toarray())
    assert eigenvalues[0] >= -1e-12 * eigenvalues[-1]


def test_full_matrix_positive_on_random_vectors():
    case = get_case("circle")
    mesh = build_background_mesh(case.box, (20, 20))
    field = interpolate_levelset(case.phi, mesh, 1)
    domain = classify_domain(field)
    system = assemble_system(domain, case.f, 1, 20.0)
    rng = np.random.default_rng(20240911)
    for _ in range(1000):
        v = rng.standard_normal(system.n_dofs)
        assert v @ (system.A @ v) > 0.0


def test_sigma_zero_skips_penalty_assembly(monkeypatch):
    case = get_case("circle")
    mesh = build_background_mesh(case.box, (8, 8))
    field = interpolate_levelset(case.phi, mesh, 1)
    domain = classify_domain(field)

    def boom(*args, **kwargs):
        raise AssertionError("penalty assembled despite sigma = 0")

    monkeypatch.setattr(assembly, "assemble_ghost_part", boom)
    assemble_system(domain, case.f, 1, 0.0)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_planted_polynomial_reproduced(k):
    # The planted case has w = 1 + x + y in every trial space, penalty
    # terms consistent by construction, so the solve must return the
    # polynomial to solver accuracy.
    case = get_case("planted")
    mesh = build_background_mesh(case.box, (7, 7))
    field = interpolate_levelset(case.phi, mesh, k)
    domain = classify_domain(field)
    system = assemble_system(domain, case.f, k, 20.0,
                             outer_data=case.outer_data)
    report = solve(system)
    nodes = system.dofmap.node_coords
    exact = 1.0 + nodes[:, 0] + nodes[:, 1]
    assert np.abs(report.x - exact).max() <= 1e-9


# Affine zero sets along the three mesh-line orientations, each from both
# sides, with the group 3 * shape + local facet (lower: bottom, right,
# diagonal; upper: diagonal, top, left) that owns the zero set at k = 1.
_MESH_LINES = [((1.0, 0.0, -0.5), 1), ((-1.0, 0.0, 0.5), 5),
               ((0.0, 1.0, -0.25), 4), ((0.0, -1.0, 0.25), 0),
               ((1.0, -1.0, 0.0), 3), ((-1.0, 1.0, 0.0), 2)]


@pytest.mark.parametrize("n", [4, 8])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_zero_sets_along_mesh_lines(k, n):
    # The planted construction with phi = +-(x - 1/2), +-(y - 1/4) and
    # +-(x - y) on the unit box: u = phi w with w = 1 + x + y solves
    # -lap(u) = -2 grad(phi) . (1, 1), so w must be reproduced where the
    # zero set runs along mesh facets.  phi is affine, so a triangle with
    # phi >= 0 at its three vertices lies outside and must stay inactive
    # at every k.  At k = 1 each side of each line leaves the facets of
    # one (shape, local facet) group on the boundary of the active set,
    # and the six cases cover all six groups.
    w = AnalyticField(value=lambda x, y: 1.0 + x + y)
    mesh = build_background_mesh(UNIT_BOX, (n, n))
    seen = []
    for (a, b, c), group in _MESH_LINES:
        phi = AnalyticField(value=lambda x, y: a * x + b * y + c)
        f = AnalyticField(value=lambda x, y: np.full_like(x, -2.0 * (a + b)))
        field = interpolate_levelset(phi, mesh, k)
        domain = classify_domain(field)
        verts = mesh.vertices[mesh.triangles[domain.active_triangles]]
        outside = (phi.value(verts[..., 0], verts[..., 1]) >= 0.0).all(1)
        assert not outside.any()
        system = assemble_system(domain, f, k, 20.0, outer_data=w)
        nodes = system.dofmap.node_coords
        gap = solve(system).x - w.value(nodes[:, 0], nodes[:, 1])
        assert np.abs(gap).max() <= 1e-9
        if k == 1:
            ends = mesh.vertices[mesh.facets[domain.boundary_facets]]
            on_line = (phi.value(ends[..., 0], ends[..., 1]) == 0.0).all(1)
            facets = domain.boundary_facets[on_line]
            owners = domain.boundary_owners[on_line]
            local = np.argmax(mesh.triangle_facets[owners]
                              == facets[:, None], axis=1)
            assert facets.size == n
            assert set((3 * (owners % 2) + local).tolist()) == {group}
            seen.append(group)
    if k == 1:
        assert sorted(seen) == list(range(6))


def test_outer_pinning_rows_are_identity():
    # For phi = x - 0.51 on a 4x4 mesh the active region is the first
    # three cell columns; its outer boundary covers the left edge and the
    # bottom/top edges up to x = 3/4.  Pinned rows must be identity rows
    # with the boundary data on the right-hand side.
    case = get_case("planted")
    mesh = build_background_mesh(case.box, (4, 4))
    field = interpolate_levelset(case.phi, mesh, 1)
    domain = classify_domain(field)
    system = assemble_system(domain, case.f, 1, 20.0,
                             outer_data=case.outer_data)
    a = system.A
    pinned = []
    for i in range(system.n_dofs):
        row = a.getrow(i)
        if row.nnz == 1 and row.indices[0] == i and row.data[0] == 1.0:
            pinned.append(i)
    coords = {tuple(np.round(system.dofmap.node_coords[i], 12))
              for i in pinned}
    expected = {(0.0, 0.0), (0.0, 0.25), (0.0, 0.5), (0.0, 0.75), (0.0, 1.0),
                (0.25, 0.0), (0.5, 0.0), (0.75, 0.0),
                (0.25, 1.0), (0.5, 1.0), (0.75, 1.0)}
    assert coords == expected
    nodes = system.dofmap.node_coords[pinned]
    np.testing.assert_allclose(system.b[pinned],
                               1.0 + nodes[:, 0] + nodes[:, 1],
                               rtol=0, atol=1e-15)


def test_parts_form_each_penalty_system():
    # The planted zero set cuts the box, so every system has pinned rows.  For
    # each sigma the system is A0 + sigma G with those rows replaced by
    # identity rows, exactly as a LIL row assignment would leave them, and
    # it is the one assemble_system returns for that sigma alone.
    case = get_case("planted")
    mesh = build_background_mesh(case.box, (6, 6))
    field = interpolate_levelset(case.phi, mesh, 2)
    domain = classify_domain(field)
    sigmas = [0.0, 0.5, 20.0]
    parts = assemble_parts(domain, case.f, 2, sigmas,
                           outer_data=case.outer_data)
    assert parts.pinned.size > 0
    for sigma in sigmas + [0.0]:
        system = parts.system(sigma)
        expected = (parts.A0 + sigma * parts.G).tolil()
        expected[parts.pinned, :] = 0.0
        expected[parts.pinned, parts.pinned] = 1.0
        assert (system.A != expected.tocsr()).nnz == 0
        b = parts.b0 + sigma * parts.g
        b[parts.pinned] = parts.pinned_values
        np.testing.assert_array_equal(system.b, b)
        alone = assemble_system(domain, case.f, 2, sigma,
                                outer_data=case.outer_data)
        for name in ("data", "indices", "indptr"):
            np.testing.assert_array_equal(getattr(system.A, name),
                                          getattr(alone.A, name))
        np.testing.assert_array_equal(system.b, alone.b)

    plain = assemble_parts(domain, case.f, 2, [0.0])
    assert plain.G is None and plain.pinned.size == 0
    with pytest.raises(ValueError):
        plain.system(1.0)
    with pytest.raises(ValueError):
        parts.system(-1.0)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_parts_do_not_depend_on_chunk_size(monkeypatch, k):
    # Every mesh here fits in one chunk of each pass; a budget of 7 points
    # makes every chunk one triangle, fewer than any rule's points.  phi = -1
    # has no cut triangle and no ghost facet, so its penalty part is
    # assembled from empty sets.
    circle = get_case("circle")
    circle_mesh = build_background_mesh(circle.box, (10, 10))
    minus_one_mesh = build_background_mesh(UNIT_BOX, (4, 4))
    f = AnalyticField(value=lambda x, y: x + 2.0 * y)
    problems = [(interpolate_levelset(circle.phi, circle_mesh, k), circle.f),
                (_const_field(minus_one_mesh, -1.0, k), f)]

    def parts(field, source):
        return assemble_parts(classify_domain(field), source, k, [0.0, 1.0])

    for field, source in problems:
        whole = parts(field, source)
        with monkeypatch.context() as patch:
            patch.setattr(fem_core, "_POINT_BUDGET", 7)
            chunked = parts(field, source)
        for a, b in ((whole.A0, chunked.A0), (whole.G, chunked.G)):
            np.testing.assert_array_equal(a.indptr, b.indptr)
            np.testing.assert_array_equal(a.indices, b.indices)
            np.testing.assert_allclose(
                a.data, b.data, rtol=0,
                atol=1e-14 * np.abs(a.data).max(initial=0.0))
        for a, b in ((whole.b0, chunked.b0), (whole.g, chunked.g)):
            np.testing.assert_allclose(a, b, rtol=0,
                                       atol=1e-14 * np.abs(a).max())


def _sparse_int64(blocks, n):
    """The CSR sum of (dofs, local) blocks built from int64 COO indices;
    a block's local matrices may be a function that writes them."""
    def whole(d, local):
        if not callable(local):
            return local
        out = np.empty(d.shape + d.shape[1:])
        local(out)
        return out

    blocks = [(d, whole(d, local)) for d, local in blocks]
    rows = np.concatenate([np.broadcast_to(d[:, :, None], m.shape).ravel()
                           for d, m in blocks])
    cols = np.concatenate([np.broadcast_to(d[:, None, :], m.shape).ravel()
                           for d, m in blocks])
    vals = np.concatenate([m.ravel() for _, m in blocks])
    return sp.coo_matrix((vals, (rows.astype(np.int64),
                                 cols.astype(np.int64))),
                         shape=(n, n)).tocsr()


def test_sparse_keeps_exact_size_arrays():
    # summing duplicates in scipy leaves the CSR arrays as views of the
    # COO-sized buffers; _sparse's data and indices hold nnz entries each
    dofs = np.array([[0, 1], [1, 2]])
    mat = assembly._sparse([(dofs, np.ones((2, 2, 2)))], 3)
    np.testing.assert_array_equal(mat.toarray(),
                                  [[1, 1, 0], [1, 2, 1], [0, 1, 1]])
    case = get_case("circle")
    mesh = build_background_mesh(case.box, (10, 10))
    domain = classify_domain(interpolate_levelset(case.phi, mesh, 2))
    parts = assemble_parts(domain, case.f, 2, [0.0])
    # one entry per (element, i, j) and per boundary facet block
    coo_size = 36 * domain.active_triangles.size \
        + 36 * domain.boundary_facets.size
    assert coo_size > parts.A0.nnz
    for a in (mat, parts.A0):
        for arr in (a.data, a.indices):
            assert arr.base is None and arr.size == a.nnz


def test_kernel_tables_are_built_once_per_pass_and_dropped(monkeypatch):
    # each chunked pass builds its tables once, however many chunks it
    # runs, and lets them go when it ends
    built = {}
    for name in ("_element_products", "_ghost_laplacians", "_loads",
                 "_load_corrections"):
        def recording(*args, _build=getattr(assembly, name), _name=name):
            kernel = _build(*args)
            built.setdefault(_name, []).append(weakref.ref(kernel))
            return kernel
        monkeypatch.setattr(assembly, name, recording)
    # k = l = 3 integrates with 49 points per triangle: chunks of 16
    monkeypatch.setattr(fem_core, "_POINT_BUDGET", 16 * 49)
    case = get_case("circle")
    mesh = build_background_mesh(case.box, (20, 20))
    domain = classify_domain(interpolate_levelset(case.phi, mesh, 3))
    parts = assemble_parts(domain, case.f, 3, [20.0])
    for tris in (domain.active_triangles, domain.cut_triangles):
        assert len(list(fem_core._chunks(tris.size, 49))) > 1
    assert {name: len(refs) for name, refs in built.items()} == {
        "_element_products": 1, "_ghost_laplacians": 1, "_loads": 1,
        "_load_corrections": 1}
    gc.collect()
    assert all(ref() is None for refs in built.values() for ref in refs)
    assert parts.G is not None


@pytest.mark.parametrize("k", [1, 2, 3])
def test_int32_indices_match_an_int64_assembly(monkeypatch, k):
    # _sparse hands scipy int32 COO indices, the type of the CSR indices
    # it makes for these sizes, so scipy copies none; A0 and G must be
    # those built from int64 indices, to the bit
    coo_index_types = set()
    coo_matrix = sp.coo_matrix

    def recording(arg, shape):
        coo_index_types.update(index.dtype for index in arg[1])
        return coo_matrix(arg, shape=shape)

    circle, rectangle = get_case("circle"), get_case("rectangle")
    problems = [(circle, build_background_mesh(circle.box, (10, 10))),
                (rectangle, build_background_mesh(rectangle.box, (6, 6)))]
    for case, mesh in problems:
        field = interpolate_levelset(case.phi, mesh, k)

        def parts():
            return assemble_parts(classify_domain(field), case.f, k, [1.0],
                                  case.outer_data)

        with monkeypatch.context() as patch:
            patch.setattr(sp, "coo_matrix", recording)
            got = parts()
        with monkeypatch.context() as patch:
            patch.setattr(assembly, "_sparse", _sparse_int64)
            want = parts()
        for a, b in ((got.A0, want.A0), (got.G, want.G)):
            assert a.indices.dtype == a.indptr.dtype == np.int32
            np.testing.assert_array_equal(a.indptr, b.indptr)
            np.testing.assert_array_equal(a.indices, b.indices)
            np.testing.assert_array_equal(a.data.view(np.int64),
                                          b.data.view(np.int64))
    assert coo_index_types == {np.dtype(np.int32)}


# tracemalloc peak of assemble_parts on the circle at k=3, n=80 with its
# penalty part, after a warm-up call: 17.84 MiB when the element matrices
# went straight into the COO values in chunks sized by quadrature points,
# against 19.90 MiB when a whole level's (nT, n, n) array was built first
def test_assembly_memory_peak():
    case = get_case("circle")
    mesh = build_background_mesh(case.box, (80, 80))
    field = interpolate_levelset(case.phi, mesh, 3)
    domain = classify_domain(field)

    def parts():
        return assemble_parts(domain, case.f, 3, [20.0], case.outer_data)

    parts()
    tracemalloc.start()
    try:
        parts()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 18.9 * 2 ** 20


def test_assemble_validation():
    case = get_case("circle")
    mesh = build_background_mesh(case.box, (6, 6))
    field = interpolate_levelset(case.phi, mesh, 1)
    domain = classify_domain(field)
    with pytest.raises(ValueError):
        assemble_system(domain, case.f, 4, 20.0)
    with pytest.raises(ValueError):
        assemble_system(domain, case.f, 1, -1.0)


@settings(max_examples=20, derandomize=True, deadline=None)
@given(n=st.integers(4, 12), k=st.sampled_from([1, 2, 3]),
       radius=st.floats(0.15, 0.4),
       shift=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
       seed=st.integers(0, 2**32 - 1))
def test_batched_assembly_matches_per_entity_kernels(n, k, radius, shift,
                                                     seed):
    # A shifted, scaled disk kept 0.05 clear of the unit box: the batched
    # system must equal the dense sum of length-1 calls of the public
    # kernels, with the penalty parts (ghost facets and cut cells)
    # included.
    room = 0.45 - radius
    cx, cy = 0.5 + room * shift[0], 0.5 + room * shift[1]
    phi = AnalyticField(
        value=lambda x, y: (x - cx) ** 2 + (y - cy) ** 2 - radius ** 2)
    f = AnalyticField(value=lambda x, y: 1.0 + x - 2.0 * y * y)
    sigma = 20.0
    mesh = build_background_mesh(UNIT_BOX, (n, n))
    field = interpolate_levelset(phi, mesh, k)
    domain = classify_domain(field)
    assert domain.ghost_facets.size > 0
    system = assemble_system(domain, f, k, sigma)

    dofmap = system.dofmap

    def dofs_of(tris):
        return dofmap.cell_dofs[dofmap.rows_for(np.atleast_1d(tris))].ravel()

    a = np.zeros((dofmap.n_dofs, dofmap.n_dofs))
    b = np.zeros(dofmap.n_dofs)
    cut = set(domain.cut_triangles.tolist())
    for tri in domain.active_triangles.tolist():
        dofs = dofs_of(tri)
        one = np.array([tri])
        a[np.ix_(dofs, dofs)] += element_product_kernel(one, field, k)[0]
        b[dofs] += load_kernel(one, f, field, k)[0]
        if tri in cut:
            b[dofs] += sigma * load_correction_kernel(one, f, field, k)[0]
    for facet, owner in zip(domain.boundary_facets.tolist(),
                            domain.boundary_owners.tolist()):
        dofs = dofs_of(owner)
        a[np.ix_(dofs, dofs)] -= boundary_term_kernel(
            np.array([facet]), np.array([owner]), field, k)[0]
    ghost = np.zeros_like(a)
    for facet in domain.ghost_facets.tolist():
        tris, local = ghost_jump_kernel(np.array([facet]), field, k)
        dofs = dofs_of(tris[0])
        np.add.at(ghost, np.ix_(dofs, dofs), sigma * local[0])
    for tri in cut:
        dofs = dofs_of(tri)
        ghost[np.ix_(dofs, dofs)] += sigma * ghost_laplacian_kernel(
            np.array([tri]), field, k)[0]
    a += ghost
    scale = np.abs(a).max()
    np.testing.assert_allclose(system.A.toarray(), a, rtol=0,
                               atol=1e-12 * scale)
    np.testing.assert_allclose(system.b, b, rtol=0,
                               atol=1e-12 * np.abs(b).max())

    part = sigma * assemble_ghost_part(domain, f, k, dofmap)[0]
    assert (part != part.T).nnz == 0
    # duplicate entries sum in another order, so equal up to rounding
    order = np.random.default_rng(seed).permutation(domain.ghost_facets)
    permuted = sigma * assemble_ghost_part(
        dataclasses.replace(domain, ghost_facets=order), f, k, dofmap)[0]
    np.testing.assert_allclose(permuted.toarray(), part.toarray(), rtol=0,
                               atol=1e-12 * np.abs(ghost).max())


# ---------------------------------------------------------------------------
# an independent oracle: plain per-triangle quadrature with vertex-built maps

# A non-square box whose cell sizes (1.17 / 7 and 0.85 / 5) are not exact
# in binary, so the two shapes differ and no spacing is exact.
_SKEW_BOX = (-0.35, 0.1, 0.82, 0.95)
_SKEW_CELLS = (7, 5)


def _vertex_map(mesh, tri):
    """v0, Jacobian, |det| and inverse of one triangle, from its vertices."""
    verts = mesh.vertices[mesh.triangles[tri]]
    jac = np.column_stack([verts[1] - verts[0], verts[2] - verts[0]])
    return verts[0], jac, abs(np.linalg.det(jac)), np.linalg.inv(jac)


def _plain_fields(degree, inv, bary):
    """Basis values (Q, n), physical gradients (Q, n, 2) and Laplacians
    (Q, n) at barycentric points, through `fem_core.tabulate`."""
    values, grads, hess = tabulate(degree, bary)
    phys = np.einsum("da,qndc,cb->qnab", inv, hess, inv)
    return values, grads @ inv, phys[..., 0, 0] + phys[..., 1, 1]


def _plain_products(field, k, tri, bary):
    """phi psi_i, grad(phi psi_i) and lap(phi psi_i) at the points."""
    _, _, _, inv = _vertex_map(field.mesh, tri)
    coef = field.cell_coefficients(np.array([tri]))[0]
    cv, cg, cl = _plain_fields(field.degree, inv, bary)
    bv, bg, bl = _plain_fields(k, inv, bary)
    pv, pg, pl = cv @ coef, np.einsum("qmd,m->qd", cg, coef), cl @ coef
    value = pv[:, None] * bv
    grad = pg[:, None, :] * bv[..., None] + pv[:, None, None] * bg
    lap = (pl[:, None] * bv + 2.0 * np.einsum("qd,qnd->qn", pg, bg)
           + pv[:, None] * bl)
    return value, grad, lap


def _outward_normal(mesh, facet, tri):
    """Unit normal of `facet` from its endpoints, pointing away from the
    centroid of the incident triangle `tri`."""
    a, b = mesh.vertices[mesh.facets[facet]]
    normal = np.array([b[1] - a[1], a[0] - b[0]]) / np.linalg.norm(b - a)
    centroid = mesh.vertices[mesh.triangles[tri]].mean(axis=0)
    return normal if normal @ (0.5 * (a + b) - centroid) > 0.0 else -normal


def test_facet_frames_match_vertex_geometry():
    # every facet seen from each of its incident triangles: the closed-form
    # length and conormal inv @ n of the triangle's (shape, local facet)
    # pair against the endpoint distance and the vertex-built inverse
    # Jacobian times the geometric outward normal
    mesh = build_background_mesh(_SKEW_BOX, _SKEW_CELLS)
    lengths, conormals = fem_core.facet_frames(mesh)
    assert lengths.shape == (6,) and conormals.shape == (6, 2)
    for t in range(mesh.n_triangles):
        _, _, _, inv = _vertex_map(mesh, t)
        for local, facet in enumerate(mesh.triangle_facets[t]):
            group = 3 * (t % 2) + local
            a, b = mesh.vertices[mesh.facets[facet]]
            length = np.linalg.norm(b - a)
            assert abs(lengths[group] - length) <= 1e-15 * length
            want = inv @ _outward_normal(mesh, facet, t)
            got = conormals[group]
            assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


def _plain_facet_traces(field, k, facet, tri, normal, s):
    """Traces phi psi_i and d/dn(phi psi_i) of triangle `tri` on `facet`,
    at the points (1 - s) A + s B, A the lower-id end."""
    mesh = field.mesh
    a, b = mesh.vertices[mesh.facets[facet]]
    pts = (1.0 - s)[:, None] * a + s[:, None] * b
    v0, _, _, inv = _vertex_map(mesh, tri)
    lam = (pts - v0) @ inv.T
    bary = np.column_stack([1.0 - lam.sum(axis=1), lam])
    value, grad, _ = _plain_products(field, k, tri, bary)
    return value, grad @ normal


@pytest.mark.parametrize("k,l", [(1, 1), (2, 2), (3, 3), (1, 3), (2, 1),
                                 (3, 2)])
def test_shape_kernels_match_plain_quadrature(k, l):
    # Every kernel against the same integral summed point by point on each
    # triangle or facet, with maps built from its vertices and bases
    # tabulated at its own points.
    mesh = build_background_mesh(_SKEW_BOX, _SKEW_CELLS)
    dx, dy = mesh.cell_size
    assert dx != dy
    for t in range(mesh.n_triangles):
        _, jac, _, _ = _vertex_map(mesh, t)
        shape_jac = fem_core.shape_maps(mesh.cell_size)[0][t % 2]
        assert np.abs(jac - shape_jac).max() <= 1e-14 * np.abs(jac).max()

    phi = AnalyticField(
        value=lambda x, y: (x - 0.25) ** 2 + (y - 0.5) ** 2 - 0.3 ** 2)
    f = AnalyticField(value=lambda x, y: np.sin(3.0 * x) + y * y)
    field = interpolate_levelset(phi, mesh, l)
    domain = classify_domain(field)
    assert domain.cut_triangles.size and domain.ghost_facets.size
    degrees = quadrature_degrees(k, l)
    vol = triangle_quadrature(degrees["volume"])
    data = triangle_quadrature(degrees["data"])
    bnd = edge_quadrature(degrees["boundary_facet"])
    edge = edge_quadrature(degrees["ghost_facet"])
    h = mesh.h

    def close(got, want):
        np.testing.assert_allclose(got, want, rtol=0,
                                   atol=1e-12 * np.abs(want).max())

    tris = domain.active_triangles
    product, laplacian, load, correction = [], [], [], []
    for t in tris:
        v0, jac, det, _ = _vertex_map(mesh, t)
        _, grad, lap = _plain_products(field, k, t, vol.points)
        w = vol.weights * det
        product.append(np.einsum("q,qid,qjd->ij", w, grad, grad))
        laplacian.append(h * h * np.einsum("q,qi,qj->ij", w, lap, lap))
        value, _, lap = _plain_products(field, k, t, data.points)
        pts = v0 + data.points[:, 1:] @ jac.T
        wf = data.weights * det * f.value(pts[:, 0], pts[:, 1])
        load.append(wf @ value)
        correction.append(-h * h * (wf @ lap))
    close(element_product_kernel(tris, field, k), np.array(product))
    close(ghost_laplacian_kernel(tris, field, k), np.array(laplacian))
    close(load_kernel(tris, f, field, k), np.array(load))
    close(load_correction_kernel(tris, f, field, k), np.array(correction))

    boundary = []
    s = bnd.points[:, 1]
    for facet, owner in zip(domain.boundary_facets, domain.boundary_owners):
        normal = _outward_normal(mesh, facet, owner)
        value, dn = _plain_facet_traces(field, k, facet, owner, normal, s)
        length = np.linalg.norm(np.diff(mesh.vertices[mesh.facets[facet]],
                                        axis=0))
        boundary.append(np.einsum("q,qi,qj->ij", bnd.weights * length,
                                  value, dn))
    close(boundary_term_kernel(domain.boundary_facets, domain.boundary_owners,
                               field, k),
          np.array(boundary))

    jumps = []
    s = edge.points[:, 1]
    for facet in domain.ghost_facets:
        lo, hi = mesh.facet_triangles[facet]
        normal = _outward_normal(mesh, facet, lo)   # out of the lower-id side
        _, dn_lo = _plain_facet_traces(field, k, facet, lo, normal, s)
        _, dn_hi = _plain_facet_traces(field, k, facet, hi, normal, s)
        jump = np.concatenate([dn_lo, -dn_hi], axis=1)
        a, b = mesh.vertices[mesh.facets[facet]]
        w = h * edge.weights * np.linalg.norm(b - a)
        jumps.append(np.einsum("q,qi,qj->ij", w, jump, jump))
    _, local = ghost_jump_kernel(domain.ghost_facets, field, k)
    close(local, np.array(jumps))
