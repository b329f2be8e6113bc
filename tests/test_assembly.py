"""Tests for the assembled forms.

Local kernels are checked against integrals worked out by hand on the
unit-square mesh (one or two cells), where the affine maps are simple
enough to integrate the products on paper.  Global properties (symmetry,
positivity, consistency of the planted polynomial) are checked on the
built-in cases with seeded random vectors.
"""
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import phifem.assembly as assembly
from phifem.assembly import (assemble_ghost_part, assemble_parts,
                             assemble_system, boundary_term_kernel,
                             element_product_kernel, ghost_jump_kernel,
                             ghost_laplacian_kernel, rhs_kernels)
from phifem.cases import get_case
from phifem.fem_core import (build_dof_map, edge_quadrature,
                             make_reference_element, quadrature_degrees,
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
    ref = make_reference_element(1)
    quad = triangle_quadrature(quadrature_degrees(1, 1)["volume"])
    expected = 0.5 * np.array([[1.0, -1.0, 0.0],
                               [-1.0, 2.0, -1.0],
                               [0.0, -1.0, 1.0]])
    for value in (1.0, -1.0):
        field = _const_field(mesh, value)
        local = element_product_kernel(0, field, ref, quad)
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
    ref = make_reference_element(1)
    quad = edge_quadrature(quadrature_degrees(1, 1)["boundary_facet"])
    local = boundary_term_kernel(0, 0, np.array([0.0, -1.0]), field, ref,
                                 quad)
    expected = np.array([[0.0, 19.0 / 300.0, -19.0 / 300.0],
                         [0.0, 3.0 / 100.0, -3.0 / 100.0],
                         [0.0, 0.0, 0.0]])
    np.testing.assert_allclose(local, expected, rtol=0, atol=1e-15)


def test_full_system_matches_manual_assembly():
    # phi = -1 keeps every triangle active and uncut, so the system is the
    # core form alone and can be rebuilt kernel by kernel.
    mesh = build_background_mesh(UNIT_BOX, (2, 2))
    field = _const_field(mesh, -1.0)
    domain = classify_domain(field, mesh)
    f = AnalyticField(value=lambda x, y: x + 2.0 * y)
    system = assemble_system(domain, field, f, 1, 20.0)
    assert domain.cut_triangles.size == 0
    assert domain.ghost_facets.size == 0

    ref = make_reference_element(1)
    degrees = quadrature_degrees(1, 1)
    vol = triangle_quadrature(degrees["volume"])
    data = triangle_quadrature(degrees["data"])
    bnd = edge_quadrature(degrees["boundary_facet"])
    dofmap = system.dofmap
    n = dofmap.n_dofs
    a = np.zeros((n, n))
    b = np.zeros(n)
    for tri in domain.active_triangles:
        dofs = dofmap.cell_dofs[dofmap.rows_for(np.array([tri]))[0]]
        a[np.ix_(dofs, dofs)] += element_product_kernel(
            int(tri), field, ref, vol)
        b[dofs] += rhs_kernels(int(tri), f, field, ref, data, 20.0,
                               mesh.h, cut=False)
    for facet, owner, normal in zip(domain.boundary_facets,
                                    domain.boundary_owners,
                                    domain.boundary_normals):
        dofs = dofmap.cell_dofs[dofmap.rows_for(np.array([owner]))[0]]
        a[np.ix_(dofs, dofs)] -= boundary_term_kernel(
            int(facet), int(owner), normal, field, ref, bnd)
    np.testing.assert_allclose(system.A.toarray(), a, rtol=1e-12,
                               atol=1e-14)
    np.testing.assert_allclose(system.b, b, rtol=1e-12, atol=1e-14)

    # without cut cells the penalty changes nothing
    plain = assemble_system(domain, field, f, 1, 0.0)
    assert (system.A != plain.A).nnz == 0
    np.testing.assert_array_equal(system.b, plain.b)


def test_ghost_jump_kernel_hand_integral():
    # phi = -1 across the diagonal facet of the 1x1 mesh: the normal
    # derivative of each phi*psi is constant along the facet, so the jump
    # vector is constant and the kernel is sigma*h*len * outer(c, c).
    # With the facet normal (-1,1)/sqrt(2) the stacked jump evaluates to
    # c = (-1, 2, -1, -1, -1, 2)/sqrt(2); sigma=2, h=len=sqrt(2) give
    # local = 2 * outer(m, m) with m = (-1, 2, -1, -1, -1, 2).
    mesh = build_background_mesh(UNIT_BOX, (1, 1))
    field = _const_field(mesh, -1.0)
    ref = make_reference_element(1)
    quad = edge_quadrature(quadrature_degrees(1, 1)["ghost_facet"])
    tris, local = ghost_jump_kernel(4, field, ref, quad, 2.0,
                                    float(np.sqrt(2.0)))
    np.testing.assert_array_equal(tris, [0, 1])
    m = np.array([-1.0, 2.0, -1.0, -1.0, -1.0, 2.0])
    np.testing.assert_allclose(local, 2.0 * np.outer(m, m), rtol=0,
                               atol=1e-13)
    np.testing.assert_array_equal(local, local.T)


def test_ghost_jump_kernel_rejects_single_neighbour_facet():
    mesh = build_background_mesh(UNIT_BOX, (1, 1))
    field = _const_field(mesh, -1.0)
    ref = make_reference_element(1)
    quad = edge_quadrature(quadrature_degrees(1, 1)["ghost_facet"])
    assert mesh.facet_triangles[0, 1] < 0
    with pytest.raises(ValueError, match="single incident triangle"):
        ghost_jump_kernel(0, field, ref, quad, 20.0, mesh.h)


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
        ref = make_reference_element(k)
        quad = edge_quadrature(quadrature_degrees(k, 1)["ghost_facet"])
        interior = np.nonzero(mesh.facet_triangles[:, 1] >= 0)[0]
        for facet in interior[:6]:
            tris, local = ghost_jump_kernel(int(facet), field, ref, quad,
                                            20.0, mesh.h)
            verts = mesh.triangle_coords(tris)          # (2, 3, 2)
            nodes = np.einsum("nb,tbd->tnd", ref.nodes_bary, verts)
            stacked = w(nodes[..., 0], nodes[..., 1]).ravel()
            residual = local @ stacked
            assert np.abs(residual).max() <= 1e-11 * np.abs(local).max()
            np.testing.assert_array_equal(local, local.T)
            assert np.linalg.eigvalsh(local).min() >= -1e-12


def test_ghost_laplacian_hand_integrals():
    # phi = x^2 + y^2 - 1/2 is reproduced exactly at l=2 and has lap = 4.
    # For w = 1: lap(phi*1) = 4;  for w = x: lap(phi*x) = 8x.  On triangle
    # 0 ((0,0),(1,0),(1,1); int x = 1/3, int x^2 = 1/4, area = 1/2) the
    # quadratic forms of the kernel against those vectors are
    #   1' L 1 = s h^2 * 16 * (1/2),  x' L 1 = s h^2 * 32 * (1/3),
    #   x' L x = s h^2 * 64 * (1/4).
    mesh = build_background_mesh(UNIT_BOX, (1, 1))
    field = interpolate_levelset(
        AnalyticField(value=lambda x, y: x * x + y * y - 0.5), mesh, 2)
    ref = make_reference_element(2)
    quad = triangle_quadrature(quadrature_degrees(2, 2)["volume"])
    sigma, h = 3.0, 0.5
    local = ghost_laplacian_kernel(0, field, ref, quad, sigma, h)
    verts = mesh.triangle_coords(np.array([0]))[0]
    nodes = ref.nodes_bary @ verts
    ones = np.ones(ref.n_basis)
    xs = nodes[:, 0]
    factor = sigma * h * h
    assert abs(ones @ local @ ones - factor * 8.0) <= 1e-12
    assert abs(xs @ local @ ones - factor * 32.0 / 3.0) <= 1e-12
    assert abs(xs @ local @ xs - factor * 16.0) <= 1e-12
    np.testing.assert_array_equal(local, local.T)


def test_ghost_part_scales_linearly_in_sigma():
    case = get_case("circle")
    mesh = build_background_mesh(case.box, (10, 10))
    field = interpolate_levelset(case.phi, mesh, 1)
    domain = classify_domain(field, mesh)
    g1, b1 = assemble_ghost_part(domain, field, case.f, 1, 1.0)
    g2, b2 = assemble_ghost_part(domain, field, case.f, 1, 2.0)
    diff = (g2 - 2.0 * g1).tocoo()
    assert diff.nnz == 0 or np.abs(diff.data).max() == 0.0
    np.testing.assert_array_equal(b2, 2.0 * b1)


def test_ghost_matrix_symmetric_and_psd():
    case = get_case("circle")
    mesh = build_background_mesh(case.box, (20, 20))
    field = interpolate_levelset(case.phi, mesh, 1)
    domain = classify_domain(field, mesh)
    ghost, _ = assemble_ghost_part(domain, field, case.f, 1, 20.0)
    assert (ghost != ghost.T).nnz == 0
    rng = np.random.default_rng(20240910)
    scale = np.abs(ghost).max()
    for _ in range(1000):
        v = rng.standard_normal(ghost.shape[0])
        assert v @ (ghost @ v) >= -1e-10 * scale * (v @ v)


def test_full_matrix_positive_on_random_vectors():
    case = get_case("circle")
    mesh = build_background_mesh(case.box, (20, 20))
    field = interpolate_levelset(case.phi, mesh, 1)
    domain = classify_domain(field, mesh)
    system = assemble_system(domain, field, case.f, 1, 20.0)
    rng = np.random.default_rng(20240911)
    for _ in range(1000):
        v = rng.standard_normal(system.n_dofs)
        assert v @ (system.A @ v) > 0.0


def test_sigma_zero_skips_penalty_assembly(monkeypatch):
    case = get_case("circle")
    mesh = build_background_mesh(case.box, (8, 8))
    field = interpolate_levelset(case.phi, mesh, 1)
    domain = classify_domain(field, mesh)

    def boom(*args, **kwargs):
        raise AssertionError("penalty assembled despite sigma = 0")

    monkeypatch.setattr(assembly, "assemble_ghost_part", boom)
    system = assemble_system(domain, field, case.f, 1, 0.0)
    assert system.sigma == 0.0


@pytest.mark.parametrize("k", [1, 2, 3])
def test_planted_polynomial_reproduced(k):
    # The planted case has w = 1 + x + y in every trial space, penalty
    # terms consistent by construction, so the solve must return the
    # polynomial to solver accuracy.
    case = get_case("planted")
    mesh = build_background_mesh(case.box, (7, 7))
    field = interpolate_levelset(case.phi, mesh, k)
    domain = classify_domain(field, mesh)
    system = assemble_system(domain, field, case.f, k, 20.0,
                             outer_data=case.outer_data)
    report = solve(system)
    nodes = system.dofmap.node_coords
    exact = 1.0 + nodes[:, 0] + nodes[:, 1]
    assert np.abs(report.x - exact).max() <= 1e-9


def test_outer_pinning_rows_are_identity():
    # For phi = x - 0.51 on a 4x4 mesh the active region is the first
    # three cell columns; its outer boundary covers the left edge and the
    # bottom/top edges up to x = 3/4.  Pinned rows must be identity rows
    # with the boundary data on the right-hand side.
    case = get_case("planted")
    mesh = build_background_mesh(case.box, (4, 4))
    field = interpolate_levelset(case.phi, mesh, 1)
    domain = classify_domain(field, mesh)
    system = assemble_system(domain, field, case.f, 1, 20.0,
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
    domain = classify_domain(field, mesh)
    sigmas = [0.0, 0.5, 20.0]
    parts = assemble_parts(domain, field, case.f, 2, sigmas,
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
        alone = assemble_system(domain, field, case.f, 2, sigma,
                                outer_data=case.outer_data)
        for name in ("data", "indices", "indptr"):
            np.testing.assert_array_equal(getattr(system.A, name),
                                          getattr(alone.A, name))
        np.testing.assert_array_equal(system.b, alone.b)

    plain = assemble_parts(domain, field, case.f, 2, [0.0])
    assert plain.G is None and plain.pinned.size == 0
    with pytest.raises(ValueError):
        plain.system(1.0)
    with pytest.raises(ValueError):
        parts.system(-1.0)


def test_assemble_validation():
    case = get_case("circle")
    mesh = build_background_mesh(case.box, (6, 6))
    field = interpolate_levelset(case.phi, mesh, 1)
    domain = classify_domain(field, mesh)
    with pytest.raises(ValueError):
        assemble_system(domain, field, case.f, 4, 20.0)
    with pytest.raises(ValueError):
        assemble_system(domain, field, case.f, 1, -1.0)
    other_mesh = build_background_mesh(case.box, (6, 6))
    other = interpolate_levelset(case.phi, other_mesh, 1)
    with pytest.raises(ValueError):
        assemble_system(domain, other, case.f, 1, 20.0)



@settings(max_examples=20, derandomize=True, deadline=None)
@given(n=st.integers(4, 12), k=st.sampled_from([1, 2, 3]),
       radius=st.floats(0.15, 0.4),
       shift=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
       seed=st.integers(0, 2**32 - 1))
def test_batched_assembly_matches_per_entity_kernels(n, k, radius, shift,
                                                     seed):
    # A shifted, scaled disk kept 0.05 clear of the unit box: the batched
    # system must equal the dense sum of the public per-entity kernels,
    # with the penalty parts (ghost facets and cut cells) included.
    room = 0.45 - radius
    cx, cy = 0.5 + room * shift[0], 0.5 + room * shift[1]
    phi = AnalyticField(
        value=lambda x, y: (x - cx) ** 2 + (y - cy) ** 2 - radius ** 2)
    f = AnalyticField(value=lambda x, y: 1.0 + x - 2.0 * y * y)
    sigma = 20.0
    mesh = build_background_mesh(UNIT_BOX, (n, n))
    field = interpolate_levelset(phi, mesh, k)
    domain = classify_domain(field, mesh)
    assert domain.ghost_facets.size > 0
    system = assemble_system(domain, field, f, k, sigma)

    ref = make_reference_element(k)
    degrees = quadrature_degrees(k, k)
    vol = triangle_quadrature(degrees["volume"])
    data = triangle_quadrature(degrees["data"])
    bnd = edge_quadrature(degrees["boundary_facet"])
    edge = edge_quadrature(degrees["ghost_facet"])
    dofmap = system.dofmap

    def dofs_of(tris):
        return dofmap.cell_dofs[dofmap.rows_for(np.atleast_1d(tris))].ravel()

    a = np.zeros((dofmap.n_dofs, dofmap.n_dofs))
    b = np.zeros(dofmap.n_dofs)
    cut = set(domain.cut_triangles.tolist())
    for tri in domain.active_triangles.tolist():
        dofs = dofs_of(tri)
        a[np.ix_(dofs, dofs)] += element_product_kernel(tri, field, ref, vol)
        b[dofs] += rhs_kernels(tri, f, field, ref, data, sigma, mesh.h,
                               cut=tri in cut)
    for facet, owner, normal in zip(domain.boundary_facets.tolist(),
                                    domain.boundary_owners.tolist(),
                                    domain.boundary_normals):
        dofs = dofs_of(owner)
        a[np.ix_(dofs, dofs)] -= boundary_term_kernel(facet, owner, normal,
                                                      field, ref, bnd)
    ghost = np.zeros_like(a)
    for facet in domain.ghost_facets.tolist():
        tris, local = ghost_jump_kernel(facet, field, ref, edge, sigma,
                                        mesh.h)
        dofs = dofs_of(tris)
        np.add.at(ghost, np.ix_(dofs, dofs), local)
    for tri in cut:
        dofs = dofs_of(tri)
        ghost[np.ix_(dofs, dofs)] += ghost_laplacian_kernel(
            tri, field, ref, vol, sigma, mesh.h)
    a += ghost
    scale = np.abs(a).max()
    np.testing.assert_allclose(system.A.toarray(), a, rtol=0,
                               atol=1e-12 * scale)
    np.testing.assert_allclose(system.b, b, rtol=0,
                               atol=1e-12 * np.abs(b).max())

    part, _ = assemble_ghost_part(domain, field, f, k, sigma, dofmap)
    assert (part != part.T).nnz == 0
    # duplicate entries sum in another order, so equal up to rounding
    order = np.random.default_rng(seed).permutation(domain.ghost_facets)
    permuted, _ = assemble_ghost_part(
        dataclasses.replace(domain, ghost_facets=order), field, f, k, sigma,
        dofmap)
    np.testing.assert_allclose(permuted.toarray(), part.toarray(), rtol=0,
                               atol=1e-12 * np.abs(ghost).max())
