"""Tests for the structured background mesh and its facet topology."""
import numpy as np
import pytest

from phifem.mesh import (build_background_mesh, locate_points,
                         submesh_boundary_facets)

UNIT = (0.0, 0.0, 1.0, 1.0)


def triangle_signed_areas(mesh):
    coords = mesh.triangle_coords(np.arange(mesh.n_triangles))
    a = coords[:, 1] - coords[:, 0]
    b = coords[:, 2] - coords[:, 0]
    return 0.5 * (a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0])


def test_counts_smallest_mesh():
    mesh = build_background_mesh(UNIT, (1, 1))
    assert mesh.n_vertices == 4
    assert mesh.n_triangles == 2
    assert mesh.n_facets == 5
    assert mesh.h == pytest.approx(np.sqrt(2.0), rel=1e-15)


def test_counts_2x2_mesh():
    mesh = build_background_mesh(UNIT, (2, 2))
    assert mesh.n_vertices == 9
    assert mesh.n_triangles == 8
    assert mesh.n_facets == 16
    assert mesh.h == pytest.approx(np.sqrt(2.0) / 2.0, rel=1e-15)


def test_count_formulas_rectangular_grid():
    mesh = build_background_mesh((0.0, 0.0, 3.0, 1.0), (5, 3))
    assert mesh.n_vertices == 6 * 4
    assert mesh.n_triangles == 2 * 5 * 3
    assert mesh.n_facets == 3 * 5 * 3 + 5 + 3


def test_h_matches_reported_plot_abscissa():
    mesh = build_background_mesh(UNIT, (10, 10))
    assert mesh.h == pytest.approx(0.141421356237, abs=1e-12)


def test_h_non_square_cells():
    mesh = build_background_mesh((0.0, 0.0, 2.0, 1.0), (4, 4))
    assert mesh.cell_size == pytest.approx((0.5, 0.25))
    assert mesh.h == pytest.approx(np.hypot(0.5, 0.25), rel=1e-15)


def test_triangles_counter_clockwise_and_congruent():
    mesh = build_background_mesh((0.0, -1.0, 2.5, 3.0), (3, 4))
    areas = triangle_signed_areas(mesh)
    assert (areas > 0.0).all()
    # uniform split: every triangle covers half a cell
    dx, dy = mesh.cell_size
    np.testing.assert_allclose(areas, 0.5 * dx * dy, rtol=1e-14)


def test_areas_sum_to_box_area():
    mesh = build_background_mesh((-4.0, -4.0, 4.0, 4.0), (7, 5))
    total = triangle_signed_areas(mesh).sum()
    assert total == pytest.approx(64.0, rel=1e-12)


def test_vertices_match_lattice():
    mesh = build_background_mesh((1.0, 2.0, 3.0, 5.0), (4, 6))
    dx, dy = mesh.cell_size
    rebuilt = np.column_stack([1.0 + mesh.vertex_lattice[:, 0] * dx,
                               2.0 + mesh.vertex_lattice[:, 1] * dy])
    np.testing.assert_allclose(mesh.vertices, rebuilt, atol=1e-14)


def test_facet_incidence_consistency():
    mesh = build_background_mesh(UNIT, (3, 2))
    # every facet row references its incident triangles and vice versa
    for f in range(mesh.n_facets):
        tris = mesh.facet_triangles[f]
        assert tris[0] >= 0
        for t in tris:
            if t >= 0:
                assert f in mesh.triangle_facets[t]
        if tris[1] >= 0:
            assert tris[0] < tris[1]
    # each triangle's facets reuse exactly its own vertices
    for t in range(mesh.n_triangles):
        verts = set(mesh.triangles[t])
        for f in mesh.triangle_facets[t]:
            assert set(mesh.facets[f]) <= verts


def test_facet_vertex_pairs_sorted():
    mesh = build_background_mesh(UNIT, (4, 3))
    assert (mesh.facets[:, 0] < mesh.facets[:, 1]).all()


def test_interior_facet_count():
    mesh = build_background_mesh(UNIT, (4, 5))
    interior = mesh.interior_facets_mask().sum()
    assert interior == mesh.n_facets - 2 * (4 + 5)


def test_boundary_facets_whole_mesh():
    mesh = build_background_mesh(UNIT, (2, 2))
    bnd = submesh_boundary_facets(mesh, np.arange(mesh.n_triangles))
    assert bnd.facets.size == 8
    # all boundary facets lie on the unit-square edge
    ends = mesh.facet_coords(bnd.facets)
    on_edge = ((ends == 0.0) | (ends == 1.0)).any(axis=2).all(axis=1)
    assert on_edge.all()


def test_boundary_facets_single_cell():
    mesh = build_background_mesh(UNIT, (2, 2))
    # both triangles of cell (0, 0): the cell perimeter, diagonal interior
    bnd = submesh_boundary_facets(mesh, np.array([0, 1]))
    assert bnd.facets.size == 4
    ends = mesh.facet_coords(bnd.facets)
    lengths = np.linalg.norm(ends[:, 1] - ends[:, 0], axis=1)
    np.testing.assert_allclose(lengths, 0.5, rtol=1e-15)


def test_boundary_facets_left_column():
    mesh = build_background_mesh(UNIT, (2, 2))
    # triangles of cells (0,0) and (0,1): the [0, 0.5] x [0, 1] rectangle.
    # Perimeter: 1 bottom + 1 top + 2 left + 2 right facets = 6; the two
    # diagonals and the horizontal facet at y=0.5 are interior.
    active = np.array([0, 1, 4, 5])
    bnd = submesh_boundary_facets(mesh, active)
    assert bnd.facets.size == 6
    mids = mesh.facet_coords(bnd.facets).mean(axis=1)
    on_perimeter = (np.isin(mids[:, 0], (0.0, 0.5))
                    | np.isin(mids[:, 1], (0.0, 1.0)))
    assert on_perimeter.all()


def test_boundary_owners_and_normals():
    mesh = build_background_mesh(UNIT, (3, 3))
    active = np.array([0, 1, 2, 3, 6, 7])   # bottom-left 2x1 block of cells
    bnd = submesh_boundary_facets(mesh, active)
    assert np.isin(bnd.owners, active).all()


def test_boundary_facets_rejects_bad_input():
    mesh = build_background_mesh(UNIT, (2, 2))
    with pytest.raises(ValueError):
        submesh_boundary_facets(mesh, np.array([], dtype=np.int64))
    with pytest.raises(ValueError):
        submesh_boundary_facets(mesh, np.array([8]))


def test_locate_points_recovers_barycenters():
    mesh = build_background_mesh((0.0, 0.0, 2.0, 1.0), (4, 3))
    tris = np.arange(mesh.n_triangles)
    centers = mesh.triangle_coords(tris).mean(axis=1)
    found, bary = locate_points(mesh, centers)
    np.testing.assert_array_equal(found, tris)
    np.testing.assert_allclose(bary, 1.0 / 3.0, atol=1e-12)
    # barycentric coordinates reproduce the points
    coords = mesh.triangle_coords(found)
    rebuilt = np.einsum("pv,pvd->pd", bary, coords)
    np.testing.assert_allclose(rebuilt, centers, atol=1e-14)


def test_locate_points_diagonal_goes_to_lower():
    mesh = build_background_mesh(UNIT, (2, 2))
    tri, bary = locate_points(mesh, np.array([[0.25, 0.25]]))
    assert tri[0] == 0
    np.testing.assert_allclose(bary[0], [0.5, 0.0, 0.5], atol=1e-14)


def test_locate_points_clamps_outside():
    mesh = build_background_mesh(UNIT, (2, 2))
    tri, _ = locate_points(mesh, np.array([[-0.3, 0.2], [1.5, 0.9]]))
    assert tri[0] in (0, 1)          # first column of cells
    assert tri[1] in (6, 7)          # last column, top row


def test_build_rejects_bad_input():
    with pytest.raises(ValueError):
        build_background_mesh((0.0, 0.0, 0.0, 1.0), (2, 2))
    with pytest.raises(ValueError):
        build_background_mesh(UNIT, (0, 2))
    with pytest.raises(ValueError):
        build_background_mesh((0.0, 0.0, np.inf, 1.0), (2, 2))


def test_mesh_arrays_read_only():
    mesh = build_background_mesh(UNIT, (2, 2))
    with pytest.raises(ValueError):
        mesh.vertices[0, 0] = 3.0
    with pytest.raises(ValueError):
        mesh.triangles[0, 0] = 5
