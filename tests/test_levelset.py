"""Tests for level-set interpolation and sign-based classification.

The 2x2 hand oracle is worked out on paper: unit box, phi = x - 0.51,
vertex ids row-major so v4 = (0.5, 0.5), triangles cell-by-cell with the
lower triangle first.
"""
import numpy as np
import pytest

from phifem.fem_core import (eval_shapes, physical_tables, shape_maps,
                             tabulate)
from phifem.levelset import (AnalyticField, EmptyActiveSetError,
                             classify_domain, interpolate_levelset)
from phifem.mesh import build_background_mesh, locate_points

UNIT_BOX = (0.0, 0.0, 1.0, 1.0)


def test_interpolation_matches_nodal_values():
    mesh = build_background_mesh(UNIT_BOX, (2, 2))
    phi = AnalyticField(value=lambda x, y: 2.0 * x + 3.0 * y)
    for degree in (1, 2, 3):
        field = interpolate_levelset(phi, mesh, degree)
        nodes = field.dofmap.node_coords
        expected = 2.0 * nodes[:, 0] + 3.0 * nodes[:, 1]
        np.testing.assert_array_equal(field.coefficients, expected)


def test_interpolation_rejects_bad_inputs():
    mesh = build_background_mesh(UNIT_BOX, (2, 2))
    good = AnalyticField(value=lambda x, y: x - y)
    with pytest.raises(ValueError):
        interpolate_levelset(good, mesh, 4)
    with pytest.raises(ValueError):
        interpolate_levelset(
            AnalyticField(value=lambda x, y: np.full_like(x, np.nan)),
            mesh, 1)
    with pytest.raises(ValueError):
        interpolate_levelset(AnalyticField(value=lambda x, y: 1.0), mesh, 1)


def test_coefficients_are_read_only():
    mesh = build_background_mesh(UNIT_BOX, (2, 2))
    field = interpolate_levelset(AnalyticField(value=lambda x, y: x - 0.5),
                                 mesh, 1)
    with pytest.raises(ValueError):
        field.coefficients[0] = 7.0


def _interpolant_at(field, tri, bary):
    """Value, physical gradient and Laplacian of the interpolant at one
    barycentric point of triangle `tri`, through the per-shape tables."""
    tables = tabulate(field.degree, bary[None])
    grads, laps = physical_tables(tables, shape_maps(field.mesh.cell_size)[2])
    val, derivs = eval_shapes(field.cell_coefficients(np.array([tri])),
                              np.array([tri % 2]), tables[0],
                              np.concatenate([grads, laps[..., None]], -1))
    return val[0, 0], derivs[0, 0, :2], derivs[0, 0, 2]


def test_interpolant_tables_affine_exact():
    mesh = build_background_mesh(UNIT_BOX, (2, 2))
    phi = AnalyticField(value=lambda x, y: 1.0 + 2.0 * x - y)
    field = interpolate_levelset(phi, mesh, 1)
    # triangle 3 is the upper triangle of cell (1, 0): (v1, v5, v4)
    bary = np.array([0.2, 0.5, 0.3])
    point = bary @ mesh.vertices[mesh.triangles[3]]
    np.testing.assert_allclose(point, [0.75, 0.40], atol=1e-15)
    val, grad, lap = _interpolant_at(field, 3, bary)
    assert abs(val - 2.1) <= 1e-13
    np.testing.assert_allclose(grad, [2.0, -1.0], atol=1e-13)
    assert abs(lap) <= 1e-12


def test_interpolant_tables_reproduce_quadratic():
    # A degree-2 interpolant reproduces a quadratic exactly, so value,
    # gradient and Laplacian at the paraboloid apex are known in closed
    # form.
    mesh = build_background_mesh(UNIT_BOX, (4, 4))
    phi = AnalyticField(
        value=lambda x, y: 0.125 - (x - 0.5) ** 2 - (y - 0.5) ** 2)
    field = interpolate_levelset(phi, mesh, 2)
    tri, bary = locate_points(mesh, np.array([[0.5, 0.5]]))
    val, grad, lap = _interpolant_at(field, int(tri[0]), bary[0])
    assert abs(val - 0.125) <= 1e-12
    np.testing.assert_allclose(grad, [0.0, 0.0], atol=1e-12)
    assert abs(lap + 4.0) <= 2e-11


def test_classification_hand_oracle_2x2():
    # phi = x - 0.51 on the unit box: negative at x in {0, 0.5}, positive
    # at x = 1, so every triangle is active and the right column is cut.
    mesh = build_background_mesh(UNIT_BOX, (2, 2))
    field = interpolate_levelset(AnalyticField(value=lambda x, y: x - 0.51),
                                 mesh, 1)
    domain = classify_domain(field, mesh)
    np.testing.assert_array_equal(domain.active_triangles, np.arange(8))
    np.testing.assert_array_equal(domain.cut_triangles, [2, 3, 6, 7])
    # Ghost facets by vertex pair: (v4,v5), (v1,v4), (v4,v7), (v1,v5), (v4,v8).
    expected = {(4, 5), (1, 4), (4, 7), (1, 5), (4, 8)}
    got = {tuple(pair) for pair in mesh.facets[domain.ghost_facets]}
    assert got == expected
    assert domain.ghost_facets.size == 5
    # All triangles active, so the active boundary is the box boundary.
    assert domain.boundary_facets.size == 8
    outer = np.nonzero(mesh.facet_triangles[:, 1] < 0)[0]
    np.testing.assert_array_equal(domain.boundary_facets, outer)


def test_all_negative_level_set():
    mesh = build_background_mesh(UNIT_BOX, (2, 2))
    field = interpolate_levelset(AnalyticField(value=lambda x, y: x * 0 - 1.0),
                                 mesh, 1)
    domain = classify_domain(field, mesh)
    assert domain.active_triangles.size == 8
    assert domain.cut_triangles.size == 0
    assert domain.ghost_facets.size == 0
    assert domain.boundary_facets.size == 8


def test_nonnegative_level_set_raises():
    mesh = build_background_mesh(UNIT_BOX, (2, 2))
    for func in (lambda x, y: x * 0 + 1.0,   # strictly positive
                 lambda x, y: x):            # zero on the left edge only
        field = interpolate_levelset(AnalyticField(value=func), mesh, 1)
        with pytest.raises(EmptyActiveSetError):
            classify_domain(field, mesh)


def test_classify_rejects_foreign_mesh():
    mesh = build_background_mesh(UNIT_BOX, (2, 2))
    other = build_background_mesh(UNIT_BOX, (2, 2))
    field = interpolate_levelset(AnalyticField(value=lambda x, y: x - 0.51),
                                 mesh, 1)
    with pytest.raises(ValueError):
        classify_domain(field, other)


def test_sub_nodal_dip_is_detected():
    # phi(x, y) = 7.6 x^2 - 5.6 x + 1 + y is quadratic, hence reproduced
    # exactly by the degree-2 interpolant.  On the bottom edge it dips to
    # -0.033 near x = 0.37 while every degree-2 node value is positive,
    # so only sampling between the nodes can catch the sign change.
    mesh = build_background_mesh(UNIT_BOX, (1, 1))
    phi = AnalyticField(value=lambda x, y: 7.6 * x ** 2 - 5.6 * x + 1.0 + y)
    field = interpolate_levelset(phi, mesh, 2)
    assert (field.coefficients > 0.0).all()
    domain = classify_domain(field, mesh)
    np.testing.assert_array_equal(domain.active_triangles, [0])
    np.testing.assert_array_equal(domain.cut_triangles, [0])
    assert domain.ghost_facets.size == 0
    assert domain.boundary_facets.size == 3


def test_active_set_grows_with_the_domain():
    mesh = build_background_mesh(UNIT_BOX, (6, 6))
    domains = []
    for r in (0.2, 0.35):
        phi = AnalyticField(
            value=lambda x, y, r=r: (x - 0.5) ** 2 + (y - 0.5) ** 2 - r ** 2)
        field = interpolate_levelset(phi, mesh, 2)
        domains.append(classify_domain(field, mesh))
    small, big = domains
    assert np.isin(small.active_triangles, big.active_triangles).all()
    assert small.active_triangles.size < big.active_triangles.size


def test_classification_deterministic():
    mesh = build_background_mesh(UNIT_BOX, (5, 5))
    phi = AnalyticField(
        value=lambda x, y: (x - 0.5) ** 2 + (y - 0.5) ** 2 - 0.125)
    a = classify_domain(interpolate_levelset(phi, mesh, 2), mesh)
    b = classify_domain(interpolate_levelset(phi, mesh, 2), mesh)
    np.testing.assert_array_equal(a.active_triangles, b.active_triangles)
    np.testing.assert_array_equal(a.cut_triangles, b.cut_triangles)
    np.testing.assert_array_equal(a.ghost_facets, b.ghost_facets)
    np.testing.assert_array_equal(a.boundary_facets, b.boundary_facets)
