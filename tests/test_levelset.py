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
                             _sign_lattice, classify_domain,
                             interpolate_levelset)
from phifem.mesh import build_background_mesh, locate_points
from test_robustness import CIRCLE_RADIUS, OFF_VERTICES, shifted_disk

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
    domain = classify_domain(field)
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
    domain = classify_domain(field)
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
            classify_domain(field)


def test_sub_nodal_dip_is_detected():
    # phi(x, y) = 7.6 x^2 - 5.6 x + 1 + y is quadratic, hence reproduced
    # exactly by the degree-2 interpolant.  On the bottom edge it dips to
    # -0.033 near x = 0.37 while every degree-2 node value is positive,
    # so only sampling between the nodes can catch the sign change.
    mesh = build_background_mesh(UNIT_BOX, (1, 1))
    phi = AnalyticField(value=lambda x, y: 7.6 * x ** 2 - 5.6 * x + 1.0 + y)
    field = interpolate_levelset(phi, mesh, 2)
    assert (field.coefficients > 0.0).all()
    domain = classify_domain(field)
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
        domains.append(classify_domain(field))
    small, big = domains
    assert np.isin(small.active_triangles, big.active_triangles).all()
    assert small.active_triangles.size < big.active_triangles.size


def test_classification_deterministic():
    mesh = build_background_mesh(UNIT_BOX, (5, 5))
    phi = AnalyticField(
        value=lambda x, y: (x - 0.5) ** 2 + (y - 0.5) ** 2 - 0.125)
    a = classify_domain(interpolate_levelset(phi, mesh, 2))
    b = classify_domain(interpolate_levelset(phi, mesh, 2))
    np.testing.assert_array_equal(a.active_triangles, b.active_triangles)
    np.testing.assert_array_equal(a.cut_triangles, b.cut_triangles)
    np.testing.assert_array_equal(a.ghost_facets, b.ghost_facets)
    np.testing.assert_array_equal(a.boundary_facets, b.boundary_facets)


@pytest.mark.parametrize("degree", [1, 2, 3])
def test_classification_matches_rowwise_sampling(degree):
    # classify_domain samples the lattice as (lattice point, triangle)
    # rows; its sets must be bitwise those of sampling each triangle's
    # row of lattice points, on the disk whose zero set runs through
    # vertices (where a sample of exactly 0 decides), that disk moved
    # just off them, and disks that cut the grid elsewhere
    n = 20
    mesh = build_background_mesh(UNIT_BOX, (n, n))
    tris = np.arange(mesh.n_triangles)
    geometries = [((0.0, 0.0), CIRCLE_RADIUS), (OFF_VERTICES, CIRCLE_RADIUS),
                  ((0.3, -0.2), 0.33), ((-0.45, 0.15), 0.38),
                  ((0.5, 0.5), 0.30)]
    for shift, radius in geometries:
        case = shifted_disk(np.asarray(shift) / n, radius)
        field = interpolate_levelset(case.phi, mesh, degree)
        domain = classify_domain(field)

        samples = field.cell_coefficients(tris) @ _sign_lattice(degree).T
        active = samples.min(axis=1) < 0.0
        cut = active & (samples.max(axis=1) >= 0.0)
        # a missing neighbour (-1) reads the appended False
        both_active = np.append(active, False)[mesh.facet_triangles].all(1)
        by_cut = np.append(cut, False)[mesh.facet_triangles].any(1)
        np.testing.assert_array_equal(domain.active_triangles,
                                      np.flatnonzero(active))
        np.testing.assert_array_equal(domain.cut_triangles,
                                      np.flatnonzero(cut))
        np.testing.assert_array_equal(domain.ghost_facets,
                                      np.flatnonzero(both_active & by_cut))


def _facet_oracle(mesh, active, cut):
    """Ghost facets, boundary facets and owners, one facet at a time."""
    active, cut = set(active.tolist()), set(cut.tolist())
    ghost, boundary, owners = [], [], []
    for facet, pair in enumerate(mesh.facet_triangles.tolist()):
        inside = [t for t in pair if t in active]   # -1 is never active
        if len(inside) == 2 and cut & set(inside):
            ghost.append(facet)
        if len(inside) == 1:
            boundary.append(facet)
            owners.append(inside[0])
    return ghost, boundary, owners


@pytest.mark.parametrize("degree", [1, 2, 3])
def test_facet_sets_match_per_facet_oracle(degree):
    # random nodal fields, mostly, half or sparsely negative, so active
    # sets run up to the box and stop short of it
    rng = np.random.default_rng(25 + degree)
    box_owned = 0
    for n_cells in [(1, 1), (1, 5), (4, 3), (7, 7)]:
        mesh = build_background_mesh((0.0, 0.0, 2.0, 1.0), n_cells)
        for offset in (-1.5, 0.0, 1.5):
            def phi(x, y, offset=offset):
                values = rng.standard_normal(x.shape) + offset
                values[rng.integers(values.size)] = -1.0
                return values
            domain = classify_domain(
                interpolate_levelset(AnalyticField(value=phi), mesh, degree))
            ghost, boundary, owners = _facet_oracle(
                mesh, domain.active_triangles, domain.cut_triangles)
            np.testing.assert_array_equal(domain.ghost_facets, ghost)
            np.testing.assert_array_equal(domain.boundary_facets, boundary)
            np.testing.assert_array_equal(domain.boundary_owners, owners)
            for arr in (domain.active_triangles, domain.cut_triangles,
                        domain.ghost_facets, domain.boundary_facets,
                        domain.boundary_owners):
                assert arr.dtype.kind == "i" and not arr.flags.writeable
            box_owned += int(
                (mesh.facet_triangles[domain.boundary_facets, 1] < 0).sum())
    # the missing neighbour (-1) of box facets was exercised
    assert box_owned > 0
