"""Tests for level-set interpolation and sign-based classification.

The 2x2 hand oracle is worked out on paper: unit box, phi = x - 0.51,
vertex ids row-major so v4 = (0.5, 0.5), triangles cell-by-cell with the
lower triangle first.
"""
import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from phifem.fem_core import (DofMap, _lattice_multi_indices, build_dof_map,
                             eval_shapes, physical_tables, shape_maps,
                             tabulate)
from phifem.levelset import (AnalyticField, EmptyActiveSetError,
                             _sign_lattice, classify_domain,
                             interpolate_levelset)
from phifem.mesh import build_background_mesh, locate_points
from test_robustness import CIRCLE_RADIUS, OFF_VERTICES, shifted_disk

UNIT_BOX = (0.0, 0.0, 1.0, 1.0)


def test_interpolation_matches_nodal_values():
    # the values are indexed by lattice code, x index first: on the unit
    # 2x2 mesh the node with code c has key divmod(c, 2 degree + 1) and
    # sits at that key times 0.5 / degree
    mesh = build_background_mesh(UNIT_BOX, (2, 2))
    phi = AnalyticField(value=lambda x, y: 2.0 * x + 3.0 * y)
    for degree in (1, 2, 3):
        field = interpolate_levelset(phi, mesh, degree)
        assert field.coefficients.shape == ((2 * degree + 1) ** 2,)
        keys = np.divmod(np.arange(field.coefficients.size), 2 * degree + 1)
        x, y = (key * (0.5 / degree) for key in keys)
        np.testing.assert_array_equal(field.coefficients, 2.0 * x + 3.0 * y)


@pytest.mark.parametrize("degree", [1, 2, 3])
@pytest.mark.parametrize("box, cells", [(UNIT_BOX, (3, 5)),
                                        ((-1.5, 0.25, 2.0, 3.0), (7, 4))])
def test_cell_coefficients_match_a_full_mesh_dof_map(degree, box, cells):
    # the closed-form codes read the values a dof map over every triangle
    # gathers, for ids in any order and of any shape, and the values are
    # phi at that map's node coordinates, to the bit; the codes are also
    # those summed from the mesh's own vertices, node key = sum over the
    # triangle's vertices of multi-index times vertex key
    mesh = build_background_mesh(box, cells)
    phi = AnalyticField(value=lambda x, y: np.sin(3.0 * x) * y + x * x)
    field = interpolate_levelset(phi, mesh, degree)
    dofmap = build_dof_map(mesh, np.arange(mesh.n_triangles), degree)
    nodes = dofmap.node_coords
    np.testing.assert_array_equal(field.coefficients,
                                  phi.value(nodes[:, 0], nodes[:, 1]))
    stride = degree * cells[1] + 1
    vertex_codes = mesh.vertex_lattice @ np.array([stride, 1])
    multi = _lattice_multi_indices(degree)
    rng = np.random.default_rng(32)
    for tris in (np.arange(mesh.n_triangles),
                 rng.permutation(mesh.n_triangles)[:9],
                 rng.integers(0, mesh.n_triangles, size=(5, 4))):
        got = field.cell_coefficients(tris)
        assert got.shape == tris.shape + (len(multi),)
        np.testing.assert_array_equal(
            got, field.coefficients[dofmap.cell_dofs[tris]])
        np.testing.assert_array_equal(
            got, field.coefficients[vertex_codes[mesh.triangles[tris]]
                                    @ multi.T])


def test_field_keeps_only_its_nodal_values():
    mesh = build_background_mesh(UNIT_BOX, (4, 3))
    field = interpolate_levelset(AnalyticField(value=lambda x, y: x - y),
                                 mesh, 2)
    held = [getattr(field, f.name) for f in dataclasses.fields(field)]
    assert not any(isinstance(value, DofMap) for value in held)
    arrays = [value for value in held if isinstance(value, np.ndarray)]
    assert [a.shape for a in arrays] == [((2 * 4 + 1) * (2 * 3 + 1),)]


# tracemalloc peak of one interpolate_levelset call on the n=320 circle at
# l=2: 18.81 MiB, of which 3.14 MiB are the values it keeps and 6.27 MiB
# the nodes' coordinates (the rest is the circle's temporaries), against
# 45.20 MiB when it built a dof map over every triangle; the bound is
# about 1.5 times the measurement
def test_interpolation_memory_peak():
    mesh = build_background_mesh(UNIT_BOX, (320, 320))
    phi = shifted_disk((0.0, 0.0), CIRCLE_RADIUS).phi
    tracemalloc.start()
    try:
        interpolate_levelset(phi, mesh, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 28.0 * 2 ** 20


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


def _full_lattice(field):
    """Active and cut triangles from every lattice sample of every
    triangle; each sample sums the nodes' terms in node order, as
    `classify_domain` does, so the two agree to the bit on any field."""
    basis = _sign_lattice(field.degree)
    coeffs = field.cell_coefficients(np.arange(field.mesh.n_triangles))
    samples = sum(basis[:, node, None] * coeffs[:, node]
                  for node in range(basis.shape[1]))
    active = samples.min(axis=0) < 0.0
    return (np.flatnonzero(active),
            np.flatnonzero(active & (samples.max(axis=0) >= 0.0)))


def _assert_full_lattice(field):
    active, cut = _full_lattice(field)
    if not active.size:
        with pytest.raises(EmptyActiveSetError):
            classify_domain(field)
        return
    domain = classify_domain(field)
    np.testing.assert_array_equal(domain.active_triangles, active)
    np.testing.assert_array_equal(domain.cut_triangles, cut)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(degree=st.integers(1, 3), n=st.integers(2, 24),
       shift=st.tuples(st.floats(-0.4, 0.4), st.floats(-0.4, 0.4)),
       radius=st.floats(0.02, 0.6))
# the default circle runs through vertices when n is a multiple of 4
@example(degree=1, n=20, shift=(0.0, 0.0), radius=CIRCLE_RADIUS)
@example(degree=2, n=20, shift=(0.0, 0.0), radius=CIRCLE_RADIUS)
@example(degree=3, n=20, shift=(0.0, 0.0), radius=CIRCLE_RADIUS)
def test_classification_matches_full_lattice_on_disks(degree, n, shift,
                                                      radius):
    # only triangles whose nodal values leave the sign open are sampled;
    # the node bound must decide every other one as the full lattice does
    mesh = build_background_mesh(UNIT_BOX, (n, n))
    case = shifted_disk(np.asarray(shift), radius)
    _assert_full_lattice(interpolate_levelset(case.phi, mesh, degree))


_SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 1.0, -1.0, 0.5, 1.0 / 3.0, -2.0,
            1e-300]


@settings(max_examples=200, derandomize=True, deadline=None)
@given(degree=st.integers(1, 3), nx=st.integers(1, 3), ny=st.integers(1, 3),
       picks=st.lists(st.sampled_from(_SPECIAL), min_size=1, max_size=160),
       scale=st.sampled_from([1.0, 1e-3, 7.0, 1.0 / 3.0]),
       constant=st.booleans())
def test_classification_matches_full_lattice_on_special_fields(
        degree, nx, ny, picks, scale, constant):
    # nodal values of exact zeros of both signs, the smallest subnormals,
    # values whose samples cancel to zero, and constant fields: the cases
    # where the slack of the node bound, not its main term, decides
    mesh = build_background_mesh(UNIT_BOX, (nx, ny))

    def values(x, y):
        if constant:
            return np.full(x.shape, picks[0] * scale)
        return np.resize(np.asarray(picks), x.shape) * scale

    _assert_full_lattice(
        interpolate_levelset(AnalyticField(value=values), mesh, degree))


# tracemalloc peaks of one classify_domain call on the n=160 circle, at
# most about 1.5 times those measured when the lattice became sampled on
# sign-open triangles only: 3.57 MiB (l=1) and 8.20 MiB (l=3), against
# 20.11 and 40.81 MiB when every triangle was sampled
@pytest.mark.parametrize("degree, bound_mib", [(1, 6.0), (3, 12.0)])
def test_classification_memory_peak(degree, bound_mib):
    mesh = build_background_mesh(UNIT_BOX, (160, 160))
    field = interpolate_levelset(shifted_disk((0.0, 0.0), CIRCLE_RADIUS).phi,
                                 mesh, degree)
    tracemalloc.start()
    try:
        classify_domain(field)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound_mib * 2 ** 20


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
