"""Tests for the Lagrange basis, quadrature rules and dof numbering."""
import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from phifem import analysis, levelset
from phifem.fem_core import (QUAD_DEGREE_CAP, _gauss_jacobi,
                             _lattice_multi_indices, build_dof_map,
                             edge_quadrature, eval_shapes, facet_tables,
                             group_matmul, physical_tables, product_rule,
                             rule_tables, shape_maps,
                             quadrature_degrees, tabulate,
                             triangle_quadrature)
from phifem.mesh import build_background_mesh

UNIT = (0.0, 0.0, 1.0, 1.0)


def random_bary(rng, n):
    """Strictly interior barycentric points."""
    q = rng.dirichlet([2.0, 2.0, 2.0], size=n)
    return q


def nodes(degree):
    """Barycentric coordinates of the degree-`degree` Lagrange nodes."""
    return _lattice_multi_indices(degree) / degree


def test_basis_sizes():
    point = np.array([[1.0, 0.0, 0.0]])
    for degree, n in ((1, 3), (2, 6), (3, 10)):
        values, grads, hess = tabulate(degree, point)
        assert (values.shape, grads.shape, hess.shape) == \
            ((1, n), (1, n, 2), (1, n, 2, 2))


def test_kronecker_property():
    for degree in (1, 2, 3):
        values, _, _ = tabulate(degree, nodes(degree))
        # each factor of the closed form is exactly 0 or a ratio of small
        # integers at a node, so the identity comes out exact
        np.testing.assert_array_equal(values, np.eye(len(values)))


def _exact_basis(degree, alpha, lam):
    """Value and reference gradient of the basis function of node alpha at
    the barycentric point lam, in exact rational arithmetic on the given
    floats: the product of (degree lam_i - j) / (j + 1) over i, j < alpha_i.
    """
    lam_grads = [(-1, -1), (1, 0), (0, 1)]
    value, grad = Fraction(1), [Fraction(0), Fraction(0)]
    for i, a in enumerate(alpha):
        for j in range(a):
            factor = (degree * Fraction(float(lam[i])) - j) / (j + 1)
            dfactor = [Fraction(degree * d, j + 1) for d in lam_grads[i]]
            grad = [g * factor + value * d for g, d in zip(grad, dfactor)]
            value *= factor
    return float(value), [float(g) for g in grad]


@pytest.mark.parametrize("degree", [1, 2, 3])
def test_tabulate_matches_exact_rational_evaluation(degree):
    # the closed form leaves only the rounding of a few products: values
    # within 1e-15 and gradients within 4e-15 of the exact ones, at the
    # points of the finest triangle rule and at random points
    alphas = _lattice_multi_indices(degree)
    rng = np.random.default_rng(20261019)
    pts = np.vstack([triangle_quadrature(QUAD_DEGREE_CAP).points,
                     random_bary(rng, 30)])
    values, grads, _ = tabulate(degree, pts)
    exact = [[_exact_basis(degree, alpha, q) for alpha in alphas]
             for q in pts]
    np.testing.assert_allclose(values, [[v for v, _ in row] for row in exact],
                               rtol=0, atol=1e-15)
    np.testing.assert_allclose(grads, [[g for _, g in row] for row in exact],
                               rtol=0, atol=4e-15)


def test_partition_of_unity():
    rng = np.random.default_rng(20240905)
    pts = random_bary(rng, 50)
    for degree in (1, 2, 3):
        values, grads, hess = tabulate(degree, pts)
        np.testing.assert_allclose(values.sum(axis=1), 1.0, atol=1e-13)
        # constants have zero derivatives of every order
        np.testing.assert_allclose(grads.sum(axis=1), 0.0, atol=1e-12)
        np.testing.assert_allclose(hess.sum(axis=1), 0.0, atol=1e-11)


def test_tabulate_reproduces_polynomial():
    # interpolate x^2 y + 3 x with P3 and evaluate it elsewhere exactly
    def f(x, y):
        return x ** 2 * y + 3.0 * x

    nodal = f(nodes(3)[:, 1], nodes(3)[:, 2])
    rng = np.random.default_rng(20240906)
    pts = random_bary(rng, 20)
    values, grads, _ = tabulate(3, pts)
    x, y = pts[:, 1], pts[:, 2]
    np.testing.assert_allclose(values @ nodal, f(x, y), atol=1e-13)
    np.testing.assert_allclose(grads[:, :, 0] @ nodal, 2.0 * x * y + 3.0,
                               atol=1e-12)
    np.testing.assert_allclose(grads[:, :, 1] @ nodal, x ** 2, atol=1e-12)


def test_tabulate_quadratic_hessian():
    nodal = nodes(2)[:, 1] * nodes(2)[:, 2]   # f = x y
    rng = np.random.default_rng(20240907)
    _, _, hess = tabulate(2, random_bary(rng, 10))
    h = np.einsum("qnab,n->qab", hess, nodal)
    expected = np.broadcast_to(np.array([[0.0, 1.0], [1.0, 0.0]]), h.shape)
    np.testing.assert_allclose(h, expected, atol=1e-12)


def test_reference_element_rejects_degree():
    for bad in (0, 4, -1):
        with pytest.raises(ValueError):
            tabulate(bad, np.array([[1.0, 0.0, 0.0]]))


def exact_triangle_monomial(p, q):
    # int_T x^p y^q over the unit reference triangle
    return (math.factorial(p) * math.factorial(q)
            / math.factorial(p + q + 2))


def test_triangle_quadrature_monomial_exactness():
    for exactness in range(QUAD_DEGREE_CAP + 1):
        rule = triangle_quadrature(exactness)
        x, y = rule.points[:, 1], rule.points[:, 2]
        for p in range(exactness + 1):
            for q in range(exactness + 1 - p):
                got = np.sum(rule.weights * x ** p * y ** q)
                want = exact_triangle_monomial(p, q)
                assert abs(got - want) <= 1e-12 * want


def test_triangle_quadrature_top_degree_pair():
    # int x^6 y^6 = 6! 6! / 14! at the cap
    rule = triangle_quadrature(12)
    x, y = rule.points[:, 1], rule.points[:, 2]
    got = np.sum(rule.weights * x ** 6 * y ** 6)
    want = exact_triangle_monomial(6, 6)
    assert got == pytest.approx(want, rel=1e-12)


def test_triangle_quadrature_weights_positive_interior():
    for exactness in (0, 3, 8, 12):
        rule = triangle_quadrature(exactness)
        assert (rule.weights > 0.0).all()
        assert rule.weights.sum() == pytest.approx(0.5, rel=1e-14)
        assert (rule.points > 0.0).all() and (rule.points < 1.0).all()
        np.testing.assert_allclose(rule.points.sum(axis=1), 1.0, atol=1e-14)


def test_edge_quadrature_exactness():
    for exactness in range(QUAD_DEGREE_CAP + 1):
        rule = edge_quadrature(exactness)
        s = rule.points[:, 1]
        for p in range(exactness + 1):
            got = np.sum(rule.weights * s ** p)
            assert got == pytest.approx(1.0 / (p + 1), rel=1e-13)
    # spot value: int t^6 dt = 1/7
    rule = edge_quadrature(6)
    got = np.sum(rule.weights * rule.points[:, 1] ** 6)
    assert got == pytest.approx(1.0 / 7.0, rel=1e-14)


def test_gauss_rules_match_scipy_special():
    # scipy.special is the oracle only: the package builds its rules by
    # Golub-Welsch (measured at most 1.9e-15 off, n = 1..7)
    from scipy.special import roots_jacobi, roots_legendre
    for n in range(1, 8):
        for a, (x_ref, w_ref) in ((0, roots_legendre(n)),
                                  (1, roots_jacobi(n, 1.0, 0.0))):
            x, w = _gauss_jacobi(n, a)
            np.testing.assert_allclose(x, x_ref, rtol=0.0, atol=4e-15)
            np.testing.assert_allclose(w, w_ref, rtol=0.0, atol=4e-15)


def test_quadrature_rejects_out_of_range():
    with pytest.raises(ValueError):
        triangle_quadrature(-1)
    with pytest.raises(ValueError):
        triangle_quadrature(QUAD_DEGREE_CAP + 1)
    with pytest.raises(ValueError):
        edge_quadrature(QUAD_DEGREE_CAP + 2)


def test_quadrature_degree_policy():
    assert quadrature_degrees(1, 1) == {
        "volume": 4, "ghost_facet": 2, "boundary_facet": 4, "data": 6}
    assert quadrature_degrees(2, 2) == {
        "volume": 8, "ghost_facet": 6, "boundary_facet": 8, "data": 10}
    # data degree is clamped at the cap for the largest degree pair
    assert quadrature_degrees(3, 3) == {
        "volume": 12, "ghost_facet": 10, "boundary_facet": 12, "data": 12}


def test_dof_counts_full_mesh():
    mesh = build_background_mesh(UNIT, (2, 2))
    tris = np.arange(mesh.n_triangles)
    assert build_dof_map(mesh, tris, 1).n_dofs == 9
    assert build_dof_map(mesh, tris, 2).n_dofs == 25
    assert build_dof_map(mesh, tris, 3).n_dofs == 49


def test_dof_counts_submesh():
    mesh = build_background_mesh(UNIT, (2, 2))
    # right column of cells: 4 triangles sharing the x=0.5 edge
    right = np.array([2, 3, 6, 7])
    assert build_dof_map(mesh, right, 1).n_dofs == 6
    assert build_dof_map(mesh, right, 2).n_dofs == 15


def test_dof_numbering_deterministic_and_shared():
    mesh = build_background_mesh(UNIT, (3, 3))
    tris = np.arange(mesh.n_triangles)
    dm = build_dof_map(mesh, tris, 2)
    # numbering must not depend on triangle visit order
    dm_rev = build_dof_map(mesh, tris[::-1], 2)
    np.testing.assert_array_equal(dm.cell_dofs, dm_rev.cell_dofs)
    np.testing.assert_allclose(dm.node_coords, dm_rev.node_coords)
    # every interior facet shares degree+1 nodes between its two triangles
    interior = np.nonzero(mesh.facet_triangles[:, 1] >= 0)[0]
    ft = mesh.facet_triangles[interior]
    for (t0, t1) in ft:
        common = np.intersect1d(dm.cell_dofs[dm.rows_for(np.array([t0]))[0]],
                                dm.cell_dofs[dm.rows_for(np.array([t1]))[0]])
        assert len(common) == 3


def test_dof_coords_match_keys():
    mesh = build_background_mesh((1.0, -1.0, 2.0, 1.0), (2, 4))
    tris = np.arange(mesh.n_triangles)
    dm = build_dof_map(mesh, tris, 3)
    dx, dy = mesh.cell_size
    rebuilt = np.column_stack([1.0 + dm.node_keys[:, 0] * dx / 3.0,
                               -1.0 + dm.node_keys[:, 1] * dy / 3.0])
    np.testing.assert_allclose(dm.node_coords, rebuilt, atol=1e-14)
    # keys are unique and lexicographically sorted
    assert len(np.unique(dm.node_keys, axis=0)) == dm.n_dofs


def test_dof_numbering_is_x_first_key_order_on_non_square_grid():
    mesh = build_background_mesh(UNIT, (2, 3))
    for degree in (1, 2, 3):
        dm = build_dof_map(mesh, np.arange(mesh.n_triangles), degree)
        expected = [(x, y) for x in range(2 * degree + 1)
                    for y in range(3 * degree + 1)]
        np.testing.assert_array_equal(dm.node_keys, expected)
        # every local node maps to the global node with its own key
        multi = _lattice_multi_indices(degree)
        vkeys = mesh.vertex_lattice[mesh.triangles]
        keys = np.einsum("la,tad->tld", multi, vkeys)
        np.testing.assert_array_equal(dm.node_keys[dm.cell_dofs], keys)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(nx=st.integers(1, 6), ny=st.integers(1, 6), degree=st.integers(1, 3),
       full=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_dof_ids_equal_sorted_key_numbering(nx, ny, degree, full, seed):
    # the ids must be those of sorting the node keys, x index first: the
    # numbering np.unique gives, on a full cover and on random subsets
    mesh = build_background_mesh((-0.3, 0.2, 1.1, 0.9), (nx, ny))
    tris = np.arange(mesh.n_triangles)
    if not full:
        rng = np.random.default_rng(seed)
        tris = rng.choice(tris, rng.integers(1, tris.size + 1),
                          replace=False)
    dm = build_dof_map(mesh, tris, degree)
    multi = _lattice_multi_indices(degree)
    keys = np.einsum("la,tad->tld", multi,
                     mesh.vertex_lattice[mesh.triangles[dm.triangles]])
    uniq, inverse = np.unique(keys.reshape(-1, 2), axis=0,
                              return_inverse=True)
    np.testing.assert_array_equal(dm.node_keys, uniq)
    np.testing.assert_array_equal(dm.cell_dofs,
                                  inverse.reshape(keys.shape[:2]))
    assert dm.cell_dofs.dtype == np.int64


def test_nodal_interpolation_reproduces_polynomial():
    mesh = build_background_mesh(UNIT, (3, 3))
    tris = np.arange(mesh.n_triangles)
    rng = np.random.default_rng(20240908)
    for degree in (1, 2, 3):
        dm = build_dof_map(mesh, tris, degree)

        def f(x, y):
            return (x + 0.5 * y) ** degree

        coeffs = f(dm.node_coords[:, 0], dm.node_coords[:, 1])
        pts = rng.dirichlet([1.5, 1.5, 1.5], size=8)
        values, _, _ = tabulate(degree, pts)
        for t in rng.choice(tris, 5, replace=False):
            row = dm.rows_for(np.array([t]))[0]
            local = coeffs[dm.cell_dofs[row]]
            phys = pts @ mesh.vertices[mesh.triangles[t]]
            np.testing.assert_allclose(values @ local,
                                       f(phys[:, 0], phys[:, 1]), atol=1e-12)


def test_rows_for_rejects_uncovered_triangle():
    mesh = build_background_mesh(UNIT, (2, 2))
    dm = build_dof_map(mesh, np.array([0, 1]), 1)
    with pytest.raises(ValueError):
        dm.rows_for(np.array([5]))


def _assert_close(got, want, rel):
    np.testing.assert_allclose(got, want, rtol=0,
                               atol=rel * np.abs(want).max())


def _one_point(coef, degree, inv, bary):
    """Value, physical gradient (2,) and physical Hessian inv.T H_ref inv
    (2, 2) of one Lagrange field at one point of one triangle: coef (m,)
    its nodal values, inv (2, 2) its shape's inverse Jacobian and bary
    (3,) the point."""
    values, grads, hess = tabulate(degree, np.reshape(bary, (1, 3)))
    return (coef @ values[0], (coef @ grads[0]) @ inv,
            inv.T @ np.tensordot(coef, hess[0], 1) @ inv)


@settings(max_examples=30, derandomize=True, deadline=None)
@given(k=st.integers(1, 3), l=st.integers(1, 3), n_points=st.integers(1, 7),
       seed=st.integers(0, 2**32 - 1))
def test_evaluator_point_shapes_agree(k, l, n_points, seed):
    # The per-shape tables, one GEMM per shape, give on every triangle
    # the fields a one-point evaluation gives at each point, and their
    # Laplacians, which assembly uses, are the traces of its Hessians.
    # The cells are not square, so the two triangle shapes have
    # different inverse Jacobians.
    rng = np.random.default_rng(seed)
    mesh = build_background_mesh((-0.3, 0.2, 1.1, 0.9), (3, 2))
    tris = np.arange(mesh.n_triangles)
    inv = shape_maps(mesh.cell_size)[2]
    bary = random_bary(rng, n_points)
    for degree in (k, l):
        tables = tabulate(degree, bary)
        c = rng.standard_normal((tris.size, tables[0].shape[1]))
        grads, laps = physical_tables(tables, inv)
        one = [[_one_point(c[t], degree, inv[t % 2], point)
                for point in bary] for t in tris]
        want = [np.array([[field[i] for field in row] for row in one])
                for i in range(3)]
        for got, w in zip(eval_shapes(c, tris % 2, tables[0], grads), want):
            _assert_close(got, w, 1e-13)
        _assert_close(np.einsum("tqm,tm->tq", laps[tris % 2], c),
                      want[2][..., 0, 0] + want[2][..., 1, 1], 1e-13)
        _assert_close(want[2], want[2].swapaxes(-1, -2), 1e-15)


def test_group_matmul_rows():
    # group ids out of order, and group 1 empty, as in a chunk of
    # triangles of one shape
    rng = np.random.default_rng(7)
    tables = rng.standard_normal((3, 4, 5))
    coef = rng.standard_normal((6, 4))
    group = np.array([2, 0, 2, 2, 0, 2])
    out = group_matmul(coef, group, tables)
    assert out.shape == (6, 5)
    for e in range(len(coef)):
        _assert_close(out[e], coef[e] @ tables[group[e]], 1e-14)


@pytest.mark.parametrize("degree", [1, 2, 3])
def test_cached_builders_hand_out_read_only_arrays(degree):
    # every call of a cached builder shares its arrays, so none may be
    # written through
    built = [triangle_quadrature(2 * degree),
             edge_quadrature(2 * degree), rule_tables(degree, 2 * degree),
             facet_tables(degree, 2 * degree), levelset._sign_lattice(degree),
             analysis._nested_map(2, 2 * degree, degree)]
    arrays = []
    for result in built:
        if isinstance(result, np.ndarray):
            result = (result,)
        elif dataclasses.is_dataclass(result):
            result = [getattr(result, f.name)
                      for f in dataclasses.fields(result)]
        arrays += [a for a in result if isinstance(a, np.ndarray)]
    assert len(arrays) == 2 + 2 + 3 + 2 + 1 + 2
    for arr in arrays:
        with pytest.raises(ValueError):
            arr[...] = arr


# phi = x^2 - y + 0.3 and w = xy + y^2, with their product
# u = x^3 y + x^2 y^2 - x y^2 - y^3 + 0.3 x y + 0.3 y^2 expanded by hand
def _phi(x, y):
    return x * x - y + 0.3, np.stack([2.0 * x, -np.ones_like(x)], -1), \
        np.full_like(x, 2.0)


def _w(x, y):
    return x * y + y * y, np.stack([y, x + 2.0 * y], -1), np.full_like(x, 2.0)


def _u(x, y):
    value = (x ** 3 * y + x * x * y * y - x * y * y - y ** 3 + 0.3 * x * y
             + 0.3 * y * y)
    grad = np.stack([3.0 * x * x * y + 2.0 * x * y * y - y * y + 0.3 * y,
                     x ** 3 + 2.0 * x * x * y - 2.0 * x * y - 3.0 * y * y
                     + 0.3 * x + 0.6 * y], -1)
    lap = 6.0 * x * y + 2.0 * y * y + 2.0 * x * x - 2.0 * x - 6.0 * y + 0.6
    return value, grad, lap


_POINTS = (np.array([0.0, 0.3, -0.7, 1.2, 0.45]),
           np.array([0.0, -0.4, 0.9, 0.25, 1.1]))


def test_product_rule_on_contracted_fields():
    # the layout of the error pass: phi and w contracted at the points,
    # several w stacked on a leading axis, gradients or one normal
    # derivative as the derivative columns
    pv, pg, plap = _phi(*_POINTS)
    wv, wg, wlap = _w(*_POINTS)
    uv, ug, ulap = _u(*_POINTS)
    value, grad, lap = product_rule(pv, pg, np.stack([wv, 3.0 * wv]),
                                    np.stack([wg, 3.0 * wg]), plap,
                                    np.stack([wlap, 3.0 * wlap]))
    for got, want in ((value, uv), (grad, ug), (lap, ulap)):
        np.testing.assert_allclose(got, [want, 3.0 * want], rtol=1e-13,
                                   atol=1e-14)
    normal = np.array([0.6, 0.8])
    value, dn, lap = product_rule(pv, pg @ normal[:, None], wv,
                                  wg @ normal[:, None])
    np.testing.assert_allclose(value, uv, rtol=1e-13, atol=1e-14)
    np.testing.assert_allclose(dn[..., 0], ug @ normal, rtol=1e-13,
                               atol=1e-14)
    assert lap is None
    assert product_rule(pv, pg, wv, wg, plap=plap)[2] is None


def test_product_rule_on_basis_pairs():
    # the layout of assembly: phi-side functions (phi, 1) on a (P, m, 1)
    # axis and w-side functions (w, 1) on a (P, 1, n) axis give all four
    # products phi w, phi, w and 1 in one call
    x, y = _POINTS
    one = (np.ones_like(x), np.zeros(x.shape + (2,)), np.zeros_like(x))
    left = [np.stack(parts, axis=1) for parts in zip(_phi(x, y), one)]
    right = [np.stack(parts, axis=1) for parts in zip(_w(x, y), one)]
    value, grad, lap = product_rule(
        left[0][:, :, None], left[1][:, :, None, :],
        right[0][:, None, :], right[1][:, None, :, :],
        left[2][:, :, None], right[2][:, None, :])
    assert value.shape == lap.shape == (x.size, 2, 2)
    assert grad.shape == (x.size, 2, 2, 2)
    expected = [[_u(x, y), _phi(x, y)], [_w(x, y), one]]
    for a in range(2):
        for i in range(2):
            for got, want in zip((value, grad, lap), expected[a][i]):
                np.testing.assert_allclose(got[:, a, i], want, rtol=1e-13,
                                           atol=1e-14)
    assert product_rule(left[0][:, :, None], left[1][:, :, None, :],
                        right[0][:, None, :], right[1][:, None, :, :])[2] \
        is None
