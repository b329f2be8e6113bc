"""Tests for error norms, convergence orders and reference comparisons.

The affine level set with a polynomial solution is reproduced exactly by
the method at every degree, so the whole evaluation and error pipeline
must return errors at roundoff level for it.
"""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from phifem import analysis
from phifem.analysis import (ErrorReport, ProductSolution, compute_errors,
                             compute_errors_vs_reference, estimated_orders,
                             make_solution)
from phifem.assembly import assemble_system
from phifem.cases import get_case
from phifem.fem_core import (build_dof_map, physical_points,
                             quadrature_degrees, shape_maps, tabulate,
                             triangle_quadrature)
from phifem.levelset import AnalyticField, classify_domain, \
    interpolate_levelset
from phifem.linalg import solve
from phifem.mesh import build_background_mesh, locate_points


def _solve_case(name, n, k, sigma=20.0):
    case = get_case(name)
    mesh = build_background_mesh(case.box, (n, n))
    field = interpolate_levelset(case.phi, mesh, k)
    domain = classify_domain(field)
    system = assemble_system(domain, field, case.f, k, sigma,
                             outer_data=case.outer_data)
    report = solve(system)
    return case, domain, system, make_solution(system, field, report.x)


def test_polynomial_solution_has_roundoff_errors():
    case, domain, system, sol = _solve_case("planted", 8, 1)
    err = compute_errors([sol], case.u_exact, domain)[0]
    assert err.rel_l2 <= 1e-10
    assert err.rel_h1_semi <= 1e-9
    assert err.h == system.dofmap.mesh.h
    assert err.n_dofs == system.n_dofs


@settings(max_examples=30, derandomize=True, deadline=None)
@given(theta=st.floats(0.0, 2.0 * np.pi),
       point=st.tuples(st.floats(0.3, 0.7), st.floats(0.3, 0.7)),
       n=st.integers(4, 12), k=st.integers(1, 3))
def test_random_affine_planted_case_is_exact(theta, point, n, k):
    # phi = cos(theta) x + sin(theta) y - c through a point of [0.3, 0.7]^2
    # and w = 1 + x + y: u = phi w lies in every trial space, wherever the
    # line slices the grid, so the errors stay at roundoff.
    cos, sin = np.cos(theta), np.sin(theta)
    c = cos * point[0] + sin * point[1]

    def phi(x, y):
        return cos * x + sin * y - c

    def w(x, y):
        return 1.0 + x + y

    u_exact = AnalyticField(
        value=lambda x, y: phi(x, y) * w(x, y),
        gradient=lambda x, y: (cos * w(x, y) + phi(x, y),
                               sin * w(x, y) + phi(x, y)))
    f = AnalyticField(
        value=lambda x, y: np.full_like(x, -2.0 * (cos + sin)))
    mesh = build_background_mesh((0.0, 0.0, 1.0, 1.0), (n, n))
    field = interpolate_levelset(AnalyticField(value=phi), mesh, k)
    domain = classify_domain(field)
    system = assemble_system(domain, field, f, k, 20.0,
                             outer_data=AnalyticField(value=w))
    sol = make_solution(system, field, solve(system).x)
    err = compute_errors([sol], u_exact, domain)[0]
    assert err.rel_l2 <= 1e-9
    assert err.rel_h1_semi <= 1e-8


@settings(max_examples=20, derandomize=True, deadline=None)
@given(k=st.integers(1, 3), count=st.integers(2, 5),
       seed=st.integers(0, 2 ** 32 - 1))
def test_batched_errors_equal_single_calls(k, count, seed):
    # one pass over several solutions on one dof map must give each the
    # report a call of its own gives, to the bit
    case = get_case("circle")
    mesh = build_background_mesh(case.box, (8, 8))
    field = interpolate_levelset(case.phi, mesh, k)
    domain = classify_domain(field)
    dofmap = build_dof_map(mesh, domain.active_triangles, k)
    rng = np.random.default_rng(seed)
    sols = [ProductSolution(field, dofmap, rng.standard_normal(dofmap.n_dofs))
            for _ in range(count)]
    batched = compute_errors(sols, case.u_exact, domain)
    assert batched == [compute_errors([s], case.u_exact, domain)[0]
                       for s in sols]

    other = build_dof_map(mesh, domain.active_triangles, k % 3 + 1)
    mixed = [sols[0], ProductSolution(field, other,
                                      rng.standard_normal(other.n_dofs))]
    with pytest.raises(ValueError):
        compute_errors(mixed, case.u_exact, domain)
    with pytest.raises(ValueError):
        compute_errors([], case.u_exact, domain)


@settings(max_examples=10, derandomize=True, deadline=None)
@given(k=st.integers(1, 3), count=st.integers(2, 4),
       seed=st.integers(0, 2 ** 32 - 1))
def test_batched_reference_errors_equal_single_calls(k, count, seed):
    # one comparison of several solutions with their references, two
    # levels finer, must give each the report a call of its own gives
    case = get_case("circle")
    rng = np.random.default_rng(seed)
    levels = []
    for n in (6, 24):
        mesh = build_background_mesh(case.box, (n, n))
        field = interpolate_levelset(case.phi, mesh, k)
        domain = classify_domain(field)
        dofmap = build_dof_map(mesh, domain.active_triangles, k)
        levels.append((domain, [
            ProductSolution(field, dofmap, rng.standard_normal(dofmap.n_dofs))
            for _ in range(count)]))
    (domain, sols), (_, refs) = levels
    batched = compute_errors_vs_reference(sols, refs, domain)
    assert batched == [compute_errors_vs_reference([s], [r], domain)[0]
                       for s, r in zip(sols, refs)]
    assert len(set(batched)) == count

    with pytest.raises(ValueError):
        compute_errors_vs_reference(sols, refs[:-1], domain)
    with pytest.raises(ValueError):
        compute_errors_vs_reference([sols[0], refs[0]], refs[:2], domain)
    with pytest.raises(ValueError):
        compute_errors_vs_reference([], [], domain)


def _plain_squares(e, w):
    """The weighted sum of squares of values (nT, Q) or gradients (nT, Q,
    2), written out as np.sum(w * e**2)."""
    return np.sum(w * (e ** 2 if e.ndim == 2 else np.sum(e ** 2, axis=-1)))


@pytest.mark.parametrize("k", [1, 2, 3])
def test_fused_error_sums_match_the_plain_formula(monkeypatch, k):
    # every error sum is one einsum over the points and a dot with the
    # weights; the plain formula sums the same squares in another order,
    # on the closed-form path and on the reference path alike
    case = get_case("circle")
    rng = np.random.default_rng(k)
    levels = []
    for n in (6, 24):
        mesh = build_background_mesh(case.box, (n, n))
        field = interpolate_levelset(case.phi, mesh, k)
        domain = classify_domain(field)
        dofmap = build_dof_map(mesh, domain.active_triangles, k)
        levels.append((domain, [
            ProductSolution(field, dofmap, rng.standard_normal(dofmap.n_dofs))
            for _ in range(2)]))
    (domain, sols), (_, refs) = levels

    def reports():
        return (compute_errors(sols, case.u_exact, domain)
                + compute_errors_vs_reference(sols, refs, domain))

    fused = reports()
    monkeypatch.setattr(analysis, "_squares", _plain_squares)
    for a, b in zip(fused, reports(), strict=True):
        assert a.rel_l2 == pytest.approx(b.rel_l2, rel=1e-14, abs=0)
        assert a.rel_h1_semi == pytest.approx(b.rel_h1_semi, rel=1e-14,
                                              abs=0)


_DATA_EXACTNESS = sorted({quadrature_degrees(k, l)["data"]
                          for k in (1, 2, 3) for l in (1, 2, 3)})


@settings(max_examples=40, derandomize=True, deadline=None)
@given(ratio=st.sampled_from([1, 2, 4]),
       exactness=st.sampled_from(_DATA_EXACTNESS),
       box=st.sampled_from([(0.0, 0.0, 1.0, 1.0), (-0.3, 0.2, 1.1, 0.9)]),
       nx=st.integers(1, 6), ny=st.integers(1, 6))
def test_nested_map_matches_point_location(ratio, exactness, box, nx, ny):
    # every rule point of every coarse triangle lands, by the nested map,
    # in the fine triangle that locating its physical coordinates on the
    # refined mesh finds, at the same barycentric point; the degree-1
    # basis values are the barycentric coordinates
    coarse = build_background_mesh(box, (nx, ny))
    fine = build_background_mesh(box, (ratio * nx, ratio * ny))
    tris = np.arange(coarse.n_triangles)
    pts = physical_points(coarse, tris,
                          triangle_quadrature(exactness).points)
    want_tri, want_bary = locate_points(fine, pts)
    local, tables = analysis._nested_map(ratio, exactness, 1)
    np.testing.assert_array_equal(
        analysis._fine_triangles(tris, nx, ratio, local), want_tri)
    np.testing.assert_allclose(tables[tris % 2, :, :, 0], want_bary,
                               rtol=0, atol=1e-13)


def test_reference_comparison_rejects_meshes_that_do_not_nest():
    # the nested map needs every coarse cell split into the same
    # ratio x ratio block of fine cells on the same box
    case = get_case("circle")
    rng = np.random.default_rng(3)

    def solution(box, n_cells):
        mesh = build_background_mesh(box, n_cells)
        field = interpolate_levelset(case.phi, mesh, 1)
        dofmap = build_dof_map(mesh, classify_domain(field)
                               .active_triangles, 1)
        return field, ProductSolution(field, dofmap,
                                      rng.standard_normal(dofmap.n_dofs))

    field, coarse = solution(case.box, (4, 4))
    domain = classify_domain(field)
    shifted = tuple(x + 0.125 for x in case.box)
    for box, n_cells in ((case.box, (6, 6)),      # no integer ratio
                         (shifted, (8, 8)),       # another box
                         (case.box, (8, 16)),     # two ratios
                         (case.box, (2, 2))):     # coarser
        with pytest.raises(ValueError, match="not nested"):
            compute_errors_vs_reference([coarse], [solution(box, n_cells)[1]],
                                        domain)
    assert compute_errors_vs_reference(
        [coarse], [solution(case.box, (8, 8))[1]], domain)


def test_make_solution_rejects_wrong_size():
    _, _, system, sol = _solve_case("planted", 4, 1)
    with pytest.raises(ValueError):
        make_solution(system, sol.field, np.zeros(system.n_dofs + 1))


def test_compute_errors_requires_gradient():
    case, domain, _, sol = _solve_case("planted", 4, 1)
    no_grad = AnalyticField(value=case.u_exact.value)
    with pytest.raises(ValueError):
        compute_errors([sol], no_grad, domain)


def test_compute_errors_rejects_vanishing_exact():
    _, domain, _, sol = _solve_case("planted", 4, 1)
    zero = AnalyticField(
        value=lambda x, y: np.zeros_like(x),
        gradient=lambda x, y: (np.zeros_like(x), np.zeros_like(x)))
    with pytest.raises(ValueError):
        compute_errors([sol], zero, domain)


def test_reference_comparison_against_self_is_zero():
    _, domain, _, sol = _solve_case("circle", 8, 1)
    err = compute_errors_vs_reference([sol], [sol], domain)[0]
    assert err.rel_l2 <= 1e-13
    assert err.rel_h1_semi <= 1e-13


def test_reference_comparison_exact_case():
    # Both solves reproduce the polynomial solution exactly, so comparing
    # the coarse one against the finer one exercises point location and
    # the cut-triangle exclusion without any discretization error.
    _, domain, _, coarse = _solve_case("planted", 8, 1)
    _, _, _, fine = _solve_case("planted", 32, 1)
    err = compute_errors_vs_reference([coarse], [fine], domain)[0]
    assert err.rel_l2 <= 1e-9
    assert err.rel_h1_semi <= 1e-8


def _located_fields(solution, pts):
    """u = phi w and its gradient at physical points (P, 2), each point
    located on the solution's mesh and its basis tabulated there: no
    nested map and no shared rule table."""
    field, dofmap = solution.field, solution.dofmap
    tri, bary = locate_points(field.mesh, pts)
    inv = shape_maps(field.mesh.cell_size)[2][tri % 2]
    fields = []
    for degree, coef in ((field.degree, field.cell_coefficients(tri)),
                         (dofmap.degree, solution.coefficients[
                             dofmap.cell_dofs[dofmap.rows_for(tri)]])):
        values, grads, _ = tabulate(degree, bary)
        fields.append((np.einsum("pj,pj->p", coef, values),
                       np.einsum("pj,pjd,pde->pe", coef, grads, inv)))
    (phi, dphi), (w, dw) = fields
    return phi * w, w[:, None] * dphi + phi[:, None] * dw


@pytest.mark.parametrize("k", [1, 2])
def test_reference_errors_agree_with_the_closed_form(k):
    # Each circle level n = 10, 20, 40 (sigma = 20, l = k) is compared with
    # its solve at 4n, and the same coarse triangles are measured against
    # the exact u.  On those triangles, in the discrete norms of the data
    # rule, write e_c = u - u_c, e_f = u - u_f, A = |u|.  The comparison
    # reports |e_c - e_f| / |u - e_f|, the closed form |e_c| / A, and the
    # triangle inequality puts their ratio in
    #   [(1 - rho) / (1 + delta), (1 + rho) / (1 - delta)],
    # rho = |e_f| / |e_c| and delta = |e_f| / A, the reference's own
    # error.  At the optimal rates the reference two levels finer holds
    # about 4^-(k+1) of the coarse L2 error and 4^-k of the H1 error;
    # measured, rho reads at most 0.91 of those shares (k=2, n=40; k=1,
    # whose polygonal zero set adds geometry error, 0.66), so they bound
    # rho too.  Measured ratios: 0.963-1.005 (k=1), 0.990-1.000 (k=2).
    case = get_case("circle")
    levels = {n: _solve_case("circle", n, k) for n in (10, 20, 40, 80, 160)}
    quad = triangle_quadrature(quadrature_degrees(k, k)["data"])

    def exact(pts):
        x, y = pts[..., 0], pts[..., 1]
        return (case.u_exact.value(x, y),
                np.stack(case.u_exact.gradient(x, y), axis=-1))

    for n in (10, 20, 40):
        _, domain, _, coarse = levels[n]
        fine = levels[4 * n][3]
        mesh = coarse.field.mesh
        # uncut active triangles whose rule points all lie where the
        # reference is defined, found by point location
        interior = np.setdiff1d(domain.active_triangles,
                                domain.cut_triangles)
        fine_tri, _ = locate_points(fine.field.mesh, physical_points(
            mesh, interior, quad.points))
        kept = interior[np.isin(fine_tri, fine.dofmap.triangles).all(1)]
        pts = physical_points(mesh, kept, quad.points).reshape(-1, 2)
        weights = np.tile(shape_maps(mesh.cell_size)[1] * quad.weights,
                          len(kept))

        def norm(v):
            return np.sqrt(np.sum(weights * v.reshape(len(weights), -1).T
                                  ** 2))

        reported, = compute_errors_vs_reference([coarse], [fine], domain)
        closed, = analysis._relative_errors(
            [coarse], kept, lambda tris, p: tuple(f[None] for f in exact(p)),
            "exact solution vanishes")
        fields = [exact(pts), _located_fields(fine, pts),
                  _located_fields(coarse, pts)]
        for j, share in ((0, 4.0 ** -(k + 1)), (1, 4.0 ** -k)):
            u, uf, uc = (f[j] for f in fields)
            vs_ref = (reported.rel_l2, reported.rel_h1_semi)[j]
            vs_exact = (closed.rel_l2, closed.rel_h1_semi)[j]
            # the comparison itself, from point location
            assert vs_ref == pytest.approx(norm(uf - uc) / norm(uf), rel=1e-11)
            delta = norm(u - uf) / norm(u)
            rho = delta / vs_exact
            assert rho <= share
            assert (1 - rho) / (1 + delta) <= vs_ref / vs_exact \
                <= (1 + rho) / (1 - delta)


def test_estimated_orders_hand_values():
    reports = [
        ErrorReport(h=0.4, n_dofs=10, rel_l2=0.16, rel_h1_semi=0.4),
        ErrorReport(h=0.2, n_dofs=30, rel_l2=0.04, rel_h1_semi=0.2),
        ErrorReport(h=0.1, n_dofs=110, rel_l2=0.01, rel_h1_semi=0.1),
    ]
    orders = estimated_orders(reports)
    assert len(orders) == 2
    for l2_order, h1_order in orders:
        assert l2_order == pytest.approx(2.0, abs=1e-12)
        assert h1_order == pytest.approx(1.0, abs=1e-12)


def test_estimated_orders_rejects_non_halving():
    reports = [
        ErrorReport(h=0.4, n_dofs=10, rel_l2=0.1, rel_h1_semi=0.2),
        ErrorReport(h=0.15, n_dofs=30, rel_l2=0.05, rel_h1_semi=0.1),
    ]
    with pytest.raises(ValueError):
        estimated_orders(reports)


def test_estimated_orders_needs_two_reports():
    with pytest.raises(ValueError):
        estimated_orders([ErrorReport(h=0.4, n_dofs=10, rel_l2=0.1,
                                      rel_h1_semi=0.2)])


def test_estimated_orders_rejects_zero_error():
    reports = [
        ErrorReport(h=0.4, n_dofs=10, rel_l2=0.1, rel_h1_semi=0.2),
        ErrorReport(h=0.2, n_dofs=30, rel_l2=0.0, rel_h1_semi=0.1),
    ]
    with pytest.raises(ValueError):
        estimated_orders(reports)
