"""Tests for the deterministic solver and conditioning estimator.

Small hand-built systems pin down the sparse LU path exactly; a
tridiagonal system above the direct limit exercises the preconditioned
Krylov path with a known solution.  Condition numbers are cross-checked
against the dense SVD on an assembled system and against a closed form
above the direct limit.
"""
import numpy as np
import pytest
import scipy.sparse as sp

from phifem.assembly import SparseSystem, assemble_system
from phifem.cases import get_case
from phifem.levelset import classify_domain, interpolate_levelset
from phifem.linalg import (DIRECT_LIMIT, NoConvergenceError,
                           SingularMatrixError, estimate_condition_number,
                           solve)
from phifem.mesh import build_background_mesh


def _system(a, b):
    """Wrap a plain matrix as a solvable system; solver ignores the rest."""
    return SparseSystem(A=sp.csr_matrix(a), b=np.asarray(b, dtype=float),
                        sigma=0.0, h=1.0, dofmap=None, degree=1,
                        levelset_degree=1)


def _assembled(n, k=1, sigma=20.0):
    case = get_case("circle")
    mesh = build_background_mesh(case.box, (n, n))
    field = interpolate_levelset(case.phi, mesh, k)
    domain = classify_domain(field, mesh)
    return assemble_system(domain, field, case.f, k, sigma)


def test_solve_identity():
    report = solve(_system(np.eye(3), [1.0, 2.0, 3.0]))
    np.testing.assert_array_equal(report.x, [1.0, 2.0, 3.0])
    assert report.method == "sparse-lu"
    assert report.residual <= 1e-15


def test_solve_small_spd():
    report = solve(_system([[2.0, 1.0], [1.0, 2.0]], [3.0, 3.0]))
    np.testing.assert_allclose(report.x, [1.0, 1.0], rtol=0, atol=1e-14)


def test_solve_zero_rhs_is_trivial():
    report = solve(_system(np.eye(4), np.zeros(4)))
    np.testing.assert_array_equal(report.x, np.zeros(4))
    assert report.method == "trivial"
    assert report.iterations == 0


@pytest.mark.parametrize("tol", [0.0, -1e-9, 1e-5, 1.0])
def test_solve_rejects_bad_tolerance(tol):
    with pytest.raises(ValueError):
        solve(_system(np.eye(2), [1.0, 1.0]), tol)


def test_solve_accepts_boundary_tolerance():
    report = solve(_system(np.eye(2), [1.0, 1.0]), 1e-6)
    np.testing.assert_array_equal(report.x, [1.0, 1.0])


@pytest.mark.filterwarnings("ignore")
def test_singular_matrix_raises():
    bad = _system([[1.0, 0.0], [0.0, 0.0]], [1.0, 1.0])
    with pytest.raises(SingularMatrixError):
        solve(bad)
    with pytest.raises(SingularMatrixError):
        estimate_condition_number(bad)


def test_krylov_path_above_direct_limit():
    # 1D Laplacian large enough to take the ILU-GMRES branch; the exact
    # solution of A x = A 1 is all ones, recovered to far better than the
    # conditioning-degraded worst case.
    n = DIRECT_LIMIT + 1000
    main = np.full(n, 2.0)
    off = np.full(n - 1, -1.0)
    a = sp.diags([off, main, off], [-1, 0, 1], format="csr")
    b = a @ np.ones(n)
    report = solve(_system(a, b))
    assert report.method == "ilu-gmres"
    assert report.residual <= 1e-11
    assert np.abs(report.x - 1.0).max() <= 1e-6


def test_condition_number_of_identity():
    est = estimate_condition_number(_system(np.eye(30), np.ones(30)))
    assert est.kappa == 1.0
    assert est.sigma_max == 1.0 and est.sigma_min == 1.0


def test_condition_number_of_diagonal():
    est = estimate_condition_number(_system(np.diag([1.0, 10.0]),
                                            np.ones(2)))
    assert abs(est.kappa - 10.0) <= 1e-4


def test_condition_number_above_direct_limit():
    # diagonal with singular values 0.5 ... 1 ... 4, so kappa = 8 exactly,
    # with more unknowns than `solve` factorizes directly
    n = DIRECT_LIMIT + 1000
    diag = np.ones(n)
    diag[0], diag[-1] = 0.5, 4.0
    est = estimate_condition_number(_system(sp.diags(diag), np.ones(n)))
    assert abs(est.kappa - 8.0) <= 1e-6 * 8.0
    assert abs(est.sigma_max - 4.0) <= 1e-6 * 4.0
    assert abs(est.sigma_min - 0.5) <= 1e-6 * 0.5


def test_condition_number_matches_dense_svd():
    system = _assembled(10)
    est = estimate_condition_number(system)
    dense = np.linalg.cond(system.A.toarray(), 2)
    assert abs(est.kappa - dense) / dense <= 0.05


def test_condition_number_deterministic():
    system = _assembled(8)
    first = estimate_condition_number(system)
    second = estimate_condition_number(system)
    assert first.kappa == second.kappa
    assert first.iterations == second.iterations


@pytest.mark.parametrize("tol", [0.0, 1.0, -0.1])
def test_condition_number_rejects_bad_tolerance(tol):
    with pytest.raises(ValueError):
        estimate_condition_number(_system(np.eye(2), np.ones(2)), tol)


def test_condition_number_iteration_cap():
    system = _assembled(8)
    with pytest.raises(NoConvergenceError) as info:
        estimate_condition_number(system, tol=1e-14, max_iters=2)
    assert info.value.best is not None
    assert info.value.best.kappa > 1.0
