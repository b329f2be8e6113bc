"""Tests for the deterministic solver and conditioning estimator.

`solve` is one refinement loop whose correction is a solve with one
sparse LU factor, at every system size.  Small hand-built systems pin
down that corrector exactly, including its pivoting off tiny and zero
diagonals in SuperLU's symmetric mode; the unpenalized and barely
penalized disk systems, on the built-in disk and two of the benchmark's
translations, must match SuperLU's default partial-pivoting factor.  The
backward-error certificate is checked on a 1D Laplacian of a few
thousand unknowns: one whose residual floor lies above the tolerance is
accepted, and one solved with a weakened factor that stalls far above
rounding level still raises.  Condition numbers are cross-checked
against the dense SVD on assembled systems, with and without the
penalty, against closed forms, and on a zero-diagonal permutation; the
phi-FEM kappa is compared with that of a standard FEM on the same grid,
for the built-in disk and for moved and resized ones.
"""
import importlib.util
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from phifem.assembly import SparseSystem, assemble_system
from phifem.cases import get_case
from phifem.levelset import (AnalyticField, classify_domain,
                             interpolate_levelset)
from phifem import linalg
from phifem.linalg import (BACKWARD_ERROR_BOUND, NoConvergenceError,
                           SingularMatrixError, estimate_condition_number,
                           solve)
from phifem.mesh import build_background_mesh

from test_robustness import shifted_disk

_WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _bench_disk_offset(seed):
    """The translation of the disk that the benchmark's disk-convergence
    workload runs at `seed` (the file is loaded by path, never modified)."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  _WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.disk_offset("disk-convergence", seed)


def _system(a, b):
    """Wrap a plain matrix as a solvable system; solver ignores the rest."""
    return SparseSystem(A=sp.csr_matrix(a), b=np.asarray(b, dtype=float),
                        dofmap=None)


def _assembled(n, k=1, sigma=20.0, shift=(0.0, 0.0), case=None):
    """The system of `case`, the circle case by default, with the disk
    translated by `shift`."""
    case = case or get_case("circle")

    def moved(g):
        return AnalyticField(
            value=lambda x, y: g.value(x - shift[0], y - shift[1]))

    mesh = build_background_mesh(case.box, (n, n))
    field = interpolate_levelset(moved(case.phi), mesh, k)
    domain = classify_domain(field)
    return assemble_system(domain, field, moved(case.f), k, sigma)


def _laplacian_1d(n):
    """The 1D Laplacian stencil and the values of sin(pi i / (n + 1))."""
    off = np.full(n - 1, -1.0)
    a = sp.diags([off, np.full(n, 2.0), off], [-1, 0, 1], format="csr")
    return a, np.sin(np.pi * np.arange(1, n + 1) / (n + 1))


def test_solve_identity():
    report = solve(_system(np.eye(3), [1.0, 2.0, 3.0]))
    np.testing.assert_array_equal(report.x, [1.0, 2.0, 3.0])
    assert report.method == "sparse-lu"
    assert report.iterations == 1
    assert report.residual <= 1e-15
    assert report.backward_error == 0.0


def test_solve_small_spd():
    report = solve(_system([[2.0, 1.0], [1.0, 2.0]], [3.0, 3.0]))
    np.testing.assert_allclose(report.x, [1.0, 1.0], rtol=0, atol=1e-14)


def test_solve_zero_rhs_is_trivial():
    report = solve(_system(np.eye(4), np.zeros(4)))
    np.testing.assert_array_equal(report.x, np.zeros(4))
    assert report.method == "trivial"
    assert report.iterations == 0
    assert report.backward_error == 0.0


def test_fixed_tolerances_lie_in_their_ranges():
    # a solve tolerance above 1e-6 would let algebraic error dominate the
    # discretization error norms; Lanczos needs a relative accuracy below
    # 1 and at least one restart
    assert 0.0 < linalg._TOL <= 1e-6
    assert 0.0 < linalg._LANCZOS_TOL < 1.0
    assert linalg._LANCZOS_RESTARTS >= 1


@pytest.mark.filterwarnings("ignore")
def test_singular_matrix_raises():
    bad = _system([[1.0, 0.0], [0.0, 0.0]], [1.0, 1.0])
    with pytest.raises(SingularMatrixError):
        solve(bad)
    with pytest.raises(SingularMatrixError):
        estimate_condition_number(bad)


_CYCLE = np.roll(np.eye(5), 1, axis=1)      # a permutation, zero diagonal


@pytest.mark.parametrize("a, b, x", [
    ([[1e-20, 1.0], [1.0, 1e-20]], [1.0, 2.0], [2.0, 1.0]),
    (_CYCLE, np.arange(1.0, 6.0), _CYCLE.T @ np.arange(1.0, 6.0))])
def test_symmetric_mode_pivots_off_tiny_diagonals(a, b, x):
    # the factor keeps the diagonal as pivot only while it is not tiny
    # against its column, so one solve is exact; a diagonal of 1e-20 kept
    # as pivot gives (2, 0) and needs a second pass
    report = solve(_system(a, b))
    assert report.method == "sparse-lu"
    assert report.iterations == 1
    np.testing.assert_array_equal(report.x, x)


def test_condition_number_of_zero_diagonal_permutation():
    est = estimate_condition_number(_system(_CYCLE, np.ones(5)))
    assert est.kappa == 1.0


@pytest.mark.parametrize("n, method", [(3000, "sparse-lu")])
def test_residual_floor_above_tol_is_accepted(n, method):
    # A x = A u with smooth u: the relative residual of the computed x
    # cannot fall below about 1e-10 in double precision, yet x is a
    # backward-stable answer, a quarter of eps away in the normwise sense
    a, u = _laplacian_1d(n)
    report = solve(_system(a, a @ u))
    assert report.method == method
    assert report.residual > linalg._TOL
    assert report.backward_error <= BACKWARD_ERROR_BOUND
    assert np.abs(report.x - u).max() <= 1e-12


@pytest.mark.parametrize("n, method", [(3000, "sparse-lu")])
def test_stall_above_rounding_level_raises(n, method, monkeypatch):
    # a factor whose solve removes only 30% of the residual stalls on its
    # first pass, with a backward error far above the bound
    real = linalg._lu

    def weakened(a):
        lu = real(a)
        return SimpleNamespace(solve=lambda r: 0.3 * lu.solve(r))

    monkeypatch.setattr(linalg, "_lu", weakened)
    a, u = _laplacian_1d(n)
    b = a @ u
    with pytest.raises(NoConvergenceError) as info:
        solve(_system(a, b))
    assert info.value.residual > 0.5
    assert info.value.iterations >= 1
    np.testing.assert_allclose(info.value.best, 0.3 * u, rtol=0, atol=1e-9)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("k, n", [(1, 40), (2, 20), (3, 10)])
def test_hardest_disk_systems_match_a_partial_pivoting_factor(k, n, seed):
    # without the penalty, or with a tiny one, kappa reaches 1e5 on the
    # built-in disk at these sizes (and up to 3e7 on the translated ones);
    # the symmetric-mode factor still needs at most one refinement pass
    # and agrees with SuperLU's default (COLAMD, partial pivoting) factor
    shift = _bench_disk_offset(seed)
    for sigma in (0.0, 1e-4, 20.0):
        system = _assembled(n, k, sigma, shift)
        report = solve(system)
        assert report.method == "sparse-lu"
        assert report.iterations <= 2
        plain = spla.splu(system.A.tocsc()).solve(system.b)
        assert (np.linalg.norm(report.x - plain)
                <= 1e-10 * np.linalg.norm(plain))


@pytest.mark.parametrize("k", [1, 2, 3])
def test_lu_panel_options_keep_the_default_fill_and_pivots(k):
    # relax=1 and panel_size=4 size SuperLU's supernode panels for these
    # factors; on the disk systems they change neither the ordering, the
    # pivots nor the fill of the factor SuperLU takes by default
    a = _assembled(40, k).A.tocsc()
    options = {key: value for key, value in linalg._LU_OPTIONS.items()
               if key not in ("relax", "panel_size")}
    tuned, default = linalg._lu(a), spla.splu(a, **options)
    assert (tuned.L.nnz + tuned.U.nnz == default.L.nnz + default.U.nnz)
    np.testing.assert_array_equal(tuned.perm_c, default.perm_c)
    np.testing.assert_array_equal(tuned.perm_r, default.perm_r)


def test_condition_number_of_identity():
    est = estimate_condition_number(_system(np.eye(30), np.ones(30)))
    assert est.kappa == 1.0
    assert est.sigma_max == 1.0 and est.sigma_min == 1.0


def test_condition_number_of_diagonal():
    est = estimate_condition_number(_system(np.diag([1.0, 10.0]),
                                            np.ones(2)))
    assert abs(est.kappa - 10.0) <= 1e-4


def test_condition_number_of_large_diagonal():
    # diagonal with singular values 0.5 ... 1 ... 4, so kappa = 8 exactly
    n = 6000
    diag = np.ones(n)
    diag[0], diag[-1] = 0.5, 4.0
    est = estimate_condition_number(_system(sp.diags(diag), np.ones(n)))
    assert abs(est.kappa - 8.0) <= 1e-6 * 8.0
    assert abs(est.sigma_max - 4.0) <= 1e-6 * 4.0
    assert abs(est.sigma_min - 0.5) <= 1e-6 * 0.5


@pytest.mark.parametrize("n", [8, 10])
@pytest.mark.parametrize("sigma", [20.0, 0.0])
def test_condition_number_matches_dense_svd(n, sigma):
    system = _assembled(n, sigma=sigma)
    est = estimate_condition_number(system)
    dense = np.linalg.cond(system.A.toarray(), 2)
    assert abs(est.kappa - dense) / dense <= 1e-10


def _standard_fem(n, k):
    """The circle case's box with phi = -1 and w pinned to 0 on the box:
    the same assembly then gives the plain P_k stiffness matrix with
    Dirichlet rows, a standard FEM on the conforming background mesh."""
    case = get_case("circle")
    mesh = build_background_mesh(case.box, (n, n))
    field = interpolate_levelset(
        AnalyticField(value=lambda x, y: -np.ones_like(x)), mesh, k)
    domain = classify_domain(field)
    assert domain.cut_triangles.size == 0
    assert domain.ghost_facets.size == 0
    zero = AnalyticField(value=lambda x, y: np.zeros_like(x))
    return assemble_system(domain, field, case.f, k, 20.0, outer_data=zero)


@pytest.mark.parametrize("k, sizes", [(1, (20, 40, 80, 160)),
                                      (2, (20, 40, 80))])
def test_condition_number_of_the_same_order_as_standard_fem(k, sizes):
    # the paper's claim: kappa of phi-FEM is of the order of kappa of a
    # standard FEM on a comparable conforming mesh.  The standard kappa
    # grows like h^-2; the ratio is bounded from n=80 on (measured 1.85
    # and 1.95 for k=1, 5.20 for k=2)
    fem = [estimate_condition_number(_standard_fem(n, k)).kappa
           for n in sizes]
    for coarse, fine in zip(fem, fem[1:]):
        assert abs(fine / coarse - 4.0) <= 0.04
    for n, kappa in zip(sizes, fem):
        if n >= 80:
            phifem = estimate_condition_number(_assembled(n, k)).kappa
            assert phifem / kappa <= 10.0


# moved and resized disks of test_robustness, shifts in cells of the
# n = 80 grid: two corners of its shift range and both ends of its radii
_MOVED_DISKS = [((-0.5, -0.5), 0.30), ((0.5, 0.5), 0.36),
                ((0.0, 0.0), 0.38), ((0.25, -0.1), 0.40)]


def test_condition_number_ratio_holds_wherever_the_disk_cuts():
    # the same claim at k=1, n=80 with the disk moved and resized by the
    # affine map of test_robustness.  Measured 1.26..2.40 over its nine
    # reference geometries and 150 random ones, and 1.26, 1.92, 2.10 and
    # 2.40 here; the ratio grows with the radius
    n = 80
    fem = estimate_condition_number(_standard_fem(n, 1)).kappa
    for shift, radius in _MOVED_DISKS:
        case = shifted_disk(np.asarray(shift) / n, radius)
        phifem = estimate_condition_number(_assembled(n, case=case)).kappa
        assert phifem / fem <= 10.0


def test_condition_number_deterministic():
    system = _assembled(8)
    first = estimate_condition_number(system)
    second = estimate_condition_number(system)
    assert first.kappa == second.kappa
    assert first.iterations == second.iterations


def test_condition_number_iteration_cap(monkeypatch):
    # at 205 unknowns one Lanczos restart cannot reach tol=1e-14 on the
    # largest eigenvalue (the 41 unknowns of n=8 converge within one)
    monkeypatch.setattr(linalg, "_LANCZOS_TOL", 1e-14)
    monkeypatch.setattr(linalg, "_LANCZOS_RESTARTS", 1)
    system = _assembled(20)
    with pytest.raises(NoConvergenceError) as info:
        estimate_condition_number(system)
    assert info.value.best is not None
    assert info.value.best.kappa > 1.0
