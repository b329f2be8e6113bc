"""Deterministic linear solver and conditioning estimates.

`solve` is one refinement loop on the true residual for every system
size: one sparse LU (SuperLU) factorization, then solves of the residual
equation with it.  A solve whose residual stops falling above its
tolerance is accepted when its normwise backward error is a few units of
rounding.  Condition numbers are estimated as the ratio of extreme
singular values, each obtained by Lanczos (ARPACK) on the normal
operator; the smallest one runs it on the inverse through a pair of
solves with one sparse LU factorization, taken as in `solve`.  Every run
starts from a fixed random vector, so repeated calls give identical
results.

Both entry points take only the system: the solve tolerance (`_TOL`) and
Lanczos's accuracy and restart cap (`_LANCZOS_TOL`, `_LANCZOS_RESTARTS`)
are fixed here, and read at call time.

Every sparse LU factor is taken in SuperLU's symmetric mode: the phi-FEM
pattern is structurally symmetric (only the boundary term is not
numerically symmetric), so the columns are ordered by minimum degree on
A^T + A and each pivot is taken from the diagonal unless it is smaller
than a tenth of the largest entry of its column of the factored A^T
(its row of A), where partial pivoting takes over.  The phi-FEM matrix
is as well conditioned as a standard FEM matrix on a comparable mesh,
so this one direct factor, refined on the true residual, serves every
system size; that ordering keeps its fill low enough to fit in
memory.  Memory is what limits this design, so
SuperLU relaxes supernodes over at most one column and works in panels
of four columns (`_LU_OPTIONS`): the fill and both permutations stay
those of its defaults, and its factors take less memory and time.  For
the same reason the factor is of A^T, whose CSC arrays are the CSR
arrays of A (`_lu`): SuperLU reads them in place, no CSC copy of A is
made, and a solve with A is the transposed solve with the factor.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .assembly import SparseSystem

__all__ = [
    "BACKWARD_ERROR_BOUND",
    "SolverReport",
    "ConditionEstimate",
    "SingularMatrixError",
    "NoConvergenceError",
    "solve",
    "estimate_condition_number",
]

#: Largest normwise backward error accepted from a solve whose residual
#: stops falling above its tolerance: a few units of rounding.
BACKWARD_ERROR_BOUND = 4 * np.finfo(float).eps
# The solve's relative residual target.  It stays within (0, 1e-6]: any
# looser and the discretization error norms would be dominated by
# algebraic error.
_TOL = 1e-11
_MAX_PASSES = 8
# Lanczos's relative accuracy of each extreme eigenvalue, in (0, 1), and
# its cap on restarts, at least 1.
_LANCZOS_TOL = 1e-8
_LANCZOS_RESTARTS = 10000
_SEED = 20240901
# SuperLU's symmetric mode: minimum degree ordering on A^T + A, and the
# diagonal as pivot while it is at least 0.1 times its column's largest
# entry.  With a threshold of 0 a diagonal of 1e-20 stays the pivot: on
# [[1e-20, 1], [1, 1e-20]] x = (1, 2) the factor then returns (2, 0).
# The ordering is also what keeps the largest factors within memory: those
# of rectangle k=2 at n=640 (824,953 unknowns) hold about 183M nonzeros,
# and a study that solves it (test_07) peaks at 2,475-2,489 MB, against
# 2,559-2,563 MB when A was copied to CSC before each factor.  Factors
# that do not fit raise MemoryError, which the caller reports.
# relax=1 and panel_size=4 leave the fill and both permutations as the
# defaults have them, and a solve with either factor agrees to rounding
# (4.2e-12 relative on circle k=3 n=40).  Measured on a 2-core x86-64 box,
# one BLAS thread, defaults -> these: process CPU time of the factors,
# median of 25 alternating rounds, 201.2 -> 166.7 ms over the 13
# disk-convergence systems, 41.7 -> 38.2 ms over the 5 penalty-sweep ones;
# the rise of peak RSS over a factor, circle k=3 n=80 +17.1 -> +11.4 MB,
# rectangle k=2 at n=160 (52,633 unknowns) +46-48 -> +36-39 MB and at
# n=320 (207,673) +264 -> +230 MB, the last in 2.23-2.39 -> 2.12-2.26 s.
# A panel of 1 is faster on the small systems (149.3 ms over the 13) but
# took 2.94 s at n=320, so the panel is 4.
_LU_OPTIONS = dict(permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.1,
                   relax=1, panel_size=4,
                   options=dict(SymmetricMode=True))


class SingularMatrixError(Exception):
    """The system matrix is singular to working precision."""


class NoConvergenceError(Exception):
    """An iteration stopped before reaching its tolerance.

    Attributes
    ----------
    best : the last iterate (solution vector or ConditionEstimate).
    residual : achieved relative residual of a solve; None for the
        condition estimator.
    iterations : iterations spent.
    """

    def __init__(self, message, best=None, residual=None, iterations=None):
        super().__init__(message)
        self.best = best
        self.residual = residual
        self.iterations = iterations


@dataclass(frozen=True)
class SolverReport:
    """Solution of one linear system with solver metadata.

    `iterations` counts the refinement passes of "sparse-lu", each one
    solve with the sparse LU factors, the first included; it is 0 for
    "trivial", a zero right-hand side.  `residual` is the true relative
    residual ||b - A x||_2 / ||b||_2, and `backward_error` the normwise
    backward error ||b - A x||_inf / (||A||_inf ||x||_inf + ||b||_inf)
    (Rigal and Gaches).
    """

    x: np.ndarray
    method: str
    iterations: int
    residual: float
    backward_error: float


@dataclass(frozen=True)
class ConditionEstimate:
    """Spectral condition number estimate kappa = s_max / s_min."""

    sigma_max: float
    sigma_min: float
    kappa: float
    iterations: tuple[int, int]     # operator applications (max, min)


def _lu(a: sp.csr_matrix):
    """SuperLU factors of the transpose of the CSR matrix `a`, taken in
    symmetric mode (_LU_OPTIONS); `solve(r, "T")` with them solves
    a x = r.

    The arrays of a CSR matrix are those of the CSC matrix of its
    transpose, so SuperLU reads them as they are and no CSC copy of `a`
    is made.  The ordering is minimum degree on the same A^T + A.  On
    the 18 systems of the disk-convergence and penalty-sweep benchmarks,
    against factors of `a`: 15 keep the fill and 16 the column order,
    the other fills are within 0.03%, and x moves by at most 1.4e-12
    relative."""
    try:
        return spla.splu(sp.csc_matrix((a.data, a.indices, a.indptr),
                                       shape=a.shape[::-1]), **_LU_OPTIONS)
    except RuntimeError as err:
        raise SingularMatrixError(f"splu: {err}") from err


def solve(system: SparseSystem) -> SolverReport:
    """Solve A x = b to relative residual `_TOL` (1e-11).

    One loop for every size: factor once, then correct x by a solve of
    the residual equation A dx = b - A x with the factors until the true
    relative residual is at most `_TOL`, for at most _MAX_PASSES passes.
    A pass that does not halve the residual ends the loop.  If it ends
    above `_TOL`, x is still accepted when its normwise backward error is
    at most BACKWARD_ERROR_BOUND: the residual then sits at the rounding
    floor of double precision, which no solver can go below.

    Raises SingularMatrixError when the factorization fails or a pass
    produces non-finite values, NoConvergenceError, which carries the
    last iterate, when x is not accepted, and MemoryError when the
    factors do not fit in memory.
    """
    a, b = system.A, system.b
    norm_b = np.linalg.norm(b)
    if norm_b == 0.0:
        return SolverReport(x=np.zeros_like(b), method="trivial",
                            iterations=0, residual=0.0, backward_error=0.0)

    lu = _lu(a)
    x, r = np.zeros_like(b), b
    last = 1.0                      # the relative residual of x = 0
    for passes in range(1, _MAX_PASSES + 1):
        x = x + lu.solve(r, "T")
        r = b - a @ x
        res = np.linalg.norm(r) / norm_b
        if not np.isfinite(res):
            raise SingularMatrixError("sparse-lu solve produced non-finite "
                                      "values")
        if res <= _TOL or res > 0.5 * last:
            break
        last = res
    eta = np.abs(r).max() / (spla.norm(a, np.inf) * np.abs(x).max()
                             + np.abs(b).max())
    if res > _TOL and eta > BACKWARD_ERROR_BOUND:
        raise NoConvergenceError(
            f"sparse-lu solve stalled at relative residual {res:.3e}, "
            f"backward error {eta:.3e}", best=x, residual=res,
            iterations=passes)
    return SolverReport(x=x, method="sparse-lu", iterations=passes,
                        residual=res, backward_error=eta)


def _largest_eigenvalue(apply_op, n):
    """Largest eigenvalue of a symmetric positive definite operator by
    ARPACK's Lanczos, whether it converged, and the operator applications
    spent.

    Without convergence the value is ARPACK's converged Ritz value if it
    returned one, and otherwise the Rayleigh quotient of the start vector.
    """
    spent = 0

    def counted(v):
        nonlocal spent
        spent += 1
        return apply_op(v)

    op = spla.LinearOperator((n, n), matvec=counted, dtype=float)
    v0 = np.random.default_rng(_SEED).standard_normal(n)
    try:
        theta = spla.eigsh(op, k=1, which="LA", v0=v0, tol=_LANCZOS_TOL,
                           maxiter=_LANCZOS_RESTARTS,
                           return_eigenvectors=False)[0]
        converged = True
    except spla.ArpackNoConvergence as err:
        converged = False
        theta = (err.eigenvalues[0] if err.eigenvalues.size
                 else v0 @ counted(v0) / (v0 @ v0))
    if not (np.isfinite(theta) and theta > 0.0):
        raise SingularMatrixError(f"Lanczos gave the eigenvalue {theta}")
    return float(theta), converged, spent


def estimate_condition_number(system: SparseSystem) -> ConditionEstimate:
    """Estimate the 2-norm condition number of the system matrix.

    The largest singular value comes from Lanczos (ARPACK's `eigsh`) on
    A^T A; the smallest from Lanczos on its inverse, each step solving
    with A^T and then A through one sparse LU factorization of A^T,
    taken as in `solve`.  Each eigenvalue is sought to relative accuracy
    `_LANCZOS_TOL` (1e-8) within `_LANCZOS_RESTARTS` (10000) restarts;
    the system needs at least two unknowns.  Raises NoConvergenceError
    (with the partial estimate attached) if either side fails to
    converge, SingularMatrixError when the factorization fails, and
    MemoryError when the factors do not fit in memory.
    """
    a = system.A
    n = a.shape[0]
    factor = _lu(a)
    theta_max, ok_max, it_max = _largest_eigenvalue(
        lambda v: a.T @ (a @ v), n)
    theta_inv, ok_min, it_min = _largest_eigenvalue(
        lambda v: factor.solve(factor.solve(v), "T"), n)

    sigma_max = float(np.sqrt(theta_max))
    sigma_min = float(1.0 / np.sqrt(theta_inv))
    estimate = ConditionEstimate(
        sigma_max=sigma_max, sigma_min=sigma_min,
        kappa=sigma_max / sigma_min, iterations=(it_max, it_min))
    if not (ok_max and ok_min):
        raise NoConvergenceError(
            "Lanczos did not converge within the iteration cap",
            best=estimate, iterations=it_max + it_min)
    return estimate
