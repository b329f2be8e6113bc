"""Deterministic linear solvers and conditioning estimates.

Small systems go through a sparse LU (SuperLU) factorization with
iterative refinement; larger ones use ILU-preconditioned GMRES.
Condition numbers are estimated as the ratio of extreme singular values,
each obtained by power iteration on the normal operator; the smallest
one runs the iteration on its inverse through a pair of solves with one
sparse LU factorization.  Every run uses a fixed random seed, so
repeated calls give identical results.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .assembly import SparseSystem

__all__ = [
    "DIRECT_LIMIT",
    "SolverReport",
    "ConditionEstimate",
    "SingularMatrixError",
    "NoConvergenceError",
    "solve",
    "estimate_condition_number",
]

#: Largest system solved with a direct factorization.
DIRECT_LIMIT = 5000
_SEED = 20240901


class SingularMatrixError(Exception):
    """The system matrix is singular to working precision."""


class NoConvergenceError(Exception):
    """An iteration stopped before reaching its tolerance.

    Attributes
    ----------
    best : the last iterate (solution vector or ConditionEstimate).
    residual : achieved relative residual or Rayleigh change.
    iterations : iterations spent.
    """

    def __init__(self, message, best=None, residual=None, iterations=None):
        super().__init__(message)
        self.best = best
        self.residual = residual
        self.iterations = iterations


@dataclass(frozen=True)
class SolverReport:
    """Solution of one linear system with solver metadata."""

    x: np.ndarray
    method: str          # "sparse-lu" or "ilu-gmres"
    iterations: int
    residual: float      # relative algebraic residual


@dataclass(frozen=True)
class ConditionEstimate:
    """Spectral condition number estimate kappa = s_max / s_min."""

    sigma_max: float
    sigma_min: float
    kappa: float
    iterations: tuple[int, int]     # power iterations spent (max, min)
    achieved: tuple[float, float]   # final relative Rayleigh changes
    tol: float


class _SparseLU:
    """SuperLU factorization of the sparse matrix, with transposed solves."""

    def __init__(self, a: sp.csr_matrix):
        try:
            self._lu = spla.splu(a.tocsc())
        except RuntimeError as err:
            raise SingularMatrixError(str(err)) from err

    def solve(self, rhs: np.ndarray, trans: bool = False) -> np.ndarray:
        out = self._lu.solve(rhs, "T" if trans else "N")
        if not np.isfinite(out).all():
            raise SingularMatrixError("sparse LU solve produced non-finite "
                                      "values")
        return out


def _ilu(a: sp.csr_matrix):
    """Incomplete LU factorization used to precondition GMRES."""
    try:
        # fill-reducing ordering for the structurally symmetric pattern;
        # the default column ordering is far slower on these systems
        return spla.spilu(a.tocsc(), drop_tol=1e-8, fill_factor=40.0,
                          permc_spec="MMD_AT_PLUS_A")
    except RuntimeError as err:
        raise SingularMatrixError(f"ILU factorization failed: {err}") from err


def _gmres(a, b, precond, tol, restart=200, max_cycles=3):
    """GMRES with restart; returns (x, iterations, relative residual)."""
    norm_b = np.linalg.norm(b)
    if norm_b == 0.0:
        return np.zeros_like(b), 0, 0.0
    count = [0]

    def cb(_):
        count[0] += 1

    x, _ = spla.gmres(a, b, M=precond, rtol=tol, atol=0.0, restart=restart,
                      maxiter=max_cycles * restart, callback=cb,
                      callback_type="pr_norm")
    res = np.linalg.norm(b - a @ x) / norm_b
    return x, count[0], res


def _krylov_refine(a, b, precond, tol, max_passes=8):
    """Drive the true relative residual below `tol` by repeated GMRES
    passes on the residual equation.

    Each pass asks GMRES only for a moderate preconditioned-residual
    reduction; the outer loop measures the true residual, so an accurate
    answer is reached without stalling inside GMRES near roundoff level.
    Returns (x, total iterations, final relative residual).
    """
    norm_b = np.linalg.norm(b)
    if norm_b == 0.0:
        return np.zeros_like(b), 0, 0.0
    inner_tol = max(tol, 1e-8)
    x = np.zeros_like(b)
    res = np.inf
    iters = 0
    for _ in range(max_passes):
        r = b - a @ x
        new_res = np.linalg.norm(r) / norm_b
        if new_res <= tol:
            return x, iters, new_res
        if new_res > 0.5 * res:
            break                       # stalled; stop wasting iterations
        res = new_res
        dx, extra, _ = _gmres(a, r, precond, inner_tol)
        if not np.isfinite(dx).all():
            break
        x = x + dx
        iters += extra
    res = np.linalg.norm(b - a @ x) / norm_b
    return x, iters, res


def solve(system: SparseSystem, tol: float = 1e-11) -> SolverReport:
    """Solve A x = b to relative residual `tol`.

    `tol` must lie in (0, 1e-6]; looser tolerances are rejected because
    downstream error norms would be dominated by algebraic error.  Raises
    SingularMatrixError or NoConvergenceError when the system cannot be
    solved to tolerance; NoConvergenceError carries the best iterate.
    """
    if not (0.0 < tol <= 1e-6):
        raise ValueError(f"tol must lie in (0, 1e-6], got {tol}")
    a, b = system.A, system.b
    n = b.shape[0]
    norm_b = np.linalg.norm(b)
    if norm_b == 0.0:
        return SolverReport(x=np.zeros(n), method="trivial", iterations=0,
                            residual=0.0)

    if n <= DIRECT_LIMIT:
        factor = _SparseLU(a)
        x = factor.solve(b)
        # at most 5 steps of iterative refinement against the sparse matrix
        for iters in range(6):
            r = b - a @ x
            res = np.linalg.norm(r) / norm_b
            if res <= tol:
                return SolverReport(x=x, method="sparse-lu", iterations=iters,
                                    residual=res)
            if iters < 5:
                x = x + factor.solve(r)
        raise NoConvergenceError(
            f"sparse LU solve stalled at relative residual {res:.3e}",
            best=x, residual=res, iterations=iters)

    precond = spla.LinearOperator(a.shape, matvec=_ilu(a).solve)
    x, iters, res = _krylov_refine(a, b, precond, tol)
    if not np.isfinite(x).all():
        raise SingularMatrixError("iterative solve produced non-finite values")
    if res > tol:
        raise NoConvergenceError(
            f"GMRES stalled at relative residual {res:.3e}",
            best=x, residual=res, iterations=iters)
    return SolverReport(x=x, method="ilu-gmres", iterations=iters,
                        residual=res)


def _power_iterations(apply_op, n, tol, max_iters, seed):
    """Largest Rayleigh quotient of a symmetric positive operator."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(n)
    v /= np.linalg.norm(v)
    theta_old = 0.0
    for it in range(1, max_iters + 1):
        w, theta = apply_op(v)
        change = abs(theta - theta_old) / theta if theta > 0.0 else np.inf
        if change <= tol:
            return theta, it, change
        norm_w = np.linalg.norm(w)
        if norm_w == 0.0 or not np.isfinite(norm_w):
            raise SingularMatrixError("power iteration collapsed to zero")
        v = w / norm_w
        theta_old = theta
    return theta, max_iters, change


def estimate_condition_number(system: SparseSystem, tol: float = 1e-8,
                              max_iters: int = 10000) -> ConditionEstimate:
    """Estimate the 2-norm condition number of the system matrix.

    The largest singular value comes from power iteration on A^T A; the
    smallest from the same iteration on its inverse, each step solving
    with A^T and then A through one sparse LU factorization, at every
    system size.  Raises NoConvergenceError (with the partial estimate
    attached) if either iteration fails to settle.
    """
    if not (0.0 < tol < 1.0):
        raise ValueError(f"tol must lie in (0, 1), got {tol}")
    a = system.A
    n = a.shape[0]
    at = a.T.tocsr()

    def apply_normal(v):
        u = a @ v
        theta = u @ u
        return at @ u, theta

    theta_max, it_max, ach_max = _power_iterations(
        apply_normal, n, tol, max_iters, _SEED)

    factor = _SparseLU(a)

    def apply_inverse_normal(v):
        y = factor.solve(v, trans=True)
        z = factor.solve(y)
        return z, v @ z

    theta_inv, it_min, ach_min = _power_iterations(
        apply_inverse_normal, n, tol, max_iters, _SEED + 1)

    sigma_max = float(np.sqrt(theta_max))
    sigma_min = float(1.0 / np.sqrt(theta_inv))
    estimate = ConditionEstimate(
        sigma_max=sigma_max, sigma_min=sigma_min,
        kappa=sigma_max / sigma_min,
        iterations=(it_max, it_min), achieved=(ach_max, ach_min), tol=tol)
    if ach_max > tol or ach_min > tol:
        raise NoConvergenceError(
            "power iteration did not settle within the iteration cap",
            best=estimate, residual=max(ach_max, ach_min),
            iterations=max(it_max, it_min))
    return estimate
