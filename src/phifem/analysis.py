"""Error norms, convergence orders and reference-solution comparisons.

All norms are taken over the active submesh, integrating full triangles
with a quadrature rule fine enough that the measured rates are not
polluted by integration error.  When no closed-form solution exists,
errors are measured against a solution of the same discretization two
refinement levels finer, restricted to coarse triangles that lie strictly
inside the negative region of both the coarse and fine level sets.

Closed-form errors are taken for all solutions of one level in one pass:
the solutions of several penalty strengths share the mesh, the level set
and the dof map, so only the coefficients of w differ between them.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .assembly import SparseSystem
from .fem_core import DofMap, element_maps, eval_lagrange, physical_points, \
    quadrature_degrees, triangle_quadrature
from .levelset import ActiveDomain, AnalyticField, LevelSetField
from .mesh import locate_points

__all__ = [
    "ProductSolution",
    "ErrorReport",
    "make_solution",
    "eval_solution",
    "compute_errors",
    "compute_errors_vs_reference",
    "estimated_orders",
]


@dataclass(frozen=True)
class ProductSolution:
    """Discrete solution u = phi * w on the active submesh."""

    field: LevelSetField
    dofmap: DofMap              # numbering of the factor w, degree k
    coefficients: np.ndarray    # (n_dofs,) coefficients of w

    @property
    def degree(self) -> int:
        return self.dofmap.degree


@dataclass(frozen=True)
class ErrorReport:
    """Relative errors of one solve, ready for convergence tables."""

    h: float
    n_dofs: int
    rel_l2: float
    rel_h1_semi: float


def make_solution(system: SparseSystem, field: LevelSetField,
                  x: np.ndarray) -> ProductSolution:
    """Bundle solver output into an evaluable product solution."""
    x = np.asarray(x, dtype=float)
    if x.shape != (system.n_dofs,):
        raise ValueError("coefficient vector does not match the dof map")
    return ProductSolution(field=field, dofmap=system.dofmap, coefficients=x)


def _product(pv, pg, wv, wg):
    """Values and gradients of u = phi * w from those of phi and w."""
    return pv * wv, wv[..., None] * pg + pv[..., None] * wg


def _product_field(sol: ProductSolution, tris: np.ndarray, inv: np.ndarray,
                   bary: np.ndarray):
    """Values and gradients of u = phi * w at barycentric points of the
    given active triangles; `bary` is (Q, 3) or (nT, Q, 3)."""
    field = sol.field
    wcoef = sol.coefficients[sol.dofmap.cell_dofs[sol.dofmap.rows_for(tris)]]
    wv, wg, _ = eval_lagrange(wcoef, sol.degree, inv, bary)
    pv, pg, _ = eval_lagrange(field.cell_coefficients(tris), field.degree,
                              inv, bary)
    return _product(pv, pg, wv, wg)


def eval_solution(sol: ProductSolution, triangle: int, bary: np.ndarray
                  ) -> tuple[float, np.ndarray]:
    """Value and gradient of u = phi * w at one point of an active triangle."""
    tris = np.array([triangle])
    _, _, _, inv = element_maps(sol.field.mesh, tris)
    val, grad = _product_field(sol, tris, inv,
                               np.asarray(bary, dtype=float).reshape(1, 3))
    return float(val[0, 0]), grad[0, 0]


# Triangles per chunk of the error pass.  Its temporaries scale with the
# chunk, and at 2048 the pass runs as fast as at 4096 with half the peak.
_CHUNK = 2048


def _relative_errors(solutions: list[ProductSolution], tris: np.ndarray,
                     target, vanishing: str) -> list[ErrorReport]:
    """Relative L2 and H1-seminorm errors of each solution against a target.

    The solutions share one level-set field and one dof map, so the
    element maps, the target, the weights, phi and the dof gather run
    once per chunk; only w and the error sums are per solution.
    `target(pts)` gives the target's values (nT, Q), gradients (nT, Q, 2)
    and a (nT,) mask of the triangles to keep, at physical points
    (nT, Q, 2).  Raises ValueError(`vanishing`) when the target has zero
    norm on the kept triangles.
    """
    field, dofmap = solutions[0].field, solutions[0].dofmap
    mesh = field.mesh
    quad = triangle_quadrature(
        quadrature_degrees(dofmap.degree, field.degree)["data"])

    num_l2 = [0.0] * len(solutions)
    num_h1 = [0.0] * len(solutions)
    den_l2 = den_h1 = 0.0
    for start in range(0, tris.size, _CHUNK):
        sel = tris[start:start + _CHUNK]
        v0, jac, det, inv = element_maps(mesh, sel)
        ex, ex_grad, keep = target(physical_points(v0, jac, quad.points))
        w = quad.weights[None, :] * det[:, None] * keep[:, None]
        pv, pg, _ = eval_lagrange(field.cell_coefficients(sel), field.degree,
                                  inv, quad.points)
        dofs = dofmap.cell_dofs[dofmap.rows_for(sel)]
        den_l2 += float(np.sum(w * ex ** 2))
        den_h1 += float(np.sum(w * np.sum(ex_grad ** 2, axis=-1)))
        for j, sol in enumerate(solutions):
            wv, wg, _ = eval_lagrange(sol.coefficients[dofs], dofmap.degree,
                                      inv, quad.points)
            val, grad = _product(pv, pg, wv, wg)
            num_l2[j] += float(np.sum(w * (ex - val) ** 2))
            num_h1[j] += float(np.sum(
                w * np.sum((ex_grad - grad) ** 2, axis=-1)))

    if den_l2 <= 0.0 or den_h1 <= 0.0:
        raise ValueError(vanishing)
    return [ErrorReport(h=mesh.h, n_dofs=dofmap.n_dofs,
                        rel_l2=float(np.sqrt(l2 / den_l2)),
                        rel_h1_semi=float(np.sqrt(h1 / den_h1)))
            for l2, h1 in zip(num_l2, num_h1)]


def compute_errors(solutions: list[ProductSolution], exact: AnalyticField,
                   domain: ActiveDomain) -> list[ErrorReport]:
    """Relative L2 and H1-seminorm errors against a closed-form solution,
    one report per solution.

    Both norms integrate over every active triangle, cut ones included.
    The solutions must share one level-set field and one dof map, as the
    solves of one level for several penalty strengths do; the exact
    solution, phi and the element maps are then evaluated once for all
    of them, and each report equals that of a one-solution call.
    """
    if not solutions:
        raise ValueError("no solutions to measure")
    first = solutions[0]
    if any(s.field is not first.field or s.dofmap is not first.dofmap
           for s in solutions):
        raise ValueError("solutions must share one field and one dof map")
    if exact.gradient is None:
        raise ValueError("exact solution must provide a gradient")

    def target(pts):
        x, y = pts[..., 0], pts[..., 1]
        return (np.asarray(exact.value(x, y), dtype=float),
                np.stack(exact.gradient(x, y), axis=-1),
                np.ones(len(pts), dtype=bool))

    return _relative_errors(solutions, domain.active_triangles, target,
                            "exact solution vanishes on the active submesh")


def compute_errors_vs_reference(sol: ProductSolution,
                                ref_sol: ProductSolution,
                                domain: ActiveDomain) -> ErrorReport:
    """Errors against a finer solve of the same problem.

    Norms run over coarse active triangles that are not cut (the level-set
    interpolant stays negative on their whole sampling lattice).  A coarse
    triangle is also dropped when any of its quadrature points lands
    outside the fine active set, so that only points where the reference
    is defined contribute.
    """
    interior = np.setdiff1d(domain.active_triangles, domain.cut_triangles)
    if interior.size == 0:
        raise ValueError("no uncut active triangles to compare on")
    fine = ref_sol.field.mesh
    covered = ref_sol.dofmap.triangles

    def target(pts):
        flat = pts.reshape(-1, 2)
        tri, bary = locate_points(fine, flat)
        pos = np.minimum(np.searchsorted(covered, tri), covered.size - 1)
        inside = covered[pos] == tri
        tri_in = tri[inside]
        _, _, _, inv = element_maps(fine, tri_in)
        val, grad = _product_field(ref_sol, tri_in, inv, bary[inside, None])
        values = np.zeros(flat.shape[0])
        grads = np.zeros((flat.shape[0], 2))
        values[inside] = val[:, 0]
        grads[inside] = grad[:, 0]
        return (values.reshape(pts.shape[:-1]), grads.reshape(pts.shape),
                inside.reshape(pts.shape[:-1]).all(axis=1))

    return _relative_errors(
        [sol], interior, target,
        "reference solution vanishes on the comparison set")[0]


def estimated_orders(reports: list[ErrorReport]
                     ) -> list[tuple[float, float]]:
    """Observed convergence orders between consecutive reports.

    Requires each mesh size to halve exactly from one report to the next;
    returns one (l2 order, h1 order) pair per consecutive pair of reports.
    """
    if len(reports) < 2:
        raise ValueError("need at least two reports to estimate orders")
    out = []
    for a, b in zip(reports, reports[1:]):
        ratio = a.h / b.h
        if abs(ratio - 2.0) > 1e-9:
            raise ValueError(f"mesh sizes do not halve: {a.h} -> {b.h}")
        if min(a.rel_l2, b.rel_l2, a.rel_h1_semi, b.rel_h1_semi) <= 0.0:
            raise ValueError("zero error makes the order undefined")
        out.append((float(np.log2(a.rel_l2 / b.rel_l2)),
                    float(np.log2(a.rel_h1_semi / b.rel_h1_semi))))
    return out
