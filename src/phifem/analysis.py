"""Error norms, convergence orders and reference-solution comparisons.

All norms are taken over the active submesh, integrating full triangles
with a quadrature rule fine enough that the measured rates are not
polluted by integration error.  When no closed-form solution exists,
errors are measured against a solution of the same discretization two
refinement levels finer, restricted to coarse triangles that lie strictly
inside the negative region of both the coarse and fine level sets.

Errors are taken for all solutions of one level in one pass: the
solutions of several penalty strengths share the mesh, the level set and
the dof map, so only the coefficients of w differ between them, and a
reference comparison locates the points and evaluates the fine phi once
for every strength.  The quadrature points are v0 + offset[shape], and
phi and w are one GEMM per triangle shape against the shape's tables.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .assembly import SparseSystem
from .fem_core import (DofMap, eval_lagrange, eval_shapes,
                       physical_points, physical_tables, product_rule,
                       quadrature_degrees, rule_tables, shape_maps,
                       triangle_quadrature)
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


def _check_shared(solutions: list[ProductSolution]) -> None:
    if not solutions:
        raise ValueError("no solutions to measure")
    first = solutions[0]
    if any(s.field is not first.field or s.dofmap is not first.dofmap
           for s in solutions):
        raise ValueError("solutions must share one field and one dof map")


def _product_field(solutions: list[ProductSolution], tris: np.ndarray,
                   bary: np.ndarray):
    """Values (S, nT, Q) and gradients (S, nT, Q, 2) of each u = phi * w
    at barycentric points of the given active triangles; the solutions
    share one field and one dof map, and `bary` is (Q, 3) or (nT, Q, 3)."""
    field, dofmap = solutions[0].field, solutions[0].dofmap
    inv = shape_maps(field.mesh)[2][tris % 2]
    pv, pg, _ = eval_lagrange(field.cell_coefficients(tris), field.degree,
                              inv, bary)
    cells = dofmap.cell_dofs[dofmap.rows_for(tris)]
    wcoef = np.stack([sol.coefficients[cells] for sol in solutions])
    wv, wg, _ = eval_lagrange(wcoef, dofmap.degree, inv, bary)
    return product_rule(pv, pg, wv, wg)[:2]


def eval_solution(sol: ProductSolution, triangle: int, bary: np.ndarray
                  ) -> tuple[float, np.ndarray]:
    """Value and gradient of u = phi * w at one point of an active triangle."""
    val, grad = _product_field([sol], np.array([triangle]),
                               np.asarray(bary, dtype=float).reshape(1, 3))
    return float(val[0, 0, 0]), grad[0, 0, 0]


# Triangles per chunk of the error pass.  Its temporaries scale with the
# chunk, and at 2048 the pass runs as fast as at 4096 with half the peak.
_CHUNK = 2048


def _relative_errors(solutions: list[ProductSolution], tris: np.ndarray,
                     target, vanishing: str) -> list[ErrorReport]:
    """Relative L2 and H1-seminorm errors of each solution against a target.

    The solutions share one level-set field and one dof map, so the
    points, the target, the weights, phi and the dof gather run once per
    chunk; only w and the error sums are per solution.  Every triangle
    of a shape shares the tables of phi and w, so each field is one GEMM
    per shape.  `target(pts)` gives, at physical points (nT, Q, 2), the
    target values (S, nT, Q), gradients (S, nT, Q, 2) and a (nT,) mask of
    the triangles to keep; S is 1 (one target for every solution) or one
    target per solution.  Raises ValueError(`vanishing`) when a target has
    zero norm on the kept triangles.
    """
    field, dofmap = solutions[0].field, solutions[0].dofmap
    mesh = field.mesh
    exactness = quadrature_degrees(dofmap.degree, field.degree)["data"]
    quad = triangle_quadrature(exactness)
    _, det, inv = shape_maps(mesh)
    phi_tables, w_tables = (rule_tables(degree, exactness, False)
                            for degree in (field.degree, dofmap.degree))
    phi_v, phi_g = phi_tables[0], physical_tables(phi_tables, inv)[0]
    w_v, w_g = w_tables[0], physical_tables(w_tables, inv)[0]

    S = len(solutions)
    num_l2, num_h1 = np.zeros(S), np.zeros(S)
    den_l2 = den_h1 = 0.0
    for start in range(0, tris.size, _CHUNK):
        sel = tris[start:start + _CHUNK]
        shape = sel % 2
        ex, ex_grad, keep = target(physical_points(mesh, sel, quad.points))
        w = det * quad.weights[None, :] * keep[:, None]
        den_l2 = den_l2 + np.array([np.sum(w * e ** 2) for e in ex])
        den_h1 = den_h1 + np.array([np.sum(w * np.sum(g ** 2, axis=-1))
                                    for g in ex_grad])
        ex = np.broadcast_to(ex, (S,) + ex.shape[1:])
        ex_grad = np.broadcast_to(ex_grad, (S,) + ex_grad.shape[1:])
        pv, pg = eval_shapes(field.cell_coefficients(sel), shape, phi_v,
                             phi_g)
        dofs = dofmap.cell_dofs[dofmap.rows_for(sel)]
        for j, sol in enumerate(solutions):
            wv, wg = eval_shapes(sol.coefficients[dofs], shape, w_v, w_g)
            val, grad, _ = product_rule(pv, pg, wv, wg)
            num_l2[j] += np.sum(w * (ex[j] - val) ** 2)
            num_h1[j] += np.sum(w * np.sum((ex_grad[j] - grad) ** 2, axis=-1))

    den_l2 = np.broadcast_to(den_l2, (S,))
    den_h1 = np.broadcast_to(den_h1, (S,))
    if (den_l2 <= 0.0).any() or (den_h1 <= 0.0).any():
        raise ValueError(vanishing)
    return [ErrorReport(h=mesh.h, n_dofs=dofmap.n_dofs,
                        rel_l2=float(np.sqrt(num_l2[j] / den_l2[j])),
                        rel_h1_semi=float(np.sqrt(num_h1[j] / den_h1[j])))
            for j in range(S)]


def compute_errors(solutions: list[ProductSolution], exact: AnalyticField,
                   domain: ActiveDomain) -> list[ErrorReport]:
    """Relative L2 and H1-seminorm errors against a closed-form solution,
    one report per solution.

    Both norms integrate over every active triangle, cut ones included.
    The solutions must share one level-set field and one dof map, as the
    solves of one level for several penalty strengths do; the exact
    solution, phi and the points are then evaluated once for all of
    them, and each report equals that of a one-solution call.
    """
    _check_shared(solutions)
    if exact.gradient is None:
        raise ValueError("exact solution must provide a gradient")

    def target(pts):
        x, y = pts[..., 0], pts[..., 1]
        return (np.asarray(exact.value(x, y), dtype=float)[None],
                np.stack(exact.gradient(x, y), axis=-1)[None],
                np.ones(len(pts), dtype=bool))

    return _relative_errors(solutions, domain.active_triangles, target,
                            "exact solution vanishes on the active submesh")


def compute_errors_vs_reference(solutions: list[ProductSolution],
                                ref_solutions: list[ProductSolution],
                                domain: ActiveDomain) -> list[ErrorReport]:
    """Errors against finer solves of the same problem, one report per
    solution: solutions[j] is measured against ref_solutions[j].

    Norms run over coarse active triangles that are not cut (the level-set
    interpolant stays negative on their whole sampling lattice).  A coarse
    triangle is also dropped when any of its quadrature points lands
    outside the fine active set, so that only points where the reference
    is defined contribute.  The solutions share one coarse field and dof
    map and the references one fine field and dof map, as the solves of
    two levels for several penalty strengths do; the coarse points, phi,
    the point location and the fine phi then run once for all of them,
    and each report equals that of a one-solution call.
    """
    _check_shared(solutions)
    _check_shared(ref_solutions)
    if len(solutions) != len(ref_solutions):
        raise ValueError("one reference per solution is needed")
    interior = np.setdiff1d(domain.active_triangles, domain.cut_triangles)
    if interior.size == 0:
        raise ValueError("no uncut active triangles to compare on")
    fine = ref_solutions[0].field.mesh
    covered = ref_solutions[0].dofmap.triangles

    def target(pts):
        flat = pts.reshape(-1, 2)
        tri, bary = locate_points(fine, flat)
        pos = np.minimum(np.searchsorted(covered, tri), covered.size - 1)
        inside = covered[pos] == tri
        val, grad = _product_field(ref_solutions, tri[inside],
                                   bary[inside, None])
        values = np.zeros((len(ref_solutions), flat.shape[0]))
        grads = np.zeros((len(ref_solutions), flat.shape[0], 2))
        values[:, inside] = val[..., 0]
        grads[:, inside] = grad[:, :, 0]
        return (values.reshape((-1,) + pts.shape[:-1]),
                grads.reshape((-1,) + pts.shape),
                inside.reshape(pts.shape[:-1]).all(axis=1))

    return _relative_errors(
        solutions, interior, target,
        "reference solution vanishes on the comparison set")


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
