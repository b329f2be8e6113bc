"""Error norms, convergence orders and reference-solution comparisons.

All norms are taken over the active submesh, integrating full triangles
with a quadrature rule fine enough that the measured rates are not
polluted by integration error.  When no closed-form solution exists,
errors are measured against a solution of the same discretization two
refinement levels finer, restricted to coarse triangles that lie strictly
inside the negative region of both the coarse and fine level sets.

Errors are taken for all solutions of one level in one pass: the
solutions of several penalty strengths share the mesh, the level set and
the dof map, so only the coefficients of w differ between them.  The
quadrature points are v0 + offset[shape], and phi and w are one GEMM per
triangle shape against the shape's tables.  The reference mesh refines
every coarse cell into ratio x ratio fine cells, so each rule point of a
coarse shape lands at a fixed fine triangle of its cell and a fixed
barycentric point there: `_nested_map` finds them once per (ratio, rule,
degree) and tabulates the fine basis there, and the fine phi and w are
per-point contractions of the gathered fine coefficients with those
tables.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .assembly import SparseSystem
from .fem_core import (DofMap, _frozen, eval_shapes, physical_points,
                       physical_tables, product_rule, quadrature_degrees,
                       rule_tables, shape_maps, tabulate, triangle_quadrature)
from .levelset import ActiveDomain, AnalyticField, LevelSetField
from .mesh import build_background_mesh, locate_points

__all__ = [
    "ProductSolution",
    "ErrorReport",
    "VanishingNormError",
    "make_solution",
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


class VanishingNormError(ValueError):
    """The target of a relative error is zero on the triangles measured,
    for instance because there are none."""


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


# Triangles per chunk of the error pass.  Its temporaries scale with the
# chunk, and at 2048 the pass runs as fast as at 4096 with half the peak.
_CHUNK = 2048


def _squares(e: np.ndarray, w: np.ndarray) -> float:
    """The weighted sum of squares of values (nT, Q) or gradients (nT,
    Q, 2) at Q points with weights w: one fused pass over e that sums
    per point, then one dot with w."""
    return np.einsum("tq,tq->q" if e.ndim == 2 else "tqc,tqc->q", e, e) @ w


def _relative_errors(solutions: list[ProductSolution], tris: np.ndarray,
                     target, vanishing: str) -> list[ErrorReport]:
    """Relative L2 and H1-seminorm errors of each solution against a target.

    The solutions share one level-set field and one dof map, so the
    points, the target, the weights, phi and the dof gather run once per
    chunk; only w and the error sums are per solution.  Every triangle
    of a shape shares the tables of phi and w, so each field is one GEMM
    per shape.  `target(tris, pts)` gives, at the rule's physical points
    (nT, Q, 2) of the triangles `tris`, the target values (S, nT, Q) and
    gradients (S, nT, Q, 2); S is 1 (one target for every solution) or
    one target per solution.  The gradients may be any view of that
    shape, such as a transposed (S, 2, nT, Q) array whose components are
    planes, the layout of the fields of phi and w (`eval_shapes`).
    Each difference of a solution's field and its target is taken in
    place in the field's own array, and every weighted sum of squares
    is one einsum per point and a dot with the weights (`_squares`),
    one call per solution and per target, so no squared or weighted
    copy of a chunk is made.  Raises VanishingNormError(`vanishing`)
    when a target has zero norm on the triangles.
    """
    field, dofmap = solutions[0].field, solutions[0].dofmap
    mesh = field.mesh
    exactness = quadrature_degrees(dofmap.degree, field.degree)["data"]
    quad = triangle_quadrature(exactness)
    _, det, inv = shape_maps(mesh.cell_size)
    phi_tables, w_tables = (rule_tables(degree, exactness)
                            for degree in (field.degree, dofmap.degree))
    phi_v, phi_g = phi_tables[0], physical_tables(phi_tables, inv)[0]
    w_v, w_g = w_tables[0], physical_tables(w_tables, inv)[0]

    w = det * quad.weights
    S = len(solutions)
    num_l2, num_h1 = np.zeros(S), np.zeros(S)
    den_l2 = den_h1 = 0.0
    for start in range(0, tris.size, _CHUNK):
        sel = tris[start:start + _CHUNK]
        shape = sel % 2
        ex, ex_grad = target(sel, physical_points(mesh, sel, quad.points))
        den_l2 = den_l2 + np.array([_squares(e, w) for e in ex])
        den_h1 = den_h1 + np.array([_squares(g, w) for g in ex_grad])
        ex = np.broadcast_to(ex, (S,) + ex.shape[1:])
        ex_grad = np.broadcast_to(ex_grad, (S,) + ex_grad.shape[1:])
        pv, pg = eval_shapes(field.cell_coefficients(sel), shape, phi_v,
                             phi_g)
        dofs = dofmap.cell_dofs[dofmap.rows_for(sel)]
        for j, sol in enumerate(solutions):
            wv, wg = eval_shapes(sol.coefficients[dofs], shape, w_v, w_g)
            val, grad, _ = product_rule(pv, pg, wv, wg)
            val -= ex[j]
            grad -= ex_grad[j]
            num_l2[j] += _squares(val, w)
            num_h1[j] += _squares(grad, w)

    den_l2 = np.broadcast_to(den_l2, (S,))
    den_h1 = np.broadcast_to(den_h1, (S,))
    if (den_l2 <= 0.0).any() or (den_h1 <= 0.0).any():
        raise VanishingNormError(vanishing)
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

    def target(tris, pts):
        x, y = pts[..., 0], pts[..., 1]
        # the gradient's components stay planes, seen as (1, nT, Q, 2)
        grad = np.moveaxis(np.stack(exact.gradient(x, y)), 0, -1)
        return np.asarray(exact.value(x, y), dtype=float)[None], grad[None]

    return _relative_errors(solutions, domain.active_triangles, target,
                            "exact solution vanishes on the active submesh")


@lru_cache(maxsize=None)
def _nested_map(ratio: int, exactness: int, degree: int):
    """Where the points of `triangle_quadrature(exactness)` on the two
    coarse shapes land in a mesh `ratio` times finer, and the fine basis
    there.

    Returns, indexed by (coarse shape, point), the fine triangle's id in
    the block of ratio x ratio fine cells that one coarse cell holds,
    numbered like a mesh of that block, (2, Q); and the degree-`degree`
    basis values and gradients at its barycentric point, (2, Q, n, 3),
    the gradients in units of the fine cell size.  The points are
    located once per key, in those units, by `locate_points`, so its
    tie rule holds.
    """
    box = (0.0, 0.0, float(ratio), float(ratio))
    pts = physical_points(build_background_mesh(box, (1, 1)), np.arange(2),
                          triangle_quadrature(exactness).points)
    tri, bary = locate_points(build_background_mesh(box, (ratio, ratio)), pts)
    values, grads, _ = tabulate(degree, bary.reshape(-1, 3))
    grads = grads @ shape_maps((1.0, 1.0))[2][tri.ravel() % 2]
    tables = np.concatenate([values[..., None], grads], axis=-1)
    return _frozen((tri, tables.reshape(tri.shape + tables.shape[1:])))


def _point_fields(coef, shape, tables, cell_size):
    """Values (nT, Q) and gradients (nT, Q, 2) of fields given per point:
    coef (nT, Q, n) holds each point's nodal values, and tables (2, Q, n,
    3) a `_nested_map` table, indexed by the coarse shapes `shape` (nT,),
    whose gradients `cell_size` turns into physical ones.

    The contraction writes (nT, 3, Q) planes, value then d/dx and d/dy,
    as `fem_core.eval_shapes` does, and the gradients are a transposed
    view of the last two, unit-stride along Q."""
    out = np.empty((coef.shape[0], 3, coef.shape[1]))
    for s in (0, 1):
        rows = np.flatnonzero(shape == s)
        out[rows] = np.einsum("tqn,qnc->tcq", coef[rows], tables[s])
    return out[:, 0], out[:, 1:].transpose(0, 2, 1) / cell_size


def _fine_triangles(tris, nx, ratio, local):
    """Fine triangle ids (nT, Q) of the rule points of the coarse
    triangles `tris` of a mesh nx cells wide, in its refinement by
    `ratio`; `local` (2, Q) holds the points' block ids (`_nested_map`).
    """
    fx = ratio * nx
    cj, ci = np.divmod(tris // 2, nx)
    # a block id is 2 (ratio * row + column) + fine shape
    offset = local + 2 * (fx - ratio) * (local // (2 * ratio))
    return (2 * ratio * (cj * fx + ci))[:, None] + offset[tris % 2]


def compute_errors_vs_reference(solutions: list[ProductSolution],
                                ref_solutions: list[ProductSolution],
                                domain: ActiveDomain) -> list[ErrorReport]:
    """Errors against finer solves of the same problem, one report per
    solution: solutions[j] is measured against ref_solutions[j].

    The reference mesh must be nested in the coarse one: the same box,
    with each coarse cell split into ratio x ratio fine cells, one
    integer ratio on both axes; ValueError otherwise.  Norms run over
    coarse active triangles that are not cut (the level-set interpolant
    stays negative on their whole sampling lattice).  A coarse triangle
    is also dropped when any of its quadrature points lies in a fine
    triangle outside the fine active set, so that only points where the
    reference is defined contribute.  The fine triangle and barycentric
    point of each rule point follow from the nesting (`_nested_map`), so
    no point is located and no basis tabulated per call.  The solutions
    share one coarse field and dof map and the references one fine field
    and dof map, as the solves of two levels for several penalty
    strengths do; the coarse points, phi and the fine phi then run once
    for all of them, and each report equals that of a one-solution call.
    """
    _check_shared(solutions)
    _check_shared(ref_solutions)
    if len(solutions) != len(ref_solutions):
        raise ValueError("one reference per solution is needed")
    coarse, fine = solutions[0].field.mesh, ref_solutions[0].field.mesh
    (nx, ny), (fx, fy) = coarse.n_cells, fine.n_cells
    ratio = fx // nx
    if fine.box != coarse.box or (fx, fy) != (ratio * nx, ratio * ny):
        raise ValueError("the reference mesh is not nested in the coarse one")
    interior = np.setdiff1d(domain.active_triangles, domain.cut_triangles)
    field, dofmap = ref_solutions[0].field, ref_solutions[0].dofmap
    exactness = quadrature_degrees(solutions[0].degree,
                                   solutions[0].field.degree)["data"]
    local, phi_tables = _nested_map(ratio, exactness, field.degree)
    w_tables = _nested_map(ratio, exactness, dofmap.degree)[1]

    def target(tris, pts):
        fine_tris, shape = _fine_triangles(tris, nx, ratio, local), tris % 2
        pv, pg = _point_fields(field.cell_coefficients(fine_tris), shape,
                               phi_tables, fine.cell_size)
        cells = dofmap.cell_dofs[dofmap.rows_for(fine_tris)]
        fields = [product_rule(pv, pg, *_point_fields(
            ref.coefficients[cells], shape, w_tables, fine.cell_size))[:2]
            for ref in ref_solutions]
        return tuple(np.stack(parts) for parts in zip(*fields))

    kept = np.isin(_fine_triangles(interior, nx, ratio, local),
                   dofmap.triangles).all(axis=1)
    return _relative_errors(solutions, interior[kept], target,
                            "the reference vanishes on the comparison set")


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
