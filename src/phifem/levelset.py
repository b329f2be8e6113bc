"""Level-set interpolation and sign-based domain classification.

The geometry enters only through a Lagrange interpolant of the level-set
function on the full background mesh.  On the full mesh every node of
the degree-l lattice is in use, so the interpolant keeps only its nodal
values, indexed by lattice code (`fem_core.node_codes`), and reads a
triangle's values at codes computed in closed form from its id: no dof
map is built for it.  At l=2 on the n=640 rectangle that is 12.5 MB
held, against 106 MB with a full-mesh dof map.  A triangle is active
when the interpolant is negative somewhere on it, judged by sampling on
a fixed barycentric lattice; no geometric tolerance or snapping is
applied, so classification is reproducible bit for bit.  The lattice's
order is a multiple of the degree, so it holds every node, where a
sample is the node's value: the nodal minimum and maximum bound the
lattice's.  Only triangles whose nodal values share one sign and lie too
close to zero for a bound on the samples, with a slack for their
rounding, to keep that sign (`_sign_open`) are sampled; each sample is
summed node by node, so it is rounded the same however many triangles
are sampled.  On the n=160 circle that cuts the traced peak of a
classification from 20.1 to 3.6 MiB (l=1) and from 40.8 to 8.2 MiB
(l=3).  `classify_domain` takes the interpolant alone (its mesh is the
field's), the domain it returns keeps it, and it is the one place that
reads facet adjacency: the ghost and boundary facets and the boundary
owners all come from one lookup of the active mask on
`mesh.facet_triangles`.  The facet sets carry ids and owner triangles
only: a facet's length and outward normal follow from its owner's shape
and local facet (`fem_core.facet_frames`).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .fem_core import _DEGREES, _lattice_multi_indices, node_codes
# build_dof_map is not called here, but perfbench/spans.py wraps it
# under this module's name, so the name stays importable from it
# (tests/test_tooling.py checks every name the tracer binds)
from .fem_core import build_dof_map  # noqa: F401
from .mesh import BackgroundMesh

__all__ = [
    "AnalyticField",
    "LevelSetField",
    "ActiveDomain",
    "EmptyActiveSetError",
    "interpolate_levelset",
    "classify_domain",
]


class EmptyActiveSetError(Exception):
    """The level set is nonnegative on every triangle of the mesh."""


@dataclass(frozen=True)
class AnalyticField:
    """A scalar field given by callables vectorized over coordinate arrays.

    `value(x, y)` is required; `gradient(x, y)` returning a pair of arrays
    is optional and only needed where derivatives are consumed.
    """

    value: Callable[[np.ndarray, np.ndarray], np.ndarray]
    gradient: Callable[[np.ndarray, np.ndarray], tuple] | None = None


@dataclass(frozen=True)
class LevelSetField:
    """Lagrange interpolant of the level set on the whole background mesh.

    On the full mesh every node of the degree-`degree` lattice is in
    use, so the field keeps only its nodal values, indexed by lattice
    code (`fem_core.node_codes`): x index first, the numbering a dof map
    over every triangle would give.  A triangle's values are read at its
    codes, computed in closed form from its id, so no dof map is held.
    """

    mesh: BackgroundMesh
    degree: int
    coefficients: np.ndarray  # nodal values, indexed by lattice code

    def cell_coefficients(self, tris: np.ndarray) -> np.ndarray:
        """Nodal values per triangle, shape tris.shape + (n_local,)."""
        return self.coefficients.take(node_codes(self.mesh, tris, self.degree))


def interpolate_levelset(phi: AnalyticField, mesh: BackgroundMesh,
                         degree: int) -> LevelSetField:
    """Interpolate `phi` at the degree-`degree` Lagrange nodes of the mesh,
    in code order: node by node, x index first, at the coordinates
    `build_dof_map` gives a node, box corner plus key times cell size
    over degree."""
    if degree not in _DEGREES:
        raise ValueError(f"unsupported level-set degree {degree}")
    nx, ny = mesh.n_cells
    xmin, ymin, _, _ = mesh.box
    dx, dy = mesh.cell_size
    x = np.repeat(xmin + np.arange(degree * nx + 1) * (dx / degree),
                  degree * ny + 1)
    y = np.tile(ymin + np.arange(degree * ny + 1) * (dy / degree),
                degree * nx + 1)
    coeffs = np.asarray(phi.value(x, y), dtype=float)
    if coeffs.shape != x.shape:
        raise ValueError("level-set callable must return one value per node")
    if not np.isfinite(coeffs).all():
        raise ValueError("level set evaluated to a non-finite value")
    coeffs.setflags(write=False)
    return LevelSetField(mesh=mesh, degree=degree, coefficients=coeffs)


@dataclass(frozen=True)
class ActiveDomain:
    """Sign classification of the mesh against a level-set interpolant.

    field : the interpolant classified; its mesh is the domain's.
    active_triangles : triangles where the interpolant dips below zero.
    cut_triangles : active triangles where it also reaches >= 0.
    ghost_facets : interior facets of the active set with a cut neighbour.
    boundary_facets : facets with exactly one active neighbour.
    boundary_owners : that neighbour, the owner of each boundary facet.

    The five sets are read-only integer arrays; all but the owners
    ascend.
    """

    field: LevelSetField
    active_triangles: np.ndarray
    cut_triangles: np.ndarray
    ghost_facets: np.ndarray
    boundary_facets: np.ndarray
    boundary_owners: np.ndarray


@lru_cache(maxsize=None)
def _sign_lattice(degree: int) -> np.ndarray:
    """Basis values on the sign-sampling lattice of order max(4*degree, 8),
    each rounded once from its exact value.

    This is the closed form that `fem_core.tabulate` evaluates in
    floating point, evaluated exactly: at lattice point c / order the
    basis function of node alpha is
    prod_i prod_{j < alpha_i} (degree c_i - j order) / ((j + 1) order),
    so its numerator and denominator are integers, multiplied exactly.
    """
    order = max(4 * degree, 8)
    points = _lattice_multi_indices(order)[:, None, :]        # (P, 1, 3)
    nodes = _lattice_multi_indices(degree)                    # (n, 3)
    num = np.ones((len(points), len(nodes)), dtype=np.int64)
    den = np.ones(len(nodes), dtype=np.int64)
    for j in range(degree):
        factor = nodes > j
        num *= np.where(factor, degree * points - j * order, 1).prod(axis=-1)
        den *= np.where(factor, (j + 1) * order, 1).prod(axis=-1)
    values = num / den
    values.setflags(write=False)
    return values


def _sign_open(basis: np.ndarray, mins: np.ndarray, maxs: np.ndarray
               ) -> np.ndarray:
    """Triangles whose lattice signs the nodal extremes leave open.

    `basis` is a `_sign_lattice` table and mins, maxs the nodal minimum
    and maximum of each triangle.  The lattice holds every node, where
    the basis is exactly 0 or 1, so the lattice minimum is at most the
    nodal one and the maximum at least the nodal one: a triangle with
    nodal values of both signs is active and cut.  On the others, with
    P_i and N_i the sums of the positive and negative parts of row i of
    the basis, every coefficient in [c_min, c_max] and c_min >= 0, a
    sample is at least c_min (P_i - N_i) - (c_max - c_min) N_i; mirrored
    when c_max < 0.  Where that bound clears a slack for the rounding of
    the samples and of the bound itself (of order n_local eps times the
    largest |coefficient| times max_i (P_i + N_i), plus a few subnormals
    for products that underflow), every sample has the sign of the
    nodes.  The rest are open.
    """
    pos = np.maximum(basis, 0.0).sum(axis=1)
    neg = np.maximum(-basis, 0.0).sum(axis=1)
    n_local = basis.shape[1]
    tiny = np.finfo(float).smallest_subnormal
    one_signed = (mins >= 0.0) | (maxs < 0.0)
    # the coefficient of least magnitude, for either sign
    least = np.where(mins >= 0.0, mins, -maxs)
    slack = (4 * n_local * np.finfo(float).eps * (pos + neg).max()
             * np.maximum(np.abs(mins), np.abs(maxs)) + 2 * n_local * tiny)
    bound = least * (pos - neg).min() - (maxs - mins) * neg.max()
    return one_signed & ~(bound > slack)


def classify_domain(field: LevelSetField) -> ActiveDomain:
    """Split the level set's mesh into active, cut and outside triangles.

    A triangle is active when the lattice minimum of the interpolant is
    strictly negative, and cut when additionally the lattice maximum is
    nonnegative.  A triangle whose minimum is exactly zero stays inactive.
    The lattice is sampled only on triangles whose nodal values leave
    those two signs open (`_sign_open`); on the rest the nodal extremes
    decide them.  Every facet set is read from one (n_facets, 2) lookup
    of the active mask: ghost facets have both neighbours active,
    boundary facets exactly one, and that one owns the facet.
    """
    mesh = field.mesh
    basis = _sign_lattice(field.degree)
    coeffs = field.cell_coefficients(np.arange(mesh.n_triangles))
    # running extremes over the columns: a reduction along rows of a few
    # nodes is many times slower, and both are exact
    mins, maxs = coeffs[:, 0].copy(), coeffs[:, 0].copy()
    for node in range(1, coeffs.shape[1]):
        np.minimum(mins, coeffs[:, node], out=mins)
        np.maximum(maxs, coeffs[:, node], out=maxs)
    sampled = np.flatnonzero(_sign_open(basis, mins, maxs))
    # one row per lattice point, (n_lattice, n_sampled), summed node by
    # node: a sample is rounded the same whichever triangles are sampled
    picked = coeffs[sampled].T
    samples = basis[:, :1] * picked[0]
    for node in range(1, basis.shape[1]):
        samples += basis[:, node, None] * picked[node]
    mins[sampled] = samples.min(axis=0)
    maxs[sampled] = samples.max(axis=0)

    active_mask = mins < 0.0
    if not active_mask.any():
        raise EmptyActiveSetError("level set is nonnegative on every triangle")
    active = np.nonzero(active_mask)[0]
    cut = np.nonzero(active_mask & (maxs >= 0.0))[0]

    # one slot more than triangles: a missing neighbour (-1) reads False
    ft = mesh.facet_triangles
    inside = np.append(active_mask, False)[ft]
    touches_cut = np.zeros(mesh.n_facets, dtype=bool)
    touches_cut[mesh.triangle_facets[cut].ravel()] = True
    ghost = np.nonzero(inside[:, 0] & inside[:, 1] & touches_cut)[0]
    boundary = np.nonzero(inside[:, 0] != inside[:, 1])[0]
    owners = np.where(inside[boundary, 0], ft[boundary, 0], ft[boundary, 1])

    for arr in (active, cut, ghost, boundary, owners):
        arr.setflags(write=False)
    return ActiveDomain(
        field=field,
        active_triangles=active,
        cut_triangles=cut,
        ghost_facets=ghost,
        boundary_facets=boundary,
        boundary_owners=owners,
    )
