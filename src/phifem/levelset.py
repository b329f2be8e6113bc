"""Level-set interpolation and sign-based domain classification.

The geometry enters only through a Lagrange interpolant of the level-set
function on the full background mesh.  A triangle is active when the
interpolant is negative somewhere on it, judged by sampling on a fixed
barycentric lattice; no geometric tolerance or snapping is applied, so
classification is reproducible bit for bit.  `classify_domain` takes the
interpolant alone (its mesh is the field's) and is the one place that
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

from .fem_core import DofMap, _lattice_multi_indices, build_dof_map
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
    """Lagrange interpolant of the level set on the whole background mesh."""

    mesh: BackgroundMesh
    degree: int
    dofmap: DofMap            # covers every triangle of the mesh
    coefficients: np.ndarray  # (n_dofs,) nodal values

    def cell_coefficients(self, tris: np.ndarray) -> np.ndarray:
        """Nodal values per triangle, shape (len(tris), n_local)."""
        return self.coefficients[self.dofmap.cell_dofs[tris]]


def interpolate_levelset(phi: AnalyticField, mesh: BackgroundMesh,
                         degree: int) -> LevelSetField:
    """Interpolate `phi` at the degree-`degree` Lagrange nodes of the mesh."""
    if degree not in (1, 2, 3):
        raise ValueError(f"unsupported level-set degree {degree}")
    dofmap = build_dof_map(mesh, np.arange(mesh.n_triangles), degree)
    coeffs = np.asarray(
        phi.value(dofmap.node_coords[:, 0], dofmap.node_coords[:, 1]),
        dtype=float)
    if coeffs.shape != (dofmap.n_dofs,):
        raise ValueError("level-set callable must return one value per node")
    if not np.isfinite(coeffs).all():
        raise ValueError("level set evaluated to a non-finite value")
    coeffs.setflags(write=False)
    return LevelSetField(mesh=mesh, degree=degree, dofmap=dofmap,
                         coefficients=coeffs)


@dataclass(frozen=True)
class ActiveDomain:
    """Sign classification of the mesh against a level-set interpolant.

    active_triangles : triangles where the interpolant dips below zero.
    cut_triangles : active triangles where it also reaches >= 0.
    ghost_facets : interior facets of the active set with a cut neighbour.
    boundary_facets : facets with exactly one active neighbour.
    boundary_owners : that neighbour, the owner of each boundary facet.

    All five are read-only integer arrays; all but the owners ascend.
    """

    mesh: BackgroundMesh
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


def classify_domain(field: LevelSetField) -> ActiveDomain:
    """Split the level set's mesh into active, cut and outside triangles.

    A triangle is active when the lattice minimum of the interpolant is
    strictly negative, and cut when additionally the lattice maximum is
    nonnegative.  A triangle whose minimum is exactly zero stays inactive.
    Every facet set is read from one (n_facets, 2) lookup of the active
    mask: ghost facets have both neighbours active, boundary facets
    exactly one, and that one owns the facet.
    """
    mesh = field.mesh
    basis = _sign_lattice(field.degree)
    coeffs = field.cell_coefficients(np.arange(mesh.n_triangles))
    # one row per lattice point, (n_lattice, n_triangles): the extremes
    # fold long unit-stride rows, not each triangle's short row
    samples = basis @ coeffs.T
    mins = samples.min(axis=0)
    maxs = samples.max(axis=0)

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
    ghost = np.nonzero(inside.all(axis=1) & touches_cut)[0]
    boundary = np.nonzero(inside[:, 0] != inside[:, 1])[0]
    owners = np.where(inside[boundary, 0], ft[boundary, 0], ft[boundary, 1])

    for arr in (active, cut, ghost, boundary, owners):
        arr.setflags(write=False)
    return ActiveDomain(
        mesh=mesh,
        active_triangles=active,
        cut_triangles=cut,
        ghost_facets=ghost,
        boundary_facets=boundary,
        boundary_owners=owners,
    )
