"""Fictitious-domain finite elements for Poisson problems on level-set
geometries, with the Dirichlet condition imposed through a product ansatz
on a simple background mesh."""

from .analysis import (ErrorReport, ProductSolution, compute_errors,
                       compute_errors_vs_reference, estimated_orders,
                       make_solution)
from .assembly import SparseSystem, assemble_ghost_part, assemble_system
from .cases import CASES, Case, get_case
from .fem_core import (DofMap, QuadratureRule, build_dof_map,
                       edge_quadrature, quadrature_degrees, tabulate,
                       triangle_quadrature)
from .levelset import (ActiveDomain, AnalyticField, EmptyActiveSetError,
                       LevelSetField, classify_domain, interpolate_levelset)
from .linalg import (ConditionEstimate, NoConvergenceError, SingularMatrixError,
                     SolverReport, estimate_condition_number, solve)
from .mesh import BackgroundMesh, build_background_mesh, locate_points

__version__ = "0.1.0"
