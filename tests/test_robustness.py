"""The paper's claims wherever the zero set slices the grid.

phiFEM promises optimal errors and a condition number of the order of a
standard finite element method's, with no condition on how the boundary
cuts the mesh.  These properties move and resize the disk of the
`circle` case against a fixed 20 x 20 grid and ask that, at sigma = 20,
kappa h^2 and the relative H1 and L2 errors stay within a band of their
median over reference geometries, for k = 1..3.  Without the ghost
penalty (sigma = 0) the same moves make kappa h^2 spread by orders of
magnitude, which shows that the bands test what the penalty buys.

The disk of radius r is the circle case pulled back by an affine map of
ratio s = sqrt(1/8) / r, so its relative errors on the grid of size h
are those of the circle case on a grid of size s h.  The errors are
compared after dividing out the optimal rates s^k (H1) and s^(k+1)
(L2); what is left depends only on where the boundary cuts.  kappa h^2
is compared as it is: at these sizes it has not reached its h^-2 rate
(it still falls from n=20 to n=40), and dividing by s^-2 widened its
spread.  For the same reason every property compares geometries at one
(k, n) only.
"""
from functools import lru_cache

import numpy as np
from hypothesis import given, settings, strategies as st

from phifem.analysis import compute_errors, make_solution
from phifem.assembly import assemble_system
from phifem.cases import Case, get_case
from phifem.levelset import AnalyticField, classify_domain, \
    interpolate_levelset
from phifem.linalg import estimate_condition_number, solve
from phifem.mesh import build_background_mesh

N = 20
SIGMA = 20.0
CIRCLE = get_case("circle")
CIRCLE_RADIUS = np.sqrt(0.125)

# Allowed ratio value / median at sigma = 20, per quantity, set from the
# ratios measured on the reference geometries and on every example the
# property draws (kappa h^2 0.74..1.43, H1 0.88..1.28, L2 0.78..1.51).
BANDS = {"kappa_h2": (0.5, 2.0), "h1": (2 / 3, 1.5), "l2": (0.5, 2.0)}


def shifted_disk(shift, radius) -> Case:
    """The circle case moved by `shift` and scaled to `radius`: each field
    is u_r(x) = u(c + s (x - shift - c)), c = (1/2, 1/2) and s the ratio
    of the circle's radius to `radius`, so gradients gain a factor s and
    the source s^2."""
    s = CIRCLE_RADIUS / radius

    def pull(x, y):
        return (0.5 + s * (x - shift[0] - 0.5),
                0.5 + s * (y - shift[1] - 0.5))

    def u_grad(x, y):
        gx, gy = CIRCLE.u_exact.gradient(*pull(x, y))
        return s * gx, s * gy

    return Case(
        name="shifted-disk", box=CIRCLE.box,
        phi=AnalyticField(value=lambda x, y: CIRCLE.phi.value(*pull(x, y))),
        f=AnalyticField(
            value=lambda x, y: s * s * CIRCLE.f.value(*pull(x, y))),
        u_exact=AnalyticField(
            value=lambda x, y: CIRCLE.u_exact.value(*pull(x, y)),
            gradient=u_grad))


def measure(k, shift_cells, radius, sigma, errors=True):
    """kappa h^2 of one system on the N x N grid, the disk moved by
    `shift_cells` cells and scaled to `radius`, and, if asked, the
    relative H1 and L2 errors of its solve over s^k and s^(k+1)."""
    mesh = build_background_mesh(CIRCLE.box, (N, N))
    case = shifted_disk(np.asarray(shift_cells) / N, radius)
    field = interpolate_levelset(case.phi, mesh, k)
    domain = classify_domain(field, mesh)
    system = assemble_system(domain, field, case.f, k, sigma)
    out = {"kappa_h2": estimate_condition_number(system).kappa * mesh.h ** 2}
    if errors:
        s = CIRCLE_RADIUS / radius
        solution = make_solution(system, field, solve(system).x)
        report = compute_errors([solution], case.u_exact, domain)[0]
        out.update(h1=report.rel_h1_semi / s ** k,
                   l2=report.rel_l2 / s ** (k + 1))
    return out


# reference geometries: shifts in [-1/2, 1/2]^2 cells, radii in [0.3, 0.4]
_REFERENCE = [((sx, sy), r) for (sx, sy, r) in zip(
    (-0.5, 0.5, -0.5, 0.5, 0.0, 0.25, -0.25, 0.1, -0.4),
    (-0.5, -0.5, 0.5, 0.5, 0.0, -0.1, 0.35, 0.45, -0.2),
    (0.30, 0.32, 0.34, 0.36, 0.38, 0.40, 0.31, 0.35, 0.39))]


@lru_cache(maxsize=None)
def reference_medians(k):
    samples = [measure(k, shift, r, SIGMA) for shift, r in _REFERENCE]
    return {key: float(np.median([s[key] for s in samples]))
            for key in BANDS}


@settings(max_examples=40, derandomize=True, deadline=None)
@given(k=st.integers(1, 3),
       shift=st.tuples(st.floats(-0.5, 0.5), st.floats(-0.5, 0.5)),
       radius=st.floats(0.30, 0.40))
def test_penalized_disk_is_robust_to_where_the_boundary_cuts(k, shift,
                                                             radius):
    medians = reference_medians(k)
    measured = measure(k, shift, radius, SIGMA)
    for key, (lo, hi) in BANDS.items():
        ratio = measured[key] / medians[key]
        assert lo <= ratio <= hi, (key, k, shift, radius, ratio)


def test_unpenalized_conditioning_depends_on_where_the_boundary_cuts():
    # the contrast of the property above: at sigma = 0 the same kind of
    # moves spread kappa h^2 by at least 10x for every k
    shifts = [(-0.5, -0.5), (0.0, 0.0), (0.5, -0.3), (0.3, -0.2),
              (-0.45, 0.15), (0.2, 0.4)]
    for k in (1, 2, 3):
        kappa = [measure(k, shift, CIRCLE_RADIUS, 0.0, errors=False)
                 ["kappa_h2"] for shift in shifts]
        assert max(kappa) / min(kappa) >= 10.0, (k, kappa)
