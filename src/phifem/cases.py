"""Built-in benchmark problems.

Each case bundles a level set, a source term, an optional closed-form
solution and a default background box.  The solution gradients and the
sources are written out by hand; the test suite checks them against
finite differences.  A level set needs no gradient: phi enters the
method only through its nodal interpolant.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .levelset import AnalyticField

__all__ = ["Case", "CASES", "get_case"]


@dataclass(frozen=True)
class Case:
    """One benchmark problem on a level-set geometry.

    `outer_data` gives the factor w on any part of the active boundary
    that lies on the background box; it is only needed when the zero set
    does not close up inside the box (see `assemble_system`).
    """

    name: str
    box: tuple[float, float, float, float]
    phi: AnalyticField
    f: AnalyticField
    u_exact: AnalyticField | None
    outer_data: AnalyticField | None = None


def _circle_case() -> Case:
    """Disk of radius sqrt(1/8) centered at (1/2, 1/2) in the unit square.

    The level set is (x-1/2)^2 + (y-1/2)^2 - 1/8, negative inside the disk.
    The manufactured solution u = p * exp(x) sin(2 pi y), with p = -phi,
    vanishes on the circle; f = -lap(u) is expanded by the product rule.
    """
    two_pi = 2.0 * np.pi

    def p(x, y):
        return 0.125 - (x - 0.5) ** 2 - (y - 0.5) ** 2

    def phi(x, y):
        return (x - 0.5) ** 2 + (y - 0.5) ** 2 - 0.125

    def g(x, y):
        return np.exp(x) * np.sin(two_pi * y)

    def u(x, y):
        return p(x, y) * g(x, y)

    def u_grad(x, y):
        pv = p(x, y)
        px, py = -2.0 * (x - 0.5), -2.0 * (y - 0.5)
        gv = g(x, y)
        gvx = gv                               # d/dx exp(x) sin(2 pi y)
        gvy = two_pi * np.exp(x) * np.cos(two_pi * y)
        return px * gv + pv * gvx, py * gv + pv * gvy

    def f(x, y):
        # -lap(p g) = -g lap(p) - 2 grad(p).grad(g) - p lap(g)
        pv = p(x, y)
        gv = g(x, y)
        gvy = two_pi * np.exp(x) * np.cos(two_pi * y)
        lap_g = (1.0 - two_pi ** 2) * gv
        return 4.0 * gv + 4.0 * (x - 0.5) * gv + 4.0 * (y - 0.5) * gvy \
            - pv * lap_g

    return Case(
        name="circle",
        box=(0.0, 0.0, 1.0, 1.0),
        phi=AnalyticField(value=phi),
        f=AnalyticField(value=f),
        u_exact=AnalyticField(value=u, gradient=u_grad),
    )


def _rectangle_case() -> Case:
    """Tilted rectangle given by a product of four line equations.

    The four lines y = pi x +/- pi and y = -x/pi +/- pi bound a rotated
    rectangle; minus their product is negative inside.  No closed-form
    solution; errors are measured against a finer solve.

    The default box is the exact bounding box of the rectangle.  Crossing
    a corner flips two of the four factors at once, so the product keeps
    its sign there: any larger box would add spurious negative wedges
    beyond each corner, reaching the box boundary where the product
    solution is not pinned by the level set.
    """

    def phi(x, y):
        return -((y - np.pi * x - np.pi) * (y + x / np.pi - np.pi)
                 * (y - np.pi * x + np.pi) * (y + x / np.pi + np.pi))

    def f(x, y):
        return np.ones_like(np.asarray(x, dtype=float))

    half_width = 2.0 * np.pi ** 2 / (np.pi ** 2 + 1.0)
    return Case(
        name="rectangle",
        box=(-half_width, -np.pi, half_width, np.pi),
        phi=AnalyticField(value=phi),
        f=AnalyticField(value=f),
        u_exact=None,
    )


def _planted_case() -> Case:
    """Affine level set with a polynomial solution, exact for every degree.

    phi = x - 0.51 cuts the unit square close to a grid line; with
    w = 1 + x + y the product u = phi w satisfies -lap(u) = -2 exactly, so
    any converged solve must reproduce it to rounding.
    """

    def phi(x, y):
        return x - 0.51

    def u(x, y):
        return (x - 0.51) * (1.0 + x + y)

    def u_grad(x, y):
        return (1.0 + x + y) + (x - 0.51), (x - 0.51) * np.ones_like(
            np.asarray(y, dtype=float))

    def f(x, y):
        return np.full_like(np.asarray(x, dtype=float), -2.0)

    def w(x, y):
        return 1.0 + x + y

    return Case(
        name="planted",
        box=(0.0, 0.0, 1.0, 1.0),
        phi=AnalyticField(value=phi),
        f=AnalyticField(value=f),
        u_exact=AnalyticField(value=u, gradient=u_grad),
        outer_data=AnalyticField(value=w),
    )


CASES = {
    "circle": _circle_case(),
    "rectangle": _rectangle_case(),
    "planted": _planted_case(),
}


def get_case(name: str) -> Case:
    try:
        return CASES[name]
    except KeyError:
        raise ValueError(
            f"unknown case {name!r}; choose from {sorted(CASES)}") from None
