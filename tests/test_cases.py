"""Consistency checks for the built-in benchmark problems.

Hand-written gradients and source terms are compared against central
finite differences of the corresponding values, and the geometric
landmarks of each level set are pinned down explicitly.
"""
import numpy as np
import pytest

from phifem.cases import CASES, get_case


def _sample_points(box, n=200, seed=20240915):
    rng = np.random.default_rng(seed)
    x = rng.uniform(box[0], box[2], size=n)
    y = rng.uniform(box[1], box[3], size=n)
    return x, y


def _check_gradient(field, x, y, eps=1e-6):
    gx, gy = field.gradient(x, y)
    fd_x = (field.value(x + eps, y) - field.value(x - eps, y)) / (2 * eps)
    fd_y = (field.value(x, y + eps) - field.value(x, y - eps)) / (2 * eps)
    scale = 1.0 + max(np.abs(fd_x).max(), np.abs(fd_y).max())
    np.testing.assert_allclose(gx, fd_x, rtol=0, atol=1e-6 * scale)
    np.testing.assert_allclose(gy, fd_y, rtol=0, atol=1e-6 * scale)


def _fd_laplacian(value, x, y, eps=1e-4):
    return (value(x + eps, y) + value(x - eps, y) + value(x, y + eps)
            + value(x, y - eps) - 4.0 * value(x, y)) / eps ** 2


@pytest.mark.parametrize("name", ["circle", "planted"])
def test_exact_solution_gradient_matches_fd(name):
    case = get_case(name)
    x, y = _sample_points(case.box)
    _check_gradient(case.u_exact, x, y)


@pytest.mark.parametrize("name", ["circle", "planted"])
def test_source_is_minus_laplacian_of_solution(name):
    case = get_case(name)
    x, y = _sample_points(case.box, n=100)
    lap = _fd_laplacian(case.u_exact.value, x, y)
    scale = 1.0 + np.abs(lap).max()
    np.testing.assert_allclose(case.f.value(x, y), -lap, rtol=0,
                               atol=1e-5 * scale)


def test_circle_signs_and_zero_set():
    case = get_case("circle")
    assert case.phi.value(0.5, 0.5) < 0          # center is inside
    assert case.phi.value(0.0, 0.0) > 0          # corner is outside
    r = np.sqrt(0.125)
    theta = np.linspace(0.0, 2.0 * np.pi, 17)
    on_circle = case.phi.value(0.5 + r * np.cos(theta),
                               0.5 + r * np.sin(theta))
    np.testing.assert_allclose(on_circle, 0.0, rtol=0, atol=1e-14)
    u_on_circle = case.u_exact.value(0.5 + r * np.cos(theta),
                                     0.5 + r * np.sin(theta))
    np.testing.assert_allclose(u_on_circle, 0.0, rtol=0, atol=1e-14)


def test_rectangle_corners_and_signs():
    case = get_case("rectangle")
    xc = 2.0 * np.pi ** 2 / (np.pi ** 2 + 1.0)
    yc = (np.pi ** 3 - np.pi) / (np.pi ** 2 + 1.0)
    corners = [(0.0, np.pi), (0.0, -np.pi), (xc, yc), (-xc, -yc)]
    for x, y in corners:
        assert abs(case.phi.value(x, y)) <= 1e-12
    # the mirrored points are off the zero set: the shape is a tilted
    # rectangle, not an axis-aligned hexagon
    assert case.phi.value(xc, -yc) > 1.0
    assert case.phi.value(-xc, yc) > 1.0
    assert case.phi.value(0.0, 0.0) < 0          # interior
    assert case.phi.value(1.5, 0.0) > 0          # inside box, outside shape


def test_rectangle_box_is_tight():
    # The bounding box of the shape: any margin beyond it would admit
    # spurious negative wedges past the corners, where the product of the
    # four line equations goes negative again.
    case = get_case("rectangle")
    xc = 2.0 * np.pi ** 2 / (np.pi ** 2 + 1.0)
    np.testing.assert_allclose(case.box, (-xc, -np.pi, xc, np.pi),
                               rtol=0, atol=1e-15)
    # just beyond each extreme corner the level set is negative again
    yc = (np.pi ** 3 - np.pi) / (np.pi ** 2 + 1.0)
    assert case.phi.value(xc + 0.05, yc) < 0
    assert case.phi.value(0.0, np.pi + 0.1) < 0


def test_planted_case_fields():
    case = get_case("planted")
    assert case.outer_data is not None
    x, y = _sample_points(case.box, n=50)
    np.testing.assert_allclose(case.outer_data.value(x, y), 1.0 + x + y,
                               rtol=0, atol=1e-15)
    np.testing.assert_allclose(case.u_exact.value(x, y),
                               case.phi.value(x, y) * (1.0 + x + y),
                               rtol=0, atol=1e-15)
    np.testing.assert_allclose(case.f.value(x, y), -2.0, rtol=0, atol=0)


def test_fields_are_vectorized():
    for name in CASES:
        case = get_case(name)
        x = np.linspace(case.box[0], case.box[2], 12).reshape(3, 4)
        y = np.linspace(case.box[1], case.box[3], 12).reshape(3, 4)
        assert case.phi.value(x, y).shape == (3, 4)
        assert case.f.value(x, y).shape == (3, 4)
        if case.u_exact is not None:
            assert case.u_exact.value(x, y).shape == (3, 4)


def test_get_case_rejects_unknown_name():
    with pytest.raises(ValueError):
        get_case("pentagon")
    assert get_case("circle") is CASES["circle"]
