import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tkgmlp.spline import (
    KnotVector,
    _recursion_basis_matrix,
    basis_derivative_matrix,
    basis_matrix,
    build_knots,
)

from .helpers import bspline_basis, bspline_basis_derivative, from_knots


class TestBuildKnots:
    def test_single_interval_degree_zero(self):
        kv = build_knots(1, 0, (0.0, 1.0))
        assert np.array_equal(kv.knots, [0.0, 1.0])
        assert kv.n_basis == 1

    def test_grid5_cubic(self):
        kv = build_knots(5, 3, (-1.0, 1.0))
        assert kv.knots.size == 12
        np.testing.assert_allclose(kv.knots, np.arange(-2.2, 2.3, 0.4), atol=1e-12)
        assert kv.domain == (-1.0, 1.0)

    def test_basis_count_is_grid_plus_degree(self):
        kv = build_knots(5, 3, (-1.0, 1.0))
        assert kv.n_basis == 8
        assert bspline_basis(0.1, kv).size == 8

    def test_invalid_range(self):
        with pytest.raises(ValueError):
            build_knots(5, 3, (1.0, 1.0))
        with pytest.raises(ValueError):
            build_knots(0, 3, (0.0, 1.0))


class TestDegreeZero:
    def test_indicator(self):
        kv = from_knots([0.0, 1.0], degree=0)
        assert bspline_basis(0.5, kv)[0] == 1.0
        assert bspline_basis(1.5, kv)[0] == 0.0

    def test_right_edge_closed(self):
        kv = from_knots([0.0, 1.0], degree=0)
        assert bspline_basis(1.0, kv)[0] == 1.0

    def test_left_of_domain_zero(self):
        kv = from_knots([0.0, 1.0], degree=0)
        assert bspline_basis(-0.5, kv)[0] == 0.0


class TestHatFunctions:
    def test_apex_value_by_recursion(self):
        # N_{0,1} over knots (0,1,2) evaluated at the apex
        kv = from_knots([0.0, 1.0, 2.0], degree=1)
        assert bspline_basis(1.0, kv)[0] == 1.0

    def test_rising_edge_slope(self):
        kv = build_knots(4, 1, (0.0, 4.0))  # h = 1
        # at u = 0.5 the hat centered on knot 1 is rising
        d = bspline_basis_derivative(0.5, kv)
        assert d[1] == pytest.approx(1.0, abs=1e-12)
        assert d[0] == pytest.approx(-1.0, abs=1e-12)


@pytest.mark.parametrize("grid_size", [5, 10])
class TestCubicIdentities:
    def test_partition_of_unity(self, grid_size):
        kv = build_knots(grid_size, 3, (-1.0, 1.0))
        u = np.linspace(-1.0, 1.0, 1000)
        sums = basis_matrix(u, kv).sum(axis=1)
        np.testing.assert_allclose(sums, 1.0, atol=1e-12)

    def test_non_negative(self, grid_size):
        kv = build_knots(grid_size, 3, (-1.0, 1.0))
        u = np.linspace(-3.0, 3.0, 501)
        assert basis_matrix(u, kv).min() >= 0.0

    def test_local_support(self, grid_size):
        kv = build_knots(grid_size, 3, (-1.0, 1.0))
        t, p = kv.knots, kv.degree
        u = np.linspace(-3.0, 3.0, 601)
        basis = basis_matrix(u, kv)
        for i in range(kv.n_basis):
            outside = (u < t[i]) | (u > t[i + p + 1])
            assert np.all(basis[outside, i] == 0.0)

    def test_derivative_sums_to_zero_inside(self, grid_size):
        kv = build_knots(grid_size, 3, (-1.0, 1.0))
        u = np.linspace(-0.999, 0.999, 777)
        sums = basis_derivative_matrix(u, kv).sum(axis=1)
        assert np.abs(sums).max() < 1e-10


class TestDerivative:
    def test_matches_finite_differences(self):
        kv = build_knots(5, 3, (-1.0, 1.0))
        rng = np.random.default_rng(123)
        u = rng.uniform(-0.99, 0.99, size=100)
        h = 1e-6
        fd = (basis_matrix(u + h, kv) - basis_matrix(u - h, kv)) / (2 * h)
        analytic = basis_derivative_matrix(u, kv)
        scale = np.abs(fd).max()
        assert np.abs(analytic - fd).max() / scale < 1e-6

    def test_degree_zero_derivative_is_zero(self):
        kv = from_knots([0.0, 1.0], degree=0)
        assert np.all(basis_derivative_matrix([0.3, 0.9], kv) == 0.0)


def _oracle_points(kv):
    """Every knot and its float neighbours, both domain ends, points beyond
    the knot span, and random points over and past it."""
    t = kv.knots
    rng = np.random.default_rng(kv.knots.size + 10 * kv.degree)
    return np.concatenate([
        t, np.nextafter(t, -np.inf), np.nextafter(t, np.inf), list(kv.domain),
        [t[0] - 1.0, t[-1] + 1.0, -1e6, 1e6], rng.uniform(t[0] - 0.5, t[-1] + 0.5, 300),
    ])


def _recursion_only(kv):
    """The same knot vector, evaluated by the Cox-de Boor recursion."""
    rkv = KnotVector(kv.knots, kv.degree, kv.domain)
    object.__setattr__(rkv, "_polys", None)
    return rkv


@pytest.mark.parametrize("grid_size", [1, 5, 10])
@pytest.mark.parametrize("degree", [0, 1, 2, 3])
class TestFusedBasisOracle:
    """basis_matrix(..., with_derivative=True) from one cell lookup."""

    def test_equals_separate_calls_bit_for_bit(self, grid_size, degree):
        kv = build_knots(grid_size, degree, (-1.0, 1.0))
        u = _oracle_points(kv)
        basis, deriv = basis_matrix(u, kv, with_derivative=True)
        assert np.array_equal(basis, basis_matrix(u, kv))
        assert np.array_equal(deriv, basis_derivative_matrix(u, kv))
        assert basis.shape == deriv.shape == (u.size, grid_size + degree)

    def test_matches_recursion(self, grid_size, degree):
        kv = build_knots(grid_size, degree, (-1.0, 1.0))
        u = _oracle_points(kv)
        basis, deriv = basis_matrix(u, kv, with_derivative=True)
        rkv = _recursion_only(kv)
        r_deriv = basis_derivative_matrix(u, rkv)
        np.testing.assert_allclose(basis, _recursion_basis_matrix(u, kv), rtol=0.0, atol=1e-13)
        at_b = np.flatnonzero(u == kv.domain[1])
        assert np.allclose(basis[at_b].sum(axis=1), 1.0, rtol=0.0, atol=1e-13)
        beyond = (u < kv.knots[0]) | (u > kv.knots[-1])
        assert np.all(basis[beyond] == 0.0) and np.all(deriv[beyond] == 0.0)
        np.testing.assert_allclose(deriv, r_deriv, rtol=0.0, atol=1e-12)


class TestZeroDenominators:
    def test_repeated_knots_no_nan(self):
        kv = from_knots([0.0, 0.0, 1.0, 1.0], degree=1, domain=(0.0, 1.0))
        vals = basis_matrix(np.linspace(0.0, 1.0, 11), kv)
        assert np.all(np.isfinite(vals))

    def test_repeated_knot_derivative_no_nan(self):
        kv = from_knots([0.0, 0.0, 0.5, 1.0, 1.0], degree=1, domain=(0.0, 1.0))
        vals = basis_derivative_matrix(np.linspace(0.01, 0.99, 9), kv)
        assert np.all(np.isfinite(vals))


class TestKnotVectorValidation:
    def test_decreasing_rejected(self):
        with pytest.raises(ValueError):
            KnotVector(np.array([0.0, 1.0, 0.5]), 0, (0.0, 0.5))

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError):
            KnotVector(np.array([0.0, 1.0]), -1, (0.0, 1.0))

    def test_too_few_knots_rejected(self):
        with pytest.raises(ValueError):
            KnotVector(np.array([0.0, 1.0]), 1, (0.0, 1.0))


@settings(max_examples=60, deadline=None)
@given(
    u=st.floats(min_value=-4.0, max_value=4.0, allow_nan=False),
    grid_size=st.integers(min_value=1, max_value=12),
    degree=st.integers(min_value=0, max_value=4),
)
def test_basis_properties_hold_everywhere(u, grid_size, degree):
    kv = build_knots(grid_size, degree, (-1.0, 1.0))
    vals = bspline_basis(u, kv)
    assert vals.size == grid_size + degree
    assert np.all(vals >= 0.0)
    assert vals.sum() <= 1.0 + 1e-12
    if -1.0 <= u <= 1.0:
        assert vals.sum() == pytest.approx(1.0, abs=1e-12)
