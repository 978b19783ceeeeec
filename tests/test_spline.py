import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tkgmlp.spline import BASIS_BLOCK_POINTS, basis_derivative_matrix, basis_matrix, build_knots

from .helpers import (
    bspline_basis,
    bspline_basis_derivative,
    from_knots,
    one_shot_basis_matrix,
    recursion_basis,
    recursion_derivative,
)


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
        with pytest.raises(ValueError):
            build_knots(5, -1, (0.0, 1.0))

    @pytest.mark.parametrize("degree", [0, 3])
    @pytest.mark.parametrize("domain", [
        (-1e308, 1e308),  # the step overflows
        (0.0, 1e-310),  # 1/step overflows
        (0.0, 5e-324),  # the step is 0
        (1e300, float(np.nextafter(1e300, np.inf))),  # knots round onto each other
    ])
    def test_degenerate_range_rejected(self, domain, degree):
        with pytest.raises(ValueError, match="strictly increasing"):
            build_knots(5, degree, domain)


class TestDegreeZero:
    def test_indicator(self):
        kv = build_knots(1, 0, (0.0, 1.0))
        assert bspline_basis(0.5, kv)[0] == 1.0
        assert bspline_basis(1.5, kv)[0] == 0.0

    def test_right_edge_closed(self):
        kv = build_knots(1, 0, (0.0, 1.0))
        assert bspline_basis(1.0, kv)[0] == 1.0

    def test_left_of_domain_zero(self):
        kv = build_knots(1, 0, (0.0, 1.0))
        assert bspline_basis(-0.5, kv)[0] == 0.0


class TestHatFunctions:
    def test_apex_value_by_recursion(self):
        # N_{0,1} over knots (0,1,2) evaluated at the apex, by the oracle
        # and by the library's hat over the same three knots
        assert recursion_basis([1.0], from_knots([0.0, 1.0, 2.0], degree=1))[0, 0] == 1.0
        assert bspline_basis(1.0, build_knots(2, 1, (0.0, 2.0)))[1] == 1.0

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
        kv = build_knots(1, 0, (0.0, 1.0))
        assert np.all(basis_derivative_matrix([0.3, 0.9], kv) == 0.0)


def _oracle_points(kv, margin=0.5):
    """Every knot and its float neighbours, both domain ends, points beyond
    the knot span, and random points over it and ``margin`` past it."""
    t = kv.knots
    rng = np.random.default_rng(kv.knots.size + 10 * kv.degree)
    return np.concatenate([
        t, np.nextafter(t, -np.inf), np.nextafter(t, np.inf), list(kv.domain),
        [t[0] - 1.0, t[-1] + 1.0, -1e6, 1e6], rng.uniform(t[0] - margin, t[-1] + margin, 300),
    ])


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
        r_basis = recursion_basis(u, kv)
        np.testing.assert_allclose(basis, r_basis, rtol=0.0, atol=1e-13)
        if degree == 0:
            assert np.array_equal(basis, r_basis)
        at_b = np.flatnonzero(u == kv.domain[1])
        assert np.allclose(basis[at_b].sum(axis=1), 1.0, rtol=0.0, atol=1e-13)
        beyond = (u < kv.knots[0]) | (u > kv.knots[-1])
        assert np.all(basis[beyond] == 0.0) and np.all(deriv[beyond] == 0.0)
        np.testing.assert_allclose(deriv, recursion_derivative(u, kv), rtol=0.0, atol=1e-12)

    def test_rounding_skewed_range_matches_recursion(self, grid_size, degree):
        # the knots of (100, 100.01) round off a uniform step, so the per-cell
        # polynomials and the recursion part by rounding only
        kv = build_knots(grid_size, degree, (100.0, 100.01))
        u = _oracle_points(kv, margin=0.005)
        basis, deriv = basis_matrix(u, kv, with_derivative=True)
        assert np.abs(basis - recursion_basis(u, kv)).max() <= 1e-10
        r_deriv = recursion_derivative(u, kv)
        assert np.abs(deriv - r_deriv).max() <= 1e-10 * np.abs(r_deriv).max()


@pytest.mark.parametrize("grid_size", [1, 5, 10])
@pytest.mark.parametrize("degree", [0, 1, 2, 3])
class TestBlocks:
    """``basis_matrix`` in blocks of ``BASIS_BLOCK_POINTS`` points against the
    whole-batch oracle, and far points, which the blocks clip."""

    @pytest.mark.parametrize("n", [0, 1, BASIS_BLOCK_POINTS - 1, BASIS_BLOCK_POINTS,
                                   BASIS_BLOCK_POINTS + 1, 3 * BASIS_BLOCK_POINTS + 7])
    def test_equals_one_shot_bit_for_bit(self, grid_size, degree, n):
        kv = build_knots(grid_size, degree, (-1.0, 1.0))
        u = np.resize(_oracle_points(kv), n)  # the oracle points, cycled
        basis, deriv = basis_matrix(u, kv, with_derivative=True)
        o_basis, o_deriv = one_shot_basis_matrix(u, kv, with_derivative=True)
        assert np.array_equal(basis, o_basis) and np.array_equal(deriv, o_deriv)
        assert np.array_equal(basis_matrix(u, kv), one_shot_basis_matrix(u, kv))
        assert basis.shape == deriv.shape == (n, kv.n_basis)

    def test_far_points_are_zero_without_warning(self, grid_size, degree):
        big = np.finfo(np.float64).max
        far = np.array([4e18, -4e18, 1e308, -1e308, big, -big])
        kv = build_knots(grid_size, degree, (-1.0, 1.0))
        u = np.concatenate([far, [0.3], far])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            basis, deriv = basis_matrix(u, kv, with_derivative=True)
        rows = np.r_[0:6, 7:13]
        assert np.all(basis[rows] == 0.0) and np.all(deriv[rows] == 0.0)
        assert np.array_equal(basis[6], basis_matrix([0.3], kv)[0])


class TestZeroDenominators:
    """The oracle's 0/0 convention on repeated knots, which only it accepts."""

    def test_repeated_knots_no_nan(self):
        kv = from_knots([0.0, 0.0, 1.0, 1.0], degree=1, domain=(0.0, 1.0))
        vals = recursion_basis(np.linspace(0.0, 1.0, 11), kv)
        assert np.all(np.isfinite(vals))

    def test_repeated_knot_derivative_no_nan(self):
        kv = from_knots([0.0, 0.0, 0.5, 1.0, 1.0], degree=1, domain=(0.0, 1.0))
        vals = recursion_derivative(np.linspace(0.01, 0.99, 9), kv)
        assert np.all(np.isfinite(vals))


class TestKnotVectorValidation:
    """The oracle's knot vectors; the library builds its own by build_knots."""

    def test_decreasing_rejected(self):
        with pytest.raises(ValueError):
            from_knots([0.0, 1.0, 0.5], 0, (0.0, 0.5))

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError):
            from_knots([0.0, 1.0], -1, (0.0, 1.0))

    def test_too_few_knots_rejected(self):
        with pytest.raises(ValueError):
            from_knots([0.0, 1.0], 1, (0.0, 1.0))


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
