import json
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tkgmlp import encoders
from tkgmlp.data import SyntheticColumnSpec
from tkgmlp.encoders import (
    TRANSFORM_BLOCK_ROWS,
    BinSpec,
    DegenerateFeatureError,
    DomainError,
    EncoderSpec,
    StandardizeSpec,
    clr_encode,
    fit_bins,
    fit_one_hot,
    fit_standardize,
    one_hot_encode,
    ple_encode,
    qle_encode,
    quantile_encode,
    standardize,
)

from .helpers import per_column_fit, per_column_transform, two_sample_ks

FIXTURE = BinSpec(np.array([0.0, 1.0, 2.0, 4.0]))


class TestFitBins:
    def test_quantiles_with_linear_interpolation(self):
        spec = fit_bins(np.arange(1.0, 101.0), 4)
        np.testing.assert_allclose(spec.boundaries, [1.0, 25.75, 50.5, 75.25, 100.0])

    def test_single_bin_is_min_max(self):
        spec = fit_bins([3.0, 1.0, 2.0], 1)
        np.testing.assert_allclose(spec.boundaries, [1.0, 3.0])

    def test_zero_inflated_merges_duplicates(self):
        rng = np.random.default_rng(0)
        values = np.where(rng.random(5000) < 0.9, 0.0, rng.poisson(50, 5000)).astype(float)
        spec = fit_bins(values, 10)
        assert spec.n < 10
        assert np.all(np.diff(spec.boundaries) > 0.0)

    def test_constant_feature_rejected(self):
        with pytest.raises(DegenerateFeatureError):
            fit_bins(np.full(10, 2.2), 4)

    def test_invalid_n_bins(self):
        with pytest.raises(ValueError):
            fit_bins([1.0, 2.0], 0)


class TestQle:
    def test_fixture_midpoint(self):
        # bin 1 of 3, halfway through [1, 2): 1/3 + (1/3)(0.5/1)
        assert qle_encode(1.5, FIXTURE) == pytest.approx(0.5, abs=1e-15)

    def test_endpoints(self):
        assert qle_encode(0.0, FIXTURE) == 0.0
        assert qle_encode(4.0, FIXTURE) == 1.0

    def test_interior_boundaries_hit_i_over_n(self):
        assert qle_encode(1.0, FIXTURE) == pytest.approx(1.0 / 3.0, abs=1e-15)
        assert qle_encode(2.0, FIXTURE) == pytest.approx(2.0 / 3.0, abs=1e-15)

    def test_clamps_outside(self):
        assert qle_encode(-5.0, FIXTURE) == 0.0
        assert qle_encode(99.0, FIXTURE) == 1.0

    def test_continuous_across_boundary(self):
        eps = 1e-9
        below = qle_encode(2.0 - eps, FIXTURE)
        at = qle_encode(2.0, FIXTURE)
        above = qle_encode(2.0 + eps, FIXTURE)
        assert below <= at <= above
        assert above - below < 1e-8


class TestPle:
    def test_fixture_vector(self):
        np.testing.assert_allclose(ple_encode(1.5, FIXTURE), [1.0, 0.5, 0.0])

    def test_below_all_zeros(self):
        assert np.all(ple_encode(-1.0, FIXTURE) == 0.0)

    def test_above_all_ones(self):
        assert np.all(ple_encode(4.0, FIXTURE) == 1.0)
        assert np.all(ple_encode(10.0, FIXTURE) == 1.0)

    def test_components_non_decreasing_in_x(self):
        xs = np.linspace(-1.0, 5.0, 200)
        mat = ple_encode(xs, FIXTURE)
        assert np.all(np.diff(mat, axis=0) >= -1e-15)

    def test_output_length_is_effective_n(self):
        assert ple_encode(1.0, FIXTURE).shape == (3,)


class TestFloatRangeEdges:
    """Bins wider than the float range, and bins of subnormal width. No point
    outside its bin is divided, so no numpy warning may fire."""

    WIDE = BinSpec(np.array([-1e308, 1e308]))  # width 2e308 overflows

    @pytest.fixture(autouse=True)
    def _warnings_are_errors(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            yield

    def test_qle_across_a_bin_wider_than_the_floats(self):
        assert [qle_encode(x, self.WIDE) for x in (-1e308, 0.0, 5e307, 1e308)] == [0.0, 0.5, 0.75, 1.0]

    def test_ple_across_a_bin_wider_than_the_floats(self):
        out = ple_encode(np.array([-1e308, 0.0, 5e307, 1e308]), self.WIDE)
        assert out[:, 0].tolist() == [0.0, 0.5, 0.75, 1.0]

    def test_far_points_beside_narrower_bins(self):
        # every width is finite, but x - b_i overflows for the far bins
        spec = BinSpec(np.array([-1e308, -9e307, 0.0, 1e308]))
        assert ple_encode(1e308, spec).tolist() == [1.0, 1.0, 1.0]
        assert ple_encode(-1e308, spec).tolist() == [0.0, 0.0, 0.0]
        assert qle_encode(1e308, spec) == 1.0

    def test_subnormal_bin_width(self):
        tiny = 1.1125369292536007e-308
        spec = BinSpec(np.array([0.0, tiny, 1.0, 2.0]))
        assert ple_encode(2.0, spec).tolist() == [1.0, 1.0, 1.0]
        assert ple_encode(tiny / 2, spec).tolist() == [0.5, 0.0, 0.0]
        assert qle_encode(5.0, spec) == 1.0
        assert qle_encode(tiny / 2, spec) == 0.5 / 3

    def test_fit_bins_over_a_range_wider_than_the_floats(self):
        spec = fit_bins(np.array([-1e308, 1e308]), 4)
        assert spec.boundaries.tolist() == (np.array([-1.0, -0.5, 0.0, 0.5, 1.0]) * 1e308).tolist()


class TestQuantile:
    def test_fixture_bin_index(self):
        assert quantile_encode(1.5, FIXTURE) == pytest.approx(1.0 / 3.0)

    def test_first_bin_is_zero(self):
        assert quantile_encode(0.5, FIXTURE) == 0.0
        assert quantile_encode(-3.0, FIXTURE) == 0.0

    def test_clamped_above(self):
        assert quantile_encode(100.0, FIXTURE) == pytest.approx(2.0 / 3.0)

    def test_qle_minus_quantile_bounded(self):
        xs = np.linspace(0.0, 4.0, 400)
        diff = qle_encode(xs, FIXTURE) - quantile_encode(xs, FIXTURE)
        assert np.all(diff >= -1e-15)
        assert np.all(diff <= 1.0 / FIXTURE.n + 1e-15)


class TestClr:
    def test_all_ones(self):
        np.testing.assert_allclose(clr_encode([1.0, 1.0, 1.0]), 0.0, atol=1e-15)

    def test_pair(self):
        out = clr_encode([1.0, 4.0])
        np.testing.assert_allclose(out, [-np.log(2.0), np.log(2.0)], atol=1e-15)

    def test_rows_sum_to_zero(self):
        rows = np.random.default_rng(0).uniform(0.1, 50.0, size=(20, 6))
        assert np.abs(clr_encode(rows).sum(axis=1)).max() < 1e-10

    def test_non_positive_rejected(self):
        with pytest.raises(DomainError):
            clr_encode([1.0, 0.0])


class TestBaselines:
    def test_constant_column_zeros(self):
        spec = fit_standardize(np.full(9, 4.0))
        assert np.all(standardize(np.array([4.0, 5.0]), spec) == 0.0)

    def test_standardized_moments(self):
        values = np.random.default_rng(1).normal(3.0, 2.0, size=500)
        spec = fit_standardize(values)
        out = standardize(values, spec)
        assert out.mean() == pytest.approx(0.0, abs=1e-12)
        assert out.std() == pytest.approx(1.0, abs=1e-12)

    def test_one_hot_with_unknown_slot(self):
        spec = fit_one_hot([2.0, 0.0, 1.0, 1.0])
        assert spec.width == 4
        out = one_hot_encode([0.0, 1.0, 2.0, 9.0], spec)
        assert out.shape == (4, 4)
        np.testing.assert_array_equal(out.sum(axis=1), 1.0)
        assert out[3, 3] == 1.0  # unseen category lands in the unknown slot


@settings(max_examples=80, deadline=None)
@given(
    data=st.lists(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        min_size=5,
        max_size=60,
        unique=True,
    ),
    n_bins=st.integers(min_value=1, max_value=16),
    x=st.floats(min_value=-2e6, max_value=2e6, allow_nan=False),
)
@example(data=[0.0, 1.0, 2.0, 3.0, 1.1125369292536007e-308], n_bins=4, x=2.0)  # subnormal bin width
def test_qle_properties(data, n_bins, x):
    spec = fit_bins(np.array(data), n_bins)
    v = qle_encode(x, spec)
    assert 0.0 <= v <= 1.0
    # non-decreasing against a nearby point
    assert qle_encode(x + 1.0, spec) >= v
    # PLE width and monotone components
    ple = ple_encode(x, spec)
    assert ple.shape == (spec.n,)
    assert np.all(ple >= 0.0) and np.all(ple <= 1.0)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31))
def test_quantile_rank_invariance(seed):
    # bin membership only depends on ranks, so any strictly monotone
    # pre-transform leaves Quantile(fit(x)) unchanged
    rng = np.random.default_rng(seed)
    values = rng.normal(size=50)
    transformed = np.exp(0.5 * values)  # strictly increasing map
    spec_raw = fit_bins(values, 8)
    spec_t = fit_bins(transformed, 8)
    q_raw = quantile_encode(values, spec_raw)
    q_t = quantile_encode(np.exp(0.5 * values), spec_t)
    np.testing.assert_allclose(q_raw, q_t, atol=1e-12)


class TestUniformization:
    N_SAMPLES = 30_000
    N_BINS = 64

    @pytest.mark.parametrize(
        "column",
        [
            SyntheticColumnSpec.gaussian(0.0, 1.0),
            SyntheticColumnSpec.exponential(1.0),
            SyntheticColumnSpec.beta(0.5, 0.5),
            # a zero atom of mass pi shifts the encoded ECDF by pi, and a
            # coarse Poisson (large pmf atoms) breaks the equal-frequency
            # grid after duplicate merging, so pi and the granularity must
            # stay inside the 2/n_bins budget
            SyntheticColumnSpec.zip(0.01, 500.0),
        ],
        ids=lambda c: c.family,
    )
    def test_qle_uniformizes_training_sample(self, column):
        values = column.sample(self.N_SAMPLES, np.random.default_rng(7))
        spec = fit_bins(values, self.N_BINS)
        encoded = qle_encode(values, spec)
        grid = np.linspace(0.0, 1.0, self.N_SAMPLES)
        sampling = np.sqrt(2.0 / self.N_SAMPLES)
        assert two_sample_ks(encoded, grid) <= 2.0 / self.N_BINS + 3.0 * sampling


class TestEncoderSpec:
    def make_features(self, n=200, seed=0):
        rng = np.random.default_rng(seed)
        return np.column_stack([
            rng.normal(size=n),
            rng.exponential(2.0, size=n),
            rng.integers(0, 3, size=n).astype(float),
        ])

    @pytest.mark.parametrize("kind", ["qle", "ple", "quantile", "clr", "standardize"])
    def test_fit_transform_finite(self, kind):
        x = self.make_features()
        spec = EncoderSpec.fit(x, kind=kind, n_bins=8)
        out = spec.transform(x)
        assert np.all(np.isfinite(out))
        assert out.shape[0] == x.shape[0]
        assert out.shape[1] == spec.output_dim

    @pytest.mark.parametrize("kind", ["qle", "ple", "quantile", "clr", "standardize"])
    def test_row_blocks_equal_whole_transform(self, kind):
        x = self.make_features(n=203)
        x[[3, 50, 202], 0] = np.nan
        x[[7, 120], 2] = np.nan
        spec = EncoderSpec.fit(x, kind=kind, n_bins=8, categorical_columns=[2])
        whole = spec.transform(x)
        for step in (1, 7, 64, 203):
            blocks = [spec.transform(x[lo:lo + step]) for lo in range(0, len(x), step)]
            assert np.concatenate(blocks).tobytes() == whole.tobytes()

    def test_unseen_values_never_nan(self):
        x = self.make_features()
        spec = EncoderSpec.fit(x, kind="qle", n_bins=8)
        wild = self.make_features(seed=99) * 100.0
        assert np.all(np.isfinite(spec.transform(wild)))

    def test_categorical_one_hot_block(self):
        x = self.make_features()
        spec = EncoderSpec.fit(x, kind="qle", n_bins=8, categorical_columns=[2])
        out = spec.transform(x)
        n_cats = spec.categorical[2].width
        assert out.shape[1] == 2 + n_cats
        hot = out[:, 2:]
        np.testing.assert_array_equal(hot.sum(axis=1), 1.0)

    def test_missing_values_imputed_with_train_median(self):
        x = self.make_features()
        x[5, 0] = np.nan
        spec = EncoderSpec.fit(x, kind="standardize")
        med = np.median(x[np.isfinite(x[:, 0]), 0])
        assert spec.medians[0] == pytest.approx(med)
        out = spec.transform(x)
        expected = standardize(np.array([med]), spec.standardizers[0])[0]
        assert out[5, 0] == pytest.approx(expected)

    def test_degenerate_column_passes_through_as_zeros(self):
        x = self.make_features()
        x[:, 1] = 7.0
        spec = EncoderSpec.fit(x, kind="qle", n_bins=8)
        out = spec.transform(x)
        assert np.all(out[:, 1] == 0.0)

    def test_clr_domain_error_on_far_unseen(self):
        x = np.abs(self.make_features()) + 0.5
        spec = EncoderSpec.fit(x, kind="clr")
        bad = x.copy()
        bad[[3, 4], [1, 0]] = -100.0
        # the first bad cell in row-major order, rows counted as in the CSV
        with pytest.raises(DomainError, match=r"^row 5, column 'x1', value -100.0 is not positive after the CLR shift 0.0$"):
            spec.transform(bad)
        with pytest.raises(DomainError, match=r"^row 15, column 'x1', value -100.0 "):
            spec.transform(bad, row_offset=10)

    def test_non_finite_output_names_the_cell(self):
        x = self.make_features()
        x[:, :2] *= 1e-150  # standard deviations near 1e-150
        spec = EncoderSpec.fit(x, kind="standardize", categorical_columns=[2])
        bad = x.copy()
        bad[[7, 8], [1, 0]] = 1e300
        with pytest.warns(RuntimeWarning, match="overflow"):
            with pytest.raises(ValueError, match=r"non-finite output from row 9, column 'x1', value 1e\+300$"):
                spec.transform(bad)

    def test_clr_with_only_categorical_columns(self):
        x = self.make_features()[:, [2, 2]]
        spec = EncoderSpec.fit(x, kind="clr", categorical_columns=[0, 1])
        out = spec.transform(x)
        assert out.shape == (x.shape[0], spec.output_dim)
        np.testing.assert_array_equal(out.sum(axis=1), 2.0)

    def test_ple_width_accounting(self):
        x = self.make_features()
        spec = EncoderSpec.fit(x, kind="ple", n_bins=6)
        out = spec.transform(x)
        expected = sum(spec.bins[j].n for j in spec.numeric_columns if j in spec.bins)
        assert out.shape[1] == expected
        assert len(spec.output_names) == expected

    def test_roundtrip_through_dict_is_exact(self):
        x = self.make_features()
        spec = EncoderSpec.fit(x, kind="qle", n_bins=8, categorical_columns=[2])
        clone = EncoderSpec.from_dict(spec.to_dict())
        assert np.array_equal(spec.transform(x), clone.transform(x))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            EncoderSpec.fit(self.make_features(), kind="nope")

    def test_wrong_column_count_rejected(self):
        x = self.make_features()
        spec = EncoderSpec.fit(x, kind="qle", n_bins=8)
        with pytest.raises(ValueError, match="expected 3 columns, got 2"):
            spec.transform(x[:, :2])


def searchsorted_index(x, b):
    return np.clip(np.searchsorted(b, x, side="right") - 1, 0, b.size - 2)


FAR_KEYS = [np.nan, np.inf, -np.inf, 1e308, -1e308, np.finfo(float).max, -np.finfo(float).max,
            0.0, -0.0, 5e-324, -5e-324]


def assert_bin_index_exact(b, keys=()):
    """_bin_index equals the searchsorted formula at every boundary, its two
    neighbours, the far keys and the given keys."""
    spec = BinSpec(np.asarray(b, dtype=np.float64))
    b = spec.boundaries
    with np.errstate(over="ignore"):  # the neighbour of the largest float is inf
        x = np.concatenate([b, np.nextafter(b, np.inf), np.nextafter(b, -np.inf), FAR_KEYS,
                            np.asarray(keys, dtype=np.float64)])
    assert encoders._bin_index(x, spec).tolist() == searchsorted_index(x, b).tolist()
    return spec


class TestBinIndex:
    """The grid-guided branchless search against clip(searchsorted(b, x,
    "right") - 1, 0, n - 1)."""

    @pytest.fixture(autouse=True)
    def _warnings_are_errors(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            yield

    @settings(max_examples=200, deadline=None)
    @given(
        boundaries=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=2, max_size=70, unique=True),
        keys=st.lists(st.floats(), max_size=40),
    )
    def test_equals_searchsorted(self, boundaries, keys):
        assert_bin_index_exact(np.sort(boundaries), keys)

    @pytest.mark.parametrize("b", [
        [0.0, 1.0],  # n = 1: no interior boundary
        [-1.0, 0.0, 1.0],  # one interior boundary: a zero span
        [0.0, 5e-324, 1e-323, 1.5e-323, 1.0],  # subnormal bin widths
        [-1e308, -1.0, 1.0, 1e308],  # interior span fits
        [-1.7e308, -1e308, 1e308, 1.7e308],  # interior span overflows
        [1e16, 1e16 + 2, 1e16 + 4, 1e16 + 6, 1e16 + 8],  # one ulp apart, far from zero
    ], ids=["one-bin", "zero-span", "subnormal", "wide", "overflowing-span", "ulp-apart"])
    def test_fixed_cases(self, b):
        spec = assert_bin_index_exact(b, np.linspace(b[0], b[-1], 101) if np.isfinite(b[-1] - b[0]) else ())
        assert spec.n == len(b) - 1

    def test_crowded_heavy_tail(self):
        # exp(2.5 z) crowds the low boundaries into the first grid cells, so
        # the search takes several halving steps there
        values = np.exp(2.5 * np.random.default_rng(6).normal(size=20_000))
        spec = assert_bin_index_exact(fit_bins(values, 64).boundaries, values)
        assert len(spec._grid.probes) >= 4
        grid_of_keys = values.reshape(100, 2, 100)  # any key shape
        assert np.array_equal(encoders._bin_index(grid_of_keys, spec),
                              searchsorted_index(grid_of_keys, spec.boundaries))

    def test_grid_is_derived_not_serialized(self):
        x = np.random.default_rng(0).normal(size=(50, 2))
        spec = EncoderSpec.fit(x, kind="qle", n_bins=8)
        saved = json.dumps(spec.to_dict())
        out = spec.transform(x)  # builds every grid
        assert json.dumps(spec.to_dict()) == saved
        assert EncoderSpec.from_dict(json.loads(saved)).transform(x).tobytes() == out.tobytes()


def test_nan_keys_follow_the_plain_formulas():
    # searchsorted puts NaN after every boundary; QLE and PLE then divide NaN
    spec = BinSpec(np.array([0.0, 1.0, 2.0, 4.0]))
    assert np.isnan(qle_encode(np.nan, spec))
    assert quantile_encode(np.nan, spec) == 2.0 / 3.0
    assert np.isnan(ple_encode(np.nan, spec)).all()
    assert ple_encode(np.array([[np.nan, 3.0]]), spec).tolist()[0][1] == [1.0, 1.0, 0.5]


class TestAgainstPerColumnOracle:
    """Fit and the row-block transform give the bits of fitting and encoding
    one whole column at a time (``tests/helpers.py``)."""

    KINDS = ["qle", "ple", "quantile", "standardize", "clr"]
    B = TRANSFORM_BLOCK_ROWS

    @staticmethod
    def table(n, seed=3):
        """Eleven columns, more than one fit group: smooth, skewed, heavy
        tailed, tied, zero inflated, constant, signed zeros, subnormal and
        huge values, with NaN and +-inf cells; column 4 is categorical."""
        rng = np.random.default_rng(seed)
        x = np.column_stack([
            rng.normal(size=n),
            rng.exponential(2.0, size=n),
            np.exp(2.5 * rng.normal(size=n)),
            rng.integers(0, 5, size=n).astype(float),
            rng.integers(0, 3, size=n).astype(float),
            np.where(rng.random(n) < 0.7, 0.0, rng.poisson(3.0, size=n).astype(float)),
            np.full(n, 7.0),
            np.where(rng.random(n) < 0.5, 0.0, -0.0) + np.where(rng.random(n) < 0.1, rng.normal(size=n), 0.0),
            rng.normal(size=n) * 1e-310,
            rng.normal(size=n) * 1e300,
            rng.uniform(1.0, 2.0, size=n),
        ])
        cells = rng.random(x.shape)
        x[cells < 0.02] = np.nan
        x[(cells > 0.995) & (np.arange(x.shape[1]) != 6)] = np.inf
        x[(cells > 0.99) & (cells <= 0.995)] = -np.inf
        return x

    def fit_both(self, kind, x):
        args = dict(kind=kind, n_bins=16, categorical_columns=[4])
        if kind == "clr":
            x = np.abs(x)  # the CLR shift covers zeros; a non-positive unseen value fails
        if kind == "standardize":
            x = x[:, :8]  # the plain mean and std fail at the float ends; see below
        return x, EncoderSpec.fit(x, **args), per_column_fit(x, **args)

    @pytest.mark.parametrize("kind", KINDS)
    def test_fit_matches(self, kind):
        x, spec, oracle = self.fit_both(kind, self.table(2 * self.B + 3))
        assert json.dumps(spec.to_dict()) == json.dumps(oracle.to_dict())
        assert spec.medians.tobytes() == oracle.medians.tobytes()
        assert spec.degenerate == oracle.degenerate

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("rows", [0, 1, B - 1, B, B + 1, 2 * B + 3])
    def test_transform_bytes_match(self, kind, rows):
        x, spec, _ = self.fit_both(kind, self.table(2 * self.B + 3))
        got = spec.transform(x[:rows])
        want = per_column_transform(spec, x[:rows])
        assert got.shape == want.shape == (rows, spec.output_dim)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("column, n_bins", [
        ([-0.0, 0.0, -0.0, -0.0, -0.0, 0.0, -0.0, 3.0, 0.0, 3.0, -0.0, -1.0, 0.0, 1.0, 0.0, -0.0, -0.0,
          -3.0, 0.0, 2.0, -0.0, -0.0, -2.0, 0.0, 0.0, -0.0, 0.0], 3),
        ([0.0, 0.0, 0.0, -1.0, -3.0, 0.0, 2.0, -1.0, 0.0, 0.0, 0.0, 3.0, -1.0, -2.0, -0.0, -2.0, 0.0, 0.0,
          0.0, 2.0, -2.0, 1.0, 0.0, -2.0, -0.0, -0.0, 2.0, -0.0, 2.0, 1.0, -1.0, -1.0, 3.0, 0.0, 2.0, 0.0,
          -1.0, -3.0], 2),
    ])
    def test_signed_zeros_keep_the_plain_bits(self, column, n_bins):
        # A sort may order -0.0 and 0.0 either way; the quantiles of these
        # sorted columns have the other zero at the middle boundary.
        x = np.array(column)[:, None]
        spec, oracle = EncoderSpec.fit(x, n_bins=n_bins), per_column_fit(x, n_bins=n_bins)
        assert json.dumps(spec.to_dict()) == json.dumps(oracle.to_dict())
        assert fit_bins(x[:, 0], n_bins).boundaries.tobytes() == oracle.bins[0].boundaries.tobytes()

    def standardize_with_bad_cell(self, row):
        x = self.table(2 * self.B + 10)[:, :4] * 1e-150
        x[:, 3] = np.round(x[:, 3] * 1e150)
        spec = EncoderSpec.fit(x, kind="standardize", categorical_columns=[3])
        x[row, 1] = 1e300
        return spec, x

    def test_error_in_second_block_names_the_file_row(self):
        row = self.B + 5
        spec, x = self.standardize_with_bad_cell(row)
        message = rf"^encoder produced non-finite output from row {100 + row + 2}, column 'x1', value 1e\+300$"
        for encode in (spec.transform, lambda *a, **k: per_column_transform(spec, *a, **k)):
            with pytest.warns(RuntimeWarning, match="overflow"):
                with pytest.raises(ValueError, match=message):
                    encode(x, row_offset=100)

    def test_domain_error_anywhere_comes_before_a_non_finite_output(self):
        x = np.abs(self.table(2 * self.B + 10)[:, [0, 1, 3]])
        x[0, 0] = -1e308  # the CLR shift of x0 becomes 1e308
        spec = EncoderSpec.fit(x, kind="clr", categorical_columns=[2])
        bad = x.copy()
        bad[0, 0] = 1.0
        bad[3, 0] = 1.7e308  # shifted to inf in the first block
        bad[self.B + 7, 1] = -5.0  # not positive in the second block
        message = rf"^row {self.B + 9}, column 'x1', value -5.0 is not positive after the CLR shift 0.0$"
        for encode in (spec.transform, lambda b: per_column_transform(spec, b)):
            with np.errstate(over="ignore", invalid="ignore"):  # inf - inf in the first block
                with pytest.raises(DomainError, match=message):
                    encode(bad)


def test_transform_peak_stays_near_its_output():
    # One output array and one block of temporaries: 100k rows x 32 QLE
    # columns peaked at about 2.1x the output when columns were encoded whole
    # and concatenated.
    x = np.random.default_rng(8).normal(size=(100_000, 32))
    spec = EncoderSpec.fit(x, kind="qle", n_bins=64)
    tracemalloc.start()
    try:
        out = spec.transform(x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * out.nbytes


class TestFitStandardizeAtTheFloatEnds:
    def test_tiny_column_keeps_its_spread(self):
        spec = fit_standardize([1e-300, 3e-300, 2e-300])
        assert spec.mean == pytest.approx(2e-300, rel=1e-15)
        assert spec.std == pytest.approx(np.sqrt(2.0 / 3.0) * 1e-300, rel=1e-15)
        out = standardize(np.array([1e-300, 3e-300, 2e-300]), spec)
        np.testing.assert_allclose(out, [-np.sqrt(1.5), np.sqrt(1.5), 0.0], rtol=1e-14, atol=1e-15)

    def test_huge_column_stays_finite(self):
        values = np.array([1e308, 1.5e308, -1e300])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            spec = fit_standardize(values)
            out = standardize(values, spec)
        assert spec.mean == pytest.approx((1.0 + 1.5 - 1e-8) / 3.0 * 1e308, rel=1e-15)
        assert np.isfinite(spec.std) and spec.std > 0.0
        assert np.all(np.isfinite(out))
        np.testing.assert_allclose(out, (values / 1e300 - spec.mean / 1e300) / (spec.std / 1e300), rtol=1e-12)

    @pytest.mark.parametrize("scale", [1e-100, 1e-30, 1.0, 1e30, 1e100])
    def test_ordinary_columns_keep_their_bits(self, scale):
        values = np.random.default_rng(5).normal(3.0, 2.0, size=1001) * scale
        assert fit_standardize(values) == StandardizeSpec(mean=float(values.mean()), std=float(values.std()))

    def test_values_far_from_the_mean_stay_finite(self):
        # x - mean overflows for the first value of its own training column
        values = np.array([-1.7e308, 1.7e308, 1.7e308])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            spec = fit_standardize(values)
            out = EncoderSpec.fit(values[:, None], kind="standardize").transform(values[:, None])[:, 0]
        np.testing.assert_allclose(out, [-np.sqrt(2.0), np.sqrt(0.5), np.sqrt(0.5)], rtol=1e-14)
        assert out.tolist() == standardize(values, spec).tolist()
        assert standardize(np.array([np.inf, -np.inf]), spec).tolist() == [np.inf, -np.inf]

    def test_through_encoder_spec(self):
        x = np.array([[1e-300, 1e308, 0.5], [3e-300, 1.5e308, 1.5], [2e-300, -1e300, 1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            spec = EncoderSpec.fit(x, kind="standardize")
            out = spec.transform(x)
        assert np.all(np.isfinite(out))
        np.testing.assert_allclose(out[:, 0], [-np.sqrt(1.5), np.sqrt(1.5), 0.0], rtol=1e-14, atol=1e-15)
        assert out[:, 1].std() == pytest.approx(1.0, rel=1e-12)
