import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tkgmlp.data import SyntheticColumnSpec
from tkgmlp.encoders import (
    BinSpec,
    DegenerateFeatureError,
    DomainError,
    EncoderSpec,
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

from .helpers import two_sample_ks

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
        bad[0, 0] = -100.0
        with pytest.raises(DomainError):
            spec.transform(bad)

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
