import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tkgmlp.metrics import (
    MetricReport,
    UndefinedMetricError,
    auc,
    compute_metrics,
    format_percent,
    ks,
    roc_sweep,
)

from .helpers import brute_force_auc, brute_force_ks, traced_peak


class TestRocSweep:
    def test_hand_enumerated_points(self):
        sweep = roc_sweep([0.9, 0.8, 0.3, 0.2], [1, 1, 0, 0])
        points = [(tpr, fpr) for _, tpr, fpr in sweep]
        assert points == [(0.5, 0.0), (1.0, 0.0), (1.0, 0.5), (1.0, 1.0)]

    def test_all_tied_single_point(self):
        sweep = roc_sweep([0.4, 0.4, 0.4], [1, 0, 1])
        assert [(tpr, fpr) for _, tpr, fpr in sweep] == [(1.0, 1.0)]

    def test_reversed_scores_mirror(self):
        sweep = roc_sweep([0.9, 0.8, 0.3, 0.2], [0, 0, 1, 1])
        points = [(tpr, fpr) for _, tpr, fpr in sweep]
        assert points == [(0.0, 0.5), (0.0, 1.0), (0.5, 1.0), (1.0, 1.0)]

    def test_thresholds_are_scores_descending(self):
        sweep = roc_sweep([0.2, 0.9, 0.5], [0, 1, 1])
        assert [t for t, _, _ in sweep] == [0.9, 0.5, 0.2]

    def test_single_class_rejected(self):
        with pytest.raises(UndefinedMetricError):
            roc_sweep([0.1, 0.2], [1, 1])


class TestKs:
    def test_perfect_separation(self):
        assert ks([0.9, 0.8, 0.1, 0.2], [1, 1, 0, 0]) == 1.0

    def test_all_tied_is_zero(self):
        assert ks([0.5, 0.5, 0.5, 0.5], [1, 0, 1, 0]) == 0.0

    def test_matches_brute_force_on_random_instances(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            n = rng.integers(4, 50)
            scores = np.round(rng.random(n), 2)  # heavy ties
            labels = rng.integers(0, 2, n)
            if labels.sum() in (0, n):
                continue
            assert ks(scores, labels) == brute_force_ks(scores, labels)


class TestAuc:
    def test_perfect_ranking(self):
        assert auc([0.9, 0.8, 0.1, 0.2], [1, 1, 0, 0]) == 1.0

    def test_reversed_ranking(self):
        assert auc([0.1, 0.2, 0.9, 0.8], [1, 1, 0, 0]) == 0.0

    def test_single_tied_pair(self):
        assert auc([0.5, 0.5], [1, 0]) == 0.5

    def test_matches_brute_force_on_random_instances(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            n = rng.integers(4, 60)
            scores = np.round(rng.random(n), 1)
            labels = rng.integers(0, 2, n)
            if labels.sum() in (0, n):
                continue
            assert auc(scores, labels) == brute_force_auc(scores, labels)


class TestReport:
    def test_origin_and_terminus(self):
        sweep = roc_sweep([0.9, 0.1, 0.5], [1, 0, 1])
        assert sweep[0][1:] == (0.5, 0.0)
        assert sweep[-1] == (0.1, 1.0, 1.0)

    def test_ks_consistent_with_roc(self):
        scores = np.random.default_rng(0).random(50)
        labels = np.random.default_rng(1).integers(0, 2, 50)
        best = max(tpr - fpr for _, tpr, fpr in roc_sweep(scores, labels))
        assert abs(compute_metrics(scores, labels).ks - best) < 1e-12

    @pytest.mark.parametrize("kind", ["random", "tie-heavy", "tied-within-each-class"])
    def test_equals_the_separate_metrics(self, kind):
        # one sort for both gives the values of the separate calls
        rng = np.random.default_rng(3)
        for _ in range(40):
            n = int(rng.integers(2, 300))
            labels = rng.integers(0, 2, n)
            labels[:2] = [0, 1]
            if kind == "random":
                scores = rng.random(n)
            elif kind == "tie-heavy":
                scores = np.round(rng.random(n), 1)
            else:  # one score per class, equal across classes at times
                scores = np.where(labels == 1, *rng.choice([0.25, 0.75], 2))
            report = compute_metrics(scores, labels)
            assert report == MetricReport(ks=ks(scores, labels), auc=auc(scores, labels))
            sweep = roc_sweep(scores, labels)
            assert report.ks == max(tpr - fpr for _, tpr, fpr in sweep)
            assert sweep[-1][1:] == (1.0, 1.0)

    def test_percent_formatting(self):
        assert format_percent(0.7608) == "76.08"
        assert format_percent(1.0) == "100.00"

    def test_memory_per_row_is_a_few_arrays(self):
        # 200,000 float64 scores and int64 labels take 16 B per row; the
        # sort, the tie blocks and the counts must stay a few arrays more
        rng = np.random.default_rng(4)
        n = 200_000
        scores = rng.random(n)
        labels = rng.integers(0, 2, n)
        assert traced_peak(lambda: compute_metrics(scores, labels)) <= 100 * n


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31),
    n=st.integers(min_value=4, max_value=80),
)
def test_rank_invariance_and_complement(seed, n):
    rng = np.random.default_rng(seed)
    scores = np.round(rng.random(n), 2)
    labels = rng.integers(0, 2, n)
    if labels.sum() in (0, n):
        labels[0] = 1 - labels[0]
    # strictly increasing transform leaves both metrics unchanged
    transformed = np.exp(3.0 * scores) + 1.0
    assert ks(scores, labels) == pytest.approx(ks(transformed, labels), abs=1e-12)
    assert auc(scores, labels) == pytest.approx(auc(transformed, labels), abs=1e-12)
    # complement: flipping score order flips AUC around 0.5
    assert auc(scores, labels) + auc(-scores, labels) == pytest.approx(1.0, abs=1e-12)
