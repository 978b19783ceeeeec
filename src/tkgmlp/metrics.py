"""KS and AUC over a tie-blocked ROC sweep.

KS = max over thresholds of (TPR - FPR). AUC is the Mann-Whitney statistic
(probability of ranking a random positive above a random negative, ties
half-credited), which equals the trapezoidal area under the tie-blocked ROC
curve. Both are rank statistics, invariant under strictly increasing score
transforms. All counting is integer-exact; brute-force oracles must agree
bit for bit. ``compute_metrics`` gives both from one sort; ``roc_sweep``
gives the curve itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class UndefinedMetricError(ValueError):
    """Both classes must be present for KS/AUC to be defined."""


def _validate(scores, labels):
    scores = np.asarray(scores, dtype=np.float64).ravel()
    labels = np.asarray(labels).ravel()
    if scores.shape != labels.shape:
        raise ValueError(f"scores {scores.shape} vs labels {labels.shape}")
    if not np.all((labels == 0) | (labels == 1)):
        raise ValueError("labels must be 0/1")
    labels = labels.astype(np.int64)
    n_pos = int(labels.sum())
    if n_pos == 0 or n_pos == labels.size:
        raise UndefinedMetricError("need at least one positive and one negative label")
    return scores, labels, n_pos, labels.size - n_pos


def _tie_blocks(scores, labels):
    """Cumulative (thresholds, tp, fp) after each block of tied scores,
    in descending score order (the operating rule is score >= threshold)."""
    order = np.argsort(-scores, kind="stable")
    s = scores[order]
    y = labels[order]
    ends = np.append(np.flatnonzero(np.diff(s)), s.size - 1)
    tp = np.cumsum(y)[ends]
    fp = (ends + 1) - tp
    return s[ends], tp, fp


def roc_sweep(scores, labels) -> list[tuple[float, float, float]]:
    """(threshold, tpr, fpr) after each block of tied scores, descending."""
    scores, labels, n_pos, n_neg = _validate(scores, labels)
    thresholds, tp, fp = _tie_blocks(scores, labels)
    return [
        (float(t), float(a / n_pos), float(b / n_neg))
        for t, a, b in zip(thresholds, tp, fp)
    ]


def ks(scores, labels) -> float:
    """max(TPR - FPR) over all score thresholds."""
    scores, labels, n_pos, n_neg = _validate(scores, labels)
    _, tp, fp = _tie_blocks(scores, labels)
    return float((tp / n_pos - fp / n_neg).max())


def auc(scores, labels) -> float:
    """Pairwise ranking probability; ties between classes count 0.5.

    Counted blockwise: positives of a block beat every negative with a
    strictly lower score and half-win the negatives tied with them. All
    products and sums stay integer-exact in float64.
    """
    scores, labels, n_pos, n_neg = _validate(scores, labels)
    _, tp, fp = _tie_blocks(scores, labels)
    return _auc_from_blocks(tp, fp, n_pos, n_neg)


def _auc_from_blocks(tp, fp, n_pos, n_neg) -> float:
    p_g = np.diff(tp, prepend=0)
    f_g = np.diff(fp, prepend=0)
    correct = float(np.sum(p_g * (n_neg - fp)) + 0.5 * np.sum(p_g * f_g))
    return correct / (n_pos * n_neg)


@dataclass(frozen=True)
class MetricReport:
    """KS and AUC of one score vector; ``roc_sweep`` gives its ROC curve."""

    ks: float
    auc: float


def compute_metrics(scores, labels) -> MetricReport:
    """KS and AUC from one validation and one sort, each ``==`` to what
    ``ks`` and ``auc`` return; no ROC is built (``roc_sweep`` gives it)."""
    scores, labels, n_pos, n_neg = _validate(scores, labels)
    _, tp, fp = _tie_blocks(scores, labels)
    return MetricReport(ks=float((tp / n_pos - fp / n_neg).max()), auc=_auc_from_blocks(tp, fp, n_pos, n_neg))


def format_percent(value: float) -> str:
    """Report convention: metric x 100 with 2 decimals."""
    return f"{100.0 * value:.2f}"
