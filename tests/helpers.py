"""Shared test oracles: finite differences, ECDF comparisons, brute-force metrics.

These stay deliberately independent of the library code paths they check.
"""

import csv

import numpy as np


def finite_difference_grad(f, arr, eps=1e-5):
    """Central-difference gradient of the scalar function f at `arr`.

    `f` takes no arguments and must read `arr` (mutated in place per entry).
    """
    grad = np.zeros_like(arr)
    flat = arr.ravel()
    gflat = grad.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        f_plus = f()
        flat[i] = orig - eps
        f_minus = f()
        flat[i] = orig
        gflat[i] = (f_plus - f_minus) / (2.0 * eps)
    return grad


def rel_err(a, b):
    """Max absolute difference relative to the largest magnitude present."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    scale = max(np.abs(a).max(initial=0.0), np.abs(b).max(initial=0.0), 1e-12)
    return float(np.abs(a - b).max(initial=0.0) / scale)


def two_sample_ks(a, b):
    """sup |ECDF_a - ECDF_b| over the pooled sample."""
    a = np.sort(np.asarray(a, dtype=np.float64))
    b = np.sort(np.asarray(b, dtype=np.float64))
    grid = np.concatenate([a, b])
    fa = np.searchsorted(a, grid, side="right") / a.size
    fb = np.searchsorted(b, grid, side="right") / b.size
    return float(np.abs(fa - fb).max())


def brute_force_ks(scores, labels):
    """Max TPR - FPR over every distinct threshold, by direct counting."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    n_pos = int((labels == 1).sum())
    n_neg = int((labels == 0).sum())
    best = 0.0
    for t in np.unique(scores):
        predicted = scores >= t
        tpr = int((predicted & (labels == 1)).sum()) / n_pos
        fpr = int((predicted & (labels == 0)).sum()) / n_neg
        best = max(best, tpr - fpr)
    return best


def brute_force_auc(scores, labels):
    """Pairwise positive-vs-negative comparison, ties counted 0.5."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = (pos[:, None] > neg[None, :]).sum()
    ties = (pos[:, None] == neg[None, :]).sum()
    return (wins + 0.5 * ties) / (pos.size * neg.size)


def two_branch_sigmoid(x):
    """sigmoid by both half-line formulas over exp(-|x|), picked per entry."""
    arr = np.asarray(x, dtype=np.float64)
    z = np.exp(-np.abs(arr))
    return np.where(arr >= 0.0, 1.0 / (1.0 + z), z / (1.0 + z))


def per_row_write_csv(path, ds, label="label"):
    """CSV bytes by the plain per-row formula: a ``csv.writer`` header, then
    per row the ``repr`` of every feature value (an empty cell where the
    missing mask is set) and the label as ``0`` or ``1``, joined by commas
    and ended by ``\\r\\n``."""
    holes = np.zeros(ds.n_rows, dtype=bool) if ds.missing_mask is None else ds.missing_mask.any(axis=1)
    labels = ["1" if y else "0" for y in ds.labels.tolist()]
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(ds.feature_names + [label])
        for i, row in enumerate(ds.features):
            cells = list(map(repr, row.tolist()))
            if holes[i]:
                for j in np.flatnonzero(ds.missing_mask[i]):
                    cells[j] = ""
            cells.append(labels[i])
            fh.write(",".join(cells) + "\r\n")
