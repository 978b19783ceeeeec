"""Shared test oracles: finite differences, ECDF comparisons, brute-force
metrics, per-row CSV writing and per-column encoding, a tracemalloc
peak for memory guards, and a child-process run of the command line under
Python's default warning filters.

These stay deliberately independent of the library code paths they check.
The spline section holds the Cox-de Boor recursion, the oracle for the
library's per-cell polynomials over any knot vector, and two helpers that
evaluate single points through the library. The last section holds the
train step's whole-batch formulas (the basis in one pass, batch norm, the
KAN backward and Adam), which the library's blocked and buffer-reusing
versions must reproduce bit for bit, and the single-lane SwiGLU, KAN,
batch-norm and dropout passes, which the two-lane ones must reproduce bit
for bit.
"""

import csv
import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import dataclass

import numpy as np

from tkgmlp import nn_core
from tkgmlp.encoders import BinSpec, DomainError, EncoderSpec, OneHotSpec, StandardizeSpec
from tkgmlp.kan import KAN_BACKWARD_BLOCK_ROWS
from tkgmlp.nn_core import BN_EPSILON, BN_MOMENTUM, DegenerateBatchError, ShapeError, silu, silu_derivative
from tkgmlp.spline import basis_derivative_matrix, basis_matrix


def traced_peak(fn):
    """Bytes allocated by fn() at its peak, on any thread."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def run_child(*args):
    """``python -m tkgmlp *args`` in a child process, with Python's default
    warning filters (no ``-W`` and no ``PYTHONWARNINGS``), as a user runs
    it; the tests' own filters do not reach it. Returns the exit code,
    stdout and stderr."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"}
    proc = subprocess.run([sys.executable, "-m", "tkgmlp", *map(str, args)],
                          capture_output=True, text=True, env=env)
    return proc.returncode, proc.stdout, proc.stderr


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
    per row the ``repr`` of every feature value (an empty cell for NaN) and
    the label as ``0`` or ``1``, joined by commas and ended by ``\\r\\n``."""
    labels = ["1" if y else "0" for y in ds.labels.tolist()]
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(ds.feature_names + [label])
        for i, row in enumerate(ds.features.tolist()):
            cells = ["" if math.isnan(v) else repr(v) for v in row]
            cells.append(labels[i])
            fh.write(",".join(cells) + "\r\n")


def _imputed(features, j, medians):
    col = np.array(features[:, j], dtype=np.float64)
    col[~np.isfinite(col)] = medians[j]
    return col


def per_column_fit(features, feature_names=None, kind="qle", n_bins=64, categorical_columns=()):
    """An ``EncoderSpec`` fitted one whole column at a time by the plain
    formulas. The median is ``np.median`` of the column's finite values. On
    the column with its other cells set to that median: one-hot categories
    by ``np.unique``, the CLR shift from the minimum, numpy's mean and std,
    or bins from ``np.quantile`` of the unsorted values (of the halved values
    when max - min overflows) with the minimum and maximum as end boundaries
    and duplicates merged."""
    features = np.asarray(features, dtype=np.float64)
    n_cols = features.shape[1]
    names = [f"x{j}" for j in range(n_cols)] if feature_names is None else list(feature_names)
    medians = np.zeros(n_cols)
    for j in range(n_cols):
        finite = features[np.isfinite(features[:, j]), j]
        medians[j] = float(np.median(finite)) if finite.size else 0.0
    spec = EncoderSpec(kind=kind, n_bins=n_bins, feature_names=names, medians=medians)
    if kind == "clr":
        spec.clr_shifts = np.zeros(n_cols)
    for j in range(n_cols):
        col = _imputed(features, j, medians)
        if j in categorical_columns:
            spec.categorical[j] = OneHotSpec(np.unique(col))
        elif kind == "clr":
            if col.min() <= 0.0:
                spec.clr_shifts[j] = 1.0 - col.min()
        elif kind == "standardize":
            spec.standardizers[j] = StandardizeSpec(mean=float(col.mean()), std=float(col.std()))
        elif col.size < 2 or np.all(col == col[0]):
            spec.degenerate.add(j)
        else:
            qs = np.arange(n_bins + 1) / n_bins
            with np.errstate(over="ignore"):
                wide = np.isinf(col.max() - col.min())
            b = 2.0 * np.quantile(0.5 * col, qs) if wide else np.quantile(col, qs)
            b[0], b[-1] = col.min(), col.max()
            spec.bins[j] = BinSpec(np.unique(b))
    return spec


def _plain_fraction(x, lo, hi):
    """(x - lo) / (hi - lo) with x clipped into [lo, hi], all three halved
    where hi - lo overflows."""
    with np.errstate(over="ignore"):
        wide = np.isinf(hi - lo)
    half = np.where(wide, 0.5, 1.0)
    x, lo, hi = x * half, lo * half, hi * half
    return (np.minimum(np.maximum(x, lo), hi) - lo) / (hi - lo)


def per_column_transform(spec, features, row_offset=0):
    """``EncoderSpec.transform`` by the plain formulas, one whole column at a
    time: each column imputed and encoded on its own, the bin index by
    ``searchsorted``, PLE by the per-bin formula over every bin, the blocks
    concatenated and the whole table checked once. Errors name the first bad
    cell in row-major order, with the row counted from the CSV header."""
    features = np.asarray(features, dtype=np.float64)

    def cell(i, j):
        return f"row {row_offset + i + 2}, column {spec.feature_names[j]!r}, value {float(features[i, j])!r}"

    blocks, sources = [], []
    numeric = spec.numeric_columns
    if spec.kind == "clr":
        shifted = np.stack([_imputed(features, j, spec.medians) for j in numeric], axis=1) + spec.clr_shifts[numeric]
        bad = shifted <= 0.0
        if bad.any():
            i, k = np.argwhere(bad)[0]
            raise DomainError(f"{cell(i, numeric[k])} is not positive after the CLR shift "
                              f"{float(spec.clr_shifts[numeric[k]])!r}")
        logs = np.log(shifted)
        blocks.append(logs - logs.mean(axis=-1, keepdims=True))
        sources.extend(numeric)
    else:
        for j in numeric:
            x = _imputed(features, j, spec.medians)
            if j in spec.degenerate:
                enc = np.zeros((x.size, 1))
            elif spec.kind == "standardize":
                s = spec.standardizers[j]
                enc = (np.zeros_like(x) if s.std == 0.0 else (x - s.mean) / s.std)[:, None]
            else:
                b = spec.bins[j].boundaries
                n = b.size - 1
                i = np.clip(np.searchsorted(b, x, side="right") - 1, 0, n - 1)
                if spec.kind == "qle":
                    enc = np.clip(i / n + _plain_fraction(x, b[i], b[i + 1]) / n, 0.0, 1.0)[:, None]
                elif spec.kind == "quantile":
                    enc = (i / n)[:, None]
                else:
                    enc = _plain_fraction(x[:, None], b[:-1], b[1:])
            blocks.append(enc)
            sources.extend([j] * enc.shape[1])
    for j in sorted(spec.categorical):
        x = _imputed(features, j, spec.medians)
        cats = spec.categorical[j].categories
        enc = np.zeros((x.size, cats.size + 1))
        idx = np.clip(np.searchsorted(cats, x), 0, cats.size - 1)
        enc[np.arange(x.size), np.where(cats[idx] == x, idx, cats.size)] = 1.0
        blocks.append(enc)
        sources.extend([j] * enc.shape[1])
    out = np.concatenate(blocks, axis=1) if blocks else np.zeros((features.shape[0], 0))
    bad = ~np.isfinite(out)
    if bad.any():
        rows, cols = np.nonzero(bad)
        j = min(sources[c] for c in cols[rows == rows[0]])
        raise ValueError(f"encoder produced non-finite output from {cell(rows[0], j)}")
    return out


@dataclass(frozen=True)
class Knots:
    """Explicit non-decreasing knots u_0..u_m with degree p and interior
    domain [a, b], for the recursion oracle; ``KnotVector`` has the same
    three fields, so the oracle reads either."""

    knots: np.ndarray
    degree: int
    domain: tuple[float, float]

    @property
    def n_basis(self) -> int:
        return self.knots.size - 1 - self.degree


def from_knots(knots, degree, domain=None):
    """Knots over an explicit vector; the domain defaults to the interior
    span [u_p, u_{m-p}]."""
    knots = np.asarray(knots, dtype=np.float64)
    if knots.ndim != 1 or np.any(np.diff(knots) < 0.0):
        raise ValueError("knots must be a non-decreasing vector")
    if degree < 0 or knots.size < degree + 2:
        raise ValueError("degree must be >= 0 with at least degree + 2 knots")
    if domain is None:
        m = knots.size - 1
        domain = (float(knots[degree]), float(knots[m - degree]))
    return Knots(knots=knots, degree=degree, domain=domain)


def _degree0(u, kv):
    t = kv.knots
    ind = ((u[:, None] >= t[:-1]) & (u[:, None] < t[1:])).astype(np.float64)
    # points on the right domain edge belong to the interval that ends there
    ends_at_b = np.flatnonzero(t[1:] == kv.domain[1])
    at_b = u == kv.domain[1]
    if ends_at_b.size and at_b.any():
        ind[at_b] = 0.0
        ind[at_b, ends_at_b[-1]] = 1.0
    return ind


def _ratio(num, den):
    """num / den per basis column, 0 where den is 0 (the 0/0 convention)."""
    return np.where(den > 0.0, num / np.where(den > 0.0, den, 1.0), 0.0)


def _recursion(u, kv, degree):
    """The degree-``degree`` basis on kv's knots, raised from degree 0."""
    t = kv.knots
    basis = _degree0(u, kv)
    for k in range(1, degree + 1):
        left = _ratio(u[:, None] - t[: -(k + 1)], t[k:-1] - t[: -(k + 1)])
        right = _ratio(t[k + 1 :] - u[:, None], t[k + 1 :] - t[1:-k])
        basis = left * basis[:, :-1] + right * basis[:, 1:]
    return basis


def recursion_basis(u, kv):
    """All N_{i,p}(u) by the Cox-de Boor recursion over any knot vector, a
    term with a zero denominator contributing 0."""
    return _recursion(np.asarray(u, dtype=np.float64).ravel(), kv, kv.degree)


def recursion_derivative(u, kv):
    """All dN_{i,p}/du = p/(u_{i+p}-u_i) N_{i,p-1} - p/(u_{i+p+1}-u_{i+1}) N_{i+1,p-1}."""
    u = np.asarray(u, dtype=np.float64).ravel()
    p, t = kv.degree, kv.knots
    if p == 0:
        return np.zeros((u.size, kv.n_basis))
    lower = _recursion(u, kv, p - 1)
    return p * (_ratio(lower[:, :-1], t[p:-1] - t[: -(p + 1)]) - _ratio(lower[:, 1:], t[p + 1 :] - t[1:-p]))


def bspline_basis(u, kv):
    """Basis vector N_{i,p}(u) at a single point, through the library."""
    return basis_matrix([u], kv)[0]


def bspline_basis_derivative(u, kv):
    """Derivative vector dN_{i,p}/du at a single point (right-limit at
    knots), through the library."""
    return basis_derivative_matrix([u], kv)[0]


def one_shot_basis_matrix(u, kv, with_derivative=False):
    """``basis_matrix`` over all points in one pass, without the far-point
    clip: the oracle for the blocked library evaluation, whose every value
    it must reproduce bit for bit at points within int64 cells."""
    u = np.asarray(u, dtype=np.float64).ravel()
    p, nb = kv.degree, kv.n_basis
    s = (u - kv.knots[0]) / kv.step
    if p <= 1:
        cell = np.searchsorted(kv.knots, u, side="right") - 1
    else:
        cell = np.floor(s).astype(np.int64)
    at_b = u == kv.domain[1]
    cell[at_b] = p + kv.grid_size - 1
    frac = s - cell
    edge = np.flatnonzero((cell < p) | (cell >= nb))
    edge_cell = cell[edge]
    base = np.arange(0, u.size * nb, nb) + cell
    tables = [(kv.segments, True)] + ([(kv.dsegments, False)] if with_derivative else [])
    outs = [np.zeros((u.size, nb)) for _ in tables]
    for r in range(p + 1):
        idx = base - r
        invalid = edge[(edge_cell < r) | (edge_cell >= nb + r)]
        idx[invalid] = invalid * nb
        for out, (coeffs, clip) in zip(outs, tables):
            c = coeffs[r]
            v = np.full(frac.shape, c[-1])
            for a in c[-2::-1]:
                v *= frac
                v += a
            if clip:
                np.maximum(v, 0.0, out=v)
            v[invalid] = 0.0
            np.add.at(out.reshape(-1), idx, v)
    return tuple(outs) if with_derivative else outs[0]


# Whole-batch formulas of the train step, the oracles for the library's
# reused buffers and row blocks, which must give the same bits.

def whole_batchnorm_forward(x, s, momentum=0.1, eps=1e-5):
    """Train-mode batch norm by ``mean``/``var``; updates s's running stats."""
    mean = x.mean(axis=0)
    var = x.var(axis=0)
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = (x - mean) * inv_std
    s.running_mean[...] = (1.0 - momentum) * s.running_mean + momentum * mean
    s.running_var[...] = (1.0 - momentum) * s.running_var + momentum * var
    return s.gamma * xhat + s.beta, (xhat, inv_std)


def whole_batchnorm_backward(upstream, cache, s):
    """dL/dx through train-mode batch norm; accumulates s's gradients."""
    xhat, inv_std = cache
    s.grad_gamma += (upstream * xhat).sum(axis=0)
    s.grad_beta += upstream.sum(axis=0)
    t = upstream * s.gamma
    return inv_std * (t - t.mean(axis=0) - xhat * (t * xhat).mean(axis=0))


def unblocked_kan_backward(upstream, cache, p):
    """``kan_backward`` with the spline term over the whole batch at once."""
    x, sig, basis, dbasis, weighted = cache
    rows = x.shape[0]
    p.grad_base_weight += upstream.T @ silu(x, sig)
    agg = (upstream.T @ basis.reshape(rows, -1)).reshape(p.out_dim, p.in_dim, -1)
    p.grad_spline_weight += (agg * p.coeffs).sum(axis=2)
    p.grad_coeffs += agg * p.spline_weight[:, :, None]
    spline_dx = (upstream @ weighted).reshape(basis.shape)
    spline_dx *= dbasis
    dx = silu_derivative(x, sig)
    dx *= upstream @ p.base_weight
    dx += spline_dx.sum(axis=2)
    return dx


def adam_reference(params, m_list, v_list, t, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """One Adam step, t counted from 1, with a fresh temporary per operation."""
    c1 = 1.0 - beta1 ** t
    c2 = 1.0 - beta2 ** t
    for (param, grad), m, v in zip(params, m_list, v_list):
        m *= beta1
        m += (1.0 - beta1) * grad
        v *= beta2
        v += (1.0 - beta2) * grad * grad
        param -= lr * (m / c1) / (np.sqrt(v / c2) + eps)


# The SwiGLU and KAN passes on one thread, as they were before the lane:
# the oracles for the two-lane passes, which must give the same bits.

def single_lane_swiglu(x, p):
    gate_pre = x @ p.gate.weight
    gate_pre += p.gate.bias
    value_pre = x @ p.value.weight
    value_pre += p.value.bias
    sig = nn_core.sigmoid(gate_pre)
    out = silu(gate_pre, sig)
    out *= value_pre
    return out, (x, gate_pre, value_pre, sig)


def single_lane_swiglu_backward(upstream, cache, p):
    x, gate_pre, value_pre, sig = cache
    dgate = upstream * value_pre
    dgate *= silu_derivative(gate_pre, sig)
    dvalue = silu(gate_pre, sig)
    dvalue *= upstream
    p.gate.grad_weight += x.T @ dgate
    p.gate.grad_bias += dgate.sum(axis=0)
    p.value.grad_weight += x.T @ dvalue
    p.value.grad_bias += dvalue.sum(axis=0)
    dx = dgate @ p.gate.weight.T
    dx += dvalue @ p.value.weight.T
    return dx


def single_lane_kan_forward(x, p, train=True):
    rows = x.shape[0]
    if train:
        basis, dbasis = basis_matrix(x.ravel(), p.kv, with_derivative=True)
    else:
        basis = basis_matrix(x.ravel(), p.kv)
    sig = nn_core.sigmoid(x)
    y = silu(x, sig) @ p.base_weight.T
    weighted = (p.spline_weight[:, :, None] * p.coeffs).reshape(p.out_dim, -1)
    y += basis.reshape(rows, -1) @ weighted.T
    if not train:
        return y, None
    nb = p.kv.n_basis
    return y, (x, sig, basis.reshape(rows, p.in_dim, nb), dbasis.reshape(rows, p.in_dim, nb), weighted)


def single_lane_kan_backward(upstream, cache, p):
    x, sig, basis, dbasis, weighted = cache
    rows = x.shape[0]
    p.grad_base_weight += upstream.T @ silu(x, sig)
    agg = (upstream.T @ basis.reshape(rows, -1)).reshape(p.out_dim, p.in_dim, -1)
    p.grad_spline_weight += (agg * p.coeffs).sum(axis=2)
    p.grad_coeffs += agg * p.spline_weight[:, :, None]
    dx = silu_derivative(x, sig)
    dx *= upstream @ p.base_weight
    lo = 0
    while lo < rows:
        hi = rows if rows - lo < 2 * KAN_BACKWARD_BLOCK_ROWS else lo + KAN_BACKWARD_BLOCK_ROWS
        spline_dx = (upstream[lo:hi] @ weighted).reshape(dbasis[lo:hi].shape)
        spline_dx *= dbasis[lo:hi]
        dx[lo:hi] += spline_dx.sum(axis=2)
        lo = hi
    return dx


# Train-mode batch norm and dropout on one thread, whole batch: the oracles
# for the two-lane passes.

def single_lane_batchnorm_forward(x, s, train):
    if x.ndim != 2 or x.shape[1] != s.dim:
        raise ShapeError(f"batchnorm: input {x.shape} does not match dim {s.dim}")
    if train:
        if x.shape[0] < 2:
            raise DegenerateBatchError("batch statistics need at least 2 rows in train mode")
        n = x.shape[0]
        # the moments as x.mean and x.var form them, from one centred copy
        mean = np.add.reduce(x, axis=0) / n
        xhat = x - mean
        out = np.multiply(xhat, xhat)
        var = np.add.reduce(out, axis=0) / n
        inv_std = 1.0 / np.sqrt(var + BN_EPSILON)
        xhat *= inv_std
        s.running_mean[...] = (1.0 - BN_MOMENTUM) * s.running_mean + BN_MOMENTUM * mean
        s.running_var[...] = (1.0 - BN_MOMENTUM) * s.running_var + BN_MOMENTUM * var
        np.multiply(s.gamma, xhat, out=out)  # the squares' buffer, reused
        out += s.beta
        return out, (xhat, inv_std)
    inv_std = 1.0 / np.sqrt(s.running_var + BN_EPSILON)
    return s.gamma * (x - s.running_mean) * inv_std + s.beta, None


def single_lane_batchnorm_backward(upstream, cache, s):
    if cache is None:
        raise ValueError("batchnorm_backward requires a train-mode cache")
    xhat, inv_std = cache
    if upstream.shape != xhat.shape:
        raise ShapeError("batchnorm_backward: upstream does not match cache")
    n = upstream.shape[0]
    # inv_std * (t - mean(t) - xhat * mean(t * xhat)) with t = upstream * gamma,
    # each product formed in one reused buffer
    prod = upstream * xhat
    s.grad_gamma += np.add.reduce(prod, axis=0)
    s.grad_beta += np.add.reduce(upstream, axis=0)
    t = upstream * s.gamma
    np.multiply(t, xhat, out=prod)
    t_xhat_mean = np.add.reduce(prod, axis=0) / n
    t -= np.add.reduce(t, axis=0) / n
    np.multiply(xhat, t_xhat_mean, out=prod)
    t -= prod
    t *= inv_std
    return t


def single_lane_dropout_apply(x, rate, rng, train):
    if not (0.0 <= rate < 1.0):
        raise ValueError(f"dropout rate must lie in [0, 1), got {rate}")
    if not train or rate == 0.0:
        return x, None
    if rng is None:
        raise ValueError("train-mode dropout needs an explicit rng")
    keep = rng.random(x.shape) >= rate
    scale = 1.0 / (1.0 - rate)
    y = x * keep
    y *= scale
    return y, (keep, scale)


def single_lane_dropout_backward(upstream, mask):
    if mask is None:
        return upstream
    keep, scale = mask
    out = upstream * keep
    out *= scale
    return out
