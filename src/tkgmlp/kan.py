"""Kolmogorov-Arnold layer: summed learnable univariate edge functions.

Each edge (input p, output q) carries

    phi(x) = w_b[q,p] * silu(x) + w_s[q,p] * sum_i c[q,p,i] * B_i(x)

and output q is the sum of phi over inputs. All edges of a layer share one
knot vector, so the spline basis is expanded once per input column and the
rest is matrix algebra. A training forward pass keeps sigmoid(x) and the
basis derivative for the backward pass, so each is computed once per step.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import nn_core
# silu and basis_derivative_matrix are not called here (the lane may call no
# name that perfbench/tracer.py wraps, and the derivative comes with the
# basis); they stay importable as kan.silu and kan.basis_derivative_matrix,
# the names it wraps
from .nn_core import ShapeError, glorot_uniform, silu, silu_derivative
from .spline import KnotVector, basis_derivative_matrix, basis_matrix, build_knots

# Rows per block of the spline term of ``kan_backward``. Its product
# (rows, in_dim, n_basis) is 8.4 MB over a 4,096-row batch of 32 inputs at
# n_basis 8, and 0.5 MiB over a 256-row block. Measured as for
# ``spline.BASIS_BLOCK_POINTS``, medians of 31, the whole backward on 4,096
# rows of 32 inputs and 64 outputs: blocks of 256 / 512 / 1,024 / 2,048 rows
# took 19.2 / 19.1 / 19.9 / 20.4 ms against 20.8 ms for the whole batch; at
# 512 outputs every size was within noise of the whole batch (74-80 ms).
# A remainder shorter than a block joins the block before it: OpenBLAS
# multiplies one row, and at 512 outputs a few rows, by other kernels, whose
# sums round differently from those of the whole-batch product.
KAN_BACKWARD_BLOCK_ROWS = 256


@dataclass
class KanLayerParams(nn_core.ParameterHolder):
    """Spline coefficients plus base/spline edge weights for one layer."""

    kv: KnotVector
    base_weight: np.ndarray  # (out_dim, in_dim)
    spline_weight: np.ndarray  # (out_dim, in_dim)
    coeffs: np.ndarray  # (out_dim, in_dim, n_basis)
    grad_base_weight: np.ndarray = field(default=None, repr=False)
    grad_spline_weight: np.ndarray = field(default=None, repr=False)
    grad_coeffs: np.ndarray = field(default=None, repr=False)

    def __post_init__(self):
        if self.coeffs.shape != (*self.base_weight.shape, self.kv.n_basis):
            raise ShapeError("coeffs must have shape (out_dim, in_dim, n_basis)")
        if self.spline_weight.shape != self.base_weight.shape:
            raise ShapeError("spline_weight must shape-match base_weight")
        for arr in (self.base_weight, self.spline_weight, self.coeffs):
            if not np.all(np.isfinite(arr)):
                raise ValueError("KAN parameters must be finite")
        if self.grad_base_weight is None:
            self.grad_base_weight = np.zeros_like(self.base_weight)
        if self.grad_spline_weight is None:
            self.grad_spline_weight = np.zeros_like(self.spline_weight)
        if self.grad_coeffs is None:
            self.grad_coeffs = np.zeros_like(self.coeffs)

    @property
    def in_dim(self) -> int:
        return self.base_weight.shape[1]

    @property
    def out_dim(self) -> int:
        return self.base_weight.shape[0]

    def named_arrays(self):
        return [
            ("base_weight", self.base_weight, self.grad_base_weight),
            ("spline_weight", self.spline_weight, self.grad_spline_weight),
            ("coeffs", self.coeffs, self.grad_coeffs),
        ]


def kan_init(
    in_dim: int,
    out_dim: int,
    grid_size: int,
    degree: int,
    domain: tuple[float, float],
    rng: np.random.Generator,
) -> KanLayerParams:
    """Fan-based uniform base weights, unit spline weights, small-noise coeffs."""
    if in_dim < 1 or out_dim < 1:
        raise ValueError("dimensions must be positive")
    kv = build_knots(grid_size, degree, domain)
    noise = 0.1 / grid_size
    return KanLayerParams(
        kv=kv,
        base_weight=glorot_uniform(rng, in_dim, out_dim, shape=(out_dim, in_dim)),
        spline_weight=np.ones((out_dim, in_dim)),
        coeffs=rng.uniform(-noise, noise, size=(out_dim, in_dim, kv.n_basis)),
    )


def kan_forward(x: np.ndarray, p: KanLayerParams, train: bool = True):
    """y[r,q] = sum_p w_b[q,p] silu(x[r,p]) + w_s[q,p] sum_i c[q,p,i] B_i(x[r,p]).

    Train mode returns the cache (x, sigmoid(x), basis, basis derivative,
    w_s * c); basis and derivative come from one cell lookup, and the
    backward pass rebuilds silu and silu' from the cached sigmoid. The basis
    holds its temporaries only for one block of ``spline.BASIS_BLOCK_POINTS``
    points at a time, so its whole-batch arrays are its outputs alone.
    Inference computes no derivative and returns cache None.

    The sigmoid and the silu product run on the lane while the caller builds
    the basis and its product; the two terms are added on the caller. The
    basis itself is not split over the lanes: its blocks make many short
    numpy calls, which contend for the interpreter lock. On a 2-core Xeon
    host, 131,072 points took 26.8 ms in two threads against 19.5 ms in one.
    """
    if x.ndim != 2 or x.shape[1] != p.in_dim:
        raise ShapeError(f"kan_forward: input {x.shape} does not match in_dim {p.in_dim}")
    rows = x.shape[0]
    weighted = (p.spline_weight[:, :, None] * p.coeffs).reshape(p.out_dim, -1)
    sig, silu_x, y = np.empty_like(x), np.empty_like(x), np.empty((rows, p.out_dim))

    def base_term():
        nn_core.sigmoid_into(x, sig, silu_x)  # silu_x is the sigmoid's scratch until it takes silu
        np.multiply(x, sig, out=silu_x)
        np.matmul(silu_x, p.base_weight.T, out=y)

    def spline_term():
        if train:
            bases = basis_matrix(x.ravel(), p.kv, with_derivative=True)
        else:
            bases = (basis_matrix(x.ravel(), p.kv),)
        return bases, bases[0].reshape(rows, -1) @ weighted.T

    _, (bases, spline_y) = nn_core.both(base_term, spline_term, rows)
    y += spline_y
    if not train:
        return y, None
    shape = (rows, p.in_dim, p.kv.n_basis)
    return y, (x, sig, bases[0].reshape(shape), bases[1].reshape(shape), weighted)


def kan_backward(upstream: np.ndarray, cache, p: KanLayerParams) -> np.ndarray:
    """Return dL/dx; accumulate dL/dw_b, dL/dw_s, dL/dc.

    The weight gradients' two products run on the lane while the caller
    forms dL/dx; the caller adds them into the gradients. The spline part of
    dL/dx goes ``KAN_BACKWARD_BLOCK_ROWS`` rows at a time and gives the bits
    of one whole-batch product.
    """
    x, sig, basis, dbasis, weighted = cache
    rows = x.shape[0]
    if upstream.shape != (rows, p.out_dim) or basis.shape != (rows, p.in_dim, p.kv.n_basis):
        raise ShapeError("kan_backward: upstream/cache shapes do not match layer")
    silu_x, base_grad = np.empty_like(x), np.empty_like(p.base_weight)
    # per-edge basis response aggregated over the batch
    agg = np.empty((p.out_dim, p.in_dim * p.kv.n_basis))

    def weight_products():
        np.multiply(x, sig, out=silu_x)
        np.matmul(upstream.T, silu_x, out=base_grad)
        np.matmul(upstream.T, basis.reshape(rows, -1), out=agg)

    def input_grad():
        dx = silu_derivative(x, sig)
        dx *= upstream @ p.base_weight
        # the spline term sum_i (upstream @ weighted)[r,p,i] * B_i'(x[r,p]) by
        # row blocks, the last of which takes any remainder shorter than a block
        lo = 0
        while lo < rows:
            hi = rows if rows - lo < 2 * KAN_BACKWARD_BLOCK_ROWS else lo + KAN_BACKWARD_BLOCK_ROWS
            spline_dx = (upstream[lo:hi] @ weighted).reshape(dbasis[lo:hi].shape)
            spline_dx *= dbasis[lo:hi]
            dx[lo:hi] += spline_dx.sum(axis=2)
            lo = hi
        return dx

    _, dx = nn_core.both(weight_products, input_grad, rows)
    p.grad_base_weight += base_grad
    agg = agg.reshape(p.out_dim, p.in_dim, -1)
    p.grad_spline_weight += (agg * p.coeffs).sum(axis=2)
    p.grad_coeffs += agg * p.spline_weight[:, :, None]
    return dx
