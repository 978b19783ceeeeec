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
from .nn_core import ShapeError, glorot_uniform, silu, silu_derivative
# basis_derivative_matrix is not called here (the derivative comes with the
# basis); it stays importable as kan.basis_derivative_matrix, the name
# perfbench/tracer.py wraps
from .spline import KnotVector, basis_derivative_matrix, basis_matrix, build_knots


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
    is built before sigmoid(x), so that none of this layer's other arrays is
    alive while the basis holds its temporaries. Inference computes no
    derivative and returns cache None.
    """
    if x.ndim != 2 or x.shape[1] != p.in_dim:
        raise ShapeError(f"kan_forward: input {x.shape} does not match in_dim {p.in_dim}")
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


def kan_backward(upstream: np.ndarray, cache, p: KanLayerParams) -> np.ndarray:
    """Return dL/dx; accumulate dL/dw_b, dL/dw_s, dL/dc."""
    x, sig, basis, dbasis, weighted = cache
    rows = x.shape[0]
    if upstream.shape != (rows, p.out_dim) or basis.shape != (rows, p.in_dim, p.kv.n_basis):
        raise ShapeError("kan_backward: upstream/cache shapes do not match layer")
    p.grad_base_weight += upstream.T @ silu(x, sig)
    # per-edge basis response aggregated over the batch
    agg = (upstream.T @ basis.reshape(rows, -1)).reshape(p.out_dim, p.in_dim, -1)
    p.grad_spline_weight += (agg * p.coeffs).sum(axis=2)
    p.grad_coeffs += agg * p.spline_weight[:, :, None]
    spline_dx = (upstream @ weighted).reshape(basis.shape)
    spline_dx *= dbasis
    dx = silu_derivative(x, sig)
    dx *= upstream @ p.base_weight
    dx += spline_dx.sum(axis=2)
    return dx
