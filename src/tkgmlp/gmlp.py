"""Gated MLP block: batch norm, SwiGLU gated transform, dropout.

SwiGLU(x) = silu(x V + b1) * (x U + b2), elementwise product of a gate
branch and a value branch of identical width. The block changes dimension
d -> h inside the two affine maps. Dropout keeps a bool keep-mask and one
scale, not a float multiplier per entry.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nn_core
from .nn_core import (
    BatchNormState,
    LinearParams,
    ShapeError,
    batchnorm_backward,
    batchnorm_forward,
    dropout_apply,
    dropout_backward,
    # not called here (the lane may call no name that perfbench/tracer.py
    # wraps); they stay importable as gmlp.silu and gmlp.silu_derivative,
    # the names it wraps
    silu,
    silu_derivative,
)


@dataclass
class GmlpBlockParams(nn_core.ParameterHolder):
    bn: BatchNormState  # over input dim d
    gate: LinearParams  # V, b1: d -> h, silu side
    value: LinearParams  # U, b2: d -> h
    dropout: float = 0.0

    def __post_init__(self):
        if self.gate.out_dim != self.value.out_dim:
            raise ShapeError("gate and value branches must share the output dim")
        if self.gate.in_dim != self.bn.dim or self.value.in_dim != self.bn.dim:
            raise ShapeError("branch input dims must match the batch-norm dim")

    @classmethod
    def create(cls, in_dim: int, hidden_dim: int, dropout: float, rng: np.random.Generator) -> "GmlpBlockParams":
        return cls(
            bn=BatchNormState.create(in_dim),
            gate=LinearParams.create(in_dim, hidden_dim, rng),
            value=LinearParams.create(in_dim, hidden_dim, rng),
            dropout=dropout,
        )

    @property
    def in_dim(self) -> int:
        return self.bn.dim

    @property
    def out_dim(self) -> int:
        return self.gate.out_dim

    def named_arrays(self):
        return nn_core.prefixed([("bn", self.bn), ("gate", self.gate), ("value", self.value)])


def swiglu(x: np.ndarray, p: GmlpBlockParams):
    """silu(x V + b1) * (x U + b2).

    The cache (x, gate_pre, value_pre, sigmoid(gate_pre)) lets the backward
    pass rebuild silu and silu' of the gate without a second sigmoid. Each
    row depends on its own row of x alone, so the rows go in two halves,
    one on the lane (``nn_core.row_halves``).
    """
    rows, width = x.shape[0], p.out_dim
    gate_pre, value_pre, sig, out = (np.empty((rows, width)) for _ in range(4))

    def part(lo, hi):
        g, v, s, o = gate_pre[lo:hi], value_pre[lo:hi], sig[lo:hi], out[lo:hi]
        np.matmul(x[lo:hi], p.gate.weight, out=g)
        g += p.gate.bias
        np.matmul(x[lo:hi], p.value.weight, out=v)
        v += p.value.bias
        nn_core.sigmoid_into(g, s, o)  # o is the sigmoid's scratch until it takes silu
        np.multiply(g, s, out=o)
        o *= v

    nn_core.row_halves(part, rows)
    return out, (x, gate_pre, value_pre, sig)


def swiglu_backward(upstream: np.ndarray, cache, p: GmlpBlockParams) -> np.ndarray:
    """Accumulate the branch gradients; return dL/dx.

    dgate, dvalue and dx go by row halves. The weight gradients sum over
    rows, so they are two whole-batch products, one on the lane.
    """
    x, gate_pre, value_pre, sig = cache
    if upstream.shape != gate_pre.shape:
        raise ShapeError("swiglu_backward: upstream does not match cache")
    rows = x.shape[0]
    dgate, dvalue = np.empty_like(gate_pre), np.empty_like(gate_pre)
    dx, value_dx = np.empty_like(x), np.empty_like(x)

    def part(lo, hi):
        up, dg, dv = upstream[lo:hi], dgate[lo:hi], dvalue[lo:hi]
        nn_core.silu_derivative_into(gate_pre[lo:hi], sig[lo:hi], dv)  # dv holds silu' until it takes dvalue
        np.multiply(up, value_pre[lo:hi], out=dg)
        dg *= dv
        np.multiply(gate_pre[lo:hi], sig[lo:hi], out=dv)
        dv *= up
        np.matmul(dg, p.gate.weight.T, out=dx[lo:hi])
        np.matmul(dv, p.value.weight.T, out=value_dx[lo:hi])
        dx[lo:hi] += value_dx[lo:hi]

    nn_core.row_halves(part, rows)
    gate_grad = np.empty_like(p.gate.weight)
    _, value_grad = nn_core.both(lambda: np.matmul(x.T, dgate, out=gate_grad), lambda: x.T @ dvalue, rows)
    p.gate.grad_weight += gate_grad
    p.gate.grad_bias += dgate.sum(axis=0)
    p.value.grad_weight += value_grad
    p.value.grad_bias += dvalue.sum(axis=0)
    return dx


def gmlp_block_forward(x: np.ndarray, p: GmlpBlockParams, train: bool, rng: np.random.Generator | None = None):
    """dropout(swiglu(batchnorm(x))). Train mode returns the cache
    (batch-norm cache, swiglu cache, dropout mask); inference returns None."""
    normed, bn_cache = batchnorm_forward(x, p.bn, train)
    gated, swiglu_cache = swiglu(normed, p)
    out, mask = dropout_apply(gated, p.dropout, rng, train)
    if not train:
        return out, None
    return out, (bn_cache, swiglu_cache, mask)


def gmlp_block_backward(upstream: np.ndarray, cache, p: GmlpBlockParams) -> np.ndarray:
    bn_cache, swiglu_cache, mask = cache
    dnormed = swiglu_backward(dropout_backward(upstream, mask), swiglu_cache, p)
    return batchnorm_backward(dnormed, bn_cache, p.bn)
