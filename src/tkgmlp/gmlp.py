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
    pass rebuild silu and silu' of the gate without a second sigmoid.
    """
    gate_pre = x @ p.gate.weight
    gate_pre += p.gate.bias
    value_pre = x @ p.value.weight
    value_pre += p.value.bias
    sig = nn_core.sigmoid(gate_pre)
    out = silu(gate_pre, sig)
    out *= value_pre
    return out, (x, gate_pre, value_pre, sig)


def swiglu_backward(upstream: np.ndarray, cache, p: GmlpBlockParams) -> np.ndarray:
    x, gate_pre, value_pre, sig = cache
    if upstream.shape != gate_pre.shape:
        raise ShapeError("swiglu_backward: upstream does not match cache")
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
