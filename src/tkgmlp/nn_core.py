"""Dense numeric primitives with explicit forward/backward passes.

A batch is a row-major float64 matrix, rows are samples. Every layer keeps
its own gradient buffers so the training loop and the finite-difference
checks can inspect each gradient directly. All functions are pure given
their explicit inputs; randomness always comes in through a caller-owned
``numpy.random.Generator``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

BCE_CLAMP_EPS = 1e-7


class ShapeError(ValueError):
    """Operand shapes are incompatible."""


class DegenerateBatchError(ValueError):
    """Batch statistics are undefined (fewer than 2 rows in train mode)."""


def as_batch(data, name: str = "batch") -> np.ndarray:
    """Validate external input as a finite 2-d float64 matrix."""
    x = np.asarray(data, dtype=np.float64)
    if x.ndim != 2:
        raise ShapeError(f"{name}: expected a 2-d matrix, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError(f"{name}: NaN/Inf entries rejected")
    return x


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product with an explicit shape check, 64-bit accumulation."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"matmul expects 2-d operands, got {a.shape} x {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: inner dimensions differ, {a.shape} x {b.shape}")
    return a @ b


def sigmoid(x):
    """Numerically stable logistic function, scalar or array."""
    arr = np.asarray(x, dtype=np.float64)
    # exp(-|x|) never overflows; the two half-line formulas share it
    z = np.exp(-np.abs(arr))
    out = np.where(arr >= 0.0, 1.0 / (1.0 + z), z / (1.0 + z))
    return float(out) if arr.ndim == 0 else out


def silu(x):
    """x * sigmoid(x), the sigmoid linear unit."""
    if np.ndim(x) == 0:
        return float(x) * sigmoid(x)
    return np.asarray(x, dtype=np.float64) * sigmoid(x)


def silu_derivative(x):
    """Analytic d/dx of silu: sigma(x) * (1 + x * (1 - sigma(x)))."""
    s = sigmoid(x)
    if np.ndim(x) == 0:
        return s * (1.0 + float(x) * (1.0 - s))
    return s * (1.0 + np.asarray(x, dtype=np.float64) * (1.0 - s))


def glorot_uniform(rng: np.random.Generator, fan_in: int, fan_out: int, shape=None) -> np.ndarray:
    """Uniform init in +-sqrt(6 / (fan_in + fan_out))."""
    if fan_in <= 0 or fan_out <= 0:
        raise ValueError("fan dimensions must be positive")
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    if shape is None:
        shape = (fan_in, fan_out)
    return rng.uniform(-limit, limit, size=shape)


@dataclass
class LinearParams:
    """Affine map y = x W + b with gradient buffers of matching shapes."""

    weight: np.ndarray  # (in_dim, out_dim)
    bias: np.ndarray  # (out_dim,)
    grad_weight: np.ndarray = field(default=None, repr=False)
    grad_bias: np.ndarray = field(default=None, repr=False)
    frozen: bool = False

    def __post_init__(self):
        if self.grad_weight is None:
            self.grad_weight = np.zeros_like(self.weight)
        if self.grad_bias is None:
            self.grad_bias = np.zeros_like(self.bias)
        if self.grad_weight.shape != self.weight.shape or self.grad_bias.shape != self.bias.shape:
            raise ShapeError("gradient buffers must shape-match parameters")

    @classmethod
    def create(cls, in_dim: int, out_dim: int, rng: np.random.Generator) -> "LinearParams":
        return cls(
            weight=glorot_uniform(rng, in_dim, out_dim),
            bias=np.zeros(out_dim),
        )

    @property
    def in_dim(self) -> int:
        return self.weight.shape[0]

    @property
    def out_dim(self) -> int:
        return self.weight.shape[1]

    def parameters(self):
        return [(self.weight, self.grad_weight), (self.bias, self.grad_bias)]

    def zero_grads(self):
        self.grad_weight[...] = 0.0
        self.grad_bias[...] = 0.0


def linear_forward(x: np.ndarray, p: LinearParams):
    """y = x W + b. Returns (y, cache) where cache holds the input."""
    if x.ndim != 2 or x.shape[1] != p.in_dim:
        raise ShapeError(f"linear_forward: input {x.shape} does not match in_dim {p.in_dim}")
    return x @ p.weight + p.bias, x


def linear_backward(upstream: np.ndarray, cache: np.ndarray, p: LinearParams) -> np.ndarray:
    """Accumulate dL/dW = x^T upstream, dL/db = column sums; return dL/dx."""
    x = cache
    if upstream.shape != (x.shape[0], p.out_dim):
        raise ShapeError(f"linear_backward: upstream {upstream.shape} does not match cache")
    if not p.frozen:
        p.grad_weight += x.T @ upstream
        p.grad_bias += upstream.sum(axis=0)
    return upstream @ p.weight.T


@dataclass
class BatchNormState:
    """Per-column standardization with learnable scale/shift and running stats."""

    gamma: np.ndarray
    beta: np.ndarray
    running_mean: np.ndarray
    running_var: np.ndarray
    momentum: float = 0.1
    epsilon: float = 1e-5
    grad_gamma: np.ndarray = field(default=None, repr=False)
    grad_beta: np.ndarray = field(default=None, repr=False)
    frozen: bool = False

    def __post_init__(self):
        if not (0.0 < self.momentum < 1.0):
            raise ValueError("momentum must lie in (0, 1)")
        if self.epsilon <= 0.0:
            raise ValueError("epsilon must be positive")
        if np.any(self.running_var < 0.0):
            raise ValueError("running_var entries must be >= 0")
        if self.grad_gamma is None:
            self.grad_gamma = np.zeros_like(self.gamma)
        if self.grad_beta is None:
            self.grad_beta = np.zeros_like(self.beta)

    @classmethod
    def create(cls, dim: int, momentum: float = 0.1, epsilon: float = 1e-5) -> "BatchNormState":
        return cls(
            gamma=np.ones(dim),
            beta=np.zeros(dim),
            running_mean=np.zeros(dim),
            running_var=np.ones(dim),
            momentum=momentum,
            epsilon=epsilon,
        )

    @property
    def dim(self) -> int:
        return self.gamma.shape[0]

    def parameters(self):
        return [(self.gamma, self.grad_gamma), (self.beta, self.grad_beta)]

    def zero_grads(self):
        self.grad_gamma[...] = 0.0
        self.grad_beta[...] = 0.0


def batchnorm_forward(x: np.ndarray, s: BatchNormState, train: bool):
    """Standardize columns by batch (train) or running (inference) statistics.

    Train mode updates the running statistics in place and returns a cache
    for the backward pass; inference returns cache=None.
    """
    if x.ndim != 2 or x.shape[1] != s.dim:
        raise ShapeError(f"batchnorm: input {x.shape} does not match dim {s.dim}")
    if train:
        if x.shape[0] < 2:
            raise DegenerateBatchError("batch statistics need at least 2 rows in train mode")
        mean = x.mean(axis=0)
        var = x.var(axis=0)
        inv_std = 1.0 / np.sqrt(var + s.epsilon)
        xhat = (x - mean) * inv_std
        s.running_mean[...] = (1.0 - s.momentum) * s.running_mean + s.momentum * mean
        s.running_var[...] = (1.0 - s.momentum) * s.running_var + s.momentum * var
        return s.gamma * xhat + s.beta, (xhat, inv_std)
    inv_std = 1.0 / np.sqrt(s.running_var + s.epsilon)
    return s.gamma * (x - s.running_mean) * inv_std + s.beta, None


def batchnorm_backward(upstream: np.ndarray, cache, s: BatchNormState) -> np.ndarray:
    """Backward through train-mode batch statistics; returns dL/dx."""
    if cache is None:
        raise ValueError("batchnorm_backward requires a train-mode cache")
    xhat, inv_std = cache
    if upstream.shape != xhat.shape:
        raise ShapeError("batchnorm_backward: upstream does not match cache")
    if not s.frozen:
        s.grad_gamma += (upstream * xhat).sum(axis=0)
        s.grad_beta += upstream.sum(axis=0)
    t = upstream * s.gamma
    return inv_std * (t - t.mean(axis=0) - xhat * (t * xhat).mean(axis=0))


def dropout_apply(x: np.ndarray, rate: float, rng: np.random.Generator | None, train: bool):
    """Inverted dropout. Returns (y, mask) where mask is the exact multiplier.

    Train mode zeroes entries with probability ``rate`` and scales survivors
    by 1/(1-rate) so the expectation is preserved; inference is the identity
    and returns mask None, allocating nothing.
    """
    if not (0.0 <= rate < 1.0):
        raise ValueError(f"dropout rate must lie in [0, 1), got {rate}")
    if not train:
        return x, None
    if rate == 0.0:
        return x, np.ones_like(x)
    if rng is None:
        raise ValueError("train-mode dropout needs an explicit rng")
    mask = (rng.random(x.shape) >= rate) / (1.0 - rate)
    return x * mask, mask


def bce_loss(probs: np.ndarray, labels: np.ndarray):
    """Mean binary cross-entropy over probabilities, with its gradient.

    Probabilities are clamped to [eps, 1-eps] (eps = 1e-7) before the logs;
    the gradient is taken at the clamped values.
    """
    probs = np.asarray(probs, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    if probs.shape != labels.shape:
        raise ShapeError(f"bce_loss: probs {probs.shape} vs labels {labels.shape}")
    if not np.all((labels == 0.0) | (labels == 1.0)):
        raise ValueError("bce_loss: labels must be exactly 0 or 1")
    p = np.clip(probs, BCE_CLAMP_EPS, 1.0 - BCE_CLAMP_EPS)
    n = p.size
    loss = float(-(labels * np.log(p) + (1.0 - labels) * np.log1p(-p)).sum() / n)
    grad = (p - labels) / (p * (1.0 - p)) / n
    return loss, grad
