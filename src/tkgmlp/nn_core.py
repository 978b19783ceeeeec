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
BN_MOMENTUM = 0.1  # weight of the batch statistics in a running-statistics update
BN_EPSILON = 1e-5  # added to every variance before its square root


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


def sigmoid(x):
    """Numerically stable logistic function, scalar or array.

    1/(1+z) for x >= 0 and z/(1+z) below, with z = exp(-|x|), which never
    overflows. The pass runs in place, and each entry computes only its own
    half-line formula.
    """
    arr = np.asarray(x, dtype=np.float64)
    out = np.empty_like(arr)
    np.abs(arr, out=out)
    np.negative(out, out=out)
    np.exp(out, out=out)  # z
    den = out + 1.0
    # numerator: 1 where x >= 0, else z; as z <= 1, a max picks it without a branch
    np.maximum(out, arr >= 0.0, out=out)
    np.divide(out, den, out=out)
    return float(out) if arr.ndim == 0 else out


def silu(x, sig=None):
    """x * sigmoid(x), the sigmoid linear unit; ``sig`` is sigmoid(x) if the
    caller already has it."""
    if sig is None:
        sig = sigmoid(x)
    if np.ndim(x) == 0:
        return float(x) * sig
    return np.asarray(x, dtype=np.float64) * sig


def silu_derivative(x, sig=None):
    """Analytic d/dx of silu: sigma(x) * (1 + x * (1 - sigma(x))); ``sig`` is
    sigmoid(x) if the caller already has it."""
    s = sigmoid(x) if sig is None else sig
    if np.ndim(x) == 0:
        return s * (1.0 + float(x) * (1.0 - s))
    out = 1.0 - s
    out *= x
    out += 1.0
    out *= s
    return out


def glorot_uniform(rng: np.random.Generator, fan_in: int, fan_out: int, shape=None) -> np.ndarray:
    """Uniform init in +-sqrt(6 / (fan_in + fan_out))."""
    if fan_in <= 0 or fan_out <= 0:
        raise ValueError("fan dimensions must be positive")
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    if shape is None:
        shape = (fan_in, fan_out)
    return rng.uniform(-limit, limit, size=shape)


class ParameterHolder:
    """Base of the classes that hold arrays. Each lists them in its
    ``named_arrays()`` as (name, array, grad), where grad is the gradient
    buffer, or None for state that is not learned."""

    def zero_grads(self):
        for _, _, grad in self.named_arrays():
            if grad is not None:
                grad[...] = 0.0


def prefixed(parts) -> list[tuple[str, np.ndarray, np.ndarray | None]]:
    """One registry from (prefix, holder) pairs: each of the holder's
    ``named_arrays`` entries, in order, with its name as ``prefix.name``."""
    return [(f"{prefix}.{name}", arr, grad) for prefix, holder in parts for name, arr, grad in holder.named_arrays()]


@dataclass
class LinearParams(ParameterHolder):
    """Affine map y = x W + b with gradient buffers of matching shapes."""

    weight: np.ndarray  # (in_dim, out_dim)
    bias: np.ndarray  # (out_dim,)
    grad_weight: np.ndarray = field(default=None, repr=False)
    grad_bias: np.ndarray = field(default=None, repr=False)

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

    def named_arrays(self):
        return [("weight", self.weight, self.grad_weight), ("bias", self.bias, self.grad_bias)]


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
    p.grad_weight += x.T @ upstream
    p.grad_bias += upstream.sum(axis=0)
    return upstream @ p.weight.T


@dataclass
class BatchNormState(ParameterHolder):
    """Per-column standardization with learnable scale/shift and running stats."""

    gamma: np.ndarray
    beta: np.ndarray
    running_mean: np.ndarray
    running_var: np.ndarray
    grad_gamma: np.ndarray = field(default=None, repr=False)
    grad_beta: np.ndarray = field(default=None, repr=False)

    def __post_init__(self):
        if np.any(self.running_var < 0.0):
            raise ValueError("running_var entries must be >= 0")
        if self.grad_gamma is None:
            self.grad_gamma = np.zeros_like(self.gamma)
        if self.grad_beta is None:
            self.grad_beta = np.zeros_like(self.beta)

    @classmethod
    def create(cls, dim: int) -> "BatchNormState":
        return cls(gamma=np.ones(dim), beta=np.zeros(dim), running_mean=np.zeros(dim), running_var=np.ones(dim))

    @property
    def dim(self) -> int:
        return self.gamma.shape[0]

    def named_arrays(self):
        """The running statistics are state, not parameters: their grad is None."""
        return [("gamma", self.gamma, self.grad_gamma), ("beta", self.beta, self.grad_beta),
                ("running_mean", self.running_mean, None), ("running_var", self.running_var, None)]


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


def batchnorm_backward(upstream: np.ndarray, cache, s: BatchNormState) -> np.ndarray:
    """Backward through train-mode batch statistics; returns dL/dx."""
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


def dropout_apply(x: np.ndarray, rate: float, rng: np.random.Generator | None, train: bool):
    """Inverted dropout. Returns (y, mask) with mask None or (keep, scale).

    Train mode draws a bool keep-mask that drops entries with probability
    ``rate`` and scales survivors by scale = 1/(1-rate), so the expectation
    is preserved. Rate 0 and inference are the identity: they return ``x``
    itself and mask None, allocating nothing.
    """
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


def dropout_backward(upstream: np.ndarray, mask) -> np.ndarray:
    """dL/dx of ``dropout_apply`` given its mask: upstream * keep * scale."""
    if mask is None:
        return upstream
    keep, scale = mask
    out = upstream * keep
    out *= scale
    return out


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
