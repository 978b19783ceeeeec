"""Dense numeric primitives with explicit forward/backward passes.

A batch is a row-major float64 matrix, rows are samples. Every layer keeps
its own gradient buffers so the training loop and the finite-difference
checks can inspect each gradient directly. All functions are pure given
their explicit inputs; randomness always comes in through a caller-owned
``numpy.random.Generator``.

The lane. A train step has independent work that a second core can take
without changing a bit: products that do not read each other's results,
and elementwise work in which a row depends only on itself, such as the
passes of train-mode batch norm and dropout between their column sums. So
does the build of a training table, column by column. ``both`` and
``row_halves`` hand one of two such parts to the lane, which is one extra
thread, started on first use, and run the other on the caller. Its callers
are the train step (``kan``, ``gmlp`` and the batch norm and dropout here),
``data.synth_generate``, which draws every other column of a group on it,
and ``encoders.EncoderSpec.fit``, which fits every other column of a group
on it. Its contract:

- one extra thread, created here and nowhere else in the package;
- numpy only on the lane. The train step's parts write large outputs
  through ``out=`` into arrays that the caller allocated; a table build's
  parts allocate their own columns' temporaries, a few column-length arrays
  at a time, and write each column into the caller's group buffer or return
  its small fitted statistics. The lane calls none of the names that the
  benchmark's span tracer (perfbench/tracer.py) wraps, whose span stack all
  threads share, so it takes ``sigmoid_into`` and ``silu_derivative_into``;
- sums that combine the two parts run on the caller, after both ended, in
  the fixed order of the single-lane code, so every result keeps its bits:
  column sums stay whole-batch ``np.add.reduce`` calls on whole arrays
  (``both`` may run two independent ones as a pair), batch norm updates
  its running statistics on the caller, and dropout draws all its
  uniforms there in one call, so the generator's stream is that of the
  single-lane code;
- below ``LANE_MIN_ROWS`` rows both parts run on the caller, the whole
  batch in one call, so inference blocks and small minibatches never start
  the thread and a product is never split into a few-row slice (OpenBLAS
  multiplies one row, and a few rows at 512 outputs, with other kernels,
  whose sums round differently);
- it assumes one BLAS thread: with more, the lane's and the caller's BLAS
  calls compete for the same cores. ``trainer.train`` runs under
  ``one_blas_thread``.

Freed pages. A train step allocates and frees one step of activations,
hundreds of MB at h=512. glibc's malloc hands such memory back to the OS:
it gives each array above its mmap threshold its own mapping, unmapped on
free, and trims a free heap top above its trim threshold. Both thresholds
start small and grow only to about 32 and 64 MB, so once backward frees
the cache, the next step page-faults it back. In a 4,096-row h=64 step
loop on a 2-core Xeon host that is about 8,600 minor faults a step, at
about 1.5 us each: 20 % of the step. ``keep_freed_pages`` raises both
thresholds through ``mallopt`` for the whole process, so that freed
activations stay as reusable heap. glibc reads its ``MALLOC_*_``
environment variables only at process start, too late for a library.
Arrays above ``KEEP_MMAP_THRESHOLD`` (32 MiB, glibc's cap; the 4,096 x
1,024 float64 arrays of an h=1024 step reach it) are still mapped and
unmapped one by one.

One malloc arena. glibc gives a thread that allocates while another
holds the main arena an arena of its own, and that arena keeps what the
thread frees, for the thread alone. The table builds' column temporaries
stayed in the lane's arena: in the criterion-5 benchmark (train-h64, one
run each) peak RSS read 254.2 MB, against 247.9 MB with every column
drawn and fitted on the caller. So ``_lane`` calls ``one_malloc_arena``
before it starts the thread. Through ``mallopt``, process-wide as
``keep_freed_pages``, it caps the arenas at one, so the lane allocates
from the arena that exists, under its lock, and what it frees is the
caller's to reuse; that run read 246.5 MB.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import threading
from dataclasses import dataclass, field

import numpy as np

BN_MOMENTUM = 0.1  # weight of the batch statistics in a running-statistics update
BN_EPSILON = 1e-5  # added to every variance before its square root
# Rows from which ``both`` and ``row_halves`` use the lane. Measured on a
# 2-core Xeon host (numpy 2.4.6, OpenBLAS 0.3.31, one BLAS thread), median
# ms of a KAN layer (32 -> h) plus a SwiGLU (h -> h), forward and backward,
# lane off / on, two runs each: at h=64, 1,024 rows 14.9, 21.6 / 16.2,
# 17.2; 2,048 rows 40.6, 38.2 / 30.6, 28.8; 4,096 rows 76.9, 60.1 / 54.9,
# 55.2. At h=512, 1,024 rows 161, 160 / 95, 94; 2,048 rows 287, 303 /
# 173, 178; 4,096 rows 550, 574 / 348, 354. The h=64 inference of
# ``TkgmlpModel.predict`` on 20,000 rows, in 1,024-row blocks, took 0.176,
# 0.157 s with the lane off and 0.205, 0.216 s with it on.
# Batch norm and dropout pass the same gate. A train step (a 32 -> h KAN
# layer, two h-wide gMLP blocks, dropout 0.3, 4,096 rows) with their passes
# on the lane in 256-row tiles from 2^19 elements on / by row halves from
# this gate, interleaved in one process, median ms of two runs of 100 (h=64)
# and 30 (h=512) steps: h=64 71.8, 75.6 / 68.3, 71.2; h=512 589.0, 605.8 /
# 617.3, 607.3, with bit-identical parameters after each run.
LANE_MIN_ROWS = 2_048

_LANE = []  # the lane's one-worker executor, made on first use
_LANE_LOCK = threading.Lock()
# glibc's mallopt parameters (malloc.h) and the values keep_freed_pages
# sets: an allocation from KEEP_MMAP_THRESHOLD bytes on gets a mapping of
# its own (glibc refuses more than 32 MiB on 64-bit hosts), and a free heap
# top is trimmed only from KEEP_TRIM_THRESHOLD bytes on (the largest int
# that mallopt takes, so never in practice).
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD, M_ARENA_MAX = -1, -3, -8
KEEP_MMAP_THRESHOLD = 32 << 20
KEEP_TRIM_THRESHOLD = (1 << 31) - 1


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


def _mallopt():
    """glibc's ``mallopt``, or None where the C library has none; looked up
    afresh at each call, as its two callers each run once."""
    import ctypes  # here, so that commands that never train do not load it

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):  # no libc handle, no mallopt
        return None
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    return mallopt


@functools.cache
def keep_freed_pages() -> bool:
    """Keep the memory that the process frees for its own reuse (see the
    module docstring); True if glibc took both settings. Process-wide and
    idempotent: later calls return the first call's answer. A no-op that
    returns False where the C library has no ``mallopt`` or refuses it."""
    mallopt = _mallopt()
    return (mallopt is not None and mallopt(M_MMAP_THRESHOLD, KEEP_MMAP_THRESHOLD) == 1
            and mallopt(M_TRIM_THRESHOLD, KEEP_TRIM_THRESHOLD) == 1)


@functools.cache
def one_malloc_arena() -> bool:
    """Let every thread allocate from the arenas that exist, so that the lane
    makes no malloc arena of its own (see the module docstring); True if
    glibc took the setting. Process-wide and idempotent, as
    ``keep_freed_pages``; ``_lane`` calls it before the lane's thread
    starts, as glibc gives a thread its arena at its first allocation."""
    mallopt = _mallopt()
    return mallopt is not None and mallopt(M_ARENA_MAX, 1) == 1


@functools.cache
def _blas_thread_calls():
    """``(get, set)`` of the BLAS thread count of the OpenBLAS that numpy's
    wheel bundles (``numpy.libs/libscipy_openblas64_*.so``, the library
    numpy has already loaded), or None where no such library exports them
    (MKL, Accelerate, another build)."""
    import ctypes  # here, as in keep_freed_pages
    import glob
    import os

    libs = glob.glob(os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs",
                                  "libscipy_openblas64_*.so"))
    try:
        blas = ctypes.CDLL(libs[0])
        get, set_ = blas.scipy_openblas_get_num_threads64_, blas.scipy_openblas_set_num_threads64_
    except (IndexError, OSError, AttributeError):  # no such library, or it lacks the calls
        return None
    get.argtypes, get.restype = (), ctypes.c_int
    set_.argtypes, set_.restype = (ctypes.c_int,), None
    return get, set_


@contextlib.contextmanager
def one_blas_thread():
    """Run the ``with`` block at one BLAS thread, then put back the count it
    found, also on an error. The count is process-wide, as in
    ``keep_freed_pages``. Does nothing where ``_blas_thread_calls`` finds no
    OpenBLAS to set."""
    calls = _blas_thread_calls()
    if calls is None:
        yield
        return
    get, set_ = calls
    before = get()
    set_(1)
    try:
        yield
    finally:
        set_(before)


def both(f, g, rows: int):
    """(f(), g()) for a batch of ``rows`` rows: f on the lane and g on the
    caller, or both on the caller below ``LANE_MIN_ROWS``.

    An exception raised by f reaches the caller, type and message intact,
    once g has returned; one raised by g once f has ended. f runs in a copy
    of the caller's ``contextvars`` context, so the caller's ``np.errstate``
    (a context variable in numpy 2) holds on the lane as on the caller. f
    must not call ``both`` or ``row_halves`` itself: the one worker would
    wait on itself.
    """
    if rows < LANE_MIN_ROWS:
        return f(), g()
    future = _lane().submit(contextvars.copy_context().run, f)
    try:
        second = g()
    finally:
        future.exception()  # waits: f writes the caller's arrays, so it ends before they are read or freed
    return future.result(), second


def _lane():
    with _LANE_LOCK:
        if not _LANE:
            one_malloc_arena()
            # imported here, so that commands that never use the lane do not
            # load concurrent.futures (0.6 MB of RSS): scoring, and synth and
            # encoding below LANE_MIN_ROWS rows; from there on, encoding
            # fits its encoder on the lane
            from concurrent.futures import ThreadPoolExecutor

            _LANE.append(ThreadPoolExecutor(max_workers=1, thread_name_prefix="tkgmlp-lane"))
        return _LANE[0]


def row_halves(fn, rows: int):
    """fn(0, rows // 2) on the lane and fn(rows // 2, rows) on the caller, or
    fn(0, rows) on the caller below ``LANE_MIN_ROWS``; fn writes its rows of
    arrays the caller allocated."""
    if rows < LANE_MIN_ROWS:
        fn(0, rows)
        return
    half = rows // 2
    both(lambda: fn(0, half), lambda: fn(half, rows), rows)


def sigmoid(x):
    """Numerically stable logistic function, scalar or array.

    1/(1+z) for x >= 0 and z/(1+z) below, with z = exp(-|x|), which never
    overflows. The pass runs in place, and each entry computes only its own
    half-line formula.
    """
    arr = np.asarray(x, dtype=np.float64)
    out = np.empty_like(arr)
    sigmoid_into(arr, out, np.empty_like(arr))
    return float(out) if arr.ndim == 0 else out


def sigmoid_into(arr: np.ndarray, out: np.ndarray, den: np.ndarray) -> np.ndarray:
    """``sigmoid`` of a float64 array written into ``out``, with ``den`` (same
    shape) as scratch; the lane's form, as it allocates no array of floats."""
    np.abs(arr, out=out)
    np.negative(out, out=out)
    np.exp(out, out=out)  # z
    np.add(out, 1.0, out=den)
    # numerator: 1 where x >= 0, else z; as z <= 1, a max picks it without a branch
    np.maximum(out, arr >= 0.0, out=out)
    np.divide(out, den, out=out)
    return out


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
    return silu_derivative_into(x, s, np.empty(np.shape(s)))


def silu_derivative_into(x, sig: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``silu_derivative`` of an array written into ``out``, from its sigmoid."""
    np.subtract(1.0, sig, out=out)
    out *= x
    out += 1.0
    out *= sig
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
    for the backward pass; inference returns cache=None, and forms
    gamma * (x - mean) * inv_std + beta in one new array, by the same
    operations in the same order, so with the bits of that expression.
    """
    if x.ndim != 2 or x.shape[1] != s.dim:
        raise ShapeError(f"batchnorm: input {x.shape} does not match dim {s.dim}")
    if train:
        if x.shape[0] < 2:
            raise DegenerateBatchError("batch statistics need at least 2 rows in train mode")
        n = x.shape[0]
        # the moments as x.mean and x.var form them, from one centred copy;
        # the passes between the column sums go by ``row_halves``
        mean = np.add.reduce(x, axis=0) / n
        xhat, out = np.empty_like(x), np.empty_like(x)

        def centre(lo, hi):
            xh = xhat[lo:hi]
            np.subtract(x[lo:hi], mean, out=xh)
            np.multiply(xh, xh, out=out[lo:hi])

        row_halves(centre, n)
        var = np.add.reduce(out, axis=0) / n
        inv_std = 1.0 / np.sqrt(var + BN_EPSILON)
        s.running_mean[...] = (1.0 - BN_MOMENTUM) * s.running_mean + BN_MOMENTUM * mean
        s.running_var[...] = (1.0 - BN_MOMENTUM) * s.running_var + BN_MOMENTUM * var

        def scale(lo, hi):
            xh, o = xhat[lo:hi], out[lo:hi]
            xh *= inv_std
            np.multiply(s.gamma, xh, out=o)  # the squares' buffer, reused
            o += s.beta

        row_halves(scale, n)
        return out, (xhat, inv_std)
    inv_std = 1.0 / np.sqrt(s.running_var + BN_EPSILON)
    out = np.subtract(x, s.running_mean)
    np.multiply(s.gamma, out, out=out)
    out *= inv_std
    out += s.beta
    return out, None


def batchnorm_backward(upstream: np.ndarray, cache, s: BatchNormState) -> np.ndarray:
    """Backward through train-mode batch statistics; returns dL/dx."""
    if cache is None:
        raise ValueError("batchnorm_backward requires a train-mode cache")
    xhat, inv_std = cache
    if upstream.shape != xhat.shape:
        raise ShapeError("batchnorm_backward: upstream does not match cache")
    n = upstream.shape[0]
    # inv_std * (t - mean(t) - xhat * mean(t * xhat)) with t = upstream * gamma,
    # each product formed in one reused buffer; the passes between the
    # column sums go by ``row_halves``
    prod, t = np.empty_like(upstream), np.empty_like(upstream)

    def products(lo, hi):
        up = upstream[lo:hi]
        np.multiply(up, xhat[lo:hi], out=prod[lo:hi])
        np.multiply(up, s.gamma, out=t[lo:hi])

    row_halves(products, n)
    gamma_sum, beta_sum = both(lambda: np.add.reduce(prod, axis=0), lambda: np.add.reduce(upstream, axis=0), n)
    s.grad_gamma += gamma_sum
    s.grad_beta += beta_sum
    row_halves(lambda lo, hi: np.multiply(t[lo:hi], xhat[lo:hi], out=prod[lo:hi]), n)
    t_xhat_mean, t_mean = both(lambda: np.add.reduce(prod, axis=0), lambda: np.add.reduce(t, axis=0), n)
    t_xhat_mean /= n
    t_mean /= n

    def combine(lo, hi):
        tt, p = t[lo:hi], prod[lo:hi]
        tt -= t_mean
        np.multiply(xhat[lo:hi], t_xhat_mean, out=p)
        tt -= p
        tt *= inv_std

    row_halves(combine, n)
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
    # every uniform is drawn here, in one call, into the output's buffer;
    # the mask and the products then go by ``row_halves``
    y, keep = np.empty(x.shape), np.empty(x.shape, dtype=bool)
    rng.random(out=y)
    scale = 1.0 / (1.0 - rate)

    def apply(lo, hi):
        k, o = keep[lo:hi], y[lo:hi]
        np.greater_equal(o, rate, out=k)
        np.multiply(x[lo:hi], k, out=o)
        o *= scale

    row_halves(apply, x.shape[0])
    return y, (keep, scale)


def dropout_backward(upstream: np.ndarray, mask) -> np.ndarray:
    """dL/dx of ``dropout_apply`` given its mask: upstream * keep * scale."""
    if mask is None:
        return upstream
    keep, scale = mask
    out = np.empty(upstream.shape)

    def apply(lo, hi):
        o = out[lo:hi]
        np.multiply(upstream[lo:hi], keep[lo:hi], out=o)
        o *= scale

    row_halves(apply, out.shape[0])
    return out


def bce_loss(logits: np.ndarray, labels: np.ndarray):
    """Mean binary cross-entropy of sigmoid(logits), mean(softplus(z) - y*z),
    and its gradient in the logits, exactly (sigmoid(z) - y) / n: about 1/n for
    a confidently wrong row however far its logit saturates. A NaN or
    infinite logit gives a non-finite loss, without a warning."""
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    if logits.shape != labels.shape:
        raise ShapeError(f"bce_loss: logits {logits.shape} vs labels {labels.shape}")
    if not np.all((labels == 0.0) | (labels == 1.0)):
        raise ValueError("bce_loss: labels must be exactly 0 or 1")
    n = logits.size
    with np.errstate(invalid="ignore"):
        loss = float((np.logaddexp(0.0, logits) - labels * logits).sum() / n)
    grad = (sigmoid(logits) - labels) / n
    return loss, grad
