"""TKGMLP assembly: batch norm, KAN stack with dropout, gMLP stack, sigmoid head.

The forward pass is

    logits = head(gmlp_N(... gmlp_1(drop(kan_M(... drop(kan_1(bn(x))))))...))

with dropout after every KAN layer, and either stack allowed to be empty
(pure-gMLP and pure-KAN ablations).
Training stops at the logits, which ``nn_core.bce_loss`` takes; inference
returns scores = sigmoid(logits), per-row probabilities in [0, 1].
Every KAN layer uses the paper's one spline shape, cubic B-splines on a
uniform grid over [-1, 1] (Liu et al., arXiv:2404.19756), so
``SPLINE_DEGREE`` and ``SPLINE_RANGE`` are constants, not settings.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict

import numpy as np

from . import gmlp, kan, nn_core
from .config import ConfigError, require_int, require_number

# Rows per inference forward in predict (timings in its docstring). At 1,024
# rows the h=64 KAN basis of a block (1,024 x 32 x 8 float64) is 2 MiB and
# each hidden array 0.5 MB, so the elementwise passes over them stay in a
# core's L2 cache; at 65,536 rows they were 134 MB and 34 MB and streamed
# from DRAM. Peak memory is set by one block, not by the number of rows.
PREDICT_BLOCK_ROWS = 1_024

SPLINE_DEGREE = 3
SPLINE_RANGE = (-1.0, 1.0)
# The finest grid a KAN layer may take. The paper's grid uses 5 and 10; each
# layer holds in_dim x out_dim x (grid_size + SPLINE_DEGREE) coefficients.
# Every grid up to it gives finite, increasing knots over SPLINE_RANGE.
MAX_GRID_SIZE = 1_024


@dataclass(frozen=True)
class ModelConfig:
    """The ``model`` config section's keys, plus ``input_dim``, which the
    fitted encoder's output width sets. The paper fixes the spline's degree
    and range (``SPLINE_DEGREE``, ``SPLINE_RANGE``); a run sets its grid size."""

    input_dim: int
    hidden_dim: int = 64
    kan_layers: int = 1
    gmlp_layers: int = 1
    grid_size: int = 5
    dropout: float = 0.0

    def __post_init__(self):
        for name, low in (("input_dim", 1), ("hidden_dim", 1), ("kan_layers", 0), ("gmlp_layers", 0)):
            require_int(name, getattr(self, name), low)
        require_int("grid_size", self.grid_size, 1, MAX_GRID_SIZE)
        if self.kan_layers == 0 and self.gmlp_layers == 0:
            raise ConfigError("kan_layers and gmlp_layers cannot both be 0")
        require_number("dropout", self.dropout, lambda v: 0.0 <= v < 1.0, "in [0, 1)")

    spline_degree = property(lambda self: SPLINE_DEGREE)  # read by perfbench's flop counts

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        return cls(**d)


@dataclass
class TkgmlpModel(nn_core.ParameterHolder):
    cfg: ModelConfig
    input_bn: nn_core.BatchNormState
    kan_stack: list[kan.KanLayerParams]
    gmlp_stack: list[gmlp.GmlpBlockParams]
    head: nn_core.LinearParams

    def named_arrays(self) -> list[tuple[str, np.ndarray, np.ndarray | None]]:
        """Every array that defines the model, as (name, array, grad) in one
        fixed order: input BN, each KAN layer, each gMLP block, the head.

        This is the one walk over the model's arrays. The names are the
        checkpoint's member names and this order is its ``arrays`` list, so
        a rename or reorder changes the checkpoint format. ``grad`` is the
        parameter's gradient buffer, or None for a batch-norm running
        statistic, which is state that training updates but does not learn.
        """
        return nn_core.prefixed([
            ("input_bn", self.input_bn),
            *((f"kan.{i}", layer) for i, layer in enumerate(self.kan_stack)),
            *((f"gmlp.{i}", block) for i, block in enumerate(self.gmlp_stack)),
            ("head", self.head),
        ])

    def trainable_parameters(self):
        """(array, grad) of every learned parameter, in registry order."""
        return [(arr, grad) for _, arr, grad in self.named_arrays() if grad is not None]

    def snapshot(self) -> dict[str, np.ndarray]:
        return {name: arr.copy() for name, arr, _ in self.named_arrays()}

    def restore(self, snap: dict[str, np.ndarray]):
        for name, arr, _ in self.named_arrays():
            np.copyto(arr, snap[name])

    # bound in this class body so that TkgmlpModel.__dict__ holds it, where
    # perfbench/tracer.py finds the methods it times
    zero_grads = nn_core.ParameterHolder.zero_grads

    def parameter_count(self) -> int:
        return sum(arr.size for arr, _ in self.trainable_parameters())

    def forward(self, x: np.ndarray, train: bool = False, rng: np.random.Generator | None = None):
        """Return (logits, cache) in train mode and (sigmoid(logits), None) in
        inference. Train mode draws dropout masks from ``rng``, updates BN
        running stats and caches every layer for ``backward``; a train cache
        serves one backward, which empties it. Inference is deterministic and
        keeps no layer caches, so each layer's arrays are freed as it goes."""
        if x.ndim != 2 or x.shape[1] != self.cfg.input_dim:
            raise nn_core.ShapeError(f"forward: input {x.shape} does not match input_dim {self.cfg.input_dim}")
        h, bn_cache = nn_core.batchnorm_forward(x, self.input_bn, train)
        kan_caches = []
        for layer in self.kan_stack:
            h, kc = kan.kan_forward(h, layer, train)
            h, mask = nn_core.dropout_apply(h, self.cfg.dropout, rng, train)
            kan_caches.append((kc, mask))
        gmlp_caches = []
        for block in self.gmlp_stack:
            h, gc = gmlp.gmlp_block_forward(h, block, train, rng)
            gmlp_caches.append(gc)
        logits, head_cache = nn_core.linear_forward(h, self.head)
        if not train:
            return nn_core.sigmoid(logits[:, 0]), None
        return logits[:, 0], {"bn": bn_cache, "kan": kan_caches, "gmlp": gmlp_caches, "head": head_cache}

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Inference scores, computed ``PREDICT_BLOCK_ROWS`` rows at a time.

        Each row's inference is independent of the others, so the blocks give
        the bits one whole forward would, while the working set stays cache
        sized and the peak stays flat as the number of rows grows.

        Measured on a 2-core Xeon host (2 MiB L2 per core, numpy 2.4.6,
        OpenBLAS, one BLAS thread), seconds per call for blocks of 65,536 /
        4,096 / 1,024 / 512 rows: 0.265 / 0.208 / 0.168 / 0.164 on 20,000
        rows at h=64; 0.964 / 0.922 / 0.800 / 0.840 on 8,192 rows at h=512;
        and 5.07 / 5.76 / 4.96 / 4.98 on 4,096 rows at h=1024 with 2 KAN
        layers and grid 10, flat within noise. At h=64 the tracemalloc peak on
        20,000 / 50,000 / 200,000 rows is 4.1 / 4.3 / 5.5 MB in 1,024-row
        blocks, against 76.6 / 191.5 / 252.1 MB in 65,536-row blocks."""
        scores = np.empty(x.shape[0])
        for lo in range(0, x.shape[0], PREDICT_BLOCK_ROWS):
            hi = lo + PREDICT_BLOCK_ROWS
            scores[lo:hi] = self.forward(x[lo:hi], train=False)[0]
        return scores

    def backward(self, dlogits: np.ndarray, cache) -> np.ndarray:
        """Accumulate all parameter gradients from dL/dlogits; return dL/dx.

        Backward consumes its train cache: it empties the dict on entry and
        lets each layer's arrays go once that layer is done. So a loop that
        keeps ``cache`` bound until the next forward returns holds one step
        of activations, not two. A second backward on the same cache raises
        ``ValueError``, and so does the ``None`` of an inference forward."""
        if cache is None:
            raise ValueError("backward needs a train-mode cache")
        if not cache:
            raise ValueError("backward has already consumed this cache: a train cache serves one backward")
        layers = cache.copy()
        cache.clear()
        dh = nn_core.linear_backward(dlogits[:, None], layers.pop("head"), self.head)
        gmlp_caches, kan_caches = layers.pop("gmlp"), layers.pop("kan")
        for block in reversed(self.gmlp_stack):
            dh = gmlp.gmlp_block_backward(dh, gmlp_caches.pop(), block)
        for layer in reversed(self.kan_stack):
            kc, mask = kan_caches.pop()
            dh = kan.kan_backward(nn_core.dropout_backward(dh, mask), kc, layer)
        return nn_core.batchnorm_backward(dh, layers.pop("bn"), self.input_bn)


def build_model(cfg: ModelConfig, seed: int) -> TkgmlpModel:
    """Wire the layer stack; deterministic init for a given seed."""
    rng = np.random.default_rng(seed)
    input_bn = nn_core.BatchNormState.create(cfg.input_dim)
    kan_stack = []
    dim = cfg.input_dim
    for _ in range(cfg.kan_layers):
        kan_stack.append(
            kan.kan_init(dim, cfg.hidden_dim, cfg.grid_size, SPLINE_DEGREE, SPLINE_RANGE, rng)
        )
        dim = cfg.hidden_dim
    gmlp_stack = []
    for _ in range(cfg.gmlp_layers):
        gmlp_stack.append(gmlp.GmlpBlockParams.create(dim, cfg.hidden_dim, cfg.dropout, rng))
        dim = cfg.hidden_dim
    head = nn_core.LinearParams.create(dim, 1, rng)
    return TkgmlpModel(cfg=cfg, input_bn=input_bn, kan_stack=kan_stack, gmlp_stack=gmlp_stack, head=head)
