"""TKGMLP assembly: batch norm, KAN stack with dropout, gMLP stack, sigmoid head.

The forward pass is

    scores = sigmoid(head(gmlp_N(... gmlp_1(drop(kan_M(... kan_1(bn(x)))))...)))

with either stack allowed to be empty (pure-gMLP and pure-KAN ablations).
Scores are per-row probabilities in (0, 1).
"""

from __future__ import annotations

from dataclasses import dataclass, field, asdict

import numpy as np

from . import gmlp, kan, nn_core
from .config import ConfigError, require_int, require_number, require_range

PREDICT_BLOCK_ROWS = 65_536  # rows per inference forward in predict


@dataclass(frozen=True)
class ModelConfig:
    input_dim: int
    hidden_dim: int
    kan_layers: int = 1
    gmlp_layers: int = 1
    grid_size: int = 5
    spline_degree: int = 3
    dropout: float = 0.0
    spline_range: tuple[float, float] = (-1.0, 1.0)
    dropout_after_each_kan: bool = True  # False: single dropout after the stack

    def __post_init__(self):
        for name, low in (("input_dim", 1), ("hidden_dim", 1), ("kan_layers", 0), ("gmlp_layers", 0),
                          ("grid_size", 1), ("spline_degree", 0)):
            require_int(name, getattr(self, name), low)
        if self.kan_layers == 0 and self.gmlp_layers == 0:
            raise ConfigError("kan_layers and gmlp_layers cannot both be 0")
        require_number("dropout", self.dropout, lambda v: 0.0 <= v < 1.0, "in [0, 1)")
        require_range("spline_range", self.spline_range)
        if not isinstance(self.dropout_after_each_kan, bool):
            raise ConfigError(f"dropout_after_each_kan must be true or false, got {self.dropout_after_each_kan!r}")
        object.__setattr__(self, "spline_range", tuple(float(v) for v in self.spline_range))

    def to_dict(self) -> dict:
        d = asdict(self)
        d["spline_range"] = list(self.spline_range)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        d = dict(d)
        if "spline_range" in d:
            d["spline_range"] = tuple(d["spline_range"])
        return cls(**d)


@dataclass
class TkgmlpModel:
    cfg: ModelConfig
    input_bn: nn_core.BatchNormState
    kan_stack: list[kan.KanLayerParams]
    gmlp_stack: list[gmlp.GmlpBlockParams]
    head: nn_core.LinearParams

    def trainable_parameters(self):
        """(array, grad) pairs in a fixed traversal order, frozen ones skipped."""
        pairs = []
        if not self.input_bn.frozen:
            pairs += self.input_bn.parameters()
        for layer in self.kan_stack:
            if not layer.frozen:
                pairs += layer.parameters()
        for block in self.gmlp_stack:
            pairs += [pg for comp in (block.bn, block.gate, block.value) if not comp.frozen for pg in comp.parameters()]
        if not self.head.frozen:
            pairs += self.head.parameters()
        return pairs

    def state_arrays(self) -> list[tuple[str, np.ndarray]]:
        """Every array defining the model, named; includes BN running stats."""
        out = [
            ("input_bn.gamma", self.input_bn.gamma),
            ("input_bn.beta", self.input_bn.beta),
            ("input_bn.running_mean", self.input_bn.running_mean),
            ("input_bn.running_var", self.input_bn.running_var),
        ]
        for i, layer in enumerate(self.kan_stack):
            out += [
                (f"kan.{i}.base_weight", layer.base_weight),
                (f"kan.{i}.spline_weight", layer.spline_weight),
                (f"kan.{i}.coeffs", layer.coeffs),
            ]
        for i, block in enumerate(self.gmlp_stack):
            out += [
                (f"gmlp.{i}.bn.gamma", block.bn.gamma),
                (f"gmlp.{i}.bn.beta", block.bn.beta),
                (f"gmlp.{i}.bn.running_mean", block.bn.running_mean),
                (f"gmlp.{i}.bn.running_var", block.bn.running_var),
                (f"gmlp.{i}.gate.weight", block.gate.weight),
                (f"gmlp.{i}.gate.bias", block.gate.bias),
                (f"gmlp.{i}.value.weight", block.value.weight),
                (f"gmlp.{i}.value.bias", block.value.bias),
            ]
        out += [("head.weight", self.head.weight), ("head.bias", self.head.bias)]
        return out

    def snapshot(self) -> dict[str, np.ndarray]:
        return {name: arr.copy() for name, arr in self.state_arrays()}

    def restore(self, snap: dict[str, np.ndarray]):
        for name, arr in self.state_arrays():
            np.copyto(arr, snap[name])

    def zero_grads(self):
        self.input_bn.zero_grads()
        for layer in self.kan_stack:
            layer.zero_grads()
        for block in self.gmlp_stack:
            block.zero_grads()
        self.head.zero_grads()

    def parameter_count(self) -> int:
        seen = 0
        for comps in ([self.input_bn], self.kan_stack, [b.bn for b in self.gmlp_stack],
                      [b.gate for b in self.gmlp_stack], [b.value for b in self.gmlp_stack], [self.head]):
            for comp in comps:
                seen += sum(arr.size for arr, _ in comp.parameters())
        return seen

    def forward(self, x: np.ndarray, train: bool = False, rng: np.random.Generator | None = None):
        """Return (scores, cache). Train mode draws dropout masks from ``rng``,
        updates BN running stats and caches every layer for ``backward``.
        Inference is deterministic and keeps no layer caches, so each layer's
        arrays are freed as the pass moves on; its cache only records that it
        came from inference."""
        if x.ndim != 2 or x.shape[1] != self.cfg.input_dim:
            raise nn_core.ShapeError(f"forward: input {x.shape} does not match input_dim {self.cfg.input_dim}")
        h, bn_cache = nn_core.batchnorm_forward(x, self.input_bn, train)
        kan_caches = []
        last = len(self.kan_stack) - 1
        for i, layer in enumerate(self.kan_stack):
            h, kc = kan.kan_forward(h, layer, train)
            mask = None
            if self.cfg.dropout_after_each_kan or i == last:
                h, mask = nn_core.dropout_apply(h, self.cfg.dropout, rng, train)
            kan_caches.append((kc, mask))
        gmlp_caches = []
        for block in self.gmlp_stack:
            h, gc = gmlp.gmlp_block_forward(h, block, train, rng)
            gmlp_caches.append(gc)
        logits, head_cache = nn_core.linear_forward(h, self.head)
        scores = nn_core.sigmoid(logits[:, 0])
        if not train:
            return scores, {"train": False}
        cache = {
            "train": True,
            "bn": bn_cache,
            "kan": kan_caches,
            "gmlp": gmlp_caches,
            "head": head_cache,
            "scores": scores,
        }
        return scores, cache

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Inference scores, computed ``PREDICT_BLOCK_ROWS`` rows at a time so
        that memory stays bounded as the number of rows grows."""
        scores = np.empty(x.shape[0])
        for lo in range(0, x.shape[0], PREDICT_BLOCK_ROWS):
            hi = lo + PREDICT_BLOCK_ROWS
            scores[lo:hi] = self.forward(x[lo:hi], train=False)[0]
        return scores

    def backward(self, dscores: np.ndarray, cache) -> np.ndarray:
        """Accumulate all parameter gradients from dL/dscores; return dL/dx."""
        if not cache["train"]:
            raise ValueError("backward needs a train-mode cache")
        p = cache["scores"]
        dlogits = (dscores * p * (1.0 - p))[:, None]
        dh = nn_core.linear_backward(dlogits, cache["head"], self.head)
        for block, gc in zip(reversed(self.gmlp_stack), reversed(cache["gmlp"])):
            dh = gmlp.gmlp_block_backward(dh, gc, block)
        for layer, (kc, mask) in zip(reversed(self.kan_stack), reversed(cache["kan"])):
            dh = kan.kan_backward(nn_core.dropout_backward(dh, mask), kc, layer)
        return nn_core.batchnorm_backward(dh, cache["bn"], self.input_bn)


def build_model(cfg: ModelConfig, seed: int) -> TkgmlpModel:
    """Wire the layer stack; deterministic init for a given seed."""
    rng = np.random.default_rng(seed)
    input_bn = nn_core.BatchNormState.create(cfg.input_dim)
    kan_stack = []
    dim = cfg.input_dim
    for _ in range(cfg.kan_layers):
        kan_stack.append(
            kan.kan_init(dim, cfg.hidden_dim, cfg.grid_size, cfg.spline_degree, cfg.spline_range, rng)
        )
        dim = cfg.hidden_dim
    gmlp_stack = []
    for _ in range(cfg.gmlp_layers):
        gmlp_stack.append(gmlp.GmlpBlockParams.create(dim, cfg.hidden_dim, cfg.dropout, rng))
        dim = cfg.hidden_dim
    head = nn_core.LinearParams.create(dim, 1, rng)
    return TkgmlpModel(cfg=cfg, input_bn=input_bn, kan_stack=kan_stack, gmlp_stack=gmlp_stack, head=head)
