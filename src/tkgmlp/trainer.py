"""Adam training loop with stepped LR decay, KS early stopping, grid search.

Protocol: minibatches of 4096, Adam at lr0 = 1e-3 multiplied by 0.9 every
20 epochs, early stopping on validation KS with patience 20, best-KS
snapshot restored at the end. The decay and Adam's beta1, beta2 and eps
are fixed constants, not settings; ``TrainConfig`` holds what a run may set.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import time
from dataclasses import dataclass, fields, replace

import numpy as np

from . import metrics, nn_core
from .config import require_int, require_number
from .model import ModelConfig, TkgmlpModel, build_model

# Adam's standard moments and epsilon (Kingma & Ba, arXiv:1412.6980), and
# the learning rate's decay: lr0 times 0.9 every 20 epochs.
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8
LR_DECAY_FACTOR, LR_DECAY_EVERY = 0.9, 20


@dataclass(frozen=True)
class TrainConfig:
    """The settable part of the protocol: the ``train`` config section's
    keys, plus the seed that the run derives."""

    batch_size: int = 4096
    lr0: float = 1e-3
    max_epochs: int = 100
    patience: int = 20
    seed: int = 0

    def __post_init__(self):
        require_int("batch_size", self.batch_size, 2)  # batch norm needs 2 rows
        for name in ("max_epochs", "patience"):
            require_int(name, getattr(self, name), 1)
        require_number("lr0", self.lr0, lambda v: v > 0.0, "> 0")


class AdamState:
    """First/second moment buffers aligned with a fixed parameter list."""

    def __init__(self, params):
        self.m = [np.zeros_like(p) for p, _ in params]
        self.v = [np.zeros_like(p) for p, _ in params]
        self.t = 0


def adam_step(params, state: AdamState, lr: float) -> bool:
    """p -= lr * m_hat / (sqrt(v_hat) + eps) with bias-corrected moments.

    Each parameter is updated in place, whatever its memory layout, with
    ``ADAM_BETA1``, ``ADAM_BETA2`` and ``ADAM_EPS``. Returns whether every
    second moment is finite after the update: a non-finite gradient, or
    one whose square overflows, makes it False.
    """
    state.t += 1
    c1 = 1.0 - ADAM_BETA1 ** state.t
    c2 = 1.0 - ADAM_BETA2 ** state.t
    finite = True
    for (param, grad), m, v in zip(params, state.m, state.v):
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * grad
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * grad * grad
        param -= lr * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)
        finite = finite and bool(np.isfinite(v).all())
    return finite


def lr_schedule(epoch: int, cfg: TrainConfig) -> float:
    """lr0 * LR_DECAY_FACTOR^(epoch // LR_DECAY_EVERY); non-increasing in epoch."""
    if epoch < 0:
        raise ValueError("epoch must be >= 0")
    return cfg.lr0 * LR_DECAY_FACTOR ** (epoch // LR_DECAY_EVERY)


def early_stop_check(history, patience: int) -> tuple[bool, int]:
    """Stop once `patience` epochs passed since the best entry (ties: earliest)."""
    history = np.asarray(history, dtype=np.float64)
    if history.size == 0:
        raise ValueError("history must be non-empty")
    best_epoch = int(np.argmax(history))
    return (history.size - 1 - best_epoch) >= patience, best_epoch


@dataclass(frozen=True)
class EpochStats:
    epoch: int
    lr: float
    train_loss: float
    valid_ks: float
    valid_auc: float
    elapsed_s: float

    def log_line(self, with_elapsed: bool = True) -> str:
        cols = [
            str(self.epoch),
            f"{self.lr:.12g}",
            f"{self.train_loss:.17g}",
            metrics.format_percent(self.valid_ks),
            metrics.format_percent(self.valid_auc),
        ]
        if with_elapsed:
            cols.append(f"{self.elapsed_s:.3f}")
        return "\t".join(cols)


@dataclass
class TrainResult:
    history: list[EpochStats]
    best_epoch: int
    best_ks: float
    best_auc: float
    stopped_early: bool
    diverged: bool = False


def _minibatch_slices(n: int, batch_size: int):
    """Contiguous slice bounds; a trailing 1-row remainder merges backwards."""
    bounds = list(range(0, n, batch_size)) + [n]
    if len(bounds) > 2 and bounds[-1] - bounds[-2] < 2:
        del bounds[-2]
    return list(zip(bounds[:-1], bounds[1:]))


def _check_labels(labels, rows: int, split: str) -> np.ndarray:
    """The split's labels as a float64 vector: one 0 or 1 per feature row."""
    labels = np.asarray(labels, dtype=np.float64).ravel()
    if labels.size != rows:
        raise ValueError(f"{split} split has {labels.size} labels for {rows} feature rows")
    bad = labels[(labels != 0.0) & (labels != 1.0)]
    if bad.size:
        raise ValueError(f"{split} labels must be 0 or 1, got {bad[0]:g}")
    return labels


def train(
    model: TkgmlpModel,
    train_data: tuple[np.ndarray, np.ndarray],
    valid_data: tuple[np.ndarray, np.ndarray],
    cfg: TrainConfig,
    on_epoch=None,
) -> TrainResult:
    """Run the epoch loop; leave the model restored to its best-KS snapshot.

    ``on_epoch`` receives each EpochStats as it is produced (for logging);
    returning a truthy value halts training after that epoch (external
    control, e.g. a time or target budget), with the best snapshot restored.
    A run that diverges before its first validation returns ``best_epoch``
    -1 and a best KS and AUC of -inf, with the initial parameters restored.

    Training calls ``nn_core.keep_freed_pages`` first, which changes the C
    allocator for the whole process, for good: memory that it frees stays
    with the process for reuse, so each step's activations are not faulted
    in afresh.

    Training runs under ``nn_core.one_blas_thread``: one BLAS thread, the
    lane's assumption, whatever count the environment set, which is put
    back on return. So the same data, config and seed train the same bits
    whatever that count. Where numpy's BLAS is not the OpenBLAS it bundles,
    the count is left as it is, and a different count can round the
    products' sums differently.

    Each step (forward, loss, backward and Adam) runs under
    ``np.errstate(over="ignore", invalid="ignore")``, on the lane too (see
    ``nn_core.both``), so an overflow gives no ``RuntimeWarning``. One rule
    ends a run as diverged: a step whose loss is not finite, or after which
    ``adam_step`` reports a non-finite second moment. The best snapshot is
    then restored and ``diverged`` set; that step's loss is not counted.
    """
    x_train, y_train = train_data
    x_valid, y_valid = valid_data
    x_train = nn_core.as_batch(x_train, "train features")
    x_valid = nn_core.as_batch(x_valid, "valid features")
    if x_train.shape[0] == 0 or x_valid.shape[0] == 0:
        raise ValueError("train/valid splits must be non-empty")
    y_train = _check_labels(y_train, x_train.shape[0], "train")
    y_valid = _check_labels(y_valid, x_valid.shape[0], "valid")
    if len({0.0, 1.0} & set(np.unique(y_valid))) < 2:
        raise metrics.UndefinedMetricError("validation split needs both classes")

    nn_core.keep_freed_pages()
    rng = np.random.default_rng(cfg.seed)
    params = model.trainable_parameters()
    adam = AdamState(params)
    history: list[EpochStats] = []
    best_snapshot = model.snapshot()
    best_epoch, best_ks, best_auc = -1, -np.inf, -np.inf
    stopped_early = diverged = False
    start = time.perf_counter()

    with nn_core.one_blas_thread():
        for epoch in range(cfg.max_epochs):
            lr = lr_schedule(epoch, cfg)
            perm = rng.permutation(x_train.shape[0])
            loss_sum = 0.0
            for lo, hi in _minibatch_slices(perm.size, cfg.batch_size):
                idx = perm[lo:hi]
                xb, yb = x_train[idx], y_train[idx]
                model.zero_grads()
                with np.errstate(over="ignore", invalid="ignore"):
                    logits, cache = model.forward(xb, train=True, rng=rng)
                    loss, dlogits = nn_core.bce_loss(logits, yb)
                    model.backward(dlogits, cache)
                    finite = adam_step(params, adam, lr)
                if not (finite and np.isfinite(loss)):
                    diverged = True
                    break
                loss_sum += loss * idx.size
            if diverged:
                break

            valid_scores = model.predict(x_valid)
            valid_ks = metrics.ks(valid_scores, y_valid)
            valid_auc = metrics.auc(valid_scores, y_valid)
            stats = EpochStats(
                epoch=epoch,
                lr=lr,
                train_loss=loss_sum / perm.size,
                valid_ks=valid_ks,
                valid_auc=valid_auc,
                elapsed_s=time.perf_counter() - start,
            )
            history.append(stats)
            halt_requested = on_epoch is not None and bool(on_epoch(stats))
            if valid_ks > best_ks:
                best_epoch, best_ks, best_auc = epoch, valid_ks, valid_auc
                best_snapshot = model.snapshot()
            if halt_requested:
                break
            stopped_early, _ = early_stop_check([h.valid_ks for h in history], cfg.patience)
            if stopped_early:
                break

    model.restore(best_snapshot)
    return TrainResult(history, best_epoch, best_ks, best_auc, stopped_early, diverged)


def derive_seed(base_seed: int, label: str) -> int:
    """Stable cross-platform sub-seed from (base seed, label)."""
    digest = hashlib.blake2b(f"{base_seed}:{label}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "little")


@dataclass(frozen=True)
class GridSpace:
    """Candidate lists; the defaults enumerate the full 96-point search space.
    The fields are the ``grid`` section's keys, each a ``ModelConfig`` field,
    named only here; their order is the product's, which fixes cell indices."""

    gmlp_layers: tuple[int, ...] = (1, 2)
    kan_layers: tuple[int, ...] = (1, 2)
    grid_size: tuple[int, ...] = (5, 10)
    hidden_dim: tuple[int, ...] = (512, 1024, 2048)
    dropout: tuple[float, ...] = (0.0, 0.3, 0.5, 0.7)

    def configurations(self) -> list[dict]:
        """Cartesian product in field order, one {field: value} per cell."""
        names = [f.name for f in fields(self)]
        return [dict(zip(names, cell)) for cell in itertools.product(*(getattr(self, n) for n in names))]

    @property
    def size(self) -> int:
        return math.prod(len(getattr(self, f.name)) for f in fields(self))


@dataclass
class GridResult:
    index: int
    overrides: dict
    seed: int
    best_ks: float = -np.inf
    best_auc: float = -np.inf
    best_epoch: int = -1
    epochs_run: int = 0
    error: str | None = None


def grid_search(
    space: GridSpace,
    base_cfg: ModelConfig,
    train_data,
    valid_data,
    train_cfg: TrainConfig,
    on_result=None,
) -> list[GridResult]:
    """Train one model per configuration; rank by KS, then AUC, then index.

    Per-configuration failures are recorded in the result, not raised.
    """
    results = []
    for index, overrides in enumerate(space.configurations()):
        seed = derive_seed(train_cfg.seed, f"grid:{index}")
        result = GridResult(index=index, overrides=overrides, seed=seed)
        try:
            cfg = replace(base_cfg, **overrides)
            mdl = build_model(cfg, seed=derive_seed(seed, "model"))
            outcome = train(mdl, train_data, valid_data, replace(train_cfg, seed=seed))
            result.best_ks = outcome.best_ks
            result.best_auc = outcome.best_auc
            result.best_epoch = outcome.best_epoch
            result.epochs_run = len(outcome.history)
            if outcome.diverged:
                result.error = "diverged"
        except Exception as exc:  # keep the sweep alive
            result.error = f"{type(exc).__name__}: {exc}"
        results.append(result)
        if on_result is not None:
            on_result(result)
    return rank_results(results)


def rank_results(results: list[GridResult]) -> list[GridResult]:
    return sorted(results, key=lambda r: (-r.best_ks, -r.best_auc, r.index))
