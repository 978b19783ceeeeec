"""Run configuration: one JSON document per run, validated up front.

Unknown keys are rejected so typos fail before any work starts. The
sections are ``data``, ``encoder``, ``model``, ``train`` and ``grid``, beside
the top-level ``seed`` and ``output_dir``. A CSV ``data`` section names one
file, ``path`` (split by ``fractions``), or a ``train`` and ``valid`` pair.
The ``model``, ``train`` and ``grid`` keys are the fields of ``ModelConfig``
(less ``input_dim``), ``TrainConfig`` (less ``seed``) and
``trainer.GridSpace``; the first two sections are checked by building the
configs, whose own checks use the ``require_*`` helpers here, and so is
each ``grid`` cell, built whole over ``model`` as the sweep builds it. The
``data`` and ``encoder`` values are checked with the same helpers. What the
paper fixes is a constant, not a key: Adam's moments and epsilon and the
learning rate's decay in ``trainer``, the spline's degree and range in
``model``, the synthetic signal scale in ``data``. Individual keys can be
overridden from the command line with ``--set a.b=value``.

Two sizes are capped, so that a huge value fails here, before anything
proportional to it is allocated: ``encoder.n_bins`` at
``encoders.MAX_N_BINS`` (4,096) and ``model.grid_size`` at
``model.MAX_GRID_SIZE`` (1,024).
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field, fields

from .encoders import DEFAULT_N_BINS, ENCODER_KINDS, MAX_N_BINS


class ConfigError(ValueError):
    """Invalid or unknown configuration content."""


_DATA_KEYS = {"kind", "path", "train", "valid", "label", "time", "ignore", "fractions", "rows", "columns", "prevalence"}
_ENCODER_KEYS = {"kind", "n_bins", "categorical"}


def _finite_number(value) -> bool:
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return False
    return isinstance(value, numbers.Integral) or math.isfinite(value)


def require_int(name: str, value, low: int | None, high: int | None = None):
    """Raise ConfigError unless ``value`` is an integer (not a bool) >= ``low``
    (any integer when ``low`` is None) and, given ``high``, <= ``high``."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral) or (low is not None and value < low)
            or (high is not None and value > high)):
        bound = "" if low is None else f" >= {low}" if high is None else f" in [{low}, {high}]"
        raise ConfigError(f"{name} must be an integer{bound}, got {value!r}")


def require_number(name: str, value, test, text: str):
    """Raise ConfigError unless ``value`` is a finite number passing ``test``."""
    if not (_finite_number(value) and test(value)):
        raise ConfigError(f"{name} must be a finite number {text}, got {value!r}")


_TOP_KEYS = {"seed", "output_dir", "data", "encoder", "model", "train", "grid"}


def _object(section, where: str) -> dict:
    """A copy of ``section``, which must be a JSON object."""
    if not isinstance(section, dict):
        raise ConfigError(f"{where} must be an object, got {type(section).__name__}")
    return dict(section)


def _check_keys(section: dict, allowed: set, where: str):
    unknown = set(_object(section, where)) - allowed
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")


@dataclass
class RunConfig:
    seed: int = 0
    output_dir: str = "runs/out"
    data: dict = field(default_factory=dict)
    encoder: dict = field(default_factory=lambda: {"kind": "qle", "n_bins": DEFAULT_N_BINS})
    model: dict = field(default_factory=dict)
    train: dict = field(default_factory=dict)
    grid: dict | None = None

    @classmethod
    def from_dict(cls, doc: dict) -> "RunConfig":
        _check_keys(doc, _TOP_KEYS, "config")
        cfg = cls(
            seed=doc.get("seed", 0),
            output_dir=doc.get("output_dir", "runs/out"),
            data=_object(doc.get("data", {}), "data"),
            encoder={"kind": "qle", "n_bins": DEFAULT_N_BINS} | _object(doc.get("encoder", {}), "encoder"),
            model=_object(doc.get("model", {}), "model"),
            train=_object(doc.get("train", {}), "train"),
            grid=None if doc.get("grid") is None else _object(doc["grid"], "grid"),
        )
        cfg.validate()
        return cfg

    def validate(self):
        require_int("seed", self.seed, None)
        if not isinstance(self.output_dir, str):
            raise ConfigError(f"output_dir must be a string, got {self.output_dir!r}")
        _check_keys(self.data, _DATA_KEYS, "data")
        _check_keys(self.encoder, _ENCODER_KEYS, "encoder")
        # Imported here: both modules import this one for ConfigError.
        from .model import ModelConfig
        from .trainer import GridSpace, TrainConfig

        _check_keys(self.model, {f.name for f in fields(ModelConfig)} - {"input_dim"}, "model")
        _check_keys(self.train, {f.name for f in fields(TrainConfig)} - {"seed"}, "train")
        try:
            ModelConfig(input_dim=1, **self.model)
        except ConfigError as exc:
            raise ConfigError(f"model.{exc}") from None
        try:
            TrainConfig(**self.train)
        except ConfigError as exc:
            raise ConfigError(f"train.{exc}") from None
        if self.grid is not None:
            _check_keys(self.grid, {f.name for f in fields(GridSpace)}, "grid")
            for key, values in self.grid.items():
                if not (isinstance(values, list) and values):
                    raise ConfigError(f"grid.{key} must be a non-empty list, got {values!r}")
            for index, cell in enumerate(self.grid_space().configurations()):
                try:
                    ModelConfig(input_dim=1, **{**self.model, **cell})
                except ConfigError as exc:
                    raise ConfigError(f"grid.{exc}, in grid cell {index} {cell}") from None
        kind = self.data.get("kind")
        if kind not in ("csv", "synth"):
            raise ConfigError(f"data.kind must be 'csv' or 'synth', got {kind!r}")
        if kind == "csv":
            if not ("path" in self.data or ("train" in self.data and "valid" in self.data)):
                raise ConfigError("data: csv needs either 'path' (+fractions) or train/valid paths")
        else:
            rows = self.data.get("rows")
            if not (isinstance(rows, list) and len(rows) == 3):
                raise ConfigError("data: synth needs rows = [n_train, n_valid, n_test]")
            for r in rows:
                require_int("data.rows", r, 1)
        if "columns" in self.data:
            require_int("data.columns", self.data["columns"], 1)
        if "prevalence" in self.data:
            require_number("data.prevalence", self.data["prevalence"], lambda v: 0.0 < v <= 0.5, "in (0, 0.5]")
        fractions = self.data.get("fractions", [0.6, 0.2, 0.2])
        if not (isinstance(fractions, list) and len(fractions) == 3
                and all(_finite_number(f) and f > 0.0 for f in fractions) and sum(fractions) <= 1.0 + 1e-12):
            raise ConfigError(f"data.fractions must be three positive numbers summing to at most 1, got {fractions!r}")
        if self.encoder["kind"] not in ENCODER_KINDS:
            raise ConfigError(f"encoder.kind must be one of {ENCODER_KINDS}")
        require_int("encoder.n_bins", self.encoder["n_bins"], 1, MAX_N_BINS)
        for where, names in (("data.ignore", self.data.get("ignore", [])),
                             ("encoder.categorical", self.encoder.get("categorical", []))):
            if not (isinstance(names, list) and all(isinstance(n, str) for n in names)):
                raise ConfigError(f"{where} must be a list of column names, got {names!r}")

    def grid_space(self):
        """The ``grid`` section's candidate lists as a ``trainer.GridSpace``,
        its defaults filling the keys the section leaves out."""
        from .trainer import GridSpace

        return GridSpace(**{k: tuple(v) for k, v in self.grid.items()})

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "output_dir": self.output_dir,
            "data": self.data,
            "encoder": self.encoder,
            "model": self.model,
            "train": self.train,
            "grid": self.grid,
        }


def load_config(path) -> dict:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: top level must be an object")
    return doc


def apply_overrides(doc: dict, overrides: list[str]) -> dict:
    """Apply ``a.b=value`` overrides; values parse as JSON, else raw strings."""
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} must look like key.path=value")
        dotted, raw = item.split("=", 1)
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        node = doc
        parts = dotted.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigError(f"override {item!r}: {part!r} is not a section")
        node[parts[-1]] = value
    return doc
