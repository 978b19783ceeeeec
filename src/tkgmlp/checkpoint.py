"""Self-describing checkpoint container.

One zip file holding a `meta.json` member (format version, run-config echo,
fitted encoder statistics, model config, best-epoch metadata) plus one
binary `.npy` member per model array. Member timestamps and ordering are
fixed so identical runs produce byte-identical files. OpenBLAS splits a
product's sums by its thread count, so ``trainer.train`` trains at one
thread whatever count the environment sets (see its docstring).
"""

from __future__ import annotations

import io
import json
import zipfile
from dataclasses import dataclass

import numpy as np

from .data import replacing_open
from .encoders import EncoderSpec
from .model import ModelConfig, TkgmlpModel, build_model

FORMAT_VERSION = 1
# the members of meta.json that load_checkpoint reads, with their JSON types
_META_KEYS = (("run_config", dict), ("encoder", dict), ("model_config", dict), ("best", dict), ("arrays", list))
_EPOCH = (1980, 1, 1, 0, 0, 0)


class CheckpointError(ValueError):
    """Unreadable, version-mismatched or invalid checkpoint."""


@dataclass
class Checkpoint:
    run_config: dict
    encoder: EncoderSpec
    model: TkgmlpModel
    best: dict


def _write_member(zf: zipfile.ZipFile, name: str, payload: bytes):
    info = zipfile.ZipInfo(name, date_time=_EPOCH)
    info.compress_type = zipfile.ZIP_STORED
    info.external_attr = 0o644 << 16
    zf.writestr(info, payload)


def save_checkpoint(path, model: TkgmlpModel, encoder: EncoderSpec,
                    run_config: dict, best: dict):
    """Write the checkpoint through ``data.replacing_open``: a failed save
    leaves the file at ``path`` as it was. ``meta.json`` is strict JSON, so a
    NaN or infinity in ``run_config`` or ``best`` raises ValueError."""
    arrays = model.named_arrays()
    meta = {
        "format_version": FORMAT_VERSION,
        "run_config": run_config,
        "encoder": encoder.to_dict(),
        "model_config": model.cfg.to_dict(),
        "best": best,
        "arrays": [name for name, _, _ in arrays],
    }
    with replacing_open(path, "xb") as fh, zipfile.ZipFile(fh, "w") as zf:
        _write_member(zf, "meta.json", json.dumps(meta, sort_keys=True, indent=1, allow_nan=False).encode())
        for name, arr, _ in arrays:
            buf = io.BytesIO()
            np.lib.format.write_array(buf, np.ascontiguousarray(arr))
            _write_member(zf, f"arrays/{name}.npy", buf.getvalue())


def load_checkpoint(path) -> Checkpoint:
    try:
        zf = zipfile.ZipFile(path)
    except (OSError, zipfile.BadZipFile) as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from None
    with zf:
        try:
            meta = json.loads(zf.read("meta.json"))
        except KeyError:
            raise CheckpointError(f"{path}: missing meta.json member") from None
        except ValueError as exc:  # not UTF-8, or not JSON
            raise CheckpointError(f"{path}: meta.json is not JSON: {exc}") from None
        if not isinstance(meta, dict):
            raise CheckpointError(f"{path}: meta.json must hold an object, got {type(meta).__name__}")
        version = meta.get("format_version")
        if version != FORMAT_VERSION:
            raise CheckpointError(
                f"{path}: format version {version!r} not supported (expected {FORMAT_VERSION})"
            )
        for key, kind in _META_KEYS:
            if key not in meta:
                raise CheckpointError(f"{path}: meta.json lacks {key!r}")
            if not isinstance(meta[key], kind):
                got = type(meta[key]).__name__
                raise CheckpointError(f"{path}: meta.json {key} must be a {kind.__name__}, got {got}")
        try:
            cfg = ModelConfig.from_dict(meta["model_config"])
        except (TypeError, ValueError) as exc:  # ValueError covers ConfigError
            raise CheckpointError(f"{path}: invalid model_config: {exc}") from None
        try:
            encoder = EncoderSpec.from_dict(meta["encoder"])
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(f"{path}: invalid encoder: {type(exc).__name__}: {exc}") from None
        model = build_model(cfg, seed=0)
        stored = {}
        for name in meta["arrays"]:
            try:
                buf = io.BytesIO(zf.read(f"arrays/{name}.npy"))
            except KeyError:
                raise CheckpointError(f"{path}: array member {name!r} missing") from None
            try:
                stored[name] = np.lib.format.read_array(buf)
            except ValueError as exc:
                raise CheckpointError(f"{path}: array {name!r} is unreadable: {exc}") from None
        arrays = model.named_arrays()
        extra = sorted(set(stored) - {name for name, _, _ in arrays})
        if extra:
            raise CheckpointError(f"{path}: arrays {extra} do not belong to the model its config describes")
        for name, arr, _ in arrays:
            got = stored.get(name)
            if got is None:
                raise CheckpointError(f"{path}: missing array {name!r}")
            if got.shape != arr.shape:
                raise CheckpointError(f"{path}: array {name!r} has shape {got.shape}, expected {arr.shape}")
            if got.dtype.kind != "f":
                raise CheckpointError(f"{path}: array {name!r} has dtype {got.dtype}, expected a float dtype")
            if not np.all(np.isfinite(got)):
                raise CheckpointError(f"{path}: array {name!r} holds NaN or Inf")
            if name.endswith(".running_var") and np.any(got < 0.0):
                raise CheckpointError(f"{path}: array {name!r} holds a negative variance")
            np.copyto(arr, got)
        return Checkpoint(
            run_config=meta["run_config"],
            encoder=encoder,
            model=model,
            best=meta["best"],
        )
