"""Self-describing checkpoint container.

One zip file holding a `meta.json` member (format version, run-config echo,
fitted encoder statistics, model config, best-epoch metadata) plus one
binary `.npy` member per model array. Member timestamps and ordering are
fixed so identical runs produce byte-identical files.
"""

from __future__ import annotations

import io
import json
import zipfile
from dataclasses import dataclass

import numpy as np

from .encoders import EncoderSpec
from .model import ModelConfig, TkgmlpModel, build_model

FORMAT_VERSION = 1
_EPOCH = (1980, 1, 1, 0, 0, 0)


class CheckpointError(ValueError):
    """Unreadable, version-mismatched or invalid checkpoint."""


@dataclass
class Checkpoint:
    version: int
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
    arrays = model.named_arrays()
    meta = {
        "format_version": FORMAT_VERSION,
        "run_config": run_config,
        "encoder": encoder.to_dict(),
        "model_config": model.cfg.to_dict(),
        "best": best,
        "arrays": [name for name, _, _ in arrays],
    }
    with zipfile.ZipFile(path, "w") as zf:
        _write_member(zf, "meta.json", json.dumps(meta, sort_keys=True, indent=1).encode())
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
        version = meta.get("format_version")
        if version != FORMAT_VERSION:
            raise CheckpointError(
                f"{path}: format version {version!r} not supported (expected {FORMAT_VERSION})"
            )
        cfg = ModelConfig.from_dict(meta["model_config"])
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
            version=version,
            run_config=meta["run_config"],
            encoder=EncoderSpec.from_dict(meta["encoder"]),
            model=model,
            best=meta["best"],
        )
