"""Command-line pipeline: synth | fit | evaluate | grid | encode.

Each run is driven by one JSON config document (see config.py); individual
keys can be overridden with ``--set a.b=value`` and every command honors a
global ``--seed``. Exit codes: 0 success, 1 usage/config error, 2
runtime/numeric failure. The TKGMLP_LOG environment variable (debug, info,
warning) controls log verbosity.
"""

from __future__ import annotations

import argparse
import csv
import logging
import os
import sys
from pathlib import Path

import numpy as np

from . import checkpoint as ckpt
from . import data as data_mod
from . import metrics as metrics_mod
from . import trainer as trainer_mod
from .config import ConfigError, RunConfig, apply_overrides, load_config
from .encoders import EncoderSpec
from .model import ModelConfig, build_model
from .trainer import TrainConfig, derive_seed

log = logging.getLogger("tkgmlp")

CHECKPOINT_NAME = "model.ckpt"
EPOCH_LOG_NAME = "epochs.tsv"
GRID_RESULTS_NAME = "grid_results.tsv"


class UsageError(ValueError):
    """Bad command-line usage."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="tkgmlp", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config_command(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="JSON run configuration")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--set", dest="overrides", action="append", default=[],
                       metavar="KEY.PATH=VALUE", help="override one config key")
        return p

    add_config_command("synth", "generate a synthetic benchmark as CSV files")
    add_config_command("fit", "fit encoders and train a model, writing a checkpoint")
    add_config_command("grid", "grid-search hyperparameters, writing ranked results")

    p_eval = sub.add_parser("evaluate", help="score a CSV with a checkpoint and report KS/AUC")
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--data", required=True)
    p_eval.add_argument("--label", default=None, help="label column (default: from checkpoint)")
    p_eval.add_argument("--time", default=None, help="time column to ignore as a feature")
    p_eval.add_argument("--seed", type=int, default=None, help="accepted for interface uniformity; evaluation is deterministic")

    p_enc = sub.add_parser("encode", help="fit an encoder and write the encoded CSV")
    p_enc.add_argument("--config", required=True)
    p_enc.add_argument("--data", required=True, help="CSV to encode")
    p_enc.add_argument("--train", default=None, help="CSV to fit on (default: the --data file)")
    p_enc.add_argument("--out", required=True)
    p_enc.add_argument("--label", default="label")
    p_enc.add_argument("--seed", type=int, default=None)
    p_enc.add_argument("--set", dest="overrides", action="append", default=[],
                       metavar="KEY.PATH=VALUE")
    return parser


def _run_config(args) -> RunConfig:
    doc = apply_overrides(load_config(args.config), args.overrides)
    cfg = RunConfig.from_dict(doc)
    if args.seed is not None:
        cfg.seed = args.seed
    return cfg


def _csv_columns(section: dict):
    return section.get("label", "label"), section.get("time"), tuple(section.get("ignore", ()))


def _resolve_splits(cfg: RunConfig):
    """Returns (train, valid, test) Datasets plus per-split oracle probs (or None).

    The test file of a CSV train/valid/test triple is not read, as no
    command that trains uses it: its test is None.
    """
    section = cfg.data
    if section["kind"] == "synth":
        rows = section["rows"]
        spec = data_mod.SyntheticTaskSpec(
            columns=tuple(data_mod.default_columns(section.get("columns", 32))),
            prevalence=section.get("prevalence", data_mod.DEFAULT_PREVALENCE),
            signal_scale=section.get("signal_scale", 2.0),
            seed=derive_seed(cfg.seed, "data"),
        )
        ds, probs = data_mod.synth_generate(spec, sum(rows))
        bounds = np.cumsum([0] + rows)
        splits, oracles = [], []
        for k in range(3):
            idx = np.arange(bounds[k], bounds[k + 1])
            splits.append(ds.take(idx))
            oracles.append(probs[idx])
        return (*splits, tuple(oracles))
    label, time_col, ignore = _csv_columns(section)
    if "path" in section:
        ds = data_mod.load_csv(section["path"], label=label, time=time_col, ignore=ignore)
        splits = data_mod.chronological_split(ds, section.get("fractions", (0.6, 0.2, 0.2)))
        return (*splits, None)
    train = data_mod.load_csv(section["train"], label=label, time=time_col, ignore=ignore)
    valid = data_mod.load_csv(section["valid"], label=label, time=time_col, ignore=ignore,
                              features=train.feature_names)
    return train, valid, None, None


def _fit_encoder(cfg: RunConfig, train_ds: data_mod.Dataset) -> EncoderSpec:
    cat_names = cfg.encoder.get("categorical", [])
    missing = [c for c in cat_names if c not in train_ds.feature_names]
    if missing:
        raise ConfigError(f"encoder.categorical names {missing} not in the data")
    cat_idx = [train_ds.feature_names.index(c) for c in cat_names]
    return EncoderSpec.fit(
        train_ds.features,
        feature_names=train_ds.feature_names,
        kind=cfg.encoder["kind"],
        n_bins=cfg.encoder["n_bins"],
        categorical_columns=cat_idx,
    )


def _prepare_training(cfg: RunConfig):
    """The steps that ``fit`` and ``grid`` share: resolve the splits, fit the
    encoder on train and encode both splits. Returns the encoder, the
    (features, labels) of train and valid, the model config and the train
    config."""
    train_ds, valid_ds, _, _ = _resolve_splits(cfg)
    encoder = _fit_encoder(cfg, train_ds)
    x_train = encoder.transform(train_ds.features)
    x_valid = encoder.transform(valid_ds.features)
    model_cfg = ModelConfig(input_dim=x_train.shape[1], **cfg.model)
    train_cfg = TrainConfig(seed=derive_seed(cfg.seed, "train"), **cfg.train)
    return encoder, (x_train, train_ds.labels), (x_valid, valid_ds.labels), model_cfg, train_cfg


def cmd_synth(args) -> int:
    cfg = _run_config(args)
    if cfg.data["kind"] != "synth":
        raise ConfigError("synth command needs data.kind = 'synth'")
    out_dir = Path(cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    train_ds, valid_ds, test_ds, oracles = _resolve_splits(cfg)
    names = ("train", "valid", "test")
    for name, ds in zip(names, (train_ds, valid_ds, test_ds)):
        data_mod.write_csv(out_dir / f"{name}.csv", ds)
        log.info("wrote %s (%d rows)", out_dir / f"{name}.csv", ds.n_rows)
    with open(out_dir / "oracle.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["split", "row", "oracle_p"])
        for name, probs in zip(names, oracles):
            for i, p in enumerate(probs):
                writer.writerow([name, i, repr(float(p))])
    log.info("wrote %s", out_dir / "oracle.csv")
    return 0


def cmd_fit(args) -> int:
    cfg = _run_config(args)
    out_dir = Path(cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    encoder, train_data, valid_data, model_cfg, train_cfg = _prepare_training(cfg)
    mdl = build_model(model_cfg, seed=derive_seed(cfg.seed, "model"))

    result = trainer_mod.train(mdl, train_data, valid_data, train_cfg,
                               on_epoch=lambda stats: print(stats.log_line(with_elapsed=True)))
    log_path = out_dir / EPOCH_LOG_NAME
    with open(log_path, "w") as fh:
        fh.write("epoch\tlr\ttrain_loss\tvalid_ks_pct\tvalid_auc_pct\n")
        fh.write("".join(stats.log_line(with_elapsed=False) + "\n" for stats in result.history))
    validated = result.best_epoch >= 0  # False when training diverged in its first epoch
    best = {
        "best_epoch": result.best_epoch,
        "best_valid_ks": result.best_ks if validated else None,
        "best_valid_auc": result.best_auc if validated else None,
        "epochs_run": len(result.history),
        "stopped_early": result.stopped_early,
        "diverged": result.diverged,
    }
    ckpt_path = out_dir / CHECKPOINT_NAME
    ckpt.save_checkpoint(ckpt_path, mdl, encoder, cfg.to_dict(), best)
    log.info("wrote %s and %s", ckpt_path, log_path)
    if validated:
        print(f"best_epoch={result.best_epoch}")
        print(f"best_valid_ks_pct={metrics_mod.format_percent(result.best_ks)}")
        print(f"best_valid_auc_pct={metrics_mod.format_percent(result.best_auc)}")
    if result.diverged:
        log.warning("training diverged; checkpoint holds the best snapshot seen" if validated else
                    "training diverged before its first validation; checkpoint holds the initial parameters")
        return 2
    return 0


def cmd_evaluate(args) -> int:
    loaded = ckpt.load_checkpoint(args.checkpoint)
    data_section = loaded.run_config.get("data", {})
    label = args.label or data_section.get("label", "label")
    time_col = args.time if args.time is not None else data_section.get("time")
    ds = data_mod.load_csv(args.data, label=label, time=time_col, ignore=tuple(data_section.get("ignore", ())),
                           features=loaded.encoder.feature_names)
    x = loaded.encoder.transform(ds.features)
    scores = loaded.model.predict(x)
    report = metrics_mod.compute_metrics(scores, ds.labels)
    print(f"n_rows={ds.n_rows}")
    print(f"ks_pct={metrics_mod.format_percent(report.ks)}")
    print(f"auc_pct={metrics_mod.format_percent(report.auc)}")
    return 0


def cmd_grid(args) -> int:
    cfg = _run_config(args)
    if cfg.grid is None:
        raise ConfigError("grid command needs a 'grid' section")
    out_dir = Path(cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    _, train_data, valid_data, base_cfg, train_cfg = _prepare_training(cfg)
    space = cfg.grid_space()

    def on_result(r):
        if r.error:
            log.info("config %d failed: seed=%d %s", r.index, r.seed, r.error)
        else:
            log.info("config %d: ks=%s auc=%s seed=%d", r.index, metrics_mod.format_percent(r.best_ks),
                     metrics_mod.format_percent(r.best_auc), r.seed)

    ranked = trainer_mod.grid_search(space, base_cfg, train_data, valid_data, train_cfg, on_result=on_result)
    results_path = out_dir / GRID_RESULTS_NAME
    with open(results_path, "w") as fh:
        fh.write("rank\tconfig_index\tseed\tvalid_ks_pct\tvalid_auc_pct\tbest_epoch\terror\tconfig\n")
        for rank, r in enumerate(ranked):
            ks_txt = metrics_mod.format_percent(r.best_ks) if np.isfinite(r.best_ks) else "nan"
            auc_txt = metrics_mod.format_percent(r.best_auc) if np.isfinite(r.best_auc) else "nan"
            cfg_txt = ",".join(f"{k}={v}" for k, v in sorted(r.overrides.items()))
            fh.write(f"{rank}\t{r.index}\t{r.seed}\t{ks_txt}\t{auc_txt}\t{r.best_epoch}\t{r.error or ''}\t{cfg_txt}\n")
    log.info("wrote %s", results_path)
    if all(r.error for r in ranked):
        first = min(ranked, key=lambda r: r.index)
        print(f"error: every grid config failed; config {first.index}: {first.error}", file=sys.stderr)
        return 2
    top = ranked[0]
    print(f"best_config_index={top.index}")
    print(f"best_valid_ks_pct={metrics_mod.format_percent(top.best_ks)}")
    print(f"best_valid_auc_pct={metrics_mod.format_percent(top.best_auc)}")
    return 0


def cmd_encode(args) -> int:
    """Fit the configured encoder on ``--train`` (default ``--data``) and
    write ``--data``, its columns matched to ``--train``'s by name, encoded
    to ``--out``. Rows are encoded and written one
    ``data.rows_per_block`` block at a time, so the encoded table never
    exists whole; ``EncoderSpec.transform`` works row by row, so the blocks
    give the rows one whole transform would, and an encoder error names the
    row of the whole file. ``--out`` appears only once every block is
    written."""
    cfg = _run_config(args)
    fit_path = args.train or args.data
    fit_ds = data_mod.load_csv(fit_path, label=args.label)
    apply_ds = (fit_ds if fit_path == args.data
                else data_mod.load_csv(args.data, label=args.label, features=fit_ds.feature_names))
    encoder = _fit_encoder(cfg, fit_ds)
    names = encoder.output_names
    step = data_mod.rows_per_block(len(names))
    with data_mod.csv_block_writer(args.out, names, label=args.label) as write:
        # One block even with no rows, so that transform checks the columns.
        for lo in range(0, max(apply_ds.n_rows, 1), step):
            write(encoder.transform(apply_ds.features[lo:lo + step], row_offset=lo), apply_ds.labels[lo:lo + step])
    log.info("wrote %s (%d rows, %d columns)", args.out, apply_ds.n_rows, len(names))
    print(f"encoded_rows={apply_ds.n_rows}")
    print(f"encoded_columns={len(names)}")
    return 0


_COMMANDS = {
    "synth": cmd_synth,
    "fit": cmd_fit,
    "evaluate": cmd_evaluate,
    "grid": cmd_grid,
    "encode": cmd_encode,
}


def main(argv=None) -> int:
    level = os.environ.get("TKGMLP_LOG", "info").upper()
    logging.basicConfig(level=getattr(logging, level, logging.INFO), format="%(message)s")
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        return _COMMANDS[args.command](args)
    except (ConfigError, UsageError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # runtime/numeric failure
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        if os.environ.get("TKGMLP_LOG", "").lower() == "debug":
            raise
        return 2


if __name__ == "__main__":
    sys.exit(main())
