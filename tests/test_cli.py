import json
import time
import tracemalloc
import zipfile

import numpy as np
import pytest

from tkgmlp import cli, data, trainer
from tkgmlp.checkpoint import load_checkpoint
from tkgmlp.cli import main
from tkgmlp.data import Dataset, load_csv, write_csv
from tkgmlp.encoders import EncoderSpec, fit_standardize, standardize

from .helpers import per_row_write_csv, run_child


def write_config(tmp_path, name="cfg.json", **overrides):
    doc = {
        "seed": 42,
        "output_dir": str(tmp_path / "out"),
        "data": {"kind": "synth", "rows": [600, 200, 200], "columns": 8, "prevalence": 0.2},
        "encoder": {"kind": "qle", "n_bins": 8},
        "model": {"hidden_dim": 16, "kan_layers": 1, "gmlp_layers": 1, "grid_size": 5, "dropout": 0.0},
        "train": {"batch_size": 128, "max_epochs": 3, "lr0": 0.005, "patience": 20},
    }
    for key, value in overrides.items():
        if isinstance(value, dict):
            doc[key] = {**doc.get(key, {}), **value}
        else:
            doc[key] = value
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def run_cli(*args):
    return main([str(a) for a in args])


def assert_left_whole(path, before: bytes):
    """``path`` still holds ``before`` after a failed rewrite, and no
    temporary file is left beside it."""
    assert path.read_bytes() == before
    assert not list(path.parent.glob(".*.tmp"))


class TestSynth:
    def test_emits_three_csvs_and_oracle(self, tmp_path):
        cfg = write_config(tmp_path)
        assert run_cli("synth", "--config", cfg) == 0
        out = tmp_path / "out"
        for name in ("train.csv", "valid.csv", "test.csv", "oracle.csv"):
            assert (out / name).exists()
        train = load_csv(out / "train.csv")
        assert train.n_rows == 600
        assert len(train.feature_names) == 8
        oracle_lines = (out / "oracle.csv").read_text().splitlines()
        assert oracle_lines[0] == "split,row,oracle_p"
        assert len(oracle_lines) == 1 + 1000

    def test_seed_repeat_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path)
        run_cli("synth", "--config", cfg)
        first = {p.name: p.read_bytes() for p in (tmp_path / "out").iterdir()}
        run_cli("synth", "--config", cfg)
        second = {p.name: p.read_bytes() for p in (tmp_path / "out").iterdir()}
        assert first == second

    def test_invalid_spec_exits_one(self, tmp_path, capsys):
        cfg = write_config(tmp_path, data={"kind": "synth", "rows": [10]})
        assert run_cli("synth", "--config", cfg) == 1
        assert "rows" in capsys.readouterr().err

    def test_seed_flag_changes_output(self, tmp_path):
        cfg = write_config(tmp_path)
        run_cli("synth", "--config", cfg)
        first = (tmp_path / "out" / "train.csv").read_bytes()
        run_cli("synth", "--config", cfg, "--seed", 7)
        second = (tmp_path / "out" / "train.csv").read_bytes()
        assert first != second

    def test_csv_data_section_exits_one(self, tmp_path, capsys):
        cfg = write_config(tmp_path, data={"kind": "csv", "path": str(tmp_path / "missing.csv")})
        assert run_cli("synth", "--config", cfg) == 1
        assert "synth command needs data.kind = 'synth'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_failed_oracle_write_leaves_the_old_file(self, tmp_path, monkeypatch, capsys):
        cfg = write_config(tmp_path)
        assert run_cli("synth", "--config", cfg) == 0
        oracle = tmp_path / "out" / "oracle.csv"
        before = oracle.read_bytes()
        resolve = cli._resolve_splits

        def failing_halfway(probs):
            yield from probs[:5]
            raise OSError("No space left on device")

        def with_a_failing_oracle(run_cfg):
            *splits, oracles = resolve(run_cfg)
            return (*splits, (*oracles[:2], failing_halfway(oracles[2])))

        monkeypatch.setattr(cli, "_resolve_splits", with_a_failing_oracle)
        assert run_cli("synth", "--config", cfg) == 2
        assert "OSError: No space left on device" in capsys.readouterr().err
        assert_left_whole(oracle, before)


class TestFit:
    def test_smoke_run_under_60s(self, tmp_path):
        cfg = write_config(tmp_path, data={"kind": "synth", "rows": [700, 150, 150]})
        start = time.perf_counter()
        assert run_cli("fit", "--config", cfg) == 0
        assert time.perf_counter() - start < 60.0
        out = tmp_path / "out"
        assert (out / "model.ckpt").exists()
        log_lines = (out / "epochs.tsv").read_text().splitlines()
        assert log_lines[0] == "epoch\tlr\ttrain_loss\tvalid_ks_pct\tvalid_auc_pct"
        assert len(log_lines) == 1 + 3

    def test_epoch_lines_on_stdout_with_elapsed(self, tmp_path, capsys):
        cfg = write_config(tmp_path, train={"max_epochs": 2, "batch_size": 128})
        run_cli("fit", "--config", cfg)
        lines = [l for l in capsys.readouterr().out.splitlines() if l and l[0].isdigit()]
        assert len(lines) == 2
        assert len(lines[0].split("\t")) == 6

    def test_checkpoint_reload_reproduces_valid_ks(self, tmp_path):
        cfg = write_config(tmp_path)
        run_cli("fit", "--config", cfg)
        out = tmp_path / "out"
        run_cli("synth", "--config", cfg, "--set", f"output_dir={tmp_path / 'data'}")
        loaded = load_checkpoint(out / "model.ckpt")
        valid = load_csv(tmp_path / "data" / "valid.csv")
        from tkgmlp.metrics import ks as ks_fn
        scores, _ = loaded.model.forward(loaded.encoder.transform(valid.features), train=False)
        recomputed = ks_fn(scores, valid.labels)
        assert recomputed == pytest.approx(loaded.best["best_valid_ks"], abs=1e-12)

    def test_rerun_bit_identical_artifacts(self, tmp_path):
        cfg = write_config(tmp_path)
        run_cli("fit", "--config", cfg)
        out = tmp_path / "out"
        first = {name: (out / name).read_bytes() for name in ("model.ckpt", "epochs.tsv")}
        run_cli("fit", "--config", cfg)
        second = {name: (out / name).read_bytes() for name in ("model.ckpt", "epochs.tsv")}
        assert first == second

    def test_encoder_fitted_on_train_only(self, tmp_path):
        cfg = write_config(tmp_path)
        run_cli("fit", "--config", cfg)
        run_cli("synth", "--config", cfg, "--set", f"output_dir={tmp_path / 'data'}")
        loaded = load_checkpoint(tmp_path / "out" / "model.ckpt")
        test_ds = load_csv(tmp_path / "data" / "test.csv")
        refit = EncoderSpec.fit(test_ds.features, feature_names=test_ds.feature_names,
                                kind="qle", n_bins=8)
        train_ds = load_csv(tmp_path / "data" / "train.csv")
        fit_on_train = EncoderSpec.fit(train_ds.features, feature_names=train_ds.feature_names,
                                       kind="qle", n_bins=8)
        stored = loaded.encoder.bins[0].boundaries
        assert np.array_equal(stored, fit_on_train.bins[0].boundaries)
        assert not np.array_equal(stored, refit.bins[0].boundaries)

    def csv_pair(self, tmp_path, name, order=None):
        """The synth splits as a CSV train/valid pair; valid with its columns
        in ``order`` (an index list), or without the columns it leaves out."""
        src = tmp_path / "data"
        if not src.exists():
            run_cli("synth", "--config", write_config(tmp_path), "--set", f"output_dir={src}")
        ds = load_csv(src / "valid.csv")
        keep = range(len(ds.feature_names)) if order is None else order
        valid = tmp_path / f"{name}.valid.csv"
        write_csv(valid, Dataset(ds.features[:, keep], ds.labels, [ds.feature_names[j] for j in keep]))
        data = {"kind": "csv", "train": str(src / "train.csv"), "valid": str(valid)}
        return write_config(tmp_path, name=f"{name}.json", output_dir=str(tmp_path / name), data=data)

    def test_csv_triple_matched_by_name(self, tmp_path):
        artifacts = []
        for name, order in (("plain", None), ("permuted", [3, 0, 7, 5, 1, 6, 2, 4])):
            assert run_cli("fit", "--config", self.csv_pair(tmp_path, name, order)) == 0
            out = tmp_path / name
            with zipfile.ZipFile(out / "model.ckpt") as zf:
                arrays = {m: zf.read(m) for m in zf.namelist() if m.startswith("arrays/")}
            artifacts.append(((out / "epochs.tsv").read_bytes(), arrays))
        assert artifacts[0] == artifacts[1]
        assert len(artifacts[0][1]) > 1

    def test_csv_triple_missing_column_exits_two(self, tmp_path, capsys):
        cfg = self.csv_pair(tmp_path, "dropped", order=list(range(1, 8)))
        assert run_cli("fit", "--config", cfg) == 2
        assert "dropped.valid.csv: feature columns are not the 8 training columns in some order: " \
               "missing ['x00'], extra []" in capsys.readouterr().err

    def test_categorical_column_not_in_the_data_exits_one(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert run_cli("fit", "--config", cfg, "--set", 'encoder.categorical=["x01","nope"]') == 1
        assert "encoder.categorical names ['nope'] not in the data" in capsys.readouterr().err

    def test_failed_epoch_log_write_leaves_the_old_file(self, tmp_path, monkeypatch, capsys):
        cfg = write_config(tmp_path)
        assert run_cli("fit", "--config", cfg) == 0
        log_path = tmp_path / "out" / "epochs.tsv"
        before = log_path.read_bytes()
        log_line = trainer.EpochStats.log_line

        def failing_in_the_file(stats, with_elapsed=True):
            if not with_elapsed and stats.epoch == 1:
                raise OSError("No space left on device")
            return log_line(stats, with_elapsed)

        monkeypatch.setattr(trainer.EpochStats, "log_line", failing_in_the_file)
        assert run_cli("fit", "--config", cfg) == 2
        assert "OSError: No space left on device" in capsys.readouterr().err
        assert_left_whole(log_path, before)

    # Both real runs end at their second step with a finite loss and a
    # non-finite second moment: a gradient square overflows (1 KAN / 1 gMLP
    # at lr0 1e50) or a gradient is itself non-finite (2 / 2 at 1e60).
    @pytest.mark.parametrize("layers, lr0", [(None, None), (1, 1e50), (2, 1e60)],
                             ids=["stubbed-train", "1-1-lr1e50", "2-2-lr1e60"])
    def test_divergence_before_the_first_validation_reports_no_best(self, tmp_path, monkeypatch, capsys, caplog,
                                                                   layers, lr0):
        def diverged(*args, **kwargs):
            return trainer.TrainResult(history=[], best_epoch=-1, best_ks=-np.inf, best_auc=-np.inf,
                                       stopped_early=False, diverged=True)

        if lr0 is None:
            monkeypatch.setattr(trainer, "train", diverged)
            cfg = write_config(tmp_path)
        else:
            cfg = write_config(tmp_path, model={"kan_layers": layers, "gmlp_layers": layers}, train={"lr0": lr0})
        with caplog.at_level("WARNING", logger="tkgmlp"):
            assert run_cli("fit", "--config", cfg) == 2
        assert "training diverged before its first validation; checkpoint holds the initial parameters" in caplog.text
        assert "best_" not in capsys.readouterr().out
        out = tmp_path / "out"
        assert (out / "epochs.tsv").read_text() == "epoch\tlr\ttrain_loss\tvalid_ks_pct\tvalid_auc_pct\n"
        with zipfile.ZipFile(out / "model.ckpt") as zf:
            meta = json.loads(zf.read("meta.json"), parse_constant=lambda c: pytest.fail(f"meta.json holds {c}"))
        assert meta["best"] == {"best_epoch": -1, "best_valid_ks": None, "best_valid_auc": None,
                                "epochs_run": 0, "stopped_early": False, "diverged": True}
        assert load_checkpoint(out / "model.ckpt").best == meta["best"]

    def test_divergence_without_the_warning_filter_exits_two(self, tmp_path):
        # a user's run, with no -W error::RuntimeWarning, ends as one under it
        cfg = write_config(tmp_path, train={"lr0": 1e50})
        code, _, err = run_child("fit", "--config", cfg)
        assert code == 2
        assert "training diverged before its first validation; checkpoint holds the initial parameters" in err
        assert "Warning" not in err
        assert load_checkpoint(tmp_path / "out" / "model.ckpt").best["diverged"] is True


class TestEvaluate:
    def test_overfit_training_data_scores_high(self, tmp_path, capsys):
        # small easy dataset + enough epochs: training-set KS should be high
        cfg = write_config(
            tmp_path,
            data={"kind": "synth", "rows": [300, 120, 120], "columns": 4, "prevalence": 0.3},
            train={"batch_size": 64, "max_epochs": 25, "lr0": 0.01},
        )
        run_cli("fit", "--config", cfg)
        run_cli("synth", "--config", cfg, "--set", f"output_dir={tmp_path / 'data'}")
        capsys.readouterr()
        code = run_cli("evaluate", "--checkpoint", tmp_path / "out" / "model.ckpt",
                       "--data", tmp_path / "data" / "train.csv")
        assert code == 0
        out = capsys.readouterr().out
        values = dict(line.split("=") for line in out.splitlines() if "=" in line)
        assert set(values) == {"n_rows", "ks_pct", "auc_pct"}
        assert float(values["ks_pct"]) > 60.0
        assert values["n_rows"] == "300"

    def test_single_class_data_fails_cleanly(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        run_cli("fit", "--config", cfg)
        bad = tmp_path / "bad.csv"
        bad.write_text("x00,x01,x02,x03,x04,x05,x06,x07,label\n" +
                       "\n".join("0,0,0,0,0,0,0,0,1" for _ in range(5)) + "\n")
        code = run_cli("evaluate", "--checkpoint", tmp_path / "out" / "model.ckpt", "--data", bad)
        assert code == 2
        assert "positive and one negative" in capsys.readouterr().err

    def test_columns_matched_by_name(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        run_cli("fit", "--config", cfg)
        run_cli("synth", "--config", cfg, "--set", f"output_dir={tmp_path / 'data'}")
        test = load_csv(tmp_path / "data" / "test.csv")
        write_csv(tmp_path / "reversed.csv",
                  Dataset(test.features[:, ::-1].copy(), test.labels, test.feature_names[::-1]))
        write_csv(tmp_path / "dropped.csv", Dataset(test.features[:, 1:], test.labels, test.feature_names[1:]))
        ckpt = tmp_path / "out" / "model.ckpt"
        capsys.readouterr()
        outs = []
        for path in (tmp_path / "data" / "test.csv", tmp_path / "reversed.csv"):
            assert run_cli("evaluate", "--checkpoint", ckpt, "--data", path) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]
        assert run_cli("evaluate", "--checkpoint", ckpt, "--data", tmp_path / "dropped.csv") == 2
        assert f"missing [{test.feature_names[0]!r}], extra []" in capsys.readouterr().err


class TestGrid:
    def test_two_point_space_ranked(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            grid={"gmlp_layers": [1], "kan_layers": [1], "grid_size": [5],
                  "hidden_dim": [8, 16], "dropout": [0.0]},
            train={"max_epochs": 2, "batch_size": 128},
        )
        assert run_cli("grid", "--config", cfg) == 0
        lines = (tmp_path / "out" / "grid_results.tsv").read_text().splitlines()
        assert len(lines) == 3  # header + 2 configs
        header = lines[0].split("\t")
        assert header[:5] == ["rank", "config_index", "seed", "valid_ks_pct", "valid_auc_pct"]
        first = lines[1].split("\t")
        second = lines[2].split("\t")
        assert float(first[3]) >= float(second[3])  # ranked by KS desc
        out = capsys.readouterr().out
        assert "best_config_index=" in out

    def test_every_config_failing_exits_two(self, tmp_path, capsys, caplog):
        cfg = write_config(
            tmp_path,
            data={"rows": [300, 100, 100], "prevalence": 0.001},  # no positive in the valid split
            grid={"gmlp_layers": [1], "kan_layers": [1], "grid_size": [5],
                  "hidden_dim": [8, 16], "dropout": [0.0]},
            train={"max_epochs": 2},
        )
        assert run_cli("fit", "--config", cfg) == 2
        capsys.readouterr()
        with caplog.at_level("INFO", logger="tkgmlp"):
            assert run_cli("grid", "--config", cfg) == 2
        out, err = capsys.readouterr()
        assert "best_" not in out and "inf" not in out
        assert "every grid config failed; config 0: UndefinedMetricError: validation split needs both classes" in err
        assert "config 1 failed: " in caplog.text and "ks=" not in caplog.text
        lines = (tmp_path / "out" / "grid_results.tsv").read_text().splitlines()
        assert [line.split("\t")[1] for line in lines[1:]] == ["0", "1"]
        assert all("UndefinedMetricError" in line for line in lines[1:])

    @pytest.mark.parametrize("layers, lr0", [(1, 1e300), (2, 1e60)], ids=["1-1-lr1e300", "2-2-lr1e60"])
    def test_every_config_diverging_exits_two(self, tmp_path, capsys, layers, lr0):
        cfg = write_config(
            tmp_path,
            grid={"gmlp_layers": [layers], "kan_layers": [layers], "grid_size": [5],
                  "hidden_dim": [8, 16], "dropout": [0.0]},
            train={"max_epochs": 2, "batch_size": 128, "lr0": lr0},
        )
        assert run_cli("grid", "--config", cfg) == 2
        out, err = capsys.readouterr()
        assert "best_" not in out
        assert "error: every grid config failed; config 0: diverged" in err
        lines = (tmp_path / "out" / "grid_results.tsv").read_text().splitlines()
        assert len(lines) == 3
        assert all(line.split("\t")[3:7] == ["nan", "nan", "-1", "diverged"] for line in lines[1:])

    def test_failed_results_write_leaves_the_old_file(self, tmp_path, monkeypatch, capsys):
        cfg = write_config(
            tmp_path,
            grid={"gmlp_layers": [1], "kan_layers": [1], "grid_size": [5],
                  "hidden_dim": [8, 16], "dropout": [0.0]},
            train={"max_epochs": 2, "batch_size": 128},
        )
        assert run_cli("grid", "--config", cfg) == 0
        results = tmp_path / "out" / "grid_results.tsv"
        before = results.read_bytes()
        grid_search = trainer.grid_search

        class Unwritable(dict):
            def items(self):
                raise OSError("No space left on device")

        def second_row_unwritable(*args, **kwargs):
            ranked = grid_search(*args, **kwargs)
            ranked[1].overrides = Unwritable(ranked[1].overrides)
            return ranked

        monkeypatch.setattr(trainer, "grid_search", second_row_unwritable)
        assert run_cli("grid", "--config", cfg) == 2
        assert "OSError: No space left on device" in capsys.readouterr().err
        assert_left_whole(results, before)

    def test_grid_requires_section(self, tmp_path):
        cfg = write_config(tmp_path)
        assert run_cli("grid", "--config", cfg) == 1

    def test_rerun_reproduces_results(self, tmp_path):
        cfg = write_config(
            tmp_path,
            grid={"gmlp_layers": [1], "kan_layers": [1], "grid_size": [5],
                  "hidden_dim": [8], "dropout": [0.0, 0.3]},
            train={"max_epochs": 2, "batch_size": 128},
        )
        run_cli("grid", "--config", cfg)
        first = (tmp_path / "out" / "grid_results.tsv").read_bytes()
        run_cli("grid", "--config", cfg)
        assert (tmp_path / "out" / "grid_results.tsv").read_bytes() == first


class TestEncode:
    def make_data(self, tmp_path):
        cfg = write_config(tmp_path)
        run_cli("synth", "--config", cfg, "--set", f"output_dir={tmp_path / 'data'}")
        return cfg

    def test_qle_outputs_in_unit_interval(self, tmp_path):
        cfg = self.make_data(tmp_path)
        out = tmp_path / "encoded.csv"
        code = run_cli("encode", "--config", cfg, "--data", tmp_path / "data" / "train.csv",
                       "--out", out)
        assert code == 0
        ds = load_csv(out)
        assert ds.features.min() >= 0.0 and ds.features.max() <= 1.0

    def test_ple_expands_columns(self, tmp_path):
        cfg = self.make_data(tmp_path)
        out = tmp_path / "encoded.csv"
        run_cli("encode", "--config", cfg, "--set", "encoder.kind=ple",
                "--data", tmp_path / "data" / "train.csv", "--out", out)
        train_ds = load_csv(tmp_path / "data" / "train.csv")
        spec = EncoderSpec.fit(train_ds.features, feature_names=train_ds.feature_names,
                               kind="ple", n_bins=8)
        expected = sum(spec.bins[j].n for j in spec.bins)
        encoded = load_csv(out)
        assert len(encoded.feature_names) == expected

    def test_clr_rows_sum_to_zero(self, tmp_path):
        cfg = self.make_data(tmp_path)
        out = tmp_path / "encoded.csv"
        run_cli("encode", "--config", cfg, "--set", "encoder.kind=clr",
                "--data", tmp_path / "data" / "train.csv", "--out", out)
        encoded = load_csv(out)
        assert np.abs(encoded.features.sum(axis=1)).max() < 1e-10

    def test_fit_on_separate_train_file(self, tmp_path):
        cfg = self.make_data(tmp_path)
        out = tmp_path / "encoded.csv"
        code = run_cli("encode", "--config", cfg,
                       "--train", tmp_path / "data" / "train.csv",
                       "--data", tmp_path / "data" / "test.csv", "--out", out)
        assert code == 0
        assert load_csv(out).n_rows == 200

    def test_standardize_at_the_float_ends(self, tmp_path):
        # Near 1e-300 the variance underflows to a std of 0.0, and near 1e308
        # the mean overflows, unless the column is fitted in a scaled frame.
        features = np.array([[1e-300, 1e308], [3e-300, 1.5e308], [2e-300, -1e300]])
        write_csv(tmp_path / "ends.csv", Dataset(features, np.array([0.0, 1.0, 0.0]), ["tiny", "huge"]))
        cfg = write_config(tmp_path, encoder={"kind": "standardize"})
        out = tmp_path / "ends.out.csv"
        assert run_cli("encode", "--config", cfg, "--data", tmp_path / "ends.csv", "--out", out) == 0
        encoded = load_csv(out)
        np.testing.assert_allclose(encoded.features[:, 0], [-np.sqrt(1.5), np.sqrt(1.5), 0.0], rtol=1e-14, atol=1e-15)
        huge = features[:, 1]
        assert encoded.features[:, 1].tolist() == standardize(huge, fit_standardize(huge)).tolist()
        assert np.all(np.isfinite(encoded.features))

    def test_data_columns_matched_by_name(self, tmp_path, capsys):
        rng = np.random.default_rng(3)
        features = np.column_stack([rng.normal(size=50), rng.normal(10.0, 1.0, size=50)])
        labels = (rng.random(50) < 0.5).astype(float)
        write_csv(tmp_path / "ab.csv", Dataset(features, labels, ["a", "b"]))
        write_csv(tmp_path / "ba.csv", Dataset(features[:, ::-1].copy(), labels, ["b", "a"]))
        write_csv(tmp_path / "ac.csv", Dataset(features, labels, ["a", "c"]))
        cfg = write_config(tmp_path)
        for name in ("ab", "ba"):
            assert run_cli("encode", "--config", cfg, "--train", tmp_path / "ab.csv",
                           "--data", tmp_path / f"{name}.csv", "--out", tmp_path / f"{name}.out.csv") == 0
        assert (tmp_path / "ba.out.csv").read_bytes() == (tmp_path / "ab.out.csv").read_bytes()
        capsys.readouterr()
        assert run_cli("encode", "--config", cfg, "--train", tmp_path / "ab.csv",
                       "--data", tmp_path / "ac.csv", "--out", tmp_path / "ac.out.csv") == 2
        assert "missing ['b'], extra ['c']" in capsys.readouterr().err
        assert not (tmp_path / "ac.out.csv").exists()


    @pytest.mark.parametrize("kind", ["qle", "ple", "quantile", "clr", "standardize"])
    def test_blocks_match_whole_transform_through_oracle(self, tmp_path, monkeypatch, kind):
        rng = np.random.default_rng(6)
        n = 47
        features = np.column_stack([rng.normal(size=n), rng.exponential(2.0, size=n),
                                    rng.integers(0, 4, size=n).astype(float)])
        features[[2, 30], 0] = features[[5, 46], 2] = np.nan
        src = tmp_path / "in.csv"
        write_csv(src, Dataset(features, (rng.random(n) < 0.4).astype(float), ["a", "b", "c"]))
        cfg = write_config(tmp_path, encoder={"kind": kind, "n_bins": 8, "categorical": ["c"]})
        monkeypatch.setattr(data, "WRITE_BLOCK_CELLS", 40)  # a few rows per block
        out = tmp_path / "encoded.csv"
        assert run_cli("encode", "--config", cfg, "--data", src, "--out", out) == 0
        ds = load_csv(src)
        spec = EncoderSpec.fit(ds.features, feature_names=ds.feature_names, kind=kind, n_bins=8,
                               categorical_columns=[2])
        expected = tmp_path / "expected.csv"
        per_row_write_csv(expected, Dataset(spec.transform(ds.features), ds.labels, spec.output_names))
        assert out.read_bytes() == expected.read_bytes()

    def test_failure_in_last_block_leaves_no_file(self, tmp_path, monkeypatch, capsys):
        cfg = self.make_data(tmp_path)
        train = load_csv(tmp_path / "data" / "train.csv")
        apply = train.take(np.arange(10))
        apply.features[9, 0] = -1e9  # below the CLR shift fitted on train
        write_csv(tmp_path / "apply.csv", apply)
        monkeypatch.setattr(data, "WRITE_BLOCK_CELLS", 3 * (train.features.shape[1] + 1))
        seen = []
        transform = EncoderSpec.transform
        monkeypatch.setattr(EncoderSpec, "transform", lambda spec, x, **kw: seen.append(len(x)) or transform(spec, x, **kw))
        out_dir = tmp_path / "encoded"
        out_dir.mkdir()
        code = run_cli("encode", "--config", cfg, "--set", "encoder.kind=clr",
                       "--train", tmp_path / "data" / "train.csv", "--data", tmp_path / "apply.csv",
                       "--out", out_dir / "out.csv")
        assert code == 2
        # the row is the file's, not the block's (row 1 of the fourth block)
        assert (f"DomainError: row 11, column {train.feature_names[0]!r}, value -1000000000.0 is not positive"
                in capsys.readouterr().err)
        assert seen == [3, 3, 3, 1]
        assert list(out_dir.iterdir()) == []

    def test_non_finite_output_names_the_file_row(self, tmp_path, monkeypatch, capsys):
        rng = np.random.default_rng(0)
        train = tmp_path / "train.csv"
        write_csv(train, Dataset(rng.normal(size=(20, 2)) * 1e-150, (np.arange(20) % 2).astype(float), ["a", "b"]))
        apply_x = rng.normal(size=(10, 2)) * 1e-150
        apply_x[8, 1] = 1e300  # overflows the standardization
        write_csv(tmp_path / "apply.csv", Dataset(apply_x, np.zeros(10), ["a", "b"]))
        monkeypatch.setattr(data, "WRITE_BLOCK_CELLS", 3 * 3)  # blocks of 3 rows
        cfg = write_config(tmp_path, encoder={"kind": "standardize"})
        with pytest.warns(RuntimeWarning, match="overflow"):
            code = run_cli("encode", "--config", cfg, "--train", train, "--data", tmp_path / "apply.csv",
                           "--out", tmp_path / "out.csv")
        assert code == 2
        assert "non-finite output from row 10, column 'b', value 1e+300" in capsys.readouterr().err
        assert not (tmp_path / "out.csv").exists()

    def test_qle_across_the_float_range(self, tmp_path):
        src = tmp_path / "in.csv"
        src.write_text("a,label\n-1e308,0\n0.0,1\n1e308,0\n5e307,1\n")
        cfg = write_config(tmp_path, encoder={"kind": "qle", "n_bins": 1})
        assert run_cli("encode", "--config", cfg, "--data", src, "--out", tmp_path / "out.csv") == 0
        assert load_csv(tmp_path / "out.csv").features[:, 0].tolist() == [0.0, 0.5, 1.0, 0.75]

    def test_memory_stays_below_the_encoded_table(self, tmp_path):
        rows = 8_000
        ds, _ = data.synth_generate(data.desk_tiny_spec(seed=0, n_columns=32), rows)
        write_csv(tmp_path / "in.csv", ds)
        cfg = write_config(tmp_path, encoder={"kind": "ple", "n_bins": 64})
        out = tmp_path / "encoded.csv"
        tracemalloc.start()
        try:
            code = run_cli("encode", "--config", cfg, "--data", tmp_path / "in.csv", "--out", out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        with open(out) as fh:
            columns = len(fh.readline().split(",")) - 1
        whole_table = rows * columns * 8
        assert peak < whole_table / 4, (peak, whole_table)


class TestCsvPipeline:
    def test_fit_from_single_csv_with_fractions(self, tmp_path):
        cfg = write_config(tmp_path)
        run_cli("synth", "--config", cfg, "--set", f"output_dir={tmp_path / 'data'}")
        # stitch one file back together so the chronological split runs
        parts = [(tmp_path / "data" / f"{n}.csv").read_text().splitlines() for n in ("train", "valid", "test")]
        merged = tmp_path / "all.csv"
        merged.write_text("\n".join(parts[0] + parts[1][1:] + parts[2][1:]) + "\n")
        csv_cfg = write_config(
            tmp_path, name="csv_cfg.json",
            data={"kind": "csv", "path": str(merged), "fractions": [0.6, 0.2, 0.2]},
        )
        assert run_cli("fit", "--config", csv_cfg) == 0
        assert (tmp_path / "out" / "model.ckpt").exists()

    def test_fit_from_three_csvs(self, tmp_path):
        cfg = write_config(tmp_path)
        run_cli("synth", "--config", cfg, "--set", f"output_dir={tmp_path / 'data'}")
        csv_cfg = write_config(
            tmp_path, name="csv3_cfg.json",
            data={
                "kind": "csv",
                "train": str(tmp_path / "data" / "train.csv"),
                "valid": str(tmp_path / "data" / "valid.csv"),
            },
        )
        assert run_cli("fit", "--config", csv_cfg) == 0

    def test_evaluate_accepts_seed_flag(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        run_cli("fit", "--config", cfg)
        run_cli("synth", "--config", cfg, "--set", f"output_dir={tmp_path / 'data'}")
        code = run_cli("evaluate", "--checkpoint", tmp_path / "out" / "model.ckpt",
                       "--data", tmp_path / "data" / "valid.csv", "--seed", 9)
        assert code == 0


class TestExitCodes:
    def test_missing_config_file(self, capsys):
        assert run_cli("fit", "--config", "/nonexistent/cfg.json") == 1

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        doc = json.loads(cfg.read_text())
        doc["mystery"] = 1
        cfg.write_text(json.dumps(doc))
        assert run_cli("fit", "--config", cfg) == 1
        assert "mystery" in capsys.readouterr().err

    def test_usage_error(self, capsys):
        assert run_cli("fit") == 1  # --config is required

    @pytest.mark.parametrize("override", [
        "model.hidden_dim=0",
        "model.grid_size=2.5",
        "model.grid_size=10000000000000000000000",  # too big for a knot grid
        "train.batch_size=1",
        'model.dropout="x"',
        "data.prevalence=2",
        'data.columns="x"',
        "data.fractions=[0.5]",
        "data.fractions=[0.6,0.6,0.2]",
        "grid.dropout=5",
        "grid.hidden_dim=[0]",
        'data.ignore="x01"',
        'encoder.categorical="x01"',
        "encoder.n_bins=true",
    ])
    def test_bad_model_or_train_value_exits_one(self, tmp_path, capsys, override):
        cfg = write_config(tmp_path)
        assert run_cli("fit", "--config", cfg, "--set", override) == 1
        assert override.split("=")[0] in capsys.readouterr().err
        assert not (tmp_path / "out").exists()  # rejected before any data loads

    @pytest.mark.parametrize("kan_layers, gmlp_layers", [("[0,1]", "[0,1]"), ("[0]", "[0]")])
    def test_grid_cell_without_layers_exits_one(self, tmp_path, capsys, kan_layers, gmlp_layers):
        cfg = write_config(tmp_path, grid={"grid_size": [5], "hidden_dim": [8], "dropout": [0.0]})
        assert run_cli("grid", "--config", cfg, "--set", f"grid.kan_layers={kan_layers}",
                       "--set", f"grid.gmlp_layers={gmlp_layers}") == 1
        assert ("grid.kan_layers and gmlp_layers cannot both be 0, in grid cell 0 {'gmlp_layers': 0, "
                "'kan_layers': 0, 'grid_size': 5, 'hidden_dim': 8, 'dropout': 0.0}") in capsys.readouterr().err
        assert not (tmp_path / "out").exists()  # rejected before any data loads

    @pytest.mark.parametrize("override", [
        "train.adam_beta1=0.9",
        "train.adam_beta2=0.999",
        "train.adam_eps=1e-8",
        "train.lr_decay_factor=0.9",
        "train.lr_decay_every=20",
        "model.dropout_after_each_kan=true",
        "model.spline_degree=2",
        "model.spline_range=[-2,2]",
        "data.signal_scale=1e308",
        'data.test="x.csv"',
    ])
    def test_protocol_constant_is_not_a_key(self, tmp_path, capsys, override):
        section, key = override.split("=")[0].split(".")
        assert run_cli("fit", "--config", write_config(tmp_path), "--set", override) == 1
        assert f"{section}: unknown keys ['{key}']" in capsys.readouterr().err

    def test_set_below_a_value_that_is_not_a_section_exits_one(self, tmp_path, capsys):
        assert run_cli("fit", "--config", write_config(tmp_path), "--set", "seed.x=1") == 1
        assert "override 'seed.x=1': 'seed' is not a section" in capsys.readouterr().err

    def test_runtime_failure_exits_two(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        missing = tmp_path / "ghost.csv"
        code = run_cli("evaluate", "--checkpoint", tmp_path / "nothing.ckpt", "--data", missing)
        assert code == 2


class TestConsoleScript:
    def test_module_entry_point(self, tmp_path):
        cfg = write_config(tmp_path)
        assert run_child("synth", "--config", cfg)[0] == 0
        assert (tmp_path / "out" / "train.csv").exists()
