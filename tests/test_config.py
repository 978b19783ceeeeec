import json
import re

import numpy as np
import pytest

from tkgmlp.cli import main
from tkgmlp.config import ConfigError, RunConfig, apply_overrides, load_config


def synth_doc(**extra):
    doc = {
        "seed": 1,
        "output_dir": "out",
        "data": {"kind": "synth", "rows": [100, 40, 40], "columns": 8},
        "encoder": {"kind": "qle", "n_bins": 8},
        "model": {"hidden_dim": 16},
        "train": {"max_epochs": 2},
    }
    doc.update(extra)
    return doc


class TestValidation:
    def test_valid_document(self):
        cfg = RunConfig.from_dict(synth_doc())
        assert cfg.seed == 1
        assert cfg.encoder["n_bins"] == 8

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="unknown keys.*bogus"):
            RunConfig.from_dict(synth_doc(bogus=1))

    def test_unknown_nested_key(self):
        doc = synth_doc()
        doc["train"]["learning_rate"] = 0.1  # the knob is called lr0
        with pytest.raises(ConfigError, match="learning_rate"):
            RunConfig.from_dict(doc)

    def test_bad_data_kind(self):
        doc = synth_doc()
        doc["data"]["kind"] = "parquet"
        with pytest.raises(ConfigError, match="kind"):
            RunConfig.from_dict(doc)

    def test_synth_needs_row_triple(self):
        doc = synth_doc()
        doc["data"]["rows"] = [100]
        with pytest.raises(ConfigError, match="rows"):
            RunConfig.from_dict(doc)

    def test_csv_needs_paths(self):
        doc = synth_doc()
        doc["data"] = {"kind": "csv"}
        with pytest.raises(ConfigError, match="csv"):
            RunConfig.from_dict(doc)

    def test_csv_single_path_ok(self):
        doc = synth_doc()
        doc["data"] = {"kind": "csv", "path": "x.csv", "fractions": [0.6, 0.2, 0.2]}
        RunConfig.from_dict(doc)

    def test_bad_encoder_kind(self):
        doc = synth_doc()
        doc["encoder"]["kind"] = "zscore"
        with pytest.raises(ConfigError):
            RunConfig.from_dict(doc)

    @pytest.mark.parametrize("section, key, value", [
        ("model", "hidden_dim", True),
        ("model", "spline_degree", -1),
        ("model", "spline_range", [1.0, -1.0]),
        ("train", "lr0", float("inf")),
        (None, "seed", True),
        (None, "output_dir", 5),
        (None, "data", 5),
        (None, "grid", "x"),
        ("data", "rows", [True, 50, 50]),
    ])
    def test_bad_model_or_train_value(self, section, key, value):
        # section None: a top-level key
        doc = synth_doc()
        (doc if section is None else doc[section])[key] = value
        name = key if section is None else f"{section}.{key}"
        with pytest.raises(ConfigError, match=rf"^{re.escape(name)} must be"):
            RunConfig.from_dict(doc)

    @pytest.mark.parametrize("spline_range", [
        [-1e308, 1e308],
        [0.0, 1e-310],
        [0.0, 5e-324],
        [1e300, float(np.nextafter(1e300, np.inf))],
    ])
    def test_degenerate_spline_range_exits_one(self, tmp_path, capsys, spline_range):
        """Ranges whose knots are not finite and strictly increasing, or
        whose step has no finite inverse, fail as config errors."""
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(synth_doc(output_dir=str(tmp_path / "out"))))
        assert main(["fit", "--config", str(path), "--set", f"model.spline_range={json.dumps(spline_range)}"]) == 1
        assert "model.spline_range" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_model_without_layers(self):
        doc = synth_doc()
        doc["model"].update(kan_layers=0, gmlp_layers=0)
        with pytest.raises(ConfigError, match="kan_layers and gmlp_layers"):
            RunConfig.from_dict(doc)

    def test_roundtrip(self):
        cfg = RunConfig.from_dict(synth_doc())
        again = RunConfig.from_dict(cfg.to_dict())
        assert again.to_dict() == cfg.to_dict()


class TestOverrides:
    def test_set_nested_value(self):
        doc = apply_overrides(synth_doc(), ["train.max_epochs=9", "encoder.n_bins=16"])
        cfg = RunConfig.from_dict(doc)
        assert cfg.train["max_epochs"] == 9
        assert cfg.encoder["n_bins"] == 16

    def test_json_values_parse(self):
        doc = apply_overrides(synth_doc(), ["data.rows=[10, 5, 5]"])
        assert doc["data"]["rows"] == [10, 5, 5]

    def test_non_json_value_is_string(self):
        doc = apply_overrides(synth_doc(), ["output_dir=some/dir"])
        assert doc["output_dir"] == "some/dir"

    def test_malformed_override(self):
        with pytest.raises(ConfigError):
            apply_overrides(synth_doc(), ["no-equals-sign"])


class TestLoadConfig:
    def test_loads_json(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(synth_doc()))
        assert load_config(path)["seed"] == 1

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "nope.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="JSON"):
            load_config(path)

    def test_non_object_top_level(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1,2,3]")
        with pytest.raises(ConfigError):
            load_config(path)
