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
        ("model", "grid_size", 0),
        ("model", "dropout", 1.0),
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
        """Ranges whose knots would not be finite and strictly increasing, or
        whose step would have no finite inverse, fail as config errors: the
        range is the constant ``model.SPLINE_RANGE``, so the key is unknown."""
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(synth_doc(output_dir=str(tmp_path / "out"))))
        assert main(["fit", "--config", str(path), "--set", f"model.spline_range={json.dumps(spline_range)}"]) == 1
        assert "model: unknown keys ['spline_range']" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    # Both values fail before anything proportional to them is built: the
    # knot vector of 10**10 intervals alone would be 74.5 GiB, and 10**22
    # quantiles exceed numpy's largest array.
    @pytest.mark.parametrize("section, key, value", [
        ("model", "grid_size", 10**10),
        ("model", "grid_size", 10**22),
        ("model", "grid_size", 1_025),
        ("encoder", "n_bins", 10**10),
        ("encoder", "n_bins", 10**22),
        ("encoder", "n_bins", 4_097),
    ])
    def test_huge_size_is_a_config_error(self, section, key, value):
        doc = synth_doc()
        doc[section][key] = value
        with pytest.raises(ConfigError, match=rf"^{section}\.{key} must be an integer in \[1, \d+\], got {value}$"):
            RunConfig.from_dict(doc)

    def test_size_caps_are_the_largest_accepted_values(self):
        from tkgmlp import encoders, model
        from tkgmlp.spline import build_knots

        doc = synth_doc()
        doc["model"]["grid_size"], doc["encoder"]["n_bins"] = model.MAX_GRID_SIZE, encoders.MAX_N_BINS
        RunConfig.from_dict(doc)
        assert (model.MAX_GRID_SIZE, encoders.MAX_N_BINS) == (1_024, 4_096)  # as the config docstring states
        # every grid up to the cap gives a usable knot vector, which
        # ModelConfig no longer builds to find out
        for grid_size in range(1, model.MAX_GRID_SIZE + 1):
            build_knots(grid_size, model.SPLINE_DEGREE, model.SPLINE_RANGE)

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
