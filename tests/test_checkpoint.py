import io
import json
import zipfile

import numpy as np
import pytest

from tkgmlp.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from tkgmlp.cli import main as cli_main
from tkgmlp.data import Dataset, write_csv
from tkgmlp.encoders import EncoderSpec
from tkgmlp.model import ModelConfig, build_model


@pytest.fixture
def fitted_pieces():
    rng = np.random.default_rng(0)
    features = rng.normal(size=(100, 4))
    encoder = EncoderSpec.fit(features, kind="qle", n_bins=8)
    cfg = ModelConfig(input_dim=encoder.output_dim, hidden_dim=8, kan_layers=1, gmlp_layers=1)
    model = build_model(cfg, seed=3)
    # perturb away from init so the roundtrip is non-trivial
    for arr, _ in model.trainable_parameters():
        arr += rng.normal(0, 0.1, size=arr.shape)
    model.input_bn.running_mean[...] = rng.normal(size=cfg.input_dim)
    model.input_bn.running_var[...] = rng.uniform(0.5, 2.0, size=cfg.input_dim)
    return features, encoder, model


class TestRoundTrip:
    def test_scores_bit_exact(self, tmp_path, fitted_pieces):
        features, encoder, model = fitted_pieces
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model, encoder, {"seed": 1}, {"best_epoch": 2})
        loaded = load_checkpoint(path)
        x = encoder.transform(features)
        original, _ = model.forward(x, train=False)
        restored, _ = loaded.model.forward(loaded.encoder.transform(features), train=False)
        assert np.array_equal(original, restored)

    def test_metadata_roundtrip(self, tmp_path, fitted_pieces):
        _, encoder, model = fitted_pieces
        path = tmp_path / "model.ckpt"
        best = {"best_epoch": 7, "best_valid_ks": 0.5}
        save_checkpoint(path, model, encoder, {"seed": 5, "output_dir": "x"}, best)
        loaded = load_checkpoint(path)
        assert loaded.run_config == {"seed": 5, "output_dir": "x"}
        assert loaded.best == best
        assert loaded.model.cfg == model.cfg

    def test_byte_identical_saves(self, tmp_path, fitted_pieces):
        _, encoder, model = fitted_pieces
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(p1, model, encoder, {"seed": 1}, {})
        save_checkpoint(p2, model, encoder, {"seed": 1}, {})
        assert p1.read_bytes() == p2.read_bytes()

    def test_failed_save_leaves_old_checkpoint_and_no_temporary(self, tmp_path, monkeypatch, fitted_pieces):
        _, encoder, model = fitted_pieces
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model, encoder, {"seed": 1}, {})
        old = path.read_bytes()
        real, calls = np.lib.format.write_array, []

        def fail_on_third_array(*args, **kwargs):
            calls.append(args)
            if len(calls) == 3:
                raise OSError("disk full")
            return real(*args, **kwargs)

        monkeypatch.setattr(np.lib.format, "write_array", fail_on_third_array)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(path, model, encoder, {"seed": 2}, {})
        assert path.read_bytes() == old
        assert list(tmp_path.iterdir()) == [path]


class TestVersioning:
    def test_version_mismatch_rejected(self, tmp_path, fitted_pieces):
        _, encoder, model = fitted_pieces
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model, encoder, {}, {})
        _rewrite_meta(path, lambda meta: {**meta, "format_version": 999})
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(path)

    def test_not_a_zip_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"not a checkpoint")
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_missing_array_rejected(self, tmp_path, fitted_pieces):
        _, encoder, model = fitted_pieces
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model, encoder, {}, {})
        with zipfile.ZipFile(path) as zf:
            members = {n: zf.read(n) for n in zf.namelist()}
        victim = next(n for n in members if n.startswith("arrays/head"))
        del members[victim]
        with zipfile.ZipFile(path, "w") as zf:
            for name, payload in members.items():
                zf.writestr(name, payload)
        with pytest.raises(CheckpointError):
            load_checkpoint(path)


def _npy(arr) -> bytes:
    buf = io.BytesIO()
    np.lib.format.write_array(buf, arr)
    return buf.getvalue()


def _replace_array(path, name, arr):
    """Rewrite one array member of a saved checkpoint, as ``arr`` in ``.npy``
    form, or as ``arr`` itself where it is bytes."""
    with zipfile.ZipFile(path) as zf:
        members = {n: zf.read(n) for n in zf.namelist()}
    members[f"arrays/{name}.npy"] = arr if isinstance(arr, bytes) else _npy(arr)
    with zipfile.ZipFile(path, "w") as zf:
        for member, payload in members.items():
            zf.writestr(member, payload)


def _rewrite_meta(path, edit):
    """Replace a saved checkpoint's meta.json with edit(its parsed JSON),
    written back as JSON unless edit returns bytes; None drops the member."""
    with zipfile.ZipFile(path) as zf:
        members = {n: zf.read(n) for n in zf.namelist()}
    meta = edit(json.loads(members.pop("meta.json")))
    if meta is not None:
        members["meta.json"] = meta if isinstance(meta, bytes) else json.dumps(meta).encode()
    with zipfile.ZipFile(path, "w") as zf:
        for member, payload in members.items():
            zf.writestr(member, payload)


def _first_nan(a):
    a = a.copy()
    a.flat[0] = np.nan
    return a


def _truncated_npy(a):
    return _npy(a)[:-8]


class TestArrayValidation:
    @pytest.mark.parametrize("name, corrupt, reason", [
        ("head.weight", _first_nan, "NaN or Inf"),
        ("kan.0.coeffs", lambda a: np.full_like(a, np.inf), "NaN or Inf"),
        ("input_bn.running_var", lambda a: -a, "negative variance"),
        ("gmlp.0.bn.running_var", lambda a: a - a.max() - 1e-12, "negative variance"),
        ("head.bias", lambda a: a.astype(np.int64), "dtype int64"),
        ("gmlp.0.gate.weight", lambda a: a.astype(np.complex128), "dtype complex128"),
        ("head.bias", _truncated_npy, "is unreadable: "),
        ("kan.0.coeffs", lambda a: a[:, :, :-1], "has shape"),
    ])
    def test_bad_array_rejected(self, tmp_path, fitted_pieces, name, corrupt, reason):
        _, encoder, model = fitted_pieces
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model, encoder, {}, {})
        _replace_array(path, name, corrupt(model.snapshot()[name]))
        with pytest.raises(CheckpointError, match=f"array '{name}'") as exc:
            load_checkpoint(path)
        assert reason in str(exc.value)

    @pytest.mark.parametrize("name, corrupt", [
        ("head.weight", _first_nan),
        ("input_bn.running_var", lambda a: -a),
        ("head.bias", _truncated_npy),
        ("kan.0.coeffs", lambda a: a[:, :, :-1]),
    ])
    def test_evaluate_exits_two(self, tmp_path, capsys, fitted_pieces, name, corrupt):
        features, encoder, model = fitted_pieces
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model, encoder, {}, {})
        _replace_array(path, name, corrupt(model.snapshot()[name]))
        labels = (np.arange(len(features)) % 3 == 0).astype(float)
        write_csv(tmp_path / "data.csv", Dataset(features, labels, encoder.feature_names))
        assert cli_main(["evaluate", "--checkpoint", str(path), "--data", str(tmp_path / "data.csv")]) == 2
        err = capsys.readouterr().err
        assert "CheckpointError" in err and repr(name) in err


class TestMetaValidation:
    CASES = [
        (lambda meta: b'{"format_version": 1,', "meta.json is not JSON"),
        (lambda meta: [meta], "meta.json must hold an object, got list"),
        (lambda meta: {k: v for k, v in meta.items() if k != "model_config"}, "meta.json lacks 'model_config'"),
        (lambda meta: {**meta, "model_config": {**meta["model_config"], "input_dim": 0}},
         "invalid model_config: input_dim must be an integer >= 1, got 0"),
        (lambda meta: {**meta, "run_config": [1]}, "meta.json run_config must be a dict, got list"),
        (lambda meta: {**meta, "arrays": 5}, "meta.json arrays must be a list, got int"),
        (lambda meta: {**meta, "encoder": {}}, "invalid encoder: KeyError: 'kind'"),
        (lambda meta: {**meta, "model_config": {**meta["model_config"], "dropout_after_each_kan": True}},
         "invalid model_config: ModelConfig.__init__() got an unexpected keyword argument 'dropout_after_each_kan'"),
        (lambda meta: {**meta, "model_config": {**meta["model_config"], "spline_degree": 3}},
         "invalid model_config: ModelConfig.__init__() got an unexpected keyword argument 'spline_degree'"),
        (lambda meta: {**meta, "model_config": {**meta["model_config"], "spline_range": [-1.0, 1.0]}},
         "invalid model_config: ModelConfig.__init__() got an unexpected keyword argument 'spline_range'"),
        (lambda meta: None, "missing meta.json member"),
        (lambda meta: {**meta, "arrays": meta["arrays"][:-1]}, "missing array 'head.bias'"),
    ]
    IDS = ["not-json", "a-list", "no-model-config", "input-dim-zero", "run-config-list", "arrays-int", "encoder-empty",
           "removed-model-key", "removed-spline-degree", "removed-spline-range", "no-meta-member",
           "array-not-listed"]

    @pytest.mark.parametrize("edit, problem", CASES, ids=IDS)
    def test_bad_meta_rejected(self, tmp_path, fitted_pieces, edit, problem):
        _, encoder, model = fitted_pieces
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model, encoder, {}, {})
        _rewrite_meta(path, edit)
        with pytest.raises(CheckpointError) as exc:
            load_checkpoint(path)
        assert str(path) in str(exc.value) and problem in str(exc.value)

    @pytest.mark.parametrize("edit, problem", CASES, ids=IDS)
    def test_evaluate_exits_two(self, tmp_path, capsys, fitted_pieces, edit, problem):
        features, encoder, model = fitted_pieces
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model, encoder, {}, {})
        _rewrite_meta(path, edit)
        labels = (np.arange(len(features)) % 3 == 0).astype(float)
        write_csv(tmp_path / "data.csv", Dataset(features, labels, encoder.feature_names))
        assert cli_main(["evaluate", "--checkpoint", str(path), "--data", str(tmp_path / "data.csv")]) == 2
        err = capsys.readouterr().err
        assert "CheckpointError" in err and problem in err


def test_arrays_outside_the_config_rejected(tmp_path):
    encoder = EncoderSpec.fit(np.random.default_rng(0).normal(size=(30, 3)), kind="qle", n_bins=4)
    cfg = ModelConfig(input_dim=encoder.output_dim, hidden_dim=4, kan_layers=2, gmlp_layers=1)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, build_model(cfg, seed=0), encoder, {}, {})
    # kan.0 and gmlp.0 still fit this config
    _rewrite_meta(path, lambda meta: {**meta, "model_config": {**meta["model_config"], "kan_layers": 1}})
    with pytest.raises(CheckpointError, match=r"\['kan\.1\.base_weight', 'kan\.1\.coeffs', 'kan\.1\.spline_weight'\]"):
        load_checkpoint(path)


def test_array_layout_pinned(tmp_path):
    """FORMAT_VERSION 1 stores its arrays under these names, in this order."""
    encoder = EncoderSpec.fit(np.random.default_rng(0).normal(size=(30, 3)), kind="qle", n_bins=4)
    cfg = ModelConfig(input_dim=encoder.output_dim, hidden_dim=4, kan_layers=2, gmlp_layers=2)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, build_model(cfg, seed=0), encoder, {}, {})
    layer = ["base_weight", "spline_weight", "coeffs"]
    bn = ["gamma", "beta", "running_mean", "running_var"]
    block = [f"bn.{n}" for n in bn] + ["gate.weight", "gate.bias", "value.weight", "value.bias"]
    expected = ([f"input_bn.{n}" for n in bn] + [f"kan.{i}.{n}" for i in range(2) for n in layer]
                + [f"gmlp.{i}.{n}" for i in range(2) for n in block] + ["head.weight", "head.bias"])
    assert len(expected) == 28
    with zipfile.ZipFile(path) as zf:
        assert json.loads(zf.read("meta.json"))["arrays"] == expected
        assert zf.namelist() == ["meta.json"] + [f"arrays/{n}.npy" for n in expected]

