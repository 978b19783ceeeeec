import csv
import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import special, stats

from tkgmlp import data
from tkgmlp.data import (
    DataError,
    Dataset,
    SyntheticColumnSpec,
    SyntheticTaskSpec,
    bayes_metrics,
    chronological_split,
    default_columns,
    desk_tiny_spec,
    load_csv,
    synth_generate,
    write_csv,
)

from .helpers import per_row_write_csv, traced_peak


class TestLoadCsv:
    def test_roundtrip_values_exact(self, tmp_path):
        path = tmp_path / "tiny.csv"
        path.write_text("a,b,label\n1.5,2.25,0\n-3.0,0.125,1\n7.0,-2.5,0\n")
        ds = load_csv(path)
        np.testing.assert_array_equal(ds.features, [[1.5, 2.25], [-3.0, 0.125], [7.0, -2.5]])
        np.testing.assert_array_equal(ds.labels, [0.0, 1.0, 0.0])
        assert ds.feature_names == ["a", "b"]

    def test_empty_file_structured_error(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(DataError, match="empty"):
            load_csv(path)

    def test_missing_cell_is_nan(self, tmp_path):
        path = tmp_path / "gaps.csv"
        path.write_text("a,b,label\n1.0,,0\n2.0,3.0,1\n")
        ds = load_csv(path)
        np.testing.assert_array_equal(np.isnan(ds.features), [[False, True], [False, False]])
        assert ds.features[1, 1] == 3.0

    def test_unparseable_cell_reports_coordinates(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,label\n1.0,oops,0\n")
        with pytest.raises(DataError, match=r"row 2.*'b'"):
            load_csv(path)

    def test_bad_label_reports_coordinates(self, tmp_path):
        path = tmp_path / "badlabel.csv"
        path.write_text("a,label\n1.0,2\n")
        with pytest.raises(DataError, match="label"):
            load_csv(path)

    def test_missing_label_column(self, tmp_path):
        path = tmp_path / "nolabel.csv"
        path.write_text("a,b\n1.0,2.0\n")
        with pytest.raises(DataError, match="label"):
            load_csv(path)

    def test_missing_time_column(self, tmp_path):
        path = tmp_path / "notime.csv"
        path.write_text("a,label\n1.0,0\n")
        with pytest.raises(DataError, match="missing time column 't'"):
            load_csv(path, time="t")

    def test_time_and_ignore_columns(self, tmp_path):
        path = tmp_path / "timed.csv"
        path.write_text("t,a,junk,label\n3.0,1.0,9,0\n1.0,2.0,9,1\n")
        ds = load_csv(path, time="t", ignore=("junk",))
        assert ds.feature_names == ["a"]
        np.testing.assert_array_equal(ds.time_values, [3.0, 1.0])

    @pytest.mark.parametrize("gap", ["5.0", ""], ids=["bulk", "scanner"])
    def test_features_taken_by_name(self, tmp_path, gap):
        path = tmp_path / "named.csv"
        path.write_text(f"b,label,a,c\n1.0,0,2.0,3.0\n4.0,1,{gap},6.0\n")
        ds = load_csv(path, features=["c", "a", "b"])
        assert ds.feature_names == ["c", "a", "b"]
        np.testing.assert_array_equal(ds.features, [[3.0, 2.0, 1.0], [6.0, float(gap or "nan"), 4.0]])

    @pytest.mark.parametrize("header, features, message", [
        ("a,c,label", ["a", "b"], "2 training columns in some order: missing ['b'], extra ['c']"),
        ("a,label", ["a", "b"], "2 training columns in some order: missing ['b'], extra []"),
        ("b,a,b,label", ["a", "b"], "2 training columns in some order: missing [], extra []"),
        ("b,a,b,label", ["a", "b", "b"], "3 training columns in some order: missing [], extra []"),
    ])
    def test_features_by_name_must_match_the_header(self, tmp_path, header, features, message):
        path = tmp_path / "named.csv"
        path.write_text(header + "\n" + ",".join(["1.0"] * header.count(",") + ["0"]) + "\n")
        with pytest.raises(DataError, match=rf"feature columns are not the {re.escape(message)}"):
            load_csv(path, features=features)

    def test_write_read_roundtrip_bitexact(self, tmp_path):
        rng = np.random.default_rng(0)
        ds = Dataset(
            features=rng.normal(size=(20, 3)),
            labels=(rng.random(20) < 0.5).astype(float),
            feature_names=["a", "b", "c"],
        )
        path = tmp_path / "round.csv"
        write_csv(path, ds)
        back = load_csv(path)
        assert np.array_equal(back.features, ds.features)
        assert np.array_equal(back.labels, ds.labels)

    def test_write_bytes(self, tmp_path):
        ds = Dataset(
            features=np.array([[0.1, np.nan], [-2.5e-300, 3.0]]),
            labels=np.array([1.0, 0.0]),
            feature_names=["a", 'say "hi", b'],
        )
        path = tmp_path / "out.csv"
        write_csv(path, ds)
        assert path.read_bytes() == b'a,"say ""hi"", b",label\r\n0.1,,1\r\n-2.5e-300,3.0,0\r\n'
        back = load_csv(path, label="label")
        assert back.feature_names == ["a", 'say "hi", b']
        assert np.array_equal(back.features, ds.features, equal_nan=True)

    def test_ignored_text_column_takes_bulk_parse(self, tmp_path, monkeypatch):
        path = tmp_path / "text.csv"
        path.write_text('id,a,note,label\n1,0.5,"free, text",0\n2,-1.25,more text,1\n')
        monkeypatch.setattr(data, "_scan_csv", None)  # a fall-back to the scanner fails
        ds = load_csv(path, ignore=("id", "note"))
        assert ds.feature_names == ["a"]
        np.testing.assert_array_equal(ds.features, [[0.5], [-1.25]])
        np.testing.assert_array_equal(ds.labels, [0.0, 1.0])

    @pytest.mark.parametrize("body, message", [
        ("1.0,2.0,0\n3.0,x,1\ny,4.0,0\n", r"row 3, column 'b'"),
        ("1.0,inf,0\nx,2.0,1\n", r"row 2, column 'b': non-finite"),
        ("x,inf,0\n", r"row 2, column 'a': cannot parse"),
        ("1.0,inf,0\n3.0\n", r"row 2, column 'b': non-finite"),
        ("1.0,2.0,0\n1e999,,1\n", r"row 3, column 'a': non-finite"),
    ])
    def test_first_bad_cell_in_row_major_order_reported(self, tmp_path, body, message):
        path = tmp_path / "two_bad.csv"
        path.write_text("a,b,label\n" + body)
        with pytest.raises(DataError, match=message):
            load_csv(path)

    @pytest.mark.parametrize("cell", ["1.0", "true", ""])
    def test_label_must_be_exactly_zero_or_one(self, tmp_path, cell):
        path = tmp_path / "label.csv"
        path.write_text(f"a,label\n1.0, 1 \n2.0,{cell}\n")
        with pytest.raises(DataError, match=r"row 3, column 'label'"):
            load_csv(path)

    def test_header_only_gives_no_rows(self, tmp_path):
        path = tmp_path / "header.csv"
        path.write_text("a,b,label\n")
        ds = load_csv(path)
        assert ds.features.shape == (0, 2)
        assert ds.labels.shape == (0,)

    @pytest.mark.parametrize("body, message", [
        ("1.0,2.0,0\n3.0,1\n", "row 3 has 2 cells, expected 3"),
        ("1.0,2.0,0\n3.0,4.0,1,5.0\n", "row 3 has 4 cells, expected 3"),
        ("1.0,2.0\n3.0,4.0\n", "row 2 has 2 cells, expected 3"),
        ("1.0,2.0,0\n\n3.0,4.0,1\n", "row 3 has 0 cells, expected 3"),
    ])
    def test_ragged_row_reported(self, tmp_path, body, message):
        path = tmp_path / "ragged.csv"
        path.write_text("a,b,label\n" + body)
        with pytest.raises(DataError, match=message):
            load_csv(path)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity", "1e999"])
    def test_non_finite_cell_rejected(self, tmp_path, cell):
        path = tmp_path / "nonfinite.csv"
        path.write_text(f"a,b,label\n1.0,2.0,0\n3.0,{cell},1\n")
        with pytest.raises(DataError, match=r"row 3, column 'b'.*non-finite"):
            load_csv(path)

    @pytest.mark.parametrize("body", ["1.0,0,2.0\n3.0,1,\n", ",0,2.0\n", "1.0,0,\r\n3.0,1,4.0\r\n"])
    def test_empty_cell_goes_straight_to_scanner(self, tmp_path, monkeypatch, body):
        path = tmp_path / "gaps.csv"
        path.write_bytes(b"a,label,b\r\n" + body.encode())
        monkeypatch.setattr(data, "_parse_bulk", None)  # a bulk parse attempt fails
        ds = load_csv(path)
        assert np.isnan(ds.features).sum() == 1

    def test_survey_counts_lines_and_spots_gap_across_chunks(self, tmp_path):
        head = b"a,label\r\n"
        row = b"0.5,1\r\n"
        filler = row * (((1 << 16) - len(head)) // len(row) - 1)
        pad = b"9" * ((1 << 16) - len(head) - len(filler) - 1)  # the first 64 KiB read ends with the comma
        path = tmp_path / "big.csv"
        path.write_bytes(head + filler + pad + b",,1\r\n0.5,0")
        n_rows = len(filler) // len(row)
        assert data._survey(path) == (n_rows + 3, True)
        path.write_bytes(head + filler + pad + b",1\r\n0.5,0")
        assert data._survey(path) == (n_rows + 3, False)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(snippet=st.binary(max_size=80).map(lambda raw: bytes(b"0123456789.,\r\n\"1"[c % 16] for c in raw)),
           split=st.integers(0, 80), tail=st.sampled_from([b"", b"1\n", b"\r" * (1 << 16) + b",1\n"]))
    @example(snippet=b"0.5,1,\r\n0.5,1\n", split=7, tail=b"")  # the first read ends in ",\r", the next starts "\n"
    @example(snippet=b"1,", split=2, tail=b"\r" * (1 << 16) + b",1\n")  # a read of carriage returns only
    def test_survey_matches_the_whole_file_rule(self, snippet, split, tail):
        # the snippet straddles the first 64 KiB read boundary, split bytes before it
        raw = b"1" * ((1 << 16) - min(split, len(snippet))) + snippet + tail
        lines = raw.count(b"\n") + (not raw.endswith(b"\n"))
        gap = b",," in raw.replace(b"\r", b"").replace(b"\n", b",")
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "survey.csv"
            path.write_bytes(raw)
            assert data._survey(path) == (lines, gap)

    @pytest.mark.parametrize("cell", ["0", "1", " 1", "1 ", "1.0", "01", "+1", "2", ""])
    def test_label_cell_read_as_the_scanner_reads_it(self, tmp_path, monkeypatch, cell):
        path = tmp_path / "labels.csv"
        path.write_text(f"a,label\n0.5,0\n0.25,{cell}\n-1.0,1\n")
        try:
            expected = data._scan_csv(path)
        except DataError as exc:
            with pytest.raises(DataError) as caught:
                load_csv(path)
            assert str(caught.value) == str(exc)
            return
        if cell in ("0", "1"):
            monkeypatch.setattr(data, "_scan_csv", None)  # an exact 0 or 1 takes the bulk parse
        got = load_csv(path)
        assert got.features.tobytes() == expected.features.tobytes()
        assert got.labels.tobytes() == expected.labels.tobytes()

    def test_scanner_matches_bulk_parse(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(3)
        ds = Dataset(features=rng.normal(size=(30, 4)), labels=(rng.random(30) < 0.5).astype(float),
                     feature_names=["t", "a", "junk", "b"])
        path = tmp_path / "clean.csv"
        write_csv(path, ds)
        kwargs = dict(label="label", time="t", ignore=("junk",))
        scanned = data._scan_csv(path, **kwargs)
        monkeypatch.setattr(data, "_scan_csv", None)
        parsed = load_csv(path, **kwargs)
        assert scanned.feature_names == parsed.feature_names == ["a", "b"]
        for name in ("features", "labels", "time_values"):
            assert np.array_equal(getattr(scanned, name), getattr(parsed, name))

    @pytest.mark.parametrize("gap", ["5.0", ""], ids=["bulk", "scanner"])
    @pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity"])
    def test_non_finite_time_cell_rejected(self, tmp_path, cell, gap):
        path = tmp_path / "timed.csv"
        path.write_text(f"t,a,label\n1.0,2.0,0\n{cell},3.0,1\n4.0,{gap},0\n")
        with pytest.raises(DataError, match=rf"row 3, column 't': non-finite value '{cell}'"):
            load_csv(path, time="t")

    @pytest.mark.parametrize("gap", ["5.0", ""], ids=["bulk", "scanner"])
    def test_unparseable_time_cell_rejected(self, tmp_path, gap):
        path = tmp_path / "timed.csv"
        path.write_text(f"t,a,label\n1.0,2.0,0\nnoon,3.0,1\n4.0,{gap},0\n")
        with pytest.raises(DataError, match=r"row 3, column 't': cannot parse time cell"):
            load_csv(path, time="t")

    def test_scanner_peak_memory_near_the_features(self, tmp_path):
        rng = np.random.default_rng(5)
        features = rng.normal(size=(5000, 32))
        features[rng.random(features.shape) < 0.01] = np.nan
        path = tmp_path / "gaps.csv"
        write_csv(path, Dataset(features, np.arange(5000) % 2.0, [f"f{j}" for j in range(32)]))
        peak = traced_peak(lambda: load_csv(path))
        assert peak <= 2 * features.nbytes

    @pytest.mark.parametrize("text, kwargs", [
        ("a,b,label\r1.0,,0\r-2.5,3.0,1\r", {}),
        ('id,a,note,b,label\n1,1.0,"two\nlines",,0\n2,-2.5,x,3.0,1\n', {"ignore": ("id", "note")}),
    ], ids=["cr-only", "quoted-cell-spans-lines"])
    def test_rows_are_not_counted_by_lines(self, tmp_path, text, kwargs):
        path = tmp_path / "rows.csv"
        path.write_bytes(text.encode())
        ds = load_csv(path, **kwargs)
        assert ds.feature_names == ["a", "b"]
        assert np.array_equal(ds.features, [[1.0, np.nan], [-2.5, 3.0]], equal_nan=True)
        np.testing.assert_array_equal(ds.labels, [0.0, 1.0])

    @settings(max_examples=60, deadline=None)
    @given(table=hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=6),
                            elements=st.floats(allow_infinity=False)))
    def test_nan_cells_roundtrip_as_empty_cells(self, table):
        table[np.isnan(table)] = np.nan  # one NaN, whatever the sign and payload drawn
        ds = Dataset(table, np.arange(table.shape[0]) % 2.0, [f"f{j}" for j in range(table.shape[1])])
        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
            path = Path(tmp) / "gaps.csv"
            write_csv(path, ds)
            with open(path, newline="") as fh:
                cells = np.array([row[:-1] for row in csv.reader(fh)][1:])
            assert np.array_equal(cells == "", np.isnan(table))
            scanned = data._scan_csv(path)
            if not np.isnan(table).any():
                mp.setattr(data, "_scan_csv", None)  # a clean file takes the bulk parse
            for back in (scanned, load_csv(path)):
                assert back.features.tobytes() == table.tobytes()
                assert np.array_equal(back.labels, ds.labels)

    def test_infinite_features_rejected(self):
        features = np.array([[1.0, np.nan], [0.0, 2.0]])
        for value in (np.inf, -np.inf):
            features[1, 0] = value
            with pytest.raises(DataError, match="infinite"):
                Dataset(features, np.array([0.0, 1.0]), ["a", "b"])
        features[1, 0] = np.nan  # NaN is a missing cell
        Dataset(features, np.array([0.0, 1.0]), ["a", "b"])


class TestWriteCsv:
    """``write_csv``'s bytes against the per-row oracle, whatever the block."""

    EDGE_VALUES = [0.0, -0.0, 1.0, -1.0, 1.0000000000000002, 0.9999999999999999, 5e-324, 1e16, 1e-5, 0.1]

    def table(self, kind, masked, n=9, d=5):
        """Mostly exact 0.0/1.0 cells ("tokens") or mostly raw floats, the
        edge values in the first two rows, both labels, and optionally a
        missing (NaN) cell and a fully missing row."""
        rng = np.random.default_rng(4)
        features = (rng.random((n, d)) < 0.5).astype(float) if kind == "tokens" else rng.normal(size=(n, d))
        features.flat[:len(self.EDGE_VALUES)] = self.EDGE_VALUES
        if masked:
            features[2, 1] = features[5] = np.nan
        return Dataset(features, np.arange(n) % 2.0, [f"f{j}" for j in range(d)])

    def assert_matches_oracle(self, tmp_path, ds):
        write_csv(tmp_path / "block.csv", ds)
        per_row_write_csv(tmp_path / "oracle.csv", ds)
        assert (tmp_path / "block.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()

    @pytest.mark.parametrize("kind", ["tokens", "raw"])
    @pytest.mark.parametrize("masked", [False, True])
    @pytest.mark.parametrize("block_cells", [2, 6, 12, None], ids=["part-row", "one-row", "two-rows", "default"])
    def test_bytes_match_per_row_oracle(self, tmp_path, monkeypatch, kind, masked, block_cells):
        # Five features and a label make six cells a row; 9 rows are no multiple of 2.
        if block_cells is not None:
            monkeypatch.setattr(data, "WRITE_BLOCK_CELLS", block_cells)
        self.assert_matches_oracle(tmp_path, self.table(kind, masked))

    @pytest.mark.parametrize("shape", [(0, 3), (4, 0)], ids=["no-rows", "no-features"])
    def test_empty_shapes_match_oracle(self, tmp_path, shape):
        ds = Dataset(np.ones(shape), np.arange(shape[0]) % 2.0, [f"f{j}" for j in range(shape[1])])
        self.assert_matches_oracle(tmp_path, ds)
        if shape[0] == 0:
            assert (tmp_path / "block.csv").read_bytes() == b"f0,f1,f2,label\r\n"

    def test_failed_write_leaves_old_file_and_no_temporary(self, tmp_path, monkeypatch):
        path = tmp_path / "out.csv"
        path.write_text("old contents")
        real, calls = data._format_rows, []

        def fail_on_second_block(*args):
            calls.append(args)
            if len(calls) == 2:
                raise OSError("disk full")
            return real(*args)

        monkeypatch.setattr(data, "_format_rows", fail_on_second_block)
        monkeypatch.setattr(data, "WRITE_BLOCK_CELLS", 6)
        with pytest.raises(OSError, match="disk full"):
            write_csv(path, self.table("raw", masked=False))
        assert path.read_text() == "old contents"
        assert list(tmp_path.iterdir()) == [path]


class TestChronologicalSplit:
    def make(self, n=10, with_time=True):
        rng = np.random.default_rng(1)
        return Dataset(
            features=np.arange(n, dtype=float)[:, None],
            labels=(np.arange(n) % 2).astype(float),
            feature_names=["a"],
            time_values=rng.permutation(n).astype(float) if with_time else None,
        )

    def test_slice_arithmetic(self):
        ds = self.make(with_time=False)
        train, valid, test = chronological_split(ds, (0.6, 0.2, 0.2))
        np.testing.assert_array_equal(train.features[:, 0], np.arange(6))
        np.testing.assert_array_equal(valid.features[:, 0], [6, 7])
        np.testing.assert_array_equal(test.features[:, 0], [8, 9])

    def test_presorted_matches_row_ranges(self):
        ds = self.make(with_time=False)
        ds2 = Dataset(ds.features, ds.labels, ds.feature_names,
                      time_values=np.arange(10, dtype=float))
        a = chronological_split(ds, (0.6, 0.2, 0.2))
        b = chronological_split(ds2, (0.6, 0.2, 0.2))
        for s1, s2 in zip(a, b):
            assert np.array_equal(s1.features, s2.features)

    def test_time_ordering_invariant(self):
        ds = self.make(n=50)
        train, valid, test = chronological_split(ds, (0.5, 0.25, 0.25))
        assert train.time_values.max() <= valid.time_values.min()
        assert valid.time_values.max() <= test.time_values.min()

    def test_empty_split_rejected(self):
        with pytest.raises(ValueError):
            chronological_split(self.make(4, with_time=False), (0.9, 0.05, 0.05))

    def test_bad_fractions_rejected(self):
        ds = self.make()
        with pytest.raises(ValueError):
            chronological_split(ds, (0.6, 0.3, 0.3))
        with pytest.raises(ValueError):
            chronological_split(ds, (0.6, 0.4))


class TestColumnSpecs:
    def test_validation(self):
        with pytest.raises(ValueError):
            SyntheticColumnSpec.gaussian(0.0, -1.0)
        with pytest.raises(ValueError):
            SyntheticColumnSpec.zip(1.5, 10.0)
        with pytest.raises(ValueError):
            SyntheticColumnSpec("cauchy", (0.0, 1.0))

    def test_default_columns_cycle_families(self):
        cols = default_columns(32)
        assert len(cols) == 32
        assert sum(c.family == "gaussian" for c in cols) == 8
        assert sum(c.family == "zip" for c in cols) == 8

    def test_moment_formulas(self):
        # sample moments approach the closed forms used by the label model
        rng = np.random.default_rng(0)
        for col in [SyntheticColumnSpec.gaussian(2.0, 3.0),
                    SyntheticColumnSpec.exponential(2.5),
                    SyntheticColumnSpec.beta(0.5, 0.5),
                    SyntheticColumnSpec.zip(0.3, 50.0)]:
            x = col.sample(200_000, rng)
            assert x.mean() == pytest.approx(col.mean(), abs=4e-2 * max(1.0, col.std()))
            assert x.std() == pytest.approx(col.std(), rel=2e-2)


class TestDistributionChecks:
    N = 100_000

    def _ecdf_sup_continuous(self, sample, cdf):
        x = np.sort(sample)
        f = cdf(x)
        n = x.size
        upper = np.abs(np.arange(1, n + 1) / n - f).max()
        lower = np.abs(f - np.arange(0, n) / n).max()
        return max(upper, lower)

    def test_gaussian_cdf(self):
        col = SyntheticColumnSpec.gaussian(0.0, 1.0)
        sample = col.sample(self.N, np.random.default_rng(11))
        dev = self._ecdf_sup_continuous(sample, lambda x: special.ndtr(x))
        assert dev < 0.01

    def test_exponential_cdf(self):
        col = SyntheticColumnSpec.exponential(1.0)
        sample = col.sample(self.N, np.random.default_rng(12))
        dev = self._ecdf_sup_continuous(sample, lambda x: 1.0 - np.exp(-x))
        assert dev < 0.01

    def test_beta_cdf(self):
        col = SyntheticColumnSpec.beta(0.5, 0.5)
        sample = col.sample(self.N, np.random.default_rng(13))
        dev = self._ecdf_sup_continuous(sample, lambda x: special.betainc(0.5, 0.5, x))
        assert dev < 0.01

    def test_zip_cdf(self):
        pi, lam = 0.3, 50.0
        col = SyntheticColumnSpec.zip(pi, lam)
        sample = col.sample(self.N, np.random.default_rng(14))
        ks_dev = 0.0
        for k in np.unique(sample):
            empirical = (sample <= k).mean()
            analytic = pi + (1.0 - pi) * stats.poisson.cdf(k, lam)
            ks_dev = max(ks_dev, abs(empirical - analytic))
        assert ks_dev < 0.01

    def test_zip_pi_one_all_zeros(self):
        col = SyntheticColumnSpec.zip(1.0, 50.0)
        assert np.all(col.sample(1000, np.random.default_rng(0)) == 0.0)

    def test_gaussian_sample_moments(self):
        col = SyntheticColumnSpec.gaussian(0.0, 1.0)
        x = col.sample(100_000, np.random.default_rng(2))
        assert abs(x.mean()) < 0.02
        assert abs(x.std() - 1.0) < 0.02


class TestSynthGenerate:
    def test_deterministic_per_seed(self):
        spec = desk_tiny_spec(seed=5, n_columns=8)
        ds1, p1 = synth_generate(spec, 500)
        ds2, p2 = synth_generate(spec, 500)
        assert np.array_equal(ds1.features, ds2.features)
        assert np.array_equal(ds1.labels, ds2.labels)
        assert np.array_equal(p1, p2)

    def test_different_seeds_differ(self):
        ds1, _ = synth_generate(desk_tiny_spec(seed=1, n_columns=4), 200)
        ds2, _ = synth_generate(desk_tiny_spec(seed=2, n_columns=4), 200)
        assert not np.array_equal(ds1.features, ds2.features)

    def test_prevalence_hits_target(self):
        spec = SyntheticTaskSpec(columns=tuple(default_columns(4)), prevalence=0.0047, seed=0)
        ds, probs = synth_generate(spec, 1_000_000)
        assert probs.mean() == pytest.approx(0.0047, abs=1e-6)
        assert 0.004 <= ds.labels.mean() <= 0.0055

    def test_oracle_probs_in_unit_interval(self):
        _, probs = synth_generate(desk_tiny_spec(seed=3, n_columns=8), 1000)
        assert np.all((probs > 0.0) & (probs < 1.0))

    def test_invalid_prevalence_rejected(self):
        with pytest.raises(ValueError):
            SyntheticTaskSpec(columns=tuple(default_columns(4)), prevalence=0.8)


class TestBayesMetrics:
    def test_deterministic_labels_give_perfect_metrics(self):
        probs = np.array([1.0, 1.0, 0.0, 0.0, 1.0, 0.0])
        labels = probs.copy()
        report = bayes_metrics(probs, labels)
        assert report.auc == 1.0 and report.ks == 1.0

    def test_constant_probability_is_uninformative(self):
        rng = np.random.default_rng(0)
        n = 100_000
        probs = np.full(n, 0.1)
        labels = (rng.random(n) < probs).astype(float)
        report = bayes_metrics(probs, labels)
        assert report.auc == 0.5  # single tie block, exactly half
        assert report.ks == 0.0

    def test_monotone_transform_invariance(self):
        spec = desk_tiny_spec(seed=9, n_columns=8)
        ds, probs = synth_generate(spec, 5000)
        if ds.labels.sum() in (0, ds.n_rows):
            pytest.skip("degenerate draw")
        a = bayes_metrics(probs, ds.labels)
        b = bayes_metrics(np.log(probs / (1 - probs)), ds.labels)
        assert a.ks == pytest.approx(b.ks, abs=1e-12)
        assert a.auc == pytest.approx(b.auc, abs=1e-12)
