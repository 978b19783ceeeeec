"""Dataset loading, chronological splitting, and synthetic benchmarks.

The synthetic generator samples columns from four families (Gaussian,
Exponential, Beta, zero-inflated Poisson), builds a logistic label model
over smooth transforms of a random column subset, and calibrates the
intercept by bisection to hit a target positive rate. It returns the true
conditional probabilities alongside the drawn labels, so tests can compare
a trained model against the Bayes-optimal score.
"""

from __future__ import annotations

import contextlib
import csv
import math
import os
from array import array
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import metrics, nn_core

FAMILIES = ("gaussian", "exponential", "beta", "zip")
DEFAULT_PREVALENCE = 0.0047  # positive-class share of the reference task


class DataError(ValueError):
    """Malformed input data; message carries row/column coordinates."""


@dataclass
class Dataset:
    """Feature rows and 0/1 labels. A NaN feature is a missing cell, the only
    marker of one, so ``features`` may hold NaN but never +-inf."""

    features: np.ndarray  # (n, d)
    labels: np.ndarray  # (n,) in {0, 1}
    feature_names: list[str]
    time_values: np.ndarray | None = None

    def __post_init__(self):
        n = self.features.shape[0]
        if self.labels.shape != (n,):
            raise DataError("labels must align with feature rows")
        if not np.all((self.labels == 0) | (self.labels == 1)):
            raise DataError("labels must be 0/1")
        if self.time_values is not None and self.time_values.shape != (n,):
            raise DataError("time column must align with feature rows")
        if np.isinf(self.features).any():
            raise DataError("infinite features; only NaN may mark a missing cell")

    @property
    def n_rows(self) -> int:
        return self.features.shape[0]

    def take(self, idx: np.ndarray) -> "Dataset":
        return Dataset(
            features=self.features[idx],
            labels=self.labels[idx],
            feature_names=self.feature_names,
            time_values=None if self.time_values is None else self.time_values[idx],
        )


def load_csv(path, label: str = "label", time: str | None = None, ignore=(), features=None) -> Dataset:
    """Read a headered CSV into a Dataset.

    The feature columns are the header's columns other than the label, the
    time column and ``ignore``: in file order, or in the order of
    ``features``, which must name each of them once (see ``_read_header``).

    One pass over the raw bytes counts the lines and looks for an empty cell
    (two separators in a row, carriage returns aside). A file without one goes
    through numpy's C parser, which must then give one row per line with as
    many cells as the header, every feature and time cell a finite number and
    every label exactly ``0`` or ``1``; columns outside the features, label
    and time are not parsed. A file with an empty cell, and any file the C
    parser rejects (an unparseable or non-finite cell, a ragged or blank row,
    a quoted cell spanning lines, a whitespace-only or quoted empty cell, a
    label padded with spaces), is
    read by the row scanner, ``_scan_csv``, which streams the rows: empty
    feature cells become NaN, the only missing marker, and anything else
    (a ``nan`` or ``inf`` text cell among them) raises DataError with
    row/column coordinates.
    """
    n_lines, has_empty = _survey(path)
    if has_empty or n_lines < 2:
        return _scan_csv(path, label, time, ignore, features)
    with open(path, newline="") as fh:
        header, cols = _read_header(fh, path, label, time, ignore, features)
        table = _parse_bulk(fh, header, cols)
    if table is None or table.shape != (n_lines - 1, len(header)):
        return _scan_csv(path, label, time, ignore, features)
    x = table[:, [j for j, _ in cols.features]]
    times = None if cols.time is None else table[:, cols.time].copy()
    if not np.isfinite(x).all() or (times is not None and not np.isfinite(times).all()):
        return _scan_csv(path, label, time, ignore, features)
    return Dataset(
        features=x,
        labels=table[:, cols.label].copy(),
        feature_names=[name for _, name in cols.features],
        time_values=times,
    )


@dataclass(frozen=True)
class _Columns:
    """Header positions: (index, name) of each feature, label and time index."""

    features: list[tuple[int, str]]
    label: int
    time: int | None


def _read_header(fh, path, label, time, ignore, features=None) -> tuple[list[str], _Columns]:
    """The header and the positions of its columns. With ``features``, the
    feature columns come in that order, and the header's feature columns
    must be exactly those names, each once, or DataError lists the missing
    and the extra ones."""
    try:
        header = next(csv.reader(fh))
    except StopIteration:
        raise DataError(f"{path}: empty file") from None
    if label not in header:
        raise DataError(f"{path}: missing label column {label!r}")
    if time is not None and time not in header:
        raise DataError(f"{path}: missing time column {time!r}")
    skip = set(ignore) | {label} | ({time} if time else set())
    found = [(j, name) for j, name in enumerate(header) if name not in skip]
    if features is not None and [name for _, name in found] != list(features):
        index = {name: j for j, name in found}
        missing = [n for n in features if n not in index]
        extra = [n for _, n in found if n not in features]
        if missing or extra or len(index) < len(found) or len(found) != len(features):
            raise DataError(f"{path}: feature columns are not the {len(features)} training columns "
                            f"in some order: missing {missing}, extra {extra}")
        found = [(index[n], n) for n in features]
    return header, _Columns(
        features=found,
        label=header.index(label),
        time=header.index(time) if time else None,
    )


def _survey(path) -> tuple[int, bool]:
    """Physical lines in the file (a last line without a newline included),
    and whether any cell may be empty: once carriage returns are dropped and
    newlines read as commas, two commas in a row. Blank lines and commas
    inside quotes count too; they only send the file to the row scanner.

    Reads 64 KiB at a time. Until a gap is found, each read is viewed as a
    numpy byte array, its carriage returns dropped, and its separators
    (comma or newline) compared with their right neighbours; whether the
    read's last kept byte is a separator carries into the next one, so a gap
    split by a read boundary, or by carriage returns at one, is still
    found."""
    lines, has_empty, carry, last = 0, False, False, b""
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            lines += chunk.count(b"\n")
            last = chunk[-1:]
            if has_empty:
                continue
            a = np.frombuffer(chunk, np.uint8)
            if b"\r" in chunk:
                a = a[a != 13]
                if a.size == 0:
                    continue
            sep = (a == 44) | (a == 10)
            has_empty = bool(carry and sep[0] or (sep[1:] & sep[:-1]).any())
            carry = bool(sep[-1])
    return lines + (last not in (b"", b"\n")), has_empty


def _label_cell(cell: str) -> float:
    cell = cell.strip()
    if cell not in ("0", "1"):
        raise ValueError(f"label must be 0 or 1, got {cell!r}")
    return float(cell)


def _unused_cell(cell: str) -> float:
    return 0.0


def _parse_bulk(fh, header: list[str], cols: _Columns) -> np.ndarray | None:
    """Every body cell of ``fh`` as one float table, or None when the C
    parser rejects the file. All columns are read, not a ``usecols`` subset,
    because only then does the parser check each row's cell count; columns
    that are neither features, label nor time get a constant converter, so
    a text column there still parses. A label cell is looked up in a dict of
    ``"0"`` and ``"1"``, in C: any other text, a label padded with spaces
    among them, raises, and the file goes to the row scanner, whose
    ``_label_cell`` strips the spaces and accepts it."""
    used = {j for j, _ in cols.features} | {cols.label, cols.time}
    converters = {j: _unused_cell for j in range(len(header)) if j not in used}
    converters[cols.label] = {"0": 0.0, "1": 1.0}.__getitem__
    try:
        return np.loadtxt(fh, delimiter=",", quotechar='"', comments=None, ndmin=2,
                          dtype=np.float64, converters=converters)
    except ValueError:
        return None


def _scan_csv(path, label: str = "label", time: str | None = None, ignore=(), features=None) -> Dataset:
    """Read a CSV one row at a time, checking each cell as it is read; the
    reader for every file the C parser cannot take. An empty feature cell
    becomes NaN. The first bad cell in row-major order (a row of the wrong
    length, a feature or time cell that does not parse or is not finite, a
    label other than 0 or 1) raises DataError with its coordinates. Values go
    straight into packed float buffers, so no row outlives its own check."""
    x, labels, times = array("d"), array("d"), array("d")
    with open(path, newline="") as fh:
        header, cols = _read_header(fh, path, label, time, ignore, features)
        for i, row in enumerate(csv.reader(fh), start=2):
            if len(row) != len(header):
                raise DataError(f"{path}: row {i} has {len(row)} cells, expected {len(header)}")
            for j, name in cols.features:
                cell = row[j].strip()
                if cell == "":
                    x.append(math.nan)
                    continue
                try:
                    value = float(cell)
                except ValueError:
                    raise DataError(f"{path}: row {i}, column {name!r}: cannot parse {cell!r}") from None
                if not math.isfinite(value):
                    raise DataError(f"{path}: row {i}, column {name!r}: non-finite value {cell!r}")
                x.append(value)
            try:
                labels.append(_label_cell(row[cols.label]))
            except ValueError as exc:
                raise DataError(f"{path}: row {i}, column {label!r}: {exc}") from None
            if cols.time is not None:
                cell = row[cols.time].strip()
                try:
                    value = float(cell)
                except ValueError:
                    raise DataError(f"{path}: row {i}, column {time!r}: cannot parse time cell") from None
                if not math.isfinite(value):
                    raise DataError(f"{path}: row {i}, column {time!r}: non-finite value {cell!r}")
                times.append(value)
    return Dataset(
        features=np.frombuffer(x).reshape(len(labels), len(cols.features)),
        labels=np.frombuffer(labels),
        feature_names=[name for _, name in cols.features],
        time_values=np.frombuffer(times) if cols.time is not None else None,
    )


WRITE_BLOCK_CELLS = 1 << 18  # cells formatted per CSV block, label cells included
# Cells of a block's text as uint32 codes of four ASCII bytes (see
# _format_rows): "0.0," and "1.0," whole, and three NULs, for text spliced in
# later, before a feature cell's comma or a label's line feed.
_ZERO_CELL, _ONE_CELL, _SPLICED_CELL, _SPLICED_LABEL = np.frombuffer(b"0.0,1.0,\0\0\0,\0\0\0\n", dtype=np.uint32)
_repr = np.frompyfunc(repr, 1, 1)


def rows_per_block(n_features: int) -> int:
    """Rows in one CSV block of ``n_features`` feature cells plus a label:
    at most ``WRITE_BLOCK_CELLS`` cells, and at least one row."""
    return max(1, WRITE_BLOCK_CELLS // (n_features + 1))


@contextlib.contextmanager
def replacing_open(path, mode: str = "x", **kwargs):
    """Open a new temporary file beside ``path`` as ``open(tmp, mode,
    **kwargs)``; it replaces ``path`` once the ``with`` block ends without an
    error. On an error it is removed and ``path`` is left as it was."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.urandom(4).hex()}.tmp")
    fh = open(tmp, mode, **kwargs)
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


@contextlib.contextmanager
def csv_block_writer(path, feature_names, label: str = "label"):
    """Open a CSV for writing in row blocks; yields ``write(features, labels)``,
    which appends rows, a NaN feature as an empty cell.

    The header is a ``csv.writer`` row, and each ``write`` formats its rows
    ``rows_per_block`` at a time (see ``_format_rows``), into a
    ``replacing_open`` file: ``path`` appears whole or is left as it was.
    """
    with replacing_open(path, newline="") as fh:
        csv.writer(fh).writerow(list(feature_names) + [label])

        def write(features, labels):
            step = rows_per_block(features.shape[1])
            for lo in range(0, features.shape[0], step):
                fh.write(_format_rows(features[lo:lo + step], labels[lo:lo + step]))

        yield write


def _format_rows(x: np.ndarray, labels: np.ndarray) -> str:
    """CSV text of one block: per row the ``repr`` of every feature value
    (an empty cell for NaN), then the label as ``0`` or ``1``, joined by
    commas and ended by ``\\r\\n``: the bytes ``csv.writer`` gives for these
    cells, which never need quoting.

    When at least half the cells are exact ``+0.0`` or ``1.0``, as in a PLE
    table, or some cell is empty, the block is laid out as one uint32 code
    per cell: ``0.0,`` and ``1.0,`` (what ``repr`` and the separator give for
    those two values) stand whole, and every other cell is three NULs before
    its separator or line end, with its text spliced in: the ``repr`` of the
    value (``-0.0`` among them), nothing for an empty cell, or the label and
    ``\\r``. Otherwise, as in a table of raw floats, every cell goes through
    ``repr`` row by row, which is faster there.
    """
    zero = (x == 0.0) & ~np.signbit(x)
    one = x == 1.0
    if 2 * np.count_nonzero(zero | one) < x.size and not np.isnan(x).any():
        tails = [",1\r\n" if y else ",0\r\n" for y in labels.tolist()]
        return "".join([",".join(map(repr, row)) + tail for row, tail in zip(x.tolist(), tails)])
    n, d = x.shape
    codes = np.full((n, d + 1), _SPLICED_CELL, dtype=np.uint32)
    codes[:, d] = _SPLICED_LABEL
    codes[:, :d][zero] = _ZERO_CELL
    codes[:, :d][one] = _ONE_CELL
    # The text of each spliced cell, in row-major order; one per row is the label.
    rows, cols = np.nonzero((codes == _SPLICED_CELL) | (codes == _SPLICED_LABEL))
    texts = np.empty(rows.size, dtype=object)
    label = cols == d
    texts[label] = ["1\r" if y else "0\r" for y in labels.tolist()]
    cell = np.flatnonzero(~label)
    values = x[rows[cell], cols[cell]]
    texts[cell] = _repr(values)
    texts[cell[np.isnan(values)]] = ""
    pieces = [""] * (2 * rows.size + 1)
    pieces[0::2] = codes.tobytes().decode("ascii").split("\0\0\0")
    pieces[1::2] = texts.tolist()
    return "".join(pieces)


def write_csv(path, ds: Dataset, label: str = "label"):
    """Write a Dataset as CSV through ``csv_block_writer``: a ``csv.writer``
    header, then per row the ``repr`` of every feature value (an empty cell
    for NaN) and the label as ``0`` or ``1``, ended by
    ``\\r\\n``. The file appears whole or not at all."""
    with csv_block_writer(path, ds.feature_names, label) as write:
        write(ds.features, ds.labels)


def chronological_split(ds: Dataset, fractions=(0.6, 0.2, 0.2)) -> tuple[Dataset, Dataset, Dataset]:
    """Stable time sort, then contiguous train|valid|test slices.

    Boundaries sit at floor(cumulative fraction * n), so nothing is dropped
    when the fractions sum to 1. Row order stands in when no time column
    exists.
    """
    fractions = [float(f) for f in fractions]
    if len(fractions) != 3 or any(f <= 0.0 for f in fractions):
        raise ValueError("need three positive fractions")
    if sum(fractions) > 1.0 + 1e-12:
        raise ValueError("fractions must sum to at most 1")
    order = (
        np.argsort(ds.time_values, kind="stable")
        if ds.time_values is not None
        else np.arange(ds.n_rows)
    )
    cuts = [int(np.floor(sum(fractions[: k + 1]) * ds.n_rows)) for k in range(3)]
    bounds = [0] + cuts
    splits = tuple(ds.take(order[bounds[k] : bounds[k + 1]]) for k in range(3))
    if any(s.n_rows == 0 for s in splits):
        raise ValueError(f"split sizes {[s.n_rows for s in splits]} contain an empty split")
    return splits


@dataclass(frozen=True)
class SyntheticColumnSpec:
    """One sampled column: family name plus its parameters."""

    family: str
    params: tuple[float, ...]

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        p = self.params
        ok = {
            "gaussian": len(p) == 2 and p[1] > 0,
            "exponential": len(p) == 1 and p[0] > 0,
            "beta": len(p) == 2 and p[0] > 0 and p[1] > 0,
            "zip": len(p) == 2 and 0.0 <= p[0] <= 1.0 and p[1] > 0,
        }[self.family]
        if not ok:
            raise ValueError(f"bad parameters {p} for family {self.family!r}")

    @classmethod
    def gaussian(cls, mu: float = 0.0, sigma: float = 1.0):
        return cls("gaussian", (mu, sigma))

    @classmethod
    def exponential(cls, scale: float = 1.0):
        return cls("exponential", (scale,))

    @classmethod
    def beta(cls, alpha: float = 0.5, beta: float = 0.5):
        return cls("beta", (alpha, beta))

    @classmethod
    def zip(cls, pi: float = 0.3, lam: float = 50.0):
        return cls("zip", (pi, lam))

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        p = self.params
        if self.family == "gaussian":
            return rng.normal(p[0], p[1], size=n)
        if self.family == "exponential":
            return rng.exponential(p[0], size=n)
        if self.family == "beta":
            return rng.beta(p[0], p[1], size=n)
        zeros = rng.random(n) < p[0]
        return np.where(zeros, 0.0, rng.poisson(p[1], size=n)).astype(np.float64)

    def mean(self) -> float:
        p = self.params
        if self.family in ("gaussian", "exponential"):
            return p[0]
        if self.family == "beta":
            return p[0] / (p[0] + p[1])
        return (1.0 - p[0]) * p[1]

    def std(self) -> float:
        p = self.params
        if self.family == "gaussian":
            return p[1]
        if self.family == "exponential":
            return p[0]
        if self.family == "beta":
            a, b = p
            return float(np.sqrt(a * b / ((a + b) ** 2 * (a + b + 1.0))))
        pi, lam = p
        return float(np.sqrt((1.0 - pi) * lam * (1.0 + pi * lam)))


def default_columns(n_columns: int = 32) -> list[SyntheticColumnSpec]:
    """Round-robin over the four families (8 each at the default 32)."""
    makers = [
        SyntheticColumnSpec.gaussian,
        SyntheticColumnSpec.exponential,
        SyntheticColumnSpec.beta,
        SyntheticColumnSpec.zip,
    ]
    return [makers[j % len(makers)]() for j in range(n_columns)]


@dataclass(frozen=True)
class SyntheticTaskSpec:
    """Column mix plus the logistic label model and its target prevalence."""

    columns: tuple[SyntheticColumnSpec, ...]
    prevalence: float = DEFAULT_PREVALENCE
    signal_scale: float = 2.0
    seed: int = 0

    def __post_init__(self):
        if not (0.0 < self.prevalence <= 0.5):
            raise ValueError("prevalence must lie in (0, 0.5]")
        object.__setattr__(self, "columns", tuple(self.columns))


def desk_tiny_spec(seed: int = 42, n_columns: int = 32,
                   prevalence: float = DEFAULT_PREVALENCE) -> SyntheticTaskSpec:
    return SyntheticTaskSpec(columns=tuple(default_columns(n_columns)), prevalence=prevalence, seed=seed)


_TRANSFORMS = ("identity", "square", "soft_threshold")


def _apply_transform(kind: str, standardized: np.ndarray, theta: float) -> np.ndarray:
    if kind == "identity":
        return standardized
    if kind == "square":
        return standardized**2
    return np.tanh(2.0 * (standardized - theta))


def synth_generate(spec: SyntheticTaskSpec, n_rows: int) -> tuple[Dataset, np.ndarray]:
    """Sample the task; returns (dataset, true conditional probabilities).

    Labels are Bernoulli draws of sigmoid(w . phi(x) + b): phi applies a
    fixed smooth transform (identity / square / soft threshold) to each of a
    random half of the columns after population standardization; b is
    bisected so the mean probability hits the prevalence target.
    """
    d = len(spec.columns)
    ss = np.random.SeedSequence(spec.seed)
    children = ss.spawn(d + 2)
    features = np.empty((n_rows, d))
    for j, col in enumerate(spec.columns):
        features[:, j] = col.sample(n_rows, np.random.default_rng(children[j]))

    model_rng = np.random.default_rng(children[d])
    n_active = max(2, d // 2)
    active = np.sort(model_rng.choice(d, size=min(n_active, d), replace=False))
    kinds = model_rng.choice(len(_TRANSFORMS), size=active.size)
    thetas = model_rng.uniform(-1.0, 1.0, size=active.size)
    weights = model_rng.normal(0.0, 1.0, size=active.size)

    z = np.zeros(n_rows)
    for w, j, k, theta in zip(weights, active, kinds, thetas):
        col = spec.columns[j]
        standardized = (features[:, j] - col.mean()) / max(col.std(), 1e-12)
        z += w * _apply_transform(_TRANSFORMS[int(k)], standardized, theta)
    z = spec.signal_scale * (z - z.mean()) / max(z.std(), 1e-12)

    intercept = _calibrate_intercept(z, spec.prevalence)
    probs = nn_core.sigmoid(z + intercept)
    labels = (np.random.default_rng(children[d + 1]).random(n_rows) < probs).astype(np.float64)
    ds = Dataset(
        features=features,
        labels=labels,
        feature_names=[f"x{j:02d}" for j in range(d)],
    )
    return ds, probs


def _calibrate_intercept(z: np.ndarray, target: float) -> float:
    lo, hi = -60.0, 60.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if nn_core.sigmoid(z + mid).mean() < target:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-13:
            break
    return 0.5 * (lo + hi)


def bayes_metrics(oracle_probs, labels) -> metrics.MetricReport:
    """KS/AUC of the true conditional probability, the performance ceiling."""
    return metrics.compute_metrics(oracle_probs, labels)
