"""Dataset loading, chronological splitting, and synthetic benchmarks.

The synthetic generator samples columns from four families (Gaussian,
Exponential, Beta, zero-inflated Poisson), builds a logistic label model
over smooth transforms of a random column subset, and calibrates the
intercept by bisection to hit a target positive rate. It returns the true
conditional probabilities alongside the drawn labels, so tests can compare
a trained model against the Bayes-optimal score.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from . import metrics, nn_core

FAMILIES = ("gaussian", "exponential", "beta", "zip")
DEFAULT_PREVALENCE = 0.0047  # positive-class share of the reference task


class DataError(ValueError):
    """Malformed input data; message carries row/column coordinates."""


@dataclass
class Dataset:
    features: np.ndarray  # (n, d), NaN only where missing_mask is set
    labels: np.ndarray  # (n,) in {0, 1}
    feature_names: list[str]
    time_values: np.ndarray | None = None
    missing_mask: np.ndarray | None = None

    def __post_init__(self):
        n = self.features.shape[0]
        if self.labels.shape != (n,):
            raise DataError("labels must align with feature rows")
        if not np.all((self.labels == 0) | (self.labels == 1)):
            raise DataError("labels must be 0/1")
        if self.time_values is not None and self.time_values.shape != (n,):
            raise DataError("time column must align with feature rows")
        if self.missing_mask is not None and self.missing_mask.shape != self.features.shape:
            raise DataError("missing mask must shape-match features")
        finite = np.isfinite(self.features)
        if self.missing_mask is not None:
            finite |= self.missing_mask
        if not finite.all():
            raise DataError("non-finite features outside the missing mask")

    @property
    def n_rows(self) -> int:
        return self.features.shape[0]

    def take(self, idx: np.ndarray) -> "Dataset":
        return Dataset(
            features=self.features[idx],
            labels=self.labels[idx],
            feature_names=self.feature_names,
            time_values=None if self.time_values is None else self.time_values[idx],
            missing_mask=None if self.missing_mask is None else self.missing_mask[idx],
        )


def load_csv(path, label: str = "label", time: str | None = None, ignore=()) -> Dataset:
    """Read a headered CSV into a Dataset.

    One pass over the raw bytes counts the lines and looks for an empty cell
    (two separators in a row, carriage returns aside). A file without one goes
    through numpy's C parser, which must then give one row per line with as
    many cells as the header, every feature cell a finite number, every time
    cell a number and every label ``0`` or ``1``; columns outside the
    features, label and time are not parsed. A file with an empty cell, and
    any file the C parser rejects (an unparseable or non-finite cell, a
    ragged or blank row, a quoted cell spanning lines, a whitespace-only or
    quoted empty cell), is read by the row scanner, ``_scan_csv``: empty
    feature cells become NaN with the missing mask set, and anything else
    raises DataError with row/column coordinates.
    """
    n_lines, has_empty = _survey(path)
    if has_empty or n_lines < 2:
        return _scan_csv(path, label, time, ignore)
    with open(path, newline="") as fh:
        header, cols = _read_header(fh, path, label, time, ignore)
        table = _parse_bulk(fh, header, cols)
    if table is None or table.shape != (n_lines - 1, len(header)):
        return _scan_csv(path, label, time, ignore)
    features = table[:, [j for j, _ in cols.features]]
    if not np.isfinite(features).all():
        return _scan_csv(path, label, time, ignore)
    return Dataset(
        features=features,
        labels=table[:, cols.label].copy(),
        feature_names=[name for _, name in cols.features],
        time_values=None if cols.time is None else table[:, cols.time].copy(),
        missing_mask=np.zeros(features.shape, dtype=bool),
    )


@dataclass(frozen=True)
class _Columns:
    """Header positions: (index, name) of each feature, label and time index."""

    features: list[tuple[int, str]]
    label: int
    time: int | None


def _read_header(fh, path, label, time, ignore) -> tuple[list[str], _Columns]:
    try:
        header = next(csv.reader(fh))
    except StopIteration:
        raise DataError(f"{path}: empty file") from None
    if label not in header:
        raise DataError(f"{path}: missing label column {label!r}")
    if time is not None and time not in header:
        raise DataError(f"{path}: missing time column {time!r}")
    skip = set(ignore) | {label} | ({time} if time else set())
    return header, _Columns(
        features=[(j, name) for j, name in enumerate(header) if name not in skip],
        label=header.index(label),
        time=header.index(time) if time else None,
    )


_NEWLINE_TO_COMMA = bytes.maketrans(b"\n", b",")


def _survey(path) -> tuple[int, bool]:
    """Physical lines in the file (a last line without a newline included),
    and whether any cell may be empty: once carriage returns are dropped and
    newlines read as commas, two commas in a row. Blank lines and commas
    inside quotes count too; they only send the file to the row scanner.
    Reads 64 KiB at a time, so that its copies stay small."""
    lines, has_empty, prev = 0, False, b""
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            lines += chunk.count(b"\n")
            has_empty = has_empty or b",," in (prev + chunk).translate(_NEWLINE_TO_COMMA, b"\r")
            prev = chunk[-1:]
    return lines + (prev not in (b"", b"\n")), has_empty


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
    a text column there still parses."""
    used = {j for j, _ in cols.features} | {cols.label, cols.time}
    converters = {j: _unused_cell for j in range(len(header)) if j not in used}
    converters[cols.label] = _label_cell
    try:
        return np.loadtxt(fh, delimiter=",", quotechar='"', comments=None, ndmin=2,
                          dtype=np.float64, converters=converters)
    except ValueError:
        return None


def _scan_csv(path, label: str = "label", time: str | None = None, ignore=()) -> Dataset:
    """Read a CSV one cell at a time; the reader for every file the C parser
    cannot take, and the one that sets the missing mask and names the first
    bad cell in row-major order."""
    with open(path, newline="") as fh:
        header, cols = _read_header(fh, path, label, time, ignore)
        rows = list(csv.reader(fh))
    n = len(rows)
    features = np.zeros((n, len(cols.features)))  # cells not reached stay finite
    mask = np.zeros((n, len(cols.features)), dtype=bool)
    labels = np.empty(n)
    times = np.empty(n) if cols.time is not None else None

    def check_finite():
        # Non-finite values are found in bulk, after the cells are parsed.
        bad = np.flatnonzero(~(np.isfinite(features) | mask))
        if bad.size:
            i, k = divmod(int(bad[0]), features.shape[1])
            j, name = cols.features[k]
            raise DataError(f"{path}: row {i + 2}, column {name!r}: non-finite value {rows[i][j].strip()!r}") from None

    try:
        for i, row in enumerate(rows):
            if len(row) != len(header):
                raise DataError(f"{path}: row {i + 2} has {len(row)} cells, expected {len(header)}")
            for k, (j, name) in enumerate(cols.features):
                cell = row[j].strip()
                if cell == "":
                    features[i, k] = np.nan
                    mask[i, k] = True
                    continue
                try:
                    features[i, k] = float(cell)
                except ValueError:
                    raise DataError(f"{path}: row {i + 2}, column {name!r}: cannot parse {cell!r}") from None
            try:
                labels[i] = _label_cell(row[cols.label])
            except ValueError as exc:
                raise DataError(f"{path}: row {i + 2}, column {label!r}: {exc}") from None
            if times is not None:
                try:
                    times[i] = float(row[cols.time].strip())
                except ValueError:
                    raise DataError(f"{path}: row {i + 2}, column {time!r}: cannot parse time cell") from None
    except DataError:
        check_finite()  # a non-finite cell before the bad one is the first bad cell
        raise
    check_finite()
    return Dataset(
        features=features,
        labels=labels,
        feature_names=[name for _, name in cols.features],
        time_values=times,
        missing_mask=mask,
    )


def write_csv(path, ds: Dataset, label: str = "label"):
    """Write a Dataset as CSV, rows formatted and written one at a time.

    The header is a ``csv.writer`` row. Each body row is the ``repr`` of
    every feature value (an empty cell where the missing mask is set), then
    the label as ``0`` or ``1``, joined by commas and ended by ``\\r\\n``:
    the bytes ``csv.writer`` gives for these cells, which never need quoting.
    """
    holes = np.zeros(ds.n_rows, dtype=bool) if ds.missing_mask is None else ds.missing_mask.any(axis=1)
    labels = ["1" if y else "0" for y in ds.labels.tolist()]
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(ds.feature_names + [label])
        for i, row in enumerate(ds.features):
            cells = list(map(repr, row.tolist()))
            if holes[i]:
                for j in np.flatnonzero(ds.missing_mask[i]):
                    cells[j] = ""
            cells.append(labels[i])
            fh.write(",".join(cells) + "\r\n")


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
