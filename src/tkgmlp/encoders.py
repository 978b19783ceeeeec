"""Numerical feature encoding operators over equal-frequency bins.

For a feature split into n bins by boundaries b_0 < ... < b_n:

    Quantile(x) = i/n                                   (bin index only)
    QLE(x)      = i/n + (1/n) (x - b_i) / (b_{i+1} - b_i)
    PLE(x)      = [e_1..e_n],  e_i = 0 if x < b_i, 1 if x >= b_{i+1},
                                     else (x - b_i)/(b_{i+1} - b_i)

plus the per-row centered log ratio CLR(x_j) = ln(x_j / geometric_mean(x))
and the plain standardize / one-hot baselines. Out-of-range inputs clamp
(QLE to {0,1}, PLE to all-0/all-1, Quantile to {0, (n-1)/n}).

Fitting always happens on training data only; `EncoderSpec` carries every
fitted statistic so test-time encoding is reproducible bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

ENCODER_KINDS = ("qle", "ple", "quantile", "clr", "standardize")
DEFAULT_N_BINS = 64


class DegenerateFeatureError(ValueError):
    """All training values identical, no bins can be formed."""


class DomainError(ValueError):
    """Input outside the operator's domain (CLR needs positive components)."""


@dataclass(frozen=True)
class BinSpec:
    """Strictly increasing bin boundaries b_0 < ... < b_n for one feature."""

    boundaries: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.boundaries, dtype=np.float64)
        object.__setattr__(self, "boundaries", b)
        if b.ndim != 1 or b.size < 2:
            raise ValueError("need at least 2 boundaries")
        if np.any(b[1:] <= b[:-1]):
            raise ValueError("boundaries must be strictly increasing")

    @property
    def n(self) -> int:
        return self.boundaries.size - 1


def fit_bins(train_values, n_bins: int) -> BinSpec:
    """Equal-frequency boundaries at quantiles k/n_bins, duplicates merged.

    Quantiles use linear interpolation between order statistics; b_0 and b_n
    are the observed min/max. Merging duplicate boundaries reduces the
    effective bin count on tie-heavy features. When max - min overflows, the
    quantiles are taken of the halved values and doubled, which is exact at
    that magnitude.
    """
    if n_bins < 1:
        raise ValueError("n_bins must be >= 1")
    values = np.asarray(train_values, dtype=np.float64)
    values = values[np.isfinite(values)]
    if values.size < 2 or np.all(values == values[0]):
        raise DegenerateFeatureError("need at least 2 distinct finite values")
    qs = np.arange(n_bins + 1) / n_bins
    with np.errstate(over="ignore"):
        wide = np.isinf(values.max() - values.min())
    if wide:
        boundaries = 2.0 * np.quantile(0.5 * values, qs, method="linear")
    else:
        boundaries = np.quantile(values, qs, method="linear")
    boundaries[0] = values.min()
    boundaries[-1] = values.max()
    return BinSpec(np.unique(boundaries))


def _bin_index(x: np.ndarray, spec: BinSpec) -> np.ndarray:
    b = spec.boundaries
    return np.clip(np.searchsorted(b, x, side="right") - 1, 0, spec.n - 1)


def _bin_fraction(x, lo, hi):
    """(x - lo) / (hi - lo) with x first clipped into its bin [lo, hi].

    Every quotient then lies in [0, 1], so a point outside its bin is never
    divided and a subnormal width cannot overflow the quotient. Where the
    width itself overflows (bounds of opposite sign beyond about 9e307 in
    magnitude), all three values are halved first, which leaves the quotient
    as it is. Inside a bin of finite width the bits are those of the plain
    formula."""
    with np.errstate(over="ignore"):
        width = hi - lo
    wide = np.isinf(width)
    if wide.any():
        half = np.where(wide, 0.5, 1.0)
        x, lo, hi = x * half, lo * half, hi * half
        width = hi - lo
    out = np.maximum(x, lo)
    np.minimum(out, hi, out=out)
    out -= lo
    out /= width
    return out


def qle_encode(x, spec: BinSpec):
    """Quantile linear encoding into [0, 1]; clamps outside the fitted range."""
    x = np.asarray(x, dtype=np.float64)
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    b = spec.boundaries
    n = spec.n
    i = _bin_index(x, spec)
    out = np.clip(i / n + _bin_fraction(x, b[i], b[i + 1]) / n, 0.0, 1.0)
    return float(out[0]) if scalar else out


def quantile_encode(x, spec: BinSpec):
    """Bin index over n: i/n, clamped to [0, (n-1)/n] outside the range."""
    x = np.asarray(x, dtype=np.float64)
    scalar = x.ndim == 0
    i = _bin_index(np.atleast_1d(x), spec)
    out = i / spec.n
    return float(out[0]) if scalar else out


def ple_encode(x, spec: BinSpec) -> np.ndarray:
    """Per-bin saturating linear components, shape (..., n)."""
    x = np.asarray(x, dtype=np.float64)
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    b = spec.boundaries
    out = _bin_fraction(x[..., None], b[:-1], b[1:])
    return out[0] if scalar else out


def clr_encode(row) -> np.ndarray:
    """Centered log ratio of a strictly positive row; components sum to 0."""
    row = np.asarray(row, dtype=np.float64)
    if np.any(row <= 0.0):
        raise DomainError("CLR requires strictly positive components")
    logs = np.log(row)
    return logs - logs.mean(axis=-1, keepdims=True)


@dataclass(frozen=True)
class StandardizeSpec:
    mean: float
    std: float  # 0 means degenerate: feature passes through as zeros


def fit_standardize(train_values) -> StandardizeSpec:
    values = np.asarray(train_values, dtype=np.float64)
    values = values[np.isfinite(values)]
    return StandardizeSpec(mean=float(values.mean()), std=float(values.std()))


def standardize(x, spec: StandardizeSpec):
    x = np.asarray(x, dtype=np.float64)
    if spec.std == 0.0:
        return np.zeros_like(x)
    return (x - spec.mean) / spec.std


@dataclass(frozen=True)
class OneHotSpec:
    """Train-observed categories plus one trailing unknown slot."""

    categories: np.ndarray

    @property
    def width(self) -> int:
        return self.categories.size + 1


def fit_one_hot(train_values) -> OneHotSpec:
    return OneHotSpec(categories=np.unique(np.asarray(train_values, dtype=np.float64)))


def one_hot_encode(x, spec: OneHotSpec) -> np.ndarray:
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    out = np.zeros((x.size, spec.width))
    idx = np.searchsorted(spec.categories, x)
    idx = np.clip(idx, 0, spec.categories.size - 1)
    known = spec.categories[idx] == x
    out[np.arange(x.size), np.where(known, idx, spec.categories.size)] = 1.0
    return out


@dataclass
class EncoderSpec:
    """Fitted feature-encoding pipeline for a whole feature matrix.

    Missing values are imputed with the train median of each column before
    encoding. Numeric columns get the configured operator; columns listed in
    ``categorical`` get one-hot with an unknown slot. Degenerate (constant)
    numeric columns pass through as zeros.
    """

    kind: str
    n_bins: int
    feature_names: list[str]
    medians: np.ndarray
    categorical: dict[int, OneHotSpec] = field(default_factory=dict)
    bins: dict[int, BinSpec] = field(default_factory=dict)
    standardizers: dict[int, StandardizeSpec] = field(default_factory=dict)
    clr_shifts: np.ndarray | None = None
    degenerate: set[int] = field(default_factory=set)

    @classmethod
    def fit(
        cls,
        features: np.ndarray,
        feature_names: list[str] | None = None,
        kind: str = "qle",
        n_bins: int = DEFAULT_N_BINS,
        categorical_columns=(),
    ) -> "EncoderSpec":
        if kind not in ENCODER_KINDS:
            raise ValueError(f"unknown encoder kind {kind!r}, expected one of {ENCODER_KINDS}")
        features = np.asarray(features, dtype=np.float64)
        n_cols = features.shape[1]
        if feature_names is None:
            feature_names = [f"x{j}" for j in range(n_cols)]
        medians = np.zeros(n_cols)
        spec = cls(kind=kind, n_bins=n_bins, feature_names=list(feature_names), medians=medians)
        cat = set(categorical_columns)
        numeric = [j for j in range(n_cols) if j not in cat]
        for j in range(n_cols):
            col = features[:, j]
            finite = col[np.isfinite(col)]
            medians[j] = float(np.median(finite)) if finite.size else 0.0
        for j in sorted(cat):
            col = spec._imputed_column(features, j)
            spec.categorical[j] = fit_one_hot(col)
        if kind == "clr":
            shifts = np.zeros(n_cols)
            for j in numeric:
                col = spec._imputed_column(features, j)
                low = col.min()
                if low <= 0.0:
                    shifts[j] = 1.0 - low
            spec.clr_shifts = shifts
        elif kind == "standardize":
            for j in numeric:
                spec.standardizers[j] = fit_standardize(spec._imputed_column(features, j))
        else:
            for j in numeric:
                col = spec._imputed_column(features, j)
                try:
                    spec.bins[j] = fit_bins(col, n_bins)
                except DegenerateFeatureError:
                    spec.degenerate.add(j)
        return spec

    def _imputed_column(self, features: np.ndarray, j: int) -> np.ndarray:
        col = np.array(features[:, j], dtype=np.float64)
        bad = ~np.isfinite(col)
        if bad.any():
            col[bad] = self.medians[j]
        return col

    @property
    def numeric_columns(self) -> list[int]:
        return [j for j in range(len(self.feature_names)) if j not in self.categorical]

    @property
    def output_names(self) -> list[str]:
        names: list[str] = []
        for j in self.numeric_columns:
            base = self.feature_names[j]
            if self.kind == "ple" and j in self.bins:
                names.extend(f"{base}_ple{k}" for k in range(self.bins[j].n))
            else:
                names.append(base)
        for j in sorted(self.categorical):
            base = self.feature_names[j]
            names.extend(f"{base}_cat{k}" for k in range(self.categorical[j].width))
        return names

    @property
    def output_dim(self) -> int:
        return len(self.output_names)

    def transform(self, features: np.ndarray, row_offset: int = 0) -> np.ndarray:
        """Encoded rows, one output row per input row.

        A CLR component that is not positive after its shift raises
        DomainError, and a non-finite output raises ValueError. Either names
        the first bad input cell in row-major order: its column, its value
        and its row, counted as ``data.load_csv`` counts rows (the header is
        row 1) when ``features[0]`` follows ``row_offset`` data rows.
        """
        features = np.asarray(features, dtype=np.float64)
        if features.shape[1] != len(self.feature_names):
            raise ValueError(
                f"expected {len(self.feature_names)} columns, got {features.shape[1]}"
            )
        blocks: list[np.ndarray] = []
        sources: list[int] = []  # input column of each output column
        numeric = self.numeric_columns
        if self.kind == "clr":
            cols = np.stack([self._imputed_column(features, j) for j in numeric], axis=1)
            shifted = cols + self.clr_shifts[numeric]
            bad = shifted <= 0.0
            if bad.any():
                i, k = np.argwhere(bad)[0]
                raise DomainError(f"{self._cell(features, i, numeric[k], row_offset)} is not positive "
                                  f"after the CLR shift {float(self.clr_shifts[numeric[k]])!r}")
            blocks.append(clr_encode(shifted))
            sources.extend(numeric)
        else:
            for j in numeric:
                col = self._imputed_column(features, j)
                if j in self.degenerate:
                    blocks.append(np.zeros((col.size, 1)))
                elif self.kind == "standardize":
                    blocks.append(standardize(col, self.standardizers[j])[:, None])
                elif self.kind == "qle":
                    blocks.append(qle_encode(col, self.bins[j])[:, None])
                elif self.kind == "quantile":
                    blocks.append(quantile_encode(col, self.bins[j])[:, None])
                elif self.kind == "ple":
                    blocks.append(ple_encode(col, self.bins[j]))
                sources.extend([j] * blocks[-1].shape[1])
        for j in sorted(self.categorical):
            blocks.append(one_hot_encode(self._imputed_column(features, j), self.categorical[j]))
            sources.extend([j] * blocks[-1].shape[1])
        out = np.concatenate(blocks, axis=1) if blocks else np.zeros((features.shape[0], 0))
        if not np.all(np.isfinite(out)):
            rows, cols = np.nonzero(~np.isfinite(out))
            i = rows[0]
            j = min(sources[c] for c in cols[rows == i])
            raise ValueError(f"encoder produced non-finite output from {self._cell(features, i, j, row_offset)}")
        return out

    def _cell(self, features: np.ndarray, i: int, j: int, row_offset: int) -> str:
        return f"row {row_offset + i + 2}, column {self.feature_names[j]!r}, value {float(features[i, j])!r}"

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "n_bins": self.n_bins,
            "feature_names": self.feature_names,
            "medians": self.medians.tolist(),
            "categorical": {str(j): s.categories.tolist() for j, s in self.categorical.items()},
            "bins": {str(j): s.boundaries.tolist() for j, s in self.bins.items()},
            "standardizers": {str(j): [s.mean, s.std] for j, s in self.standardizers.items()},
            "clr_shifts": None if self.clr_shifts is None else self.clr_shifts.tolist(),
            "degenerate": sorted(self.degenerate),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "EncoderSpec":
        spec = cls(
            kind=d["kind"],
            n_bins=d["n_bins"],
            feature_names=list(d["feature_names"]),
            medians=np.asarray(d["medians"], dtype=np.float64),
            clr_shifts=None if d["clr_shifts"] is None else np.asarray(d["clr_shifts"], dtype=np.float64),
            degenerate=set(d["degenerate"]),
        )
        spec.categorical = {int(j): OneHotSpec(np.asarray(v, dtype=np.float64)) for j, v in d["categorical"].items()}
        spec.bins = {int(j): BinSpec(np.asarray(v, dtype=np.float64)) for j, v in d["bins"].items()}
        spec.standardizers = {int(j): StandardizeSpec(mean=v[0], std=v[1]) for j, v in d["standardizers"].items()}
        return spec
