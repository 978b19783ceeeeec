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

PLE and the equal-frequency bins follow Gorishniy et al. (arXiv:2203.05556).
Credit tables run to tens of millions of rows, so the work per cell is kept
small:
- `EncoderSpec.fit` copies each column once and sorts it once. The median
  and the bin quantiles are read from the sorted copy, with the same bits
  as `np.median` and `np.quantile` on the column. The columns are copied
  `FIT_COLUMN_GROUP` (8) at a time, and within a group every other column
  is fitted on the lane (`nn_core.both`): on 200,000 x 32 rows at 64 QLE
  bins a fit took 147 ms on one lane and about 100 ms on two.
- `EncoderSpec.transform` writes every kind straight into one output array,
  `TRANSFORM_BLOCK_ROWS` (4,096) rows at a time, so its temporaries stay
  cache sized and its peak is the output plus one block. On 200,000 x 32
  rows at 64 QLE bins it took 0.35 s, against about 1.0 s when whole columns
  were encoded one by one and concatenated.
- A bin index is an exact search: a uniform grid of `GRID_CELLS_PER_BIN`
  cells a bin gives each key the count of boundaries below its cell, and a
  branchless binary search counts the rest (`_bin_index`). It equals
  `searchsorted` for every key, and took 0.08 s where `searchsorted` took
  0.46 s on the same 32 columns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from . import nn_core

ENCODER_KINDS = ("qle", "ple", "quantile", "clr", "standardize")
DEFAULT_N_BINS = 64
# The most bins a column may ask for, 64 times the default: a PLE column is
# that many output columns wide, and fitting takes n_bins + 1 quantiles.
MAX_N_BINS = 4_096

# Rows per block of EncoderSpec.transform; its docstring gives the sizing.
TRANSFORM_BLOCK_ROWS = 4_096

# Lookup grid cells per bin (see _BinGrid); _bin_index gives the sizing.
GRID_CELLS_PER_BIN = 16

# Columns that EncoderSpec.fit gathers together (see _column_groups).
FIT_COLUMN_GROUP = 8


class DegenerateFeatureError(ValueError):
    """All training values identical, no bins can be formed."""


class DomainError(ValueError):
    """Input outside the operator's domain (CLR needs positive components)."""


@dataclass(frozen=True)
class _BinGrid:
    """Lookup grid over the interior boundaries b_1 < ... < b_{n-1} of a BinSpec.

    A key x falls in cell ``_grid_cells``: (x - b_1) * scale, clipped to
    [0, top] and truncated; NaN falls in the top cell. Where b_{n-1} - b_1
    overflows, x and b_1 are halved before the difference. The map is
    monotone, so every interior boundary in an earlier cell than x's is <= x
    and every one in a later cell is > x. The scale takes b_{n-1} to
    top - 1 at most, so the top cell holds no boundary. ``start[c]`` counts
    the boundaries in the cells before c. ``probes`` holds, for
    step = 2^(m-1), ..., 2, 1, the boundaries from index step - 1 on, padded
    with NaN, which no key reaches; 2^m - 1 is at least the most boundaries
    one cell holds."""

    halve: bool
    origin: float
    scale: float
    top: int
    start: np.ndarray
    probes: tuple


def _grid_cells(x: np.ndarray, halve: bool, origin: float, scale: float, top: int) -> np.ndarray:
    with np.errstate(over="ignore"):
        if halve:
            t = np.multiply(x, 0.5)
            t -= origin
        else:
            t = np.subtract(x, origin)
        t *= scale
    np.fmin(t, top, out=t)  # NaN goes to the top cell
    np.fmax(t, 0.0, out=t)
    return t.astype(np.intp)


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

    @cached_property
    def _grid(self) -> _BinGrid | None:
        """The lookup grid of ``_bin_index``; None for a single bin. Derived
        from the boundaries, never serialized."""
        inner = self.boundaries[1:-1]
        if inner.size == 0:
            return None
        top = GRID_CELLS_PER_BIN * self.n
        lo, hi = inner[0], inner[-1]
        with np.errstate(over="ignore", divide="ignore"):
            halve = bool(np.isinf(hi - lo))
            origin = 0.5 * lo if halve else lo
            span = 0.5 * hi - origin if halve else hi - lo
            # Any positive finite scale keeps the search exact; a zero or
            # subnormal span gets the largest.
            scale = min((top - 1) / span, np.finfo(np.float64).max)
        cells = _grid_cells(inner, halve, origin, scale, top)
        counts = np.bincount(cells, minlength=top + 1)
        start = np.zeros(top + 1, dtype=np.intp)
        np.cumsum(counts[:-1], out=start[1:])
        steps = int(counts.max()).bit_length()
        padded = np.concatenate([inner, np.full(1 << steps, np.nan)])
        probes = tuple((1 << k, padded[(1 << k) - 1:]) for k in reversed(range(steps)))
        return _BinGrid(halve=halve, origin=origin, scale=scale, top=top, start=start, probes=probes)


def fit_bins(train_values, n_bins: int) -> BinSpec:
    """Equal-frequency boundaries at quantiles k/n_bins, duplicates merged.

    Quantiles use linear interpolation between order statistics; b_0 and b_n
    are the observed min/max. Merging duplicate boundaries reduces the
    effective bin count on tie-heavy features. When max - min overflows, the
    quantiles are taken of the halved values and doubled, which is exact at
    that magnitude.
    """
    values = np.asarray(train_values, dtype=np.float64)
    values = values[np.isfinite(values)]
    return _fit_sorted_bins(values, np.sort(values), n_bins)


def _fit_sorted_bins(values: np.ndarray, srt: np.ndarray, n_bins: int) -> BinSpec:
    """``fit_bins`` of the finite ``values``, given ``srt``, their sorted copy.

    ``np.quantile`` only reads order statistics, so on the sorted copy it
    gives the bits it gives on the values, in far less time. The one
    exception is a negative zero: a sort may put either zero first, so then
    the quantiles are taken of the values as they are."""
    if not 1 <= n_bins <= MAX_N_BINS:
        raise ValueError(f"n_bins must lie in [1, {MAX_N_BINS}], got {n_bins!r}")
    if srt.size < 2 or srt[0] == srt[-1]:
        raise DegenerateFeatureError("need at least 2 distinct finite values")
    if _has_negative_zero(srt):
        srt = values
    qs = np.arange(n_bins + 1) / n_bins
    lo, hi = values.min(), values.max()
    with np.errstate(over="ignore"):
        wide = np.isinf(hi - lo)
    if wide:
        boundaries = 2.0 * np.quantile(0.5 * srt, qs, method="linear")
    else:
        boundaries = np.quantile(srt, qs, method="linear")
    boundaries[0] = lo
    boundaries[-1] = hi
    return BinSpec(np.unique(boundaries))


def _has_negative_zero(srt: np.ndarray) -> bool:
    zeros = srt[np.searchsorted(srt, 0.0, "left"):np.searchsorted(srt, 0.0, "right")]
    return bool(np.signbit(zeros).any())


def _sorted_median(srt: np.ndarray, values: np.ndarray) -> float:
    """``np.median(values)`` given ``srt``, their sorted copy: the mean of the
    middle one or two order statistics, as ``np.median`` takes it; 0.0 when
    there are none. With a negative zero present, ``np.median`` itself."""
    m = srt.size
    if m == 0:
        return 0.0
    if _has_negative_zero(srt):
        return float(np.median(values))
    return float(np.mean(srt[(m - 1) // 2:m // 2 + 1]))


def _bin_index(x: np.ndarray, spec: BinSpec) -> np.ndarray:
    """``clip(searchsorted(b, x, "right") - 1, 0, n - 1)`` for every x, NaN
    and +-inf included: the number of interior boundaries b_1..b_{n-1} that
    are <= x (all of them for NaN).

    The key's grid cell gives the count below it (``_BinGrid``). A branchless
    binary search over the boundaries from there, m halving steps that each
    add ``step`` where the probed boundary is not greater than x, counts the
    rest. Each step is one vectorized pass, so the cost per key does not
    depend on how its neighbours are ordered, as ``searchsorted`` on unsorted
    keys does. A heavy-tailed column can crowd every boundary into one cell;
    the search then takes log2(n) steps and stays exact.

    Sizing: the 32 desk-tiny columns of 200,000 rows at 64 bins, in 4,096-row
    blocks (2-core Xeon, numpy 2.4.6), median of 5 runs. ``searchsorted``
    took 0.455 s. The branchless search in a single cell (5-6 steps) took
    0.221 s. A grid of 1 / 2 / 4 / 8 / 16 cells a bin took 0.126 / 0.094 /
    0.091 / 0.087 / 0.076 s, with at most 3 / 2 / 2 / 2 / 1 steps.
    """
    grid = spec._grid
    if grid is None:
        return np.zeros(np.shape(x), dtype=np.intp)
    r = grid.start[_grid_cells(x, grid.halve, grid.origin, grid.scale, grid.top)]
    for step, probe in grid.probes:
        hit = probe[r] <= x
        r += hit if step == 1 else hit * step
    return r


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


def _qle_into(x: np.ndarray, spec: BinSpec, out: np.ndarray) -> np.ndarray:
    b = spec.boundaries
    i = _bin_index(x, spec)
    frac = _bin_fraction(x, b[i], b[1:][i])
    frac /= spec.n
    frac += i / spec.n  # i/n + frac/n: IEEE addition commutes
    return np.clip(frac, 0.0, 1.0, out=out)


@lru_cache(maxsize=None)
def _staircase(n: int) -> np.ndarray:
    """Row i holds the PLE components of bins below bin i (1.0) and from bin
    i on (0.0), before bin i's own fraction is written. One read-only table
    per bin count, shared by every column, so a block's columns read one."""
    table = np.tri(n, k=-1)
    table.flags.writeable = False
    return table


def _ple_into(x: np.ndarray, spec: BinSpec, out: np.ndarray) -> np.ndarray:
    """PLE of the 1-D ``x`` into ``out`` (rows, n) by bin index: 1.0 below
    x's bin, 0.0 above it and the fraction in it. These are the bits of the
    per-bin formula, whose quotient is exactly 1.0 or 0.0 outside x's bin; a
    NaN key gives a NaN row, as the formula does."""
    b = spec.boundaries
    i = _bin_index(x, spec)
    out[...] = _staircase(spec.n)[i]
    out[np.arange(x.size), i] = _bin_fraction(x, b[i], b[1:][i])
    nan = np.isnan(x)
    if nan.any():
        out[nan] = np.nan
    return out


def qle_encode(x, spec: BinSpec):
    """Quantile linear encoding into [0, 1]; clamps outside the fitted range."""
    x = np.asarray(x, dtype=np.float64)
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    out = _qle_into(x, spec, np.empty(x.shape))
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
    out = np.empty(x.shape + (spec.n,))
    _ple_into(x.ravel(), spec, out.reshape(-1, spec.n))
    return out


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


# Beyond these magnitudes fit_standardize fits in a frame scaled by a power
# of two: a sum of squared deviations of values below 2**400 cannot overflow,
# nor can squared deviations among values above 2**-400 underflow, at any
# realistic row count.
_STANDARDIZE_FRAME = (2.0**-400, 2.0**400)


def fit_standardize(train_values) -> StandardizeSpec:
    """Mean and population std of the finite values.

    A column whose largest magnitude lies outside ``_STANDARDIZE_FRAME`` is
    scaled by a power of two that brings it near 1 and the results scaled
    back. Near 1e-300 the variance would underflow to a std of 0.0, and near
    1e308 the sum would overflow. Scaling by a power of two is exact, and
    every other column is fitted as it is, so its bits are the plain ones."""
    values = np.asarray(train_values, dtype=np.float64)
    values = values[np.isfinite(values)]
    top = float(np.abs(values).max()) if values.size else 0.0
    shift = 0
    if top > 0.0 and not _STANDARDIZE_FRAME[0] <= top <= _STANDARDIZE_FRAME[1]:
        shift = int(np.frexp(top)[1])
        values = np.ldexp(values, -shift)
    return StandardizeSpec(mean=float(np.ldexp(values.mean(), shift)),
                           std=float(np.ldexp(values.std(), shift)))


def standardize(x, spec: StandardizeSpec, out=None):
    """(x - mean) / std; zeros for a constant column. Where x - mean
    overflows, x, the mean and the std are halved first, which leaves the
    quotient as it is; everywhere else the bits are the plain formula's."""
    x = np.asarray(x, dtype=np.float64)
    if out is None:
        out = np.empty_like(x)
    if spec.std == 0.0:
        out[...] = 0.0
        return out
    with np.errstate(over="ignore"):
        np.subtract(x, spec.mean, out=out)
    far = np.isinf(out)
    np.divide(out, spec.std, out=out)
    if far.any():
        far &= np.isfinite(x)
        out[far] = (0.5 * x[far] - 0.5 * spec.mean) / (0.5 * spec.std)
    return out


@dataclass(frozen=True)
class OneHotSpec:
    """Train-observed categories plus one trailing unknown slot."""

    categories: np.ndarray

    @property
    def width(self) -> int:
        return self.categories.size + 1


def fit_one_hot(train_values) -> OneHotSpec:
    return OneHotSpec(categories=np.unique(np.asarray(train_values, dtype=np.float64)))


def one_hot_encode(x, spec: OneHotSpec, out=None) -> np.ndarray:
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    if out is None:
        out = np.empty((x.size, spec.width))
    out[...] = 0.0
    idx = np.searchsorted(spec.categories, x)
    idx = np.clip(idx, 0, spec.categories.size - 1)
    known = spec.categories[idx] == x
    out[np.arange(x.size), np.where(known, idx, spec.categories.size)] = 1.0
    return out


def _column_groups(features: np.ndarray):
    """Yield (first column, group) for each ``FIT_COLUMN_GROUP`` columns of
    ``features``, the group a contiguous (columns, rows) copy.

    Each group is gathered row block by row block, so that each cache line of
    a C-ordered table is read once per group instead of once per column. On
    200,000 x 32 rows this took 48 ms, against 158 ms for 32 strided
    ``features[:, j]`` copies."""
    n_rows, n_cols = features.shape
    for g in range(0, n_cols, FIT_COLUMN_GROUP):
        group = np.empty((min(FIT_COLUMN_GROUP, n_cols - g), n_rows))
        for lo in range(0, n_rows, TRANSFORM_BLOCK_ROWS):
            group[:, lo:lo + TRANSFORM_BLOCK_ROWS] = features[lo:lo + TRANSFORM_BLOCK_ROWS, g:g + FIT_COLUMN_GROUP].T
        yield g, group


def _fit_column(col: np.ndarray, kind: str, n_bins: int, categorical: bool):
    """(median, fitted statistic) of one contiguous column, which it imputes
    in place. The statistic is a OneHotSpec for a categorical column, the
    CLR shift, a StandardizeSpec, a BinSpec, or None for a degenerate binned
    column."""
    finite = np.isfinite(col)
    missing = not finite.all()
    values = col[finite] if missing else col
    srt = np.sort(values)
    median = _sorted_median(srt, values)
    if missing:
        col[~finite] = median
        at = np.searchsorted(srt, median)
        srt = np.insert(srt, at, np.full(col.size - srt.size, median))
    if categorical:
        return median, fit_one_hot(col)
    if kind == "clr":
        low = col.min()
        return median, 1.0 - low if low <= 0.0 else 0.0
    if kind == "standardize":
        return median, fit_standardize(col)
    try:
        return median, _fit_sorted_bins(col, srt, n_bins)
    except DegenerateFeatureError:
        return median, None


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
        """Fit every column from one contiguous copy of it and one sort.

        The median and the bin quantiles are order statistics, taken from the
        sorted finite values, into which the median's imputed copies are
        merged; they are the bits ``np.median`` and ``np.quantile`` give on
        the column.

        Within each group of ``_column_groups``, the odd columns are fitted
        on the lane and the even ones on the caller (``nn_core.both``, so
        below ``LANE_MIN_ROWS`` rows all on the caller). Each column's result
        is kept by its index and entered on the caller in column order, so
        the spec, and ``to_dict``, are those of one column loop. A column
        that raises stops its lane; the error of the lowest failing column
        is raised, as one loop raises it. On 200,000 x 32 rows, QLE at 64
        bins (2-core Xeon, numpy 2.4.6, one BLAS thread), a fit took 147 ms
        on one lane and about 100 ms on two."""
        if kind not in ENCODER_KINDS:
            raise ValueError(f"unknown encoder kind {kind!r}, expected one of {ENCODER_KINDS}")
        features = np.asarray(features, dtype=np.float64)
        n_rows, n_cols = features.shape
        if feature_names is None:
            feature_names = [f"x{j}" for j in range(n_cols)]
        spec = cls(kind=kind, n_bins=n_bins, feature_names=list(feature_names), medians=np.zeros(n_cols))
        cat = set(categorical_columns)
        if kind == "clr":
            spec.clr_shifts = np.zeros(n_cols)
        for g, group in _column_groups(features):
            results = [None] * group.shape[0]

            def fit_every_other(first):
                for i in range(first, group.shape[0], 2):
                    try:
                        results[i] = _fit_column(group[i], kind, n_bins, g + i in cat)
                    except Exception as exc:  # raised below, in column order
                        results[i] = exc
                        return

            nn_core.both(lambda: fit_every_other(1), lambda: fit_every_other(0), n_rows)
            for i, result in enumerate(results):
                if isinstance(result, Exception):
                    raise result
                j = g + i
                spec.medians[j], fitted = result
                if j in cat:
                    spec.categorical[j] = fitted
                elif kind == "clr":
                    spec.clr_shifts[j] = fitted
                elif kind == "standardize":
                    spec.standardizers[j] = fitted
                elif fitted is None:
                    spec.degenerate.add(j)
                else:
                    spec.bins[j] = fitted
        return spec

    @property
    def numeric_columns(self) -> list[int]:
        return [j for j in range(len(self.feature_names)) if j not in self.categorical]

    def _output_widths(self) -> list[tuple[int, int]]:
        """(input column, output width) for each encoded block, in output order."""
        widths = [(j, self.bins[j].n if self.kind == "ple" and j in self.bins else 1)
                  for j in self.numeric_columns]
        return widths + [(j, self.categorical[j].width) for j in sorted(self.categorical)]

    @property
    def output_names(self) -> list[str]:
        names: list[str] = []
        for j, width in self._output_widths():
            base = self.feature_names[j]
            if j in self.categorical:
                names.extend(f"{base}_cat{k}" for k in range(width))
            elif self.kind == "ple" and j in self.bins:
                names.extend(f"{base}_ple{k}" for k in range(width))
            else:
                names.append(base)
        return names

    @property
    def output_dim(self) -> int:
        return sum(width for _, width in self._output_widths())

    def transform(self, features: np.ndarray, row_offset: int = 0) -> np.ndarray:
        """Encoded rows, one output row per input row.

        Every kind is written straight into one output array,
        ``TRANSFORM_BLOCK_ROWS`` rows at a time: each block's columns are
        copied out together, imputed and encoded, so the temporaries stay
        cache sized and the peak is the output plus one block. Every row is
        encoded on its own, so the blocks give the bits of a whole-table
        transform. Sizing on a 2-core Xeon (2 MiB L2 per core, numpy 2.4.6),
        median of 5 calls:
        - 200,000 desk-tiny rows x 32 columns, QLE at 64 bins, in blocks of
          1,024 / 2,048 / 4,096 / 8,192 / 16,384 rows: 0.525 / 0.401 /
          0.352 / 0.369 / 0.382 s. Encoding whole columns one by one and
          concatenating them took about 1.0 s.
        - 20,000 of those rows, PLE at 64 bins (1,757 output columns), in
          blocks of 256 / 1,024 / 4,096 / 16,384 rows: 0.472 / 0.386 /
          0.375 / 0.410 s.

        A CLR component that is not positive after its shift raises
        DomainError, and a non-finite output raises ValueError; a DomainError
        anywhere comes first. Either names the first bad input cell in
        row-major order: its column, its value and its row, counted as
        ``data.load_csv`` counts rows (the header is row 1) when
        ``features[0]`` follows ``row_offset`` data rows.
        """
        features = np.asarray(features, dtype=np.float64)
        if features.shape[1] != len(self.feature_names):
            raise ValueError(
                f"expected {len(self.feature_names)} columns, got {features.shape[1]}"
            )
        widths = self._output_widths()
        out = np.empty((features.shape[0], sum(w for _, w in widths)))
        first_bad = None  # (row, column) of the first non-finite output
        for lo in range(0, features.shape[0], TRANSFORM_BLOCK_ROWS):
            block = features[lo:lo + TRANSFORM_BLOCK_ROWS]
            dest = out[lo:lo + TRANSFORM_BLOCK_ROWS]
            self._encode_block(block, dest, widths, row_offset + lo)
            if first_bad is None and not np.isfinite(dest).all():
                rows, cols = np.nonzero(~np.isfinite(dest))
                sources = np.repeat([j for j, _ in widths], [w for _, w in widths])
                first_bad = lo + rows[0], int(sources[cols[rows == rows[0]]].min())
        if first_bad is not None:
            raise ValueError(f"encoder produced non-finite output from {self._cell(features, *first_bad, row_offset)}")
        return out

    def _encode_block(self, block, dest, widths, row_offset: int) -> None:
        cols = block.T.copy()  # one contiguous row per input column
        missing = ~np.isfinite(cols)
        if missing.any():
            np.copyto(cols, self.medians[:, None], where=missing)
        c = 0
        numeric = self.numeric_columns
        if self.kind == "clr" and numeric:
            shifted = np.add(cols[numeric].T, self.clr_shifts[numeric], order="C")
            bad = shifted <= 0.0
            if bad.any():
                i, k = np.argwhere(bad)[0]
                raise DomainError(f"{self._cell(block, i, numeric[k], row_offset)} is not positive "
                                  f"after the CLR shift {float(self.clr_shifts[numeric[k]])!r}")
            c = len(numeric)
            dest[:, :c] = clr_encode(shifted)
            widths = widths[c:]
        for j, width in widths:
            x, to = cols[j], dest[:, c:c + width]
            c += width
            if j in self.categorical:
                one_hot_encode(x, self.categorical[j], out=to)
            elif j in self.degenerate:
                to[...] = 0.0
            elif self.kind == "standardize":
                standardize(x, self.standardizers[j], out=to[:, 0])
            elif self.kind == "qle":
                _qle_into(x, self.bins[j], to[:, 0])
            elif self.kind == "quantile":
                np.divide(_bin_index(x, self.bins[j]), self.bins[j].n, out=to[:, 0])
            else:
                _ple_into(x, self.bins[j], to)

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
