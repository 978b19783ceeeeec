"""B-spline basis evaluation over uniform knot vectors.

On a uniform grid with step h every degree-p basis function is one
piecewise polynomial shifted cell by cell. ``build_knots`` derives its p+1
per-cell segments once, symbolically on the unit cell, from the Cox-de Boor
recursion

    N_{i,0}(u) = 1 on [u_i, u_{i+1}) else 0
    N_{i,p}(u) = (u - u_i)/(u_{i+p} - u_i) * N_{i,p-1}(u)
               + (u_{i+p+1} - u)/(u_{i+p+1} - u_{i+1}) * N_{i+1,p-1}(u)

and ``basis_matrix`` evaluates the basis, and in training its derivative
too, from one cell lookup per point. Cells are half-open except that the
cell ending at the right edge of the interior domain is closed there, so
the partition of unity holds on the full closed domain.

Each point's row depends on that point alone, so ``basis_matrix`` works in
blocks of ``BASIS_BLOCK_POINTS`` points that fit in cache, and gives the
bits one pass over all points would. A point beyond the knot span, however
far (up to the largest float), takes basis and derivative 0 without a
floating-point warning.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Points per block of ``basis_matrix``. At n_basis 8 (grid 5, degree 3) a
# block's rows are 0.5 MiB per output table, so the p+1 passes over them
# stay in a 2 MiB L2. Measured on a 2-core Xeon host (2 MiB L2 per core,
# numpy 2.4.6), basis plus derivative of 131,072 points (a 4,096-row batch
# of 32 inputs), medians of 15: blocks of 2,048 / 4,096 / 8,192 / 16,384 /
# 32,768 points took 33.8 / 27.6 / 25.6 / 25.3 / 28.4 ms at grid 5 and
# 29.9 / 24.9 / 24.3 / 26.5 / 28.5 ms at grid 10, against 37.7 and 37.9 ms
# for the whole batch in one pass. The block is a point count, not a byte
# budget: at grid 96 (n_basis 99) a 0.5 MiB budget (662 points) took 161 ms
# against 110 ms at 8,192 points, as the per-block calls add up. Both are
# slower there than one pass (92 ms), whose 104 MB outputs come zeroed from
# the allocator; no configuration of the paper's grid search (grids 5 and
# 10) comes near it.
BASIS_BLOCK_POINTS = 8_192


@dataclass(frozen=True)
class KnotVector:
    """Uniform knots u_0..u_m with degree p, interior domain [a, b] and the
    per-cell polynomial tables of the basis; built by ``build_knots``.

    A grid of ``grid_size`` intervals over [a, b], extended ``degree`` knots
    beyond each end, carries ``grid_size + degree`` basis functions.
    ``segments[r]`` holds the ascending coefficients, in the position x in
    [0, 1) inside a cell, of the basis r cells to the left of that cell, and
    ``dsegments[r]`` those of its derivative in u.
    """

    knots: np.ndarray
    degree: int
    domain: tuple[float, float]
    step: float
    segments: np.ndarray  # (p+1, p+1)
    dsegments: np.ndarray  # (p+1, max(p, 1))

    @property
    def n_basis(self) -> int:
        return self.knots.size - 1 - self.degree

    @property
    def grid_size(self) -> int:
        return self.knots.size - 1 - 2 * self.degree


def _cell_segments(degree: int) -> np.ndarray:
    """Unit-cell segments: segment r of degree k satisfies

        S[k][r](x) = ((r + x)/k) S[k-1][r](x) + ((k + 1 - r - x)/k) S[k-1][r-1](x)
    """
    segs = [np.array([1.0])]
    for k in range(1, degree + 1):
        prev, segs = segs, []
        for r in range(k + 1):
            c = np.zeros(k + 1)
            if r < k:
                c[: k] += r * prev[r] / k
                c[1 : k + 1] += prev[r] / k
            if r >= 1:
                c[: k] += (k + 1 - r) * prev[r - 1] / k
                c[1 : k + 1] -= prev[r - 1] / k
            segs.append(c)
    return np.vstack(segs)


def build_knots(grid_size: int, degree: int, domain: tuple[float, float] = (-1.0, 1.0)) -> KnotVector:
    """Uniform knots over [a, b] extended ``degree`` steps beyond each end.

    Raises ValueError unless the knots come out finite and strictly
    increasing with a step whose inverse is finite, which a range too wide
    or too narrow for float64 at this grid breaks.
    """
    a, b = float(domain[0]), float(domain[1])
    if grid_size < 1:
        raise ValueError("grid_size must be >= 1")
    if degree < 0:
        raise ValueError("degree must be >= 0")
    if a >= b:
        raise ValueError(f"invalid range: [{a}, {b}]")
    h = (b - a) / grid_size
    segments = _cell_segments(degree)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        knots = a + h * np.arange(-degree, grid_size + degree + 1, dtype=np.float64)
        step = float((knots[-1] - knots[0]) / (knots.size - 1))
        dsegments = segments[:, 1:] * np.arange(1, degree + 1) / step if degree else np.zeros((1, 1))
    if not (np.all(np.isfinite(knots)) and np.all(np.diff(knots) > 0.0)
            and math.isfinite(1.0 / step) and np.all(np.isfinite(dsegments))):
        raise ValueError(f"range [{a!r}, {b!r}] at grid_size {grid_size}, degree {degree} gives knots that are "
                         "not finite and strictly increasing, or a step whose inverse overflows")
    # read the domain back off the array so u == b comparisons stay exact
    domain = (float(knots[degree]), float(knots[grid_size + degree]))
    return KnotVector(knots, degree, domain, step, segments, dsegments)


def basis_matrix(u, kv: KnotVector, with_derivative: bool = False):
    """All N_{i,p} at each point: shape (len(u), grid_size + degree).

    ``with_derivative=True`` returns (basis, derivative), both from one cell
    lookup, as training needs both.

    Point n in cell c has non-zero values only at basis c - r for r = 0..p
    (B-spline locality), so each offset r is one Horner pass over the
    points, added into zeroed outputs at flat indices. An offset whose basis
    index falls outside 0..n_basis-1 (a point near or beyond the ends of the
    knot span) is clipped to the first index of its own row and carries 0,
    so no value is gathered through a mask. No point reads another, so the
    points go ``BASIS_BLOCK_POINTS`` at a time, each block zeroing and
    filling its own rows of the outputs while they sit in cache.
    """
    u = np.asarray(u, dtype=np.float64).ravel()
    tables = [(kv.segments, True)] + ([(kv.dsegments, False)] if with_derivative else [])
    outs = [np.empty((u.size, kv.n_basis)) for _ in tables]
    for lo in range(0, u.size, BASIS_BLOCK_POINTS):
        hi = lo + BASIS_BLOCK_POINTS
        _fill_block(u[lo:hi], kv, tables, [out[lo:hi] for out in outs])
    return tuple(outs) if with_derivative else outs[0]


def _fill_block(u, kv: KnotVector, tables, outs):
    """Write the rows of ``basis_matrix`` for the points ``u`` into ``outs``,
    one (points, n_basis) view per table of ``tables``."""
    p, nb = kv.degree, kv.n_basis
    with np.errstate(over="ignore"):  # a far point's s may overflow to +-inf
        s = (u - kv.knots[0]) / kv.step
    # a point beyond the knot span by more than one step has no non-zero
    # basis; clipping it to one step out keeps floor(s) inside int64 and
    # every offset of the point out of span
    np.clip(s, -1.0, kv.knots.size, out=s)
    if p <= 1:
        # the basis (p = 0) or its derivative (p = 1) jumps at every knot; a
        # point on a knot takes the cell to its right, however s rounds
        cell = np.searchsorted(kv.knots, u, side="right") - 1
    else:
        cell = np.floor(s).astype(np.int64)
    at_b = u == kv.domain[1]
    if at_b.any():
        # the right domain edge belongs to the cell that ends there
        cell[at_b] = p + kv.grid_size - 1
    frac = s - cell
    del s
    # only points in the first p or beyond the last cells lose offsets
    edge = np.flatnonzero((cell < p) | (cell >= nb))
    edge_cell = cell[edge]
    base = np.arange(0, u.size * nb, nb)
    base += cell  # flat index of offset 0, basis c
    del cell
    for out in outs:
        out[...] = 0.0
    for r in range(p + 1):
        idx = base - r
        invalid = edge[(edge_cell < r) | (edge_cell >= nb + r)]
        idx[invalid] = invalid * nb  # clipped into the point's own row; adds 0
        for out, (coeffs, clip) in zip(outs, tables):
            c = coeffs[r]
            v = np.full(frac.shape, c[-1])
            for a in c[-2::-1]:
                v *= frac
                v += a
            if clip:
                np.maximum(v, 0.0, out=v)
            v[invalid] = 0.0
            np.add.at(out.reshape(-1), idx, v)


def basis_derivative_matrix(u, kv: KnotVector) -> np.ndarray:
    """All dN_{i,p}/du: the derivative half of ``basis_matrix``."""
    return basis_matrix(u, kv, with_derivative=True)[1]
