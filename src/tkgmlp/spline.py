"""B-spline basis evaluation over uniform knot vectors.

The basis is computed by the Cox-de Boor recursion,

    N_{i,0}(u) = 1 on [u_i, u_{i+1}) else 0
    N_{i,p}(u) = (u - u_i)/(u_{i+p} - u_i) * N_{i,p-1}(u)
               + (u_{i+p+1} - u)/(u_{i+p+1} - u_{i+1}) * N_{i+1,p-1}(u)

with the 0/0 convention that a term with zero denominator contributes 0.
Degree-0 indicators are half-open except that the interval ending at the
right edge of the interior domain is closed there, so the partition of
unity holds on the full closed domain.

Uniform grids skip the recursion: ``_CellPolys`` evaluates the basis, and
in training its derivative too, from one cell lookup per point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class KnotVector:
    """Non-decreasing knots u_0..u_m with degree p and interior domain [a, b].

    A uniform grid of ``grid_size`` intervals over [a, b], extended ``degree``
    knots beyond each end, carries ``grid_size + degree`` basis functions.
    """

    knots: np.ndarray
    degree: int
    domain: tuple[float, float]

    def __post_init__(self):
        knots = np.asarray(self.knots, dtype=np.float64)
        object.__setattr__(self, "knots", knots)
        if knots.ndim != 1 or knots.size < 2:
            raise ValueError("knot vector needs at least 2 knots")
        if np.any(np.diff(knots) < 0.0):
            raise ValueError("knots must be non-decreasing")
        if self.degree < 0:
            raise ValueError("degree must be >= 0")
        if self.n_basis < 1:
            raise ValueError("too few knots for this degree")
        # uniform grids take a per-cell polynomial fast path (see _CellPolys)
        diffs = np.diff(knots)
        h = float((knots[-1] - knots[0]) / (knots.size - 1))
        uniform = h > 0.0 and np.allclose(diffs, h, rtol=1e-12, atol=0.0)
        polys = _CellPolys(self.degree, h) if uniform and self.degree >= 1 else None
        object.__setattr__(self, "_h", h)
        object.__setattr__(self, "_polys", polys)

    @property
    def n_basis(self) -> int:
        return self.knots.size - 1 - self.degree

    @property
    def grid_size(self) -> int:
        return self.knots.size - 1 - 2 * self.degree


def build_knots(grid_size: int, degree: int, domain: tuple[float, float] = (-1.0, 1.0)) -> KnotVector:
    """Uniform knots over [a, b] extended ``degree`` steps beyond each end."""
    a, b = float(domain[0]), float(domain[1])
    if grid_size < 1:
        raise ValueError("grid_size must be >= 1")
    if a >= b:
        raise ValueError(f"invalid range: [{a}, {b}]")
    h = (b - a) / grid_size
    knots = a + h * np.arange(-degree, grid_size + degree + 1, dtype=np.float64)
    # read the domain back off the array so u == b comparisons stay exact
    return KnotVector(knots=knots, degree=degree, domain=(float(knots[degree]), float(knots[grid_size + degree])))


class _CellPolys:
    """Per-cell polynomial segments of the uniform-grid basis functions.

    On a uniform grid every basis function is the same piecewise polynomial
    shifted cell by cell, so the recursion only has to run once, symbolically
    per unit cell: segment r of degree k satisfies

        S[k][r](x) = ((r + x)/k) S[k-1][r](x) + ((k + 1 - r - x)/k) S[k-1][r-1](x)

    Evaluation then is one cell lookup plus p+1 Horner steps per point and
    offset, instead of a full recursion over the whole knot vector; basis
    and derivative share the lookup.
    """

    def __init__(self, degree: int, h: float):
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
        self.degree = degree
        self.h = h
        self.segments = np.vstack(segs)  # (p+1, p+1), ascending coefficients
        self.dsegments = self.segments[:, 1:] * np.arange(1, degree + 1) / h

    def evaluate(self, u: np.ndarray, kv: KnotVector, derivative: bool) -> list[np.ndarray]:
        """[basis] or [basis, derivative] matrices at ``u``, from one cell lookup.

        Point n in cell c has non-zero values only at basis c - r for
        r = 0..p (B-spline locality), so each offset r is one Horner pass
        over every point, added into zeroed outputs at flat indices. An
        offset whose basis index falls outside 0..n_basis-1 (a point near or
        beyond the ends of the knot span) is clipped to the first index of
        its own row and carries 0, so no value is gathered through a mask.
        """
        p, nb = self.degree, kv.n_basis
        s = (u - kv.knots[0]) / self.h
        if p == 1:
            # the derivative jumps at every knot; a point on a knot takes the
            # cell to its right, as the recursion does, however s rounds
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
        tables = [(self.segments, True)] + ([(self.dsegments, False)] if derivative else [])
        outs = [np.zeros((u.size, nb)) for _ in tables]
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
        return outs


def _degree0(u: np.ndarray, kv: KnotVector) -> np.ndarray:
    t = kv.knots
    ucol = u[:, None]
    ind = ((ucol >= t[:-1]) & (ucol < t[1:])).astype(np.float64)
    # points sitting exactly on the right domain edge belong to the interval
    # that ends there, otherwise the basis vanishes at b
    b = kv.domain[1]
    ends_at_b = np.flatnonzero(t[1:] == b)
    if ends_at_b.size:
        at_b = u == b
        if at_b.any():
            ind[at_b] = 0.0
            ind[at_b, ends_at_b[-1]] = 1.0
    return ind


def _elevate(basis: np.ndarray, u: np.ndarray, t: np.ndarray, k: int) -> np.ndarray:
    # basis holds degree k-1 values; returns degree k
    ucol = u[:, None]
    den_l = t[k:-1] - t[: -(k + 1)]
    den_r = t[k + 1 :] - t[1:-k]
    left = np.where(den_l > 0.0, (ucol - t[: -(k + 1)]) / np.where(den_l > 0.0, den_l, 1.0), 0.0)
    right = np.where(den_r > 0.0, (t[k + 1 :] - ucol) / np.where(den_r > 0.0, den_r, 1.0), 0.0)
    return left * basis[:, :-1] + right * basis[:, 1:]


def _recursion_basis_matrix(u: np.ndarray, kv: KnotVector) -> np.ndarray:
    basis = _degree0(u, kv)
    for k in range(1, kv.degree + 1):
        basis = _elevate(basis, u, kv.knots, k)
    return basis


def basis_matrix(u, kv: KnotVector, with_derivative: bool = False):
    """All N_{i,p} at each point: shape (len(u), grid_size + degree).

    ``with_derivative=True`` returns (basis, derivative), both taken from one
    cell lookup on uniform grids, as training needs both.
    """
    u = np.asarray(u, dtype=np.float64).ravel()
    if kv._polys is not None:
        outs = kv._polys.evaluate(u, kv, with_derivative)
        return tuple(outs) if with_derivative else outs[0]
    basis = _recursion_basis_matrix(u, kv)
    return (basis, basis_derivative_matrix(u, kv)) if with_derivative else basis


def basis_derivative_matrix(u, kv: KnotVector) -> np.ndarray:
    """All dN_{i,p}/du via p/(u_{i+p}-u_i) N_{i,p-1} - p/(u_{i+p+1}-u_{i+1}) N_{i+1,p-1}."""
    u = np.asarray(u, dtype=np.float64).ravel()
    p, t = kv.degree, kv.knots
    if p == 0:
        return np.zeros((u.size, kv.n_basis))
    if kv._polys is not None:
        return kv._polys.evaluate(u, kv, derivative=True)[1]
    lower = _degree0(u, kv)
    for k in range(1, p):
        lower = _elevate(lower, u, t, k)
    den_l = t[p:-1] - t[: -(p + 1)]
    den_r = t[p + 1 :] - t[1:-p]
    left = np.where(den_l > 0.0, lower[:, :-1] / np.where(den_l > 0.0, den_l, 1.0), 0.0)
    right = np.where(den_r > 0.0, lower[:, 1:] / np.where(den_r > 0.0, den_r, 1.0), 0.0)
    return p * (left - right)
