"""Atomic signed measures on the unit interval and the bounded-Lipschitz metric.

The central object is :class:`AtomicMeasure`, a finite signed combination of
point masses on [0, 1].  Distances between measures are taken in the dual
(bounded-Lipschitz) sense

    wk(mu, nu) = sup { |int g dmu - int g dnu| : Lip(g) <= 1, |g| <= 1 },

which is a norm on signed measures and agrees with the usual flat metric.
The supremum only involves the values of g at the atoms of the two measures,
so it is a finite linear program; on a line the pairwise Lipschitz
constraints reduce to adjacent differences.  ``row_norms`` merges a signed
atom table once and returns each row's norm, an L1 isotonic regression solved
by one heap pass in O(n log n), with closed forms for one-signed and balanced
rows.  ``wk_distance`` is its one-row case, and ``wk_distance_primal`` solves
the program's primal, a transport with unit-cost creation and deletion of
mass, as an independent cross-check.
"""

from __future__ import annotations

import heapq
import math

import numpy as np

__all__ = [
    "AtomicMeasure",
    "AffineMap",
    "PiecewiseLinearFn",
    "ZERO_MEASURE",
    "wk_distance",
    "row_norms",
    "wk_distance_primal",
    "merge_atoms",
    "round_up",
    "UNIT_ROUNDOFF",
]

_POSITION_TOL = 1e-12
# |net total| up to this share of the total variation takes the balanced closed form
_BALANCE_RTOL = 1e-12
# unit roundoff of float64, round to nearest
UNIT_ROUNDOFF = 2.0**-53


def round_up(value, roundings):
    """Upper estimate of the exact value of a nonnegative float computed in ``roundings`` roundings.

    Each rounding is a factor 1 + d with |d| <= u, so with gamma_k =
    k u / (1 - k u) the computed value is at least (1 - gamma_k) times the
    exact one, and 1 / (1 - gamma_k) <= 1 + gamma_{k+1} (Higham, *Accuracy
    and Stability of Numerical Algorithms*, 2nd ed., 2002, sections 3.1 and
    4.2).  The value is inflated by gamma_{k+1}, itself rounded up, and
    stepped one float toward +inf for the rounding of that sum.  Zero stays
    0.0.
    """
    if value == 0.0:
        return 0.0
    ku = (roundings + 1) * UNIT_ROUNDOFF
    gamma = math.nextafter(ku / (1.0 - ku), math.inf)
    return math.nextafter(value + value * gamma, math.inf)


def merge_atoms(rows, positions, weights):
    """Canonical atom table: sorted by (row, position), coincident atoms summed, zeros dropped.

    ``rows`` is one row per atom, or one for all.  Positions are clipped onto
    [0, 1], so atoms pushed marginally past an endpoint merge with atoms
    there.  Unordered input takes a stable ``lexsort``, so coincident atoms
    sum in input order.  Returns new (rows, positions, weights) arrays.
    """
    positions = np.asarray(positions, dtype=float)
    weights = np.asarray(weights, dtype=float)
    rows = np.broadcast_to(np.asarray(rows, dtype=np.intp), positions.shape)
    if positions.size == 0:
        return rows.copy(), positions.copy(), weights.copy()
    # written so that a NaN position fails it
    if not (positions.min() >= -_POSITION_TOL and positions.max() <= 1 + _POSITION_TOL):
        raise ValueError("atom positions must lie in [0, 1]")
    positions = np.clip(positions, 0.0, 1.0)
    d_row, d_pos = np.diff(rows), np.diff(positions)
    # ordered: rows never fall, and positions fall only where the row rises
    if (d_row < 0).any() or not d_row[d_pos < 0].all():
        order = np.lexsort((positions, rows))
        rows, positions, weights = rows[order], positions[order], weights[order]
        d_row, d_pos = np.diff(rows), np.diff(positions)
    first = np.concatenate([[True], (d_row != 0) | (d_pos != 0)])
    keep = np.flatnonzero(first)
    if keep.size < first.size:
        weights = np.bincount(np.cumsum(first) - 1, weights=weights)
    nz = np.flatnonzero(weights)
    return rows[keep[nz]], positions[keep[nz]], weights[nz]


class AtomicMeasure:
    """Signed atomic measure: strictly increasing positions in [0,1], nonzero weights."""

    __slots__ = ("positions", "weights")

    def __init__(self, positions, weights):
        _, self.positions, self.weights = merge_atoms(0, positions, weights)

    @classmethod
    def dirac(cls, x, weight=1.0):
        return cls([x], [weight])

    @property
    def n_atoms(self):
        return int(self.positions.size)

    def total_weight(self):
        return float(self.weights.sum())

    def scaled(self, factor):
        if factor == 0.0:
            return ZERO_MEASURE
        return AtomicMeasure(self.positions, factor * self.weights)

    def __repr__(self):
        return f"AtomicMeasure({self.n_atoms} atoms, mass={self.total_weight():.6g})"


ZERO_MEASURE = AtomicMeasure([], [])


class AffineMap:
    """Affine self-map of [0, 1], y -> a*y + b."""

    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = float(a)
        self.b = float(b)

    def __call__(self, y):
        return self.a * y + self.b

    def __repr__(self):
        return f"AffineMap(a={self.a!r}, b={self.b!r})"


class PiecewiseLinearFn:
    """Continuous piecewise-linear function on [0,1] given by breakpoint values."""

    __slots__ = ("breakpoints", "values")

    def __init__(self, breakpoints, values):
        breakpoints = np.asarray(breakpoints, dtype=float)
        values = np.asarray(values, dtype=float)
        if breakpoints.ndim != 1 or breakpoints.shape != values.shape:
            raise ValueError("breakpoints and values must be 1d arrays of equal length")
        if breakpoints.size < 2 or breakpoints[0] != 0.0 or breakpoints[-1] != 1.0:
            raise ValueError("breakpoints must start at 0 and end at 1")
        if not (np.diff(breakpoints) > 0).all():
            raise ValueError("breakpoints must be strictly increasing")
        if not np.isfinite(values).all():
            raise ValueError("values must be finite")
        self.breakpoints = breakpoints
        self.values = values

    @classmethod
    def constant(cls, c):
        return cls([0.0, 1.0], [c, c])

    @classmethod
    def identity(cls):
        return cls([0.0, 1.0], [0.0, 1.0])

    def __call__(self, y):
        return np.interp(y, self.breakpoints, self.values)

    def sup_norm(self):
        return float(np.abs(self.values).max())

    def lipschitz(self):
        slopes = np.diff(self.values) / np.diff(self.breakpoints)
        return float(np.abs(slopes).max())

    def shifted(self, c):
        return PiecewiseLinearFn(self.breakpoints, self.values + c)

    def __repr__(self):
        return f"PiecewiseLinearFn({self.breakpoints.size} breakpoints)"


# ---------------------------------------------------------------------------
# exact dual solver
# ---------------------------------------------------------------------------


def row_norms(rows, positions, weights, n_rows):
    """Dual norm of each row of a signed atom table, in one ``merge_atoms``.

    Row r's norm maximizes sum_i c_i g_i over g with |g_i| <= 1 and
    |g_{i+1} - g_i| <= x_{i+1} - x_i, where (x, c) are the merged positions
    and net weights of the row.  Flip c so that S = sum c >= 0 (c_0 > 0 when
    S == 0.0, which keeps wk(mu, nu) and wk(nu, mu) bit-identical).  On a
    span <= 1, a 1-Lipschitz g shifted up to max g = 1 is >= 0 and never
    lowers sum c g, so g >= -1 never binds; with C_j = c_0 + ... + c_j and
    gap_j = x_{j+1} - x_j, duality gives an L1 isotonic regression,

        ||c|| = S + min { sum_j gap_j |C_j - E_j| : 0 <= E_0 <= ... <= E_{n-2} <= S },

    solved exactly by one heap pass in O(n log n) (Rote, SOSA 2019).  Its
    primal, with f_j = C_j - E_j, is ``wk_distance_primal``'s flow with
    deletion only.  The closed forms are two of its feasible points: E = C
    costs 0, so a one-signed c has norm |sum c|; E = 0 gives int |F_c| +
    |sum c|, the norm W1 of a balanced c, used while |sum c| <= 1e-12 sum |c|
    as an upper estimate within 2 |sum c|.  Coincident atoms of a row sum in
    input order; a row with no atoms has norm 0.
    """
    row, x, c = merge_atoms(rows, positions, weights)
    s = np.searchsorted(row, np.arange(n_rows + 1)).tolist()
    return np.array([_dual_norm(x[a:b], c[a:b]) for a, b in zip(s, s[1:])])


def _dual_norm(x, c):
    """Dual norm of one row: merged positions x, nonzero net weights c."""
    if x.size == 0:
        return 0.0
    total = float(c.sum())
    # canonical sign: makes wk(mu, nu) and wk(nu, mu) bit-identical
    if total < 0 or (total == 0.0 and c[0] < 0):
        c, total = -c, -total
    if c.min() > 0.0:
        return total
    if total <= _BALANCE_RTOL * float(np.abs(c).sum()):
        return float(np.dot(np.abs(np.cumsum(c)[:-1]), np.diff(x))) + total
    # max-heap of [-value, weight]: the breakpoints of the regression's prefix
    # cost as a function of its last E; the anchor enforces E >= 0
    heap = [[0.0, float("inf")]]
    cost = 0.0
    for cum, gap in zip(np.cumsum(c[:-1]).tolist(), np.diff(x).tolist()):
        rest = gap
        while rest > 0.0 and -heap[0][0] > cum:
            top = heap[0]
            take = min(rest, top[1])
            cost += take * (-top[0] - cum)
            rest -= take
            if take == top[1]:
                heapq.heappop(heap)
            else:
                top[1] -= take
        heapq.heappush(heap, [-cum, 2 * gap - rest])
    # clamp the last E to at most S
    return total + cost + sum(w * (-v - total) for v, w in heap if -v > total)


def wk_distance(mu, nu=ZERO_MEASURE):
    """Bounded-Lipschitz distance between two atomic signed measures: mu's atoms, then -nu's, as one row."""
    return float(row_norms(0, np.r_[mu.positions, nu.positions], np.r_[mu.weights, -nu.weights], 1)[0])


def wk_distance_primal(mu, nu=ZERO_MEASURE):
    """``wk_distance`` as the cheapest flow that carries mu - nu (Hanin, Proc. AMS 115, 1992).

    On the merged support (x, c) the norm is min over f of sum_j gap_j |f_j|
    + sum_i |c_i - f_i + f_{i-1}|: f_j crosses the gap after atom j (0 beyond
    the ends), and mass is created or deleted at unit cost.  An optimal basic
    flow is a spanning tree on the atoms and a ground node, so the support
    splits into segments l..r, each grounded at one atom k, with S(l..j)
    across gap j left of k, -S(j+1..r) right of it, and 0 between segments
    (S sums c).  A dynamic program over the segments is exact, in O(n^3).
    It shares no code with the heap pass but ``merge_atoms``.
    """
    _, x, c = merge_atoms(0, np.r_[mu.positions, nu.positions], np.r_[mu.weights, -nu.weights])
    n = x.size
    if n == 0:
        return 0.0
    inside = np.triu(np.ones((n, n), dtype=bool))
    sums = np.cumsum(np.where(inside, c, 0.0), axis=1)  # sums[l, r] = S(l..r) for l <= r
    gaps = np.diff(x)
    # to_left[l, k]: carry atoms l..k-1 right to atom k; to_right[k, r]: carry atoms k+1..r left to it
    to_left, to_right = np.zeros((2, n, n))
    to_left[:, 1:] = np.cumsum(gaps * np.abs(sums[:, :-1]), axis=1)
    to_right[:-1] = np.cumsum((gaps[:, None] * np.abs(sums[1:]))[::-1], axis=0)[::-1]
    # segment l..r grounded at its cheapest atom k, plus |S(l..r)| through the ground
    through = np.where(inside[:, :, None] & inside, to_left[:, :, None] + to_right, np.inf)
    segment = through.min(axis=1) + np.abs(sums)
    best = np.zeros(n + 1)  # best[r]: cheapest flow on atoms 0..r-1
    for r in range(n):
        best[r + 1] = np.min(best[: r + 1] + segment[: r + 1, r])
    return float(best[n])
