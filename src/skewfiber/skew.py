"""Skew products over a subshift with affine contracting fiber maps.

The fiber dynamics on [0, 1] is driven by the first symbols of the base
point: branch i acts by y -> a_i y + b_i, optionally corrected by an
additive offset read from the first ``offset_depth`` symbols.  Depth 1
reproduces plain iterated function systems (whose invariant measure is a
product); deeper offset tables couple the fiber to the base and produce
genuinely non-product invariant measures.  The branch maps are one table
built once, ``SystemSpec.code_tables``; ``SystemSpec.word_branches`` reads
it for every admissible word of a working depth.

``sample_orbits`` returns a batch of orbits as two arrays, the symbol
tracks and the fiber coordinates, one row per trial.  Each trial draws from
its own spawn key, so a batch can start at any trial index, and a stream of
blocks gives the same rows, bit for bit, as one whole batch.
"""

from __future__ import annotations

import numpy as np

from .measures import AffineMap
from .symbolic import (
    BaseWeights,
    CylinderFunction,
    TransitionMatrix,
    check_theta,
    window_codes,
    word_distances,
)

__all__ = [
    "FiberMapSpec",
    "SystemSpec",
    "verify_G1",
    "estimate_H",
    "c1_constant",
    "sample_orbits",
]

_RANGE_TOL = 1e-12


class FiberMapSpec:
    """Affine fiber branch with optional word-indexed offset corrections."""

    def __init__(self, slope, offset, offset_table=None):
        self.slope = float(slope)
        self.offset = float(offset)
        self.offset_table = {tuple(k): float(v) for k, v in (offset_table or {}).items()}

    def correction(self, key):
        return self.offset_table.get(key, 0.0)

    def __repr__(self):
        extra = f", table={self.offset_table}" if self.offset_table else ""
        return f"FiberMapSpec(a={self.slope!r}, b={self.offset!r}{extra})"


class SystemSpec:
    """Complete skew product: base matrix, metric parameter, weights, fiber maps."""

    def __init__(self, matrix, theta, weights, fiber_maps, offset_depth=1):
        if not isinstance(matrix, TransitionMatrix):
            matrix = TransitionMatrix(matrix)
        self.matrix = matrix
        self.theta = check_theta(theta)
        if not isinstance(weights, BaseWeights):
            raise TypeError("weights must be a BaseWeights instance")
        if weights.n_symbols != matrix.n_symbols:
            raise ValueError("weights and transition matrix disagree on the alphabet size")
        if not weights.compatible_with(matrix):
            raise ValueError("base measure must charge exactly the admissible transitions")
        self.weights = weights
        if len(fiber_maps) != matrix.n_symbols:
            raise ValueError("need one fiber map per symbol")
        self.fiber_maps = list(fiber_maps)
        if offset_depth < 1:
            raise ValueError("offset depth must be at least 1")
        self.offset_depth = int(offset_depth)
        self._validate_offset_tables()
        self.alpha = verify_G1(self)
        self._validate_range()
        self._code_tables = None

    @property
    def n_symbols(self):
        return self.matrix.n_symbols

    def _validate_offset_tables(self):
        d = self.offset_depth
        for i, fm in enumerate(self.fiber_maps):
            for key in fm.offset_table:
                if len(key) != d:
                    raise ValueError(f"offset key {key} for symbol {i} must have depth {d}")
                if key[0] != i:
                    raise ValueError(f"offset key {key} must start with its own symbol {i}")

    def _validate_range(self):
        for word in self.matrix.words(self.offset_depth):
            t = self.branch_map(word)
            lo, hi = sorted((t.b, t.a + t.b))
            if lo < -_RANGE_TOL or hi > 1.0 + _RANGE_TOL:
                raise ValueError(
                    f"fiber map on cylinder {word} maps [0,1] to [{lo:.6g}, {hi:.6g}], "
                    "outside the unit interval"
                )

    def branch_map(self, source_word):
        """Affine fiber map attached to the cylinder of ``source_word``.

        The branch symbol is the word's first entry; the offset correction is
        read from the depth-``offset_depth`` prefix, so the word needs at
        least that many symbols.
        """
        d = self.offset_depth
        if len(source_word) < d:
            raise ValueError(f"branch map needs a word of at least {d} symbols, got {source_word}")
        fm = self.fiber_maps[source_word[0]]
        return AffineMap(fm.slope, fm.offset + fm.correction(tuple(source_word[:d])))

    def code_tables(self):
        """Slope/offset lookups indexed by the encoded depth-d symbol window."""
        if self._code_tables is None:
            d = self.offset_depth
            maps = [self.branch_map(word) for word in self.matrix.words(d)]
            codes = window_codes(self.matrix.word_array(d).T, self.n_symbols)
            slopes, offsets = np.zeros((2, self.n_symbols**d))
            slopes[codes] = [t.a for t in maps]
            offsets[codes] = [t.b for t in maps]
            self._code_tables = (slopes, offsets)
        return self._code_tables

    def word_codes(self, depth):
        """Branch code of each depth-``depth`` word: the window code of its offset prefix."""
        d = self.offset_depth
        if depth < d:
            raise ValueError(f"offset depth {d} exceeds the working depth {depth}")
        return window_codes(self.matrix.word_array(depth).T[:d], self.n_symbols)

    def word_branches(self, depth):
        """Branch slopes and offsets of the depth-``depth`` words, read at their offset prefixes."""
        codes = self.word_codes(depth)
        slopes, offsets = self.code_tables()
        return slopes[codes], offsets[codes]

    def __repr__(self):
        return (
            f"SystemSpec(N={self.n_symbols}, theta={self.theta!r}, "
            f"{self.weights!r}, depth={self.offset_depth})"
        )


def verify_G1(sys):
    """Contraction rate of the fiber lamination; error if some branch expands."""
    alpha = 0.0
    for i, fm in enumerate(sys.fiber_maps):
        if abs(fm.slope) >= 1.0:
            raise ValueError(f"fiber map for symbol {i} has |slope| = {abs(fm.slope)} >= 1")
        alpha = max(alpha, abs(fm.slope))
    return alpha


def estimate_H(sys):
    """Lipschitz constant of the fiber map in the base coordinate.

    Maximizes |G(u, y) - G(v, y)| / d_theta(u, v) over pairs of admissible
    depth-d words and y in [0, 1].  The difference of two affine branches is
    affine in y, so its supremum is max(|db|, |da + db|), taken at y = 0 or
    y = 1.
    """
    d = sys.offset_depth
    a, b = sys.word_branches(d)
    da, db = a[:, None] - a[None, :], b[:, None] - b[None, :]
    dist = word_distances(sys.matrix, d, sys.theta)
    mask = dist > 0
    return float((np.maximum(np.abs(db), np.abs(da + db))[mask] / dist[mask]).max(initial=0.0))


def c1_constant(sys):
    """Regularity constant max{H theta + theta N |g|_theta, 2}.

    |g|_theta is the Lipschitz constant of the branch weight g(i.x) seen as
    a cylinder function; the weight depends on at most the first two
    symbols, so depth 2 already realizes the supremum.
    """
    h = estimate_H(sys)
    words = sys.matrix.word_array(2)
    vals = sys.weights.jacobian[words[:, 0], words[:, 1]]
    g_lip = CylinderFunction(sys.matrix, 2, vals).lipschitz(sys.theta)
    return max(h * sys.theta + sys.theta * sys.n_symbols * g_lip, 2.0)


# ---------------------------------------------------------------------------
# orbit sampling
# ---------------------------------------------------------------------------


def sample_orbits(sys, seed, length, trials, burn_in=40, window=1, start=0):
    """Sample many independent orbits with per-trial derived seeds.

    Returns ``(symbols, ys)``: ``symbols`` is trials x (length + w - 1),
    in the smallest unsigned integer type that holds the symbols, with
    w = max(window, offset_depth), so a depth-k observable (k <= w) can be
    evaluated at recorded step t via ``symbols[:, t:t+k]``, and ``ys`` is
    trials x length, the fiber coordinate before each recorded step.

    The batch holds trials ``start`` to ``start + trials - 1``.  Trial t
    draws its uniforms from the spawn key (t,) of the root seed sequence,
    so results do not depend on batching or evaluation order: rows lo:hi of
    a batch from trial 0 equal the batch of hi - lo trials from ``start=lo``.
    Every symbol track starts from the stationary law and is continued by
    the inverse CDF of the transition row of the previous symbol; one loop
    over time maps the uniforms of all trials at once (a Bernoulli base is
    the chain whose rows all equal p).  The fiber coordinate runs
    ``burn_in`` maps from 1/2 before recording, so the recorded states are
    within alpha^burn_in of the invariant law in the dual metric.
    """
    if length < 1 or trials < 1:
        raise ValueError("length and trials must be positive")
    if burn_in < 0:
        raise ValueError("burn_in must be nonnegative")
    window = max(int(window), sys.offset_depth)
    total = burn_in + length + window - 1
    root = np.random.SeedSequence(seed)
    # time-major, so every step of the loops below reads one contiguous row
    uniforms = np.empty((total, trials))
    for t in range(trials):
        child = np.random.SeedSequence(entropy=root.entropy, spawn_key=(start + t,))
        uniforms[:, t] = np.random.default_rng(child).random(total)
    n = sys.n_symbols
    # row n is the start law: the track begins in a virtual state whose next-symbol law is pi
    weights = sys.weights
    cum = np.cumsum(np.vstack([weights.transition, weights.stationary]), axis=1)
    tracks = np.empty((total, trials), dtype=np.min_scalar_type(n - 1))
    prev = np.full(trials, n)
    for t in range(total):
        # inverse CDF of row prev: the count of cum[prev, k] <= u; the last entry
        # (1 up to rounding) is left out, which caps the symbol at n - 1
        sym = np.zeros(trials, dtype=np.intp)
        for k in range(n - 1):
            sym += cum[prev, k] <= uniforms[t]
        tracks[t] = prev = sym
    del uniforms  # lowers the peak memory of the fiber pass
    slopes, offsets = sys.code_tables()
    d = sys.offset_depth
    codes = window_codes([tracks[j: total - d + 1 + j] for j in range(d)], n)
    y = np.full(trials, 0.5)
    ys = np.empty((trials, length))
    for t in range(burn_in + length):
        if t >= burn_in:
            ys[:, t - burn_in] = y
        c = codes[t]
        y = slopes[c] * y + offsets[c]
    return np.ascontiguousarray(tracks[burn_in:].T), ys
