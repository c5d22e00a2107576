"""Skew products over a subshift with affine contracting fiber maps.

The fiber dynamics on [0, 1] is driven by the first symbols of the base
point: branch i acts by y -> a_i y + b_i, optionally corrected by an
additive offset read from the first ``offset_depth`` symbols.  Depth 1
reproduces plain iterated function systems (whose invariant measure is a
product); deeper offset tables couple the fiber to the base and produce
genuinely non-product invariant measures.  The branch maps are one table
built once, ``SystemSpec.code_tables``; ``SystemSpec.word_branches`` reads
it for every admissible word of a working depth.

Orbits are sampled in two time-major passes.  ``symbol_tracks`` draws the
symbol tracks of a block of trials, one byte per cell: all trials of a seed
read one PCG64 stream, each its own consecutive stretch of draws, and each
uniform is reduced at once to its rank among the inverse-CDF thresholds.
``fiber_states`` then runs the fiber recursion over the tracks and yields
the recorded states a chunk of about ``FIBER_CELLS`` cells at a time, so a
reader can reduce each chunk while it is in the buffer; the CLT experiment
keeps only a running sum per trial, and no trials x length array is built.
"""

from __future__ import annotations

import operator

import numpy as np

from .measures import AffineMap
from .symbolic import (
    BaseWeights,
    CylinderFunction,
    TransitionMatrix,
    check_theta,
    pair_lipschitz,
    window_codes,
)

__all__ = [
    "FiberMapSpec",
    "SystemSpec",
    "verify_G1",
    "estimate_H",
    "c1_constant",
    "orbit_stream",
    "symbol_tracks",
    "fiber_states",
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
    branches, labels = np.unique(np.column_stack(sys.word_branches(d)), axis=0, return_inverse=True)
    a, b = branches.T
    da, db = a[:, None] - a[None, :], b[:, None] - b[None, :]
    return pair_lipschitz(sys.matrix, d, sys.theta, labels.ravel(), np.maximum(np.abs(db), np.abs(da + db)))


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

# orbit cells per time-major buffer: the uniforms of a group of trials, and
# the fiber states of a chunk of steps
FIBER_CELLS = 1 << 14


def orbit_stream(seed):
    """``Generator(PCG64(seed))`` for a nonnegative integer seed: the one stream all trials of a seed read."""
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError(f"seed must be a nonnegative integer, got {seed}")
    return np.random.Generator(np.random.PCG64(seed))


def symbol_lookup(cum):
    """Distinct thresholds of an inverse-CDF table and the symbol of each (row, rank) pair.

    ``cum`` holds one cumulative law per row without its last entry (1 up
    to rounding), which caps the symbol at n - 1: the inverse CDF of row
    ``prev`` at u is the count of cum[prev, k] <= u.  That count depends on
    u only through its rank, the number of ``thresholds`` (the distinct
    entries of ``cum``, ascending) at or below u, so ``table[prev, rank]``
    is the symbol, exactly.
    """
    # sorted(set()) and not np.unique, whose first call imports numpy.ma (about 20 ms)
    thresholds = np.array(sorted(set(cum.ravel().tolist())))
    edges = np.concatenate(([-np.inf], thresholds))
    return thresholds, (cum[:, None, :] <= edges[:, None]).sum(axis=2)


def symbol_ranks(thresholds, u):
    """Rank of each uniform: the count of ``thresholds`` at or below it, in the smallest type that holds it."""
    ranks = np.zeros(u.shape, dtype=np.min_scalar_type(thresholds.size))
    for x in thresholds.tolist():
        ranks += x <= u
    return ranks


def symbol_tracks(weights, gen, trials, total):
    """Time-major symbol tracks, total x trials, of the next ``trials`` trials of ``gen``'s stream.

    Each trial reads the next ``total`` draws.  Row n of the inverse-CDF
    table is the start law: every track begins in a virtual state whose
    next-symbol law is pi and goes on by the transition row of its previous
    symbol.  The uniforms of a group of trials, about ``FIBER_CELLS`` cells,
    are drawn at once and reduced to their ranks (``symbol_lookup``), and
    one loop over time maps the ranks to symbols for all trials at once.
    When every row of the symbol table is the same (any Bernoulli base) the
    symbols are i.i.d.: a uniform's symbol is then its rank among the start
    law's own entries, and there is no loop over time.
    """
    n = weights.n_symbols
    cum = np.cumsum(np.vstack([weights.transition, weights.stationary]), axis=1)[:, :n - 1]
    thresholds, table = symbol_lookup(cum)
    tracks = np.empty((total, trials), dtype=np.min_scalar_type(n - 1))
    iid = (table == table[0]).all()
    # counted with repeats, the start law's entries at or below u give an i.i.d. symbol itself
    edges = cum[-1] if iid else thresholds
    rank_type = np.min_scalar_type(edges.size)
    # the loop over time reads row t's ranks before it writes row t's symbols, so one type shares the block
    ranks = tracks if rank_type == tracks.dtype else np.empty((total, trials), dtype=rank_type)
    group = max(1, FIBER_CELLS // total)
    for lo in range(0, trials, group):
        u = gen.random((min(group, trials - lo), total))
        ranks[:, lo:lo + len(u)] = symbol_ranks(edges, u).T
    if not iid:
        symbols, m = table.ravel(), table.shape[1]
        prev = np.full(trials, n)
        for rank, track in zip(ranks, tracks):
            prev = symbols.take(prev * m + rank)
            track[:] = prev
    return tracks


def fiber_states(sys, tracks, burn_in, length):
    """Fiber coordinates before recorded steps burn_in .. burn_in + length - 1, from y = 1/2, a chunk at a time.

    ``tracks`` are time-major symbol tracks (``symbol_tracks``).  The
    recursion runs time-major, a buffer of about ``FIBER_CELLS`` states at a
    time, and each chunk that holds recorded states yields ``(s, states)``:
    ``states[i]`` is every trial's coordinate before recorded step s + i.
    ``states`` is a view of the reused buffer, to be read, not written, and
    only until the next chunk.
    """
    trials = tracks.shape[1]
    slopes, offsets = sys.code_tables()
    d, n = sys.offset_depth, sys.n_symbols
    y = np.full(trials, 0.5)
    if burn_in == 0:
        yield 0, y[None]
    steps = burn_in + length - 1
    chunk = max(1, FIBER_CELLS // trials)
    buf = np.empty((chunk, trials))
    for t0 in range(0, steps, chunk):
        t1 = min(t0 + chunk, steps)
        codes = window_codes([tracks[t0 + j: t1 + j] for j in range(d)], n)
        a, b = slopes.take(codes), offsets.take(codes)
        for aj, bj, state in zip(a, b, buf):
            # rounds as slopes[c] * y + offsets[c] does: one product, then one sum
            y = np.multiply(aj, y, out=state)
            y += bj
        # buf[j] is the state after step t0 + j; states from burn_in on are recorded
        lo = max(t0 + 1, burn_in)
        if lo <= t1:
            yield lo - burn_in, buf[lo - t0 - 1: t1 - t0]
