"""Skew products over a subshift with affine contracting fiber maps.

The fiber dynamics on [0, 1] is driven by the first symbols of the base
point: branch i acts by y -> a_i y + b_i, optionally corrected by an
additive offset read from the first ``offset_depth`` symbols.  Depth 1
reproduces plain iterated function systems (whose invariant measure is a
product); deeper offset tables couple the fiber to the base and produce
genuinely non-product invariant measures.  The branch maps are built once,
one slope/offset pair per offset-depth word (``SystemSpec.branches``), and
a word of any working depth reads the pair of its offset prefix
(``SystemSpec.word_branches``, by ``TransitionMatrix.prefix_rows``).

The CLT's orbit stream has one owner, ``birkhoff_sums``: it streams the
orbits of a seed in blocks of trials, about ``BLOCK_CELLS`` cells each.
``symbol_tracks`` draws a block's symbol tracks, one byte per cell: all
trials of a seed read one PCG64 stream, each its own consecutive stretch of
draws, and each uniform is reduced at once to its rank among the
inverse-CDF thresholds.  The fiber recursion then runs over the tracks in a
time-major buffer of about ``FIBER_CELLS`` states, and an observable
affine in y on each word, p + q y from two tables by word, is summed
over each chunk of recorded states while it is in the buffer, so only a
running sum per trial is kept and no trials x length array is built.
"""

from __future__ import annotations

import operator
import time

import numpy as np

from .symbolic import (
    BaseWeights,
    CylinderFunction,
    TransitionMatrix,
    check_theta,
    pair_lipschitz,
)

__all__ = [
    "FiberMapSpec",
    "SystemSpec",
    "verify_G1",
    "affine_gap",
    "estimate_H",
    "c1_constant",
    "orbit_stream",
    "symbol_tracks",
    "birkhoff_sums",
    "BLOCK_CELLS",
]

_RANGE_TOL = 1e-12


class FiberMapSpec:
    """Affine fiber branch with optional word-indexed offset corrections."""

    def __init__(self, slope, offset, offset_table=None):
        self.slope = float(slope)
        self.offset = float(offset)
        self.offset_table = {tuple(k): float(v) for k, v in (offset_table or {}).items()}

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
        self.alpha = verify_G1(self)
        self.branches = self._branch_table()

    @property
    def n_symbols(self):
        return self.matrix.n_symbols

    def _branch_table(self):
        """Slopes and offsets of the offset-depth words' branch maps, as two rows, each checked to map [0, 1] into itself.

        A word's first symbol picks its branch, and the whole word its entry in
        that branch's offset table, if any; a key that names no admissible
        offset word of its own symbol fails.
        """
        d = self.offset_depth
        words = self.matrix.words(d)
        row, heads = dict(zip(words, range(len(words)))), self.matrix.word_array(d)[:, 0]
        correction = np.zeros(len(words))
        for i, fm in enumerate(self.fiber_maps):
            for key, value in fm.offset_table.items():
                if key not in row or heads[row[key]] != i:
                    raise ValueError(f"offset key {key} for symbol {i} is not an admissible word of depth {d} "
                                     "starting with its own symbol")
                correction[row[key]] = value
        slopes, offsets = np.array([(fm.slope, fm.offset) for fm in self.fiber_maps]).T
        # a word with no entry adds 0.0: the sum offset + table.get(word, 0.0), rounded once
        a, b = slopes[heads], offsets[heads] + correction
        lo, hi = np.sort([b, a + b], axis=0)
        # a NaN bound fails
        bad = np.flatnonzero(~((lo >= -_RANGE_TOL) & (hi <= 1.0 + _RANGE_TOL)))
        if bad.size:
            k = bad[0]
            raise ValueError(f"fiber map on cylinder {words[k]} maps [0,1] to [{lo[k]:.6g}, {hi[k]:.6g}], "
                             "outside the unit interval")
        return np.array([a, b])

    def prefix_rows(self, depth):
        """Row of each depth-``depth`` word's offset prefix among the offset-depth words, its index in ``branches``."""
        d = self.offset_depth
        if depth < d:
            raise ValueError(f"offset depth {d} exceeds the working depth {depth}")
        return self.matrix.prefix_rows(depth, d)

    def word_branches(self, depth):
        """Branch slopes and offsets of the depth-``depth`` words, read at their offset prefixes, as two rows."""
        return self.branches[:, self.prefix_rows(depth)]

    def __repr__(self):
        return (
            f"SystemSpec(N={self.n_symbols}, theta={self.theta!r}, "
            f"{self.weights!r}, depth={self.offset_depth})"
        )


def verify_G1(sys):
    """Contraction rate of the fiber lamination; error if some branch expands."""
    for i, fm in enumerate(sys.fiber_maps):
        # a NaN slope fails
        if not abs(fm.slope) < 1.0:
            raise ValueError(f"fiber map for symbol {i} has |slope| = {abs(fm.slope)} >= 1")
    return max(abs(fm.slope) for fm in sys.fiber_maps)


def affine_gap(da, db):
    """Sup over y in [0, 1] of |da y + db|, elementwise: an affine function peaks at y = 0 or y = 1."""
    return np.maximum(np.abs(db), np.abs(da + db))


def estimate_H(sys):
    """Lipschitz constant of the fiber map in the base coordinate.

    Maximizes |G(u, y) - G(v, y)| / d_theta(u, v) over pairs of admissible
    depth-d words and y in [0, 1]: one ``pair_lipschitz`` pass over the
    distinct branches, whose gap row a is the ``affine_gap`` of branch a
    against each later branch.
    """
    branches, labels = np.unique(np.column_stack(sys.branches), axis=0, return_inverse=True)
    a, b = branches.T
    return pair_lipschitz(sys.matrix, sys.offset_depth, sys.theta, labels.ravel(),
                          lambda i: affine_gap(a[i] - a[i + 1 :], b[i] - b[i + 1 :]))


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

# orbit cells (steps x trials) sampled per block, one byte each
BLOCK_CELLS = 1 << 20
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


def birkhoff_sums(sys, p, q, depth, seed, trials, burn_in, length):
    """Sums of q[c] y + p[c] over recorded steps burn_in .. burn_in + length - 1 of ``trials`` orbits from y = 1/2.

    ``p`` and ``q`` tabulate an observable affine in y on each word of depth
    ``depth``, and c is the row in ``words(depth)`` of a step's first
    ``depth`` symbols.  With p = v0
    and q = v1 - v0 for a piece with values v0, v1 at y = 0, 1, the one
    product and one sum are ``np.interp``'s own (y - 0) ((v1 - v0) / 1) + v0
    for y < 1 (at y = 1 ``np.interp`` returns v1 itself).
    The orbits stream in blocks of about ``BLOCK_CELLS`` cells, with
    total = burn_in + length + w - 1 per trial, w = max(depth, offset_depth):
    trial t reads draws t * total .. (t + 1) * total - 1 of
    ``orbit_stream(seed)`` (``symbol_tracks``).  The fiber recursion runs
    time-major in a buffer of about ``FIBER_CELLS`` states.  The row of a
    step's w-symbol window (``TransitionMatrix.window_rows``) selects its
    branch in ``word_branches(w)`` and the observable at the state before it
    in p and q gathered once at ``prefix_rows(w, depth)``.  Each trial's values are added one
    step at a time, in step order, so the sums depend on neither the block
    nor the chunk size.  Returns ``(sums, block_trials, sample_s, sum_s)``,
    the last two the wall seconds spent drawing symbol tracks and running
    the recursion with its sums.
    """
    matrix, width = sys.matrix, max(depth, sys.offset_depth)
    slopes, offsets = sys.word_branches(width)
    p, q = (v[matrix.prefix_rows(width, depth)] for v in (p, q))
    steps = burn_in + length
    total = steps + width - 1
    block = min(max(1, BLOCK_CELLS // total), trials)
    gen = orbit_stream(seed)
    sums = np.zeros(trials)
    sample_s = sum_s = 0.0
    for lo in range(0, trials, block):
        started = time.perf_counter()
        tracks = symbol_tracks(sys.weights, gen, min(block, trials - lo), total)
        sampled = time.perf_counter()
        part = sums[lo:lo + tracks.shape[1]]
        chunk = max(1, FIBER_CELLS // part.size)
        # buf[j] is the state before step t0 + j; the last row carries into the next chunk
        buf = np.full((chunk + 1, part.size), 0.5)
        for t0 in range(0, steps, chunk):
            t1 = min(t0 + chunk, steps)
            rows = matrix.window_rows([tracks[t0 + j: t1 + j] for j in range(width)])
            for a, b, y, after in zip(slopes.take(rows), offsets.take(rows), buf, buf[1:]):
                # rounds as slopes[c] * y + offsets[c] does: one product, then one sum
                np.multiply(a, y, out=after)
                after += b
            r = max(burn_in - t0, 0)
            values = q.take(rows[r:])
            values *= buf[r:t1 - t0]
            values += p.take(rows[r:])
            for row in values:
                part += row
            buf[0] = buf[t1 - t0]
        # frees the block's tracks, which one-column rows are a view of, before the next block is sampled
        del tracks, rows
        sample_s += sampled - started
        sum_s += time.perf_counter() - sampled
    return sums, block, sample_s, sum_s
