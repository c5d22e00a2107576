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
blocks gives the same rows, bit for bit, as one whole batch.  The trials'
generator states are derived for the whole batch at once by numpy's
``SeedSequence`` mixing on uint32 arrays (``trial_states``), so no
``SeedSequence`` or ``Generator`` is built per trial; the fiber recursion
runs time-major over a small buffer, a chunk of steps at a time.
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

# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx), its pool
# size in uint32 words, and PCG64's 128-bit LCG multiplier (pcg64.h)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1
# orbit cells (steps x trials) per time-major buffer of the fiber recursion
FIBER_CELLS = 1 << 14


def _uint32_words(n):
    """A nonnegative integer as little-endian uint32 words, as SeedSequence reads an entropy."""
    n = operator.index(n)
    if n < 0:
        raise ValueError(f"seed must be a nonnegative integer, got {n}")
    words = [n & _MASK32]
    while n > _MASK32:
        n >>= 32
        words.append(n & _MASK32)
    return words


class _HashMix:
    """SeedSequence's ``hashmix`` on uint32 arrays, carrying its running hash constant."""

    def __init__(self, const, mult):
        self.const, self.mult = const, mult

    def __call__(self, value):
        value = value ^ np.uint32(self.const)
        self.const = self.const * self.mult & _MASK32
        value = value * np.uint32(self.const)
        return value ^ value >> 16


def _mix(x, y):
    """SeedSequence's ``mix`` of two uint32 arrays."""
    result = x * np.uint32(_MIX_MULT_L) - y * np.uint32(_MIX_MULT_R)
    return result ^ result >> 16


def _key_words(start, stop):
    """Spawn keys start .. stop - 1 as uint32 word arrays, one list per key length.

    A key below 2^32 is one word; from 2^32 on it is two, low word first.
    """
    keys = np.arange(start, stop, dtype=np.uint64)
    split = int(np.searchsorted(keys, 1 << 32))
    low, high = keys.astype(np.uint32), (keys >> np.uint64(32)).astype(np.uint32)
    return [words for words in ([low[:split]], [low[split:], high[split:]]) if words[0].size]


def trial_states(seed, start, trials):
    """PCG64 ``(state, inc)`` of trial t's generator, for t = start .. start + trials - 1.

    Trial t's generator is ``PCG64(SeedSequence(entropy=seed, spawn_key=(t,)))``.
    The sequence's entropy mixing and ``generate_state`` run once on uint32
    arrays for the whole block; PCG64's two-step seeding then runs on
    Python integers, one trial at a time.
    """
    run = _uint32_words(seed)
    # a spawned sequence pads its run entropy with zeros to the pool size
    run += [0] * (_POOL_SIZE - len(run))
    states = []
    for keys in _key_words(start, start + trials):
        entropy = [np.full(keys[0].size, word, dtype=np.uint32) for word in run] + keys
        hashmix = _HashMix(_INIT_A, _MULT_A)
        pool = [hashmix(word) for word in entropy[:_POOL_SIZE]]
        for src in range(_POOL_SIZE):
            for dst in range(_POOL_SIZE):
                if src != dst:
                    pool[dst] = _mix(pool[dst], hashmix(pool[src]))
        for word in entropy[_POOL_SIZE:]:
            for dst in range(_POOL_SIZE):
                pool[dst] = _mix(pool[dst], hashmix(word))
        # generate_state(4, uint64): eight words cycling through the pool, paired little-endian
        hashmix = _HashMix(_INIT_B, _MULT_B)
        w = [hashmix(pool[i % _POOL_SIZE]).astype(np.uint64) for i in range(8)]
        words64 = [w[2 * k] | w[2 * k + 1] << np.uint64(32) for k in range(4)]
        for s_hi, s_lo, i_hi, i_lo in zip(*(v.tolist() for v in words64)):
            inc = ((i_hi << 64 | i_lo) << 1 | 1) & _MASK128
            # pcg64 srandom: state 0, one step, add the seed, one more step
            states.append((((inc + (s_hi << 64 | s_lo)) * _PCG64_MULT + inc) & _MASK128, inc))
    return states


def _trial_generators(seed, start, trials):
    """One reused Generator, set in turn to each trial's PCG64 state."""
    gen = np.random.Generator(np.random.PCG64())
    for state, inc in trial_states(seed, start, trials):
        gen.bit_generator.state = {
            "bit_generator": "PCG64", "state": {"state": state, "inc": inc}, "has_uint32": 0, "uinteger": 0,
        }
        yield gen


def _fiber_orbits(sys, tracks, burn_in, length):
    """Fiber coordinates before recorded steps burn_in .. burn_in + length - 1, from y = 1/2.

    The recursion runs time-major, a buffer of about ``FIBER_CELLS`` states
    at a time; each chunk is copied into ``ys`` as one block transpose.
    """
    trials = tracks.shape[0]
    slopes, offsets = sys.code_tables()
    d, n = sys.offset_depth, sys.n_symbols
    ys = np.empty((trials, length))
    y = np.full(trials, 0.5)
    if burn_in == 0:
        ys[:, 0] = y
    steps = burn_in + length - 1
    chunk = max(1, FIBER_CELLS // trials)
    buf = np.empty((chunk, trials))
    for t0 in range(0, steps, chunk):
        t1 = min(t0 + chunk, steps)
        codes = window_codes([tracks[:, t0 + j: t1 + j].T for j in range(d)], n)
        a, b = slopes.take(codes), offsets.take(codes)
        for j in range(t1 - t0):
            # rounds as slopes[c] * y + offsets[c] does: one product, then one sum
            y = np.multiply(a[j], y, out=buf[j])
            y += b[j]
        # buf[j] is the state after step t0 + j; states from burn_in on are recorded
        lo = max(t0 + 1, burn_in)
        if lo <= t1:
            ys[:, lo - burn_in: t1 + 1 - burn_in] = buf[lo - t0 - 1: t1 - t0].T
    return ys


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
    The block's generator states are derived together (``trial_states``),
    and one Generator fills each trial's row in turn.  Every symbol track
    starts from the stationary law and is continued by the inverse CDF of
    the transition row of the previous symbol.  When every row of that
    table equals the start law (any Bernoulli base), the symbols are i.i.d.
    and each trial's uniforms map to symbols in one pass as they are drawn;
    otherwise one loop over time maps the uniforms of all trials at once.
    The fiber coordinate runs ``burn_in`` maps from 1/2 before recording, so
    the recorded states are within alpha^burn_in of the invariant law in
    the dual metric.
    """
    if length < 1 or trials < 1:
        raise ValueError("length and trials must be positive")
    if burn_in < 0:
        raise ValueError("burn_in must be nonnegative")
    window = max(int(window), sys.offset_depth)
    total = burn_in + length + window - 1
    n = sys.n_symbols
    # row n is the start law: the track begins in a virtual state whose next-symbol law is pi
    weights = sys.weights
    cum = np.cumsum(np.vstack([weights.transition, weights.stationary]), axis=1)
    tracks = np.empty((trials, total), dtype=np.min_scalar_type(n - 1))
    generators = _trial_generators(seed, start, trials)
    # inverse CDF of row prev: the count of cum[prev, k] <= u; the last entry
    # (1 up to rounding) is left out, which caps the symbol at n - 1
    if (cum == cum[-1]).all():
        u = np.empty(total)
        for track, gen in zip(tracks, generators):
            gen.random(out=u)
            track[:] = 0
            for k in range(n - 1):
                track += cum[-1, k] <= u
    else:
        uniforms = np.empty((trials, total))
        for row, gen in zip(uniforms, generators):
            gen.random(out=row)
        prev = np.full(trials, n)
        for t in range(total):
            sym = np.zeros(trials, dtype=np.intp)
            for k in range(n - 1):
                sym += cum[prev, k] <= uniforms[:, t]
            tracks[:, t] = prev = sym
        del uniforms  # lowers the peak memory of the fiber pass
    return np.ascontiguousarray(tracks[:, burn_in:]), _fiber_orbits(sys, tracks, burn_in, length)
