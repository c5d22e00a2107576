"""Tests for the skew product layer: hypotheses, constants, orbit sampling."""

import tracemalloc

import numpy as np
import pytest

from conftest import MARKOV3, wide_system
from oracles import branch_map, sample_orbits, sample_orbits_per_trial, word_distances
from skewfiber import skew
from skewfiber.demos import cantor_demo, coupled_demo, markov_demo
from skewfiber.skew import (
    FiberMapSpec,
    SystemSpec,
    c1_constant,
    estimate_H,
    verify_G1,
)
from skewfiber.symbolic import BaseWeights, TransitionMatrix

FULL2 = TransitionMatrix([[1, 1], [1, 1]])
FAIR = BaseWeights.bernoulli([0.5, 0.5])


def iterate_fiber(sys, symbols, y0):
    """Scalar replay oracle: the fiber coordinate before each usable step of a track."""
    d = sys.offset_depth
    steps = len(symbols) - d + 1
    ys = np.empty(steps)
    y = float(y0)
    for t in range(steps):
        ys[t] = y
        y = branch_map(sys, tuple(symbols[t:t + d]))(y)
    return ys


def replay_symbols(weights, seed, trial, total):
    """Scalar replay oracle: one trial's symbol track, one inverse-CDF draw per step.

    The trial's uniforms are draws trial * total .. (trial + 1) * total - 1
    of ``Generator(PCG64(seed))``; each step accumulates the current law
    (pi first, then the transition row of the previous symbol) until the
    running sum exceeds the uniform.
    """
    bit_generator = np.random.PCG64(seed)
    bit_generator.advance(trial * total)
    n = weights.n_symbols
    law = weights.stationary.tolist()
    track = []
    for u in np.random.Generator(bit_generator).random(total):
        symbol, acc = 0, 0.0
        while symbol < n - 1:
            acc += law[symbol]
            if acc > u:
                break
            symbol += 1
        track.append(symbol)
        law = weights.transition[symbol].tolist()
    return track


class TestContraction:
    def test_cantor_alpha_is_one_third(self):
        assert verify_G1(cantor_demo()) == pytest.approx(1 / 3)

    def test_expanding_branch_rejected_naming_symbol(self):
        with pytest.raises(ValueError, match="symbol 1"):
            SystemSpec(FULL2, 0.5, FAIR, [FiberMapSpec(0.3, 0.0), FiberMapSpec(1.1, -0.2)])

    def test_alpha_takes_maximum(self):
        sys = SystemSpec(FULL2, 0.5, FAIR, [FiberMapSpec(0.2, 0.0), FiberMapSpec(0.9, 0.05)])
        assert sys.alpha == pytest.approx(0.9)

    def test_range_violation_rejected(self):
        with pytest.raises(ValueError, match="outside the unit interval"):
            SystemSpec(FULL2, 0.5, FAIR, [FiberMapSpec(0.5, 0.7), FiberMapSpec(0.5, 0.0)])


class TestEstimateH:
    def test_symbol_only_offsets(self):
        # offsets 0 and 2/3 at base distance 1 give H = 2/3
        assert estimate_H(cantor_demo()) == pytest.approx(2 / 3)
        # on random affine pairs the endpoint form max(|db|, |da + db|)
        # equals the gap maximized over a dense y grid
        rng = np.random.default_rng(6)
        ys = np.linspace(0.0, 1.0, 1001)
        for _ in range(20):
            slopes = rng.uniform(-0.9, 0.9, 2)
            offsets = [rng.uniform(max(0.0, -a), min(1.0, 1.0 - a)) for a in slopes]
            sys = SystemSpec(FULL2, 0.5, FAIR, [FiberMapSpec(a, b) for a, b in zip(slopes, offsets)])
            ta, tb = branch_map(sys, (0,)), branch_map(sys, (1,))
            dense = np.abs((ta.a - tb.a) * ys + (ta.b - tb.b)).max()
            assert estimate_H(sys) == dense / word_distances(FULL2, 1, sys.theta)[0, 1]

    @pytest.mark.parametrize("sys,classes", [(coupled_demo(), 4), (MARKOV3, 7), (wide_system(5), 32)],
                             ids=["coupled", "markov3", "wide5"])
    def test_matches_pairwise_branch_loop(self, sys, classes):
        # oracle: the supremum over y of |G(u, y) - G(v, y)| / d(u, v), pair by pair
        assert len(np.unique(np.column_stack(sys.branches), axis=0)) == classes
        words = sys.matrix.words(sys.offset_depth)
        dist = word_distances(sys.matrix, sys.offset_depth, sys.theta)
        best = 0.0
        for a in range(len(words)):
            for b in range(a + 1, len(words)):
                ta, tb = branch_map(sys, words[a]), branch_map(sys, words[b])
                da, db = ta.a - tb.a, ta.b - tb.b
                best = max(best, max(abs(db), abs(da + db)) / dist[a, b])
        assert estimate_H(sys) == best

    def test_constant_offsets_give_zero(self):
        sys = SystemSpec(FULL2, 0.5, FAIR, [FiberMapSpec(0.5, 0.25), FiberMapSpec(0.5, 0.25)])
        assert estimate_H(sys) == 0.0

    def test_bounded_by_diameter_over_theta(self):
        # the branch images stay in the unit interval, so H <= diam/theta
        for sys in (cantor_demo(), coupled_demo(), markov_demo()):
            assert estimate_H(sys) <= 1.0 / sys.theta + 1e-12

    def test_doubling_corrections_at_most_doubles(self):
        sys = coupled_demo()
        halved = [FiberMapSpec(fm.slope, fm.offset, {k: v / 2 for k, v in fm.offset_table.items()})
                  for fm in sys.fiber_maps]
        h1 = estimate_H(SystemSpec(sys.matrix, sys.theta, sys.weights, halved, sys.offset_depth))
        h2 = estimate_H(sys)
        assert h2 <= 2 * h1 + 1e-12


class TestC1Constant:
    def test_cantor_value(self):
        # max{(2/3)(1/2) + 0, 2} = 2
        assert c1_constant(cantor_demo()) == pytest.approx(2.0)

    def test_formula_with_large_h(self):
        sys = SystemSpec(
            FULL2, 0.5, FAIR,
            [FiberMapSpec(0.05, 0.0), FiberMapSpec(0.05, 0.9)],
        )
        h = estimate_H(sys)  # 0.9 offsets at distance 1, twice theta scaling
        assert c1_constant(sys) == pytest.approx(max(h * 0.5, 2.0))

    def test_markov_weights_at_least_two(self):
        assert c1_constant(markov_demo()) >= 2.0

    def test_memory_is_linear_in_the_branches(self):
        # 4096 offset words, the MAX_WORDS cap, and 4059 distinct branches: one k x k table is 126 MiB
        sys = wide_system(12)
        assert np.unique(np.column_stack(sys.branches), axis=0).shape[0] == 4059
        tracemalloc.start()
        try:
            c1_constant(sys)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


class TestOrbits:
    def test_all_zero_symbols_fix_origin(self):
        sys = cantor_demo()
        ys = iterate_fiber(sys, [0] * 10, 0.0)
        assert np.all(ys == 0.0)

    def test_burn_in_error_bound_formula(self):
        assert (1 / 3) ** 40 < 1e-19

    def test_orbit_stays_in_unit_interval(self):
        _, ys = sample_orbits(cantor_demo(), seed=1, length=5000, trials=1, burn_in=40)
        assert ys.min() >= 0.0 and ys.max() <= 1.0

    def test_empirical_mean_matches_hutchinson_moment(self):
        # first moment of the invariant fiber law is 1/2
        _, ys = sample_orbits(cantor_demo(), seed=7, length=100_000, trials=1, burn_in=40)
        assert ys.mean() == pytest.approx(0.5, abs=0.01)

    def test_same_seed_is_bit_identical(self):
        a_symbols, a_ys = sample_orbits(coupled_demo(), seed=3, length=500, trials=1, burn_in=10)
        b_symbols, b_ys = sample_orbits(coupled_demo(), seed=3, length=500, trials=1, burn_in=10)
        assert np.array_equal(a_symbols, b_symbols)
        assert np.array_equal(a_ys, b_ys)

    def test_returns_two_arrays(self):
        symbols, ys = sample_orbits(MARKOV3, seed=4, length=30, trials=5, burn_in=7, window=4)
        # the window covers the larger of the requested 4 and the offset depth 3
        assert symbols.shape == (5, 30 + 4 - 1)
        assert ys.shape == (5, 30)

    def test_multi_orbit_matches_offsets_and_depth(self):
        sys = coupled_demo()
        symbols, ys = sample_orbits(sys, seed=11, length=200, trials=3, burn_in=5)
        for track, path in zip(symbols, ys):
            # replay the vectorized fiber recursion with the scalar one
            replay = iterate_fiber(sys, track, path[0])
            assert np.allclose(replay[:200], path, atol=1e-14)

    def test_trials_are_order_independent(self):
        sys = cantor_demo()
        _, many = sample_orbits(sys, seed=5, length=50, trials=4, burn_in=5)
        _, again = sample_orbits(sys, seed=5, length=50, trials=2, burn_in=5)
        assert np.array_equal(many[1], again[1])

    @pytest.mark.parametrize("name", ["cantor", "markov", "markov3"])
    def test_block_from_start_equals_rows_of_full_batch(self, name):
        sys = {"cantor": cantor_demo(), "markov": markov_demo(), "markov3": MARKOV3}[name]
        symbols, ys = sample_orbits(sys, seed=9, length=40, trials=23, burn_in=6, window=2)
        for lo, hi in ((0, 23), (0, 7), (7, 14), (14, 23), (22, 23)):
            part_symbols, part_ys = sample_orbits(
                sys, seed=9, length=40, trials=hi - lo, burn_in=6, window=2, start=lo
            )
            assert np.array_equal(part_symbols, symbols[lo:hi])
            assert part_symbols.dtype == symbols.dtype
            assert np.array_equal(part_ys, ys[lo:hi])

    def test_markov_track_starts_stationary(self):
        symbols, _ = sample_orbits(markov_demo(), seed=2, length=1, trials=4000, burn_in=0)
        assert np.mean(symbols[:, 0] == 0) == pytest.approx(5 / 6, abs=0.02)

    @pytest.mark.parametrize("name", ["cantor", "markov", "markov3"])
    def test_symbols_match_scalar_inverse_cdf_replay(self, name):
        sys = {"cantor": cantor_demo(), "markov": markov_demo(), "markov3": MARKOV3}[name]
        length, window = 60, 2
        # burn_in 0 keeps the first, stationary draw in the compared track
        for trials, burn_in in ((1, 0), (64, 0), (4, 9)):
            total = burn_in + length + max(window, sys.offset_depth) - 1
            symbols, _ = sample_orbits(sys, seed=13, length=length, trials=trials,
                                       burn_in=burn_in, window=window)
            for t in range(trials):
                replay = replay_symbols(sys.weights, 13, t, total)
                assert symbols[t].tolist() == replay[burn_in:]


def iid_rows_start_law_off_by_an_ulp():
    """Equal transition rows whose start law differs from them in the last bit.

    The inverse-CDF table then has a start row unlike the others, so the
    symbols are not i.i.d. draws from one row and the loop over time runs.
    """
    p = np.array([0.3, 0.7])
    pi = np.array([np.nextafter(0.3, 1.0), np.nextafter(0.7, 0.0)])
    return SystemSpec(FULL2, 0.5, BaseWeights(np.tile(p, (2, 1)), stationary=pi),
                      [FiberMapSpec(0.4, 0.0), FiberMapSpec(0.4, 0.6)])


def markov20():
    """A random Markov base on the full 20-symbol shift: 399 distinct thresholds, two-byte ranks."""
    w = np.random.default_rng(20).random((20, 20))
    return SystemSpec(TransitionMatrix(np.ones((20, 20), dtype=int)), 0.5,
                      BaseWeights(w / w.sum(axis=1, keepdims=True)),
                      [FiberMapSpec(0.4, 0.3 * i / 19) for i in range(20)])


ORACLE_SYSTEMS = {
    "cantor": (cantor_demo, 1),
    "coupled": (coupled_demo, 1),
    "markov3": (lambda: MARKOV3, 4),
    "markov": (markov_demo, 1),
    "iid_rows_start_law_off_by_an_ulp": (iid_rows_start_law_off_by_an_ulp, 1),
    "markov20": (markov20, 1),
}


class TestSamplerOracle:
    """The block-wide sampler against one Generator per trial and one loop over time, with ==."""

    @pytest.mark.parametrize("name", list(ORACLE_SYSTEMS))
    @pytest.mark.parametrize("length,trials,burn_in,start", [
        (50, 23, 6, 0),
        (300, 77, 40, 5),  # 339 steps: not a multiple of the 212-step fiber chunk
        (1, 9, 0, 3),
        (2, 1, 0, 0),
        (1, 4, 7, 1000),
        (3, 4, 2, 2**32 - 2),  # the first draw offset passes 2^32 * total inside the batch
        (2, 3, 1, 2**40),
    ])
    def test_equals_per_trial_oracle(self, name, length, trials, burn_in, start):
        build, window = ORACLE_SYSTEMS[name]
        sys = build()
        got = sample_orbits(sys, 5, length, trials, burn_in=burn_in, window=window, start=start)
        want = sample_orbits_per_trial(sys, 5, length, trials, burn_in=burn_in, window=window, start=start)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and a.flags.c_contiguous
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("cells", [1, 40, 1 << 20])
    def test_fiber_chunk_size_does_not_change_the_orbits(self, cells, monkeypatch):
        # symbol_tracks draws the uniforms of one trial at a time (1 and 40 cells) or of all at once;
        # the streamed fiber chunks of the same sizes meet the step-order oracle in test_limits.py
        for sys in (coupled_demo(), MARKOV3):
            want = sample_orbits_per_trial(sys, 2, 60, 40, burn_in=13)
            monkeypatch.setattr(skew, "FIBER_CELLS", cells)
            got = sample_orbits(sys, 2, 60, 40, burn_in=13)
            monkeypatch.undo()
            assert all(np.array_equal(a, b) for a, b in zip(got, want))


class TestSeed:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_trials_are_independent(self, seed):
        # fair i.i.d. symbols: the mean over trials of one step's symbols has
        # variance 1/(4 trials); correlated trial streams inflate it
        trials = 2000
        symbols, _ = sample_orbits(cantor_demo(), seed, length=500, trials=trials, burn_in=0)
        ratio = symbols.mean(axis=0).var() / (0.25 / trials)
        assert 0.75 <= ratio <= 1.3

    def test_negative_seed_is_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            sample_orbits(cantor_demo(), -1, 5, 2)
        with pytest.raises(ValueError, match="nonnegative"):
            sample_orbits(cantor_demo(), -(2**40), 5, 2)

    @pytest.mark.parametrize("seed", [1.0, "3", None])
    def test_non_integer_seed_is_rejected(self, seed):
        with pytest.raises(TypeError):
            sample_orbits(cantor_demo(), seed, 5, 2)


class TestOffsetTables:
    def test_key_depth_validated(self):
        with pytest.raises(ValueError, match="depth"):
            SystemSpec(
                FULL2, 0.5, FAIR,
                [FiberMapSpec(0.3, 0.0, {(0, 0): 0.1}), FiberMapSpec(0.3, 0.5)],
                offset_depth=1,
            )

    def test_inadmissible_key_rejected(self):
        # 1 -> 1 is not an admissible transition of the golden-mean shift, so (1, 1) names no offset word
        golden = TransitionMatrix([[1, 1], [1, 0]])
        weights = BaseWeights([[0.5, 0.5], [1.0, 0.0]])
        with pytest.raises(ValueError, match=r"offset key \(1, 1\) for symbol 1 is not an admissible word"):
            SystemSpec(golden, 0.5, weights, [FiberMapSpec(0.3, 0.0), FiberMapSpec(0.3, 0.5, {(1, 1): 0.1})],
                       offset_depth=2)

    @pytest.mark.parametrize("maps,match", [
        ([FiberMapSpec(float("nan"), 0.0), FiberMapSpec(0.3, 0.5)], "symbol 0 has"),
        ([FiberMapSpec(0.3, float("nan")), FiberMapSpec(0.3, 0.5)], r"cylinder \(0, 0\)"),
        ([FiberMapSpec(0.3, 0.0, {(0, 1): float("nan")}), FiberMapSpec(0.3, 0.5)], r"cylinder \(0, 1\)"),
    ], ids=["slope", "offset", "table_entry"])
    def test_nan_rejected(self, maps, match):
        # every comparison with NaN is false, so each check is written to fail on it
        with pytest.raises(ValueError, match=match):
            SystemSpec(FULL2, 0.5, FAIR, maps, offset_depth=2)

    def test_key_must_start_with_own_symbol(self):
        with pytest.raises(ValueError, match="own symbol"):
            SystemSpec(
                FULL2, 0.5, FAIR,
                [FiberMapSpec(0.3, 0.0, {(1, 0): 0.1}), FiberMapSpec(0.3, 0.5)],
                offset_depth=2,
            )

    def test_short_word_rejected(self):
        sys = coupled_demo()
        with pytest.raises(ValueError, match="at least 2 symbols"):
            branch_map(sys, (0,))
        assert branch_map(sys, (0, 0)).b == 0.0
        assert branch_map(sys, (0, 1)).b == pytest.approx(0.1)
        # longer words read only the offset-depth prefix
        assert branch_map(sys, (0, 1, 0)).b == branch_map(sys, (0, 1)).b
        with pytest.raises(ValueError, match="at least 3 symbols"):
            branch_map(MARKOV3, (2, 0))
