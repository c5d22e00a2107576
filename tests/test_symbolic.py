"""Tests for the subshift base: words, measures, Ruelle operator, mixing."""

import itertools
import math

import numpy as np
import pytest

from conftest import MARKOV3
from oracles import base_correlation, word_distances, word_index
from skewfiber.symbolic import (
    BaseWeights,
    CylinderFunction,
    TransitionMatrix,
    base_rate,
    cylinder_mass_vector,
    ruelle_apply,
)

FULL2 = TransitionMatrix([[1, 1], [1, 1]])
GOLDEN = TransitionMatrix([[1, 1], [1, 0]])
FAIR = BaseWeights.bernoulli([0.5, 0.5])
MARKOV_P = [[0.9, 0.1], [0.5, 0.5]]
MARKOV = BaseWeights(MARKOV_P, stationary=[5 / 6, 1 / 6])
GOLDEN_MARKOV = BaseWeights([[0.5, 0.5], [1.0, 0.0]])


def brute_force_words(entries, depth):
    """Exhaustive enumeration oracle: filter all symbol tuples by admissibility."""
    n = len(entries)
    out = []
    for cand in itertools.product(range(n), repeat=depth):
        if all(entries[a][b] for a, b in zip(cand[:-1], cand[1:])):
            out.append(cand)
    return out


class TestTransitionMatrix:
    def test_rejects_periodic_matrix(self):
        with pytest.raises(ValueError, match="aperiodic"):
            TransitionMatrix([[0, 1], [1, 0]])

    def test_256_symbols_at_wielandts_exponent(self):
        # the cycle 0 -> 1 -> ... -> N-1 -> 0 plus the chord N-1 -> 1 first turns
        # positive at the power (N-1)^2 + 1, Wielandt's bound; the cycle alone never does
        n = 256
        cycle = np.roll(np.eye(n, dtype=int), 1, axis=1)
        chord = cycle.copy()
        chord[n - 1, 1] = 1
        assert TransitionMatrix(chord).n_symbols == n
        with pytest.raises(ValueError, match="aperiodic"):
            TransitionMatrix(cycle)

    def test_rejects_empty_row(self):
        with pytest.raises(ValueError, match="row and column"):
            TransitionMatrix([[1, 1], [0, 0]])

    def test_rejects_non_binary(self):
        with pytest.raises(ValueError):
            TransitionMatrix([[1, 2], [1, 1]])

    def test_word_count_is_exact_without_enumerating(self):
        # golden-mean words of depth d are counted by the Fibonacci number F(d + 2)
        fib = [0, 1]
        while len(fib) < 103:
            fib.append(fib[-1] + fib[-2])
        assert GOLDEN.word_count(100) == fib[102]
        assert GOLDEN.word_count(0) == 1
        assert 100 not in GOLDEN._word_cache


class TestEnumerateWords:
    def test_full_shift_depth_two(self):
        assert list(FULL2.words(2)) == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_golden_mean_depth_two(self):
        # A[1][1] = 0 excludes the word 11
        assert list(GOLDEN.words(2)) == [(0, 0), (0, 1), (1, 0)]

    def test_golden_mean_depth_three_count(self):
        words = list(GOLDEN.words(3))
        assert words == brute_force_words([[1, 1], [1, 0]], 3)
        assert len(words) == 5

    def test_depth_zero_is_empty_word(self):
        assert list(GOLDEN.words(0)) == [()]

    def test_deep_tables_cache_only_the_depths_asked_for(self):
        # the one-symbol shift at depth 4096: caching every level below would hold
        # 1 + 2 + ... + 4096 intp entries of words alone, 64 MiB
        matrix = TransitionMatrix([[1]])
        matrix.word_array(4096), matrix.prefix_rows(4096, 1), matrix.preimages(4096)
        tables = [t for v in matrix._word_cache.values() for t in (v if isinstance(v, tuple) else (v,))]
        assert sum(t.nbytes for t in tables) < 4 * 2**20

    @pytest.mark.parametrize("matrix", [FULL2, GOLDEN])
    @pytest.mark.parametrize("depth", range(1, 9))
    def test_count_matches_matrix_power(self, matrix, depth):
        power = np.linalg.matrix_power(matrix.entries, depth - 1)
        assert len(matrix.words(depth)) == matrix.word_count(depth) == power.sum()


def distance(matrix, w1, w2, theta):
    """Entry of the distance table for two words of equal depth."""
    index = word_index(matrix, len(w1))
    return word_distances(matrix, len(w1), theta)[index[w1], index[w2]]


def mass(weights, matrix, word):
    """Entry of the cylinder mass vector for one word."""
    return cylinder_mass_vector(weights, matrix, len(word))[word_index(matrix, len(word))[word]]


class TestWordDistance:
    def test_identical_words(self):
        assert distance(FULL2, (0, 1, 0), (0, 1, 0), 0.5) == 0.0

    def test_first_index_disagreement(self):
        assert distance(FULL2, (0, 1), (1, 1), 0.5) == 1.0

    def test_all_indices_disagree(self):
        assert distance(FULL2, (0, 0, 0), (1, 1, 1), 0.5) == pytest.approx(1.75)

    @pytest.mark.parametrize("matrix", [FULL2, GOLDEN])
    @pytest.mark.parametrize("theta", [0.5, 1 / 3, 0.9])
    def test_table_matches_prefix_sum(self, matrix, theta):
        # the table adds theta^i in increasing i, as a scalar prefix sum does
        words = matrix.words(5)
        table = word_distances(matrix, 5, theta)
        assert table.shape == (len(words), len(words))
        for a, w1 in enumerate(words):
            for b, w2 in enumerate(words):
                expected = float(sum(theta**i for i, (x, y) in enumerate(zip(w1, w2)) if x != y))
                assert table[a, b] == expected

    def test_theta_checked(self):
        with pytest.raises(ValueError, match="theta"):
            word_distances(FULL2, 2, 1.0)


class TestBaseWeights:
    def test_bernoulli_is_the_equal_row_chain(self):
        w = BaseWeights.bernoulli([0.25, 0.75])
        assert w.transition.tolist() == [[0.25, 0.75], [0.25, 0.75]]
        assert w.stationary.tolist() == [0.25, 0.75]
        assert w.is_bernoulli
        assert not MARKOV.is_bernoulli

    def test_equal_row_markov_counts_as_bernoulli(self):
        assert BaseWeights([[0.25, 0.75], [0.25, 0.75]]).is_bernoulli

    def test_bernoulli_input_checks(self):
        with pytest.raises(ValueError, match="positive"):
            BaseWeights.bernoulli([1.5, -0.5])
        with pytest.raises(ValueError, match="sum to 1"):
            BaseWeights.bernoulli([0.6, 0.6])

    @pytest.mark.parametrize(
        "build,match",
        [
            (lambda: BaseWeights.bernoulli([math.nan, math.nan]), "positive"),
            (lambda: BaseWeights([[0.5, 0.5], [0.5, 0.5]], [math.nan, math.nan]), "positive"),
            (lambda: BaseWeights([[math.nan, 0.5], [0.5, 0.5]]), "nonnegative"),
        ],
        ids=["bernoulli", "stationary", "transition"],
    )
    def test_nan_rejected(self, build, match):
        with pytest.raises(ValueError, match=match):
            build()

    def test_stationary_needs_one_entry_per_symbol(self):
        with pytest.raises(ValueError, match="one entry per symbol"):
            BaseWeights([[0.5, 0.5], [0.5, 0.5]], [0.3, 0.3, 0.4])

    def test_bernoulli_needs_full_shift(self):
        assert FAIR.compatible_with(FULL2)
        assert not FAIR.compatible_with(GOLDEN)

    def test_repr_tells_measures_apart(self):
        reprs = {repr(w) for w in (FAIR, BaseWeights.bernoulli([0.6, 0.4]), MARKOV)}
        assert len(reprs) == 3


class TestCylinderMass:
    def test_bernoulli_product(self):
        assert mass(FAIR, FULL2, (0, 1, 1)) == pytest.approx(0.125)

    def test_markov_two_factor(self):
        # pi_0 * P_{01} = 5/6 * 0.1
        assert mass(MARKOV, FULL2, (0, 1)) == pytest.approx(5 / 6 * 0.1)

    def test_empty_word(self):
        assert cylinder_mass_vector(MARKOV, FULL2, 0).tolist() == [1.0]

    @pytest.mark.parametrize(
        "weights,matrix",
        [(FAIR, FULL2), (MARKOV, FULL2), (GOLDEN_MARKOV, GOLDEN)],
    )
    def test_vector_matches_left_to_right_product(self, weights, matrix):
        # bit for bit the product pi_{w0} P_{w0 w1} ... taken left to right
        for depth in range(1, 6):
            masses = cylinder_mass_vector(weights, matrix, depth)
            for got, w in zip(masses, matrix.words(depth)):
                expected = weights.stationary[w[0]]
                for a, b in zip(w[:-1], w[1:]):
                    expected *= weights.transition[a, b]
                assert got == expected

    @pytest.mark.parametrize("weights,matrix", [(FAIR, FULL2), (MARKOV, FULL2)])
    @pytest.mark.parametrize("depth", range(1, 9))
    def test_masses_sum_to_one(self, weights, matrix, depth):
        assert cylinder_mass_vector(weights, matrix, depth).sum() == pytest.approx(1.0, abs=1e-12)


class TestJacobianWeight:
    def test_bernoulli_is_symbol_weight(self):
        w = BaseWeights.bernoulli([0.25, 0.75])
        assert (w.jacobian[0] == 0.25).all()

    def test_bernoulli_within_one_ulp_of_symbol_weight(self):
        # p_i p_j / p_j is p_i up to the rounding of the product
        p = [0.6, 0.4]
        w = BaseWeights.bernoulli(p)
        for j in range(2):
            for i in range(2):
                assert abs(w.jacobian[i, j] - p[i]) <= np.spacing(p[i])

    def test_markov_hand_value(self):
        # (pi_1 P_{10}) / pi_0 = (1/6 * 0.5) / (5/6)
        assert MARKOV.jacobian[1, 0] == pytest.approx(0.1)

    @pytest.mark.parametrize("weights", [FAIR, MARKOV])
    def test_row_normalization(self, weights):
        # the branches into one target symbol carry total weight 1
        for total in weights.jacobian.sum(axis=0):
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_inadmissible_transition_gives_zero(self):
        assert GOLDEN_MARKOV.jacobian[1, 1] == 0.0


class TestPreimages:
    @pytest.mark.parametrize("matrix", [GOLDEN, MARKOV3.matrix])
    @pytest.mark.parametrize("depth", [1, 2, 3, 4])
    def test_matches_brute_force(self, matrix, depth):
        # oracle: every admissible extension i.w, target by target and symbol by symbol
        words = brute_force_words(matrix.entries.tolist(), depth)
        expected = [
            (t, words.index((i,) + w[:-1]), i, w[0])
            for t, w in enumerate(words)
            for i in range(matrix.n_symbols)
            if matrix.entries[i, w[0]]
        ]
        tables = matrix.preimages(depth)
        assert all(a.dtype == np.intp for a in tables)
        assert list(zip(*(a.tolist() for a in tables))) == expected

    def test_cached(self):
        assert MARKOV3.matrix.preimages(3) is MARKOV3.matrix.preimages(3)

    def test_depth_zero_rejected(self):
        with pytest.raises(ValueError, match="depth"):
            FULL2.preimages(0)


class TestRuelleApply:
    @pytest.mark.parametrize(
        "weights,matrix",
        [(MARKOV, FULL2), (GOLDEN_MARKOV, GOLDEN), (MARKOV3.weights, MARKOV3.matrix)],
    )
    @pytest.mark.parametrize("depth", [1, 2, 3, 4])
    def test_matches_defining_sum_bit_for_bit(self, weights, matrix, depth):
        # oracle: (Pf)(w) = sum over admissible i of g(i.w) f(i.w[:-1]), in symbol order
        rng = np.random.default_rng(depth)
        f = CylinderFunction(matrix, depth, rng.standard_normal(matrix.word_count(depth)))
        index = word_index(matrix, depth)
        expected = []
        for w in matrix.words(depth):
            total = 0.0
            for i in range(matrix.n_symbols):
                if matrix.entries[i, w[0]]:
                    total += weights.jacobian[i, w[0]] * f.values[index[(i,) + w[:-1]]]
            expected.append(total)
        assert ruelle_apply(f, weights).values.tolist() == expected

    def test_constant_one_is_fixed(self):
        f = CylinderFunction(FULL2, 3, np.full(FULL2.word_count(3), 1.0))
        out = ruelle_apply(f, MARKOV)
        assert np.allclose(out.values, 1.0, atol=1e-14)

    def test_indicator_of_first_symbol(self):
        f = CylinderFunction(FULL2, 1, [1.0, 0.0])
        out = ruelle_apply(f, FAIR)
        assert np.allclose(out.values, 0.5)

    @pytest.mark.parametrize("depth", [2, 3, 4])
    def test_zero_mean_collapse_for_bernoulli(self, depth):
        rng = np.random.default_rng(depth)
        f = CylinderFunction(FULL2, depth, rng.standard_normal(2**depth))
        f = CylinderFunction(FULL2, depth, f.values - f.mean(FAIR))
        for _ in range(depth):
            f = ruelle_apply(f, FAIR)
        assert np.abs(f.values).max() <= 1e-12

    def test_mean_preserved(self):
        rng = np.random.default_rng(1)
        for weights in (FAIR, MARKOV):
            f = CylinderFunction(FULL2, 3, rng.standard_normal(8))
            out = ruelle_apply(f, weights)
            assert out.mean(weights) == pytest.approx(f.mean(weights), abs=1e-10)

    def test_result_constant_on_shorter_cylinders(self):
        rng = np.random.default_rng(2)
        f = CylinderFunction(FULL2, 3, rng.standard_normal(8))
        out = ruelle_apply(f, MARKOV)
        idx = word_index(FULL2, 3)
        for w in FULL2.words(2):
            vals = [out.values[idx[w + (j,)]] for j in range(2)]
            assert vals[0] == pytest.approx(vals[1], abs=1e-14)


class TestBaseGapEstimate:
    """The exact base rate ``base_rate``: the spectral radius of P - 1 pi^T."""

    def test_bernoulli_collapses_to_rate_zero(self):
        # oracle: P - 1 pi^T is the zero matrix for a Bernoulli chain
        for p in ([0.5, 0.5], [0.55, 0.45], [0.2, 0.3, 0.5]):
            assert base_rate(BaseWeights.bernoulli(p)) == 0.0

    def test_markov_rate_matches_second_eigenvalue(self):
        # oracle: eigenvalues of the 2x2 stochastic matrix are 1 and 0.4
        lam2 = sorted(np.abs(np.linalg.eigvals(np.array(MARKOV_P))))[0]
        assert lam2 == pytest.approx(0.4, abs=1e-12)
        assert base_rate(MARKOV) == pytest.approx(0.4, abs=1e-12)

    def test_non_full_shift_rate_is_second_eigenvalue(self):
        # oracle: the second-largest |eigenvalue| of MARKOV3's stochastic matrix
        lam2 = sorted(np.abs(np.linalg.eigvals(MARKOV3.weights.transition)))[-2]
        assert base_rate(MARKOV3.weights) == pytest.approx(lam2, abs=1e-12)


class TestBaseCorrelation:
    def test_constant_observable_uncorrelated(self):
        psi = CylinderFunction(FULL2, 2, np.full(FULL2.word_count(2), 3.0))
        s = CylinderFunction(FULL2, 2, [1.0, -1.0, 0.5, 2.0])
        assert base_correlation(MARKOV, FULL2, psi, s, 4) == pytest.approx(0.0, abs=1e-14)

    @pytest.mark.parametrize("lag", [2, 3, 5])
    def test_bernoulli_independence_beyond_depth(self, lag):
        rng = np.random.default_rng(lag)
        psi = CylinderFunction(FULL2, 2, rng.standard_normal(4))
        s = CylinderFunction(FULL2, 2, rng.standard_normal(4))
        assert abs(base_correlation(FAIR, FULL2, psi, s, lag)) <= 1e-12

    def test_markov_lag_one_hand_value(self):
        # cov = pi_0 P_00 - pi_0^2 = 5/6 * 0.9 - (5/6)^2 = 1/18
        ind = CylinderFunction(FULL2, 1, [1.0, 0.0])
        got = base_correlation(MARKOV, FULL2, ind, ind, 1)
        assert got == pytest.approx(1 / 18, abs=1e-12)

    def test_markov_decay_rate_bounded_by_gap(self):
        # a two-state chain has one nontrivial eigenvalue, so the covariances
        # are exactly pi_0 pi_1 lambda^n and decay at the base rate; the
        # tolerance covers the cancellation in the lag-12 covariance
        rate = base_rate(MARKOV)
        ind = CylinderFunction(FULL2, 1, [1.0, 0.0])
        corr = [base_correlation(MARKOV, FULL2, ind, ind, n) for n in range(1, 13)]
        lags = np.arange(1, 13)
        slope, _ = np.polyfit(lags, np.log(np.abs(corr)), 1)
        assert np.exp(slope) == pytest.approx(rate, abs=1e-8)


class TestCylinderFunctionNorm:
    def test_constant_has_zero_lipschitz(self):
        f = CylinderFunction(FULL2, 3, np.full(FULL2.word_count(3), 2.5))
        assert f.lipschitz(0.5) == 0.0
        assert f.norm_theta(0.5) == 2.5

    def test_two_word_lipschitz(self):
        f = CylinderFunction(FULL2, 1, [0.0, 3.0])
        assert f.lipschitz(0.5) == pytest.approx(3.0)

    def test_lipschitz_uses_closest_pair(self):
        # words differing only at index 1 sit at distance theta
        f = CylinderFunction(FULL2, 2, [0.0, 1.0, 0.0, 0.0])
        assert f.lipschitz(0.5) == pytest.approx(2.0)

    @pytest.mark.parametrize("matrix,depth", [(FULL2, 7), (GOLDEN, 8), (MARKOV3.matrix, 5)],
                             ids=["full2", "golden", "markov3"])
    def test_many_valued_lipschitz_matches_dense_pairwise_loop(self, matrix, depth):
        # dozens of distinct values, some shared by several words, against every word pair of the n x n table
        rng = np.random.default_rng(12)
        n = matrix.word_count(depth)
        values = rng.choice(rng.normal(size=n // 2), n)
        dist = word_distances(matrix, depth, 0.4)
        best = max(abs(values[i] - values[j]) / dist[i, j] for i in range(n) for j in range(i + 1, n))
        assert len(np.unique(values)) >= 20
        assert CylinderFunction(matrix, depth, values).lipschitz(0.4) == best
