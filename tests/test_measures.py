"""Tests for atomic measures and the bounded-Lipschitz dual solver."""

import numpy as np
import pytest

from conftest import one_row
from oracles import AffineMap, integrate, pushforward, wk_distance_bruteforce
from skewfiber.measures import (
    AtomicMeasure,
    PiecewiseLinearFn,
    ZERO_MEASURE,
    merge_atoms,
    row_norms,
    wk_distance,
)
from skewfiber.transfer import change_between, quantize_disintegration


def random_measure(rng, n_atoms, signed=True, lo=-2.0, hi=2.0):
    pos = rng.random(n_atoms)
    w = rng.uniform(lo, hi, n_atoms) if signed else rng.uniform(0.1, hi, n_atoms)
    return AtomicMeasure(pos, w)


def random_probability(rng, n_atoms):
    w = rng.uniform(0.1, 1.0, n_atoms)
    return AtomicMeasure(rng.random(n_atoms), w / w.sum())


class TestAtomicMeasure:
    def test_canonicalization_sorts_and_merges(self):
        mu = AtomicMeasure([0.5, 0.2, 0.5], [1.0, 2.0, 3.0])
        assert mu.positions.tolist() == [0.2, 0.5]
        assert mu.weights.tolist() == [2.0, 4.0]

    def test_zero_weights_dropped(self):
        mu = AtomicMeasure([0.1, 0.9], [0.0, 1.0])
        assert mu.n_atoms == 1

    def test_positions_outside_unit_interval_rejected(self):
        with pytest.raises(ValueError):
            AtomicMeasure([1.5], [1.0])


class TestWkDistance:
    def test_identity_is_zero(self):
        mu = AtomicMeasure([0.1, 0.6], [1.0, -0.5])
        assert wk_distance(mu, mu) == 0.0

    def test_probability_vs_zero_is_one(self):
        # optimal test function is g == 1
        rng = np.random.default_rng(7)
        for _ in range(20):
            mu = random_probability(rng, rng.integers(1, 12))
            assert abs(wk_distance(mu) - 1.0) <= 1e-12

    def test_dirac_pair_quarter(self):
        # frozen from the grid LP reference: sup is attained by g(y) = |y - c|
        d = wk_distance(AtomicMeasure.dirac(0.0), AtomicMeasure.dirac(0.25))
        assert d == pytest.approx(0.25, abs=1e-12)

    def test_single_atom_weight_two(self):
        # g == 1 is optimal, confirmed by the grid reference
        assert wk_distance(AtomicMeasure.dirac(0.3, 2.0)) == pytest.approx(2.0, abs=1e-12)

    def test_dirac_distance_equals_position_gap(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            x, y = rng.random(2)
            d = wk_distance(AtomicMeasure.dirac(x), AtomicMeasure.dirac(y))
            assert d == pytest.approx(abs(x - y), abs=1e-14)

    def test_matches_bruteforce_on_random_signed_pairs(self):
        rng = np.random.default_rng(42)
        for _ in range(60):
            mu = random_measure(rng, rng.integers(1, 9))
            nu = random_measure(rng, rng.integers(1, 9))
            exact = wk_distance(mu, nu)
            ref = wk_distance_bruteforce(mu, nu)
            assert abs(exact - ref) <= 2e-3

    def test_symmetry_is_exact(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            mu = random_measure(rng, 5)
            nu = random_measure(rng, 6)
            assert wk_distance(mu, nu) == wk_distance(nu, mu)

    def test_triangle_inequality(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            mu, nu, rho = (random_measure(rng, rng.integers(1, 7)) for _ in range(3))
            assert wk_distance(mu, rho) <= wk_distance(mu, nu) + wk_distance(nu, rho) + 1e-10

    def test_positive_homogeneity(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            mu = random_measure(rng, 6)
            c = rng.uniform(0.1, 5.0)
            assert wk_distance(AtomicMeasure(mu.positions, c * mu.weights)) == pytest.approx(c * wk_distance(mu), rel=1e-12)

    def test_empty_measures(self):
        assert wk_distance(ZERO_MEASURE, ZERO_MEASURE) == 0.0
        assert wk_distance(ZERO_MEASURE) == 0.0


def row_pair(rng, kind):
    """(mu, nu) whose net measure mu - nu is of the given kind, on a coarse grid shared by both."""
    n = int(rng.integers(1, 7))
    grid = rng.integers(0, 9, size=(2, n)) / 8
    if kind == "empty":
        return (ZERO_MEASURE, ZERO_MEASURE) if rng.random() < 0.5 else (AtomicMeasure(grid[0], [1.0] * n),) * 2
    if kind == "one_signed":
        return AtomicMeasure(grid[0], rng.uniform(0.1, 2.0, n)), AtomicMeasure(grid[1], -rng.uniform(0.1, 2.0, n))
    if kind == "general":
        return AtomicMeasure(grid[0], rng.uniform(-2.0, 2.0, n)), AtomicMeasure(grid[1], rng.uniform(-2.0, 2.0, n))
    # dyadic weights sum without rounding; nu carries them in another order
    w = rng.integers(1, 129, n) / 64.0 * rng.choice([-1.0, 1.0], n)
    nu_w = rng.permutation(w)
    if kind == "near_balanced":
        nu_w[0] += rng.choice([-3e-13, 1e-15]) * np.abs(w).sum()
    return AtomicMeasure(grid[0], w), AtomicMeasure(grid[1], nu_w)


def net_kind(mu, nu):
    """Which branch of the dual norm the net measure mu - nu takes."""
    _, _, c = merge_atoms(0, np.r_[mu.positions, nu.positions], np.r_[mu.weights, -nu.weights])
    if c.size == 0:
        return "empty"
    if (c > 0).all() or (c < 0).all():
        return "one_signed"
    total = abs(c.sum())
    if total <= 1e-12 * np.abs(c).sum():
        return "balanced" if total == 0.0 else "near_balanced"
    return "general"


class TestRowNorms:
    KINDS = ("empty", "one_signed", "balanced", "near_balanced", "general")

    def test_rows_equal_wk_distance_of_their_pairs(self):
        rng = np.random.default_rng(17)
        seen, shared = set(), 0
        for _ in range(15):
            pairs = [row_pair(rng, kind) for kind in rng.choice(self.KINDS, 12)]
            rows = np.repeat(np.arange(len(pairs)), [mu.n_atoms + nu.n_atoms for mu, nu in pairs])
            pos = np.concatenate([np.r_[mu.positions, nu.positions] for mu, nu in pairs])
            w = np.concatenate([np.r_[mu.weights, -nu.weights] for mu, nu in pairs])
            # a shuffled table with two trailing rows that hold no atoms
            order = rng.permutation(w.size)
            norms = row_norms(rows[order], pos[order], w[order], len(pairs) + 2)
            assert norms.shape == (len(pairs) + 2,)
            assert norms[-2:].tolist() == [0.0, 0.0]
            for norm, (mu, nu) in zip(norms, pairs):
                seen.add(net_kind(mu, nu))
                shared += np.intersect1d(mu.positions, nu.positions).size > 0
                assert norm == wk_distance(mu, nu)
                # the LP bracket: the balanced form overestimates by at most 2 |net total|
                lp = wk_distance_bruteforce(mu, nu)
                net = abs(mu.total_weight() - nu.total_weight())
                assert lp - 1e-11 <= norm <= lp + 2 * net + 1e-11
        assert seen == {"empty", "one_signed", "balanced", "near_balanced", "general"}
        assert shared > 20


class TestPushforward:
    def test_dirac_through_cantor_branch(self):
        out = pushforward(AtomicMeasure.dirac(0.0), AffineMap(1 / 3, 2 / 3))
        assert out.positions.tolist() == [2 / 3]
        assert out.weights.tolist() == [1.0]

    def test_total_weight_preserved(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            mu = random_measure(rng, 8)
            out = pushforward(mu, AffineMap(0.4, 0.1))
            assert out.total_weight() == pytest.approx(mu.total_weight(), abs=1e-14)

    def test_contraction_shrinks_distance(self):
        # wk(T#mu, T#nu) <= |a| wk(mu, nu) for equal-mass pairs
        rng = np.random.default_rng(9)
        t = AffineMap(1 / 3, 0.0)
        for _ in range(25):
            mu = random_probability(rng, 4)
            nu = random_probability(rng, 4)
            assert wk_distance(pushforward(mu, t), pushforward(nu, t)) <= wk_distance(mu, nu) / 3 + 1e-12

    def test_expanding_map_rejected(self):
        with pytest.raises(ValueError):
            pushforward(AtomicMeasure.dirac(0.5), AffineMap(1.1, 0.0))

    def test_map_leaving_interval_rejected(self):
        with pytest.raises(ValueError):
            pushforward(AtomicMeasure.dirac(0.5), AffineMap(0.5, 0.7))


class TestQuantize:
    def test_on_grid_measure_unchanged(self):
        mu = AtomicMeasure([0.0, 0.25, 0.5], [1.0, -1.0, 2.0])
        out, bound = quantize_disintegration(one_row(mu), 4)
        assert out.pos.tolist() == [0.0, 0.25, 0.5]
        assert bound == 0.0

    def test_nearest_point_rounding(self):
        out, bound = quantize_disintegration(one_row(AtomicMeasure.dirac(0.26)), 2)
        assert out.pos.tolist() == [0.5]
        # the exact move 0.5 - 0.26, rounded up
        assert 0.5 - 0.26 < bound <= (0.5 - 0.26) * (1 + 1e-15)

    def test_rounding_of_summed_weights_is_charged(self):
        # 1 + 2^-60 rounds to 1: the sum loses the small atom's mass, far more than its one-ulp move costs
        mu = AtomicMeasure([0.5, np.nextafter(0.5, 1.0)], [1.0, 2.0**-60])
        out, bound = quantize_disintegration(one_row(mu), 2)
        assert out.w.tolist() == [1.0]
        assert 2.0**-60 <= change_between(one_row(mu), out) <= bound

    def test_measured_error_within_bound(self):
        rng = np.random.default_rng(21)
        mu = random_measure(rng, 100)
        out, bound = quantize_disintegration(one_row(mu), 512)
        assert wk_distance(mu, out.fibers[(0,)]) <= bound + 1e-14


class TestCombine:
    """Sums of measures, formed by merging their concatenated atoms."""

    def test_exact_cancellation(self):
        mu = AtomicMeasure([0.2, 0.8], [1.0, -2.0])
        rows, pos, w = merge_atoms(
            np.zeros(4, dtype=int),
            np.concatenate([mu.positions, mu.positions]),
            np.concatenate([mu.weights, -mu.weights]),
        )
        assert rows.size == pos.size == w.size == 0

    def test_union_of_atoms(self):
        rows, pos, w = merge_atoms([0, 0], [0.0, 1.0], [2.0, 1.0])
        assert pos.tolist() == [0.0, 1.0]
        assert w.tolist() == [2.0, 1.0]


class TestMergeAtoms:
    def test_rows_sort_before_positions(self):
        rows, pos, w = merge_atoms([1, 0, 1, 0], [0.1, 0.9, 0.1, 0.2], [1.0, 2.0, 3.0, 4.0])
        assert rows.tolist() == [0, 0, 1]
        assert pos.tolist() == [0.2, 0.9, 0.1]
        assert w.tolist() == [4.0, 2.0, 4.0]

    def test_coincident_atoms_sum_in_input_order(self):
        # 1e16 + 1 - 1e16 is 0 in floating point, 1e16 - 1e16 + 1 is 1
        _, _, w = merge_atoms([0, 0, 0, 0], [0.5, 0.2, 0.5, 0.5], [1e16, 1.0, -1e16, 1.0])
        assert w.tolist() == [1.0, 1.0]  # sorted path, stable
        _, _, w = merge_atoms([0, 0, 0], [0.5, 0.5, 0.5], [1e16, 1.0, -1e16])
        assert w.size == 0  # ordered path

    def test_nan_position_rejected(self):
        with pytest.raises(ValueError, match="must lie in"):
            merge_atoms(0, [float("nan")], [1.0])
        with pytest.raises(ValueError, match="must lie in"):
            merge_atoms(0, [0.5, float("nan")], [1.0, 1.0])

    def test_input_arrays_not_aliased(self):
        pos, w = np.array([0.1, 0.4]), np.array([1.0, 2.0])
        out = merge_atoms([0, 0], pos, w)
        out[1][0] = 0.3
        out[2][0] = 5.0
        assert pos.tolist() == [0.1, 0.4] and w.tolist() == [1.0, 2.0]


class TestIntegrate:
    def test_constant_function_gives_mass(self):
        mu = AtomicMeasure([0.1, 0.7], [0.4, 0.6])
        assert integrate(mu, PiecewiseLinearFn.constant(1.0)) == pytest.approx(1.0)

    def test_identity_on_dirac(self):
        mu = AtomicMeasure.dirac(2 / 3)
        assert integrate(mu, PiecewiseLinearFn.identity()) == pytest.approx(2 / 3)

    def test_cantor_first_moment(self):
        # moment equation E = (E/3)/2 + (E/3 + 2/3)/2 forces E = 1/2
        atoms = [(0.0, 1.0)]
        for _ in range(12):
            atoms = [(x / 3, w / 2) for x, w in atoms] + [(x / 3 + 2 / 3, w / 2) for x, w in atoms]
        mu = AtomicMeasure([x for x, _ in atoms], [w for _, w in atoms])
        assert integrate(mu, PiecewiseLinearFn.identity()) == pytest.approx(0.5, abs=1e-6)


class TestPiecewiseLinearFn:
    def test_derived_constants(self):
        h = PiecewiseLinearFn([0.0, 0.5, 1.0], [0.0, 1.0, -0.5])
        assert h.sup_norm() == 1.0
        assert h.lipschitz() == 3.0

    def test_requires_full_interval(self):
        with pytest.raises(ValueError):
            PiecewiseLinearFn([0.0, 0.5], [0.0, 1.0])
