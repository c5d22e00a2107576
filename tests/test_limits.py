"""Tests for observables, correlation decay, Gordin norms, and the CLT."""

import math
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from conftest import MARKOV3, random_disintegration
from oracles import (
    base_lipschitz,
    component,
    correlation_curve_per_word,
    correlation_lattice,
    exact_moment_closure,
    fiber_average_margin,
    integrate,
    observable_sums,
    sample_orbits,
    word_index,
)
from skewfiber.cli import parse_config
from skewfiber.demos import cantor_demo, coupled_demo
from skewfiber.fitting import exp_fit
from skewfiber.limits import (
    CoboundaryError,
    Observable,
    VarianceResult,
    _Closure,
    asymptotic_variance,
    clt_experiment,
    correlation_curve,
    fiber_average,
    gordin_norms,
    integrate_observable,
    ks_statistic,
)
from skewfiber.measures import AtomicMeasure, PiecewiseLinearFn
from skewfiber.skew import FiberMapSpec, SystemSpec
from skewfiber.symbolic import BaseWeights, TransitionMatrix, cylinder_mass_vector
from skewfiber.transfer import Disintegration, fixed_point, lip_constant

CANTOR = cantor_demo()
COUPLED = coupled_demo()
@pytest.fixture(scope="module")
def fixed():
    return fixed_point(CANTOR, depth=4, tol=1e-7, grid=1 << 14)


@pytest.fixture(scope="module")
def mu0(fixed):
    return fixed.disintegration


@pytest.fixture(scope="module")
def fixed_coupled():
    return fixed_point(COUPLED, depth=4, tol=1e-7, grid=1 << 14)


@pytest.fixture(scope="module")
def mu0_coupled(fixed_coupled):
    return fixed_coupled.disintegration


@pytest.fixture(scope="module")
def mu0_markov3():
    return fixed_point(MARKOV3, depth=4, tol=1e-6, grid=512).disintegration


def masses_by_word(sys, depth):
    return dict(zip(sys.matrix.words(depth), cylinder_mass_vector(sys.weights, sys.matrix, depth)))


def height_obs(sys=CANTOR):
    return Observable.fiber(sys.matrix, PiecewiseLinearFn.identity())


def first_symbol_indicator(sys=CANTOR):
    return Observable.base_only(sys.matrix, 1, {(0,): 1.0, (1,): 0.0})


class TestObservable:
    def test_component_slices_prefix(self):
        obs = first_symbol_indicator()
        assert component(obs, (0, 1, 1))(0.3) == 1.0
        assert component(obs, (1, 0))(0.3) == 0.0

    def test_constants(self):
        obs = height_obs()
        assert obs.sup_norm() == 1.0
        assert obs.fiber_lipschitz() == 1.0
        assert base_lipschitz(obs, 0.5) == 0.0

    def test_base_lipschitz(self):
        obs = first_symbol_indicator()
        assert base_lipschitz(obs, 0.5) == pytest.approx(1.0)

    @pytest.mark.parametrize("piece_of_word", [[0, 2], [-1, 0], [0, 0], [0]])
    def test_piece_table_must_match_the_words(self, piece_of_word):
        # an index out of range, a piece that no word reads, or a wrong word count
        h = PiecewiseLinearFn.identity()
        with pytest.raises(ValueError):
            Observable(CANTOR.matrix, 1, [h, h.shifted(1.0)], piece_of_word)


def random_observables(sys, depth, rng):
    """A base_only, a fiber and a components observable; the last shares one piece per last symbol."""
    words = sys.matrix.words(depth)
    shared = [PiecewiseLinearFn([0.0, 0.4, 1.0], rng.standard_normal(3)) for _ in range(sys.n_symbols)]
    return [
        Observable.base_only(sys.matrix, depth, {w: rng.standard_normal() for w in words}),
        Observable.fiber(sys.matrix, PiecewiseLinearFn([0.0, 0.3, 1.0], rng.standard_normal(3))),
        Observable(sys.matrix, depth, shared, [w[-1] for w in words]),
    ]


def fixed_point_of(name, mu0, mu0_coupled, mu0_markov3):
    return {
        "cantor": (CANTOR, mu0),
        "coupled": (COUPLED, mu0_coupled),
        "markov3": (MARKOV3, mu0_markov3),
    }[name]


class TestEvaluator:
    @pytest.mark.parametrize("depth", [1, 2, 3, 4])
    @pytest.mark.parametrize("sys", [CANTOR, MARKOV3], ids=["cantor", "markov3"])
    def test_weigh_matches_evaluate(self, sys, depth):
        # oracle: each word's own component, one word and one atom at a time
        rng = np.random.default_rng(depth)
        dis = random_disintegration(sys.matrix, depth, rng)
        for obs in random_observables(sys, depth, rng):
            weighed = obs.weigh(dis).fibers
            for w, mu in dis.fibers.items():
                expected = [x * float(component(obs, w)(y)) for y, x in zip(mu.positions.tolist(), mu.weights.tolist())]
                assert np.array_equal(weighed[w].positions, mu.positions)
                assert np.array_equal(weighed[w].weights, expected)

    @pytest.mark.parametrize("name", ["cantor", "coupled", "markov3"])
    def test_fiber_integrals_match_per_fiber_loop(self, name, mu0, mu0_coupled, mu0_markov3):
        # oracle: integrate on each word's fiber, then the weighted sums
        sys, dis = fixed_point_of(name, mu0, mu0_coupled, mu0_markov3)
        rng = np.random.default_rng(3)
        masses = cylinder_mass_vector(sys.weights, sys.matrix, dis.depth)
        fibers = dis.fibers
        fiber_masses = np.array([fibers[w].total_weight() for w in dis.words()])
        for depth in (1, 2, dis.depth):
            for obs in random_observables(sys, depth, rng):
                integrals = np.array([integrate(fibers[w], component(obs, w)) for w in dis.words()])
                mean = float(np.dot(masses, integrals))
                assert integrate_observable(sys, dis, obs) == pytest.approx(mean, rel=1e-12)
                average = fiber_average(dis, obs).values
                assert np.allclose(average, integrals / fiber_masses, rtol=1e-12, atol=0.0)
                centered = obs.shifted(-mean)
                s = np.array([integrate(fibers[w], component(centered, w)) for w in dis.words()])
                level0 = gordin_norms(sys, dis, obs, nmax=0)[0]
                # centered integrals of a product fixed point are rounding noise, hence the floor
                assert level0 == pytest.approx(math.sqrt(np.dot(masses, s**2)), rel=1e-12, abs=1e-14)

    def test_each_cell_is_evaluated_once(self):
        cells = []

        def counted(h):
            def evaluate(ys):
                cells.append(ys.size)
                return h(ys)
            return evaluate

        shared = [counted(PiecewiseLinearFn([0.0, 1.0], [i, i + 1.0])) for i in range(3)]
        words = MARKOV3.matrix.words(3)
        phi = Observable(MARKOV3.matrix, 3, shared, [w[-1] for w in words])
        # the fiber follows the first symbol and the piece the last, so words share (fiber, piece) pairs
        rng = np.random.default_rng(2)
        fibers = [AtomicMeasure(rng.random(k + 2), rng.uniform(0.1, 1.0, k + 2)) for k in range(3)]
        dis = Disintegration.from_fibers(MARKOV3.matrix, 3, {w: fibers[w[0]] for w in words})
        phi.weigh(dis, lambda v: v * v)
        pairs = {(w[0], w[-1]) for w in words}
        assert len(cells) == 3 and len(pairs) < len(words)
        assert sum(cells) == sum(fibers[first].positions.size for first, _ in pairs)


class TestIntegrateObservable:
    def test_constant_one_integrates_to_one(self, mu0):
        one = Observable.base_only(CANTOR.matrix, 1, {(0,): 1.0, (1,): 1.0})
        assert integrate_observable(CANTOR, mu0, one) == pytest.approx(1.0, abs=1e-10)

    def test_height_gives_hutchinson_moment(self, mu0):
        assert integrate_observable(CANTOR, mu0, height_obs()) == pytest.approx(0.5, abs=1e-6)

    def test_linearity(self, mu0):
        rng = np.random.default_rng(0)
        h1 = PiecewiseLinearFn([0, 0.5, 1], rng.standard_normal(3))
        h2 = PiecewiseLinearFn([0, 0.25, 1], rng.standard_normal(3))
        o1 = Observable.fiber(CANTOR.matrix, h1)
        o2 = Observable.fiber(CANTOR.matrix, h2)
        combo = Observable.fiber(
            CANTOR.matrix,
            PiecewiseLinearFn(
                np.union1d(h1.breakpoints, h2.breakpoints),
                2 * h1(np.union1d(h1.breakpoints, h2.breakpoints))
                + h2(np.union1d(h1.breakpoints, h2.breakpoints)),
            ),
        )
        lhs = integrate_observable(CANTOR, mu0, combo)
        rhs = 2 * integrate_observable(CANTOR, mu0, o1) + integrate_observable(CANTOR, mu0, o2)
        assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_depth_mismatch_rejected(self, mu0):
        deep = Observable.base_only(CANTOR.matrix, 6, {w: 0.0 for w in CANTOR.matrix.words(6)})
        with pytest.raises(ValueError, match="depth"):
            integrate_observable(CANTOR, mu0, deep)


class TestFiberAverage:
    def test_base_only_average_returns_values(self, mu0):
        psi = first_symbol_indicator()
        s = fiber_average(mu0, psi)
        index = word_index(s.matrix, s.depth)
        for w in mu0.words():
            assert s.values[index[w]] == pytest.approx(component(psi, w)(0.0), abs=1e-12)

    def test_product_system_height_average_constant(self, mu0):
        s = fiber_average(mu0, height_obs())
        assert np.allclose(s.values, 0.5, atol=1e-6)
        assert s.lipschitz(CANTOR.theta) <= 1e-9

    def test_bound_margin_on_random_observables(self, mu0_coupled):
        rng = np.random.default_rng(1)
        lip_mu0 = lip_constant(mu0_coupled, COUPLED.theta)
        for _ in range(5):
            h = PiecewiseLinearFn([0.0, 0.4, 1.0], rng.uniform(-1, 1, 3))
            obs = Observable.fiber(COUPLED.matrix, h)
            assert fiber_average_margin(COUPLED, mu0_coupled, obs, lip_mu0) >= -1e-8


class TestCorrelationCurve:
    def test_exact_zero_for_iid_base_only_blocks(self, fixed):
        # depth-k base observables over an i.i.d. base decorrelate beyond lag k
        rng = np.random.default_rng(2)
        k = 2
        vals_a = {w: rng.standard_normal() for w in CANTOR.matrix.words(k)}
        vals_b = {w: rng.standard_normal() for w in CANTOR.matrix.words(k)}
        now = Observable.base_only(CANTOR.matrix, k, vals_a)
        later = Observable.base_only(CANTOR.matrix, k, vals_b)
        curve = correlation_curve(CANTOR, fixed, now, later, nmax=8)
        assert np.abs(curve.values[k:]).max() <= 1e-12

    def test_cantor_base_to_fiber_closed_form(self, fixed):
        # conditioning on the first symbol moves the fiber mean by -(1/3)^n / 2
        curve = correlation_curve(CANTOR, fixed, first_symbol_indicator(), height_obs(), nmax=10)
        for n in range(1, 11):
            assert curve.values[n] == pytest.approx(-0.5 * 3.0**-n, abs=5e-5)
        fit = exp_fit(curve.lags, curve.values)
        assert fit.rate == pytest.approx(1 / 3, abs=0.02)
        assert fit.r_squared >= 0.99

    def test_matches_lattice_oracle_at_small_lags(self, fixed_coupled):
        now = first_symbol_indicator(COUPLED)
        later = height_obs(COUPLED)
        curve = correlation_curve(COUPLED, fixed_coupled, now, later, nmax=4, grid=None)
        for lag in range(5):
            direct = correlation_lattice(COUPLED, fixed_coupled.disintegration, now, later, lag)
            assert curve.values[lag] == pytest.approx(direct, abs=1e-10)

    def test_forward_observable_orientation_vanishes_for_product(self, fixed):
        # the displayed decay statement pairs a later base observable with a
        # current Lipschitz observable; for a product measure it is zero
        curve = correlation_curve(CANTOR, fixed, height_obs(), first_symbol_indicator(), nmax=6)
        assert np.abs(curve.values).max() <= curve.err_bounds.max() + 1e-12

    def test_zero_mean_now_gives_zero_everything(self, fixed):
        zero = Observable.base_only(CANTOR.matrix, 1, {(0,): 0.0, (1,): 0.0})
        curve = correlation_curve(CANTOR, fixed, zero, height_obs(), nmax=4)
        assert np.abs(curve.values).max() == 0.0

    def test_deep_base_only_later_matches_per_word_reference(self):
        # a two-valued depth-6 observable is two pieces, and every lag reads them as each word's own value
        fixed6 = fixed_point(COUPLED, depth=6, tol=1e-6, grid=1024)
        words = COUPLED.matrix.words(6)
        later = Observable.base_only(COUPLED.matrix, 6, {w: float(w[:2] == (0, 1) or w[-2:] == (1, 1)) for w in words})
        assert len(later.pieces) == 2
        curve = correlation_curve(COUPLED, fixed6, height_obs(COUPLED), later, nmax=6, grid=1024)
        values, errs = correlation_curve_per_word(COUPLED, fixed6, height_obs(COUPLED), later, 6, 1024)
        assert np.array_equal(curve.values, values)
        assert np.array_equal(curve.err_bounds, errs)


def gordin_norms_word_sum(sys, mu0, phi, nmax):
    """Oracle: conditional expectations on the future algebra by explicit word sums.

    At level n the conditional expectation on the tail word v averages the
    fiber integrals of the centered observable over all admissible length-n
    pasts u, weighted by m([uv]) / m([v]).  Exponential in n.
    """
    matrix = sys.matrix
    phit = phi.shifted(-integrate_observable(sys, mu0, phi))
    norms = np.empty(nmax + 1)
    fibers = mu0.fibers
    for n in range(nmax + 1):
        depth_v = max(1, mu0.depth - n)
        masses_v = masses_by_word(sys, depth_v)
        masses_uv = masses_by_word(sys, n + depth_v)
        total = 0.0
        for v in matrix.words(depth_v):
            mass_v = masses_v[v]
            acc = 0.0
            for u in matrix.words(n):
                if n and not matrix.entries[u[-1], v[0]]:
                    continue
                uv = u + v
                fiber_integral = integrate(fibers[uv[: mu0.depth]], component(phit, uv))
                acc += masses_uv[uv] * fiber_integral
            total += (acc / mass_v) ** 2 * mass_v
        norms[n] = math.sqrt(total)
    return norms


class TestGordin:
    def test_level_zero_matches_fiber_average_norm(self, mu0_coupled):
        phi = height_obs(COUPLED)
        m = integrate_observable(COUPLED, mu0_coupled, phi)
        norms = gordin_norms(COUPLED, mu0_coupled, phi, nmax=3)
        s = fiber_average(mu0_coupled, phi.shifted(-m))
        masses = masses_by_word(COUPLED, mu0_coupled.depth)
        index = word_index(s.matrix, s.depth)
        expected = math.sqrt(sum(masses[w] * s.values[index[w]] ** 2 for w in mu0_coupled.words()))
        assert norms[0] == pytest.approx(expected, abs=1e-10)

    def test_base_only_iid_vanishes_beyond_depth(self, mu0):
        rng = np.random.default_rng(4)
        vals = {w: rng.standard_normal() for w in CANTOR.matrix.words(2)}
        phi = Observable.base_only(CANTOR.matrix, 2, vals)
        norms = gordin_norms(CANTOR, mu0, phi, nmax=6)
        assert np.abs(norms[2:]).max() <= 1e-12

    def test_product_system_fiber_observable_projects_to_zero(self, mu0):
        # all fibers of the product fixed point agree, so conditioning on the
        # future tells nothing about the fiber coordinate
        norms = gordin_norms(CANTOR, mu0, height_obs(), nmax=6)
        assert np.abs(norms).max() <= 1e-12
        # the fit the command line reports degenerates to rate 0, ratio margin 1
        assert exp_fit(np.arange(norms.size), norms).rate == 0.0

    def test_coupled_system_decays_then_truncates(self, mu0_coupled):
        norms = gordin_norms(COUPLED, mu0_coupled, height_obs(COUPLED), nmax=6)
        assert norms[0] > 1e-4
        assert norms[4] <= 1e-12  # beyond the working depth the algebra is exhausted
        assert exp_fit(np.arange(norms.size), norms).rate < 1.0

    @pytest.mark.parametrize("name", ["cantor", "coupled", "markov3"])
    def test_matches_word_sum_oracle(self, name, mu0, mu0_coupled, mu0_markov3):
        sys, dis = {
            "cantor": (CANTOR, mu0),
            "coupled": (COUPLED, mu0_coupled),
            "markov3": (MARKOV3, mu0_markov3),
        }[name]
        phi = height_obs(sys)
        norms = gordin_norms(sys, dis, phi, nmax=8)
        oracle = gordin_norms_word_sum(sys, dis, phi, nmax=8)
        assert np.abs(norms - oracle).max() <= 1e-12

    def test_markov_sft_norms_do_not_truncate(self, mu0_markov3):
        # a Markov base keeps memory past the working depth, unlike the i.i.d. demos
        norms = gordin_norms(MARKOV3, mu0_markov3, height_obs(MARKOV3), nmax=8)
        assert norms[8] > 1e-12
        assert exp_fit(np.arange(norms.size), norms).rate < 1.0

    def test_deep_levels_are_cheap(self, mu0):
        started = time.perf_counter()
        norms = gordin_norms(CANTOR, mu0, height_obs(), nmax=25)
        elapsed = time.perf_counter() - started
        assert norms.size == 26
        assert np.abs(norms).max() <= 1e-12
        assert elapsed < 1.0


class TestAsymptoticVariance:
    def test_lag_zero_is_the_variance_of_the_moments(self):
        # C_0 = sum_w m_w int (y - mean)^2 d mu|_w = m.(M_2 - 2 mean M_1) + mean^2
        for sys, depth in ((CANTOR, 4), (COUPLED, 3), (MARKOV3, 4)):
            var = asymptotic_variance(sys, height_obs(sys), depth, 3)
            closure = _Closure(sys, depth)
            m1, m2 = closure.m1, closure.m2
            masses = cylinder_mass_vector(sys.weights, sys.matrix, depth)
            direct = float(np.dot(masses, m2.x - 2.0 * var.mean * m1.x)) + var.mean**2
            assert var.mean == pytest.approx(float(np.dot(masses, m1.x)), abs=1e-15)
            assert var.lags[0] == pytest.approx(direct, abs=1e-14)

    def test_cantor_height_autocovariances_closed_form(self):
        # var = 1/8 and cov_j = var / 3^j for the middle-third fixed point
        var = asymptotic_variance(CANTOR, height_obs(), 4, 12)
        assert var.lags.size == var.lag_errors.size == 13
        for j in range(13):
            assert abs(var.lags[j] - 3.0**-j / 8) <= var.lag_errors[j]

    @pytest.mark.parametrize("depth", [1, 2, 4, 7])
    def test_cantor_height_sigma2_is_quarter(self, depth):
        # 1/8 + 2 * (1/8) * sum 3^-j = 1/4, at every working depth
        var = asymptotic_variance(CANTOR, height_obs(), depth, 30)
        assert 0.0 < var.numeric_error <= 1e-12
        assert abs(var.sigma2 - 0.25) <= var.numeric_error
        assert abs(var.mean - 0.5) <= var.mean_error
        assert not abs(var.sigma2) <= var.numeric_error
        assert [name for name, _, _ in var.solves] == ["M1", "M2", "V"]

    def test_sigma2_does_not_depend_on_the_lag_count(self):
        # no truncation enters sigma^2: the lags only fill the autocovariance table
        v30 = asymptotic_variance(MARKOV3, height_obs(MARKOV3), 4, 30)
        v35 = asymptotic_variance(MARKOV3, height_obs(MARKOV3), 4, 35)
        assert (v30.sigma2, v30.numeric_error) == (v35.sigma2, v35.numeric_error)
        assert np.array_equal(v30.lags, v35.lags[:31])

    def test_constant_observable_flags_coboundary(self):
        const = Observable.base_only(CANTOR.matrix, 1, {(0,): 2.0, (1,): 2.0})
        var = asymptotic_variance(CANTOR, const, 4, 5)
        assert var.sigma2 == pytest.approx(0.0, abs=1e-12)
        assert abs(var.sigma2) <= var.numeric_error

    def test_telescoping_coboundary_flagged(self):
        # phi = u o F - u for base-only depth-1 u: variance telescopes to zero
        rng = np.random.default_rng(6)
        u0, u1 = rng.standard_normal(2)
        u_vals = {(0,): u0, (1,): u1}
        vals = {w: u_vals[(w[1],)] - u_vals[(w[0],)] for w in CANTOR.matrix.words(2)}
        phi = Observable.base_only(CANTOR.matrix, 2, vals)
        var = asymptotic_variance(CANTOR, phi, 4, 20)
        assert abs(var.sigma2) <= var.numeric_error

    def test_centering_invariance(self):
        phi = height_obs()
        a = asymptotic_variance(CANTOR, phi, 4, 10)
        b = asymptotic_variance(CANTOR, phi.shifted(3.7), 4, 10)
        assert abs(a.sigma2 - b.sigma2) <= a.numeric_error + b.numeric_error
        assert abs(b.mean - a.mean - 3.7) <= a.mean_error + b.mean_error + 2.0**-50

    @pytest.mark.parametrize("config,by_hand", [
        ("bench/configs/cantor_small.json", 0.25), ("src/skewfiber/data/cantor_demo.json", 0.25),
        ("src/skewfiber/data/coupled_demo.json", 0.25),
        ("bench/configs/markov3_small.json", None), ("bench/configs/markov3.json", None),
    ])
    def test_clt_configs_read_the_exact_sigma2(self, config, by_hand):
        # what ``clt`` reads: phi = y at the config's depth; 1/4 by hand on the middle-third branches
        cfg = parse_config(Path(__file__).resolve().parents[1] / config)
        phi = height_obs(cfg.system)
        var = asymptotic_variance(cfg.system, phi, cfg.depth, cfg.clt.truncation)
        assert var.numeric_error <= 1e-12 and var.lags.size == cfg.clt.truncation + 1
        if by_hand is None:
            by_hand = exact_moment_closure(cfg.system, phi, cfg.depth, 0)[1]
        assert abs(Fraction(var.sigma2) - Fraction(by_hand)) <= Fraction(var.numeric_error)

    def test_non_affine_observable_is_rejected(self):
        tent = Observable.fiber(CANTOR.matrix, PiecewiseLinearFn([0.0, 0.5, 1.0], [0.0, 1.0, 0.0]))
        with pytest.raises(ValueError, match="affine in y on each word"):
            asymptotic_variance(CANTOR, tent, 4, 5)
        deep = Observable.base_only(CANTOR.matrix, 3, dict.fromkeys(CANTOR.matrix.words(3), 1.0))
        with pytest.raises(ValueError, match="phi of depth at most 2"):
            asymptotic_variance(CANTOR, deep, 2, 5)

    @pytest.mark.parametrize("now", ["phi", "psi"])
    @pytest.mark.parametrize("name,depth", [("cantor", 2), ("coupled", 2), ("markov3", 3), ("random", 3)])
    def test_float_bounds_hold_against_exact_rationals(self, name, depth, now):
        # the oracle evaluates the same closure on the same float tables in Fractions
        if name == "random":
            rng = np.random.default_rng(3)
            transition = rng.uniform(0.1, 1.0, (2, 2))
            slopes = rng.uniform(-0.6, 0.6, 2)
            sys = SystemSpec(TransitionMatrix([[1, 1], [1, 1]]), 0.5, BaseWeights(transition / transition.sum(1, keepdims=True)),
                             [FiberMapSpec(a, rng.uniform(max(0.0, -a), min(1.0, 1.0 - a))) for a in slopes])
            comps = [PiecewiseLinearFn([0.0, 1.0], rng.standard_normal(2)) for _ in sys.matrix.words(2)]
            phi = Observable(sys.matrix, 2, comps, np.arange(len(comps)))
        else:
            sys = {"cantor": CANTOR, "coupled": COUPLED, "markov3": MARKOV3}[name]
            phi = height_obs(sys)
        if now == "phi":
            var = asymptotic_variance(sys, phi, depth, 12)
            mean, sigma2, lags, _, _ = exact_moment_closure(sys, phi, depth, 12)
            assert abs(Fraction(var.mean) - mean) <= Fraction(var.mean_error)
            assert abs(Fraction(var.sigma2) - sigma2) <= Fraction(var.numeric_error)
            values = zip(var.lags.tolist(), var.lag_errors.tolist())
        else:
            # two observables, as ``correlations`` pairs them: a depth-1 base_only psi now, phi = y later
            psi = Observable.base_only(sys.matrix, 1, dict(zip(sys.matrix.words(1), (0.75, -1.25, 0.5))))
            closure = _Closure(sys, depth)
            pairs = (closure.centre(obs)[1:] for obs in (psi, height_obs(sys)))
            values = ((c.x, c.e) for c in closure.lags(*pairs, 12))
            lags = exact_moment_closure(sys, psi, depth, 12, later=height_obs(sys))[2]
        for (value, err), exact in zip(values, lags, strict=True):
            assert abs(Fraction(value) - exact) <= Fraction(err)


class TestCLT:
    def test_observable_sums_match_scalar_evaluation(self):
        phi = height_obs(COUPLED)
        symbols, ys = sample_orbits(COUPLED, seed=8, length=40, trials=3, burn_in=5, window=2)
        sums = observable_sums(phi, symbols, ys)
        for track, path, total in zip(symbols, ys, sums):
            direct = sum(component(phi, track[t:t + 2])(path[t]) for t in range(40))
            assert total == pytest.approx(direct, abs=1e-10)

    def test_shared_component_is_evaluated_once(self, mu0_markov3):
        calls = []
        h = PiecewiseLinearFn.identity()

        def counted(ys):
            calls.append(ys.shape)
            return h(ys)

        weighed = Observable.fiber(MARKOV3.matrix, counted).weigh(mu0_markov3)
        assert len(calls) == 1
        plain = Observable.fiber(MARKOV3.matrix, h).weigh(mu0_markov3)
        assert np.array_equal(weighed.fiber_masses(), plain.fiber_masses())

    def test_deep_window_rows_do_not_overflow(self):
        # depth-6 windows read from one-byte symbol tracks: their base-3 codes reach 728,
        # beyond the symbol dtype, and each of the 182 words gets its own component
        rng = np.random.default_rng(12)
        comps = [PiecewiseLinearFn([0.0, 1.0], rng.standard_normal(2)) for _ in MARKOV3.matrix.words(6)]
        phi = Observable(MARKOV3.matrix, 6, comps, np.arange(len(comps)))
        symbols, ys = sample_orbits(MARKOV3, seed=5, length=60, trials=8, burn_in=5, window=6)
        assert symbols.dtype == np.uint8
        windows = [symbols[:, j:60 + j] for j in range(6)]
        rows = MARKOV3.matrix.window_rows(windows)
        assert np.array_equal(MARKOV3.matrix.word_array(6)[rows], np.stack(windows, axis=-1))
        sums = observable_sums(phi, symbols, ys)
        for track, path, total in zip(symbols, ys, sums):
            direct = sum(component(phi, track[t:t + 6])(path[t]) for t in range(60))
            assert total == pytest.approx(direct, abs=1e-10)

    @pytest.mark.parametrize("n", [1, 2, 7, 100, 2000])
    @pytest.mark.parametrize("sigma", [0.05, 0.5, 1.0, 3.0])
    def test_ks_statistic_equals_scipy_kstest(self, n, sigma):
        from scipy import stats

        rng = np.random.default_rng(n)
        x = rng.standard_normal(n) * rng.uniform(0.3, 3.0) + rng.uniform(-0.3, 0.3)
        expected = float(stats.kstest(x, "norm", args=(0.0, sigma)).statistic)
        # two ulps of 1.0: both CDFs lie within about one ulp of the normal CDF
        assert abs(ks_statistic(x, sigma) - expected) <= 2.0**-51

    def test_small_cantor_run_passes(self):
        phi = height_obs()
        variance = asymptotic_variance(CANTOR, phi, 4, 30)
        res = clt_experiment(CANTOR, phi, length=300, trials=400, seed=0, variance=variance)
        assert res.passed
        assert abs(variance.sigma2 - 0.25) <= variance.numeric_error

    def test_two_segment_observable_is_rejected_before_any_draw(self, monkeypatch):
        from skewfiber import skew

        def refuse(*args, **kwargs):
            raise AssertionError("the orbit stream read phi as p + q y on a piece that is not affine")

        monkeypatch.setattr(skew, "symbol_tracks", refuse)
        tent = Observable.fiber(CANTOR.matrix, PiecewiseLinearFn([0.0, 0.5, 1.0], [0.0, 1.0, 0.0]))
        variance = asymptotic_variance(CANTOR, height_obs(), 4, 5)
        with pytest.raises(ValueError, match="affine in y on each word"):
            clt_experiment(CANTOR, tent, length=50, trials=100, seed=0, variance=variance)

    @pytest.mark.parametrize("sys_name", ["cantor", "markov3"])
    def test_ks_statistic_does_not_depend_on_the_block(self, sys_name, monkeypatch):
        from skewfiber import limits, skew

        sys, length, trials = {"cantor": (CANTOR, 60, 100), "markov3": (MARKOV3, 50, 100)}[sys_name]
        phi = height_obs(sys)
        variance = asymptotic_variance(sys, phi, 4, 10)
        cells = limits.BURN_IN + length + max(phi.depth, sys.offset_depth) - 1
        results = []
        for per_block in (trials, 7, 1):
            monkeypatch.setattr(skew, "BLOCK_CELLS", per_block * cells)
            res = clt_experiment(sys, phi, length, trials, seed=4, variance=variance)
            results.append(res.ks_statistic)
        assert results[0] == results[1] == results[2]

    @pytest.mark.parametrize("name", ["cantor", "coupled", "coupled_depth2", "markov3_depth6"])
    @pytest.mark.parametrize("fiber_cells", [1, 40, 1 << 20])
    def test_streamed_sums_equal_the_step_order_oracle(self, name, fiber_cells, monkeypatch):
        from skewfiber import limits, skew

        sys = {"cantor": CANTOR, "coupled": COUPLED, "coupled_depth2": COUPLED, "markov3_depth6": MARKOV3}[name]
        phi = height_obs(sys)
        rng = np.random.default_rng(6)
        if name == "markov3_depth6":
            comps = [PiecewiseLinearFn([0.0, 1.0], rng.standard_normal(2)) for _ in MARKOV3.matrix.words(6)]
            phi = Observable(MARKOV3.matrix, 6, comps, np.arange(len(comps)))
        if name == "coupled_depth2":
            # at the offset depth, one window row per step selects both the branch and the piece
            comps = [PiecewiseLinearFn([0.0, 1.0], rng.standard_normal(2)) for _ in COUPLED.matrix.words(2)]
            phi = Observable(COUPLED.matrix, 2, comps, np.arange(len(comps)))
        # any mean centres the sums: one from a random disintegration of the observable's depth
        mu = random_disintegration(sys.matrix, phi.depth, np.random.default_rng(1), signed=False)
        mean = integrate_observable(sys, mu, phi)
        length, trials = 30, 100
        symbols, ys = sample_orbits(sys, 4, length, trials, burn_in=limits.BURN_IN, window=phi.depth)
        want = (observable_sums(phi, symbols, ys) - length * mean) / math.sqrt(length)
        variance = VarianceResult(mean=mean, mean_error=0.0, sigma2=1.0, numeric_error=0.0, lags=None, lag_errors=None,
                                  solves=[])
        cells = limits.BURN_IN + length + max(phi.depth, sys.offset_depth) - 1
        monkeypatch.setattr(skew, "FIBER_CELLS", fiber_cells)
        for per_block in (trials, 7, 1):
            seen = []
            monkeypatch.setattr(skew, "BLOCK_CELLS", per_block * cells)
            monkeypatch.setattr(limits, "ks_statistic", lambda samples, sigma: seen.append(samples) or 0.0)
            clt_experiment(sys, phi, length, trials, seed=4, variance=variance)
            assert np.array_equal(seen[0], want)

    def test_memory_does_not_grow_with_trials(self):
        import tracemalloc

        def peak(sys, length, trials):
            phi = height_obs(sys)
            variance = asymptotic_variance(sys, phi, 4, 10)
            tracemalloc.start()
            try:
                clt_experiment(sys, phi, length=length, trials=trials, seed=1, variance=variance)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peaks = [peak(CANTOR, 2000, trials) for trials in (1000, 4000)]
        # one block at length 2000 holds 514 trials, so both runs peak at one block
        assert peaks[1] < 1.5 * peaks[0]
        # and no trials x length float array is built: a block keeps one byte per orbit cell
        assert peaks[1] < 4 * 2**20
        # markov3_small's run
        assert peak(MARKOV3, 500, 2000) < 4 * 2**20

    def test_too_few_trials_rejected(self):
        phi = height_obs()
        variance = asymptotic_variance(CANTOR, phi, 4, 30)
        with pytest.raises(ValueError, match="trials"):
            clt_experiment(CANTOR, phi, length=100, trials=10, seed=0, variance=variance)

    def test_coboundary_regime_rejected(self):
        const = Observable.base_only(CANTOR.matrix, 1, {(0,): 1.0, (1,): 1.0})
        variance = asymptotic_variance(CANTOR, const, 4, 30)
        with pytest.raises(CoboundaryError):
            clt_experiment(CANTOR, const, length=100, trials=200, seed=0, variance=variance)


def _cdf_values(points):
    from skewfiber.limits import _normal_cdf

    return np.array([_normal_cdf(v) for v in np.asarray(points, dtype=float).tolist()])


class TestNormalCdf:
    """The KS test's normal CDF stays within two ulps of 1.0 of ``scipy.special.ndtr``."""

    @staticmethod
    def assert_close(points):
        from scipy.special import ndtr

        points = np.asarray(points, dtype=float)
        # written so that a NaN on either side is a mismatch
        mismatch = np.flatnonzero(~(np.abs(_cdf_values(points) - ndtr(points)) <= 2.0**-51))
        assert mismatch.size == 0, points[mismatch[:5]]

    def test_dense_grid(self):
        self.assert_close(np.linspace(-40.0, 40.0, 400_001))

    # Cephes ndtr's erf/erfc switch (|a| = 1), erfc's 1 - erf (|a| = sqrt 2) and its P/Q
    # to R/S switch (|a| = 8 sqrt 2), the exp underflow cut a^2/2 = MAXLOG, and 0
    @pytest.mark.parametrize(
        "edge", [1.0, math.sqrt(2.0), 8.0 * math.sqrt(2.0), math.sqrt(2.0 * 709.782712893384), 0.0]
    )
    def test_branch_edges(self, edge):
        points = []
        for centre in (edge, -edge):
            lo = hi = centre
            points.append(centre)
            for _ in range(64):
                lo, hi = np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf)
                points += [lo, hi]
        self.assert_close(points)

    def test_underflow_region(self):
        band = np.linspace(37.5, 38.5, 20_001)
        self.assert_close(np.concatenate([band, -band]))

    def test_non_finite_and_extremes(self):
        self.assert_close([np.inf, -np.inf, 1e308, -1e308, 5e-324, -5e-324, -0.0])
        assert math.isnan(_cdf_values([np.nan])[0])
