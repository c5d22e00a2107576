"""Tests for disintegrations, the transfer operator, and the fixed point."""

import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import skewfiber.transfer
from conftest import MARKOV3, random_disintegration, random_fiber, random_vanishing_disintegration
from oracles import disintegration_from_json, hutchinson_reference, word_distances, word_sum_iterate, word_table
from skewfiber.cli import parse_config
from skewfiber.demos import cantor_demo, coupled_demo, markov_demo
from skewfiber.fitting import exp_fit
from skewfiber.limits import _Closure
from skewfiber.measures import ZERO_MEASURE, AtomicMeasure, wk_distance
from skewfiber.skew import FiberMapSpec, SystemSpec
from skewfiber.symbolic import BaseWeights, TransitionMatrix, ruelle_apply
from skewfiber.transfer import (
    ConvergenceError,
    Disintegration,
    change_between,
    equilibrium_decay,
    fixed_point,
    lip_constant,
    marginal_density,
    norm_inf,
    norm_s_inf,
    quantize_disintegration,
    transfer_apply,
    verify_ly,
)

CANTOR = cantor_demo()
DIRAC0 = AtomicMeasure.dirac(0.0)
# orientation-reversing, overlapping branches: the transfer step gathers atoms
# out of (row, position) order, so merge_atoms takes its sorting path
REVERSING = SystemSpec(
    TransitionMatrix([[1, 1], [1, 1]]),
    0.5,
    BaseWeights.bernoulli([0.3, 0.7]),
    [FiberMapSpec(-0.4, 0.6), FiberMapSpec(0.5, 0.3)],
)
# primitive 3-symbol SFT with as many depth-2 words as the full 2-shift
CYCLE3 = TransitionMatrix([[1, 1, 0], [0, 0, 1], [1, 0, 0]])


def product_dirac(sys, depth, x=0.0):
    return Disintegration.product(sys.matrix, depth, AtomicMeasure.dirac(x))


def assert_canonical(dis):
    n_words = len(dis.words())
    assert dis.row.size == dis.pos.size == dis.w.size
    assert (dis.w != 0.0).all()
    assert ((dis.pos >= 0.0) & (dis.pos <= 1.0)).all()
    assert (np.diff(dis.row) >= 0).all()
    same_row = np.diff(dis.row) == 0
    assert (np.diff(dis.pos)[same_row] > 0).all()
    starts = dis.starts.tolist()
    assert starts == np.searchsorted(dis.row, np.arange(dis.n_fibers + 1)).tolist()
    assert starts[0] == 0 and starts[-1] == dis.w.size
    # every word reads one row; rows are numbered by first word and hold distinct fibers
    assert dis.word_fiber.shape == (n_words,)
    first = np.unique(dis.word_fiber, return_index=True)[1]
    assert dis.word_fiber[np.sort(first)].tolist() == list(range(dis.n_fibers))
    fibers = {dis.pos[a:b].tobytes() + dis.w[a:b].tobytes() for a, b in zip(starts, starts[1:])}
    assert len(fibers) == dis.n_fibers


class TestNorms:
    def test_product_point_mass_has_unit_norm(self):
        assert norm_inf(product_dirac(CANTOR, 3)) == pytest.approx(1.0, abs=1e-12)

    def test_zero_disintegration(self):
        dis = Disintegration.product(CANTOR.matrix, 2, AtomicMeasure([], []))
        assert norm_inf(dis) == 0.0

    def test_norm_homogeneity(self):
        rng = np.random.default_rng(0)
        dis = random_disintegration(CANTOR.matrix, 3, rng)
        row, pos, w, _ = word_table(dis)
        assert norm_inf(Disintegration(dis.matrix, dis.depth, row, pos, 2.0 * w)) == pytest.approx(2.0 * norm_inf(dis), rel=1e-12)

    def test_marginal_density_of_product(self):
        phi = marginal_density(product_dirac(CANTOR, 3))
        assert np.allclose(phi.values, 1.0)

    def test_marginal_density_scales(self):
        rng = np.random.default_rng(1)
        dis = random_disintegration(CANTOR.matrix, 2, rng)
        row, pos, w, _ = word_table(dis)
        assert np.allclose(marginal_density(Disintegration(dis.matrix, dis.depth, row, pos, 3.0 * w)).values, 3.0 * marginal_density(dis).values)

    def test_strong_norm_of_product_point_mass(self):
        # marginal density == 1 contributes 1, the fiber norm contributes 1
        assert norm_s_inf(product_dirac(CANTOR, 3), CANTOR.theta) == pytest.approx(2.0, abs=1e-12)

    def test_marginal_lipschitz_below_measure_lipschitz(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            dis = random_disintegration(CANTOR.matrix, 3, rng)
            phi_lip = marginal_density(dis).lipschitz(CANTOR.theta)
            assert phi_lip <= lip_constant(dis, CANTOR.theta) + 1e-10


class TestLipConstant:
    def test_product_has_zero_lip(self):
        assert lip_constant(product_dirac(CANTOR, 3), CANTOR.theta) == 0.0

    def test_two_word_point_masses(self):
        fibers = {(0,): AtomicMeasure.dirac(0.0), (1,): AtomicMeasure.dirac(1.0)}
        dis = Disintegration.from_fibers(CANTOR.matrix, 1, fibers)
        assert lip_constant(dis, CANTOR.theta) == pytest.approx(1.0)

    def test_memory_at_the_word_cap(self):
        # 4096 words in two fibers: each class is measured against the other's
        # words, and the constant marginal density is one class, so no n x n table
        fibers = {w: AtomicMeasure.dirac(w[0] / 2) for w in CANTOR.matrix.words(12)}
        dis = Disintegration.from_fibers(CANTOR.matrix, 12, fibers)
        values, peaks = {}, {}
        tracemalloc.start()
        try:
            for name, f in (("lip", lip_constant), ("strong", norm_s_inf)):
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                values[name] = f(dis, CANTOR.theta)
                peaks[name] = (tracemalloc.get_traced_memory()[1] - base) / 2**20
        finally:
            tracemalloc.stop()
        assert values == {"lip": 0.5, "strong": 2.0}
        assert peaks["lip"] < 96 and peaks["strong"] < 8, peaks


class TestTransferApply:
    def test_cantor_point_mass_one_step(self):
        # two admissible branches with weight 1/2 each
        out = transfer_apply(CANTOR, product_dirac(CANTOR, 3))
        for mu in out.fibers.values():
            assert mu.positions.tolist() == [0.0, 2 / 3]
            assert np.allclose(mu.weights, 0.5)

    def test_probability_in_probability_out(self):
        rng = np.random.default_rng(4)
        dis = random_disintegration(CANTOR.matrix, 3, rng, signed=False, unit_mass=True)
        out = transfer_apply(CANTOR, dis)
        masses = out.fiber_masses()
        assert np.allclose(masses, 1.0, atol=1e-12)
        assert all((mu.weights >= 0).all() for mu in out.fibers.values())

    @pytest.mark.parametrize("sys", [CANTOR, markov_demo(), coupled_demo()])
    def test_marginal_intertwining(self, sys):
        rng = np.random.default_rng(5)
        dis = random_disintegration(sys.matrix, 3, rng)
        lhs = marginal_density(transfer_apply(sys, dis))
        rhs = ruelle_apply(marginal_density(dis), sys.weights)
        assert np.abs(lhs.values - rhs.values).max() <= 1e-10

    @pytest.mark.parametrize("sys", [CANTOR, markov_demo()])
    def test_weak_contraction_on_random_signed(self, sys):
        rng = np.random.default_rng(6)
        for _ in range(50):
            dis = random_disintegration(sys.matrix, 3, rng)
            assert norm_inf(transfer_apply(sys, dis)) <= norm_inf(dis) + 1e-10

    def test_total_mass_preserved(self):
        rng = np.random.default_rng(7)
        for sys in (CANTOR, markov_demo()):
            dis = random_disintegration(sys.matrix, 3, rng)
            out = transfer_apply(sys, dis)
            assert out.total_mass(sys.weights) == pytest.approx(dis.total_mass(sys.weights), abs=1e-12)

    def test_mismatched_matrix_rejected(self):
        with pytest.raises(ValueError, match="transition matrices"):
            transfer_apply(CANTOR, Disintegration.product(CYCLE3, 2, DIRAC0))

    def test_table_stays_canonical(self):
        rng = np.random.default_rng(12)
        for sys in (CANTOR, REVERSING, markov_demo(), coupled_demo()):
            dis = random_disintegration(sys.matrix, 3, rng)
            for _ in range(3):
                dis = transfer_apply(sys, dis)
                assert_canonical(dis)
                dis, _ = quantize_disintegration(dis, 64)
                assert_canonical(dis)

    def test_product_is_the_table_of_per_word_copies(self):
        # the full 2-shift at depth 12: 4096 words, each reading one signed 98-atom fiber
        rng = np.random.default_rng(4)
        fiber = AtomicMeasure(rng.random(98), rng.standard_normal(98))
        product = Disintegration.product(CANTOR.matrix, 12, fiber)
        copies = Disintegration.from_fibers(CANTOR.matrix, 12, dict.fromkeys(CANTOR.matrix.words(12), fiber))
        assert product.word_fiber.size == 4096 and fiber.n_atoms == 98
        for name in ("row", "pos", "w", "starts", "word_fiber"):
            assert np.array_equal(getattr(product, name), getattr(copies, name)), name

    def test_rows_outside_the_words_rejected(self):
        with pytest.raises(ValueError, match="admissible words"):
            Disintegration(CANTOR.matrix, 1, [2], [0.5], [1.0])

    def test_offset_depth_must_fit(self):
        with pytest.raises(ValueError, match="offset depth"):
            transfer_apply(coupled_demo(), product_dirac(coupled_demo(), 1))

    def test_gather_past_the_atom_cap_is_refused_before_it_gathers(self, monkeypatch):
        # the step's one gather of source atoms, counted; a cap of that many passes, one fewer raises
        dis = random_disintegration(MARKOV3.matrix, 3, np.random.default_rng(8))
        gather, gathered = skewfiber.transfer._gather, []

        def counting(starts, rows):
            out = gather(starts, rows)
            if starts is dis.starts:
                gathered.append(out[1].size)
            return out

        monkeypatch.setattr(skewfiber.transfer, "_gather", counting)
        transfer_apply(MARKOV3, dis)
        (n,) = gathered
        monkeypatch.setattr(skewfiber.transfer, "MAX_ATOMS", n)
        transfer_apply(MARKOV3, dis)
        monkeypatch.setattr(skewfiber.transfer, "MAX_ATOMS", n - 1)
        with pytest.raises(ValueError, match=f"would gather {n} atoms, above the cap of {n - 1}; lower /grid or "):
            transfer_apply(MARKOV3, dis)
        assert gathered == [n, n]

    def test_atom_cap_leaves_the_pair_tables_alone(self, monkeypatch):
        dis = random_disintegration(MARKOV3.matrix, 3, np.random.default_rng(9))
        lip, change = lip_constant(dis, MARKOV3.theta), change_between(dis, dis)
        monkeypatch.setattr(skewfiber.transfer, "MAX_ATOMS", 1)
        assert lip_constant(dis, MARKOV3.theta) == lip and change_between(dis, dis) == change


class TestWordSum:
    def test_one_step_matches_transfer(self):
        direct = word_sum_iterate(CANTOR, DIRAC0, 1, 3)
        stepped = transfer_apply(CANTOR, product_dirac(CANTOR, 3))
        assert change_between(direct, stepped) <= 1e-14

    def test_cantor_two_step_atoms(self):
        # the four branch compositions applied to 0
        direct = word_sum_iterate(CANTOR, DIRAC0, 2, 2)
        for mu in direct.fibers.values():
            assert np.allclose(mu.positions, [0.0, 2 / 9, 2 / 3, 8 / 9])
            assert np.allclose(mu.weights, 0.25)

    # MARKOV3 is a non-full SFT with offset depth 3
    @pytest.mark.parametrize("sys", [CANTOR, markov_demo(), coupled_demo(), REVERSING, MARKOV3])
    @pytest.mark.parametrize("steps", [1, 2, 3, 4])
    def test_matches_iterated_transfer(self, sys, steps):
        depth = 4
        direct = word_sum_iterate(sys, DIRAC0, steps, depth)
        iterated = Disintegration.product(sys.matrix, depth, DIRAC0)
        for _ in range(steps):
            iterated = transfer_apply(sys, iterated)
        assert change_between(direct, iterated) <= 1e-12

    @pytest.mark.parametrize("steps,depth", [(1, 2), (3, 3), (5, 2)])
    def test_sorting_path_matches_word_sum(self, steps, depth, monkeypatch):
        sorts = []
        real = np.lexsort

        def recording(keys, *args, **kwargs):
            sorts.append(len(keys[0]))
            return real(keys, *args, **kwargs)

        monkeypatch.setattr(np, "lexsort", recording)
        iterated = Disintegration.product(REVERSING.matrix, depth, DIRAC0)
        for _ in range(steps):
            iterated = transfer_apply(REVERSING, iterated)
            assert_canonical(iterated)
        assert sorts, "reversing overlapping branches must take the sorting path"
        direct = word_sum_iterate(REVERSING, DIRAC0, steps, depth)
        assert change_between(direct, iterated) <= 1e-15

    def test_budget_error_advises(self):
        with pytest.raises(ValueError, match="budget"):
            word_sum_iterate(CANTOR, DIRAC0, 20, 6)

    def test_budget_error_before_enumerating(self, monkeypatch):
        depths = []
        real = TransitionMatrix.word_array

        def recording(matrix, depth):
            depths.append(depth)
            return real(matrix, depth)

        sys = cantor_demo()  # a fresh matrix with an empty word cache
        monkeypatch.setattr(TransitionMatrix, "word_array", recording)
        with pytest.raises(ValueError, match="budget"):
            word_sum_iterate(sys, DIRAC0, 20, 6)
        assert max(depths, default=0) < 20

    def test_lip_of_iterates_bounded(self):
        # iterated regularity bound with zero initial lip
        from skewfiber.skew import c1_constant

        sys = coupled_demo()
        bound = c1_constant(sys) / (1.0 - sys.theta)
        dis = word_sum_iterate(sys, DIRAC0, 4, 4)
        assert lip_constant(dis, sys.theta) <= bound + 1e-10


class TestMapped:
    def test_pairs_are_listed_label_major(self):
        # fibers follow the first symbol and labels the last, so fiber-major order would lower the labels
        rng = np.random.default_rng(8)
        fibers = [random_fiber(rng) for _ in range(MARKOV3.n_symbols)]
        words = MARKOV3.matrix.words(3)
        dis = Disintegration.from_fibers(MARKOV3.matrix, 3, {w: fibers[w[0]] for w in words})
        calls = []

        def scaled(label, pos, w):
            calls.append(label)
            return pos, w * (label + 1.0)

        out = dis.mapped(np.array([2 - w[-1] for w in words]), scaled)
        assert len(calls) == 1 and (np.diff(calls[0]) >= 0).all()
        for word, mu in out.fibers.items():
            assert np.array_equal(mu.positions, fibers[word[0]].positions)
            assert np.array_equal(mu.weights, fibers[word[0]].weights * (3.0 - word[-1]))


class TestHutchinsonReference:
    def test_moment_of_reference(self):
        ref = hutchinson_reference(CANTOR, 12)
        assert float(np.dot(ref.positions, ref.weights)) == pytest.approx(0.5, abs=1e-5)

    def test_rejects_word_dependent_systems(self):
        with pytest.raises(ValueError):
            hutchinson_reference(coupled_demo(), 4)

    def test_rejects_markov_base(self):
        with pytest.raises(ValueError, match="Bernoulli"):
            hutchinson_reference(markov_demo(), 4)


class TestFixedPoint:
    def test_cantor_fixed_point_properties(self):
        res = fixed_point(CANTOR, depth=4, tol=1e-6, grid=512)
        mu0 = res.disintegration
        assert norm_inf(mu0) == pytest.approx(1.0, abs=1e-6)
        assert norm_s_inf(mu0, CANTOR.theta) == pytest.approx(2.0, abs=1e-6)
        # product system: all fibers agree, so the path is constant
        assert lip_constant(mu0, CANTOR.theta) <= 1e-6

    def test_cantor_matches_ifs_reference(self):
        res = fixed_point(CANTOR, depth=4, tol=1e-6, grid=512)
        ref = hutchinson_reference(CANTOR, 12)
        gap = max(wk_distance(mu, ref) for mu in res.disintegration.fibers.values())
        assert gap <= res.certified_error + (1 / 3) ** 12 + 1e-4

    def test_reapplication_moves_at_most_tol(self):
        res = fixed_point(CANTOR, depth=3, tol=1e-6, grid=512)
        again, _ = quantize_disintegration(transfer_apply(CANTOR, res.disintegration), 512)
        assert change_between(again, res.disintegration) <= 1e-6

    def test_two_initializations_agree(self, monkeypatch):
        # the second run starts from the uniform measure on the grid in place of the point mass at 1/2
        grid = 512
        res_a = fixed_point(CANTOR, depth=3, tol=1e-7, grid=grid)
        uniform = AtomicMeasure(np.arange(grid + 1) / grid, np.full(grid + 1, 1.0 / (grid + 1)))
        starts = []
        monkeypatch.setattr(skewfiber.transfer.AtomicMeasure, "dirac", lambda x: starts.append(x) or uniform)
        res_b = fixed_point(CANTOR, depth=3, tol=1e-7, grid=grid)
        assert starts == [0.5]
        gap = change_between(res_a.disintegration, res_b.disintegration)
        assert gap <= res_a.certified_error + res_b.certified_error

    def test_no_convergence_names_the_iteration_cap(self, monkeypatch):
        # the cap is 10 ceil(log tol / log alpha) transfer steps: 130 for alpha = 1/3 and tol = 1e-6
        monkeypatch.setattr(skewfiber.transfer, "change_between", lambda d1, d2: 1.0)
        with pytest.raises(ConvergenceError, match=r"^no fixed point within 130 iterations \(last change 1\)$"):
            fixed_point(CANTOR, depth=2, tol=1e-6, grid=64)

    def test_coupled_demo_not_product(self):
        res = fixed_point(coupled_demo(), depth=3, tol=1e-6, grid=1024)
        assert lip_constant(res.disintegration, 0.5) > 1e-3
        assert norm_inf(res.disintegration) == pytest.approx(1.0, abs=1e-6)

    def test_tolerance_validated(self):
        with pytest.raises(ValueError):
            fixed_point(CANTOR, depth=2, tol=0.0)

    @pytest.mark.parametrize("config", [
        "bench/configs/cantor_small.json", "bench/configs/markov3_small.json", "bench/configs/markov3.json",
        "src/skewfiber/data/cantor_demo.json", "src/skewfiber/data/coupled_demo.json",
    ])
    def test_certificate_covers_the_exact_moment_gaps(self, config):
        # y^k has sup 1 and Lipschitz constant k on [0, 1], so |int y^k d(mu^ - mu)|_w| <= k wk(mu^|_w, mu|_w)
        cfg = parse_config(Path(__file__).resolve().parents[1] / config)
        res = fixed_point(cfg.system, depth=cfg.depth, tol=cfg.tol, grid=cfg.grid)
        closure = _Closure(cfg.system, cfg.depth)
        moments = closure.m1, closure.m2
        fibers = list(res.disintegration.fibers.values())
        gaps = []
        for k, exact in enumerate(moments, start=1):
            computed = np.array([float(np.dot(mu.weights, mu.positions**k)) for mu in fibers])
            gaps.append(float(np.abs(computed - exact.x).max()) / k - exact.e)
        # on cantor the k = 1 gap vanishes by symmetry, and k = 2 carries the audit
        assert res.certified_error >= max(gaps) > 0.0


class TestVerifyLY:
    @pytest.mark.parametrize("sys", [CANTOR, coupled_demo()])
    def test_margins_nonnegative_on_random_positive(self, sys):
        rng = np.random.default_rng(8)
        for _ in range(3):
            dis = random_disintegration(sys.matrix, 3, rng, n_atoms=2, signed=False)
            rows = verify_ly(sys, dis, nmax=6)
            assert min(bound - lip for lip, bound in rows) >= -1e-8

    def test_product_input_reduces_to_constant_bound(self):
        from skewfiber.skew import c1_constant

        dis = product_dirac(CANTOR, 3, x=0.25)
        rows = verify_ly(CANTOR, dis, nmax=4)
        expected = c1_constant(CANTOR) / (1.0 - CANTOR.theta) * norm_inf(dis)
        assert all(bound == pytest.approx(expected, rel=1e-12) for _, bound in rows)

    def test_rejects_signed_input(self):
        rng = np.random.default_rng(9)
        dis = random_disintegration(CANTOR.matrix, 2, rng, signed=True)
        with pytest.raises(ValueError, match="positive"):
            verify_ly(CANTOR, dis, 2)


class TestEquilibriumDecay:
    def test_two_point_difference_decays_at_fiber_rate(self):
        diff = AtomicMeasure([0.0, 1.0], [1.0, -1.0])
        dis = Disintegration.product(CANTOR.matrix, 3, diff)
        norms = equilibrium_decay(CANTOR, dis, nmax=10)
        assert exp_fit(np.arange(1, 11), norms).rate <= 1 / 3 + 0.05
        assert norms[0] > 0

    def test_zero_input_degenerates_to_rate_zero(self):
        dis = Disintegration.product(CANTOR.matrix, 2, AtomicMeasure([], []))
        norms = equilibrium_decay(CANTOR, dis, nmax=5)
        assert norms == [0.0] * 5
        assert exp_fit(np.arange(1, 6), norms).rate == 0.0

    def test_random_vanishing_element_contracts(self):
        rng = np.random.default_rng(10)
        dis = random_vanishing_disintegration(CANTOR.matrix, CANTOR.weights, 3, rng)
        norms = equilibrium_decay(CANTOR, dis, nmax=8)
        assert 0.0 < exp_fit(np.arange(1, 9), norms).rate < 1.0

    def test_nonvanishing_input_rejected(self):
        dis = product_dirac(CANTOR, 2)
        with pytest.raises(ValueError, match="vanishing"):
            equilibrium_decay(CANTOR, dis, 3)


class TestChangeBetween:
    def test_depth_mismatch_rejected(self):
        with pytest.raises(ValueError, match="depth"):
            change_between(product_dirac(CANTOR, 2), product_dirac(CANTOR, 3))

    def test_matrix_mismatch_rejected(self):
        # four words at depth 2 on both sides, so the tables alone would line up
        with pytest.raises(ValueError, match="matrix"):
            change_between(Disintegration.product(CYCLE3, 2, DIRAC0), product_dirac(CANTOR, 2))


def norm_inf_loop(dis):
    return max(wk_distance(mu) for mu in dis.fibers.values())


def change_loop(d1, d2):
    f1, f2 = d1.fibers, d2.fibers
    return max(wk_distance(f1[w], f2[w]) for w in d1.words())


def lip_loop(dis, theta):
    mus = list(dis.fibers.values())
    dist = word_distances(dis.matrix, dis.depth, theta)
    best = 0.0
    for a in range(len(mus)):
        for b in range(a + 1, len(mus)):
            best = max(best, wk_distance(mus[a], mus[b]) / dist[a, b])
    return float(best)


def assert_table_norms_match_loops(d1, d2, theta):
    assert norm_inf(d1) == norm_inf_loop(d1)
    assert change_between(d1, d2) == change_loop(d1, d2)
    assert change_between(d2, d1) == change_loop(d2, d1)
    assert lip_constant(d1, theta) == lip_loop(d1, theta)


TABLE_SYSTEMS = [(CANTOR, 3), (coupled_demo(), 3), (MARKOV3, 3)]


class TestTableNorms:
    """norm_inf, change_between and lip_constant against per-fiber wk_distance loops, bit for bit."""

    @pytest.mark.parametrize("sys,depth", TABLE_SYSTEMS, ids=["cantor", "coupled", "markov3"])
    def test_fixed_point(self, sys, depth):
        mu0 = fixed_point(sys, depth=depth, tol=1e-6, grid=512).disintegration
        again, _ = quantize_disintegration(transfer_apply(sys, mu0), 512)
        assert_table_norms_match_loops(mu0, again, sys.theta)
        assert_table_norms_match_loops(mu0, Disintegration.product(sys.matrix, depth, DIRAC0), sys.theta)

    @pytest.mark.parametrize("sys,depth", TABLE_SYSTEMS, ids=["cantor", "coupled", "markov3"])
    def test_ly_iterates_with_unequal_masses(self, sys, depth):
        rng = np.random.default_rng(12)
        previous = random_disintegration(sys.matrix, depth, rng, n_atoms=2, signed=False)
        assert np.ptp(previous.fiber_masses()) > 0.1
        for _ in range(3):
            current = transfer_apply(sys, previous)
            assert_table_norms_match_loops(current, previous, sys.theta)
            previous = current

    @pytest.mark.parametrize("sys,depth", TABLE_SYSTEMS, ids=["cantor", "coupled", "markov3"])
    def test_random_signed_with_empty_fibers(self, sys, depth):
        rng = np.random.default_rng(13)
        for _ in range(3):
            d1, d2 = (random_disintegration(sys.matrix, depth, rng, n_atoms=4) for _ in range(2))
            fibers, words = d1.fibers, d1.words()
            for i in rng.permutation(len(words))[: len(words) // 3]:
                fibers[words[i]] = ZERO_MEASURE
            d1 = Disintegration.from_fibers(sys.matrix, depth, fibers)
            assert_table_norms_match_loops(d1, d2, sys.theta)


class TestSerialization:
    def test_roundtrip(self):
        rng = np.random.default_rng(11)
        dis = random_disintegration(CANTOR.matrix, 3, rng)
        back = disintegration_from_json(json.loads(json.dumps(dis.to_json_dict())))
        assert back.depth == dis.depth
        assert change_between(back, dis) == 0.0
