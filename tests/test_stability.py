"""Tests for perturbation families, admissibility, and the stability sweep."""

import json
import math
from fractions import Fraction
from importlib import resources

import numpy as np
import pytest

from conftest import MARKOV3, random_disintegration
from oracles import admissibility_report, branch_map, pushforward
from skewfiber.cli import parse_config, run_stability
from skewfiber.demos import cantor_demo, coupled_demo, markov_demo
from skewfiber.measures import AtomicMeasure, wk_distance
from skewfiber.stability import (
    PerturbationFamily,
    fiber_op_gap,
    operator_gap,
    realize,
    realize_grid,
    stability_sweep,
)
from skewfiber.transfer import (
    Disintegration,
    fixed_point,
    lip_constant,
    norm_inf,
    transfer_apply,
)

CANTOR = cantor_demo()


def shift_family(delta_max=0.2):
    return PerturbationFamily(
        CANTOR, fiber_direction=[0.0, -1.0], delta_max=delta_max
    )


def weight_family(delta_max=0.2):
    return PerturbationFamily(
        CANTOR, weight_direction=[1.0, -1.0], delta_max=delta_max
    )


class TestRealize:
    def test_zero_delta_returns_base(self):
        assert realize(shift_family(), 0.0) is CANTOR

    def test_nan_delta_rejected(self):
        for fam in (shift_family(), weight_family()):
            with pytest.raises(ValueError, match="delta must lie"):
                realize(fam, float("nan"))

    def test_fiber_shift_arithmetic(self):
        sys = realize(shift_family(), 0.01)
        assert sys.fiber_maps[1].offset == pytest.approx(2 / 3 - 0.01)
        assert sys.fiber_maps[0].offset == 0.0

    def test_weight_arithmetic(self):
        sys = realize(weight_family(), 0.1)
        assert sys.weights.stationary.tolist() == pytest.approx([0.6, 0.4])
        assert sys.weights.is_bernoulli

    def test_structure_never_changes(self):
        for fam in (shift_family(), weight_family()):
            sys = realize(fam, 0.05)
            assert sys.matrix is CANTOR.matrix
            assert sys.theta == CANTOR.theta
            assert sys.n_symbols == CANTOR.n_symbols
            assert sys.offset_depth == CANTOR.offset_depth

    def test_delta_outside_radius_rejected(self):
        with pytest.raises(ValueError, match="delta"):
            realize(shift_family(delta_max=0.05), 0.1)

    def test_range_violation_propagates(self):
        fam = PerturbationFamily(
            CANTOR, fiber_direction=[-1.0, 0.0], delta_max=0.9
        )
        with pytest.raises(ValueError, match="unit interval"):
            realize(fam, 0.5)

    def test_both_directions_move_both(self):
        fam = PerturbationFamily(CANTOR, fiber_direction=[0.0, -1.0], weight_direction=[1.0, -1.0])
        sys = realize(fam, 0.1)
        assert [fm.offset for fm in sys.fiber_maps] == [0.0 + 0.1 * 0.0, 2 / 3 + 0.1 * -1.0]
        assert sys.weights.stationary.tolist() == pytest.approx([0.6, 0.4])

    def test_family_needs_a_direction(self):
        with pytest.raises(ValueError, match="direction"):
            PerturbationFamily(CANTOR)

    def test_weight_family_needs_bernoulli_base(self):
        for fiber_direction in (None, [0.0, -1.0]):
            with pytest.raises(ValueError, match="Bernoulli"):
                PerturbationFamily(markov_demo(), fiber_direction, weight_direction=[1.0, -1.0])

    def test_weight_direction_must_balance(self):
        with pytest.raises(ValueError, match="sum to zero"):
            PerturbationFamily(CANTOR, weight_direction=[1.0, 0.0])


class TestAdmissibility:
    def test_fiber_shift_budget_is_delta(self):
        report = admissibility_report(shift_family(), [0.1, 0.01])
        for row in report.rows:
            assert row.jacobian_gap == 0.0
            assert row.fiber_gap == pytest.approx(row.delta)
            assert row.r_delta == pytest.approx(row.delta)

    def test_weight_budget_is_two_delta(self):
        report = admissibility_report(weight_family(), [0.05])
        assert report.rows[0].jacobian_gap == pytest.approx(0.1)

    def test_density_ratio_hand_value(self):
        report = admissibility_report(weight_family(), [0.01])
        assert report.rows[0].density_ratio == pytest.approx((0.51 / 0.50) ** 6)

    def test_c1_envelope_finite(self):
        report = admissibility_report(shift_family(), [0.1, 0.05, 0.01])
        assert report.c1_finite
        assert report.sup_c1 == pytest.approx(2.0)

    def test_a1_envelope_collapses_for_bernoulli(self):
        report = admissibility_report(weight_family(), [0.05, 0.01])
        assert report.a1_rate == 0.0

    def test_a1_rate_is_exact_base_rate(self):
        # oracle: markov_demo's chain has eigenvalues 1 and 0.4
        fam = PerturbationFamily(markov_demo(), fiber_direction=[0.0, -1.0])
        report = admissibility_report(fam, [0.05, 0.01])
        assert report.a1_rate == pytest.approx(0.4, abs=1e-12)

    def test_modulus_vanishes_along_default_grid(self):
        deltas = [1e-1, 1e-2, 1e-3, 1e-4]
        report = admissibility_report(shift_family(), deltas)
        moduli = [row.r_delta * abs(math.log(row.delta)) for row in report.rows]
        assert all(b < a for a, b in zip(moduli, moduli[1:]))

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            admissibility_report(shift_family(), [])

    @pytest.mark.parametrize("fam", [
        shift_family(),
        weight_family(),
        PerturbationFamily(CANTOR, fiber_direction=[0.0, -1.0], weight_direction=[1.0, -1.0]),
        PerturbationFamily(markov_demo(), fiber_direction=[0.3, -1.0]),
    ], ids=["fiber_shift", "base_weights", "combined", "markov_fiber_shift"])
    def test_budget_is_an_upper_estimate_of_the_exact_gap(self, fam):
        deltas = [0.1, 0.0123, 0.01, 1e-3, 1e-4, 1e-7]
        for delta, row in zip(deltas, admissibility_report(fam, deltas).rows):
            exact = exact_budget(fam.base, realize(fam, delta))
            assert exact <= Fraction(row.r_delta) <= exact * (1 + Fraction(1, 10**14))


def exact_budget(sys0, sys_d):
    """R(delta) in exact arithmetic over the two systems' float jacobians and branches."""
    n = sys0.n_symbols
    j0, jd = ([[Fraction(x) for x in row] for row in s.weights.jacobian.tolist()] for s in (sys0, sys_d))
    jacobian_gap = max(sum(abs(jd[i][j] - j0[i][j]) for i in range(n)) for j in range(n))
    (a0, b0), (ad, bd) = ([list(map(Fraction, v.tolist())) for v in s.word_branches(sys0.offset_depth)]
                          for s in (sys0, sys_d))
    # an affine gap in y peaks at y = 0 or y = 1
    fiber_gap = max(max(abs(b - d), abs(a - c + b - d)) for a, b, c, d in zip(a0, b0, ad, bd))
    return max(jacobian_gap, fiber_gap)


class TestOperatorGaps:
    def test_zero_delta_gap_is_zero(self):
        mu = fixed_point(CANTOR, depth=2, tol=1e-6, grid=512).disintegration
        assert fiber_op_gap(CANTOR, CANTOR, mu) == 0.0
        assert operator_gap(CANTOR, realize(shift_family(), 0.0), mu) == 0.0

    def test_dirac_fibers_feel_the_exact_shift(self):
        dis = Disintegration.product(CANTOR.matrix, 2, AtomicMeasure.dirac(0.25))
        sys_d = realize(shift_family(), 0.01)
        assert fiber_op_gap(CANTOR, sys_d, dis) == pytest.approx(0.01, abs=1e-12)

    def test_fiber_gap_bounded_by_budget(self):
        fam = shift_family()
        report = admissibility_report(fam, [0.05])
        res = fixed_point(CANTOR, depth=2, tol=1e-6, grid=512)
        max_norm = norm_inf(res.disintegration)
        gap = fiber_op_gap(CANTOR, realize(fam, 0.05), res.disintegration)
        assert gap <= report.rows[0].r_delta * max_norm + 1e-10

    @pytest.mark.parametrize("delta", [0.1, 0.01])
    @pytest.mark.parametrize("name", ["cantor", "coupled", "markov3"])
    def test_fiber_op_gap_matches_per_word_pushforwards(self, name, delta):
        # oracle: each word's fiber pushed through both branch maps, one word at a time
        base, direction = {
            "cantor": (CANTOR, [0.0, -1.0]),
            "coupled": (coupled_demo(), [0.0, -1.0]),
            "markov3": (MARKOV3, [0.5, 0.0, -1.0]),
        }[name]
        sys_d = realize(PerturbationFamily(base, fiber_direction=direction), delta)
        dis = fixed_point(base, depth=base.offset_depth + 1, tol=1e-6, grid=512).disintegration
        per_word = max(
            wk_distance(pushforward(mu, branch_map(base, w)), pushforward(mu, branch_map(sys_d, w)))
            for w, mu in dis.fibers.items()
        )
        assert fiber_op_gap(base, sys_d, dis) == per_word

    def test_operator_gap_bound(self):
        fam = shift_family()
        delta = 0.05
        res = fixed_point(realize(fam, delta), depth=2, tol=1e-6, grid=512)
        base = fixed_point(CANTOR, depth=2, tol=1e-6, grid=512)
        b_u = max(lip_constant(r.disintegration, CANTOR.theta) for r in (base, res))
        gap = operator_gap(CANTOR, realize(fam, delta), res.disintegration)
        assert 0.0 <= gap <= (2.0 + b_u) * delta + 1e-8

    def test_bu_bounded_by_uniform_regularity(self):
        fam = shift_family()
        report = admissibility_report(fam, [0.0, 0.05, 0.1])
        b_u = max(
            lip_constant(fixed_point(realize(fam, d), depth=2, tol=1e-6, grid=512).disintegration,
                         CANTOR.theta)
            for d in (0.0, 0.05, 0.1)
        )
        theta = CANTOR.theta
        assert b_u <= report.sup_c1 / (1.0 - theta) + 1e-6


class TestSweep:
    def test_small_sweep_decreases(self):
        fam = shift_family()
        result = stability_sweep(fam, realize_grid(fam, [0.1, 0.01]), depth=2, tol=1e-6, grid=8192)
        variations = [row.variation for row in result.rows]
        assert variations[1] < variations[0]
        assert all(row.result is not None for row in result.rows)
        assert math.isfinite(result.ratio_bound)

    def test_failed_delta_keeps_no_result_and_sweep_continues(self, monkeypatch):
        import skewfiber.stability as stability_module
        from skewfiber.transfer import ConvergenceError

        real_fixed_point = stability_module.fixed_point

        def flaky(sys_d, **kwargs):
            if sys_d.fiber_maps[1].offset == pytest.approx(2 / 3 - 0.1):
                raise ConvergenceError("no fixed point within 3 iterations")
            return real_fixed_point(sys_d, **kwargs)

        monkeypatch.setattr(stability_module, "fixed_point", flaky)
        fam = shift_family()
        result = stability_sweep(fam, realize_grid(fam, [0.1, 0.01]), depth=2, tol=1e-6, grid=512)
        assert [row.result is None for row in result.rows] == [True, False]
        assert result.rows[0].message == "no fixed point within 3 iterations"
        assert result.rows[1].message == ""
        assert math.isfinite(result.rows[1].ratio)

    def test_r_delta_matches_admissibility_report(self):
        for fam in (shift_family(), weight_family()):
            deltas = [0.1, 0.01]
            result = stability_sweep(fam, realize_grid(fam, deltas), depth=2, tol=1e-5, grid=512)
            report = admissibility_report(fam, deltas)
            assert [row.r_delta for row in result.rows] == [report.r_of(d) for d in deltas]

    def test_grid_errors_come_before_any_solve(self, monkeypatch):
        import skewfiber.stability as stability_module

        def unreachable(*args, **kwargs):
            raise AssertionError("fixed point solved before the grid was checked")

        monkeypatch.setattr(stability_module, "fixed_point", unreachable)
        with pytest.raises(ValueError, match="nonempty"):
            realize_grid(shift_family(), [])
        # the largest delta lies outside the family's range
        with pytest.raises(ValueError, match="delta must lie"):
            realize_grid(shift_family(0.05), [0.1, 0.01])

    def test_rejects_zero_delta(self):
        with pytest.raises(ValueError, match="positive"):
            realize_grid(shift_family(), [0.1, 0.0])

    def test_rejects_unsorted_grid(self):
        with pytest.raises(ValueError, match="descending"):
            realize_grid(shift_family(), [0.01, 0.1])

    def test_csv_shape(self, tmp_path):
        # the bundled cantor system is CANTOR, written out
        bundled = resources.files("skewfiber") / "data" / "cantor_demo.json"
        system = json.loads(bundled.read_text())["system"]
        path = tmp_path / "config.json"
        path.write_text(json.dumps({
            "system": system, "depth": 2, "grid": 1024, "tol": 1e-5, "seed": 0,
            "stability": {"kind": "fiber_shift", "fiber_direction": [0.0, -1.0], "deltas": [0.1]},
        }))
        run_stability(parse_config(path), tmp_path)
        lines = (tmp_path / "stability.csv").read_text().strip().split("\n")
        assert lines[0] == "delta,R_delta,Delta,ratio,err_bound,iterations"
        assert len(lines) == 2
        fam = shift_family()
        row = stability_sweep(fam, realize_grid(fam, [0.1]), depth=2, tol=1e-5, grid=1024).rows[0]
        expected = (row.delta, row.r_delta, row.variation, row.ratio, row.err_bound)
        assert [float(x) for x in lines[1].split(",")[:5]] == list(expected)
        assert int(lines[1].split(",")[5]) == row.iterations


class TestPerturbedContraction:
    def test_weak_contraction_for_realized_systems(self):
        rng = np.random.default_rng(14)
        for fam in (shift_family(), weight_family()):
            for delta in (0.0, 0.05):
                sys_d = realize(fam, delta)
                for _ in range(5):
                    dis = random_disintegration(sys_d.matrix, 3, rng)
                    assert norm_inf(transfer_apply(sys_d, dis)) <= norm_inf(dis) + 1e-10
