"""Acceptance suite: one test per criterion, each with its stated tolerance.

Every test prints a single PASS line with the measured quantities so the
suite doubles as a run report (use ``pytest -s tests/test_acceptance.py``).
"""

import math
import time

import numpy as np
import pytest

from conftest import random_disintegration, random_vanishing_disintegration
from oracles import hutchinson_reference, wk_distance_bruteforce
from skewfiber.cli import main as cli_main
from skewfiber.demos import cantor_demo, coupled_demo
from skewfiber.fitting import exp_fit
from skewfiber.limits import (
    Observable,
    asymptotic_variance,
    clt_experiment,
    correlation_curve,
    gordin_norms,
)
from skewfiber.measures import (
    AtomicMeasure,
    PiecewiseLinearFn,
    wk_distance,
)
from skewfiber.skew import c1_constant
from skewfiber.stability import (
    PerturbationFamily,
    fiber_op_gap,
    operator_gap,
    realize,
    realize_grid,
    stability_sweep,
)
from skewfiber.transfer import (
    fixed_point,
    lip_constant,
    norm_inf,
    norm_s_inf,
    transfer_apply,
    verify_ly,
)

CANTOR = cantor_demo()
COUPLED = coupled_demo()


def report(criterion, elapsed, detail):
    print(f"PASS criterion {criterion}: {detail} [{elapsed:.1f}s]")


@pytest.fixture(scope="module")
def cantor_depth6():
    """Fixed point pinned by criterion 5: depth 6, grid 512, tol 1e-6."""
    return fixed_point(CANTOR, depth=6, tol=1e-6, grid=512)


def height_observable():
    return Observable.fiber(CANTOR.matrix, PiecewiseLinearFn.identity())


def shift_family():
    return PerturbationFamily(
        CANTOR, fiber_direction=[0.0, -1.0], delta_max=0.2
    )


def test_criterion_01_probability_normalization():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(100):
        w = rng.uniform(0.05, 1.0, rng.integers(1, 13))
        mu = AtomicMeasure(rng.random(w.size), w / w.sum())
        worst = max(worst, abs(wk_distance(mu) - 1.0))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-12
    assert elapsed < 1.0
    report(1, elapsed, f"100 probability measures, max |wk - 1| = {worst:.2e}")


def test_criterion_02_dual_solver_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(200):
        n1, n2 = rng.integers(1, 9, size=2)
        mu = AtomicMeasure(rng.random(n1), rng.uniform(-2, 2, n1))
        nu = AtomicMeasure(rng.random(n2), rng.uniform(-2, 2, n2))
        worst = max(worst, abs(wk_distance(mu, nu) - wk_distance_bruteforce(mu, nu)))
    elapsed = time.perf_counter() - start
    assert worst <= 2e-3
    assert elapsed < 30.0
    report(2, elapsed, f"200 signed pairs vs grid LP, max gap = {worst:.2e}")


def test_criterion_03_weak_contraction():
    start = time.perf_counter()
    rng = np.random.default_rng(103)
    fam = shift_family()
    systems = [realize(fam, 0.0), realize(fam, 0.05)]
    worst = -math.inf
    for _ in range(50):
        dis = random_disintegration(CANTOR.matrix, 3, rng)
        before = norm_inf(dis)
        for sys_d in systems:
            worst = max(worst, norm_inf(transfer_apply(sys_d, dis)) - before)
    elapsed = time.perf_counter() - start
    assert worst <= 1e-10
    assert elapsed < 30.0
    report(3, elapsed, f"50 signed inputs x delta in {{0, 0.05}}, max growth = {worst:.2e}")


def test_criterion_04_invariant_measure_norms(cantor_depth6):
    start = time.perf_counter()
    mu0 = cantor_depth6.disintegration
    n_inf = norm_inf(mu0)
    s_inf = norm_s_inf(mu0, CANTOR.theta)
    elapsed = time.perf_counter() - start
    assert abs(n_inf - 1.0) <= 1e-6
    assert abs(s_inf - 2.0) <= 1e-6
    report(4, elapsed, f"norm_inf = {n_inf!r}, norm_s_inf = {s_inf!r}")


def test_criterion_05_product_structure(cantor_depth6):
    start = time.perf_counter()
    res = cantor_depth6
    ref = hutchinson_reference(CANTOR, 12)
    gap = max(wk_distance(mu, ref) for mu in res.disintegration.fibers.values())
    lip = lip_constant(res.disintegration, CANTOR.theta)
    elapsed = time.perf_counter() - start
    assert gap <= res.certified_error + 1e-4
    assert lip <= 1e-6
    assert elapsed < 60.0
    report(
        5, elapsed,
        f"max wk to depth-12 ifs reference = {gap:.2e} <= certified {res.certified_error:.2e} "
        f"+ 1e-4; lip = {lip:.2e}",
    )


def test_criterion_06_lasota_yorke_and_regularity(cantor_depth6):
    start = time.perf_counter()
    rng = np.random.default_rng(106)
    worst_margin = math.inf
    for _ in range(20):
        dis = random_disintegration(CANTOR.matrix, 3, rng, n_atoms=2, signed=False)
        rows = verify_ly(CANTOR, dis, nmax=10)
        worst_margin = min(worst_margin, min(bound - lip for lip, bound in rows))
    lips = {}
    for name, sys_, res in (
        ("cantor", CANTOR, cantor_depth6),
        ("coupled", COUPLED, fixed_point(COUPLED, depth=4, tol=1e-6, grid=1024)),
    ):
        bound = c1_constant(sys_) / (1.0 - sys_.theta)
        lip = lip_constant(res.disintegration, sys_.theta)
        assert lip <= bound, f"{name}: lip {lip} above {bound}"
        lips[name] = (lip, bound)
    elapsed = time.perf_counter() - start
    assert worst_margin >= -1e-8
    assert elapsed < 60.0
    report(
        6, elapsed,
        f"20 positive inputs, min margin = {worst_margin:.3g}; "
        f"lip bounds: cantor {lips['cantor'][0]:.2e} <= {lips['cantor'][1]:.3g}, "
        f"coupled {lips['coupled'][0]:.3g} <= {lips['coupled'][1]:.3g}",
    )


def test_criterion_07_exponential_equilibrium():
    from skewfiber.transfer import equilibrium_decay

    start = time.perf_counter()
    rng = np.random.default_rng(107)
    worst_rate, worst_r2 = 0.0, 1.0
    for _ in range(20):
        dis = random_vanishing_disintegration(CANTOR.matrix, CANTOR.weights, 3, rng)
        fit = exp_fit(np.arange(1, 11), equilibrium_decay(CANTOR, dis, nmax=10))
        worst_rate = max(worst_rate, fit.rate)
        worst_r2 = min(worst_r2, fit.r_squared)
    elapsed = time.perf_counter() - start
    assert worst_rate <= 0.4
    assert worst_r2 >= 0.95
    assert elapsed < 60.0
    report(7, elapsed, f"20 vanishing-marginal inputs, max rate = {worst_rate:.3f}, min R2 = {worst_r2:.3f}")


def test_criterion_08_operator_gaps():
    start = time.perf_counter()
    fam = shift_family()
    # R(delta) as ``skewfiber stability`` reads it
    deltas, systems, budgets = realize_grid(fam, [0.1, 0.01])
    solved = {d: fixed_point(realize(fam, d), depth=2, tol=1e-6, grid=4096) for d in [0.0] + deltas}
    b_u = max(lip_constant(res.disintegration, CANTOR.theta) for res in solved.values())
    details = []
    for delta, sys_d, r_delta in zip(deltas, systems, budgets):
        res_d = solved[delta]
        max_norm = max(wk_distance(mu) for mu in res_d.disintegration.fibers.values())
        f_gap = fiber_op_gap(CANTOR, sys_d, res_d.disintegration)
        o_gap = operator_gap(CANTOR, sys_d, res_d.disintegration)
        assert f_gap <= r_delta * max_norm + 1e-10
        assert o_gap <= (2.0 + b_u) * r_delta + 1e-8
        details.append(f"delta={delta}: fiber {f_gap:.3g} <= {r_delta * max_norm:.3g}, "
                       f"operator {o_gap:.3g} <= {(2 + b_u) * r_delta:.3g}")
    elapsed = time.perf_counter() - start
    report(8, elapsed, "; ".join(details))


def test_criterion_09_quantitative_stability():
    start = time.perf_counter()
    fam = shift_family()
    result = stability_sweep(
        fam, realize_grid(fam, [1e-1, 1e-2, 1e-3, 1e-4]), depth=2, tol=1e-7, grid=1 << 18
    )
    elapsed = time.perf_counter() - start
    assert all(row.result is not None for row in result.rows)
    variations = [row.variation for row in result.rows]
    assert all(b < a for a, b in zip(variations, variations[1:])), variations
    assert variations[-1] <= 1e-2
    ratios = [row.ratio for row in result.rows]
    assert math.isfinite(result.ratio_bound)
    small = sorted(ratios[-2:])
    assert small[1] / small[0] < 2.0
    assert elapsed < 180.0
    report(
        9, elapsed,
        f"Delta = {[f'{v:.2e}' for v in variations]}, ratio bound D = {result.ratio_bound:.3f}, "
        f"two-smallest ratio spread = {small[1] / small[0]:.2f}",
    )


def test_criterion_10_decay_of_correlations(cantor_depth6):
    start = time.perf_counter()
    rng = np.random.default_rng(110)
    k = 2
    now = Observable.base_only(CANTOR.matrix, k, {w: rng.standard_normal() for w in CANTOR.matrix.words(k)})
    later = Observable.base_only(CANTOR.matrix, k, {w: rng.standard_normal() for w in CANTOR.matrix.words(k)})
    curve_a = correlation_curve(CANTOR, cantor_depth6, now, later, nmax=10)
    zero_tail = float(np.abs(curve_a.values[k:]).max())
    assert zero_tail <= 1e-12

    psi = Observable.base_only(CANTOR.matrix, 1, {(0,): 1.0, (1,): 0.0})
    phi = height_observable()
    curve_b = correlation_curve(CANTOR, cantor_depth6, psi, phi, nmax=12)
    fit = exp_fit(np.arange(1, 13), curve_b.values[1:])
    elapsed = time.perf_counter() - start
    assert fit.rate <= 0.45
    assert fit.r_squared >= 0.9
    assert elapsed < 60.0
    report(
        10, elapsed,
        f"iid block zeros max = {zero_tail:.2e}; fitted tau = {fit.rate:.3f} (R2 = {fit.r_squared:.3f})",
    )


def test_criterion_11_gordin_summability(cantor_depth6):
    start = time.perf_counter()
    mu0 = cantor_depth6.disintegration
    norms = gordin_norms(CANTOR, mu0, height_observable(), nmax=10)
    fit = exp_fit(np.arange(norms.size), norms)
    elapsed = time.perf_counter() - start
    assert fit.rate <= 0.45
    assert 1.0 - fit.rate > 0.5
    assert elapsed < 60.0
    # for the product demo the conditional expectations vanish identically
    detail = (
        f"tau = {fit.rate:.3f}, ratio margin = {1.0 - fit.rate:.2f}, "
        f"max norm = {np.abs(norms).max():.2e}"
    )
    report(11, elapsed, detail)


def test_criterion_12_clt():
    start = time.perf_counter()
    phi = height_observable()
    # the moment closure's sigma^2 takes no truncation, so the lag count cannot move it
    v30 = asymptotic_variance(CANTOR, phi, 4, 30)
    v35 = asymptotic_variance(CANTOR, phi, 4, 35)
    drift = abs(v35.sigma2 - v30.sigma2) / abs(v30.sigma2)
    assert drift <= 0.02
    assert abs(v30.sigma2 - 0.25) <= v30.numeric_error <= 1e-12
    passes = []
    ks_values = []
    for seed in range(5):
        res = clt_experiment(CANTOR, phi, length=2000, trials=5000, seed=seed, variance=v30)
        passes.append(res.passed)
        ks_values.append(res.ks_statistic)
        assert res.threshold == pytest.approx(1.36 / math.sqrt(5000) * 1.3)
    elapsed = time.perf_counter() - start
    assert sum(passes) >= 4
    assert elapsed < 120.0
    report(
        12, elapsed,
        f"sigma2 = {v30.sigma2:.5f} (J-drift {drift:.2%}), ks = "
        f"{[f'{k:.4f}' for k in ks_values]}, passes = {sum(passes)}/5",
    )


def test_criterion_13_determinism(tmp_path):
    from importlib import resources

    start = time.perf_counter()
    config = str(resources.files("skewfiber") / "data" / "cantor_demo.json")
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli_main(["verify", "--config", config, "--out", str(out_a)]) == 0
    assert cli_main(["verify", "--config", config, "--out", str(out_b)]) == 0
    identical = all(
        (out_a / name).read_bytes() == (out_b / name).read_bytes()
        for name in ("summary.json", "verify.csv")
    )
    elapsed = time.perf_counter() - start
    assert identical
    report(13, elapsed, "verify suite twice with the same seed: reports byte-identical")
