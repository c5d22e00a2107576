"""Shared fibers against the per-word references, bit for bit.

A disintegration stores each distinct fiber once.  Every operation must give
the same floats as the word-by-word table code in ``oracles``: random 2- and
3-symbol systems with a Markov base, offset tables of depth 1-3 and working
depth at most 4, started from a product measure or from per-word fibers drawn
from a small pool, and compared with == after every transfer and
quantization step.  Offsets and atoms sit on dyadic grids, so images of
different branches collide and merges sum coincident atoms.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from conftest import MARKOV3  # noqa: E402
from oracles import (  # noqa: E402
    change_between_per_word,
    correlation_curve_per_word,
    lip_constant_per_word,
    norm_inf_per_word,
    quantize_per_word,
    transfer_apply_per_word,
)
from skewfiber.demos import cantor_demo, coupled_demo  # noqa: E402
from skewfiber.limits import Observable, correlation_curve  # noqa: E402
from skewfiber.measures import AtomicMeasure, PiecewiseLinearFn  # noqa: E402
from skewfiber.skew import FiberMapSpec, SystemSpec  # noqa: E402
from skewfiber.symbolic import BaseWeights, TransitionMatrix  # noqa: E402
from skewfiber.transfer import (  # noqa: E402
    Disintegration,
    FixedPointResult,
    change_between,
    fixed_point,
    lip_constant,
    norm_inf,
    quantize_disintegration,
    transfer_apply,
)

SHARED = settings(max_examples=40, deadline=None, derandomize=True, database=None)
SLOPES = [0.5, -0.5, 0.25, -0.25, 0.375]
GRIDS = [4, 16, 1 << 10]


@st.composite
def systems(draw):
    """A primitive 2- or 3-symbol SFT with a Markov base and dyadic offset tables."""
    n = draw(st.integers(2, 3))
    entries = [draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)) for _ in range(n)]
    # a cycle through every symbol and one loop make the matrix primitive
    for i in range(n):
        entries[i][(i + 1) % n] = 1
    entries[0][0] = 1
    matrix = TransitionMatrix(entries)
    if draw(st.booleans()):
        p = np.array(draw(st.lists(st.integers(1, 4), min_size=n, max_size=n)), dtype=float)
        transition = np.where(matrix.entries > 0, p, 0.0)
    else:
        transition = np.array(
            [draw(st.lists(st.integers(1, 4), min_size=n, max_size=n)) for _ in range(n)], dtype=float
        ) * matrix.entries
    weights = BaseWeights(transition / transition.sum(axis=1, keepdims=True))
    offset_depth = draw(st.integers(1, 3))
    maps = []
    for i in range(n):
        slope = draw(st.sampled_from(SLOPES))
        # offsets on the 1/8 grid that keep the branch inside [0, 1]
        feasible = [k / 8 for k in range(9) if 0.0 <= min(k / 8, slope + k / 8) <= max(k / 8, slope + k / 8) <= 1.0]
        offset = draw(st.sampled_from(feasible))
        table = {}
        for word in matrix.words(offset_depth):
            if word[0] == i and draw(st.booleans()):
                table[word] = draw(st.sampled_from(feasible)) - offset
        maps.append(FiberMapSpec(slope, offset, table))
    sys = SystemSpec(matrix, 0.5, weights, maps, offset_depth)
    return sys, draw(st.integers(offset_depth, 4))


def dyadic_measures(signed):
    weight = st.integers(1, 8).map(lambda k: k / 8)
    if signed:
        weight = st.one_of(weight, weight.map(lambda x: -x))
    atom = st.tuples(st.integers(0, 16).map(lambda k: k / 16), weight)
    return st.lists(atom, min_size=1, max_size=4).map(lambda a: AtomicMeasure(*zip(*a)))


@st.composite
def starts(draw, sys, depth):
    """A product measure, or per-word fibers drawn from a pool of two."""
    signed = draw(st.booleans())
    if draw(st.booleans()):
        return Disintegration.product(sys.matrix, depth, draw(dyadic_measures(signed)))
    pool = [draw(dyadic_measures(signed)) for _ in range(2)]
    fibers = {w: pool[draw(st.integers(0, 1))] for w in sys.matrix.words(depth)}
    return Disintegration.from_fibers(sys.matrix, depth, fibers)


@st.composite
def runs(draw):
    sys, depth = draw(systems())
    return sys, draw(starts(sys, depth)), draw(st.integers(1, 4)), draw(st.sampled_from(GRIDS))


def assert_same_fibers(dis, ref):
    got, want = dis.fibers, ref.fibers
    for word in dis.words():
        assert np.array_equal(got[word].positions, want[word].positions)
        assert np.array_equal(got[word].weights, want[word].weights)


@SHARED
@given(runs())
def test_steps_match_per_word_reference(run):
    sys, dis, steps, grid = run
    ref = dis
    assert norm_inf(dis) == norm_inf_per_word(dis)
    assert lip_constant(dis, sys.theta) == lip_constant_per_word(dis, sys.theta)
    for _ in range(steps):
        pushed, ref_pushed = transfer_apply(sys, dis), transfer_apply_per_word(sys, ref)
        assert_same_fibers(pushed, ref_pushed)
        snapped, step = quantize_disintegration(pushed, grid)
        ref_snapped, ref_step = quantize_per_word(ref_pushed, grid)
        assert step == ref_step
        assert_same_fibers(snapped, ref_snapped)
        for new, old in ((pushed, dis), (snapped, dis), (snapped, pushed)):
            assert change_between(new, old) == change_between_per_word(new, old)
            assert change_between(old, new) == change_between_per_word(old, new)
        for out in (pushed, snapped):
            assert norm_inf(out) == norm_inf_per_word(out)
            assert lip_constant(out, sys.theta) == lip_constant_per_word(out, sys.theta)
        dis = ref = snapped


@st.composite
def observables(draw, matrix, max_depth):
    """Observable of depth 1-2 whose components come from a pool of two functions."""
    depth = draw(st.integers(1, min(max_depth, 2)))
    pool = [
        PiecewiseLinearFn([0.0, 0.5, 1.0], draw(st.lists(st.integers(-4, 4), min_size=3, max_size=3)))
        for _ in range(2)
    ]
    read, piece_of_word = np.unique([draw(st.integers(0, 1)) for _ in matrix.words(depth)], return_inverse=True)
    return Observable(matrix, depth, [pool[j] for j in read.tolist()], piece_of_word)


@st.composite
def correlation_runs(draw):
    sys, dis, steps, grid = draw(runs())
    # the table stands in for a fixed point; its certificate is the error the steps' snaps add up to
    eps = 0.0
    for _ in range(steps):
        dis, step = quantize_disintegration(transfer_apply(sys, dis), grid)
        eps = sys.alpha * eps + step
    fixed = FixedPointResult(dis, eps, steps, 0.0, step, sys.alpha)
    now, later = (draw(observables(sys.matrix, dis.depth)) for _ in range(2))
    return sys, fixed, now, later, draw(st.integers(1, 4)), draw(st.sampled_from([None, *GRIDS]))


@SHARED
@given(correlation_runs())
def test_correlation_curve_matches_per_word_reference(run):
    sys, fixed, now, later, nmax, grid = run
    curve = correlation_curve(sys, fixed, now, later, nmax, grid=grid)
    values, errs = correlation_curve_per_word(sys, fixed, now, later, nmax, grid)
    assert np.array_equal(curve.values, values)
    assert np.array_equal(curve.err_bounds, errs)


@pytest.mark.parametrize("sys,depth", [(cantor_demo(), 4), (coupled_demo(), 4), (MARKOV3, 4), (MARKOV3, 5)],
                         ids=["cantor", "coupled", "markov3-4", "markov3-5"])
def test_fixed_point_matches_per_word_iteration(sys, depth):
    res = fixed_point(sys, depth=depth, tol=1e-6, grid=512)
    mu, _ = quantize_per_word(Disintegration.product(sys.matrix, depth, AtomicMeasure.dirac(0.5)), 512)
    for _ in range(res.iterations):
        nu, q_step = quantize_per_word(transfer_apply_per_word(sys, mu), 512)
        delta = change_between_per_word(nu, mu)
        mu = nu
    assert delta < 1e-6 and res.last_change == delta
    assert res.certified_error == (sys.alpha * delta + q_step) / (1.0 - sys.alpha)
    assert_same_fibers(res.disintegration, mu)
    # a handful of rows carries every word
    assert res.disintegration.n_fibers < len(mu.words()) // 2
