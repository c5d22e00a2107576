"""Property tests: the dual distance (LP oracle, primal flow, metric axioms,
quantization), the class-pair Lipschitz pass against every word pair,
primitivity by repeated squaring against the power-by-power loop, the word
tables against the admissible words, ``base_only`` observables against
their per-word values, the KS test's normal CDF against scipy's, a
one-segment piecewise-linear function against ``np.interp``, the orbit
sampler's rank table against the compare-and-add inverse CDF, and the
fixed-point certificate against a high-grid reference solve.

Generated inputs include near-balanced pairs, whose net total weight is zero
up to floating-point rounding or a tiny residual.  Example counts are small
and the search is derandomized, so the suite stays fast and repeatable.
Hypothesis still mixes constants from the loaded modules into its draws, so
a run of this file alone draws other inputs than the whole suite does; the
counterexamples either scope found are pinned with ``@example``.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from conftest import MARKOV3, one_row, random_disintegration, random_fiber  # noqa: E402
from oracles import (  # noqa: E402
    dense_window_rows,
    from_fibers,
    is_primitive_by_powers,
    lag_loop_variance,
    window_codes,
    wk_distance_bruteforce,
    word_distances,
    word_index,
    word_table,
)
from skewfiber.measures import (  # noqa: E402
    AtomicMeasure,
    PiecewiseLinearFn,
    wk_distance,
    wk_distance_primal,
)
from skewfiber.demos import cantor_demo, coupled_demo, markov_demo  # noqa: E402
from skewfiber.limits import Observable, asymptotic_variance, correlation_curve  # noqa: E402
from skewfiber.skew import FiberMapSpec, SystemSpec, symbol_lookup, symbol_ranks  # noqa: E402
from skewfiber.symbolic import (  # noqa: E402
    BaseWeights,
    TransitionMatrix,
    _is_primitive,
    pair_lipschitz,
)
from skewfiber.transfer import (  # noqa: E402
    Disintegration,
    FixedPointResult,
    change_between,
    fixed_point,
    quantize_disintegration,
    transfer_apply,
)

FAST = settings(max_examples=30, deadline=None, derandomize=True, database=None)
BRACKET = settings(max_examples=90, deadline=None, derandomize=True, database=None)

positions = st.floats(0.0, 1.0, allow_subnormal=False)
weights = st.floats(-2.0, 2.0, allow_subnormal=False)


@st.composite
def measures(draw, max_atoms=6):
    n = draw(st.integers(1, max_atoms))
    pos = draw(st.lists(positions, min_size=n, max_size=n))
    w = draw(st.lists(weights, min_size=n, max_size=n))
    return AtomicMeasure(pos, w)


@st.composite
def near_balanced_pairs(draw, max_atoms=6, weights=weights, positions=positions):
    """(mu, nu) whose totals agree up to rounding plus a residual below 1e-9."""
    n = draw(st.integers(1, max_atoms))
    w = np.array(draw(st.lists(weights, min_size=n, max_size=n)))
    mu = AtomicMeasure(draw(st.lists(positions, min_size=n, max_size=n)), w)
    # nu carries the same weights in another order at other positions
    order = draw(st.permutations(range(n)))
    residual = draw(st.sampled_from([0.0, 1e-15, -3e-13, 1e-9]))
    nu_w = w[list(order)]
    nu_w[0] += residual
    nu = AtomicMeasure(draw(st.lists(positions, min_size=n, max_size=n)), nu_w)
    return mu, nu


# The LP oracle is exact only up to its solver's feasibility tolerance, which
# lets g step across gaps narrower than it and scales with the weights, so
# the tight bracket draws atoms on a 2^-12 grid and weights of at least 1e-3.
grid_positions = st.integers(0, 1 << 12).map(lambda i: i / 4096)
positive_weights = st.floats(1e-3, 2.0)
sizable_weights = st.one_of(positive_weights, positive_weights.map(lambda x: -x))


# atoms far closer than HiGHS's default feasibility tolerance of 1e-7
close_positions = st.sampled_from([0.0, 1e-287, 1e-38, 1e-14, 1e-11, 1e-9])


@st.composite
def one_signed_pairs(draw, max_atoms=6, positions=grid_positions):
    """(mu, nu) with mu - nu of one sign: a positive mu against zero or a negative nu."""
    n = draw(st.integers(1, max_atoms))
    mu = AtomicMeasure(
        draw(st.lists(positions, min_size=n, max_size=n)),
        draw(st.lists(positive_weights, min_size=n, max_size=n)),
    )
    m = draw(st.integers(0, max_atoms))
    nu = AtomicMeasure(
        draw(st.lists(positions, min_size=m, max_size=m)),
        [-x for x in draw(st.lists(positive_weights, min_size=m, max_size=m))],
    )
    return mu, nu


@st.composite
def balanced_pairs(draw, max_atoms=6):
    """(mu, nu) with exactly equal totals: dyadic weights sum without rounding."""
    n = draw(st.integers(1, max_atoms))
    w = np.array(draw(st.lists(st.integers(1, 128), min_size=n, max_size=n))) / 64.0
    w *= np.array(draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=n, max_size=n)))
    mu = AtomicMeasure(draw(st.lists(grid_positions, min_size=n, max_size=n)), w)
    order = draw(st.permutations(range(n)))
    nu = AtomicMeasure(draw(st.lists(grid_positions, min_size=n, max_size=n)), w[list(order)])
    return mu, nu


@st.composite
def general_rows(draw, max_atoms=60):
    """(mu, nu) whose difference c mixes signs, with sum c > 0, < 0, or exactly 0 and c[0] < 0.

    Weights are dyadic, so every total is exact and a nonzero one is far from
    the balanced closed form; mu - nu is the row, split between the two
    measures atom by atom.
    """
    n = draw(st.integers(2, max_atoms))
    x = np.sort(draw(st.lists(positions, min_size=n, max_size=n, unique=True)))
    c = np.array(draw(st.lists(st.integers(1, 128), min_size=n, max_size=n))) / 64.0
    c *= np.array(draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=n, max_size=n)))
    c[0], c[1] = -abs(c[0]), abs(c[1])
    net = draw(st.sampled_from(["positive", "negative", "zero"]))
    if net == "zero":
        c[-1] -= c.sum()
    else:
        hypothesis.assume(c.sum() != 0.0)
        if (c.sum() > 0) != (net == "positive"):
            c = -c
    return AtomicMeasure(x[::2], c[::2]), AtomicMeasure(x[1::2], -c[1::2])


def net_total(mu, nu):
    return abs(mu.total_weight() - nu.total_weight())


class TestWkProperties:
    @BRACKET
    @given(
        st.one_of(
            one_signed_pairs(),
            balanced_pairs(),
            near_balanced_pairs(weights=sizable_weights, positions=grid_positions),
        )
    )
    def test_closed_forms_within_tight_lp_bracket(self, pair):
        # the balanced form may overestimate by up to 2 |net total|, never underestimate
        mu, nu = pair
        lp = wk_distance_bruteforce(mu, nu)
        assert lp - 1e-11 <= wk_distance(mu, nu) <= lp + 2 * net_total(mu, nu) + 1e-11

    @BRACKET
    @given(one_signed_pairs(positions=close_positions))
    def test_lp_oracle_exact_on_close_atoms(self, pair):
        # a one-signed net measure has norm |total|, however close its atoms;
        # the solver may still move each g_i past its bound by up to its
        # feasibility tolerance 1e-10, which costs at most 1e-10 |total|
        mu, nu = pair
        total = net_total(mu, nu)
        assert abs(wk_distance_bruteforce(mu, nu) - total) <= 1e-10 * total

    @FAST
    @given(measures(), measures())
    def test_matches_lp_oracle(self, mu, nu):
        assert abs(wk_distance(mu, nu) - wk_distance_bruteforce(mu, nu)) <= 2e-3

    @FAST
    @given(near_balanced_pairs())
    def test_matches_lp_oracle_near_balance(self, pair):
        mu, nu = pair
        assert abs(wk_distance(mu, nu) - wk_distance_bruteforce(mu, nu)) <= 2e-3

    @BRACKET
    @given(
        st.one_of(
            st.tuples(measures(), measures()),
            balanced_pairs(),
            near_balanced_pairs(),
            one_signed_pairs(positions=close_positions),
        )
    )
    # a lone atom far below HiGHS's absolute dual tolerance of 1e-10, which the LP once returned with the wrong sign
    @example(pair=(AtomicMeasure([], []), AtomicMeasure([0.5], [-3e-13])))
    def test_primal_flow_matches_lp_and_sweep(self, pair):
        # the flow is exact: the LP sits within its 1e-10 feasibility tolerance
        # of it, and the heap pass within rounding, except that the balanced form
        # may overestimate by up to 2 |net total|
        mu, nu = pair
        primal = wk_distance_primal(mu, nu)
        mass = float(np.abs(mu.weights).sum() + np.abs(nu.weights).sum())
        assert abs(primal - wk_distance_bruteforce(mu, nu)) <= 1e-10 * mass
        assert primal - 1e-12 * mass <= wk_distance(mu, nu) <= primal + 2 * net_total(mu, nu) + 1e-12 * mass

    @BRACKET
    @given(general_rows())
    def test_general_rows_match_primal_flow(self, pair):
        mu, nu = pair
        mass = float(np.abs(mu.weights).sum() + np.abs(nu.weights).sum())
        assert abs(wk_distance(mu, nu) - wk_distance_primal(mu, nu)) <= 1e-12 * mass

    @FAST
    @given(general_rows())
    def test_symmetry_on_general_rows(self, pair):
        mu, nu = pair
        assert wk_distance(mu, nu) == wk_distance(nu, mu)

    @FAST
    @given(measures(), measures())
    def test_symmetry_is_bit_identical(self, mu, nu):
        assert wk_distance(mu, nu) == wk_distance(nu, mu)

    @FAST
    @given(near_balanced_pairs())
    def test_symmetry_near_balance(self, pair):
        mu, nu = pair
        assert wk_distance(mu, nu) == wk_distance(nu, mu)

    @FAST
    @given(measures(), measures(), measures())
    def test_triangle_inequality(self, a, b, c):
        assert wk_distance(a, c) <= wk_distance(a, b) + wk_distance(b, c) + 1e-10

    @FAST
    @given(measures(max_atoms=40), st.integers(2, 4096))
    def test_quantize_certificate(self, mu, grid):
        snapped, bound = quantize_disintegration(one_row(mu), grid)
        assert wk_distance(mu, snapped.fibers[(0,)]) <= bound + 1e-14


@st.composite
def snap_tables(draw):
    """(table, grid): 1-4 fibers of 1-300 atoms at grid points, half-cells +-1 ulp, 0 and 1.

    Weights are signed or positive, tiny ones included, so atoms that meet at
    one grid point sum to rounded weights.
    """
    grid = draw(st.integers(2, 4096))
    n_fibers = draw(st.integers(1, 4))
    signed = draw(st.booleans())
    weight = st.floats(-2.0, 2.0) if signed else st.floats(0.0, 2.0)
    spot = st.tuples(st.sampled_from(["point", "below", "above", "end"]), st.integers(0, grid - 1))
    rows, pos, w = [], [], []
    for r in range(n_fibers):
        atoms = draw(st.lists(st.tuples(spot, weight), min_size=1, max_size=300))
        for (kind, k), x in atoms:
            half = (k + 0.5) / grid
            rows.append(r)
            pos.append({"point": k / grid, "below": np.nextafter(half, 0.0), "above": np.nextafter(half, 1.0),
                        "end": float(k % 2)}[kind])
            w.append(x)
    matrix = TransitionMatrix(np.ones((n_fibers, n_fibers), dtype=int))
    return Disintegration(matrix, 1, rows, pos, w), grid


def snap_cost(mu, snapped, grid):
    """Exact cost, in ``Fraction``s, of the snap's own flow from mu to ``snapped``; it bounds the exact move.

    Each atom goes to its grid point at cost |w_i| |x^_i - x_i|, then each
    point's summed float weight differs from the exact sum of its atoms by a
    point mass, which costs its absolute weight.
    """
    cost, exact = Fraction(0), {}
    for x, y, w in zip(mu.positions.tolist(), (np.round(mu.positions * grid) / grid).tolist(), mu.weights.tolist()):
        cost += abs(Fraction(w)) * abs(Fraction(y) - Fraction(x))
        exact[y] = exact.get(y, 0) + Fraction(w)
    kept = dict(zip(snapped.positions.tolist(), snapped.weights.tolist()))
    assert set(kept) <= set(exact)
    return cost + sum(abs(Fraction(kept.get(y, 0.0)) - total) for y, total in exact.items())


# one fiber of 6 atoms at grid 28 whose balanced closed-form norm lies an ulp above the step
SNAP_ULP = (Disintegration(TransitionMatrix([[1]]), 1, [0] * 6, [float.fromhex(x) for x in (
    "0x0.0p+0", "0x1.2492492492491p-6", "0x1.b6db6db6db6dap-5", "0x1.6db6db6db6db6p-4", "0x1.fffffffffffffp-4",
    "0x1.0000000000001p-3")], [float.fromhex(x) for x in (
    "0x1.0p-1", "0x1.b5cec07107091p-113", "0x1.0p+0", "0x1.0p+0", "0x1.0p+0", "0x1.fffffffffffffp+0")]), 28)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(snap_tables())
@example(table=SNAP_ULP)
def test_quantize_step_bounds_the_move(table):
    dis, grid = table
    snapped, step = quantize_disintegration(dis, grid)
    # the exact cost of the snap's flow, not change_between: the balanced closed form is itself an upper
    # estimate, evaluated in float, and may lie an ulp above the step
    assert max(snap_cost(mu, snapped.fibers[w], grid) for w, mu in dis.fibers.items()) <= Fraction(step)
    # at most the worst case of half a cell per atom, plus the charge for weights summed at one grid point
    mass = np.bincount(dis.row, np.abs(dis.w), dis.n_fibers).max()
    assert step <= mass * (0.5 / grid + 2.0**-52 * np.diff(dis.starts).max()) * (1 + 1e-12)
    # an on-grid table does not move
    again, zero = quantize_disintegration(snapped, grid)
    assert zero == 0.0 and np.array_equal(again.pos, snapped.pos) and np.array_equal(again.w, snapped.w)


@pytest.mark.parametrize("a,b", [(0, 5), (5, 9), (0, 15)])
def test_lip_rows_match_lp_oracle(a, b):
    # rows of the kind lip_constant takes inside verify_ly: fiber a minus fiber
    # b of unequal mass, 900-1100 merged atoms, after five exact transfer steps
    dis = random_disintegration(MARKOV3.matrix, 3, np.random.default_rng(0), n_atoms=10, signed=False)
    for _ in range(5):
        dis = transfer_apply(MARKOV3, dis)
    fibers, words = dis.fibers, dis.words()
    mu, nu = fibers[words[a]], fibers[words[b]]
    assert mu.total_weight() != nu.total_weight()
    mass = float(mu.weights.sum() + nu.weights.sum())
    assert abs(wk_distance(mu, nu) - wk_distance_bruteforce(mu, nu)) <= 1e-9 * mass


# the full 2-shift, the golden mean and the markov3 matrix
SHIFTS = [TransitionMatrix([[1, 1], [1, 1]]), TransitionMatrix([[1, 1], [1, 0]]), MARKOV3.matrix]


@st.composite
def word_classes(draw, matrix, depth):
    """(theta, labels, gap): dense classes of the words, among them one class and all distinct.

    The gap table is symmetric and carries a diagonal too, which a pair within a class must
    not read; ``pair_lipschitz`` is handed row a's entries past the diagonal.
    """
    n = matrix.word_count(depth)
    k = draw(st.one_of(st.just(1), st.just(n), st.integers(1, n)))
    extra = draw(st.lists(st.integers(0, k - 1), min_size=n - k, max_size=n - k))
    labels = np.array(draw(st.permutations(list(range(k)) + extra)))
    # up to 81 x 81 gaps: drawn from a seeded generator, a third of them ties, zeros or tiny
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    special = rng.choice([0.0, 1e-300, 1.0, 3.0], (k, k))
    table = np.where(rng.random((k, k)) < 1 / 3, special, 1e3 * rng.random((k, k)))
    upper = np.triu(table, 1)
    theta = draw(st.floats(0.01, 0.99))
    return theta, labels, upper + upper.T + np.diag(np.diag(table))


def pair_lipschitz_bruteforce(matrix, depth, theta, labels, gap):
    dist = word_distances(matrix, depth, theta)
    i, j = np.nonzero(labels[:, None] != labels[None, :])
    return float((gap[labels[i], labels[j]] / dist[i, j]).max(initial=0.0))


@pytest.mark.parametrize("depth", range(1, 6))
@pytest.mark.parametrize("matrix", SHIFTS, ids=["full2", "golden", "markov3"])
@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_pair_lipschitz_is_the_largest_ratio_over_word_pairs(matrix, depth, data):
    theta, labels, gap = data.draw(word_classes(matrix, depth))
    rows = pair_lipschitz(matrix, depth, theta, labels, lambda a: gap[a, a + 1 :])
    assert rows == pair_lipschitz_bruteforce(matrix, depth, theta, labels, gap)


@st.composite
def zero_one_matrices(draw, max_order=8):
    """Square 0/1 matrices of order 1 to ``max_order`` with no empty row or column."""
    n = draw(st.integers(1, max_order))
    a = np.array(draw(st.lists(st.lists(st.integers(0, 1), min_size=n, max_size=n), min_size=n, max_size=n)))
    # sparse draws fill an empty row or column with one entry, so periodic patterns stay common
    for i in np.flatnonzero(a.sum(axis=1) == 0):
        a[i, draw(st.integers(0, n - 1))] = 1
    for j in np.flatnonzero(a.sum(axis=0) == 0):
        a[draw(st.integers(0, n - 1)), j] = 1
    return a


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(zero_one_matrices())
def test_primitivity_by_squaring_matches_power_by_power(a):
    assert _is_primitive(a) == is_primitive_by_powers(a)


@st.composite
def sft_windows(draw):
    """A primitive shift over at most 5 symbols and a batch of its admissible windows of depth 1-6.

    The windows are random walks on the matrix, given column by column in one-byte symbols,
    as orbit tracks hold them.
    """
    a = draw(zero_one_matrices(max_order=5).filter(_is_primitive))
    depth = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    columns = [rng.integers(0, len(a), 40)]
    for _ in range(depth - 1):
        columns.append(np.array([rng.choice(np.flatnonzero(a[s])) for s in columns[-1]]))
    return TransitionMatrix(a), [c.astype(np.uint8) for c in columns]


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(sft_windows())
def test_window_rows_match_the_dense_lookup(case):
    matrix, columns = case
    depth = len(columns)
    rows = matrix.window_rows(columns)
    assert np.array_equal(rows, dense_window_rows(matrix, depth)[window_codes(columns, matrix.n_symbols)])
    assert np.array_equal(matrix.word_array(depth)[rows], np.stack(columns, axis=-1))
    assert np.array_equal(matrix.window_rows(matrix.word_array(depth).T), np.arange(matrix.word_count(depth)))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(zero_one_matrices(max_order=5).filter(_is_primitive), st.data())
def test_preimages_are_the_one_symbol_extensions(a, data):
    # word source is (symbol,) + words[target][:-1] and head is the target's first symbol,
    # listed by (target, symbol), at a depth of 1-6 with at most 4096 words
    matrix = TransitionMatrix(a)
    depth = data.draw(st.integers(1, max(d for d in range(1, 7) if matrix.word_count(d) <= 4096)))
    words, index = matrix.words(depth), word_index(matrix, depth)
    expected = [(t, index[(i,) + w[:-1]], i, w[0]) for t, w in enumerate(words) for i in range(len(a)) if a[i, w[0]]]
    tables = matrix.preimages(depth)
    assert len(tables) == 4
    for table, column in zip(tables, zip(*expected)):
        assert np.array_equal(table, column)
        assert not table.flags.writeable


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(zero_one_matrices(max_order=5).filter(_is_primitive), st.data())
def test_prefix_rows_are_the_rows_of_each_words_prefix(a, data):
    # every prefix length k of a depth of 1-6 with at most 4096 words, cached and read-only
    matrix = TransitionMatrix(a)
    depth = data.draw(st.integers(1, max(d for d in range(1, 7) if matrix.word_count(d) <= 4096)))
    for k in range(1, depth + 1):
        rows = matrix.prefix_rows(depth, k)
        assert np.array_equal(matrix.word_array(k)[rows], matrix.word_array(depth)[:, :k])
        assert not rows.flags.writeable
        assert matrix.prefix_rows(depth, k) is rows
    for k in (0, depth + 1):
        with pytest.raises(ValueError, match="prefix length"):
            matrix.prefix_rows(depth, k)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(zero_one_matrices(max_order=5).filter(_is_primitive), st.data())
def test_word_array_lists_the_admissible_words_in_ascending_order(a, data):
    # a depth of 0-6 with at most 4096 words; words(d) is the tuple view of the read-only array
    matrix = TransitionMatrix(a)
    depth = data.draw(st.integers(0, max(d for d in range(7) if matrix.word_count(d) <= 4096)))
    matrix.word_array(data.draw(st.integers(0, depth)))  # the build reads a shallower depth's cached columns
    words = matrix.word_array(depth)
    assert words.shape == (matrix.word_count(depth), depth) and words.dtype == np.intp
    assert not words.flags.writeable and matrix.word_array(depth) is words
    assert matrix.words(depth) == tuple(map(tuple, words.tolist()))
    rows = words.tolist()
    assert all(u < v for u, v in zip(rows, rows[1:]))
    assert a[words[:, :-1], words[:, 1:]].all()
    with pytest.raises(ValueError, match="nonnegative"):
        matrix.word_array(-1)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(zero_one_matrices(max_order=4).filter(_is_primitive), st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_exact_steps_gather_at_most_verifys_predicted_atoms(a, depth, seed):
    # verify's five exact steps start from at most 4 atoms per word; each step's gather, the
    # source fiber's atoms summed over the preimage terms, stays within 4 word_count(depth + 5)
    matrix, rng = TransitionMatrix(a), np.random.default_rng(seed)
    maps = [FiberMapSpec(s, 0.5 - s / 2) for s in rng.uniform(-0.5, 0.5, len(a))]
    sys = SystemSpec(matrix, 0.5, BaseWeights(a / a.sum(axis=1, keepdims=True)), maps)
    dis = random_disintegration(matrix, depth, rng, n_atoms=4, signed=False)
    source = matrix.preimages(depth)[1]
    for _ in range(5):
        assert np.diff(dis.starts)[dis.word_fiber[source]].sum() <= 4 * matrix.word_count(depth + 5)
        dis = transfer_apply(sys, dis)


# 0.0 and -0.0 compare equal but have two bit patterns
VALUE_POOL = [0.0, -0.0, 1.0, -1.0, 0.1, 5e-324, -5e-324]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.sampled_from([MARKOV3, coupled_demo()]), st.integers(1, 3), st.integers(0, 1), st.data())
def test_base_only_keeps_one_piece_per_bit_pattern(sys, depth, extra, data):
    # a base_only table drawn from the pool, weighed on fibers shared by last symbol at a depth of depth + extra
    matrix = sys.matrix
    words = matrix.words(depth)
    values = data.draw(st.lists(st.sampled_from(VALUE_POOL), min_size=len(words), max_size=len(words)))
    obs = Observable.base_only(matrix, depth, dict(zip(words, values)))
    bits = np.array(values).view(np.int64)
    assert len(obs.pieces) == len(set(bits.tolist()))
    read = np.array([obs.pieces[j].values for j in obs.piece_of_word.tolist()])
    assert np.array_equal(read.view(np.int64), np.column_stack([bits, bits]))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    pool = [random_fiber(rng, 3) for _ in range(sys.n_symbols)]
    deep = matrix.words(depth + extra)
    dis = from_fibers(matrix, depth + extra, {w: pool[w[-1]] for w in deep})
    # oracle: each word's own value times each atom's weight, summed in atom order
    value_of = dict(zip(words, values))
    row, _, w, _ = word_table(dis)
    expected = np.bincount(row, w * np.array([value_of[deep[r][:depth]] for r in row.tolist()]), len(deep))
    assert (obs.weigh(dis).fiber_masses() == expected).all()


@st.composite
def wide_zero_one_matrices(draw):
    """0/1 matrices of order 1-64, relabelled at random: an n-cycle plus one chord n-1 -> j,
    periodic when gcd(n, j) > 1 and Wielandt's matrix at j = 1, or random entries allowed
    only from each of p cyclic classes to the next, periodic for p >= 2 when irreducible."""
    n = draw(st.integers(1, 64))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        a = np.zeros((n, n), dtype=int)
        a[np.arange(n), (np.arange(n) + 1) % n] = 1
        a[n - 1, draw(st.integers(0, n - 1))] = 1
    else:
        p = draw(st.integers(1, 4))
        label = rng.integers(0, p, n)
        step = (label[:, None] + 1) % p == label[None, :]
        a = ((rng.random((n, n)) < draw(st.sampled_from([0.05, 0.2, 0.6]))) & step).astype(int)
    order = rng.permutation(n)
    return a[np.ix_(order, order)]


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(wide_zero_one_matrices())
def test_primitivity_by_squaring_matches_power_by_power_up_to_64_symbols(a):
    assert _is_primitive(a) == is_primitive_by_powers(a)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.floats(allow_nan=False, allow_infinity=False))
def test_normal_cdf_matches_scipy_ndtr(a):
    from scipy.special import ndtr

    from skewfiber.limits import _normal_cdf

    assert abs(_normal_cdf(a) - float(ndtr(np.float64(a)))) <= 2.0**-51


# 0, -0, 1, their neighbouring floats, points outside [0, 1], and non-finite points
_SEGMENT_POINTS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, 5e-324, -5e-324, np.nextafter(1.0, 0.0), np.nextafter(1.0, 2.0),
                     np.inf, -np.inf, np.nan]),
    st.floats(-0.5, 1.5),
    st.floats(allow_nan=True, allow_infinity=True),
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    st.lists(st.one_of(st.just(-0.0), st.floats(-1e300, 1e300)), min_size=2, max_size=2),
    st.lists(_SEGMENT_POINTS, min_size=1, max_size=40),
)
def test_one_segment_evaluation_is_np_interp(values, points):
    h = PiecewiseLinearFn([0.0, 1.0], values)
    y = np.array(points)
    for got, want in ((h(y), np.interp(y, [0.0, 1.0], values)), (h(y[0]), np.interp(y[0], [0.0, 1.0], values))):
        assert type(got) is type(want)
        assert np.array_equal(got, want, equal_nan=True)
        assert np.array_equal(np.signbit(got), np.signbit(want))


@st.composite
def inverse_cdf_rows(draw):
    """Cumulative laws over 2-6 symbols without their last entry.

    Zero weights repeat a threshold within a row (like markov3's 0.0), and
    a row drawn twice repeats all of its thresholds.
    """
    n = draw(st.integers(2, 6))
    weight = st.one_of(st.just(0.0), st.sampled_from([0.1, 0.25, 0.5]), st.floats(0.01, 1.0))
    rows = []
    for _ in range(draw(st.integers(1, n + 1))):
        if rows and draw(st.booleans()):
            rows.append(draw(st.sampled_from(rows)))
            continue
        w = np.array(draw(st.lists(weight, min_size=n, max_size=n)))
        hypothesis.assume(w.sum() > 0.0)
        rows.append(np.cumsum(w / w.sum()))
    return np.array(rows)[:, :n - 1]


def compare_and_add(row, u):
    """Inverse CDF of one row at u: the count of its cumulative entries at or below u."""
    symbol = 0
    for c in row.tolist():
        symbol += c <= u
    return symbol


def assert_rank_table_matches(cum, uniforms):
    thresholds, table = symbol_lookup(cum)
    ranks = symbol_ranks(thresholds, uniforms)
    assert ranks.dtype == np.min_scalar_type(thresholds.size)
    for prev, row in enumerate(cum):
        assert table[prev].take(ranks).tolist() == [compare_and_add(row, u) for u in uniforms.tolist()]


@FAST
@given(cum=inverse_cdf_rows(), draws=st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=20))
def test_rank_table_gives_the_compare_and_add_symbol(cum, draws):
    # every threshold exactly and one ulp to either side, 0, the largest double below 1, and free draws
    edges = np.unique(cum)
    uniforms = np.concatenate([
        edges, np.nextafter(edges, -1.0), np.nextafter(edges, 2.0), [0.0, np.nextafter(1.0, 0.0)], draws,
    ])
    assert_rank_table_matches(cum, uniforms)


def test_rank_table_past_255_distinct_thresholds():
    # 20 symbols: 21 rows of 19 cumulative entries give 399 distinct thresholds and two-byte ranks
    rng = np.random.default_rng(7)
    w = rng.random((21, 20))
    cum = np.cumsum(w / w.sum(axis=1, keepdims=True), axis=1)[:, :19]
    thresholds, _ = symbol_lookup(cum)
    assert thresholds.size > 255
    assert symbol_ranks(thresholds, np.zeros(1)).dtype == np.uint16
    edges = [thresholds, np.nextafter(thresholds, -1.0), [0.0, np.nextafter(1.0, 0.0)]]
    uniforms = np.concatenate([*edges, rng.random(200)])
    assert_rank_table_matches(cum, uniforms)


SOLVES = settings(max_examples=6, deadline=None, derandomize=True, database=None)
REF_GRID = 1 << 16


@st.composite
def systems(draw):
    """Symbol-only system on the full 2- or 3-symbol shift with a random Markov base."""
    n = draw(st.integers(2, 3))
    rows = [draw(st.lists(st.floats(0.1, 1.0), min_size=n, max_size=n)) for _ in range(n)]
    transition = np.array(rows) / np.sum(rows, axis=1, keepdims=True)
    maps = []
    for _ in range(n):
        slope = draw(st.floats(-0.5, 0.5))
        # the offset keeps the branch image inside [0, 1]
        offset = draw(st.floats(max(0.0, -slope), min(1.0, 1.0 - slope)))
        maps.append(FiberMapSpec(slope, offset))
    matrix = TransitionMatrix(np.ones((n, n), dtype=int))
    return SystemSpec(matrix, 0.5, BaseWeights(transition), maps)


def assert_certificate_covers_reference(sys, depth):
    res = fixed_point(sys, depth=depth, grid=512)
    ref = fixed_point(sys, depth=depth, tol=1e-10, grid=REF_GRID)
    gap = change_between(res.disintegration, ref.disintegration)
    # both certificates bound the distance to the same invariant disintegration
    assert gap <= res.certified_error + ref.certified_error


class TestFixedPointCertificate:
    @SOLVES
    @given(systems())
    def test_random_systems(self, sys):
        assert_certificate_covers_reference(sys, depth=2)

    @pytest.mark.parametrize("demo", [coupled_demo, markov_demo])
    def test_demos(self, demo):
        sys = demo()
        assert_certificate_covers_reference(sys, depth=sys.offset_depth)


class TestMomentClosureAgainstTheLagLoop:
    """The exact closure against the quantized lag loop it replaced in ``clt``, on random Markov systems."""

    @SOLVES
    @given(systems())
    def test_exact_lags_and_sigma2_within_the_lag_loops_bounds(self, sys):
        phi = Observable.fiber(sys.matrix, PiecewiseLinearFn.identity())
        fixed = fixed_point(sys, depth=2, grid=512)
        exact = asymptotic_variance(sys, phi, 2, 400)
        sigma2, tail, numeric, curve = lag_loop_variance(sys, fixed, phi, 30)
        # each quantized lag within its certified error of the exact one
        assert (np.abs(curve.values - exact.lags[:31]) <= curve.err_bounds + exact.lag_errors[:31]).all()
        # the truncated sum within its certified error and its fitted tail
        assert abs(sigma2 - exact.sigma2) <= numeric + tail + exact.numeric_error
        # the two-solve sigma^2 is the series of its own lags; past lag 400 they are below 0.9^400
        series = math.fsum([exact.lags[0]] + (2.0 * exact.lags[1:]).tolist())
        assert abs(series - exact.sigma2) <= exact.numeric_error + exact.lag_errors[0] + 2.0 * exact.lag_errors[1:].sum()

    def test_reweighing_error_factor_is_attained(self):
        # y times delta_1 against y times delta_{1 - eps}: the fibers lie 2 eps - eps^2 apart in the dual
        # norm, all but eps^2 of the (sup + Lip) eps that lag 0 charges for the reweighing.  phi is y over
        # [0] and -y over [1], so its mean is 0 and it is its own centring; as ``later`` it reads the charge once
        sys, eps = cantor_demo(), 2.0**-10
        mu_hat = Disintegration.product(sys.matrix, 1, AtomicMeasure.dirac(1.0))
        phi = Observable(sys.matrix, 1, [PiecewiseLinearFn.identity(), PiecewiseLinearFn([0.0, 1.0], [0.0, -1.0])],
                         [0, 1])
        lag0 = correlation_curve(sys, FixedPointResult(mu_hat, eps, 0, 0.0, 0.0, sys.alpha), phi, phi, 0)
        gap = wk_distance(AtomicMeasure.dirac(1.0), AtomicMeasure.dirac(1.0 - eps, 1.0 - eps))
        assert gap == 2.0 * eps - eps**2 <= lag0.err_bounds[0]
