"""Reference implementations that the tests hold the package to.

Each oracle computes its quantity the direct way, one word, prefix or fiber
at a time, or, for the dual norm, with an off-the-shelf LP solver that holds
both the heap pass of ``row_norms`` and the flow of ``wk_distance_primal`` to
the same program, and shares no table code with the ``skewfiber`` function
it cross-checks.  The per-word references at the end are the exception:
they are the package's table operations with one row per word, arithmetic
unchanged from before the package stored each distinct fiber once, and they
hold the shared layout to the same floats.  So are the two references of
the moment closure: ``lag_loop_variance`` is the quantized σ² estimate the
closure replaced, on ``correlation_curve``, and ``exact_moment_closure``
reads the package's float tables and does the rest in exact rationals.
Four more are references that no command runs: ``branch_map`` reads one
word's branch straight from its fiber map, ``word_index`` maps each word
tuple to its row, ``word_distances`` is the dense n x n table of the
distance kernel that ``pair_lipschitz`` reads one class at a time, and
``admissibility_report`` lists the U2, U3, A1 and A2 quantities of a delta
grid beside the package's R(delta), ``_budget``.
None of them is part of the package.
"""

import math
import operator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from skewfiber.fitting import exp_fit
from skewfiber.limits import DEFAULT_GRID, correlation_curve, fiber_average, integrate_observable
from skewfiber.measures import ZERO_MEASURE, AtomicMeasure, merge_atoms, round_up, row_norms
from skewfiber.skew import c1_constant, orbit_stream, symbol_tracks
from skewfiber.stability import _budget, _fiber_gap, _jacobian_gap, realize
from skewfiber.symbolic import TransitionMatrix, _distances, base_rate, check_theta, cylinder_mass_vector
from skewfiber.transfer import Disintegration


def integrate(mu, h):
    """Integral of a piecewise-linear function against an atomic measure."""
    if mu.n_atoms == 0:
        return 0.0
    return float(np.dot(mu.weights, h(mu.positions)))


def pushforward(mu, t):
    """Image measure of mu under an affine contraction of [0,1].

    Atoms are mapped through the affine map, weights kept; coincident images
    merge by weight addition.
    """
    lo, hi = sorted((t.b, t.a + t.b))
    if not (abs(t.a) < 1.0 and lo >= -1e-12 and hi <= 1.0 + 1e-12):
        raise ValueError(f"{t!r} is not an affine contraction of [0,1] into itself")
    return AtomicMeasure(t.a * mu.positions + t.b, mu.weights)


class AffineMap:
    """Affine self-map of [0, 1], y -> a*y + b."""

    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = float(a)
        self.b = float(b)

    def __call__(self, y):
        return self.a * y + self.b

    def __repr__(self):
        return f"AffineMap(a={self.a!r}, b={self.b!r})"


def branch_map(sys, source_word):
    """Affine fiber map attached to the cylinder of ``source_word``.

    The branch symbol is the word's first entry; the offset correction is
    read from the depth-``offset_depth`` prefix, so the word needs at
    least that many symbols.
    """
    d = sys.offset_depth
    if len(source_word) < d:
        raise ValueError(f"branch map needs a word of at least {d} symbols, got {source_word}")
    fm = sys.fiber_maps[source_word[0]]
    return AffineMap(fm.slope, fm.offset + fm.correction(tuple(source_word[:d])))


def wk_distance_bruteforce(mu, nu=ZERO_MEASURE):
    """LP reference for ``wk_distance``.

    Solves the same dual program with scipy's LP solver: one variable g_i
    per atom of the merged support, bounds |g_i| <= 1, and
    |g_{i+1} - g_i| <= x_{i+1} - x_i, which encodes Lip(g) <= 1 exactly on a
    line.  The objective only reads g at the atoms, so no finer grid can
    change the optimum.  The solver may move each g_i past its bounds by up
    to its feasibility tolerance, so the feasibility tolerances are 1e-10,
    the smallest HiGHS accepts, not its default 1e-7.  They are absolute, so
    the program runs on the weights scaled to unit total variation and its
    optimum is scaled back: a lone atom of weight 3e-13 would otherwise sit
    below the dual tolerance, and the solver could return minus its norm.
    The solver shares no code with the heap pass in ``wk_distance``.
    """
    from scipy import sparse
    from scipy.optimize import linprog

    _, x, c = merge_atoms(0, np.r_[mu.positions, nu.positions], np.r_[mu.weights, -nu.weights])
    n = x.size
    if n == 0:
        return 0.0
    gaps = np.diff(x)
    rows = np.repeat(np.arange(2 * (n - 1)), 2)
    cols = np.tile(np.stack([np.arange(n - 1), np.arange(1, n)], axis=1).ravel(), 2)
    data = np.concatenate([np.tile([-1.0, 1.0], n - 1), np.tile([1.0, -1.0], n - 1)])
    a_ub = sparse.csr_matrix((data, (rows, cols)), shape=(2 * (n - 1), n))
    b_ub = np.concatenate([gaps, gaps])
    tol = {"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10}
    # linprog minimizes; merge_atoms drops zero weights, so the total variation is positive
    scale = float(np.abs(c).sum())
    res = linprog(-c / scale, A_ub=a_ub, b_ub=b_ub, bounds=(-1.0, 1.0), method="highs", options=tol)
    if not res.success:
        raise RuntimeError(f"reference LP failed: {res.message}")
    return float(-res.fun) * scale


def disintegration_from_json(data):
    """Inverse of ``Disintegration.to_json_dict``, fiber by fiber."""
    matrix = TransitionMatrix(data["matrix"])
    fibers = {
        tuple(w): AtomicMeasure(a, ws)
        for w, a, ws in zip(data["words"], data["atoms"], data["weights"])
    }
    return Disintegration.from_fibers(matrix, data["depth"], fibers)


def word_sum_iterate(sys, nu0, steps, depth, budget=2_000_000):
    """Direct k-step image of the product m x nu0 as one word sum.

    For each target word the fibers of all admissible length-k prefixes are
    pushed through the composed affine branch maps along the prefix and
    mixed with the telescoping jacobian weights.  Agrees with ``steps``
    applications of ``transfer_apply`` up to floating point.
    """
    if steps < 1:
        raise ValueError("steps must be positive")
    matrix = sys.matrix
    if matrix.word_count(steps) * max(nu0.n_atoms, 1) * matrix.word_count(depth) > budget:
        raise ValueError(
            "word sum exceeds the atom budget; reduce steps or use fixed_point with a "
            "quantization grid"
        )
    prefixes = matrix.words(steps)
    jacobian = sys.weights.jacobian.tolist()
    rows, positions, weights = [], [], []
    for r, w in enumerate(matrix.words(depth)):
        for a in prefixes:
            full = a + w
            weight = math.prod(jacobian[full[t]][full[t + 1]] for t in range(steps))
            if weight == 0.0:
                continue
            # the branch maps along the prefix, composed innermost first
            first = branch_map(sys, full)
            slope, offset = first.a, first.b
            for t in range(1, steps):
                outer = branch_map(sys, full[t:])
                slope, offset = outer.a * slope, outer.a * offset + outer.b
            rows.append(np.full(nu0.n_atoms, r))
            positions.append(slope * nu0.positions + offset)
            weights.append(weight * nu0.weights)
    return Disintegration(
        matrix, depth, np.concatenate(rows), np.concatenate(positions), np.concatenate(weights)
    )


def hutchinson_reference(sys, steps, x0=0.5):
    """Depth-``steps`` iteration of the plain fiber iterated function system.

    Only meaningful for symbol-only Bernoulli systems (every row of the base
    chain equals pi), where the invariant disintegration is the product of
    the base measure with this ifs fixed point; the result is within
    alpha^steps of it in the dual metric.
    """
    if sys.offset_depth != 1 or not sys.weights.is_bernoulli:
        raise ValueError("the ifs reference needs a symbol-only system with Bernoulli weights")
    maps = [branch_map(sys, (i,)) for i in range(sys.n_symbols)]
    atoms = np.array([float(x0)])
    weights = np.array([1.0])
    for _ in range(steps):
        atoms = np.concatenate([t.a * atoms + t.b for t in maps])
        weights = np.concatenate([p * weights for p in sys.weights.stationary])
    return AtomicMeasure(atoms, weights)


def is_primitive_by_powers(a):
    """Whether some power of the 0/1 matrix ``a`` is positive, one power at a time.

    Checks A, A^2, ..., up to Wielandt's exponent (N-1)^2 + 1, multiplying by
    A once per power: the loop ``symbolic._is_primitive`` replaced.
    """
    n = a.shape[0]
    reach = a > 0
    step = a > 0
    for _ in range((n - 1) ** 2 + 1):
        if reach.all():
            return True
        reach = reach @ step
    return bool(reach.all())


def base_correlation(weights, matrix, psi, s, lag):
    """Correlation of two cylinder functions at a time lag, by exact summation.

    Computes int (psi o sigma^lag) s dm - int psi dm int s dm over the
    admissible words of depth lag + k.
    """
    if lag < 0:
        raise ValueError("lag must be nonnegative")
    if psi.depth != s.depth:
        raise ValueError("observables must share a depth")
    k = psi.depth
    idx = word_index(matrix, k)
    masses = cylinder_mass_vector(weights, matrix, lag + k)
    cross = 0.0
    for mass, w in zip(masses, matrix.words(lag + k)):
        cross += mass * psi.values[idx[w[lag:lag + k]]] * s.values[idx[w[:k]]]
    return float(cross - psi.mean(weights) * s.mean(weights))


def word_index(matrix, depth):
    """Word -> position in ``matrix.words(depth)``, as a dict of tuples."""
    return {w: i for i, w in enumerate(matrix.words(depth))}


def word_distances(matrix, depth, theta):
    """Base distances between all admissible words of a depth, as an n x n array."""
    arr = matrix.word_array(depth)
    return _distances(arr, arr, check_theta(theta))


def component(obs, word):
    """Fiber component of an observable over a word, read from the word's depth-k prefix."""
    row = word_index(obs.matrix, obs.depth)[tuple(word[: obs.depth])]
    return obs.pieces[obs.piece_of_word[row]]


def base_lipschitz(obs, theta):
    """Largest sup-gap between two words' components over their base distance."""
    words = obs.matrix.words(obs.depth)
    dist = word_distances(obs.matrix, obs.depth, theta)
    best = 0.0
    for a in range(len(words)):
        ha = obs.pieces[obs.piece_of_word[a]]
        for b in range(a + 1, len(words)):
            hb = obs.pieces[obs.piece_of_word[b]]
            grid = np.union1d(ha.breakpoints, hb.breakpoints)
            gap = float(np.abs(ha(grid) - hb(grid)).max())
            best = max(best, gap / dist[a, b])
    return float(best)


def observable_lipschitz(obs, theta):
    """Lipschitz constant of an observable for the sum metric d(x,x') + |y - y'|."""
    return max(obs.fiber_lipschitz(), base_lipschitz(obs, theta))


def fiber_average_margin(sys, mu0, obs, lip_mu0):
    """Margin of the regularity bound |s|_theta <= max(L, sup) lip(mu0) + L.

    ``lip_mu0`` is ``lip_constant(mu0, sys.theta)``, computed once by the
    caller for any number of observables.
    """
    theta = sys.theta
    s = fiber_average(mu0, obs)
    lip = observable_lipschitz(obs, theta)
    bound = max(lip, obs.sup_norm()) * lip_mu0 + lip
    return bound - s.lipschitz(theta)


def correlation_lattice(sys, mu0, now, later, lag, budget=1 << 21):
    """Direct word-sum evaluation of one lagged covariance.

    Enumerates all admissible words long enough to carry the ``now``
    component, the invariant fiber, the branch maps along the lag, and the
    shifted ``later`` component; the fiber of a long word is the invariant
    fiber of its working-depth prefix.  The ``now`` observable is centered
    inside the sum (subtracting the product of the means instead would
    differ by the deviation of the computed measure from exact invariance).
    Exponential in the lag; an independent check of ``correlation_curve``
    at small lags.
    """
    matrix = sys.matrix
    length = max(now.depth, mu0.depth, lag + later.depth, lag - 1 + sys.offset_depth)
    if matrix.word_count(1) ** length > budget:
        raise ValueError("lattice sum exceeds the word budget; use correlation_curve")
    m_now = integrate_observable(sys, mu0, now)
    masses = cylinder_mass_vector(sys.weights, matrix, length)
    fibers = mu0.fibers
    total = 0.0
    for mass, w in zip(masses, matrix.words(length)):
        fiber = fibers[w[: mu0.depth]]
        path = ys = fiber.positions
        for t in range(lag):
            b = branch_map(sys, w[t:])
            path = b.a * path + b.b
        vals = (component(now, w)(ys) - m_now) * component(later, w[lag:])(path)
        total += mass * float(np.dot(fiber.weights, vals))
    return total


def lag_loop_variance(sys, fixed, phi, truncation, grid=DEFAULT_GRID):
    """Truncated Green-Kubo variance from quantized lags, with a fitted geometric tail.

    sigma^2 = C_0 + 2 sum_{j<=J} C_j from ``correlation_curve`` on the
    fixed point ``fixed`` (a ``FixedPointResult``).  Returns ``(sigma2, tail, numeric, curve)``:
    ``tail`` sums the curve's least-squares exponential envelope beyond the
    truncation, so it is fitted, not certified; ``numeric`` adds up the
    lags' certified quantization errors.  This is the estimate ``clt``
    tested against before it read sigma^2 from the moment closure.
    """
    m_phi = integrate_observable(sys, fixed.disintegration, phi)
    centered = phi.shifted(-m_phi)
    curve = correlation_curve(sys, fixed, centered, centered, truncation, grid=grid)
    sigma2 = float(curve.values[0] + 2.0 * curve.values[1:].sum())
    fit = exp_fit(curve.lags, curve.values)
    if fit.n_used < 2:
        tail = 0.0
    elif fit.rate < 1.0:
        tail = 2.0 * fit.constant * fit.rate ** (truncation + 1) / (1.0 - fit.rate)
    else:
        tail = math.inf
    numeric = float(curve.err_bounds[0] + 2.0 * curve.err_bounds[1:].sum())
    return sigma2, tail, numeric, curve


def _exact_solve(a, rhs):
    """Solution of the square system a x = rhs over ``Fraction`` by Gauss-Jordan elimination."""
    n = len(rhs)
    rows = [list(row) + [v] for row, v in zip(a, rhs)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if rows[r][col] != 0)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        for r in range(n):
            if r != col and rows[r][col] != 0:
                f = rows[r][col] / rows[col][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[col])]
    return [rows[i][n] / rows[i][i] for i in range(n)]


def exact_moment_closure(sys, phi, depth, nlags, later=None):
    """``asymptotic_variance`` in exact rational arithmetic: (mean, sigma2, lags, m1, m2) as ``Fraction``s.

    The jacobian, the branches, the cylinder masses, the stationary vector
    and phi's values at 0 and 1 are read as the exact rationals of the
    floats ``asymptotic_variance`` reads, so the two evaluate one closure and
    differ only by the package's rounding.  The terms come from the admissible
    one-symbol extensions word by word, every solve is one Gauss-Jordan
    elimination on the whole n_words x n_words system, and the tail beyond
    d - 1 explicit steps solves Z T = P z with Z = I - P + 1 pi^T, P = jacobian^T.
    The lags are C_n = cov(phi, later o F^n) = m.(p~' A[1]^n u + q' r_n), with
    p~' and q' read from ``later`` (default phi) as p~ and q are from phi.
    """
    matrix, n = sys.matrix, sys.n_symbols
    words, index = matrix.words(depth), word_index(matrix, depth)
    size = len(words)
    jac = [[Fraction(x) for x in row] for row in sys.weights.jacobian.tolist()]
    pi = [Fraction(x) for x in sys.weights.stationary.tolist()]
    terms = [[(index[(i,) + t[:-1]], jac[i][t[0]]) for i in range(n) if matrix.entries[i, t[0]]] for t in words]
    maps = [branch_map(sys, w) for w in words]
    a, b = [Fraction(t.a) for t in maps], [Fraction(t.b) for t in maps]
    m = [Fraction(x) for x in cylinder_mass_vector(sys.weights, matrix, depth).tolist()]

    def mul(*vs):
        return [math.prod(xs) for xs in zip(*vs)]

    def add(*vs):
        return [sum(xs) for xs in zip(*vs)]

    def apply(v, c=None):
        c = c or [1] * size
        return [sum(g * c[s] * v[s] for s, g in ts) for ts in terms]

    def solve(c, f):
        mat = [[Fraction(int(i == j)) for j in range(size)] for i in range(size)]
        for t, ts in enumerate(terms):
            for s, g in ts:
                mat[t][s] -= g * c[s]
        return _exact_solve(mat, f)

    def centre(obs):
        """(mean, p~, q) of obs = p + q y on the words, from its values at 0 and 1."""
        ends = [component(obs, w).values for w in words]
        p = [Fraction(v[0]) for v in ends]
        q = [Fraction(v[-1]) - Fraction(v[0]) for v in ends]
        mean = sum(mul(m, add(p, mul(q, m1))))
        return mean, [x - mean for x in p], q

    one = [Fraction(1)] * size
    m1 = solve(a, apply(one, b))
    m2 = solve(mul(a, a), add(apply(one, mul(b, b)), mul([2] * size, apply(m1, mul(a, b)))))
    mean, pt, q = centre(phi)
    _, pt_later, q_later = (mean, pt, q) if later is None else centre(later)
    u, w0 = add(pt, mul(q, m1)), add(mul(pt, m1), mul(q, m2))
    x, xsum = u, [Fraction(0)] * size
    for _ in range(depth - 1):
        x = apply(x)
        xsum = add(xsum, x)
    z = [x[next(k for k, w in enumerate(words) if w[0] == j)] for j in range(n)]
    zmat = [[int(i == j) - jac[j][i] + pi[j] for j in range(n)] for i in range(n)]
    tail = _exact_solve(zmat, [sum(jac[j][i] * z[j] for j in range(n)) for i in range(n)])
    xsum = add(xsum, [tail[w[0]] for w in words])
    v = solve(a, add(apply(w0, a), apply(add(u, xsum), b)))
    sigma2 = sum(mul(m, add(mul(pt, add(u, mul([2] * size, xsum))), mul(q, add(w0, mul([2] * size, v))))))
    r0, r1, lags = u, w0, []
    for k in range(nlags + 1):
        if k:
            r0, r1 = apply(r0), add(apply(r1, a), apply(r0, b))
        lags.append(sum(mul(m, add(mul(pt_later, r0), mul(q_later, r1)))))
    return mean, sigma2, lags, m1, m2


# ---------------------------------------------------------------------------
# one row per word: the table operations before fibers were shared
# ---------------------------------------------------------------------------


def word_table(dis):
    """(row, pos, w, starts) with one row per word, read through ``fibers`` in word order."""
    mus = list(dis.fibers.values())
    row = np.repeat(np.arange(len(mus)), [mu.n_atoms for mu in mus])
    pos = np.concatenate([mu.positions for mu in mus])
    w = np.concatenate([mu.weights for mu in mus])
    return row, pos, w, np.searchsorted(row, np.arange(len(mus) + 1))


def transfer_apply_per_word(sys, dis):
    """``transfer_apply`` pushing every target word's terms."""
    row, pos, w, starts = word_table(dis)
    target, source, symbol, head = sys.matrix.preimages(dis.depth)
    g = sys.weights.jacobian[symbol, head]
    a, b = (v[source] for v in sys.word_branches(dis.depth))
    lo = starts[source]
    counts = starts[source + 1] - lo
    take = np.repeat(lo - (np.cumsum(counts) - counts), counts) + np.arange(counts.sum())
    rows, g, a, b = (np.repeat(v, counts) for v in (target, g, a, b))
    return Disintegration(dis.matrix, dis.depth, rows, a * pos[take] + b, g * w[take])


def quantize_per_word(dis, grid):
    """``quantize_disintegration`` on the word table, one word's cost at a time; returns (snapped, step)."""
    row, pos, w, starts = word_table(dis)
    snapped = np.round(pos * grid) / grid
    costs = [0.0]
    for lo, hi in zip(starts[:-1].tolist(), starts[1:].tolist()):
        # each atom's move, and its share of the rounding where k atoms sum at one grid point
        _, meet, k = np.unique(snapped[lo:hi], return_inverse=True, return_counts=True)
        cost = 0.0
        for term in np.abs(w[lo:hi]) * (np.abs(snapped[lo:hi] - pos[lo:hi]) + 2.0**-52 * (k[meet] - 1)):
            cost += term
        costs.append(cost)
    n = int(np.diff(starts).max())
    step = round_up(max(costs) + n * 2.0**-1074, n + 2) if (snapped != pos).any() else 0.0
    return Disintegration(dis.matrix, dis.depth, row, snapped, w), step


def norm_inf_per_word(dis):
    row, pos, w, starts = word_table(dis)
    return float(row_norms(row, pos, w, starts.size - 1).max())


def change_between_per_word(d1, d2):
    """``change_between`` with one norm per word."""
    (r1, p1, w1, starts), (r2, p2, w2, _) = word_table(d1), word_table(d2)
    rows, pos = np.concatenate([r1, r2]), np.concatenate([p1, p2])
    return float(row_norms(rows, pos, np.concatenate([w1, -w2]), starts.size - 1).max())


def lip_constant_per_word(dis, theta):
    """``lip_constant`` over every pair of words: word a's pairs are one table."""
    row, pos, w, s = word_table(dis)
    dist = word_distances(dis.matrix, dis.depth, theta)
    n = s.size - 1
    best = 0.0
    for a in range(n - 1):
        k, lo, hi = n - 1 - a, s[a], s[a + 1]
        rows = np.concatenate([np.repeat(np.arange(k), hi - lo), row[hi:] - (a + 1)])
        p = np.concatenate([np.tile(pos[lo:hi], k), pos[hi:]])
        c = np.concatenate([np.tile(w[lo:hi], k), -w[hi:]])
        best = max(best, float((row_norms(rows, p, c, k) / dist[a, a + 1 :]).max()))
    return best


def _on_atoms(obs, dis, row, pos):
    """``obs`` at each atom of a one-row-per-word table, by its own word's component."""
    words = dis.matrix.word_array(dis.depth)
    values = np.empty(pos.size)
    for r, word in enumerate(words.tolist()):
        cells = row == r
        values[cells] = component(obs, word)(pos[cells])
    return values


def _integrate_per_word(sys, dis, obs):
    row, pos, w, starts = word_table(dis)
    masses = cylinder_mass_vector(sys.weights, dis.matrix, dis.depth)
    return float(sum((masses * np.bincount(row, w * _on_atoms(obs, dis, row, pos), starts.size - 1)).tolist()))


def _total_mass_per_word(sys, dis):
    row, _, w, starts = word_table(dis)
    masses = cylinder_mass_vector(sys.weights, dis.matrix, dis.depth)
    return float(sum((masses * np.bincount(row, weights=w, minlength=starts.size - 1)).tolist()))


def correlation_curve_per_word(sys, fixed, now, later, nmax, grid):
    """(values, err_bounds) of ``correlation_curve``, every lag on the word table."""
    mu0, eps = fixed.disintegration, fixed.certified_error
    m_now = _integrate_per_word(sys, mu0, now)
    m_later = _integrate_per_word(sys, mu0, later)
    centered = now.shifted(-m_now)
    row, pos, w, _ = word_table(mu0)
    factor = centered.sup_norm() + centered.fiber_lipschitz()
    rho = Disintegration(mu0.matrix, mu0.depth, row, pos, w * _on_atoms(centered, mu0, row, pos))
    err = eps * factor
    to_value = max(later.fiber_lipschitz(), later.sup_norm())
    mass_err = now.fiber_lipschitz() * eps
    values, errs = np.empty(nmax + 1), np.empty(nmax + 1)
    for n in range(nmax + 1):
        if n:
            rho = transfer_apply_per_word(sys, rho)
            err = sys.alpha * err + mass_err
            if grid is not None:
                rho, step = quantize_per_word(rho, grid)
                err += step
        values[n] = _integrate_per_word(sys, rho, later) - m_later * _total_mass_per_word(sys, rho)
        errs[n] = to_value * err + abs(m_later) * mass_err
    return values, errs


# ---------------------------------------------------------------------------
# orbit sampling with one Generator per trial
# ---------------------------------------------------------------------------


def sample_orbits(sys, seed, length, trials, burn_in=40, window=1, start=0):
    """Sample many independent orbits, each from its own stretch of one PCG64 stream.

    Returns ``(symbols, ys)``: ``symbols`` is trials x (length + w - 1),
    in the smallest unsigned integer type that holds the symbols, with
    w = max(window, offset_depth), so a depth-k observable (k <= w) can be
    evaluated at recorded step t via ``symbols[:, t:t+k]``, and ``ys`` is
    trials x length, the fiber coordinate before each recorded step.

    The batch holds trials ``start`` to ``start + trials - 1``.  With
    total = burn_in + length + w - 1, trial t reads draws t * total ..
    (t + 1) * total - 1 of ``Generator(PCG64(seed))``: the batch's one
    generator jumps to its first trial with PCG64's O(log n) ``advance``
    and then reads its trials in order.  A trial's uniforms depend only on
    the seed and its index, so rows lo:hi of a batch from trial 0 equal
    the batch of hi - lo trials from ``start=lo``.  The symbols come from
    ``skew.symbol_tracks``, the symbol pass that ``skew.birkhoff_sums``
    streams, and the fiber coordinates from one loop over time on dense
    branch tables by window code (``fiber_path``), the reference for the
    streamed recursion.  The fiber coordinate runs ``burn_in`` maps from
    1/2 before recording, so the recorded states are within alpha^burn_in
    of the invariant law in the dual metric.
    """
    if length < 1 or trials < 1:
        raise ValueError("length and trials must be positive")
    if burn_in < 0:
        raise ValueError("burn_in must be nonnegative")
    window = max(int(window), sys.offset_depth)
    total = int(burn_in) + int(length) + window - 1
    gen = orbit_stream(seed)
    # consecutive stretches, not a power-of-two stride: PCG64 states 2^64
    # draws apart share their low 64 bits, and their outputs correlate
    gen.bit_generator.advance(operator.index(start) * total)
    return fiber_path(sys, symbol_tracks(sys.weights, gen, trials, total), burn_in, length)


def sample_orbits_per_trial(sys, seed, length, trials, burn_in=40, window=1, start=0):
    """``sample_orbits`` as one Generator per trial and one loop over time for every base.

    Each trial builds its own ``Generator`` on a fresh ``PCG64(seed)``
    advanced to the trial's first draw, (start + t) * total; the
    uniforms are one time-major block, one loop over time maps them to
    symbols for every base, and the fiber loop writes one column of ``ys``
    per step.
    """
    if length < 1 or trials < 1:
        raise ValueError("length and trials must be positive")
    if burn_in < 0:
        raise ValueError("burn_in must be nonnegative")
    window = max(int(window), sys.offset_depth)
    total = burn_in + length + window - 1
    # time-major, so every step of the loops below reads one contiguous row
    uniforms = np.empty((total, trials))
    for t in range(trials):
        bit_generator = np.random.PCG64(seed)
        bit_generator.advance((start + t) * total)
        uniforms[:, t] = np.random.Generator(bit_generator).random(total)
    n = sys.n_symbols
    # row n is the start law: the track begins in a virtual state whose next-symbol law is pi
    weights = sys.weights
    cum = np.cumsum(np.vstack([weights.transition, weights.stationary]), axis=1)
    tracks = np.empty((total, trials), dtype=np.min_scalar_type(n - 1))
    prev = np.full(trials, n)
    for t in range(total):
        # inverse CDF of row prev: the count of cum[prev, k] <= u; the last entry
        # (1 up to rounding) is left out, which caps the symbol at n - 1
        sym = np.zeros(trials, dtype=np.intp)
        for k in range(n - 1):
            sym += cum[prev, k] <= uniforms[t]
        tracks[t] = prev = sym
    del uniforms  # lowers the peak memory of the fiber pass
    return fiber_path(sys, tracks, burn_in, length)


def window_codes(columns, n):
    """Base-n code of symbol windows given column by column, first symbol most significant, in intp."""
    codes = np.asarray(columns[0], dtype=np.intp)
    for column in columns[1:]:
        codes = codes * n + column
    return codes


def dense_window_rows(matrix, depth):
    """Row in ``words(depth)`` of every base-N window code, -1 where the window is inadmissible: N^depth entries."""
    table = np.full(matrix.n_symbols**depth, -1, dtype=np.intp)
    table[window_codes(matrix.word_array(depth).T, matrix.n_symbols)] = np.arange(matrix.word_count(depth))
    return table


def fiber_path(sys, tracks, burn_in, length):
    """``(symbols, ys)`` of time-major symbol tracks: the fiber recursion from 1/2, one step at a time.

    Step t maps y by the branch of the offset window starting at track row
    t, and ``ys[:, t - burn_in]`` is the state before step t.  The branch is
    looked up in dense tables of N^d entries by the window's base-N code.
    """
    d, trials = sys.offset_depth, tracks.shape[1]
    slopes, offsets = np.zeros((2, sys.n_symbols**d))
    for code, word in zip(window_codes(sys.matrix.word_array(d).T, sys.n_symbols), sys.matrix.words(d)):
        t = branch_map(sys, word)
        slopes[code], offsets[code] = t.a, t.b
    codes = window_codes([tracks[j: len(tracks) - d + 1 + j] for j in range(d)], sys.n_symbols)
    y = np.full(trials, 0.5)
    ys = np.empty((trials, length))
    for t in range(burn_in + length):
        if t >= burn_in:
            ys[:, t - burn_in] = y
        c = codes[t]
        y = slopes[c] * y + offsets[c]
    return np.ascontiguousarray(tracks[burn_in:].T), ys


def observable_sums(phi, symbols, ys):
    """Birkhoff sums of an observable over the orbits of ``sample_orbits``, added in step order.

    Each cell is evaluated by its own window's component, one word at a
    time over the whole trials x length array, and each trial's values are
    added one step at a time: the reference for the sums that
    ``skew.birkhoff_sums`` streams chunk by chunk.
    """
    length = ys.shape[1]
    values = np.empty(ys.shape)
    for word in phi.matrix.words(phi.depth):
        cells = np.ones(ys.shape, dtype=bool)
        for j, symbol in enumerate(word):
            cells &= symbols[:, j:length + j] == symbol
        values[cells] = component(phi, word)(ys[cells])
    sums = np.zeros(len(ys))
    for column in values.T:
        sums += column
    return sums


# cylinder depth of the U3 density-ratio proxy
U3_DEPTH = 6


@dataclass
class AdmissibilityRow:
    delta: float
    jacobian_gap: float  # U2.1 quantity
    fiber_gap: float  # U2.2 quantity
    density_ratio: float  # finite-depth U3 proxy
    c1: float  # A2 quantity
    base_rate: float  # A1 quantity, exact
    r_delta: float  # R(delta), ``_budget``


@dataclass
class AdmissibilityReport:
    rows: list
    sup_c1: float
    sup_density_ratio: float
    a1_rate: float

    @property
    def c1_finite(self):
        return math.isfinite(self.sup_c1)

    def r_of(self, delta):
        for row in self.rows:
            if row.delta == delta:
                return row.r_delta
        raise KeyError(delta)


def admissibility_report(fam, deltas):
    """Measured admissibility quantities on a delta grid.

    Per delta: the summed jacobian-weight discrepancy maximized over target
    symbols, the supremum gap of the fiber maps over the offset cylinders,
    the largest depth-``U3_DEPTH`` cylinder mass ratio against the base, the
    regularity constant of the realized system, and the exact base rate
    ``symbolic.base_rate`` of its base chain.  R(delta) is the larger of the
    first two.
    """
    if len(deltas) == 0:
        raise ValueError("need a nonempty delta grid")
    masses_0 = cylinder_mass_vector(fam.base.weights, fam.base.matrix, U3_DEPTH)
    rows = []
    for delta in deltas:
        sys_d = realize(fam, delta)
        masses_d = cylinder_mass_vector(sys_d.weights, sys_d.matrix, U3_DEPTH)
        ratio = max(1.0, float((masses_d / masses_0).max()))
        rows.append(
            AdmissibilityRow(
                delta=float(delta),
                jacobian_gap=_jacobian_gap(fam.base, sys_d),
                fiber_gap=_fiber_gap(fam.base, sys_d),
                density_ratio=ratio,
                c1=c1_constant(sys_d),
                base_rate=base_rate(sys_d.weights),
                r_delta=_budget(fam.base, sys_d),
            )
        )
    return AdmissibilityReport(
        rows=rows,
        sup_c1=max(row.c1 for row in rows),
        sup_density_ratio=max(row.density_ratio for row in rows),
        a1_rate=max(row.base_rate for row in rows),
    )
