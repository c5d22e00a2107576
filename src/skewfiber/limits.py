"""Decay of correlations, conditional-expectation decay, and the CLT experiment.

Observables are cylinder-indexed piecewise-linear fiber functions.  The
lagged covariance of two observables,

    C_n = int (later o F^n) now dmu0 - int now dmu0 int later dmu0,

is evaluated by reweighting the invariant disintegration with the centered
``now`` observable and pushing it n times through the transfer operator:
C_n is then the integral of ``later`` against the pushed measure.  One
transfer step per lag replaces the exponentially large sum over depth-(n+k)
words, and the quantization error of each step is tracked and reported as a
certified bound.

For base-only observables only the fiber masses matter, and those evolve
exactly (pushforwards and quantization both preserve mass), so exact-zero
statements, such as independence of disjoint coordinate blocks under an
i.i.d. base, hold to machine precision.

Gordin's conditional expectations need no word sums either: at level n
their L2 norm is ||P^n s||, the base transfer operator power applied to the
fiber integrals s of the centered observable (see ``gordin_norms``).

``Observable.weigh`` evaluates an observable at the atoms of a
disintegration, once per distinct (fiber, component) pair of its words.
The moment closure and the CLT read an observable affine in y on each word
as p_w + q_w y, from its values at y = 0 and 1 by window code.

The CLT experiment reads its Birkhoff sums from ``skew.birkhoff_sums``,
which owns the orbit stream, so memory does not grow with the trial count.
It centres them by the exact mean and tests them against the exact sigma^2
of ``asymptotic_variance``: the fiber moments of affine branches close
under the transfer operator, so two contraction solves and the base chain's
fundamental matrix give both, with float bounds, and no fixed point.  The
decay layers return their sequences; only the command line fits them.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .measures import UNIT_ROUNDOFF, PiecewiseLinearFn, round_up
from .skew import birkhoff_sums
from .symbolic import CylinderFunction, cylinder_mass_vector, ruelle_apply, window_codes
from .transfer import quantize_disintegration, transfer_apply

__all__ = [
    "Observable",
    "CorrelationCurve",
    "VarianceResult",
    "CLTResult",
    "CoboundaryError",
    "InconsistencyError",
    "integrate_observable",
    "fiber_average",
    "correlation_curve",
    "gordin_norms",
    "fiber_moments",
    "asymptotic_variance",
    "clt_experiment",
    "MIN_TRIALS",
]

DEFAULT_GRID = 1 << 15
# CLT experiment: inflation of the KS critical value for finite-length sums,
# the smallest trial count worth a KS test, and the fiber burn-in per orbit
KS_SLACK = 1.3
MIN_TRIALS = 100
BURN_IN = 40


class CoboundaryError(RuntimeError):
    pass


class InconsistencyError(RuntimeError):
    """Computed quantities contradict their own certified bounds."""


class Observable:
    """Observable phi(x, y) = h_{x[:k]}(y) with one fiber component per word."""

    def __init__(self, matrix, depth, components):
        words = matrix.words(depth)
        if depth < 1 or set(components) != set(words):
            raise ValueError("need depth at least 1 and one fiber component per admissible word")
        self.matrix = matrix
        self.depth = depth
        self.components = dict(components)
        # the distinct components by identity, in word order, and the piece of each window code
        self.pieces = list({id(self.components[w]): self.components[w] for w in words}.values())
        slot = {id(h): j for j, h in enumerate(self.pieces)}
        self.piece_of_code = np.zeros(matrix.n_symbols**depth, dtype=np.intp)
        codes = window_codes(matrix.word_array(depth).T, matrix.n_symbols)
        self.piece_of_code[codes] = [slot[id(self.components[w])] for w in words]

    @classmethod
    def base_only(cls, matrix, depth, values):
        """Observable constant on fibers: psi(x, y) = values[x[:k]]."""
        comps = {w: PiecewiseLinearFn.constant(values[w]) for w in matrix.words(depth)}
        return cls(matrix, depth, comps)

    @classmethod
    def fiber(cls, matrix, h):
        """Observable depending on the fiber alone, phi(x, y) = h(y)."""
        return cls(matrix, 1, {w: h for w in matrix.words(1)})

    def weigh(self, dis, g=None, err_bound=0.0):
        """Fiberwise product g(h_w) . mu|_w: each atom's weight times g of its word's component there.

        ``g`` maps an array of values and defaults to the identity.  It is
        evaluated once per distinct (fiber, piece) pair of the words.
        """
        if self.depth > dis.depth:
            raise ValueError("observable depth exceeds the disintegration depth")
        columns = dis.matrix.word_array(dis.depth).T[: self.depth]
        pieces = self.piece_of_code[window_codes(columns, self.matrix.n_symbols)]

        def times(piece, pos, w):
            if len(self.pieces) == 1:
                values = self.pieces[0](pos)
            else:
                order = np.argsort(piece, kind="stable")  # each piece reads its own range of atoms
                cuts = np.searchsorted(piece[order], np.arange(1, len(self.pieces)))
                values = np.empty(pos.size)
                for h, idx in zip(self.pieces, np.split(order, cuts)):
                    values[idx] = h(pos[idx])
            return pos, w * (values if g is None else g(values))

        return dis.mapped(pieces, times, err_bound)

    def sup_norm(self):
        return max(h.sup_norm() for h in self.pieces)

    def fiber_lipschitz(self):
        return max(h.lipschitz() for h in self.pieces)

    def dual_bound(self):
        """max(Lip, sup) of the worst component: converts wk errors to integral errors."""
        return max(max(h.lipschitz(), h.sup_norm()) for h in self.pieces)

    def shifted(self, c):
        moved = {id(h): h.shifted(c) for h in self.pieces}
        return Observable(
            self.matrix, self.depth, {w: moved[id(h)] for w, h in self.components.items()}
        )

    def __repr__(self):
        return f"Observable(depth={self.depth}, {len(self.components)} components)"


def _fiber_integrals(dis, obs):
    """Fiber integrals int h_w d mu|_w, in word order."""
    return obs.weigh(dis).fiber_masses()


def integrate_observable(sys, dis, obs):
    """Exact integral sum_w m([w]) int h_w d mu|_w; linear in both arguments."""
    masses = cylinder_mass_vector(sys.weights, dis.matrix, dis.depth)
    return float(sum((masses * _fiber_integrals(dis, obs)).tolist()))


def fiber_average(sys, mu0, obs):
    """Fiber averages s(w) = int h_w d mu0|_w / phi1(w) as a cylinder function."""
    integrals, masses = _fiber_integrals(mu0, obs), mu0.fiber_masses()
    if (masses == 0.0).any():
        raise ValueError(f"vanishing marginal density on word {mu0.words()[np.argmax(masses == 0.0)]}")
    return CylinderFunction(mu0.matrix, mu0.depth, integrals / masses)


# ---------------------------------------------------------------------------
# correlations
# ---------------------------------------------------------------------------


def _weighted_disintegration(dis, obs):
    """Fiberwise pointwise product h_w . (mu|_w); exact on atoms.

    A wk discrepancy of eps in a fiber becomes at most (sup + Lip) eps after
    the product, since g h has supremum sup(h) and Lipschitz constant
    Lip(g) sup(h) + sup(g) Lip(h) for any admissible test function g.
    """
    factor = obs.sup_norm() + obs.fiber_lipschitz()
    return obs.weigh(dis, err_bound=dis.err_bound * factor)


@dataclass
class CorrelationCurve:
    lags: np.ndarray
    values: np.ndarray
    err_bounds: np.ndarray


def correlation_curve(sys, mu0, now, later, nmax, grid=DEFAULT_GRID):
    """Lagged covariances C_n = cov(now, later o F^n) for n = 0..nmax.

    The centered ``now`` observable reweighs mu0; each lag is one transfer
    step (quantized on ``grid`` when given, with the error tracked into
    ``err_bounds``: the transfer step contracts the tracked error by alpha,
    and each snap adds the mass it moved, measured and rounded up by
    ``quantize_disintegration``).  On unit-mass fibers, as ``fixed_point``
    returns, a fiber-dependent ``now`` also moves each fiber's mass, by at
    most Lip(now) times mu0's error; mixing does not contract that, so every
    step adds it, and the ``later`` mean it pairs with adds its share to
    every lag.
    """
    m_now = integrate_observable(sys, mu0, now)
    m_later = integrate_observable(sys, mu0, later)
    rho = _weighted_disintegration(mu0, now.shifted(-m_now))
    to_value = later.dual_bound()
    mass_err = now.fiber_lipschitz() * mu0.err_bound
    values, errs = np.empty(nmax + 1), np.empty(nmax + 1)
    for n in range(nmax + 1):
        if n:
            rho = transfer_apply(sys, rho)
            rho.err_bound += mass_err
            if grid is not None:
                rho, _ = quantize_disintegration(rho, grid)
        values[n] = integrate_observable(sys, rho, later) - m_later * rho.total_mass(sys.weights)
        errs[n] = to_value * rho.err_bound + abs(m_later) * mass_err
    return CorrelationCurve(np.arange(nmax + 1), values, errs)


# ---------------------------------------------------------------------------
# Gordin conditional expectations
# ---------------------------------------------------------------------------


def gordin_norms(sys, mu0, phi, nmax):
    """L2 norms of the conditional expectations of centered phi on the future filtration.

    Level n conditions on the base coordinates from time n on.  With s(w) =
    int phi~_w d mu0|_w the unnormalized fiber integrals of the centered
    observable, the conditional expectation is P^n s for the base transfer
    operator P, so ||E[phi~ | sigma^-n B]||_2 = ||P^n s||_{L2(m)} (Gordin
    1969; Liverani 1996): one ``ruelle_apply`` per level, exact at every n.
    Returns the norms of levels 0..nmax.
    """
    m_phi = integrate_observable(sys, mu0, phi)
    s = CylinderFunction(mu0.matrix, mu0.depth, _fiber_integrals(mu0, phi.shifted(-m_phi)))
    masses = cylinder_mass_vector(sys.weights, mu0.matrix, mu0.depth)
    norms = np.empty(nmax + 1)
    for n in range(nmax + 1):
        norms[n] = math.sqrt(float(np.dot(masses, s.values**2)))
        s = ruelle_apply(s, sys.weights)
    return norms


# ---------------------------------------------------------------------------
# asymptotic variance and the CLT
# ---------------------------------------------------------------------------


_2U = 2.0 * UNIT_ROUNDOFF


class _Ball:
    """Float ``x`` with ``e`` >= ||x - x*||_inf, x* its value in exact arithmetic; a rounding adds 2u |result|."""

    def __init__(self, x, e=0.0):
        self.x, self.e, self.top = x, e, float(np.abs(x).max())

    def __add__(self, other):
        z = self.x + other.x
        return _Ball(z, round_up(self.e + other.e + _2U * float(np.abs(z).max()), 3))

    def __sub__(self, other):
        return self + _Ball(-other.x, other.e)

    def __mul__(self, other):
        z = self.x * other.x
        return _Ball(z, round_up(self.top * other.e + (other.top + other.e) * self.e + _2U * float(np.abs(z).max()), 6))


class _Closure:
    """A[c] v, the sum of g c v over each depth-``depth`` word's ``preimages`` terms, with float bounds.

    The per-word factors c multiply v before one ``ruelle_apply``.  ``rate``
    bounds ||A[c]||_inf by the largest jacobian column sum times max|c|, and a
    word's at most N terms round at most N + 2 times each, so gamma_{N+3}
    (Higham, section 3.1) bounds an application's rounding, with a sum to spare.
    """

    def __init__(self, sys, depth):
        self.sys, self.depth, n = sys, depth, sys.n_symbols
        self.colmax = round_up(float(sys.weights.jacobian.sum(axis=0).max()), n)
        self.gamma = round_up((n + 3) * UNIT_ROUNDOFF, n + 3)

    def rate(self, c):
        return round_up(self.colmax * math.prod(float(np.abs(f).max()) for f in c), len(c))

    def __call__(self, v, *c):
        y = v.x
        for f in c:
            y = f * y
        out = ruelle_apply(CylinderFunction(self.sys.matrix, self.depth, y), self.sys.weights).values
        return _Ball(out, round_up(self.rate(c) * (v.e + self.gamma * v.top), 3))

    def solve(self, f, *c):
        """x = A[c] x + f, iterated from f while the bound |A[c] x + f - x| / (1 - kappa) falls.

        Returns the last iterate whose bound fell, kappa = ``rate(c)`` and the iteration count.
        """
        kappa, x, last = self.rate(c), _Ball(f.x), None
        if kappa >= 1.0:
            raise ValueError(f"the moment closure needs a fiber rate bound below 1, got {kappa!r}")
        for steps in itertools.count(1):
            y = self(x, *c) + f
            residual = y - x
            ball = _Ball(x.x, round_up((residual.top + residual.e) / (1.0 - kappa), 3))
            if last is not None and ball.e >= last.e:
                return last, kappa, steps
            last, x = ball, _Ball(y.x)


def fiber_moments(sys, depth):
    """Invariant fiber moments M_k[w] = int y^k d mu|_w, k = 1, 2, on the depth-``depth`` words.

    Affine branches y -> a y + b close them under the transfer operator
    (Barnsley & Demko, Proc. R. Soc. Lond. A 399, 1985): M_1 = A[a] M_1 + A[b] 1
    and M_2 = A[a^2] M_2 + 2 A[ab] M_1 + A[b^2] 1, contractions at rates max|a|
    and max a^2, as the weights into a word sum to 1.  Returns M_1 and M_2,
    each ``x`` with its float bound ``e``, and each solve's (name, kappa, iterations).
    """
    closure, (a, b) = _Closure(sys, depth), sys.word_branches(depth)
    one = _Ball(np.ones(a.size))
    m1, *first = closure.solve(closure(one, b), a)
    m2, *second = closure.solve(closure(one, b, b) + closure(m1 + m1, a, b), a, a)
    return m1, m2, [("M1", *first), ("M2", *second)]


@dataclass
class VarianceResult:
    """Exact mean, sigma^2 and lags C_0..C_nlags, each with its float bound, and each solve's (name, kappa, iterations)."""

    mean: float
    mean_error: float
    sigma2: float
    numeric_error: float
    lags: np.ndarray
    lag_errors: np.ndarray
    solves: list
    possible_coboundary: bool


def _end_values(phi):
    """phi at y = 0 and y = 1 by window code, phi = p + (end - p) y; a piece without breakpoints is not affine."""
    if any(len(getattr(h, "breakpoints", ())) != 2 for h in phi.pieces):
        raise ValueError("phi must be affine in y on each word: one segment over [0, 1]")
    ends = np.array([h.values for h in phi.pieces])
    return ends[phi.piece_of_code, 0], ends[phi.piece_of_code, 1]


def asymptotic_variance(sys, phi, depth, nlags):
    """Mean, sigma^2 = C_0 + 2 sum_{n>=1} C_n and C_0..C_nlags of phi = p_w + q_w y, from the moment closure.

    With M_1, M_2 from ``fiber_moments``, masses m, p~ = p - int phi, u = p~ + q M_1
    and w_0 = p~ M_1 + q M_2, the lag-n image of phi~ mu has fiber masses
    A[1]^n u and first moments r_n = A[a] r_{n-1} + A[b] A[1]^{n-1} u, so
    C_n = m.(p~ A[1]^n u + q r_n).  X = sum_{n>=1} A[1]^n u takes d - 1 steps,
    after which the vector is a function z of the first symbol moved by
    P = jacobian^T, and the base chain's fundamental matrix Z = I - P + 1 pi^T
    (Kemeny & Snell, *Finite Markov Chains*, 1960, ch. 4) adds Z^-1 P z.
    V = A[a] V + A[a] w_0 + A[b] (u + X), and sigma^2 = m.(p~ (u + 2X) + q (w_0 + 2V)).
    Every value carries a rounded-up float bound; ||Z^-1|| takes Rump's
    ||R|| / (1 - ||I - R Z||) for R = inv(Z).  |sigma^2| within its bound
    flags a possible coboundary, and below minus it raises ``InconsistencyError``.
    """
    matrix, n = sys.matrix, sys.n_symbols
    if phi.depth > depth:
        raise ValueError(f"the moment closure needs phi of depth at most {depth}")
    words, closure, (a, b) = matrix.word_array(depth), _Closure(sys, depth), sys.word_branches(depth)
    code = window_codes(words.T[: phi.depth], n)
    p, end = (_Ball(v[code]) for v in _end_values(phi))
    q, (m1, m2, solves) = end - p, fiber_moments(sys, depth)
    m = cylinder_mass_vector(sys.weights, matrix, depth)
    msum = round_up(math.fsum(m.tolist()), 1)

    def dot(v):  # m.v by math.fsum: each product and the sum round once
        return _Ball(math.fsum((m * v.x).tolist()), round_up(msum * (v.e + 2.0 * _2U * v.top), 3))

    mean = dot(p + q * m1)
    pt = p - mean
    u, w0 = pt + q * m1, pt * m1 + q * m2
    x, xsum = u, _Ball(np.zeros(m.size))
    for _ in range(depth - 1):
        x = closure(x)
        xsum = xsum + x
    jac, heads, gamma, colmax = sys.weights.jacobian, words[:, 0], closure.gamma, closure.colmax
    z = x.x[np.searchsorted(heads, np.arange(n))]
    zmat = np.eye(n) - jac.T + sys.weights.stationary
    inv = np.linalg.inv(zmat)
    tail = inv @ (jac.T @ z)

    def norm(mat):
        return round_up(float(np.abs(mat).sum(axis=1).max()), n)

    # W = 3 + colmax bounds ||Z||: zmat rounds by gamma W, and a product with it by gamma ||R|| 2W
    w, norm_inv = round_up(3.0 * gamma * (3.0 + colmax), 3), norm(inv)
    beta = round_up(norm(np.eye(n) - inv @ zmat) + w * norm_inv, 2)
    if not beta < 1.0:
        raise InconsistencyError(f"the fundamental matrix is not verified: ||I - R Z|| <= {beta!r}")
    top = float(np.abs(tail).max())
    residual = round_up(float(np.abs(jac.T @ z - zmat @ tail).max()) + gamma * colmax * x.top + w * top, 5)
    xsum = xsum + _Ball(tail[heads], round_up(norm_inv * (colmax * x.e + residual) / (1.0 - beta), 5))
    v, *third = closure.solve(closure(w0, a) + closure(u + xsum, b), a)
    sigma2 = dot(pt * (u + xsum + xsum) + q * (w0 + v + v))
    r0, r1, lags = u, w0, []
    for k in range(nlags + 1):
        if k:
            r0, r1 = closure(r0), closure(r1, a) + closure(r0, b)
        lags.append(dot(pt * r0 + q * r1))
    if sigma2.x < -sigma2.e:
        raise InconsistencyError(f"sigma^2 = {sigma2.x:.3g} is below minus its float bound {sigma2.e:.3g}")
    return VarianceResult(mean.x, mean.e, sigma2.x, sigma2.e, np.array([c.x for c in lags]),
                          np.array([c.e for c in lags]), solves + [("V", *third)], abs(sigma2.x) <= sigma2.e)


@dataclass
class CLTResult:
    ks_statistic: float
    passed: bool
    threshold: float
    # how the orbits were streamed, for --verbose: trials per block, and the
    # wall seconds spent sampling the symbol tracks and running the fiber
    # recursion with the observable's sums over its states
    block_trials: int
    sample_s: float
    sum_s: float


_SQRT1_2 = 7.07106781186547524401e-1


def _normal_cdf(x):
    """Standard normal CDF, 0.5 erfc(-x / sqrt 2); NaN maps to NaN."""
    return 0.5 * math.erfc(-x * _SQRT1_2)


def ks_statistic(samples, sigma):
    """KS distance max(max(i/n - F(x_i)), max(F(x_i) - (i-1)/n)) to F = N(0, sigma^2).

    F is ``_normal_cdf``, the standard library's ``math.erfc`` within about
    one ulp of the normal CDF, so the statistic stays within 2^-51 of
    ``scipy.stats.kstest``'s (tests/test_limits.py) without importing scipy.
    """
    cdf = np.array([_normal_cdf(v) for v in (np.sort(samples) / sigma).tolist()], dtype=float)
    n = cdf.size
    return float(max((np.arange(1.0, n + 1) / n - cdf).max(), (cdf - np.arange(0.0, n) / n).max()))


def clt_experiment(sys, phi, length, trials, seed, variance):
    """Kolmogorov-Smirnov test of the normalized Birkhoff sums.

    ``trials`` independent orbits stream their Birkhoff sums of phi, read as
    p + q y on each word, through ``skew.birkhoff_sums`` (trial t reads its
    own stretch of the seed's one PCG64 stream) after ``BURN_IN`` fiber
    steps; a phi that is not affine in y on each word raises ``ValueError``
    before any draw.  The sums S_n, centred by n times the exact mean, are
    normalized by sqrt(n) and compared against the centred normal law with
    the exact sigma^2 of ``variance`` (an ``asymptotic_variance`` result),
    and the run passes when the KS statistic stays below the 5% critical
    value 1.36/sqrt(trials) inflated by ``KS_SLACK`` for the distance of
    finite-length sums from their limit.
    """
    if trials < MIN_TRIALS:
        raise ValueError(f"need at least {MIN_TRIALS} trials for a meaningful KS test")
    if variance.possible_coboundary or variance.sigma2 <= 0.0:
        raise CoboundaryError("coboundary regime, CLT statement vacuous")
    p, end = _end_values(phi)
    sums, block_trials, sample_s, sum_s = birkhoff_sums(sys, p, end - p, phi.depth, seed, trials, BURN_IN, length)
    sums -= length * variance.mean
    normalized = sums / math.sqrt(length)
    ks = ks_statistic(normalized, math.sqrt(variance.sigma2))
    threshold = 1.36 / math.sqrt(trials) * KS_SLACK
    return CLTResult(ks, ks <= threshold, threshold, block_trials, sample_s, sum_s)
