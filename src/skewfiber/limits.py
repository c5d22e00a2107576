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

An ``Observable`` holds its pieces and the piece each word reads, and
``base_only`` keeps one constant piece per distinct value;
``Observable.weigh`` evaluates it at the atoms of a disintegration, once per
distinct (fiber, piece) pair of its words, each piece on one run of atoms.
The moment closure and the CLT read an observable affine in y on each word
as p_w + q_w y, from its values at y = 0 and 1, one pair per word of its
depth; a deeper word reads its prefix's pair (``TransitionMatrix.prefix_rows``).

The CLT experiment reads its Birkhoff sums from ``skew.birkhoff_sums``,
which owns the orbit stream, so memory does not grow with the trial count.
It centres them by the exact mean and tests them against the exact sigma^2
of ``asymptotic_variance``: the fiber moments of affine branches close
under the transfer operator, and ``_Closure``, the one owner of M_1, M_2,
the tail and the lags, gives both with float bounds and no fixed point.  The
decay layers return their sequences; only the command line fits them.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .measures import UNIT_ROUNDOFF, PiecewiseLinearFn, round_up
from .skew import birkhoff_sums
from .symbolic import CylinderFunction, cylinder_mass_vector, ruelle_apply
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
    "asymptotic_variance",
    "clt_experiment",
    "MIN_TRIALS",
    "BURN_IN",
]

DEFAULT_GRID = 1 << 15
# CLT experiment: the slack setting the KS level, not a finite-length allowance (1.36 x 1.3 = 1.768 is the asymptotic
# critical value at level 2 exp(-2 1.768^2) ~ 0.39%), the fewest trials worth a KS test, the fiber burn-in per orbit
KS_SLACK = 1.3
MIN_TRIALS = 100
BURN_IN = 40


class CoboundaryError(RuntimeError):
    pass


class InconsistencyError(RuntimeError):
    """Computed quantities contradict their own certified bounds."""


class Observable:
    """Observable phi(x, y) = h_{x[:k]}(y): word j of depth k reads piece ``pieces[piece_of_word[j]]``."""

    def __init__(self, matrix, depth, pieces, piece_of_word):
        piece_of_word = np.asarray(piece_of_word, dtype=np.intp)
        if depth < 1 or piece_of_word.shape != (matrix.word_count(depth),):
            raise ValueError("need depth at least 1 and one piece index per admissible word")
        if set(piece_of_word.tolist()) != set(range(len(pieces))):
            raise ValueError("piece indices must index the pieces, and some word must read each piece")
        self.matrix = matrix
        self.depth = depth
        self.pieces = list(pieces)
        self.piece_of_word = piece_of_word

    @classmethod
    def base_only(cls, matrix, depth, values):
        """Observable psi(x, y) = values[x[:k]]: one constant piece per value, by bit pattern (0.0 is not -0.0)."""
        table = np.array([values[w] for w in matrix.words(depth)], dtype=float)
        bits, piece_of_word = np.unique(table.view(np.int64), return_inverse=True)
        return cls(matrix, depth, [PiecewiseLinearFn.constant(c) for c in bits.view(float).tolist()], piece_of_word)

    @classmethod
    def fiber(cls, matrix, h):
        """Observable depending on the fiber alone, phi(x, y) = h(y)."""
        return cls(matrix, 1, [h], np.zeros(matrix.n_symbols, dtype=np.intp))

    def weigh(self, dis, g=None):
        """Fiberwise product g(h_w) . mu|_w: each atom's weight times g of its word's component there.

        ``g`` maps an array of values and defaults to the identity.  It is
        evaluated once per distinct (fiber, piece) pair of the words; as
        ``Disintegration.mapped`` lists the pairs label-major, each piece reads
        one run of atoms.
        """
        if self.depth > dis.depth:
            raise ValueError("observable depth exceeds the disintegration depth")
        pieces = self.piece_of_word[dis.matrix.prefix_rows(dis.depth, self.depth)]

        def times(piece, pos, w):
            runs = np.split(pos, np.searchsorted(piece, np.arange(1, len(self.pieces))))
            values = np.concatenate([h(run) for h, run in zip(self.pieces, runs)])
            return pos, w * (values if g is None else g(values))

        return dis.mapped(pieces, times)

    def sup_norm(self):
        return max(h.sup_norm() for h in self.pieces)

    def fiber_lipschitz(self):
        return max(h.lipschitz() for h in self.pieces)

    def shifted(self, c):
        return Observable(self.matrix, self.depth, [h.shifted(c) for h in self.pieces], self.piece_of_word)

    def __repr__(self):
        return f"Observable(depth={self.depth}, {self.piece_of_word.size} components)"


def integrate_observable(sys, dis, obs):
    """Exact integral sum_w m([w]) int h_w d mu|_w; linear in both arguments."""
    return obs.weigh(dis).total_mass(sys.weights)


def fiber_average(mu0, obs):
    """Fiber averages s(w) = int h_w d mu0|_w / phi1(w) as a cylinder function."""
    integrals, masses = obs.weigh(mu0).fiber_masses(), mu0.fiber_masses()
    if (masses == 0.0).any():
        raise ValueError(f"vanishing marginal density on word {mu0.words()[np.argmax(masses == 0.0)]}")
    return CylinderFunction(mu0.matrix, mu0.depth, integrals / masses)


# ---------------------------------------------------------------------------
# correlations
# ---------------------------------------------------------------------------


@dataclass
class CorrelationCurve:
    lags: np.ndarray
    values: np.ndarray
    err_bounds: np.ndarray


def correlation_curve(sys, fixed, now, later, nmax, grid=DEFAULT_GRID):
    """Lagged covariances C_n = cov(now, later o F^n) for n = 0..nmax on the fixed point ``fixed``.

    The centered ``now`` observable h reweighs mu0 = ``fixed.disintegration``;
    each lag is one transfer step, quantized on ``grid`` when given.  The
    error tracked into ``err_bounds`` starts at (sup + Lip)(h) eps, eps =
    ``fixed.certified_error``: g h has supremum sup(h) and Lipschitz constant
    Lip(g) sup(h) + sup(g) Lip(h) for any admissible test function g.  The
    transfer step contracts it by alpha, and each snap adds the mass it
    moved (``quantize_disintegration``).  On unit-mass fibers a
    fiber-dependent ``now`` also moves each fiber's mass, by at most
    Lip(now) eps; mixing does not contract that, so every step adds it, and
    the ``later`` mean it pairs with adds its share to every lag.
    """
    mu0, eps = fixed.disintegration, fixed.certified_error
    m_now = integrate_observable(sys, mu0, now)
    m_later = integrate_observable(sys, mu0, later)
    centered = now.shifted(-m_now)
    rho = centered.weigh(mu0)
    err = eps * (centered.sup_norm() + centered.fiber_lipschitz())
    to_value = max(later.fiber_lipschitz(), later.sup_norm())  # turns a wk error into an integral error
    mass_err = now.fiber_lipschitz() * eps
    values, errs = np.empty(nmax + 1), np.empty(nmax + 1)
    for n in range(nmax + 1):
        if n:
            rho = transfer_apply(sys, rho)
            err = sys.alpha * err + mass_err
            if grid is not None:
                rho, step = quantize_disintegration(rho, grid)
                err += step
        values[n] = integrate_observable(sys, rho, later) - m_later * rho.total_mass(sys.weights)
        errs[n] = to_value * err + abs(m_later) * mass_err
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
    s = CylinderFunction(mu0.matrix, mu0.depth, phi.shifted(-m_phi).weigh(mu0).fiber_masses())
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
    """The affine moment closure of one system at one depth: M_1 and M_2 solved once, and the steps of sigma^2.

    A[c] v sums g c v over each depth-``depth`` word's ``preimages`` terms;
    the per-word factors c multiply v before one ``ruelle_apply``.  ``rate``
    bounds ||A[c]||_inf by the largest jacobian column sum times max|c|, and a
    word's at most N terms round at most N + 2 times each, so gamma_{N+3}
    (Higham, section 3.1) bounds an application's rounding, with a sum to spare.
    Affine branches y -> a y + b close the invariant fiber moments
    M_k[w] = int y^k d mu|_w under the transfer operator (Barnsley & Demko,
    Proc. R. Soc. Lond. A 399, 1985): M_1 = A[a] M_1 + A[b] 1 and
    M_2 = A[a^2] M_2 + 2 A[ab] M_1 + A[b^2] 1, contractions at rates max|a|
    and max a^2, as the weights into a word sum to 1.  They are ``m1`` and
    ``m2``, and ``solves`` holds each solve's (name, kappa, iterations).

    For p~ + q y centred, u = p~ + q M_1 and r_0 = p~ M_1 + q M_2, its lag-n
    image has fiber masses A[1]^n u and first moments r_n = A[a] r_{n-1} +
    A[b] A[1]^{n-1} u.  X = sum_{n>=1} A[1]^n u takes d - 1 steps, after which
    the vector is a function z of the first symbol moved by P = jacobian^T, and
    the base chain's fundamental matrix Z = I - P + 1 pi^T (Kemeny & Snell,
    *Finite Markov Chains*, 1960, ch. 4) adds Z^-1 P z; ||Z^-1|| takes Rump's
    ||R|| / (1 - ||I - R Z||) for R = inv(Z).
    """

    def __init__(self, sys, depth):
        self.sys, self.depth, n = sys, depth, sys.n_symbols
        self.colmax = round_up(float(sys.weights.jacobian.sum(axis=0).max()), n)
        self.gamma = round_up((n + 3) * UNIT_ROUNDOFF, n + 3)
        self.a, self.b = a, b = sys.word_branches(depth)
        self.m = cylinder_mass_vector(sys.weights, sys.matrix, depth)
        self.msum = round_up(math.fsum(self.m.tolist()), 1)
        one = _Ball(np.ones(a.size))
        self.m1, *first = self.solve(self(one, b), a)
        self.m2, *second = self.solve(self(one, b, b) + self(self.m1 + self.m1, a, b), a, a)
        self.solves = [("M1", *first), ("M2", *second)]

    def rate(self, c):
        return round_up(self.colmax * math.prod(float(np.abs(f).max()) for f in c), len(c))

    def __call__(self, v, *c):
        y = math.prod(c, start=v.x)
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

    def dot(self, v):  # m.v by math.fsum: each product and the sum round once
        return _Ball(math.fsum((self.m * v.x).tolist()), round_up(self.msum * (v.e + 2.0 * _2U * v.top), 3))

    def centre(self, phi):
        """(mean, p~, q) of phi = p_w + q_w y on the words: mean = int phi = m.(p + q M_1), and p~ = p - mean."""
        if phi.depth > self.depth:
            raise ValueError(f"the moment closure needs phi of depth at most {self.depth}")
        prefix = self.sys.matrix.prefix_rows(self.depth, phi.depth)
        p, end = (_Ball(v[prefix]) for v in _end_values(phi))
        q = end - p
        mean = self.dot(p + q * self.m1)
        return mean, p - mean, q

    def tail(self, u):
        """X = sum_{n>=1} A[1]^n u: the d - 1 steps, then the fundamental-matrix solve under Rump's bound."""
        n, x, xsum = self.sys.n_symbols, u, _Ball(np.zeros(self.m.size))
        for _ in range(self.depth - 1):
            x = self(x)
            xsum = xsum + x
        jac, heads = self.sys.weights.jacobian, self.sys.matrix.word_array(self.depth)[:, 0]
        pz = jac.T @ x.x[np.searchsorted(heads, np.arange(n))]
        zmat = np.eye(n) - jac.T + self.sys.weights.stationary
        inv = np.linalg.inv(zmat)
        t = inv @ pz
        norm_inv, gap = (round_up(float(np.abs(mat).sum(axis=1).max()), n) for mat in (inv, np.eye(n) - inv @ zmat))
        # W = 3 + colmax bounds ||Z||: zmat rounds by gamma W, and a product with it by gamma ||R|| 2W
        w = round_up(3.0 * self.gamma * (3.0 + self.colmax), 3)
        beta = round_up(gap + w * norm_inv, 2)
        if not beta < 1.0:
            raise InconsistencyError(f"the fundamental matrix is not verified: ||I - R Z|| <= {beta!r}")
        top = float(np.abs(t).max())
        residual = round_up(float(np.abs(pz - zmat @ t).max()) + self.gamma * self.colmax * x.top + w * top, 5)
        return xsum + _Ball(t[heads], round_up(norm_inv * (self.colmax * x.e + residual) / (1.0 - beta), 5))

    def lags(self, now, later, nlags):
        """C_0..C_nlags = m.(p~' A[1]^n u + q' r_n) of centred pairs ``now`` = (p~, q) and ``later`` = (p~', q')."""
        (pt, q), (pt_later, q_later) = now, later
        r0, r1 = pt + q * self.m1, pt * self.m1 + q * self.m2
        for k in range(nlags + 1):
            if k:
                r0, r1 = self(r0), self(r1, self.a) + self(r0, self.b)
            yield self.dot(pt_later * r0 + q_later * r1)


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


def _end_values(phi):
    """phi at y = 0 and y = 1 by word, phi = p + (end - p) y; a piece without breakpoints is not affine."""
    if any(len(getattr(h, "breakpoints", ())) != 2 for h in phi.pieces):
        raise ValueError("phi must be affine in y on each word: one segment over [0, 1]")
    ends = np.array([h.values for h in phi.pieces])
    return ends[phi.piece_of_word, 0], ends[phi.piece_of_word, 1]


def asymptotic_variance(sys, phi, depth, nlags):
    """Mean, sigma^2 = C_0 + 2 sum_{n>=1} C_n and C_0..C_nlags of phi = p_w + q_w y, each with its float bound.

    With ``_Closure``'s u, r_0 and X: V = A[a] V + A[a] r_0 + A[b] (u + X), sigma^2 = m.(p~ (u + 2X) + q (r_0 + 2V)).
    sigma^2 below minus its bound raises ``InconsistencyError``.
    """
    closure = _Closure(sys, depth)
    mean, pt, q = closure.centre(phi)
    u, r0 = pt + q * closure.m1, pt * closure.m1 + q * closure.m2
    xsum = closure.tail(u)
    v, *third = closure.solve(closure(r0, closure.a) + closure(u + xsum, closure.b), closure.a)
    sigma2 = closure.dot(pt * (u + xsum + xsum) + q * (r0 + v + v))
    lags = list(closure.lags((pt, q), (pt, q), nlags))
    if sigma2.x < -sigma2.e:
        raise InconsistencyError(f"sigma^2 = {sigma2.x:.3g} is below minus its float bound {sigma2.e:.3g}")
    return VarianceResult(mean.x, mean.e, sigma2.x, sigma2.e, np.array([c.x for c in lags]),
                          np.array([c.e for c in lags]), closure.solves + [("V", *third)])


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
    and the run passes when the KS statistic stays below 1.36/sqrt(trials)
    times ``KS_SLACK``, 1.768/sqrt(trials): the asymptotic Kolmogorov critical
    value at level 2 exp(-2 1.768^2) ~ 0.39%.  A sigma^2 within its float bound of
    zero, or not positive, flags a possible coboundary: ``CoboundaryError``.
    """
    if trials < MIN_TRIALS:
        raise ValueError(f"need at least {MIN_TRIALS} trials for a meaningful KS test")
    if abs(variance.sigma2) <= variance.numeric_error or variance.sigma2 <= 0.0:
        raise CoboundaryError("coboundary regime, CLT statement vacuous")
    p, end = _end_values(phi)
    sums, block_trials, sample_s, sum_s = birkhoff_sums(sys, p, end - p, phi.depth, seed, trials, BURN_IN, length)
    sums -= length * variance.mean
    normalized = sums / math.sqrt(length)
    ks = ks_statistic(normalized, math.sqrt(variance.sigma2))
    threshold = 1.36 / math.sqrt(trials) * KS_SLACK
    return CLTResult(ks, ks <= threshold, threshold, block_trials, sample_s, sum_s)
