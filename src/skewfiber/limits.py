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

Every reader of an observable evaluates each cell once, by the component
its window code (``symbolic.window_codes``) selects: ``Observable.values``
at the depth-k windows of the CLT orbits' symbol tracks, and
``Observable.weigh`` at the atoms of a disintegration, once per distinct
(fiber, component) pair of its words.

The CLT experiment reads its Birkhoff sums from ``skew.birkhoff_sums``,
which owns the orbit stream: the blocks of trials, the symbol tracks and
the fiber recursion's buffer, so memory does not grow with the trial count
and no trials x length float array is built.  This module centres and
normalizes the sums and runs the KS test.  A ``CLTResult`` holds the KS
verdict; sigma^2 is read from the ``VarianceResult``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .fitting import ExpFit, exp_fit
from .measures import PiecewiseLinearFn
from .skew import birkhoff_sums
from .symbolic import CylinderFunction, cylinder_mass_vector, ruelle_apply, window_codes
from .transfer import quantize_disintegration, transfer_apply

__all__ = [
    "Observable",
    "CorrelationCurve",
    "VarianceResult",
    "GordinResult",
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
]

DEFAULT_GRID = 1 << 15
# CLT experiment: inflation of the KS critical value for the plug-in variance,
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

    def values(self, codes, y):
        """phi at admissible depth-k window codes and fiber points of one shape, each cell once."""
        if len(self.pieces) == 1:
            return self.pieces[0](y)
        return self._piece_values(self.piece_of_code.take(codes), y)

    def _piece_values(self, piece, y):
        """Piece ``piece`` of phi at ``y``, cell by cell, for arrays of one shape."""
        if len(self.pieces) == 1:
            return self.pieces[0](y)
        piece = piece.ravel()
        order = np.argsort(piece, kind="stable")  # each piece reads its own range of cells
        cuts = np.searchsorted(piece[order], np.arange(1, len(self.pieces)))
        flat, out = y.ravel(), np.empty(y.size)
        for h, idx in zip(self.pieces, np.split(order, cuts)):
            out[idx] = h(flat[idx])
        return out.reshape(y.shape)

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
            values = self._piece_values(piece, pos)
            return pos, w * (values if g is None else g(values))

        return dis.mapped(pieces, times, err_bound)

    def sup_norm(self):
        return max(h.sup_norm() for h in self.components.values())

    def fiber_lipschitz(self):
        return max(h.lipschitz() for h in self.components.values())

    def dual_bound(self):
        """max(Lip, sup) of the worst component: converts wk errors to integral errors."""
        return max(max(h.lipschitz(), h.sup_norm()) for h in self.components.values())

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
    fit: ExpFit = field(repr=False)


def correlation_curve(sys, mu0, now, later, nmax, grid=DEFAULT_GRID):
    """Lagged covariances C_n = cov(now, later o F^n) for n = 0..nmax.

    The centered ``now`` observable reweighs mu0; each lag is one transfer
    step (quantized on ``grid`` when given, with the error tracked into
    ``err_bounds``: the transfer step contracts the tracked error by alpha,
    and each snap adds the mass it moved, measured and rounded up by
    ``quantize_disintegration``).  The fit is a log-linear envelope over the
    lags whose magnitude exceeds the numerical floor.
    """
    m_now = integrate_observable(sys, mu0, now)
    m_later = integrate_observable(sys, mu0, later)
    rho = _weighted_disintegration(mu0, now.shifted(-m_now))
    to_value = later.dual_bound()
    lags = np.arange(nmax + 1)
    values = np.empty(nmax + 1)
    errs = np.empty(nmax + 1)
    # total mass of rho is the centered mean, zero, so no product correction
    values[0] = integrate_observable(sys, rho, later) - m_later * rho.total_mass(sys.weights)
    errs[0] = to_value * rho.err_bound
    for n in range(1, nmax + 1):
        rho = transfer_apply(sys, rho)
        if grid is not None:
            rho, _ = quantize_disintegration(rho, grid)
        values[n] = integrate_observable(sys, rho, later) - m_later * rho.total_mass(sys.weights)
        errs[n] = to_value * rho.err_bound
    return CorrelationCurve(lags, values, errs, exp_fit(lags, values))


# ---------------------------------------------------------------------------
# Gordin conditional expectations
# ---------------------------------------------------------------------------


@dataclass
class GordinResult:
    norms: np.ndarray
    fit: ExpFit

    @property
    def ratio_margin(self):
        """Ratio-test margin 1 - tau for the summability of the norms."""
        return 1.0 - self.fit.rate


def gordin_norms(sys, mu0, phi, nmax):
    """L2 norms of the conditional expectations of centered phi on the future filtration.

    Level n conditions on the base coordinates from time n on.  With s(w) =
    int phi~_w d mu0|_w the unnormalized fiber integrals of the centered
    observable, the conditional expectation is P^n s for the base transfer
    operator P, so ||E[phi~ | sigma^-n B]||_2 = ||P^n s||_{L2(m)} (Gordin
    1969; Liverani 1996): one ``ruelle_apply`` per level, exact at every n.
    """
    m_phi = integrate_observable(sys, mu0, phi)
    s = CylinderFunction(mu0.matrix, mu0.depth, _fiber_integrals(mu0, phi.shifted(-m_phi)))
    masses = cylinder_mass_vector(sys.weights, mu0.matrix, mu0.depth)
    norms = np.empty(nmax + 1)
    for n in range(nmax + 1):
        norms[n] = math.sqrt(float(np.dot(masses, s.values**2)))
        s = ruelle_apply(s, sys.weights)
    return GordinResult(norms, exp_fit(np.arange(nmax + 1), norms))


# ---------------------------------------------------------------------------
# asymptotic variance and the CLT
# ---------------------------------------------------------------------------


@dataclass
class VarianceResult:
    """Truncated Green-Kubo variance and its two error terms.

    ``tail_bound`` is fitted, not certified: it sums the least-squares
    exponential envelope of the covariances beyond the truncation, so it is
    only as good as the fit (reported as ``tailBoundFitted`` in ``clt.json``).
    ``numeric_error`` is certified: it adds up the tracked quantization
    errors of the computed covariances (``numericErrorCertified``).
    """

    sigma2: float
    tail_bound: float
    numeric_error: float
    curve: CorrelationCurve = field(repr=False)
    possible_coboundary: bool = False

    @property
    def sigma(self):
        return math.sqrt(max(self.sigma2, 0.0))


def asymptotic_variance(sys, mu0, phi, truncation, grid=DEFAULT_GRID):
    """Truncated Green-Kubo variance with a fitted geometric tail bound.

    sigma^2 = var(phi) + 2 sum_{j<=J} cov(phi, phi o F^j); the tail bound is
    the fitted envelope summed beyond the truncation, and the numeric error
    accumulates the certified quantization errors of the covariances, in
    which each snap counts the mass it moved (``quantize_disintegration``).  A
    value within the combined bound of zero is flagged as a possible
    coboundary; below minus the bound is an inconsistency and raises.
    """
    if truncation < 1:
        raise ValueError("truncation must be at least 1")
    m_phi = integrate_observable(sys, mu0, phi)
    phit = phi.shifted(-m_phi)
    curve = correlation_curve(sys, mu0, phit, phit, truncation, grid=grid)
    sigma2 = float(curve.values[0] + 2.0 * curve.values[1:].sum())
    fit = curve.fit
    if fit.degenerate:
        tail = 0.0
    elif fit.rate < 1.0:
        tail = 2.0 * fit.constant * fit.rate ** (truncation + 1) / (1.0 - fit.rate)
    else:
        tail = math.inf
    numeric = float(curve.err_bounds[0] + 2.0 * curve.err_bounds[1:].sum())
    combined = tail + numeric
    if sigma2 < -combined:
        raise InconsistencyError(
            f"truncated variance {sigma2:.3g} is below -(tail+numeric) = {-combined:.3g}; "
            "inconsistent truncation"
        )
    return VarianceResult(
        sigma2=sigma2,
        tail_bound=tail,
        numeric_error=numeric,
        curve=curve,
        possible_coboundary=abs(sigma2) <= combined,
    )


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


def clt_experiment(sys, mu0, phi, length, trials, seed, variance):
    """Kolmogorov-Smirnov test of the normalized Birkhoff sums.

    ``trials`` independent orbits stream their Birkhoff sums of phi through
    ``skew.birkhoff_sums`` (trial t reads its own stretch of the seed's one
    PCG64 stream) after ``BURN_IN`` fiber steps.  The centered sums
    S_n/sqrt(n) are compared against the centered normal law with the
    truncated asymptotic variance ``variance`` (an ``asymptotic_variance``
    result), and the run passes when the KS statistic stays below the 5%
    critical value 1.36/sqrt(trials) inflated by ``KS_SLACK`` to absorb
    the plug-in variance noise.
    """
    if trials < MIN_TRIALS:
        raise ValueError(f"need at least {MIN_TRIALS} trials for a meaningful KS test")
    if variance.possible_coboundary or variance.sigma2 <= 0.0:
        raise CoboundaryError("coboundary regime, CLT statement vacuous")
    m_phi = integrate_observable(sys, mu0, phi)
    sums, block_trials, sample_s, sum_s = birkhoff_sums(sys, phi.values, phi.depth, seed, trials, BURN_IN, length)
    sums -= length * m_phi
    normalized = sums / math.sqrt(length)
    ks = ks_statistic(normalized, variance.sigma)
    threshold = 1.36 / math.sqrt(trials) * KS_SLACK
    return CLTResult(
        ks_statistic=ks,
        passed=ks <= threshold,
        threshold=threshold,
        block_trials=block_trials,
        sample_s=sample_s,
        sum_s=sum_s,
    )
