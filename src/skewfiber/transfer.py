"""Finite-depth disintegrations and the fiberwise transfer operator.

A measure on the product space is carried as its family of fiber
restrictions over the admissible words of a working depth, stored as one
atom table, together with a running bound on the accumulated quantization
error.  The transfer operator mixes branch pushforwards with the base
jacobian weights:

    nu|_w = sum_i g(i.w) T_{i.w} # mu|_{i.w[:-1]},

so the marginal density evolves by the base transfer operator and the
fiberwise dual norm never grows.  On pairs of disintegrations whose fibers
carry equal masses word by word, one application contracts the fiberwise
distance by the fiber contraction rate; that is what certifies the fixed
point computation and the quantization error bookkeeping below.  Every
fiberwise norm reads the table through ``measures.row_norms``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fitting import exp_fit
from .measures import AtomicMeasure, merge_atoms, row_norms
from .skew import c1_constant
from .symbolic import CylinderFunction, cylinder_mass_vector, word_distances

__all__ = [
    "Disintegration",
    "FixedPointResult",
    "ConvergenceError",
    "norm_inf",
    "marginal_density",
    "norm_s_inf",
    "lip_constant",
    "transfer_apply",
    "quantize_disintegration",
    "change_between",
    "fixed_point",
    "verify_ly",
    "equilibrium_decay",
]


class ConvergenceError(RuntimeError):
    pass


class Disintegration:
    """Fiber restrictions over the admissible words of one depth, as one atom table.

    ``row``, ``pos`` and ``w`` hold every atom, sorted by (word row, position)
    with no repeated pair and no zero weight (``measures.merge_atoms``);
    the fiber of word row r is the slice ``starts[r]:starts[r + 1]``.
    """

    def __init__(self, matrix, depth, rows, positions, weights, err_bound=0.0):
        self.matrix = matrix
        self.depth = depth
        self.row, self.pos, self.w = merge_atoms(rows, positions, weights)
        n_words = matrix.word_count(depth)
        if self.row.size and (self.row[0] < 0 or self.row[-1] >= n_words):
            raise ValueError(f"atom rows must index the {n_words} admissible words")
        self.starts = np.searchsorted(self.row, np.arange(n_words + 1))
        self.err_bound = float(err_bound)

    @classmethod
    def from_fibers(cls, matrix, depth, fibers, err_bound=0.0):
        """Table of a map from every admissible word to its atomic fiber measure."""
        if set(fibers) != set(matrix.words(depth)):
            raise ValueError("fibers must be given for exactly the admissible words")
        mus = [fibers[w] for w in matrix.words(depth)]
        rows = np.repeat(np.arange(len(mus)), [mu.n_atoms for mu in mus])
        pos = np.concatenate([mu.positions for mu in mus])
        return cls(matrix, depth, rows, pos, np.concatenate([mu.weights for mu in mus]), err_bound)

    @classmethod
    def product(cls, matrix, depth, fiber):
        """Product disintegration m x nu: the same fiber over every word."""
        return cls.from_fibers(matrix, depth, dict.fromkeys(matrix.words(depth), fiber))

    def words(self):
        return self.matrix.words(self.depth)

    @property
    def fibers(self):
        """Word -> fiber measure map, rebuilt on each read (for readers outside the package)."""
        cuts = self.starts[1:-1]
        return dict(zip(self.words(), map(AtomicMeasure, np.split(self.pos, cuts), np.split(self.w, cuts))))

    def scaled(self, factor):
        err = abs(factor) * self.err_bound
        return Disintegration(self.matrix, self.depth, self.row, self.pos, factor * self.w, err)

    def fiber_masses(self):
        return np.bincount(self.row, weights=self.w, minlength=self.starts.size - 1)

    def total_mass(self, weights):
        masses = cylinder_mass_vector(weights, self.matrix, self.depth)
        return float(sum((masses * self.fiber_masses()).tolist()))

    def to_json_dict(self):
        cuts = self.starts[1:-1]
        return {
            "depth": self.depth,
            "matrix": self.matrix.entries.tolist(),
            "words": [list(w) for w in self.words()],
            "atoms": [p.tolist() for p in np.split(self.pos, cuts)],
            "weights": [w.tolist() for w in np.split(self.w, cuts)],
            "errorBound": self.err_bound,
        }

    def __repr__(self):
        return (
            f"Disintegration(depth={self.depth}, {self.starts.size - 1} words, "
            f"{self.w.size} atoms, err<={self.err_bound:.3g})"
        )


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------


def norm_inf(dis):
    """Largest fiberwise dual norm over the working words."""
    return float(row_norms(dis.row, dis.pos, dis.w, dis.starts.size - 1).max())


def marginal_density(dis):
    """Marginal density as a cylinder function: total fiber weight per word."""
    return CylinderFunction(dis.matrix, dis.depth, dis.fiber_masses())


def norm_s_inf(dis, theta):
    """Strong norm: theta-norm of the marginal density plus the fiberwise norm."""
    return marginal_density(dis).norm_theta(theta) + norm_inf(dis)


def lip_constant(dis, theta):
    """Lipschitz constant of the disintegration path.

    Maximum of wk(mu|_w1, mu|_w2) / d(w1, w2) over every pair of admissible
    words, so the value is exact for this representation and an upper bound
    for the infimum over all equivalent disintegrations.  Word a's pairs
    are one ``row_norms`` table whose row j is fiber a minus fiber a+1+j.
    """
    dist = word_distances(dis.matrix, dis.depth, theta)
    s, n = dis.starts, dis.starts.size - 1
    best = 0.0
    for a in range(n - 1):
        k, lo, hi = n - 1 - a, s[a], s[a + 1]
        rows = np.concatenate([np.repeat(np.arange(k), hi - lo), dis.row[hi:] - (a + 1)])
        pos = np.concatenate([np.tile(dis.pos[lo:hi], k), dis.pos[hi:]])
        w = np.concatenate([np.tile(dis.w[lo:hi], k), -dis.w[hi:]])
        best = max(best, float((row_norms(rows, pos, w, k) / dist[a, a + 1 :]).max()))
    return best


# ---------------------------------------------------------------------------
# the transfer operator
# ---------------------------------------------------------------------------


def transfer_apply(sys, dis):
    """One exact step of the fiberwise transfer operator.

    The accumulated error bound contracts by the fiber rate: the tracked
    error is always against an equal-mass reference, and branch pushforwards
    shrink equal-mass discrepancies by at least alpha before the convex
    jacobian mixing.  The terms come from ``TransitionMatrix.preimages`` and
    ``SystemSpec.word_branches``; the step is one gather of source fibers
    into one merge.
    """
    if dis.matrix != sys.matrix:
        raise ValueError("disintegration and system use different transition matrices")
    # one term (target, source, g, a, b) per admissible extension, each with g > 0
    target, source, symbol, head = sys.matrix.preimages(dis.depth)
    g = sys.weights.jacobian[symbol, head]
    a, b = (v[source] for v in sys.word_branches(dis.depth))
    lo = dis.starts[source]
    counts = dis.starts[source + 1] - lo
    # atom k of term j reads the table at lo[j] + k
    take = np.repeat(lo - (np.cumsum(counts) - counts), counts) + np.arange(counts.sum())
    rows, g, a, b = (np.repeat(v, counts) for v in (target, g, a, b))
    pos = a * dis.pos[take] + b
    return Disintegration(dis.matrix, dis.depth, rows, pos, g * dis.w[take], sys.alpha * dis.err_bound)


def quantize_disintegration(dis, grid):
    """Snap every atom to the nearest of grid+1 uniform points; returns (snapped, bound).

    The bound is the largest fiber's sum |w| / (2*grid), certified for the
    fiberwise wk distance moved: every atom travels at most half a grid cell
    and test functions are 1-Lipschitz.
    """
    grid = int(grid)
    if grid < 2:
        raise ValueError("grid must be at least 2")
    step = float(np.bincount(dis.row, np.abs(dis.w), 1).max()) / (2.0 * grid)
    pos = np.round(dis.pos * grid) / grid
    return Disintegration(dis.matrix, dis.depth, dis.row, pos, dis.w, dis.err_bound + step), step


def change_between(d1, d2):
    """Largest fiberwise wk distance between two disintegrations of one depth and matrix."""
    if d1.depth != d2.depth or d1.matrix != d2.matrix:
        raise ValueError("disintegrations differ in depth or transition matrix")
    # d1's atoms, then d2's negated: a shared position sums as in wk_distance
    rows, pos = np.concatenate([d1.row, d2.row]), np.concatenate([d1.pos, d2.pos])
    return float(row_norms(rows, pos, np.concatenate([d1.w, -d2.w]), d1.starts.size - 1).max())


# ---------------------------------------------------------------------------
# fixed point
# ---------------------------------------------------------------------------


@dataclass
class FixedPointResult:
    disintegration: Disintegration
    certified_error: float
    iterations: int
    last_change: float

    @property
    def depth(self):
        return self.disintegration.depth


def fixed_point(sys, depth, tol=1e-6, grid=512, init=None):
    """Invariant disintegration by damped iteration with certified error.

    Iterates transfer then grid quantization from the product of the base
    measure with a point mass at 1/2 until the largest fiberwise change
    drops below ``tol``.  Successive iterates have unit fiber masses, so the
    transfer step contracts their differences by the fiber rate alpha and a
    stop at change Delta certifies

        distance to the invariant measure <= (alpha Delta + q) / (1 - alpha),

    q being the per-step quantization bound.  The second initialization used
    in the test-suite uniqueness probe is a uniform measure on the grid.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    alpha = sys.alpha
    if init is None:
        init = Disintegration.product(sys.matrix, depth, AtomicMeasure.dirac(0.5))
    masses = init.fiber_masses()
    if np.abs(masses - 1.0).max() > 1e-9:
        raise ValueError("fixed point iteration expects unit fiber masses")
    mu, _ = quantize_disintegration(init, grid)
    mu.err_bound = 0.0
    max_iter = 10 * max(1, math.ceil(math.log(tol) / math.log(alpha))) if alpha > 0 else 10
    for iteration in range(1, max_iter + 1):
        nu = transfer_apply(sys, mu)
        nu, q_step = quantize_disintegration(nu, grid)
        delta = change_between(nu, mu)
        mu = nu
        if delta < tol:
            certified = (alpha * delta + q_step) / (1.0 - alpha)
            # downstream error propagation measures against the true invariant
            # measure, so the disintegration carries the full certificate
            mu.err_bound = certified
            return FixedPointResult(mu, certified, iteration, delta)
    raise ConvergenceError(
        f"no fixed point within {max_iter} iterations (last change {delta:.3g})"
    )


# ---------------------------------------------------------------------------
# inequality suite
# ---------------------------------------------------------------------------


@dataclass
class LYRow:
    n: int
    lip: float
    bound: float

    @property
    def margin(self):
        return self.bound - self.lip


def verify_ly(sys, dis, nmax):
    """Iterate the regularity inequality |F*^n mu|_theta <= theta^n |mu|_theta + C1/(1-theta) ||mu||_inf.

    The input must be a positive disintegration; transfer steps are exact
    (no quantization), and one row of (measured lip, bound) is produced per
    iterate.
    """
    if (dis.w < 0).any():
        raise ValueError("verify_ly expects a positive disintegration")
    theta = sys.theta
    c1 = c1_constant(sys)
    lip0 = lip_constant(dis, theta)
    sup0 = norm_inf(dis)
    rows = []
    current = dis
    for n in range(1, nmax + 1):
        current = transfer_apply(sys, current)
        bound = theta**n * lip0 + c1 / (1.0 - theta) * sup0
        rows.append(LYRow(n, lip_constant(current, theta), bound))
    return rows


def equilibrium_decay(sys, dis, nmax):
    """Fit the decay of the fiberwise norm of iterates of a zero-marginal measure.

    The input must have a marginal with zero base mean (the vanishing
    marginal subspace); the fitted rate is expected below 1 and, when the
    marginal part collapses quickly, close to the fiber contraction rate.
    """
    mean = dis.total_mass(sys.weights)
    if abs(mean) > 1e-10:
        raise ValueError(f"marginal mean {mean:.3g} is not zero; not in the vanishing subspace")
    norms = []
    current = dis
    for _ in range(nmax):
        current = transfer_apply(sys, current)
        norms.append(norm_inf(current))
    fit = exp_fit(np.arange(1, nmax + 1), norms)
    return fit, norms
