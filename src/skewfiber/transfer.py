"""Finite-depth disintegrations and the fiberwise transfer operator.

A measure on the product space is carried as its family of fiber
restrictions over the admissible words of a working depth, one atomic
measure per word, together with a running bound on the accumulated
quantization error.  The transfer operator mixes branch pushforwards with
the base jacobian weights:

    nu|_w = sum_i g(i.w) T_{i.w} # mu|_{i.w[:-1]},

so the marginal density evolves by the base transfer operator and the
fiberwise dual norm never grows.  On pairs of disintegrations whose fibers
carry equal masses word by word, one application contracts the fiberwise
distance by the fiber contraction rate; that is what certifies the fixed
point computation and the quantization error bookkeeping below.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .fitting import exp_fit
from .measures import (
    AtomicMeasure,
    combine_many,
    pushforward,
    quantize,
    wk_distance,
    wk_norm,
)
from .skew import c1_constant
from .symbolic import (
    CylinderFunction,
    TransitionMatrix,
    cylinder_mass_vector,
    word_distances,
)

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
    "word_sum_iterate",
    "hutchinson_reference",
    "fixed_point",
    "verify_ly",
    "equilibrium_decay",
]


class ConvergenceError(RuntimeError):
    pass


class Disintegration:
    """Map from admissible words of one depth to fiber restriction measures."""

    def __init__(self, matrix, depth, fibers, err_bound=0.0):
        words = matrix.words(depth)
        if set(fibers) != set(words):
            raise ValueError("fibers must be given for exactly the admissible words")
        self.matrix = matrix
        self.depth = depth
        self.fibers = dict(fibers)
        self.err_bound = float(err_bound)

    @classmethod
    def product(cls, matrix, depth, fiber):
        """Product disintegration m x nu: the same fiber over every word."""
        return cls(matrix, depth, {w: fiber for w in matrix.words(depth)})

    def words(self):
        return self.matrix.words(self.depth)

    def scaled(self, factor):
        return Disintegration(
            self.matrix,
            self.depth,
            {w: mu.scaled(factor) for w, mu in self.fibers.items()},
            abs(factor) * self.err_bound,
        )

    def map_fibers(self, fn, err_bound=None):
        return Disintegration(
            self.matrix,
            self.depth,
            {w: fn(w, mu) for w, mu in self.fibers.items()},
            self.err_bound if err_bound is None else err_bound,
        )

    def fiber_masses(self):
        return np.array([self.fibers[w].total_weight() for w in self.words()])

    def total_mass(self, weights):
        masses = cylinder_mass_vector(weights, self.matrix, self.depth)
        return float(
            sum(m * self.fibers[w].total_weight() for m, w in zip(masses, self.words()))
        )

    def max_atoms(self):
        return max((mu.n_atoms for mu in self.fibers.values()), default=0)

    def to_json_dict(self):
        words = self.words()
        return {
            "depth": self.depth,
            "matrix": self.matrix.entries.tolist(),
            "words": [list(w) for w in words],
            "atoms": [self.fibers[w].positions.tolist() for w in words],
            "weights": [self.fibers[w].weights.tolist() for w in words],
            "errorBound": self.err_bound,
        }

    @classmethod
    def from_json_dict(cls, data):
        matrix = TransitionMatrix(data["matrix"])
        fibers = {
            tuple(w): AtomicMeasure(a, ws)
            for w, a, ws in zip(data["words"], data["atoms"], data["weights"])
        }
        return cls(matrix, data["depth"], fibers, data["errorBound"])

    def save(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh)

    @classmethod
    def load(cls, path):
        with open(path) as fh:
            return cls.from_json_dict(json.load(fh))

    def __repr__(self):
        return (
            f"Disintegration(depth={self.depth}, {len(self.fibers)} words, "
            f"max_atoms={self.max_atoms()}, err<={self.err_bound:.3g})"
        )


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------


def norm_inf(dis):
    """Largest fiberwise dual norm over the working words."""
    return max(wk_norm(mu) for mu in dis.fibers.values())


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
    for the infimum over all equivalent disintegrations.
    """
    words = dis.words()
    dist = word_distances(dis.matrix, dis.depth, theta)
    n = len(words)
    best = 0.0
    for a in range(n):
        mu_a = dis.fibers[words[a]]
        for b in range(a + 1, n):
            d = wk_distance(mu_a, dis.fibers[words[b]])
            if d == 0.0:
                continue
            best = max(best, d / dist[a, b])
    return float(best)


# ---------------------------------------------------------------------------
# the transfer operator
# ---------------------------------------------------------------------------


def transfer_apply(sys, dis):
    """One exact step of the fiberwise transfer operator.

    The accumulated error bound contracts by the fiber rate: the tracked
    error is always against an equal-mass reference, and branch pushforwards
    shrink equal-mass discrepancies by at least alpha before the convex
    jacobian mixing.
    """
    if dis.matrix != sys.matrix:
        raise ValueError("disintegration and system use different transition matrices")
    if sys.offset_depth > dis.depth:
        raise ValueError(
            f"offset depth {sys.offset_depth} exceeds the working depth {dis.depth}"
        )
    matrix = sys.matrix
    jacobian = sys.weights.jacobian.tolist()
    new_fibers = {}
    for w in dis.words():
        terms = []
        for i in range(matrix.n_symbols):
            g = jacobian[i][w[0]]
            if g == 0.0:
                continue
            source = (i,) + w[:-1]
            pushed = pushforward(dis.fibers[source], sys.branch_map(source))
            terms.append((g, pushed))
        new_fibers[w] = combine_many(terms)
    return Disintegration(matrix, dis.depth, new_fibers, sys.alpha * dis.err_bound)


def quantize_disintegration(dis, grid):
    """Snap every fiber to the uniform grid; returns (snapped, step bound)."""
    step = 0.0
    fibers = {}
    for w, mu in dis.fibers.items():
        snapped, bound = quantize(mu, grid)
        fibers[w] = snapped
        step = max(step, bound)
    return Disintegration(dis.matrix, dis.depth, fibers, dis.err_bound + step), step


def change_between(d1, d2):
    """Largest fiberwise wk distance between two disintegrations."""
    return max(wk_distance(d1.fibers[w], d2.fibers[w]) for w in d1.words())


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
    fibers = {}
    for w in matrix.words(depth):
        terms = []
        for a in prefixes:
            if not matrix.entries[a[-1], w[0]]:
                continue
            full = a + w
            weight = 1.0
            for t in range(steps):
                weight *= jacobian[full[t]][full[t + 1]]
            if weight == 0.0:
                continue
            composed = sys.branch_map(full[0:])
            for t in range(1, steps):
                composed = sys.branch_map(full[t:]).compose(composed)
            terms.append((weight, pushforward(nu0, composed)))
        fibers[w] = combine_many(terms)
    return Disintegration(matrix, depth, fibers, 0.0)


def hutchinson_reference(sys, steps, x0=0.5):
    """Depth-``steps`` iteration of the plain fiber iterated function system.

    Only meaningful for symbol-only Bernoulli systems (every row of the base
    chain equals pi), where the invariant disintegration is the product of
    the base measure with this ifs fixed point; the result is within
    alpha^steps of it in the dual metric.
    """
    if sys.offset_depth != 1 or not sys.weights.is_bernoulli:
        raise ValueError("the ifs reference needs a symbol-only system with Bernoulli weights")
    atoms = np.array([float(x0)])
    weights = np.array([1.0])
    for _ in range(steps):
        parts_pos = []
        parts_w = []
        for i, p in enumerate(sys.weights.stationary):
            t = sys.branch_map((i,))
            parts_pos.append(t.a * atoms + t.b)
            parts_w.append(p * weights)
        atoms = np.concatenate(parts_pos)
        weights = np.concatenate(parts_w)
    return AtomicMeasure(atoms, weights)


# ---------------------------------------------------------------------------
# fixed point
# ---------------------------------------------------------------------------


@dataclass
class FixedPointResult:
    disintegration: Disintegration
    certified_error: float
    iterations: int
    last_change: float
    quantization_error: float

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
    mu = Disintegration(mu.matrix, mu.depth, mu.fibers, 0.0)
    max_iter = 10 * max(1, math.ceil(math.log(tol) / math.log(alpha))) if alpha > 0 else 10
    q_acc = 0.0
    for iteration in range(1, max_iter + 1):
        nu = transfer_apply(sys, mu)
        nu, q_step = quantize_disintegration(nu, grid)
        q_acc = alpha * q_acc + q_step
        nu.err_bound = q_acc
        delta = change_between(nu, mu)
        mu = nu
        if delta < tol:
            certified = (alpha * delta + q_step) / (1.0 - alpha)
            # downstream error propagation measures against the true invariant
            # measure, so the disintegration carries the full certificate
            mu.err_bound = certified
            return FixedPointResult(mu, certified, iteration, delta, q_acc)
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
    for mu in dis.fibers.values():
        if (mu.weights < 0).any():
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
