"""Finite-depth disintegrations and the fiberwise transfer operator.

A measure on the product space is carried as its family of fiber
restrictions over the admissible words of a working depth.  Each distinct
fiber is stored once, as one row of an atom table, and a map sends every
word to its fiber's row: for an offset depth d the invariant fiber over x
depends only on the first max(d - 1, 1) symbols of x, so most words share a
row.  Only this module reads that map: every other reader sees one fiber per
word, and ``to_json_dict`` writes the table as stored, each distinct fiber
once with the map.  The transfer operator mixes branch pushforwards with
the base jacobian weights:

    nu|_w = sum_i g(i.w) T_{i.w} # mu|_{i.w[:-1]},

so the marginal density evolves by the base transfer operator and the
fiberwise dual norm never grows.  On pairs of disintegrations whose fibers
carry equal masses word by word, one application contracts the fiberwise
distance by the fiber contraction rate; that is what certifies the fixed
point computation below.  Every fiberwise norm reads the table through
``measures.row_norms``.

Each operation runs once per distinct fiber (or pair of fibers) and applies
to it exactly the arithmetic that a word-by-word computation applies to
every word sharing it, so results are the same floats as one row per word.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .measures import UNIT_ROUNDOFF, AtomicMeasure, merge_atoms, round_up, row_norms
from .skew import c1_constant
from .symbolic import CylinderFunction, cylinder_mass_vector, pair_lipschitz

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
    "MAX_ATOMS",
]

# the most atoms one transfer step may gather: a step peaked at 2.5 GB on 16.5M atoms, ~153 B each
MAX_ATOMS = 2**24


class ConvergenceError(RuntimeError):
    pass


def _gather(starts, rows):
    """Atoms of table ``rows`` in turn: (index k of each atom's row in ``rows``, its table index)."""
    lo = starts[rows]
    counts = starts[rows + 1] - lo
    take = np.repeat(lo - (np.cumsum(counts) - counts), counts) + np.arange(counts.sum())
    return np.repeat(np.arange(rows.size), counts), take


class Disintegration:
    """Fiber restrictions over the admissible words of one depth, each distinct fiber stored once.

    ``row``, ``pos`` and ``w`` hold the atoms of the distinct fibers, sorted
    by (fiber row, position) with no repeated pair and no zero weight
    (``measures.merge_atoms``); fiber row r is the slice
    ``starts[r]:starts[r + 1]``, and word k's fiber is row ``word_fiber[k]``.
    Two words share a row exactly when their fibers are equal bit for bit,
    and rows are numbered in the order of their first word, so the layout is
    a function of the measure alone.  The constructor takes each word's table
    row as ``word_fiber`` (``None``: one row per word), one nonnegative entry
    per word, and refuses atoms in a row that no word reads.  ``fibers``,
    ``fiber_masses`` and ``total_mass`` read one fiber per word;
    ``to_json_dict`` writes the table as stored.
    """

    def __init__(self, matrix, depth, rows, positions, weights, word_fiber=None):
        row, pos, w = merge_atoms(rows, positions, weights)
        n_words = len(matrix.word_array(depth))
        word_fiber = np.arange(n_words) if word_fiber is None else np.asarray(word_fiber, dtype=np.intp)
        if word_fiber.shape != (n_words,):
            raise ValueError(f"word_fiber has {word_fiber.size} entries for the {n_words} admissible words")
        if word_fiber.min() < 0:
            raise ValueError("word_fiber entries must be nonnegative")
        starts = np.searchsorted(row, np.arange(int(word_fiber.max()) + 2))
        unread = np.bincount(word_fiber, minlength=starts.size - 1) == 0
        if starts[0] > 0 or starts[-1] < row.size or np.diff(starts)[unread].any():
            raise ValueError(f"atoms lie in a table row that none of the {n_words} admissible words reads")
        starts = starts.tolist()
        renumber = np.zeros(len(starts) - 1, dtype=np.intp)
        kept, seen = [], {}
        # the rows the words read, in the order of their first word
        for r in dict.fromkeys(word_fiber.tolist()):
            a, b = starts[r], starts[r + 1]
            renumber[r] = seen.setdefault(pos[a:b].tobytes() + w[a:b].tobytes(), len(kept))
            if renumber[r] == len(kept):
                kept.append(r)
        self.row, take = _gather(np.array(starts), np.array(kept, dtype=np.intp))
        self.pos, self.w = pos[take], w[take]
        self.starts = np.searchsorted(self.row, np.arange(len(kept) + 1))
        self.word_fiber = renumber[word_fiber]
        self.matrix = matrix
        self.depth = depth

    @classmethod
    def product(cls, matrix, depth, fiber):
        """Product disintegration m x nu: the same fiber over every word."""
        return cls(matrix, depth, 0, fiber.positions, fiber.weights, np.zeros(len(matrix.word_array(depth)), np.intp))

    def words(self):
        return self.matrix.words(self.depth)

    @property
    def n_fibers(self):
        """Number of distinct fibers, the rows of the atom table."""
        return self.starts.size - 1

    @property
    def fibers(self):
        """Word -> fiber measure map, rebuilt on each read (for readers outside the package)."""
        cuts = self.starts[1:-1]
        mus = [AtomicMeasure(p, w) for p, w in zip(np.split(self.pos, cuts), np.split(self.w, cuts))]
        return dict(zip(self.words(), (mus[f] for f in self.word_fiber.tolist())))

    def mapped(self, labels, f):
        """Each word's fiber with its atoms sent through ``f``, by the word's label.

        ``labels`` is an integer array, one label >= 0 per word; ``f(label, pos, w)``
        acts atom by atom on arrays and returns the new ``(pos, w)``.  It runs
        once on each distinct (fiber, label) pair of the words, with the pairs
        listed label-major, so ``label`` never decreases.
        """
        pairs, word_pair = np.unique(labels * self.n_fibers + self.word_fiber, return_inverse=True)
        label, fiber = np.divmod(pairs, self.n_fibers)
        rows, take = _gather(self.starts, fiber)
        pos, w = f(label[rows], self.pos[take], self.w[take])
        return Disintegration(self.matrix, self.depth, rows, pos, w, word_fiber=word_pair.ravel())

    def fiber_masses(self):
        return np.bincount(self.row, weights=self.w, minlength=self.n_fibers)[self.word_fiber]

    def total_mass(self, weights):
        masses = cylinder_mass_vector(weights, self.matrix, self.depth)
        return float(sum((masses * self.fiber_masses()).tolist()))

    def to_json_dict(self):
        """The table as stored: word k's fiber is ``atoms[wordFiber[k]]`` with ``weights[wordFiber[k]]``."""
        cuts = self.starts[1:-1]
        return {
            "depth": self.depth,
            "matrix": self.matrix.entries.tolist(),
            "words": self.matrix.word_array(self.depth).tolist(),
            "wordFiber": self.word_fiber.tolist(),
            "atoms": [p.tolist() for p in np.split(self.pos, cuts)],
            "weights": [w.tolist() for w in np.split(self.w, cuts)],
        }

    def __repr__(self):
        return (
            f"Disintegration(depth={self.depth}, {self.word_fiber.size} words, "
            f"{self.n_fibers} fibers, {self.w.size} atoms)"
        )


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------


def _pair_norms(d1, f1, d2, f2):
    """Dual norm of fiber f1[k] of d1 minus fiber f2[k] of d2 for each k, one ``row_norms`` table.

    Row k holds d1's atoms, then d2's negated: a shared position sums as in ``wk_distance``.
    """
    (rows1, take1), (rows2, take2) = _gather(d1.starts, f1), _gather(d2.starts, f2)
    rows, pos = np.concatenate([rows1, rows2]), np.concatenate([d1.pos[take1], d2.pos[take2]])
    return row_norms(rows, pos, np.concatenate([d1.w[take1], -d2.w[take2]]), f1.size)


def norm_inf(dis):
    """Largest fiberwise dual norm over the working words."""
    return float(row_norms(dis.row, dis.pos, dis.w, dis.n_fibers).max())


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
    for the infimum over all equivalent disintegrations.  It is one
    ``symbolic.pair_lipschitz`` pass whose classes are the distinct fibers.
    Fiber a's gap row is one ``_pair_norms`` table, fiber a against each later fiber.
    """
    n = dis.n_fibers
    return pair_lipschitz(dis.matrix, dis.depth, theta, dis.word_fiber,
                          lambda a: _pair_norms(dis, np.full(n - a - 1, a), dis, np.arange(a + 1, n)))


# ---------------------------------------------------------------------------
# the transfer operator
# ---------------------------------------------------------------------------


def transfer_apply(sys, dis):
    """One exact step of the fiberwise transfer operator.

    The terms come from ``TransitionMatrix.preimages`` and
    ``SystemSpec.prefix_rows``.  A target's fiber is fixed by its terms, in
    symbol order: each term's symbol, source fiber row, branch row (the
    source's offset prefix) and the target's head symbol, which picks the
    weight g = jacobian[symbol, head].  Targets with equal terms get
    bit-identical fibers, so one target per group is pushed, as one gather of
    source fibers into one merge.  A gather of more than ``MAX_ATOMS`` atoms
    raises ``ValueError`` before it allocates.
    """
    if dis.matrix != sys.matrix:
        raise ValueError("disintegration and system use different transition matrices")
    # one term (target, source, symbol, head) per admissible extension, sorted by (target, symbol)
    target, source, symbol, head = sys.matrix.preimages(dis.depth)
    branch, fiber = sys.prefix_rows(dis.depth)[source], dis.word_fiber[source]
    n_words = dis.word_fiber.size
    n_terms = np.bincount(target, minlength=n_words)
    term_starts = np.concatenate([[0], np.cumsum(n_terms)])
    terms = np.full((n_words, n_terms.max(), 4), -1, dtype=np.intp)
    terms[target, np.arange(target.size) - term_starts[target]] = np.column_stack([symbol, fiber, branch, head])
    _, pushed, group = np.unique(terms.reshape(n_words, -1), axis=0, return_index=True, return_inverse=True)
    # the terms of each group's first target, then the atoms of each term's source fiber
    term_group, term = _gather(term_starts, pushed)
    g = sys.weights.jacobian[symbol[term], head[term]]
    a, b = sys.branches[:, branch[term]]
    atoms = int(np.diff(dis.starts)[fiber[term]].sum())
    if atoms > MAX_ATOMS:
        raise ValueError(f"a transfer step at depth {dis.depth} would gather {atoms} atoms, above the cap of "
                         f"{MAX_ATOMS}; lower /grid or /depth")
    k, take = _gather(dis.starts, fiber[term])
    pos = a[k] * dis.pos[take] + b[k]
    return Disintegration(dis.matrix, dis.depth, term_group[k], pos, g[k] * dis.w[take], group.ravel())


def quantize_disintegration(dis, grid):
    """Snap every atom to the nearest of grid+1 uniform points; returns (snapped, step).

    ``step`` bounds the largest fiberwise wk distance moved, from the move
    itself and not its worst case sum |w| / (2 grid): a fiber's atoms cost
    sum_i |w_i| |x^_i - x_i|, which bounds the move for signed fibers too,
    since test functions are 1-Lipschitz and each atom keeps its weight.
    Atoms of one fiber that land on one grid point are summed into one
    weight in turn, and k of them round by at most 2 (k - 1) u sum |w|, so
    each is charged 2 (k - 1) u |w| more.  Each atom's term takes three
    roundings and a fiber's sum at most n - 1 more, n the largest fiber's
    atom count, so the largest cost, plus n 2^-1074 for products that
    underflow, is rounded up over n + 2 roundings (``round_up``).  A table
    that does not move gives 0.0.
    """
    grid = int(grid)
    if grid < 2:
        raise ValueError("grid must be at least 2")
    # in place: each table-sized temporary of a large signed lag table costs page faults
    pos = dis.pos * grid
    np.round(pos, out=pos)
    pos /= grid
    cost = pos - dis.pos
    np.abs(cost, out=cost)
    step = 0.0
    if cost.any():
        # snapping keeps each fiber's atoms in order, so the atoms of one grid point are one run
        last = np.flatnonzero((pos[1:] != pos[:-1]) | (dis.row[1:] != dis.row[:-1]))
        run = np.diff(last, prepend=-1, append=pos.size - 1)
        cost += np.repeat((2.0 * UNIT_ROUNDOFF) * (run - 1), run)
        # |(d + c) w| rounds as (d + c) |w|
        cost *= dis.w
        n = int(np.diff(dis.starts).max())
        step = round_up(float(np.bincount(dis.row, np.abs(cost, out=cost), 1).max()) + n * 2.0**-1074, n + 2)
    return Disintegration(dis.matrix, dis.depth, dis.row, pos, dis.w, dis.word_fiber), step


def change_between(d1, d2):
    """Largest fiberwise wk distance between two disintegrations of one depth and matrix.

    One norm per distinct pair (fiber in d1, fiber in d2) over the words.
    """
    if d1.depth != d2.depth or d1.matrix != d2.matrix:
        raise ValueError("disintegrations differ in depth or transition matrix")
    pairs = np.array(sorted(set((d1.word_fiber * d2.n_fibers + d2.word_fiber).tolist())))
    f1, f2 = np.divmod(pairs, d2.n_fibers)
    return float(_pair_norms(d1, f1, d2, f2).max())


# ---------------------------------------------------------------------------
# fixed point
# ---------------------------------------------------------------------------


@dataclass
class FixedPointResult:
    disintegration: Disintegration
    certified_error: float
    iterations: int
    last_change: float
    q_step: float  # the last iteration's quantization step q
    alpha: float  # the fiber rate the certificate contracts by

    @property
    def certificate_parts(self):
        """``certified_error``'s contraction part alpha Delta / (1 - alpha) and quantization part q / (1 - alpha)."""
        return self.alpha * self.last_change / (1.0 - self.alpha), self.q_step / (1.0 - self.alpha)


def fixed_point(sys, depth, tol=1e-6, grid=512):
    """Invariant disintegration by damped iteration with certified error.

    Iterates transfer then grid quantization from the product of the base
    measure with a point mass at 1/2 until the largest fiberwise change
    drops below ``tol``.  Successive iterates have unit fiber masses, so the
    transfer step contracts their differences by the fiber rate alpha and a
    stop at change Delta certifies

        distance to the invariant measure <= (alpha Delta + q) / (1 - alpha),

    q being the last iteration's quantization step: the move that snap made,
    measured atom by atom and rounded up (``quantize_disintegration``), not
    its worst case.  The result keeps q and alpha, and
    ``certificate_parts`` splits the certificate into its contraction and
    quantization parts.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    alpha = sys.alpha
    mu, _ = quantize_disintegration(Disintegration.product(sys.matrix, depth, AtomicMeasure.dirac(0.5)), grid)
    max_iter = 10 * max(1, math.ceil(math.log(tol) / math.log(alpha))) if alpha > 0 else 10
    for iteration in range(1, max_iter + 1):
        nu = transfer_apply(sys, mu)
        nu, q_step = quantize_disintegration(nu, grid)
        delta = change_between(nu, mu)
        mu = nu
        if delta < tol:
            certified = (alpha * delta + q_step) / (1.0 - alpha)
            return FixedPointResult(mu, certified, iteration, delta, q_step, alpha)
    raise ConvergenceError(
        f"no fixed point within {max_iter} iterations (last change {delta:.3g})"
    )


# ---------------------------------------------------------------------------
# inequality suite
# ---------------------------------------------------------------------------


def verify_ly(sys, dis, nmax):
    """Iterate the regularity inequality |F*^n mu|_theta <= theta^n |mu|_theta + C1/(1-theta) ||mu||_inf.

    The input must be a positive disintegration; transfer steps are exact
    (no quantization), and one (measured lip, bound) pair is returned per
    iterate.
    """
    if (dis.w < 0).any():
        raise ValueError("verify_ly expects a positive disintegration")
    theta = sys.theta
    c1 = c1_constant(sys)
    lip0 = lip_constant(dis, theta)
    sup0 = norm_inf(dis)
    pairs = []
    current = dis
    for n in range(1, nmax + 1):
        current = transfer_apply(sys, current)
        bound = theta**n * lip0 + c1 / (1.0 - theta) * sup0
        pairs.append((lip_constant(current, theta), bound))
    return pairs


def equilibrium_decay(sys, dis, nmax):
    """Fiberwise norms of the iterates 1..nmax of a zero-marginal measure.

    The input must have a marginal with zero base mean (the vanishing
    marginal subspace); the norms are expected to decay exponentially and,
    when the marginal part collapses quickly, at about the fiber
    contraction rate.
    """
    mean = dis.total_mass(sys.weights)
    if abs(mean) > 1e-10:
        raise ValueError(f"marginal mean {mean:.3g} is not zero; not in the vanishing subspace")
    norms = []
    current = dis
    for _ in range(nmax):
        current = transfer_apply(sys, current)
        norms.append(norm_inf(current))
    return norms
