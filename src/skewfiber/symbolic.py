"""Subshift of finite type: words, metric, base measures, Ruelle operator.

Points of the shift space are represented at a finite working depth by the
admissible words of that length; all quantities handled here are constant
on cylinders of the working depth.  The base distance between two cylinders
is the prefix sum of theta^i over disagreeing coordinates, which is the
infimum of the sequence metric over the two cylinders whenever a common
admissible tail exists (always on the full shift) and a lower bound
otherwise, so Lipschitz constants estimated against it, one ``pair_lipschitz``
pass each, are conservative upper estimates.

Every base measure is a stationary Markov chain (pi, P); a Bernoulli
measure p is stored as the chain with all rows equal to p, so cylinder
masses and jacobian weights have one formula each.  The base quantities
are arrays built once: ``BaseWeights.jacobian`` (the N x N branch weights),
``cylinder_mass_vector`` (one mass per word) and ``TransitionMatrix.preimages``
(which word precedes which, under which symbol), the table the transfer
operators read.  ``TransitionMatrix.word_array`` owns word order, each depth
read back from the last-symbol columns of the depths up to it;
``window_rows`` gives a symbol window's row among the words of its length,
and ``prefix_rows`` a deeper word's prefix row.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "TransitionMatrix",
    "BaseWeights",
    "WeightsError",
    "CylinderFunction",
    "check_theta",
    "pair_lipschitz",
    "cylinder_mass_vector",
    "ruelle_apply",
    "base_rate",
]

_STOCHASTIC_TOL = 1e-12


def check_theta(theta):
    theta = float(theta)
    if not 0.0 < theta < 1.0:
        raise ValueError(f"theta must lie in (0, 1), got {theta}")
    return theta


class TransitionMatrix:
    """Aperiodic 0/1 transition matrix over symbols 0..N-1."""

    def __init__(self, entries):
        a = np.asarray(entries, dtype=int)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("transition matrix must be square")
        if not np.isin(a, (0, 1)).all():
            raise ValueError("transition matrix entries must be 0 or 1")
        if (a.sum(axis=1) == 0).any() or (a.sum(axis=0) == 0).any():
            raise ValueError("every row and column needs at least one admissible transition")
        if not _is_primitive(a):
            raise ValueError("transition matrix must be aperiodic (some power strictly positive)")
        self.entries = a
        self.n_symbols = a.shape[0]
        self._word_cache = {}

    def words(self, depth):
        """``word_array(depth)`` as a cached tuple of word tuples."""
        if depth not in self._word_cache:
            self._word_cache[depth] = tuple(map(tuple, self.word_array(depth).tolist()))
        return self._word_cache[depth]

    def _table(self, key, build):
        """``build()``, an array or a tuple of arrays, built once per key and kept read-only."""
        if key not in self._word_cache:
            tables = build()
            for table in tables if isinstance(tables, tuple) else (tables,):
                table.flags.writeable = False
            self._word_cache[key] = tables
        return self._word_cache[key]

    def word_array(self, depth):
        """Admissible words of a depth, ascending, as a cached read-only intp array, one word per row.

        Depth 0 is the one empty word.  The depth-(k+1) words extend each
        depth-k word in turn by its admissible next symbols, taken row-major by
        ``np.nonzero`` from the transition rows of the last symbols: the order
        that ``window_rows``' successor tables count.  Only the depth asked for
        is cached; its columns are read back, last first, from the cached
        last-symbol columns of each depth.
        """
        if depth < 0:
            raise ValueError("depth must be nonnegative")

        def build():
            words = np.zeros((len(self._last(depth)) if depth else 1, depth), dtype=np.intp)
            rows = np.arange(len(words))
            for k in range(depth, 0, -1):
                words[:, k - 1] = self._last(k)[rows]
                if k > 1:  # each depth-k word's prefix row among the depth-(k-1) words
                    rows = np.nonzero(self.entries[self._last(k - 1)])[0][rows]
            return words

        return self._table(("array", depth), build)

    def _last(self, depth):
        """Last symbol of each depth-``depth`` word (depth >= 1), a cached read-only intp array.

        The depth-(k+1) column is ``np.nonzero``'s symbol column over the
        transition rows of the depth-k one.
        """
        k = depth
        while k > 1 and ("last", k) not in self._word_cache:  # down to the deepest depth built so far
            k -= 1
        last = self._table(("last", k), lambda: np.arange(self.n_symbols))
        for k in range(k + 1, depth + 1):
            last = self._table(("last", k), lambda: np.nonzero(self.entries[last])[1])
        return last

    def preimages(self, depth):
        """Admissible one-symbol extensions i.w of the depth-``depth`` words, as intp arrays.

        Returns ``(target, source, symbol, head)`` sorted by (target, symbol):
        word ``source`` is ``(symbol,) + words[target][:-1]`` and ``head`` is
        the target's first symbol, so the branch weight is ``jacobian[symbol, head]``.
        """
        if depth < 1:
            raise ValueError("preimages need depth at least 1")

        def build():
            words = self.word_array(depth)
            target, symbol = np.nonzero(self.entries.T[words[:, 0]])
            return target, self.window_rows([symbol, *words[target, :-1].T]), symbol, words[target, 0]

        return self._table(("preimages", depth), build)

    def window_rows(self, columns):
        """Row in ``words(len(columns))`` of each admissible symbol window, given column by column.

        The depth-(k+1) words list each depth-k word's extensions in turn, by
        symbol, so one cached successor table per level, words(k) x N, gives a
        window's row from its prefix's row and its next symbol.  A single
        column is its own row and is returned unchanged.
        """
        rows = columns[0]
        for k, column in enumerate(columns[1:], 1):
            successors = self._table(("successors", k), lambda: np.cumsum(
                self.entries[self._last(k)]).reshape(-1, self.n_symbols) - 1)
            rows = successors[rows, column]
        return rows

    def prefix_rows(self, depth, k):
        """Row in ``words(k)`` of each depth-``depth`` word's first k symbols, a cached read-only intp array."""
        if not 1 <= k <= depth:
            raise ValueError(f"prefix length {k} must lie in 1..{depth}")
        return self._table(("prefix", depth, k), lambda: self.window_rows(self.word_array(depth).T[:k]))

    def word_count(self, depth, stop=None):
        """Number of admissible words of a depth, without enumerating them.

        It is the entry sum of A^(depth-1), computed in exact integers.  Word
        counts never fall with the depth, and once the count vector repeats
        they are constant.  With ``stop``, counting ends at the first depth
        whose count exceeds ``stop`` and returns that count, a lower bound for
        the depth asked for, so the loop is short for any depth.
        """
        if depth < 0:
            raise ValueError("depth must be nonnegative")
        if depth == 0:
            return 1
        rows = self.entries.tolist()
        counts = [1] * self.n_symbols
        for _ in range(depth - 1):
            if stop is not None and sum(counts) > stop:
                break
            step = [sum(c for c, a in zip(counts, row) if a) for row in rows]
            if step == counts:
                break
            counts = step
        return sum(counts)

    def __eq__(self, other):
        return isinstance(other, TransitionMatrix) and np.array_equal(self.entries, other.entries)

    def __repr__(self):
        return f"TransitionMatrix({self.entries.tolist()})"


def _is_primitive(a):
    # Wielandt: a primitive matrix has A^k > 0 for every k >= (N-1)^2 + 1, so the one
    # power A^(2^m) with 2^m >= (N-1)^2 + 1 decides it.  Squared in float32 on BLAS (bool @
    # has no BLAS loop): an entry counts at most N paths, exact below 2^24, then capped at 1
    n = a.shape[0]
    power = (a > 0).astype(np.float32)
    for _ in range(((n - 1) ** 2).bit_length()):
        power = np.minimum(power @ power, 1)
    return bool(power.all())


class WeightsError(ValueError):
    """A ``BaseWeights`` input that fails a check; ``field`` names it: "transition", "stationary" or "p"."""

    def __init__(self, field, message):
        self.field = field
        super().__init__(message)


class BaseWeights:
    """Shift-invariant Markov base measure: stochastic matrix P and stationary pi.

    A Bernoulli measure p is the chain whose rows all equal p (P = 1 p^T,
    pi = p), so its jacobian pi_i P_ij / pi_j is p_i.  ``jacobian[i, j]`` is
    the weight g(i.x) of the branch prepending symbol i to a point starting
    with j; it is zero off the support, and each column sums to 1, which is
    exactly invariance of the base measure.  A failed check raises
    ``WeightsError``; a stationary vector derived from P fails as "transition".
    """

    def __init__(self, transition, stationary=None):
        tm = np.asarray(transition, dtype=float)
        if tm.ndim != 2 or tm.shape[0] != tm.shape[1]:
            raise WeightsError("transition", "Markov transition matrix must be square")
        # each check is written so that a NaN fails it
        if not (tm >= 0).all():
            raise WeightsError("transition", "Markov transition probabilities must be nonnegative")
        if not np.abs(tm.sum(axis=1) - 1.0).max() <= _STOCHASTIC_TOL:
            raise WeightsError("transition", "Markov transition rows must sum to 1")
        field = "stationary"
        if stationary is None:
            field, stationary = "transition", _stationary_vector(tm)
        pi = np.asarray(stationary, dtype=float)
        if pi.shape != tm.shape[:1]:
            raise WeightsError(field, "stationary vector needs one entry per symbol")
        if not ((pi > 0).all() and abs(pi.sum() - 1.0) <= _STOCHASTIC_TOL):
            raise WeightsError(field, "stationary vector must be positive and sum to 1")
        if not np.abs(pi @ tm - pi).max() <= _STOCHASTIC_TOL:
            raise WeightsError(field, "stationary vector must satisfy pi P = pi")
        self.transition = tm
        self.stationary = pi
        self.n_symbols = tm.shape[0]
        self.jacobian = pi[:, None] * tm / pi[None, :]

    @classmethod
    def bernoulli(cls, p):
        p = np.asarray(p, dtype=float)
        # written so that a NaN fails them
        if not (p > 0).all():
            raise WeightsError("p", "Bernoulli weights must be positive")
        if not abs(p.sum() - 1.0) <= _STOCHASTIC_TOL:
            raise WeightsError("p", "Bernoulli weights must sum to 1")
        return cls(np.tile(p, (p.size, 1)), p)

    @property
    def is_bernoulli(self):
        """True when every row of P is the same vector, which then equals pi."""
        return bool((self.transition == self.transition[0]).all())

    def compatible_with(self, matrix):
        """True if the measure is supported exactly on the admissible transitions."""
        return bool(((self.transition > 0) == (matrix.entries > 0)).all())

    def __repr__(self):
        return f"BaseWeights({self.transition.tolist()})"


def _stationary_vector(tm):
    vals, vecs = np.linalg.eig(tm.T)
    i = int(np.argmin(np.abs(vals - 1.0)))
    v = np.real(vecs[:, i])
    v = np.abs(v)
    return v / v.sum()


# ---------------------------------------------------------------------------
# words and the base metric
# ---------------------------------------------------------------------------


def _distances(rows, cols, theta):
    """Distances from the words of ``rows`` to those of ``cols``: theta^i summed over disagreements, i rising."""
    dist = np.zeros((len(rows), len(cols)))
    for i in range(rows.shape[1]):
        np.add(dist, theta**i, out=dist, where=rows[:, None, i] != cols[None, :, i])
    return dist


def pair_lipschitz(matrix, depth, theta, labels, gaps):
    """Largest gap(a, b) / d(w1, w2) over admissible words w1 of class a and w2 of class b > a.

    ``labels`` puts the words, in order, in dense classes 0..k-1; ``gaps(a)`` returns class
    a's gaps >= 0 to classes a+1..k-1, one row at a time.  As the rounded x / d never rises
    with d for x >= 0, a class pair's maximum is its gap over its nearest words' distance,
    bit for bit.  The pass holds one class's |class| x n distance block and one gap row.
    """
    theta = check_theta(theta)
    order = np.argsort(labels, kind="stable")
    words, cuts = matrix.word_array(depth)[order], np.searchsorted(labels[order], np.arange(labels.max() + 1))
    best = 0.0
    for a in range(len(cuts) - 1):
        dist = _distances(words[cuts[a] : cuts[a + 1]], words[cuts[a + 1] :], theta)
        nearest = np.minimum.reduceat(dist.min(axis=0), cuts[a + 1 :] - cuts[a + 1])
        best = max(best, float((gaps(a) / nearest).max()))
    return best


def cylinder_mass_vector(weights, matrix, depth):
    """Base measures pi_{w0} P_{w0 w1} ... of the depth-``depth`` cylinders, in word order.

    The factors multiply left to right; the empty word has mass 1.
    """
    if depth == 0:
        return np.ones(1)
    arr = matrix.word_array(depth)
    mass = weights.stationary[arr[:, 0]]
    for j in range(1, depth):
        mass = mass * weights.transition[arr[:, j - 1], arr[:, j]]
    return mass


# ---------------------------------------------------------------------------
# cylinder functions
# ---------------------------------------------------------------------------


class CylinderFunction:
    """Real function constant on cylinders of a fixed depth."""

    def __init__(self, matrix, depth, values):
        values = np.asarray(values, dtype=float)
        words = matrix.words(depth)
        if values.shape != (len(words),):
            raise ValueError(f"expected {len(words)} values for depth {depth}, got {values.shape}")
        self.matrix = matrix
        self.depth = depth
        self.values = values

    def mean(self, weights):
        masses = cylinder_mass_vector(weights, self.matrix, self.depth)
        return float(np.dot(masses, self.values))

    def sup_norm(self):
        return float(np.abs(self.values).max()) if self.values.size else 0.0

    def lipschitz(self, theta):
        """Largest |f(w1)-f(w2)| / base distance over admissible word pairs."""
        u, labels = np.unique(self.values, return_inverse=True)
        return pair_lipschitz(self.matrix, self.depth, theta, labels, lambda a: np.abs(u[a] - u[a + 1 :]))

    def norm_theta(self, theta):
        return self.sup_norm() + self.lipschitz(theta)

    def __repr__(self):
        return f"CylinderFunction(depth={self.depth}, {self.values.size} values)"


def ruelle_apply(f, weights):
    """One step of the normalized transfer operator on a cylinder function.

    (Pf)(word) = sum over admissible symbols i of g(i.word) f(i.word[:-1]),
    added in symbol order from ``TransitionMatrix.preimages``.  The result is
    stored at the same depth but is constant on cylinders one level shorter;
    the operator is exact on functions constant on cylinders of that depth.
    """
    if f.depth < 1:
        raise ValueError("ruelle_apply needs depth at least 1")
    target, source, symbol, head = f.matrix.preimages(f.depth)
    out = np.bincount(target, weights.jacobian[symbol, head] * f.values[source])
    return CylinderFunction(f.matrix, f.depth, out)


def base_rate(weights):
    """Rate of the base transfer operator on zero-mean functions, as ``np.linalg.eigvals``' float.

    It is the spectral radius of P - 1 pi^T, the largest |eigenvalue| of P
    other than the Perron 1, at every depth: d - 1 steps of ``ruelle_apply``
    leave a depth-1 function, moved by ``jacobian``^T, which has the
    eigenvalues of P.  No bound certifies the float; it is exactly 0 only
    when P - 1 pi^T is the zero matrix, as on a Bernoulli base.
    """
    return float(np.abs(np.linalg.eigvals(weights.transition - weights.stationary)).max())

