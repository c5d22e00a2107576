"""Admissible perturbation families and quantitative stability of fixed points.

A family is a direction of change (fiber offsets, Bernoulli weights, or
both) applied at magnitude delta to a base system; the alphabet, transition
matrix and metric parameter never change.  The admissibility budget R(delta)
is measured, not assumed: it is the larger of the jacobian-weight
discrepancy and the fiber-map supremum gap.  The sweep computes invariant
disintegrations along a descending delta grid and reports the variation
Delta(delta) against the modulus R(delta) |log delta|.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .skew import FiberMapSpec, SystemSpec, c1_constant
from .symbolic import BaseWeights, base_rate, cylinder_mass_vector
from .transfer import (
    ConvergenceError,
    FixedPointResult,
    change_between,
    fixed_point,
    transfer_apply,
)

__all__ = [
    "PerturbationFamily",
    "AdmissibilityRow",
    "AdmissibilityReport",
    "StabilityRow",
    "SweepResult",
    "realize",
    "realize_grid",
    "admissibility_report",
    "fiber_op_gap",
    "operator_gap",
    "stability_sweep",
]

KINDS = ("fiber_shift", "base_weights", "combined")
# cylinder depth of the U3 density-ratio proxy
U3_DEPTH = 6


@dataclass
class PerturbationFamily:
    """Perturbation direction around a base system with validity radius delta_max."""

    base: SystemSpec
    kind: str
    fiber_direction: np.ndarray | None = None
    weight_direction: np.ndarray | None = None
    delta_max: float = 0.2

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}")
        n = self.base.n_symbols
        if self.kind in ("fiber_shift", "combined"):
            self.fiber_direction = np.asarray(self.fiber_direction, dtype=float)
            if self.fiber_direction.shape != (n,):
                raise ValueError("fiber direction needs one offset change per symbol")
        if self.kind in ("base_weights", "combined"):
            if not self.base.weights.is_bernoulli:
                raise ValueError("base-weight perturbations require Bernoulli weights")
            self.weight_direction = np.asarray(self.weight_direction, dtype=float)
            if self.weight_direction.shape != (n,):
                raise ValueError("weight direction needs one entry per symbol")
            if abs(self.weight_direction.sum()) > 1e-12:
                raise ValueError("weight direction must sum to zero")
        if not 0.0 < self.delta_max < 1.0:
            raise ValueError("delta_max must lie in (0, 1)")


def realize(fam, delta):
    """System at perturbation size delta; delta = 0 returns the base exactly.

    The alphabet, transition matrix and theta are reused unchanged; offsets
    and Bernoulli weights move along the family direction.  Construction
    re-runs all hypothesis checks, so a delta that breaks the contraction or
    the unit-interval range fails here with the violated constraint.
    """
    # written so that a NaN delta fails it
    if not 0.0 <= delta < fam.delta_max:
        raise ValueError(f"delta must lie in [0, {fam.delta_max}), got {delta}")
    if delta == 0.0:
        return fam.base
    base = fam.base
    maps = base.fiber_maps
    if fam.kind in ("fiber_shift", "combined"):
        maps = [
            FiberMapSpec(fm.slope, fm.offset + delta * shift, fm.offset_table)
            for fm, shift in zip(maps, fam.fiber_direction)
        ]
    weights = base.weights
    if fam.kind in ("base_weights", "combined"):
        weights = BaseWeights.bernoulli(weights.stationary + delta * fam.weight_direction)
    return SystemSpec(base.matrix, base.theta, weights, maps, base.offset_depth)


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


def _jacobian_gap(sys0, sys_d):
    # summed over branches i into one target symbol j, maximized over j
    gap = np.abs(sys_d.weights.jacobian - sys0.weights.jacobian)
    return float(gap.sum(axis=0).max())


def _fiber_gap(sys0, sys_d):
    # an affine gap in y peaks at an endpoint of [0, 1]
    (a0, b0), (ad, bd) = (s.word_branches(sys0.offset_depth) for s in (sys0, sys_d))
    da, db = a0 - ad, b0 - bd
    return float(np.maximum(np.abs(db), np.abs(da + db)).max())


def _budget(sys0, sys_d):
    """Admissibility budget R(delta): the larger of the jacobian-weight and fiber-map gaps."""
    return max(_jacobian_gap(sys0, sys_d), _fiber_gap(sys0, sys_d))


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


def fiber_op_gap(sys0, sys_d, dis):
    """Largest fiberwise pushforward gap between two systems on one input.

    For every working word the same source fiber is pushed through both
    branch maps, once per distinct (fiber, branch code) pair of the words;
    the lemma bound is R(delta) times the largest fiber norm.
    """
    pushed = []
    for s in (sys0, sys_d):
        slopes, offsets = s.code_tables()

        def push(code, pos, w, a=slopes, b=offsets):
            return a[code] * pos + b[code], w

        pushed.append(dis.mapped(s.word_codes(dis.depth), push))
    return change_between(*pushed)


def operator_gap(sys0, sys_d, dis):
    """Fiberwise norm of (F0* - Fdelta*) applied to one input, the perturbed fixed point in the lemma."""
    return change_between(transfer_apply(sys0, dis), transfer_apply(sys_d, dis))


@dataclass
class StabilityRow:
    delta: float
    r_delta: float
    variation: float
    ratio: float
    err_bound: float
    iterations: int
    system: SystemSpec = field(repr=False)  # the realized system at delta
    failed: bool = False
    message: str = ""
    result: FixedPointResult | None = field(default=None, repr=False)


@dataclass
class SweepResult:
    rows: list
    ratio_bound: float
    base_result: FixedPointResult = field(repr=False)


def realize_grid(fam, deltas):
    """A sweep's delta grid as floats, with each delta's realized system and R(delta).

    The grid must be nonempty, positive and strictly descending, and every
    delta realizable with R(delta) |log delta| > 0, the sweep's divisor;
    otherwise ValueError, before any solve.
    """
    deltas = [float(d) for d in deltas]
    if not deltas:
        raise ValueError("need a nonempty delta grid")
    if any(d <= 0.0 for d in deltas):
        raise ValueError("sweep deltas must be positive; delta = 0 is the base system")
    if any(b >= a for a, b in zip(deltas, deltas[1:])):
        raise ValueError("sweep deltas must be sorted descending")
    systems = [realize(fam, delta) for delta in deltas]
    budgets = [_budget(fam.base, sys_d) for sys_d in systems]
    for delta, r in zip(deltas, budgets):
        if r * abs(math.log(delta)) == 0.0:
            raise ValueError(f"delta {delta!r} leaves the system unperturbed: R(delta) |log delta| = 0")
    return deltas, systems, budgets


def stability_sweep(fam, deltas, depth, tol, grid):
    """Invariant-measure variation along a descending delta grid.

    Each delta owns an independent fixed-point computation; rows carry the
    realized system, the measured variation Delta(delta) = ||mu_delta - mu_0||_inf,
    R(delta), the ratio Delta / (R |log delta|), and the sum of the two
    fixed-point certificates.  A converged row keeps its fixed point for
    later checks; a failed fixed point flags its row and the sweep continues.
    The grid is checked by ``realize_grid`` before the first solve.
    """
    deltas, systems, budgets = realize_grid(fam, deltas)
    base_res = fixed_point(fam.base, depth=depth, tol=tol, grid=grid)
    rows = []
    for delta, sys_d, r_delta in zip(deltas, systems, budgets):
        try:
            res = fixed_point(sys_d, depth=depth, tol=tol, grid=grid)
        except (ConvergenceError, ValueError) as exc:
            rows.append(StabilityRow(delta, r_delta, math.nan, math.nan, math.nan, 0, sys_d,
                                     failed=True, message=str(exc)))
            continue
        variation = change_between(res.disintegration, base_res.disintegration)
        ratio = variation / (r_delta * abs(math.log(delta)))
        err = res.certified_error + base_res.certified_error
        rows.append(StabilityRow(delta, r_delta, variation, ratio, err, res.iterations, sys_d,
                                 result=res))
    good = [row.ratio for row in rows if not row.failed]
    bound = max(good) if good else math.nan
    return SweepResult(rows=rows, ratio_bound=bound, base_result=base_res)
