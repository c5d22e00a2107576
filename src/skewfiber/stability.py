"""Admissible perturbation families and quantitative stability of fixed points.

A family is the directions it moves (fiber offsets, Bernoulli weights, or
both), applied at magnitude delta to a base system; the alphabet, transition
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

from .measures import round_up
from .skew import FiberMapSpec, SystemSpec, affine_gap
from .symbolic import BaseWeights
from .transfer import (
    ConvergenceError,
    FixedPointResult,
    change_between,
    fixed_point,
    transfer_apply,
)

__all__ = [
    "PerturbationFamily",
    "StabilityRow",
    "SweepResult",
    "realize",
    "realize_grid",
    "fiber_op_gap",
    "operator_gap",
    "stability_sweep",
]

@dataclass
class PerturbationFamily:
    """The directions a family moves a base system (offsets, Bernoulli weights, or both) within delta_max."""

    base: SystemSpec
    fiber_direction: np.ndarray | None = None
    weight_direction: np.ndarray | None = None
    delta_max: float = 0.2

    def __post_init__(self):
        if self.fiber_direction is None and self.weight_direction is None:
            raise ValueError("a family needs a fiber direction, a weight direction, or both")
        n = self.base.n_symbols
        if self.fiber_direction is not None:
            self.fiber_direction = np.asarray(self.fiber_direction, dtype=float)
            if self.fiber_direction.shape != (n,):
                raise ValueError("fiber direction needs one offset change per symbol")
        if self.weight_direction is not None:
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
    if fam.fiber_direction is not None:
        maps = [
            FiberMapSpec(fm.slope, fm.offset + delta * shift, fm.offset_table)
            for fm, shift in zip(maps, fam.fiber_direction)
        ]
    weights = base.weights
    if fam.weight_direction is not None:
        weights = BaseWeights.bernoulli(weights.stationary + delta * fam.weight_direction)
    return SystemSpec(base.matrix, base.theta, weights, maps, base.offset_depth)


def _jacobian_gap(sys0, sys_d):
    # summed over branches i into one target symbol j, maximized over j
    gap = np.abs(sys_d.weights.jacobian - sys0.weights.jacobian)
    return float(gap.sum(axis=0).max())


def _fiber_gap(sys0, sys_d):
    (a0, b0), (ad, bd) = sys0.branches, sys_d.branches
    return float(affine_gap(a0 - ad, b0 - bd).max())


def _budget(sys0, sys_d):
    """Admissibility budget R(delta): the larger of the jacobian-weight and fiber-map gaps, rounded up.

    A jacobian gap is a sum of n differences, n roundings, and a fiber gap
    takes three, so R(delta) is an upper estimate of the exact gap between
    the two systems' float jacobians and branches; zero stays 0.0.
    """
    gap = max(_jacobian_gap(sys0, sys_d), _fiber_gap(sys0, sys_d))
    return round_up(gap, max(sys0.n_symbols, 3))


def fiber_op_gap(sys0, sys_d, dis):
    """Largest fiberwise pushforward gap between two systems on one input.

    For every working word the same source fiber is pushed through both
    branch maps, once per distinct (fiber, offset prefix) pair of the words;
    the lemma bound is R(delta) times the largest fiber norm.
    """
    pushed = []
    for s in (sys0, sys_d):
        def push(row, pos, w, branches=s.branches):
            a, b = branches[:, row]
            return a * pos + b, w

        pushed.append(dis.mapped(s.prefix_rows(dis.depth), push))
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
    message: str = ""  # set exactly when result is None: why the fixed point failed
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


def stability_sweep(fam, realized, depth, tol, grid):
    """Invariant-measure variation along a descending delta grid.

    ``realized`` is ``realize_grid(fam, deltas)``, so the grid is checked and
    each delta's system and R(delta) are built once, before the first solve.
    Each delta owns an independent fixed-point computation; rows carry the
    realized system, the measured variation Delta(delta) = ||mu_delta - mu_0||_inf,
    R(delta), the ratio Delta / (R |log delta|), and the sum of the two
    fixed-point certificates.  A converged row keeps its fixed point for
    later checks; a row whose fixed point does not converge keeps no result,
    only the message, and the sweep continues.  Any other error (such as
    ``transfer_apply``'s atom cap) stops the sweep.
    """
    deltas, systems, budgets = realized
    base_res = fixed_point(fam.base, depth=depth, tol=tol, grid=grid)
    rows = []
    for delta, sys_d, r_delta in zip(deltas, systems, budgets):
        try:
            res = fixed_point(sys_d, depth=depth, tol=tol, grid=grid)
        except ConvergenceError as exc:
            rows.append(StabilityRow(delta, r_delta, math.nan, math.nan, math.nan, 0, sys_d, message=str(exc)))
            continue
        variation = change_between(res.disintegration, base_res.disintegration)
        ratio = variation / (r_delta * abs(math.log(delta)))
        err = res.certified_error + base_res.certified_error
        rows.append(StabilityRow(delta, r_delta, variation, ratio, err, res.iterations, sys_d,
                                 result=res))
    good = [row.ratio for row in rows if row.result is not None]
    bound = max(good) if good else math.nan
    return SweepResult(rows=rows, ratio_bound=bound, base_result=base_res)
