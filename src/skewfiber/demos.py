"""Bundled demonstration systems.

``cantor_demo`` is the two-branch middle-third system on the full 2-shift
with fair Bernoulli weights; its invariant measure is the product of the
base measure with the standard Cantor measure.  ``coupled_demo`` perturbs
the same branches with depth-2 offset corrections, which couples the fiber
to the base and makes the invariant disintegration genuinely non-constant
across cylinders.
"""

from .skew import FiberMapSpec, SystemSpec
from .symbolic import BaseWeights, TransitionMatrix

__all__ = ["cantor_demo", "coupled_demo", "markov_demo"]


def cantor_demo(theta=0.5):
    return SystemSpec(
        TransitionMatrix([[1, 1], [1, 1]]),
        theta,
        BaseWeights.bernoulli([0.5, 0.5]),
        [FiberMapSpec(1 / 3, 0.0), FiberMapSpec(1 / 3, 2 / 3)],
        offset_depth=1,
    )


def coupled_demo(theta=0.5, coupling=0.1):
    """Cantor branches with second-symbol offset corrections of the given size.

    The two corrections fire on different second symbols, so they do not
    cancel in the fiber mean and the invariant fiber law genuinely varies
    from cylinder to cylinder.
    """
    return SystemSpec(
        TransitionMatrix([[1, 1], [1, 1]]),
        theta,
        BaseWeights.bernoulli([0.5, 0.5]),
        [
            FiberMapSpec(1 / 3, 0.0, {(0, 1): coupling}),
            FiberMapSpec(1 / 3, 2 / 3, {(1, 0): -coupling}),
        ],
        offset_depth=2,
    )


def markov_demo(theta=0.5):
    """Full 2-shift with a mixing Markov base (second eigenvalue 0.4)."""
    return SystemSpec(
        TransitionMatrix([[1, 1], [1, 1]]),
        theta,
        BaseWeights([[0.9, 0.1], [0.5, 0.5]], stationary=[5 / 6, 1 / 6]),
        [FiberMapSpec(1 / 3, 0.0), FiberMapSpec(1 / 3, 2 / 3)],
        offset_depth=1,
    )
