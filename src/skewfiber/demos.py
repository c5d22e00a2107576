"""Bundled demonstration systems.

``cantor_demo`` is the two-branch middle-third system on the full 2-shift
with fair Bernoulli weights; its invariant measure is the product of the
base measure with the standard Cantor measure.  ``coupled_demo`` adds depth-2
offset corrections of +-0.1 on different second symbols, which couples the
fiber to the base.  Each is the system of its config shipped in ``data/``.
"""

from importlib import resources

from .skew import FiberMapSpec, SystemSpec
from .symbolic import BaseWeights, TransitionMatrix

__all__ = ["cantor_demo", "coupled_demo", "markov_demo"]


def _shipped(name):
    """The system of the shipped config ``data/<name>.json``, read by the command line's parser."""
    # imported here, so that importing the package does not load the command line
    from .cli import parse_config

    with resources.as_file(resources.files("skewfiber") / "data" / f"{name}.json") as path:
        return parse_config(path).system


def cantor_demo():
    return _shipped("cantor_demo")


def coupled_demo():
    return _shipped("coupled_demo")


def markov_demo():
    """Full 2-shift with a mixing Markov base (second eigenvalue 0.4)."""
    return SystemSpec(
        TransitionMatrix([[1, 1], [1, 1]]),
        0.5,
        BaseWeights([[0.9, 0.1], [0.5, 0.5]], stationary=[5 / 6, 1 / 6]),
        [FiberMapSpec(1 / 3, 0.0), FiberMapSpec(1 / 3, 2 / 3)],
        offset_depth=1,
    )
