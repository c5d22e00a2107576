"""Shared builders for randomized disintegration tests, and ``tools/identity.py`` loaded as ``identity``."""

import importlib.util
from pathlib import Path

import numpy as np

from oracles import from_fibers, word_index
from skewfiber.cli import _parse_system, parse_config
from skewfiber.measures import AtomicMeasure
from skewfiber.symbolic import TransitionMatrix, cylinder_mass_vector
from skewfiber.transfer import Disintegration

_SPEC = importlib.util.spec_from_file_location("identity", Path(__file__).parents[1] / "tools" / "identity.py")
identity = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(identity)

# 3-symbol SFT that is not the full shift, with a Markov base and offset depth 3
MARKOV3 = parse_config(identity.CONFIGS["markov3_small"]).system


def wide_system(offset_depth):
    """``identity.wide_system`` as a SystemSpec: the full 2-shift with 2^offset_depth offset words."""
    return _parse_system(identity.wide_system(offset_depth))


def random_fiber(rng, n_atoms=3, signed=True, total=None):
    pos = rng.random(n_atoms)
    w = rng.uniform(-1.0, 1.0, n_atoms) if signed else rng.uniform(0.1, 1.0, n_atoms)
    mu = AtomicMeasure(pos, w)
    if total is not None and mu.total_weight() != 0.0:
        mu = AtomicMeasure(mu.positions, total / mu.total_weight() * mu.weights)
    return mu


def random_disintegration(matrix, depth, rng, n_atoms=3, signed=True, unit_mass=False):
    fibers = {}
    for w in matrix.words(depth):
        fibers[w] = random_fiber(rng, n_atoms, signed, total=1.0 if unit_mass else None)
    return from_fibers(matrix, depth, fibers)


def one_row(mu):
    """``mu`` as the one-row atom table over the one-symbol shift."""
    return Disintegration(TransitionMatrix([[1]]), 1, 0, mu.positions, mu.weights)


def random_vanishing_disintegration(matrix, weights, depth, rng, n_atoms=2):
    """Random signed disintegration whose marginal has zero base mean."""
    fibers = {w: random_fiber(rng, n_atoms, signed=True) for w in matrix.words(depth)}
    dis = from_fibers(matrix, depth, fibers)
    masses = cylinder_mass_vector(weights, matrix, depth)
    mean = float(np.dot(masses, dis.fiber_masses()))
    # shift every fiber's first atom weight to cancel the mean exactly
    correction = AtomicMeasure([0.5], [-mean])
    first = matrix.words(depth)[0]
    scale = 1.0 / float(masses[word_index(matrix, depth)[first]])
    fibers[first] = AtomicMeasure(
        np.concatenate([fibers[first].positions, correction.positions]),
        np.concatenate([fibers[first].weights, correction.weights * scale]),
    )
    return from_fibers(matrix, depth, fibers)
