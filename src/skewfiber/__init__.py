"""Skew products with contracting fibers over subshifts of finite type.

Numerical toolkit for the invariant measures of such systems: exact
bounded-Lipschitz distances between fiberwise measures, transfer operators
on finite-depth disintegrations, quantitative stability under admissible
perturbations, decay of correlations, and a central limit theorem
experiment.
"""

__version__ = "0.1.0"

from .measures import (
    AffineMap,
    AtomicMeasure,
    PiecewiseLinearFn,
    ZERO_MEASURE,
    wk_distance,
    wk_distance_primal,
)
from .symbolic import (
    BaseWeights,
    CylinderFunction,
    TransitionMatrix,
    base_rate,
    cylinder_mass_vector,
    enumerate_words,
    ruelle_apply,
    word_distances,
)
from .skew import (
    FiberMapSpec,
    SystemSpec,
    c1_constant,
    estimate_H,
    verify_G1,
)
from .transfer import (
    ConvergenceError,
    Disintegration,
    FixedPointResult,
    equilibrium_decay,
    fixed_point,
    lip_constant,
    marginal_density,
    norm_inf,
    norm_s_inf,
    transfer_apply,
    verify_ly,
)
from .stability import (
    PerturbationFamily,
    admissibility_report,
    fiber_op_gap,
    operator_gap,
    realize,
    stability_sweep,
)
from .limits import (
    CoboundaryError,
    InconsistencyError,
    Observable,
    asymptotic_variance,
    clt_experiment,
    correlation_curve,
    fiber_average,
    gordin_norms,
    integrate_observable,
)
from .demos import cantor_demo, coupled_demo, markov_demo
