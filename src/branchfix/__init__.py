"""Weighted branching processes and their min/sum-type fixed points.

Modules:

* :mod:`branchfix.weights`   — weight models, moment function, characteristic
  exponent, lattice detection, structural assumptions, extinction.
* :mod:`branchfix.seeding`   — counter-based deterministic seeding.
* :mod:`branchfix.branching` — tree simulation, replicate traces of the
  martingale and the largest weight, empirical Laplace transforms, increment
  measure, mean-one dichotomy check, renewal-mass comparison.
* :mod:`branchfix.curves`    — monotone curve containers (interpolated and
  lattice-step), periodic modulations, balanced products.
* :mod:`branchfix.fixpoint`  — min/sum operators, residuals, mixture
  construction and verification, regularity diagnostics, pathwise identities.
* :mod:`branchfix.cascade`   — the Bernoulli cascade family: exact threshold
  chains, explicit step solutions, seed extension, escape iteration.
* :mod:`branchfix.cli`       — reproducible command-line runs.
"""

from types import ModuleType as _ModuleType

from .weights import (
    AssumptionReport,
    BernoulliCascade,
    Deterministic,
    ExponentResult,
    FiniteAtoms,
    LatticeInfo,
    ModelError,
    characteristic_exponent,
    check_assumptions,
    detect_lattice,
    extinction_probability,
    moment_m,
)
from .branching import (
    BigginsReport,
    EmpiricalLaplace,
    IncrementDistribution,
    NodeCapError,
    RenewalReport,
    ReplicateTraces,
    WeightedTree,
    biggins_check,
    increment_distribution,
    renewal_measure_check,
    replicate_traces,
    sample_W_limit,
    simulate_tree,
)
from .curves import (
    CurveShapeError,
    LaplaceCurve,
    LatticeSpec,
    OffLatticeError,
    PeriodicModulation,
    SurvivalCurve,
    constant_modulation,
    convexity_defect,
    dyadic_grid,
    lattice_points,
    log_grid,
    pairwise_prod,
)
from .fixpoint import (
    DisintegrationReport,
    GridDepthError,
    MixtureResidualReport,
    OperatorResult,
    PsiReport,
    RegularityReport,
    ResidualReport,
    apply_operator,
    build_stable_mixture,
    build_weibull_mixture,
    disintegration_check,
    fixed_point_residual,
    mixture_residual_report,
    psi_transform,
    regularity_diagnostic,
)
from .cascade import (
    CascadeParams,
    CascadeSolution,
    EscapeReport,
    SeedFunction,
    StepIdentityReport,
    ThresholdChain,
    a_sequence,
    classify,
    curve_step_residuals,
    escape_check,
    exact_threshold_chain,
    explicit_solution,
    extend_from_seed,
    extract_modulation,
    g_eval,
    g_eval_mp,
    restrict_to_seed,
    seed_defect,
    step_identity_residual,
    u_star,
)

# The re-exported names, without the submodules the imports above bind.
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))

__version__ = "0.1.0"
