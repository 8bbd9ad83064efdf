"""Weighted branching processes and their min/sum-type fixed points.

Modules:

* :mod:`branchfix.weights`   — weight models, moment function, characteristic
  exponent, lattice detection, structural assumptions, extinction.
* :mod:`branchfix.seeding`   — counter-based deterministic seeding.
* :mod:`branchfix.branching` — tree simulation, martingale/extreme traces,
  empirical Laplace transforms, increment measure, mean-one dichotomy check,
  renewal-mass comparison.
* :mod:`branchfix.curves`    — monotone curve containers (interpolated and
  lattice-step), periodic modulations, balanced products.
* :mod:`branchfix.fixpoint`  — min/sum operators, residuals, mixture
  construction and verification, regularity diagnostics, pathwise identities.
* :mod:`branchfix.cascade`   — the Bernoulli cascade family: exact threshold
  chains, explicit step solutions, seed extension, escape iteration.
* :mod:`branchfix.cli`       — reproducible command-line runs.
"""

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
    MartingaleTrace,
    NodeCapError,
    RenewalReport,
    ReplicateTraces,
    WeightedTree,
    biggins_check,
    increment_distribution,
    martingale_trace,
    renewal_measure_check,
    replicate_traces,
    sample_W_limit,
    simulate_tree,
    sup_weight_trace,
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
    IterationReport,
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
    iterate_operator,
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
    g_inverse,
    restrict_to_seed,
    seed_defect,
    step_identity_residual,
    u_star,
)

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
