"""Operators on curves, mixture constructions, regularity, and the
tree-level product/renewal identities."""

import math

import numpy as np
import pytest

from branchfix.branching import sample_W_limit, simulate_tree
from branchfix.cascade import CascadeParams, explicit_solution
from branchfix.curves import (
    CurveShapeError,
    LaplaceCurve,
    LatticeSpec,
    PeriodicModulation,
    SurvivalCurve,
    dyadic_grid,
    log_grid,
)
from branchfix.fixpoint import (
    GridDepthError,
    apply_min_operator,
    apply_sum_operator,
    build_stable_mixture,
    build_weibull_mixture,
    disintegration_check,
    fixed_point_residual,
    iterate_operator,
    mixture_residual_report,
    psi_transform,
    regularity_diagnostic,
)
from branchfix.weights import BernoulliCascade, Deterministic

LN3 = math.log(3.0)


# ---------------------------------------------------------------------------
# operator closure on exact fixed points
# ---------------------------------------------------------------------------


def test_min_operator_exponential_closure():
    # F̄(t/2)^2 = e^{-ct}: the exponential is an exact fixed point of the
    # half-half model, and the dyadic grid keeps every lookup on-grid.  The
    # grid reaches 2^-64 so that the clamped bottom edge, where the image is
    # flattened, carries a defect far below the tolerance.
    g = dyadic_grid(points=512, per_octave=4)
    curve = SurvivalCurve(grid=g, values=np.exp(-g))
    rep = fixed_point_residual(curve, Deterministic(0.5, 0.5), kind="min")
    assert rep.sup_norm <= 1e-12
    assert rep.clamp_fraction < 0.05


def test_sum_operator_exponential_closure():
    g = dyadic_grid(points=512, per_octave=4)
    vals = np.exp(-g)
    # the LaplaceCurve constructor re-checks convexity on the image too
    curve = LaplaceCurve(grid=g, values=vals)
    rep = fixed_point_residual(curve, Deterministic(0.5, 0.5), kind="sum")
    assert rep.sup_norm <= 1e-12


def test_step_survival_is_fixed_for_degenerate_sup_one():
    # Weights (1, 1/2): the product F̄(t) F̄(t/2) equals the same unit step.
    g = dyadic_grid(points=64, per_octave=4)
    c = g[40]
    vals = (g <= c).astype(np.float64)
    curve = SurvivalCurve(grid=g, values=vals)
    out = apply_min_operator(curve, Deterministic(1.0, 0.5))
    np.testing.assert_array_equal(out.curve.values, vals)


def test_operator_cascade_matches_hand_formula():
    # One cascade step is (theta F̄(t/e) + (1-theta) F̄(t))^N; recompute it
    # from raw lookups and compare against the operator's enumeration.
    theta = 0.6
    model = BernoulliCascade(2, theta)
    spec = LatticeSpec(r=math.e, residues=(1.0,), n_lo=-8, n_hi=8)
    g = spec.points()
    curve = SurvivalCurve(
        grid=g, values=np.exp(-1.7 * g**0.9), mode="lattice-step",
        r=math.e, residues=np.array([1.0]), n_lo=-8,
    )
    out = apply_min_operator(curve, model)
    inner_shift, _ = curve.eval_many(g / math.e)
    inner_stay, _ = curve.eval_many(g)
    want = (theta * inner_shift + (1 - theta) * inner_stay) ** 2
    np.testing.assert_allclose(out.curve.values, want, rtol=1e-13)


def test_operator_preserves_trivial_fixed_points():
    g = log_grid(1e-2, 1e2, 32)
    ones = SurvivalCurve(grid=g, values=np.ones(32))
    zeros = SurvivalCurve(grid=g, values=np.zeros(32))
    for model in (Deterministic(0.5, 0.5), BernoulliCascade(2, 0.4)):
        np.testing.assert_array_equal(
            apply_min_operator(ones, model).curve.values, 1.0
        )
        np.testing.assert_array_equal(
            apply_min_operator(zeros, model).curve.values, 0.0
        )


def test_residual_detects_perturbation():
    g = dyadic_grid(points=128, per_octave=8)
    vals = np.exp(-g)
    k = int(np.argmin(np.abs(g - 1.0)))
    vals[k] += 0.01  # stays monotone: neighbors are ~0.05 apart here
    curve = SurvivalCurve(grid=g, values=vals)
    rep = fixed_point_residual(curve, Deterministic(0.5, 0.5), kind="min")
    assert rep.sup_norm >= 0.001


def test_explicit_cascade_solution_is_operator_fixed_point():
    sol = explicit_solution(CascadeParams(2, 0.25), scale=1.0, depth=30, below=5)
    rep = fixed_point_residual(sol.curve, BernoulliCascade(2, 0.25), kind="min")
    assert rep.sup_norm <= 1e-12


def test_kind_must_be_min_or_sum():
    g = log_grid(1e-2, 1e2, 16)
    curve = SurvivalCurve(grid=g, values=np.exp(-g))
    with pytest.raises(ValueError):
        fixed_point_residual(curve, Deterministic(0.5, 0.5), kind="max")


# ---------------------------------------------------------------------------
# iteration
# ---------------------------------------------------------------------------


def test_iterate_stays_at_fixed_point():
    # Clamped bottom-edge lookups inject a defect of order t_min per pass,
    # which later passes read back one octave up; a grid reaching 2^-64
    # keeps that contamination far below the tolerance for four passes.
    g = dyadic_grid(points=1024, per_octave=8)
    curve = SurvivalCurve(grid=g, values=np.exp(-2.0 * g))  # Weib(2, 1)
    rep = iterate_operator(curve, Deterministic(0.5, 0.5), kind="min", n_iter=4)
    assert all(s <= 1e-12 for s in rep.sup_norms)


def test_iterate_drifts_to_zero_when_no_fixed_point_exists():
    # Weights (2, 1) have sup >= 1 with an atom above 1: every nontrivial
    # curve is pushed toward the zero survival function.
    g = log_grid(1e-3, 1e3, 64)
    start = SurvivalCurve(grid=g, values=np.exp(-g))
    rep = iterate_operator(start, Deterministic(2.0, 1.0), kind="min", n_iter=6)
    before = float(start.eval(1.0)[0])
    after = float(rep.final.eval(1.0)[0])
    assert after < 1e-6 * before


def test_iterate_requires_positive_count():
    g = log_grid(1e-2, 1e2, 16)
    curve = SurvivalCurve(grid=g, values=np.exp(-g))
    with pytest.raises(ValueError):
        iterate_operator(curve, Deterministic(0.5, 0.5), n_iter=0)


# ---------------------------------------------------------------------------
# mixture constructors
# ---------------------------------------------------------------------------


def _unit_phi():
    # W = 1 exactly: the empirical transform is e^{-x} with zero spread.
    return sample_W_limit(Deterministic(0.5, 0.5), 1.0, depth=4, replicates=64, seed=9)


def test_weibull_mixture_degenerate_sample_gives_weibull():
    phi = _unit_phi()
    g = log_grid(1e-3, 1e2, 128)
    curve = build_weibull_mixture(phi, 2.0, 1.0, g)
    # the tail channel keeps full relative accuracy (W = 1 up to rounding of
    # exp(-n log 2)); the value channel quantizes at one ulp of 1 once the
    # tail drops below it
    np.testing.assert_allclose(curve.tail, -np.expm1(-2.0 * g), rtol=1e-12)
    np.testing.assert_allclose(curve.values, np.exp(-2.0 * g), rtol=1e-12, atol=3e-16)


def test_stable_mixture_degenerate_sample():
    phi = _unit_phi()
    g = log_grid(1e-3, 1e2, 128)
    curve = build_stable_mixture(phi, 1.5, 0.7, g)
    np.testing.assert_allclose(
        curve.values, np.exp(-1.5 * g**0.7), rtol=1e-12, atol=3e-16
    )


def test_weibull_mixture_rejects_inadmissible_modulation():
    phi = _unit_phi()
    h = PeriodicModulation(math.e, np.array([1.0, 1.5]), np.array([1.0, 10.0]))
    with pytest.raises(CurveShapeError):
        build_weibull_mixture(phi, h, 0.2, log_grid(1e-2, 1e2, 32))


def test_stable_mixture_rejects_alpha_above_one():
    phi = _unit_phi()
    with pytest.raises(ValueError, match="no scale mixtures"):
        build_stable_mixture(phi, 1.0, 1.2, log_grid(1e-2, 1e2, 32))


def test_stable_mixture_alpha_one_needs_constant_scale():
    phi = _unit_phi()
    p = PeriodicModulation(math.e, np.array([1.0, 1.5]), np.array([1.0, 1.02]))
    with pytest.raises(ValueError, match="constant"):
        build_stable_mixture(phi, p, 1.0, log_grid(1e-2, 1e2, 32))


def test_mixture_tail_slope_recovers_mean():
    # 1 - φ̂(x) ~ x E W near 0, so D at the smallest grid point estimates
    # E W = 1 within sampling error.
    phi = sample_W_limit(BernoulliCascade(2, 0.75), LN3, depth=10,
                         replicates=20_000, seed=42)
    spec = LatticeSpec(r=math.e, residues=(1.0,), n_lo=-20, n_hi=10)
    curve = build_weibull_mixture(phi, 1.0, LN3, spec)
    d0 = float(curve.tail[0] / curve.grid[0] ** LN3)
    band = 3.0 * float(phi.samples.std(ddof=1)) / math.sqrt(len(phi.samples))
    assert abs(d0 - 1.0) <= band + 1e-9


# ---------------------------------------------------------------------------
# sample-side operator residuals
# ---------------------------------------------------------------------------


def test_weibull_mixture_operator_residual_within_band():
    model = BernoulliCascade(2, 0.75)
    phi = sample_W_limit(model, LN3, depth=10, replicates=20_000, seed=42)
    pts = np.exp(np.arange(-10, 10, dtype=np.float64))
    rep = mixture_residual_report(phi, 1.0, LN3, model, pts, kind="min")
    assert len(rep.points) == 20
    assert np.all(np.isfinite(rep.z))
    assert rep.max_abs_z <= 3.0


def test_stable_mixture_operator_residual_within_band():
    model = BernoulliCascade(2, 0.9)
    alpha = math.log(9.0 / 4.0)
    phi = sample_W_limit(model, alpha, depth=10, replicates=20_000, seed=7)
    pts = np.exp(np.arange(-8, 8, dtype=np.float64))
    rep = mixture_residual_report(phi, 1.0, alpha, model, pts, kind="sum")
    assert rep.max_abs_z <= 3.0


def test_mixture_residual_rounding_is_not_a_z_score():
    # At t = e^5 the curve value is below 1e-15, so the residual is two tails
    # near 1 differenced: a few ulps, which over a standard error of ~2e-17
    # used to read as z = 10.5.  Rounding of that size now scores 0.
    model = BernoulliCascade(2, 0.9)
    alpha = math.log(9.0 / 4.0)
    phi = sample_W_limit(model, alpha, depth=8, replicates=5000, seed=8)
    rep = mixture_residual_report(
        phi, 1.0, alpha, model, np.array([math.e**5]), kind="sum"
    )
    eps = np.finfo(np.float64).eps
    assert abs(rep.residuals[0]) <= 8.0 * eps
    assert 0.0 < rep.se[0] < 1e-15
    assert rep.z[0] == 0.0


# ---------------------------------------------------------------------------
# regularity near zero
# ---------------------------------------------------------------------------


def _weibull_lattice_curve(c=1.3, alpha=0.8):
    spec = LatticeSpec(r=math.e, residues=(1.0, math.sqrt(math.e)), n_lo=-16, n_hi=8)
    g = spec.points()
    return SurvivalCurve(
        grid=g, values=np.exp(-c * g**alpha), mode="lattice-step",
        r=math.e, residues=np.array([1.0, math.sqrt(math.e)]), n_lo=-16,
    )


def test_regularity_exact_weibull_is_elementary_candidate():
    curve = _weibull_lattice_curve(c=1.3, alpha=0.8)
    rep = regularity_diagnostic(curve, 0.8)
    assert rep.classification == "elementary-candidate"
    for limit in rep.per_residue.values():
        np.testing.assert_allclose(limit, 1.3, rtol=1e-4)


def test_regularity_wrong_exponent_is_not_regular():
    # Probing Weib(c, 0.8) at exponent 0.5 sends the normalized tail to 0
    # like t^{0.3}.
    curve = _weibull_lattice_curve(c=1.3, alpha=0.8)
    rep = regularity_diagnostic(curve, 0.5)
    assert rep.classification == "not-regular"


def test_regularity_explicit_solution_vanishes():
    # The supercritical solution is identically 1 on (0, 1]; its normalized
    # tail is 0 on the whole window.
    sol = explicit_solution(CascadeParams(2, 0.25), scale=1.0, depth=30, below=13)
    rep = regularity_diagnostic(sol.curve, 1.0)
    assert rep.classification == "not-regular"
    assert rep.limsup_estimate == 0.0


def test_regularity_needs_deep_grid():
    g = log_grid(1e-2, 1e2, 32)
    curve = SurvivalCurve(grid=g, values=np.exp(-g))
    with pytest.raises(GridDepthError):
        regularity_diagnostic(curve, 1.0)


def test_regularity_mixture_curve_near_one():
    phi = sample_W_limit(BernoulliCascade(2, 0.75), LN3, depth=10,
                         replicates=20_000, seed=42)
    spec = LatticeSpec(r=math.e, residues=(1.0,), n_lo=-20, n_hi=10)
    curve = build_weibull_mixture(phi, 1.0, LN3, spec)
    rep = regularity_diagnostic(curve, LN3)
    assert rep.classification == "elementary-candidate"
    for limit in rep.per_residue.values():
        assert abs(limit - 1.0) <= 0.1


# ---------------------------------------------------------------------------
# tree-level identities
# ---------------------------------------------------------------------------


def test_disintegration_trivial_split():
    g = log_grid(1e-3, 1e3, 64)
    curve = SurvivalCurve(grid=g, values=np.exp(-g))
    tree = simulate_tree(BernoulliCascade(2, 0.5), depth=3, seed=2)
    rep = disintegration_check(curve, tree, 0.5, j=0, k=3)
    assert rep.abs_diff == 0.0


def test_disintegration_deterministic_interp():
    g = log_grid(1e-3, 1e3, 64)
    curve = SurvivalCurve(grid=g, values=np.exp(-g))
    tree = simulate_tree(Deterministic(0.5, 0.5), depth=5, seed=1)
    rep = disintegration_check(curve, tree, 0.7, j=2, k=3)
    assert rep.abs_diff <= 1e-12


def test_disintegration_lattice_curve_exact():
    # Lattice lookups are table reads and both sides share one balanced
    # reduction tree, so the identity holds bit for bit.
    sol = explicit_solution(CascadeParams(2, 0.25), scale=1.0, depth=30, below=5)
    tree = simulate_tree(BernoulliCascade(2, 0.25), depth=2, seed=3)
    rep = disintegration_check(sol.curve, tree, math.e**2, j=1, k=1)
    assert rep.abs_diff == 0.0


def test_disintegration_validates_split():
    g = log_grid(1e-2, 1e2, 16)
    curve = SurvivalCurve(grid=g, values=np.exp(-g))
    tree = simulate_tree(Deterministic(0.5, 0.5), depth=3, seed=1)
    with pytest.raises(ValueError):
        disintegration_check(curve, tree, 1.0, j=2, k=2)


def test_psi_decomposition_deterministic():
    g = log_grid(1e-3, 1e3, 256)
    curve = SurvivalCurve(grid=g, values=np.exp(-g))
    tree = simulate_tree(Deterministic(0.5, 0.5), depth=5, seed=1)
    rep = psi_transform(curve, tree, 0.3, 1.0, n=2)
    assert rep.abs_diff <= 1e-12
    # on an exponential curve the transform is the scale constant up to
    # interpolation error
    np.testing.assert_allclose(rep.value, 1.0, rtol=5e-3)


def test_psi_trivial_generation_is_identity():
    g = log_grid(1e-3, 1e3, 64)
    curve = SurvivalCurve(grid=g, values=np.exp(-g))
    tree = simulate_tree(BernoulliCascade(2, 0.75), depth=4, seed=6)
    rep = psi_transform(curve, tree, 0.2, LN3, n=0)
    assert rep.abs_diff == 0.0


def test_psi_mixture_curve_rearrangement():
    phi = sample_W_limit(BernoulliCascade(2, 0.75), LN3, depth=8,
                         replicates=4000, seed=5)
    mix = build_weibull_mixture(
        phi, 1.0, LN3, LatticeSpec(r=math.e, residues=(1.0,), n_lo=-25, n_hi=15)
    )
    tree = simulate_tree(BernoulliCascade(2, 0.75), depth=6, seed=11)
    rep = psi_transform(mix, tree, 1.0, LN3, n=3)
    assert rep.abs_diff <= 1e-10


def test_psi_rejects_zero_curve_values():
    g = log_grid(1e-2, 1e2, 16)
    vals = np.exp(-g)
    vals[-4:] = 0.0
    curve = SurvivalCurve(grid=g, values=vals)
    tree = simulate_tree(Deterministic(0.5, 0.5), depth=2, seed=1)
    with pytest.raises(ValueError):
        psi_transform(curve, tree, math.log(g[-1]), 1.0, n=1)
