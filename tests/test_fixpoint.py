"""Operators on curves, mixture constructions, regularity, and the
tree-level product/renewal identities."""

import math
import tracemalloc

import mpmath
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
    _as_modulation,
    _mixture_arguments,
    apply_operator,
    build_stable_mixture,
    build_weibull_mixture,
    disintegration_check,
    fixed_point_residual,
    mixture_residual_report,
    psi_transform,
    regularity_diagnostic,
)
from branchfix.weights import (BernoulliCascade, Deterministic, FiniteAtoms, atom_table,
                               characteristic_exponent)

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
    rep = fixed_point_residual(curve, Deterministic(0.5, 0.5))
    assert rep.sup_norm <= 1e-12
    assert rep.clamp_fraction < 0.05


def test_sum_operator_exponential_closure():
    g = dyadic_grid(points=512, per_octave=4)
    vals = np.exp(-g)
    # the LaplaceCurve constructor re-checks convexity on the image too
    curve = LaplaceCurve(grid=g, values=vals)
    rep = fixed_point_residual(curve, Deterministic(0.5, 0.5))
    assert rep.sup_norm <= 1e-12


def test_step_survival_is_fixed_for_degenerate_sup_one():
    # Weights (1, 1/2): the product F̄(t) F̄(t/2) equals the same unit step.
    g = dyadic_grid(points=64, per_octave=4)
    c = g[40]
    vals = (g <= c).astype(np.float64)
    curve = SurvivalCurve(grid=g, values=vals)
    out = apply_operator(curve, Deterministic(1.0, 0.5))
    np.testing.assert_array_equal(out.curve.values, vals)


def test_operator_cascade_matches_hand_formula():
    # One cascade step is (theta F̄(t/e) + (1-theta) F̄(t))^N; recompute it
    # from raw lookups and compare against the operator's enumeration.
    theta = 0.6
    model = BernoulliCascade(2, theta)
    spec = LatticeSpec(r=math.e, residues=(1.0,), n_lo=-8, n_hi=8)
    g = spec.points()
    curve = SurvivalCurve(grid=g, values=np.exp(-1.7 * g**0.9), lattice=spec)
    out = apply_operator(curve, model)
    inner_shift, _ = curve.eval_many(g / math.e)
    inner_stay, _ = curve.eval_many(g)
    want = (theta * inner_shift + (1 - theta) * inner_stay) ** 2
    np.testing.assert_allclose(out.curve.values, want, rtol=1e-13)


def test_operator_zero_weight_is_a_unit_factor():
    # A zero weight contributes curve(0) = 1, so it drops out of its atom's
    # product: E prod = 0.4 F̄(t/2) + 0.6 F̄(0.7 t) F̄(0.9 t).
    model = FiniteAtoms([(0.4, (0.5, 0.0)), (0.6, (0.7, 0.9, 0.0))])
    g = log_grid(1e-3, 1e3, 64)
    curve = SurvivalCurve(grid=g, values=np.exp(-g))
    out = apply_operator(curve, model)
    f = {w: curve.eval_many(g * w)[0] for w in (0.5, 0.7, 0.9)}
    want = 0.4 * f[0.5] + 0.6 * (f[0.7] * f[0.9])
    np.testing.assert_allclose(out.curve.values, want, rtol=1e-15)


def test_operator_preserves_trivial_fixed_points():
    g = log_grid(1e-2, 1e2, 32)
    ones = SurvivalCurve(grid=g, values=np.ones(32))
    zeros = SurvivalCurve(grid=g, values=np.zeros(32))
    for model in (Deterministic(0.5, 0.5), BernoulliCascade(2, 0.4)):
        np.testing.assert_array_equal(
            apply_operator(ones, model).curve.values, 1.0
        )
        np.testing.assert_array_equal(
            apply_operator(zeros, model).curve.values, 0.0
        )


def test_residual_detects_perturbation():
    g = dyadic_grid(points=128, per_octave=8)
    vals = np.exp(-g)
    k = int(np.argmin(np.abs(g - 1.0)))
    vals[k] += 0.01  # stays monotone: neighbors are ~0.05 apart here
    curve = SurvivalCurve(grid=g, values=vals)
    rep = fixed_point_residual(curve, Deterministic(0.5, 0.5))
    assert rep.sup_norm >= 0.001


def test_explicit_cascade_solution_is_operator_fixed_point():
    sol = explicit_solution(CascadeParams(2, 0.25), scale=1.0, depth=30, below=5)
    rep = fixed_point_residual(sol.curve, BernoulliCascade(2, 0.25))
    assert rep.sup_norm <= 1e-12


# ---------------------------------------------------------------------------
# iteration
# ---------------------------------------------------------------------------


def test_iterate_stays_at_fixed_point():
    # Clamped bottom-edge lookups inject a defect of order t_min per pass,
    # which later passes read back one octave up; a grid reaching 2^-64
    # keeps that contamination far below the tolerance for four passes.
    g = dyadic_grid(points=1024, per_octave=8)
    curve = SurvivalCurve(grid=g, values=np.exp(-2.0 * g))  # Weib(2, 1)
    for _ in range(4):
        rep = fixed_point_residual(curve, Deterministic(0.5, 0.5))
        assert rep.sup_norm <= 1e-12
        curve = rep.image


def test_iterate_drifts_to_zero_when_no_fixed_point_exists():
    # Weights (2, 1) have sup >= 1 with an atom above 1: every nontrivial
    # curve is pushed toward the zero survival function.
    g = log_grid(1e-3, 1e3, 64)
    start = SurvivalCurve(grid=g, values=np.exp(-g))
    curve = start
    for _ in range(6):
        curve = fixed_point_residual(curve, Deterministic(2.0, 1.0)).image
    before = float(start.eval(1.0)[0])
    after = float(curve.eval(1.0)[0])
    assert after < 1e-6 * before


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


def test_tail_mean_matches_evaluate_tail():
    phi = sample_W_limit(BernoulliCascade(2, 0.75), LN3, depth=6,
                         replicates=4096, seed=22)
    # Eight arguments per 2^15-value block: 313 blocks, the last partial
    # (four rows), so the comparison crosses 312 block boundaries.
    xs = np.concatenate([[0.0, 1e-300, 1e-9], np.geomspace(1e-6, 1e3, 2497)])
    # One-shot reference: every term in one array, one mean per row.
    terms = np.multiply.outer(xs, -phi.samples)
    np.expm1(terms, out=terms)
    np.negative(terms, out=terms)
    want = terms.mean(axis=1)
    assert phi.evaluate_tail(xs).tobytes() == want.tobytes()
    assert phi.evaluate_tail(xs[5]) == want[5]
    assert phi.evaluate(xs[5]) == 1.0 - want[5]
    with pytest.raises(ValueError, match=">= 0"):
        phi.evaluate_tail([1.0, -1.0])
    grid = xs[3:]
    curve = build_weibull_mixture(phi, 1.0, LN3, grid)
    curve_tail = phi.evaluate_tail(_mixture_arguments(_as_modulation(1.0), LN3, grid))
    assert curve.tail.tobytes() == curve_tail.tobytes()


# ---------------------------------------------------------------------------
# sample-side operator residuals
# ---------------------------------------------------------------------------


def test_weibull_mixture_operator_residual_within_band():
    model = BernoulliCascade(2, 0.75)
    phi = sample_W_limit(model, LN3, depth=10, replicates=20_000, seed=42)
    pts = np.exp(np.arange(-10, 10, dtype=np.float64))
    rep = mixture_residual_report(phi, 1.0, LN3, model, pts)
    assert len(rep.points) == 20
    assert np.all(np.isfinite(rep.z))
    assert rep.max_abs_z <= 3.0


def test_mixture_residual_needs_points():
    model = BernoulliCascade(2, 0.75)
    phi = sample_W_limit(model, LN3, depth=4, replicates=50, seed=3)
    with pytest.raises(ValueError, match="nonempty"):
        mixture_residual_report(phi, 1.0, LN3, model, np.array([]))


def test_stable_mixture_operator_residual_within_band():
    model = BernoulliCascade(2, 0.9)
    alpha = math.log(9.0 / 4.0)
    phi = sample_W_limit(model, alpha, depth=10, replicates=20_000, seed=7)
    pts = np.exp(np.arange(-8, 8, dtype=np.float64))
    rep = mixture_residual_report(phi, 1.0, alpha, model, pts)
    assert rep.max_abs_z <= 3.0


def test_mixture_residual_rounding_is_not_a_z_score():
    # At t = e^5 the curve value is below 1e-15, so the residual is two tails
    # near 1 differenced: a few ulps, which over a standard error of ~2e-17
    # used to read as z = 10.5.  Rounding of that size now scores 0.
    model = BernoulliCascade(2, 0.9)
    alpha = math.log(9.0 / 4.0)
    phi = sample_W_limit(model, alpha, depth=8, replicates=5000, seed=8)
    rep = mixture_residual_report(phi, 1.0, alpha, model, np.array([math.e**5]))
    eps = np.finfo(np.float64).eps
    assert abs(rep.residuals[0]) <= 8.0 * eps
    assert 0.0 < rep.se[0] < 1e-15
    assert rep.z[0] == 0.0


def _reference_mixture_residuals(phi, h, alpha, model, points):
    """The per-point loop ``mixture_residual_report`` replaced, as a reference.

    Each point deduplicates its arguments, takes their tails in one outer
    product and walks the atoms one weight at a time.  The arguments go
    through ``_mixture_arguments``, as the curve builders' do.
    """
    hmod = _as_modulation(h)
    table = atom_table(model)
    w = phi.samples
    n = len(w)
    pts = np.asarray(points, dtype=np.float64)
    residuals = np.empty(len(pts))
    ses = np.empty(len(pts))
    for j, t in enumerate(pts):
        args = [float(_mixture_arguments(hmod, alpha, np.array([t]))[0])]
        spans = []  # (prob, [arg indices]) per atom
        for p, ws in zip(table.probs, table.full_weights):
            if p == 0.0:
                continue
            idxs = []
            for wt in ws:
                if wt == 0.0:
                    continue
                u = t * wt
                args.append(float(_mixture_arguments(hmod, alpha, np.array([u]))[0]))
                idxs.append(len(args) - 1)
            spans.append((p, idxs))
        uniq, inv = np.unique(np.array(args), return_inverse=True)
        outer = np.outer(uniq, w)
        a = np.exp(-outer)
        tau = -np.expm1(-outer).mean(axis=1)
        mu = 1.0 - tau
        grad = np.zeros(len(uniq))
        op_tail, op_mean = 0.0, 0.0   # 1 - A, A
        with np.errstate(divide="ignore"):
            log_mu = np.log1p(-tau)
        for p, idxs in spans:
            mus = mu[inv[idxs]]
            op_tail += p * float(-np.expm1(np.sum(log_mu[inv[idxs]])))
            prod = float(np.prod(mus))
            op_mean += p * prod
            for pos, e in enumerate(inv[idxs]):
                rest = prod / mus[pos] if mus[pos] != 0.0 else float(
                    np.prod(np.delete(mus, pos))
                )
                grad[e] += p * rest
        op_tail *= sum(op_mean**i for i in range(table.copies))
        grad *= table.copies * op_mean ** (table.copies - 1)
        grad[inv[0]] -= 1.0
        residuals[j] = float(tau[inv[0]]) - op_tail
        ses[j] = float((grad @ a).std(ddof=1) / math.sqrt(n))
    return residuals, ses


ATOMS3 = FiniteAtoms([(0.3, (0.6, 0.5)), (0.5, (0.9, 0.35)), (0.2, (0.7, 0.8))])


@pytest.mark.parametrize("model, alpha, h", [
    (BernoulliCascade(2, 0.75), LN3, 1.0),
    (BernoulliCascade(2, 0.9), math.log(9.0 / 4.0), 1.0),
    (ATOMS3, None, 1.0),
    # variable fan-out with a zero weight (no child) and a weight above 1
    (FiniteAtoms([(0.25, (0.2, 0.0, 1.5)), (0.5, (0.8,)), (0.25, (1.0, 0.4, 0.1))]),
     0.8, 1.0),
    (BernoulliCascade(2, 0.75), LN3,
     PeriodicModulation(math.e, np.array([1.0, 1.6]), np.array([1.0, 1.3]))),
], ids=["cascade-min", "cascade-sum", "three-atoms", "variable-fan-out", "modulated"])
def test_mixture_residuals_match_per_point_reference(model, alpha, h):
    if alpha is None:
        alpha = characteristic_exponent(model).alpha
    phi = sample_W_limit(model, alpha, depth=6, replicates=1000, seed=21)
    pts = np.exp(np.linspace(-10.0, 10.0, 21))
    rep = mixture_residual_report(phi, h, alpha, model, pts)
    want, want_se = _reference_mixture_residuals(phi, h, alpha, model, pts)
    np.testing.assert_array_equal(rep.residuals, want)
    # From t = 1 up the reference's value-form influence function is accurate.
    np.testing.assert_allclose(rep.se[10:], want_se[10:], rtol=1e-9, atol=0.0)


def _traced_peak(call):
    """Peak bytes ``tracemalloc`` traces while ``call()`` runs (numpy's
    buffers included)."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_laplace_temporaries_stay_in_a_cache_sized_block():
    # The benchmark's sizes: 2048 samples, a 512-point grid, and 21 points
    # of the 3-atom model (7 columns).  A Laplace block holds at most 2^15
    # values (256 KiB), and so does an influence temporary; each whole
    # kernel stays under 1 MiB, where blocks of 2^22 and 2^20 values took
    # 8.2, 8.2 and 3.0 MiB.
    alpha = characteristic_exponent(ATOMS3).alpha
    phi = sample_W_limit(ATOMS3, alpha, depth=6, replicates=2048, seed=7)
    grid = log_grid()
    xs = _mixture_arguments(_as_modulation(1.0), alpha, grid)
    pts = np.exp(np.arange(-10.0, 11.0))
    peaks = [_traced_peak(lambda: phi.evaluate_tail(xs)),
             _traced_peak(lambda: build_weibull_mixture(phi, 1.0, alpha, grid)),
             _traced_peak(lambda: mixture_residual_report(phi, 1.0, alpha, ATOMS3, pts))]
    assert max(peaks) < 2**20, peaks


def test_residual_report_is_the_same_point_by_point():
    # 21 points of 7 columns over 2048 samples take two points per influence
    # temporary and 147 tails in 10 Laplace blocks; one point at a time
    # takes one point and one block.  No bit moves.
    alpha = characteristic_exponent(ATOMS3).alpha
    phi = sample_W_limit(ATOMS3, alpha, depth=6, replicates=2048, seed=8)
    pts = np.exp(np.arange(-10.0, 11.0))
    rep = mixture_residual_report(phi, 1.0, alpha, ATOMS3, pts)
    one = [mixture_residual_report(phi, 1.0, alpha, ATOMS3, pts[i:i + 1]) for i in range(len(pts))]
    assert rep.residuals.tobytes() == np.concatenate([r.residuals for r in one]).tobytes()
    assert rep.se.tobytes() == np.concatenate([r.se for r in one]).tobytes()


def _mp_mixture_se(phi, alpha, model, t):
    """The residual's SE at ``t`` (constant modulation) in 60-digit arithmetic.

    The float arguments and samples are taken as exact; everything after
    them, the sample means, the gradient and the variance, is done in mpmath.
    """
    table = atom_table(model)
    live = [(mpmath.mpf(float(p)), [w for w in ws if w != 0.0])
            for p, ws in zip(table.probs, table.full_weights) if p != 0.0]
    scale = np.array([1.0] + [w for _, ws in live for w in ws])
    xs = _mixture_arguments(_as_modulation(1.0), alpha, t * scale)
    with mpmath.workdps(60):
        n = len(phi.samples)
        vals = [[mpmath.exp(-mpmath.mpf(float(x)) * mpmath.mpf(float(w)))
                 for w in phi.samples] for x in xs]
        mu = [mpmath.fsum(v) / n for v in vals]
        grad = [mpmath.mpf(0)] * len(xs)
        mean, col = mpmath.mpf(0), 1
        for p, ws in live:
            cols = range(col, col + len(ws))
            col += len(ws)
            mean += p * mpmath.fprod(mu[i] for i in cols)
            for i in cols:
                grad[i] = p * mpmath.fprod(mu[k] for k in cols if k != i)
        c = table.copies
        grad = [g * c * mean ** (c - 1) for g in grad]
        grad[0] -= 1
        infl = [mpmath.fsum(g * v[s] for g, v in zip(grad, vals)) for s in range(n)]
        centre = mpmath.fsum(infl) / n
        var = mpmath.fsum((v - centre) ** 2 for v in infl) / (n - 1)
        return float(mpmath.sqrt(var / n))


@pytest.mark.parametrize("model, t_big", [(ATOMS3, math.exp(2.5)),
                                           (BernoulliCascade(2, 0.75), math.exp(4.5))],
                         ids=["three-atoms", "cascade"])
def test_mixture_se_matches_extended_precision(model, t_big):
    # At small t every exp(-x W) is near 1, and at large t every 1 - exp(-x W)
    # is: an influence function built from either alone loses the spread to
    # cancellation (13% off at e^-10 from values, 7e-7 at t_big from tails).
    alpha = characteristic_exponent(model).alpha
    phi = sample_W_limit(model, alpha, depth=8, replicates=512, seed=5)
    pts = np.array([math.exp(-10.0), 1.0, t_big])
    rep = mixture_residual_report(phi, 1.0, alpha, model, pts)
    want = [_mp_mixture_se(phi, alpha, model, t) for t in pts]
    np.testing.assert_allclose(rep.se, want, rtol=1e-8, atol=0.0)


# ---------------------------------------------------------------------------
# regularity near zero
# ---------------------------------------------------------------------------


def _weibull_lattice_curve(c=1.3, alpha=0.8):
    spec = LatticeSpec(r=math.e, residues=(1.0, math.sqrt(math.e)), n_lo=-16, n_hi=8)
    g = spec.points()
    return SurvivalCurve(grid=g, values=np.exp(-c * g**alpha), lattice=spec)


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


def test_regularity_window_below_one_is_rejected():
    sol = explicit_solution(CascadeParams(2, 0.25), scale=1.0, depth=30, below=13)
    with pytest.raises(ValueError, match="window must be >= 1"):
        regularity_diagnostic(sol.curve, 1.0, window=0)


@pytest.mark.parametrize("amplitude, label", [(0.3, "regular"), (0.6, "inconclusive")])
def test_regularity_oscillating_tail(amplitude, label):
    # D(t) = 1 + a sin(log t) neither settles nor trends: within a factor 2
    # for a = 0.3 (0.7 .. 1.3), wider for a = 0.6 (0.4 .. 1.6).
    g = log_grid(1e-8, 1e2, 400)
    curve = SurvivalCurve(grid=g, values=np.exp(-g * (1.0 + amplitude * np.sin(np.log(g)))))
    rep = regularity_diagnostic(curve, 1.0)
    assert rep.classification == label
    np.testing.assert_allclose(
        [rep.liminf_estimate, rep.limsup_estimate], [1 - amplitude, 1 + amplitude], atol=1e-3
    )


def test_regularity_bounded_not_away_from_zero():
    # On a lattice probed at alpha = 10 each step up multiplies t^alpha by
    # e^10, so D = tail / t^alpha can alternate between 1 and 1/200 while
    # the tail still increases: bounded above, not away from 0, no trend.
    spec = LatticeSpec(r=math.e, residues=(1.0,), n_lo=-14, n_hi=-1)
    g = spec.points()
    tail = np.where(np.arange(len(g)) % 2 == 0, 1.0, 0.005) * g**10.0
    curve = SurvivalCurve(grid=g, values=1.0 - tail, lattice=spec, tail=tail)
    rep = regularity_diagnostic(curve, 10.0)
    assert rep.classification == "bounded"
    assert rep.liminf_estimate == pytest.approx(0.005, rel=1e-9)
    assert rep.limsup_estimate == pytest.approx(1.0, rel=1e-9)


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


# ---------------------------------------------------------------------------
# input checks
# ---------------------------------------------------------------------------


def _shallow_step_curve():
    spec = LatticeSpec(r=math.e, residues=(1.0,), n_lo=-3, n_hi=3)
    return SurvivalCurve(grid=spec.points(), values=np.linspace(1.0, 0.2, 7), lattice=spec)


@pytest.mark.parametrize("call, message", [
    (lambda: build_weibull_mixture(_unit_phi(), 1.0, 0.0, log_grid(1e-2, 1e2, 8)),
     "alpha must be > 0"),
    (lambda: build_stable_mixture(_unit_phi(), 1.0, -0.5, log_grid(1e-2, 1e2, 8)),
     "alpha must be > 0"),
    (lambda: psi_transform(_shallow_step_curve(),
                           simulate_tree(Deterministic(0.5, 0.5), depth=2, seed=1), 0.0, 1.0, n=3),
     "need 0 <= n <= depth=2"),
    (lambda: regularity_diagnostic(_shallow_step_curve(), 1.0),
     "residue 1.0 has 3 lattice points below 1; need >= 12"),
])
def test_fixpoint_input_checks(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message
