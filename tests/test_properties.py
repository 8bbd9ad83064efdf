"""Cross-module property suites, runnable as one command:

    pytest tests/test_properties.py

Covers the fixed-point structure of the scalar generating map on dense
parameter grids, midpoint convexity of the weight-moment function, operator
monotonicity and scaling equivariance on randomized inputs (100 cases each),
the tree-level product identities, and byte-identical artifacts across
worker-thread counts.
"""

import json
import math

import numpy as np
import pytest

from branchfix.branching import sample_W_limit, simulate_tree
from branchfix.cascade import CascadeParams, a_sequence, classify, explicit_solution, g_eval
from branchfix.cli import main
from branchfix.curves import (
    LaplaceCurve,
    LatticeSpec,
    SurvivalCurve,
    dyadic_grid,
    log_grid,
)
from branchfix.fixpoint import (
    apply_operator,
    build_weibull_mixture,
    disintegration_check,
    psi_transform,
)
from branchfix.weights import BernoulliCascade, Deterministic, FiniteAtoms, moment_m

LN3 = math.log(3.0)


def _g_many(params: CascadeParams, us: np.ndarray) -> np.ndarray:
    return np.array([g_eval(params, float(u)) for u in us])


def _theta_grid(n: int):
    """Regime-spanning theta values including the exact watershed 1 - 1/N."""
    w = 1.0 - 1.0 / n
    return sorted({0.02, 0.5 * w, w - 0.01, w, min(0.999, w + 0.01), 0.9, 0.99})


# ---------------------------------------------------------------------------
# generating-map suite on (N, theta) x u grids
# ---------------------------------------------------------------------------

_INTERIOR = np.linspace(1e-6, 1.0 - 1e-6, 2001)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 7])
def test_g_fixed_points_only_at_endpoints(n):
    # 0 and 1 are fixed; the dense interior grid stays strictly above the
    # identity, so no third fixed point can hide between grid points of a
    # continuous map that exceeds u by > 1e-10 everywhere sampled.
    for theta in _theta_grid(n):
        p = CascadeParams(n, theta)
        assert g_eval(p, 0.0) == 0.0
        assert abs(g_eval(p, 1.0) - 1.0) <= 1e-12
        gap = _g_many(p, _INTERIOR) - _INTERIOR
        assert np.min(np.abs(gap)) > 1e-10


@pytest.mark.parametrize("n", [2, 3, 4, 5, 7])
def test_g_dominates_identity_on_open_interval(n):
    for theta in _theta_grid(n):
        p = CascadeParams(n, theta)
        assert np.min(_g_many(p, _INTERIOR) - _INTERIOR) > 1e-10


@pytest.mark.parametrize("n", [2, 3, 4, 5, 7])
def test_g_strictly_increasing_without_interior_max(n):
    # at and above the watershed theta = 1 - 1/N the map has no interior
    # critical point; increments must be strictly positive even at the
    # watershed itself, where the slope at 1 degenerates to zero.
    for theta in _theta_grid(n):
        p = CascadeParams(n, theta)
        if classify(p) == "supercritical":
            continue
        assert np.all(np.diff(_g_many(p, _INTERIOR)) > 0.0)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 7])
def test_g_unit_crossing_structure_below_watershed(n):
    # supercritical regime: a single crossing of height 1 at a_0, with the
    # map increasing up to it and staying above 1 afterwards (approaching 1
    # again only at the right endpoint).
    for theta in _theta_grid(n):
        p = CascadeParams(n, theta)
        if classify(p) != "supercritical":
            continue
        a = a_sequence(p, 0)[0]
        assert 0.0 < a < 1.0
        assert abs(g_eval(p, a) - 1.0) <= 1e-10
        rising = _g_many(p, np.linspace(0.0, a, 801))
        assert np.all(np.diff(rising) > 0.0)
        assert np.all(rising[:-1] < 1.0)
        above = _g_many(p, np.linspace(a + 1e-6, 1.0 - 1e-4, 1001))
        assert np.min(above - 1.0) > 1e-10


# ---------------------------------------------------------------------------
# moment-function convexity
# ---------------------------------------------------------------------------

_MOMENT_MODELS = [
    BernoulliCascade(2, 0.75),
    BernoulliCascade(2, 0.9),
    BernoulliCascade(3, 0.4),
    Deterministic(0.5, 0.5),
    Deterministic(0.3, 1.7, 0.9),
    FiniteAtoms([(0.25, (0.2, 1.5)), (0.5, (0.8,)), (0.25, (1.0, 0.4, 0.1))]),
    FiniteAtoms([(0.5, (0.0, 0.7)), (0.5, (1.2,))]),
]


@pytest.mark.parametrize("model", _MOMENT_MODELS, ids=lambda m: type(m).__name__)
def test_moment_function_midpoint_convexity(model):
    # every grid triple with an on-grid midpoint: m(mid) <= chord + 1e-12
    betas = np.linspace(0.0, 4.0, 41)
    vals = np.array([moment_m(model, float(b)) for b in betas])
    assert np.all(np.isfinite(vals)) and np.all(vals > 0.0)
    for i in range(len(betas)):
        for j in range(i + 2, len(betas), 2):
            mid = (i + j) // 2
            assert vals[mid] <= 0.5 * (vals[i] + vals[j]) + 1e-12


# ---------------------------------------------------------------------------
# operator monotonicity, 100 randomized cases
# ---------------------------------------------------------------------------


def _random_model(rng, dyadic_per_octave=None):
    """Random weight model; with ``dyadic_per_octave`` weights are grid-ratio
    powers so every operator lookup is interpolation-free."""
    kind = int(rng.integers(0, 3)) if dyadic_per_octave is None else int(rng.integers(0, 2))

    def draw_weights(k):
        if dyadic_per_octave is None:
            return tuple(float(w) for w in rng.uniform(0.1, 2.0, k))
        exps = rng.integers(-8, 9, size=k)
        return tuple(2.0 ** (int(e) / dyadic_per_octave) for e in exps)

    if kind == 0:
        return Deterministic(draw_weights(int(rng.integers(1, 4))))
    if kind == 1:
        raw = rng.uniform(0.5, 1.5, 2)
        p0 = float(raw[0] / raw.sum())
        return FiniteAtoms([
            (p0, draw_weights(int(rng.integers(1, 3)))),
            (1.0 - p0, draw_weights(int(rng.integers(1, 3)))),
        ])
    return BernoulliCascade(int(rng.integers(2, 5)), float(rng.uniform(0.05, 0.95)))


def _laplace_pair(rng, grid):
    """Ordered pair of completely monotone mixtures: low = high * extra factor."""

    def mixture(k):
        lam = rng.uniform(0.05, 3.0, k)
        w = rng.uniform(0.2, 1.0, k)
        w /= w.sum()
        w[-1] = 1.0 - w[:-1].sum()
        return sum(wi * np.exp(-li * grid) for wi, li in zip(w, lam))

    high = mixture(3)
    low = high * mixture(2)
    return low, high


def test_min_operator_monotone_randomized():
    rng = np.random.default_rng(42)
    grid = log_grid(1e-4, 1e4, 96)
    for _ in range(50):
        model = _random_model(rng)
        upper = np.cumprod(rng.uniform(0.9, 1.0, len(grid)))
        lower = upper * np.cumprod(rng.uniform(0.95, 1.0, len(grid)))
        hi = apply_operator(SurvivalCurve(grid=grid, values=upper), model)
        lo = apply_operator(SurvivalCurve(grid=grid, values=lower), model)
        assert np.all(lo.curve.values <= hi.curve.values + 1e-12)
        assert np.max(hi.curve.values - lo.curve.values) > 0.0  # not vacuous


def test_sum_operator_monotone_randomized():
    # The transform images are rebuilt as Laplace curves, whose constructor
    # re-checks discrete convexity.  Off-grid lookups would inject loglinear
    # interpolation kinks of order 1e-5 into the image and trip that gate, so
    # these cases pin the weights to powers of the grid ratio: every lookup
    # is then a table read and the image is convex to rounding (~1e-16).
    rng = np.random.default_rng(42)
    grid = dyadic_grid(points=512, per_octave=4)
    for _ in range(50):
        model = _random_model(rng, dyadic_per_octave=4.0)
        low, high = _laplace_pair(rng, grid)
        lo = apply_operator(LaplaceCurve(grid=grid, values=low), model)
        hi = apply_operator(LaplaceCurve(grid=grid, values=high), model)
        assert np.all(lo.curve.values <= hi.curve.values + 1e-12)
        assert np.max(hi.curve.values - lo.curve.values) > 0.0


# ---------------------------------------------------------------------------
# scaling equivariance, 100 randomized cases
# ---------------------------------------------------------------------------


def test_scaling_equivariance_randomized_interp():
    # O(F̄(c .))(t) and (O F̄)(c t) expand to the same expectation; on a
    # geometric grid the rescaled curve is represented exactly by shifting
    # the grid, so the two images must agree wherever neither side clamps.
    rng = np.random.default_rng(42)
    grid = log_grid(1e-5, 1e5, 160)
    for _ in range(80):
        values = np.cumprod(rng.uniform(0.9, 1.0, len(grid)))
        model = _random_model(rng)
        c = float(rng.uniform(0.1, 10.0))
        base = apply_operator(SurvivalCurve(grid=grid, values=values), model)
        scaled = apply_operator(
            SurvivalCurve(grid=grid / c, values=values.copy()), model
        )
        clean = ~(base.point_clamped | scaled.point_clamped)
        assert int(clean.sum()) >= 100
        np.testing.assert_allclose(
            scaled.curve.values[clean], base.curve.values[clean], atol=1e-10
        )


def test_scaling_equivariance_randomized_lattice():
    # lattice-step curves shift by whole powers of the ratio: table reads on
    # both sides hit identical cells, so agreement is exact.
    rng = np.random.default_rng(42)
    spec = LatticeSpec(math.e, (1.0,), -12, 12)
    grid = spec.points()
    for _ in range(20):
        values = np.cumprod(rng.uniform(0.85, 1.0, len(grid)))
        model = BernoulliCascade(int(rng.integers(2, 5)), float(rng.uniform(0.05, 0.95)))
        k = int(rng.integers(1, 4))
        base = apply_operator(
            SurvivalCurve(grid=grid, values=values, lattice=spec),
            model,
        )
        scaled = apply_operator(
            SurvivalCurve(grid=grid / math.e ** k, values=values.copy(),
                          lattice=LatticeSpec(math.e, (1.0,), -12 - k, 12 - k)),
            model,
        )
        clean = ~(base.point_clamped | scaled.point_clamped)
        assert int(clean.sum()) >= len(grid) - 4
        np.testing.assert_allclose(
            scaled.curve.values[clean], base.curve.values[clean], atol=1e-12
        )


# ---------------------------------------------------------------------------
# tree-level product identities
# ---------------------------------------------------------------------------


def test_split_product_identity_interp_curve():
    g = log_grid(1e-3, 1e3, 256)
    curve = SurvivalCurve(grid=g, values=np.exp(-g))
    tree = simulate_tree(Deterministic(0.5, 0.5), depth=5, seed=1)
    for t, j, k in [(0.3, 1, 4), (0.7, 2, 3), (1.9, 3, 2)]:
        assert disintegration_check(curve, tree, t, j=j, k=k).abs_diff <= 1e-10


def test_split_product_identity_lattice_curve():
    sol = explicit_solution(CascadeParams(2, 0.25), scale=1.0, depth=30, below=5)
    tree = simulate_tree(BernoulliCascade(2, 0.25), depth=3, seed=3)
    for t, j, k in [(math.e, 1, 2), (math.e ** 2, 2, 1)]:
        assert disintegration_check(sol.curve, tree, t, j=j, k=k).abs_diff <= 1e-10


def test_generation_product_identity_interp_curve():
    g = log_grid(1e-3, 1e3, 256)
    curve = SurvivalCurve(grid=g, values=np.exp(-g))
    tree = simulate_tree(Deterministic(0.5, 0.5), depth=5, seed=1)
    for s, n in [(0.3, 2), (1.0, 3)]:
        assert psi_transform(curve, tree, s, 1.0, n=n).abs_diff <= 1e-10


def test_product_identities_on_sampled_mixture_curve():
    phi = sample_W_limit(BernoulliCascade(2, 0.75), LN3, depth=8,
                         replicates=4000, seed=5)
    mix = build_weibull_mixture(
        phi, 1.0, LN3, LatticeSpec(r=math.e, residues=(1.0,), n_lo=-25, n_hi=15)
    )
    tree = simulate_tree(BernoulliCascade(2, 0.75), depth=6, seed=11)
    assert disintegration_check(mix, tree, math.e, j=2, k=3).abs_diff <= 1e-10
    # the transform takes its argument on the log scale; integers keep the
    # evaluations on the curve's unit-log lattice
    for t_log, n in [(1.0, 3), (2.0, 2)]:
        assert psi_transform(mix, tree, t_log, LN3, n=n).abs_diff <= 1e-10


# ---------------------------------------------------------------------------
# thread-count reproducibility
# ---------------------------------------------------------------------------


def test_artifacts_identical_across_thread_counts(tmp_path):
    doc = {
        "model": {"kind": "cascade", "N": 2, "theta": 0.75},
        "alpha": "auto",
        "mc": {"depth": 6, "replicates": 300, "seed": 3},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["--config", str(path), "--command", "wbp-simulate",
                 "--out", str(tmp_path / "t1"), "--threads", "1"]) == 0
    assert main(["--config", str(path), "--command", "wbp-simulate",
                 "--out", str(tmp_path / "t8"), "--threads", "8"]) == 0
    assert (tmp_path / "t1-traces.csv").read_bytes() == \
        (tmp_path / "t8-traces.csv").read_bytes()
    rep1 = (tmp_path / "t1-report.txt").read_text(encoding="utf-8")
    rep8 = (tmp_path / "t8-report.txt").read_text(encoding="utf-8")
    assert rep1.replace("t1", "t8") == rep8
