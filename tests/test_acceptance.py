"""Acceptance gate: eleven end-to-end criteria, one verdict line each.

Run with output visible to see the per-criterion lines:

    pytest tests/test_acceptance.py -v -s

Criteria with a runtime pin time their own core computation; the Monte
Carlo criteria pin seeds so the printed statistics are reproducible.
"""

import math
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from branchfix import branching
from branchfix.branching import (
    biggins_check,
    increment_distribution,
    renewal_measure_check,
    replicate_traces,
    sample_W_limit,
)
from branchfix.cascade import (
    CascadeParams,
    SeedFunction,
    a_sequence,
    curve_step_residuals,
    escape_check,
    explicit_solution,
    extend_from_seed,
    seed_defect,
    step_identity_residual,
)
from branchfix.curves import LaplaceCurve, LatticeSpec, SurvivalCurve, dyadic_grid, log_grid
from branchfix.fixpoint import (
    build_stable_mixture,
    build_weibull_mixture,
    fixed_point_residual,
    mixture_residual_report,
    regularity_diagnostic,
)
from branchfix.weights import BernoulliCascade, Deterministic, characteristic_exponent, extinction_probability

LN3 = math.log(3.0)
LN94 = math.log(9.0 / 4.0)
REPO_ROOT = Path(__file__).resolve().parent.parent


def _verdict(num: int, label: str, ok: bool, detail: str) -> None:
    print(f"[criterion {num:02d}] {label}: {'PASS' if ok else 'FAIL'} — {detail}",
          flush=True)
    assert ok, f"criterion {num} ({label}): {detail}"


def test_criterion_01_characteristic_exponents():
    t0 = time.perf_counter()
    r_sub = characteristic_exponent(BernoulliCascade(2, 0.75))
    r_deep = characteristic_exponent(BernoulliCascade(2, 0.9))
    r_crit = characteristic_exponent(BernoulliCascade(2, 0.5))
    elapsed = time.perf_counter() - t0
    err1 = abs(r_sub.alpha - LN3)
    err2 = abs(r_deep.alpha - LN94)
    ok = err1 <= 1e-10 and err2 <= 1e-10 and r_crit.alpha is None and elapsed < 1.0
    _verdict(1, "characteristic exponents", ok,
             f"|alpha-ln3|={err1:.2e}, |alpha-ln(9/4)|={err2:.2e}, "
             f"(2,1/2) -> none, {elapsed:.2f}s")


def test_criterion_02_supercritical_exactness():
    t0 = time.perf_counter()
    params = CascadeParams(2, 0.25)
    a = a_sequence(params, 0)[0]
    q = extinction_probability([1 / 16, 6 / 16, 9 / 16])  # Binomial(2, 3/4)
    sol = explicit_solution(params, scale=1.0, depth=30, below=1)
    rep = step_identity_residual(sol)
    elapsed = time.perf_counter() - t0
    err_a = abs(a - 1.0 / 9.0)
    err_gw = abs(a - q)
    ok = (err_a <= 1e-12 and err_gw <= 1e-12 and rep.exact
          and rep.max_residual == 0.0 and elapsed < 1.0)
    _verdict(2, "supercritical exactness", ok,
             f"|a0-1/9|={err_a:.1e}, |a0-extinction|={err_gw:.1e}, "
             f"step residual={rep.max_residual!r} over 32 cells, {elapsed:.2f}s")


@pytest.fixture(scope="module")
def cascade_run():
    """Criteria 03 and 07 share one single-threaded run of cascade(2, 3/4)
    at depth 12, 1e5 replicates, seed 42: ``sample_W_limit``'s own
    ``replicate_traces`` call, timed.  Returns ``(traces, seconds, phi)``."""
    runs = []

    def timed(*args):
        t0 = time.perf_counter()
        traces = replicate_traces(*args)
        runs.append((traces, time.perf_counter() - t0))
        return traces

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(branching, "replicate_traces", timed)
        phi = sample_W_limit(BernoulliCascade(2, 0.75), LN3, depth=12,
                             replicates=100_000, seed=42, threads=1)
    [(traces, seconds)] = runs
    return traces, seconds, phi


def test_criterion_03_martingale_mean(cascade_run):
    traces, seconds, _ = cascade_run
    t0 = time.perf_counter()
    means = traces.W.mean(axis=0)
    ses = traces.W.std(axis=0, ddof=1) / math.sqrt(traces.W.shape[0])
    elapsed = seconds + time.perf_counter() - t0
    # W_0 = 1 identically: zero variance, mean must be exactly 1
    in_band = [
        abs(m - 1.0) <= 3.0 * s if s > 0.0 else m == 1.0
        for m, s in zip(means, ses)
    ]
    zmax = max(
        abs(m - 1.0) / s for m, s in zip(means, ses) if s > 0.0
    )
    ok = all(in_band) and elapsed < 60.0
    _verdict(3, "martingale mean", ok,
             f"max|z| over n<=12 = {zmax:.3f} (3 SE band), 1e5 replicates, "
             f"{elapsed:.1f}s single-threaded")


def test_criterion_04_increment_distribution():
    t0 = time.perf_counter()
    model = BernoulliCascade(2, 0.75)
    inc = increment_distribution(model, LN3)
    big = biggins_check(model, LN3)
    elapsed = time.perf_counter() - t0
    exact_atoms = (
        inc.locations.tolist() == [0.0, 1.0]
        and inc.masses.tolist() == [0.5, 0.5]
        and inc.drift == 0.5
    )
    ok = (exact_atoms and big.verdict == "holds" and math.isfinite(big.integral)
          and float(np.max(big.w1_values)) <= 2.0 and elapsed < 1.0)
    _verdict(4, "increment distribution", ok,
             f"atoms {{(0, 1/2), (1, 1/2)}} exact, drift=1/2, "
             f"verdict={big.verdict!r}, integral={big.integral:.4g}, "
             f"max W_1={float(np.max(big.w1_values)):.3g}, {elapsed:.2f}s")


def test_criterion_05_renewal_identity():
    rep = renewal_measure_check(BernoulliCascade(2, 0.75), LN3, (0.0, 3.0),
                                depth=12, replicates=10_000, seed=42)
    ok = abs(rep.z_score) <= 3.0
    _verdict(5, "renewal identity", ok,
             f"occupation of [0,3]: empirical {rep.empirical_mean:.4f} vs exact "
             f"{rep.exact:.4f}, z={rep.z_score:+.3f} (1e4 replicates)")


def test_criterion_06_fixed_point_closure():
    grid = dyadic_grid(points=512, per_octave=4)
    vals = np.exp(-grid)
    model = Deterministic(0.5, 0.5)
    rmin = fixed_point_residual(SurvivalCurve(grid=grid, values=vals), model)
    rsum = fixed_point_residual(LaplaceCurve(grid=grid, values=vals), model)
    ok = rmin.sup_norm <= 1e-12 and rsum.sup_norm <= 1e-12
    _verdict(6, "fixed-point closure", ok,
             f"exp(-t) on 512 points: min residual {rmin.sup_norm:.2e}, "
             f"sum residual {rsum.sup_norm:.2e}")


def test_criterion_07_weibull_mixture(cascade_run):
    model = BernoulliCascade(2, 0.75)
    phi = cascade_run[2]
    points = np.exp(np.arange(-10, 11, dtype=np.float64))  # 21 lattice points
    rep = mixture_residual_report(phi, 1.0, LN3, model, points)
    curve = build_weibull_mixture(
        phi, 1.0, LN3, LatticeSpec(r=math.e, residues=(1.0,), n_lo=-25, n_hi=15)
    )
    reg = regularity_diagnostic(curve, LN3)
    limits_ok = all(abs(v - 1.0) <= 0.1 for v in reg.per_residue.values())
    ok = (len(points) >= 20 and rep.max_abs_z <= 3.0 and not phi.warnings
          and reg.classification == "elementary-candidate" and limits_ok)
    _verdict(7, "weibull-mixture verification", ok,
             f"min residual max|z|={rep.max_abs_z:.3f} at {len(points)} lattice "
             f"points (1e5 samples, depth 12); regularity={reg.classification!r}, "
             f"per-residue limits {sorted(reg.per_residue.values())}")


def test_criterion_08_stable_mixture():
    model = BernoulliCascade(2, 0.9)
    phi = sample_W_limit(model, LN94, depth=12, replicates=20_000, seed=7)
    points = np.geomspace(1e-2, 1e2, 20)
    rep = mixture_residual_report(phi, 1.0, LN94, model, points)
    curve = build_stable_mixture(phi, 1.0, LN94, log_grid(1e-2, 1e2, 64))
    rejected = False
    try:
        build_stable_mixture(phi, 1.0, 1.2, log_grid(1e-2, 1e2, 64))
    except ValueError:
        rejected = True
    ok = (rep.max_abs_z <= 3.0 and rejected
          and curve.convexity_defect <= 1e-9 and not phi.warnings)
    _verdict(8, "stable-mixture verification", ok,
             f"sum residual max|z|={rep.max_abs_z:.3f} on {len(points)} points "
             f"(alpha=ln(9/4)); alpha=1.2 rejected={rejected}")


def test_criterion_09_seeded_extension():
    params = CascadeParams(2, 0.5)
    seed = SeedFunction(np.array([math.e]), np.array([0.3]))
    curve = extend_from_seed(params, seed, n_lo=-20, n_hi=20)
    rep = curve_step_residuals(params, curve)
    bad = SeedFunction(np.array([1.2, math.e]), np.array([0.9, 0.01]))
    rejected = False
    try:
        extend_from_seed(params, bad)
    except ValueError:
        rejected = True
    ok = rep.max_residual <= 1e-10 and seed_defect(params, bad) > 0.0 and rejected
    _verdict(9, "seeded extension", ok,
             f"constant 0.3 seed, cells n in [-20,20]: max step residual "
             f"{rep.max_residual:.2e} (tol 1e-10); violating seed rejected={rejected}")


def test_criterion_10_escape_mechanism():
    params = CascadeParams(2, 0.25)
    seq = a_sequence(params, 5)
    mid = escape_check(params, float((seq[0] + seq[1]) / 2.0), tol_one=1e-10)
    from_a5 = escape_check(params, float(seq[5]), tol_one=1e-10)
    ok = (mid.exceeded and mid.iterations <= 2
          and from_a5.reached_one and not from_a5.exceeded
          and from_a5.iterations == 6)
    _verdict(10, "escape mechanism", ok,
             f"(a0+a1)/2 escapes >1 in {mid.iterations} iterations; "
             f"a5 reaches 1 in {from_a5.iterations} without exceeding")


def test_criterion_11_property_suites_one_command():
    cmd = [sys.executable, "-m", "pytest", "tests/test_properties.py", "-q"]
    proc = subprocess.run(cmd, cwd=REPO_ROOT, capture_output=True, text=True)
    tail = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else proc.stderr[:120]
    ok = proc.returncode == 0
    _verdict(11, "property suites (one command)", ok,
             f"`pytest tests/test_properties.py -q` -> {tail}")
