"""The cascade as N i.i.d. copies of a two-atom law, against its 2^N patterns.

Every analysis routine reads a Bernoulli cascade as ``copies = N`` draws of
``{exp(-1): theta, 1: 1 - theta}``.  The same law written out as a
:class:`FiniteAtoms` of all ``2^N`` indicator patterns is the reference: the
two routes must agree to within the rounding of the longer sum.  Tolerances
are fixed from float64's epsilon and the size of the enumeration before
anything runs.
"""

import itertools
import math

import numpy as np
import pytest

from branchfix.branching import (
    EmpiricalLaplace,
    _w1_distribution,
    biggins_check,
    increment_distribution,
)
from branchfix.cascade import CascadeParams, explicit_solution
from branchfix.curves import LatticeSpec, SurvivalCurve
from branchfix.fixpoint import fixed_point_residual, mixture_residual_report
from branchfix.weights import (
    BernoulliCascade,
    FiniteAtoms,
    characteristic_exponent,
    check_assumptions,
    detect_lattice,
    moment_m,
)

EPS = float(np.finfo(np.float64).eps)
SIZES = (2, 3, 5, 8)
THETAS = (0.0, 0.3, 0.75, 1.0)
CASES = [(n, theta) for n in SIZES for theta in THETAS]


def enumerated_cascade(n: int, theta: float) -> FiniteAtoms:
    """The cascade's 2^N indicator patterns as explicit atoms."""
    e = math.exp(-1.0)
    atoms = []
    for bits in itertools.product((0, 1), repeat=n):
        k = sum(bits)
        p = theta**k * (1.0 - theta) ** (n - k)
        atoms.append((p, tuple(e if b else 1.0 for b in bits)))
    return FiniteAtoms(atoms)


def rounding(n: int) -> float:
    """Relative rounding bound of a sum over all 2^N patterns of N terms."""
    return n * 2**n * EPS


def _merged(vals, probs, tol):
    """Merge support points closer than ``tol`` (rounding splits equal sums)."""
    order = np.argsort(vals)
    out_v, out_p = [], []
    for v, p in zip(np.asarray(vals)[order], np.asarray(probs)[order]):
        if out_v and v - out_v[-1] <= tol:
            out_p[-1] += p
        else:
            out_v.append(v)
            out_p.append(p)
    return np.array(out_v), np.array(out_p)


def _lattice_curve(n_lo=-12, n_hi=12):
    spec = LatticeSpec(r=math.e, residues=(1.0, math.sqrt(math.e)), n_lo=n_lo, n_hi=n_hi)
    g = spec.points()
    return SurvivalCurve(
        grid=g, values=np.exp(-1.3 * g**0.8), mode="lattice-step",
        r=math.e, residues=np.array([1.0, math.sqrt(math.e)]), n_lo=n_lo,
    )


@pytest.mark.parametrize("n,theta", CASES)
def test_moment_and_exponent_match_enumeration(n, theta):
    cascade, ref = BernoulliCascade(n, theta), enumerated_cascade(n, theta)
    for beta in np.linspace(0.0, 6.0, 13):
        assert moment_m(cascade, beta) == pytest.approx(
            moment_m(ref, beta), rel=rounding(n), abs=0.0
        )
    got, want = characteristic_exponent(cascade), characteristic_exponent(ref)
    assert (got.alpha is None) == (want.alpha is None)
    if got.alpha is not None:
        # both bisections stop at width 1e-10 around the same root
        assert got.alpha == pytest.approx(want.alpha, abs=2e-10)


@pytest.mark.parametrize("n,theta", CASES)
def test_lattice_and_assumptions_match_enumeration(n, theta):
    cascade, ref = BernoulliCascade(n, theta), enumerated_cascade(n, theta)
    got, want = detect_lattice(cascade), detect_lattice(ref)
    assert got.kind == want.kind == "geometric"
    assert got.r == pytest.approx(want.r, rel=4 * EPS, abs=0.0)
    assert check_assumptions(cascade) == check_assumptions(ref)


@pytest.mark.parametrize("n,theta", CASES)
def test_increments_and_w1_law_match_enumeration(n, theta):
    cascade, ref = BernoulliCascade(n, theta), enumerated_cascade(n, theta)
    alpha = 0.7
    tol = rounding(n)
    got, want = increment_distribution(cascade, alpha), increment_distribution(ref, alpha)
    np.testing.assert_allclose(got.locations, want.locations, rtol=0.0, atol=4 * EPS)
    np.testing.assert_allclose(got.masses, want.masses, rtol=tol, atol=0.0)
    # W_1 = sum_i T_i^alpha <= n, so values carry absolute rounding n * tol
    vals, probs = _w1_distribution(cascade, alpha)
    ref_vals, ref_probs = _merged(*_w1_distribution(ref, alpha), n * tol)
    np.testing.assert_allclose(vals, ref_vals, rtol=0.0, atol=n * tol)
    np.testing.assert_allclose(probs, ref_probs, rtol=tol, atol=0.0)


@pytest.mark.parametrize("n", SIZES)
def test_biggins_matches_enumeration(n):
    theta = 1.0 - 0.5 / n   # subcritical: m has a root
    cascade, ref = BernoulliCascade(n, theta), enumerated_cascade(n, theta)
    alpha = characteristic_exponent(cascade).alpha
    got, want = biggins_check(cascade, alpha), biggins_check(ref, alpha)
    assert got.verdict == want.verdict == "holds"
    assert got.drift == pytest.approx(want.drift, rel=rounding(n), abs=0.0)
    # the integral sums a few ratios of such sums
    assert got.integral == pytest.approx(want.integral, rel=8 * rounding(n), abs=0.0)
    ref_vals, ref_probs = _merged(want.w1_values, want.w1_probs, n * rounding(n))
    np.testing.assert_allclose(got.w1_values, ref_vals, rtol=0.0, atol=n * rounding(n))
    np.testing.assert_allclose(got.w1_probs, ref_probs, rtol=rounding(n), atol=0.0)


@pytest.mark.parametrize("n,theta", CASES)
def test_operator_residual_matches_enumeration(n, theta):
    cascade, ref = BernoulliCascade(n, theta), enumerated_cascade(n, theta)
    curve = _lattice_curve()
    got = fixed_point_residual(curve, cascade)
    want = fixed_point_residual(curve, ref)
    # values in [0, 1]: 2^N products of N factors summed, against N powers
    np.testing.assert_allclose(got.residuals, want.residuals, rtol=0.0, atol=rounding(n))
    np.testing.assert_array_equal(got.point_clamped, want.point_clamped)


@pytest.mark.parametrize("n,theta", CASES)
def test_mixture_residual_matches_enumeration(n, theta):
    cascade, ref = BernoulliCascade(n, theta), enumerated_cascade(n, theta)
    rng = np.random.default_rng(5)
    phi = EmpiricalLaplace(0.8, 0, rng.exponential(size=400))
    pts = np.exp(np.arange(-4.0, 5.0))
    got = mixture_residual_report(phi, 1.0, 0.8, cascade, pts)
    want = mixture_residual_report(phi, 1.0, 0.8, ref, pts)
    # tails lie in [0, 1]; the influence function has three arguments
    np.testing.assert_allclose(got.residuals, want.residuals, rtol=0.0, atol=rounding(n))
    np.testing.assert_allclose(got.se, want.se, rtol=0.0, atol=3 * rounding(n))


def test_cascade_beyond_twenty_coordinates():
    # N = 24 has 2^24 patterns; none of these routines may enumerate them.
    n = 24
    assert detect_lattice(BernoulliCascade(n, 0.5)).r == math.e
    rep = check_assumptions(BernoulliCascade(n, 0.5))
    assert rep.a1 and rep.a2 and rep.a3 and rep.a4
    params = CascadeParams(n, 0.5)
    sol = explicit_solution(params, scale=1.0, depth=20, below=3)
    res = fixed_point_residual(sol.curve, params.model())
    assert res.sup_norm <= 1e-12
    sub = BernoulliCascade(n, 0.99)
    alpha = characteristic_exponent(sub).alpha
    big = biggins_check(sub, alpha)
    assert big.verdict == "holds"
    assert len(big.w1_values) == n + 1
    assert big.w1_probs.sum() == pytest.approx(1.0, abs=n * EPS)
