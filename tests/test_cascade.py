"""The one-parameter recursion family: regimes, thresholds, explicit and
extended solutions, escape, and modulation extraction."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf
from mpmath.libmp import (
    fone,
    from_float,
    from_man_exp,
    fzero,
    mpf_abs,
    mpf_add,
    mpf_div,
    mpf_le,
    mpf_lt,
    mpf_mul,
    mpf_mul_int,
    mpf_nthroot,
    mpf_pos,
    mpf_pow_int,
    mpf_shift,
    mpf_sqrt,
    mpf_sub,
)

from branchfix import cascade
from branchfix.branching import sample_W_limit
from branchfix.cascade import (
    CascadeParams,
    _G,
    _mp_preimage,
    _pair,
    _tuple,
    SeedFunction,
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
from branchfix.curves import LatticeSpec, PeriodicModulation, SurvivalCurve
from branchfix.fixpoint import build_weibull_mixture, fixed_point_residual
from branchfix.weights import BernoulliCascade, Deterministic, extinction_probability

LN3 = math.log(3.0)
SUPER = CascadeParams(2, 0.25)
CRIT = CascadeParams(2, 0.5)
SUB = CascadeParams(2, 0.75)


# ---------------------------------------------------------------------------
# g and the regime split
# ---------------------------------------------------------------------------


def test_g_fixed_points_and_hand_values():
    for params in (SUPER, CRIT, SUB, CascadeParams(5, 0.37)):
        assert g_eval(params, 0.0) == 0.0
        np.testing.assert_allclose(g_eval(params, 1.0), 1.0, rtol=1e-15)
    # 4 (sqrt(1/9) - (3/4)(1/9)) = 4 (1/3 - 1/12) = 1
    np.testing.assert_allclose(g_eval(SUPER, 1.0 / 9.0), 1.0, rtol=1e-14)
    # 2 (sqrt(1/4) - (1/2)(1/4)) = 3/4
    np.testing.assert_allclose(g_eval(CRIT, 0.25), 0.75, rtol=1e-15)


def test_g_mp_matches_float():
    for u in (1e-8, 0.1, 0.5, 0.999):
        np.testing.assert_allclose(
            float(g_eval_mp(SUPER, u)), g_eval(SUPER, u), rtol=1e-14
        )


def test_params_validation():
    with pytest.raises(ValueError):
        CascadeParams(1, 0.5)
    with pytest.raises(ValueError):
        CascadeParams(2, 0.0)  # open interval
    with pytest.raises(ValueError):
        CascadeParams(2, 1.0)


def test_classify_regimes():
    assert classify(SUB) == "subcritical"
    assert classify(CRIT) == "critical"
    assert classify(SUPER) == "supercritical"


def test_classify_watershed_is_exact_float_comparison():
    # 2/3 and 1 - 1/3 differ by one ulp in binary64, so (3, 2/3) lands a
    # hair on the supercritical side; the regime is decided by the floats
    # actually given, with no fuzzy band.
    assert (2.0 / 3.0) < (1.0 - 1.0 / 3.0)
    assert classify(CascadeParams(3, 2.0 / 3.0)) == "supercritical"
    assert classify(CascadeParams(4, 0.75)) == "critical"


def test_u_star_closed_form():
    # interior maximum at (N(1-theta))^{-N/(N-1)}; for (2, 1/4) that is
    # (3/2)^{-2} = 4/9 with g(4/9) = 4(2/3 - 1/3) = 4/3 > 1
    np.testing.assert_allclose(u_star(SUPER), 4.0 / 9.0, rtol=1e-15)
    np.testing.assert_allclose(g_eval(SUPER, u_star(SUPER)), 4.0 / 3.0, rtol=1e-15)


def test_u_star_follows_classify_near_the_watershed():
    # N (1 - theta) <= 1 and theta >= 1 - 1/N disagree within a few ulps of
    # the watershed, e.g. (9, 1 - 1/9) is critical; u_star reads classify
    for n in range(2, 200):
        theta = 1.0 - 1.0 / n
        for _ in range(4):
            theta = np.nextafter(theta, 0.0)
        for _ in range(9):
            params = CascadeParams(n, float(theta))
            if classify(params) == "supercritical":
                assert 0.0 < u_star(params) <= 1.0, params
            else:
                assert u_star(params) == 1.0, params
            theta = np.nextafter(theta, 1.0)


# ---------------------------------------------------------------------------
# inversion and the threshold sequence
# ---------------------------------------------------------------------------


def test_preimage_of_zero_is_zero():
    assert _mp_preimage(_G(SUPER), 0.0, u_star(SUPER)) == (0, True)


def test_preimage_deep_targets_to_relative_precision():
    # x sits near (theta y)^N, far below the float resolution of y's scale.
    params = CascadeParams(8, 0.5)
    for y in (1e-20, 1e-5):
        x = float(_mp_preimage(_G(params), y, u_star(params))[0])
        np.testing.assert_allclose(x, (0.5 * y) ** 8, rtol=1e-6)
        np.testing.assert_allclose(g_eval(params, x), y, rtol=1e-14)


def test_a_sequence_oracles():
    seq = a_sequence(SUPER, 1)
    # g(a) = 1 on the increasing branch: 3a - 4 sqrt(a) + 1 = 0, sqrt(a) = 1/3
    np.testing.assert_allclose(seq[0], 1.0 / 9.0, atol=1e-12)
    # g(a) = 1/9: the smaller root of 3x^2 - 4x + 1/9 = 0 in x = sqrt(a),
    # ((1 - sqrt(11/12)) / 1.5)^2
    np.testing.assert_allclose(seq[1], 0.0008055338462179763, rtol=1e-9)
    long = a_sequence(SUPER, 12)
    nz = long[long > 0.0]
    assert np.all(np.diff(nz) < 0.0)
    # a_{k+1} ~ (a_k/4)^2 puts a_8 near 1e-549, past the bottom of float64
    assert len(nz) == 8
    assert np.all(long[8:] == 0.0)


def test_a0_equals_skeleton_extinction():
    # g(a) = 1 rewrites to a = (theta + (1-theta) a)^N, the fixed-point
    # equation of the Binomial(N, 1-theta) generating function.
    pgf = [1 / 16, 6 / 16, 9 / 16]  # Binomial(2, 3/4) counts of unit weights
    np.testing.assert_allclose(
        a_sequence(SUPER, 0)[0], extinction_probability(pgf), atol=1e-12
    )


@pytest.mark.parametrize("n, theta, depth, cells", [(3, 0.4, 20, (2,)), (2, 0.3, 25, (6, 13, 25))],
                         ids=["3-0.4-20-2", "2-0.3-25-6-13-25"])
def test_a_sequence_checks_cells_without_exact_preimage(n, theta, depth, cells):
    # The cells with no exact preimage (no hit within 1500 ulps, by the
    # brute-force walk) are held to tol instead; tol = 0 fails at the first.
    params = CascadeParams(n, theta)
    chain = exact_threshold_chain(params, depth)
    assert tuple(k for k, ok in enumerate(chain.flags) if not ok) == cells
    for k in cells:
        assert _walk(params, chain.values[k - 1], chain.values[k]) == ([chain.values[k]._mpf_], False)
    assert len(a_sequence(params, depth)) == depth + 1
    with pytest.raises(RuntimeError, match=f"threshold a_{cells[0]} missed"):
        a_sequence(params, depth, tol=0.0)


def test_threshold_chain_is_the_solution_chain():
    chain = exact_threshold_chain(SUPER, 12)
    sol = explicit_solution(SUPER, depth=12)
    assert chain.values == sol.a_exact and chain.flags == sol.exact_flags
    assert chain.g_evaluations == sol.g_evaluations > 0


def test_a_sequence_requires_supercritical():
    with pytest.raises(ValueError):
        a_sequence(CRIT, 3)


def test_exact_threshold_chain_flags():
    chain, flags, _ = exact_threshold_chain(SUPER, 8)
    assert len(chain) == 9
    assert all(isinstance(f, bool) for f in flags)
    # the chain decreases strictly and projects to the float sequence
    floats = [float(x) for x in chain]
    assert all(b < a for a, b in zip(floats, floats[1:]) if b > 0.0)
    seq = a_sequence(SUPER, 8)
    np.testing.assert_allclose(floats[:5], seq[:5], rtol=1e-12)


# ---------------------------------------------------------------------------
# the preimage search: transition floats, checked by brute force
# ---------------------------------------------------------------------------

# ``G`` below is the 53-bit g built from the mpf operators, each operation
# correctly rounded, independently of the library's pair kernel.  A
# preimage ``x`` of ``y`` must be a transition float, ``G(pred x) < y <=
# G(x)``, flagged exact iff ``G(x) == y``.


def _reference_root(u, n):
    """The correctly rounded 53-bit N-th root of a nonnegative tuple ``u``.

    For N > 2, mpmath's root at ``55 N + 64`` bits rounded to 53.  A root of
    a 53-bit float is no 53-bit rounding midpoint, and lies at least
    ``2^(-54 N) / N`` (relative) from every one: ``mid^N`` has an odd
    numerator of more than 53 bits, so it differs from ``u`` by at least the
    last place of ``mid^N``.  The wide root's error is far below that, so
    the second rounding goes the way the first would.
    """
    if n == 2:
        return mpf_sqrt(u, 53, "n")
    return mpf_pos(mpf_nthroot(u, n, 55 * n + 64, "n"), 53, "n")


def _reference_G(params, u):
    """``G(u)`` for a nonnegative tuple ``u``: :func:`_reference_root`, then
    the mpf operators at 53 bits."""
    theta = from_float(params.theta)
    one_minus = mpf_sub(fone, theta, 53, "n")
    diff = mpf_sub(_reference_root(u, params.N), mpf_mul(one_minus, u, 53, "n"), 53, "n")
    return mpf_div(diff, theta, 53, "n")


def _reference_g(params, u):
    """:func:`_reference_G` on ``mpf(u)`` (rounded at the working precision)."""
    return mp.make_mpf(_reference_G(params, mpf(u)._mpf_))


def _next_float(t, up):
    """The 53-bit float next to the positive tuple ``t``, above or below."""
    _, _, exp, bc = t
    half = from_man_exp(1 if up else -1, exp + bc - 54)
    return mpf_add(t, half, 53, "u" if up else "d")


def _assert_transition(params, y, x, exact):
    with mp.workprec(53):
        y, x = mpf(y), mpf(x)
        gx = _reference_g(params, x)
        assert _reference_g(params, mp.make_mpf(_next_float(x._mpf_, False))) < y <= gx
        assert exact == (gx == y)


def _walk(params, y, x, radius=1500):
    """Brute force over the floats within ``radius`` ulps of ``x``.

    Returns the transition floats among them (``G(c) >= y`` and ``c`` the
    lowest float of the window or ``G(pred c) < y``) as tuples, and whether
    any float has ``G == y``.
    """
    with mp.workprec(53):
        y = mpf(y)
        c = mpf(x)._mpf_
        for _ in range(radius):
            c = _next_float(c, False)
        transitions, hit, below = [], False, True
        for _ in range(2 * radius + 1):
            v = _reference_g(params, mp.make_mpf(c))
            if below and v >= y:
                transitions.append(c)
            below, hit = v < y, hit or v == y
            c = _next_float(c, True)
    return transitions, hit


def _chain_cells(params, n):
    """``(y, x, exact)`` of each cell of the threshold chain ``a_0 .. a_n``."""
    chain = exact_threshold_chain(params, n)
    targets = [mpf(1)] + chain.values[:-1]
    return list(zip(targets, chain.values, chain.flags))


# (N, theta, chain length): supercritical, from near the watershed down.
# The cells k >= 1 with no bit-exact preimage, by the brute-force walk.
NO_HIT_CELLS = {(2, 0.45): [1, 4, 7], (3, 0.2): [5], (3, 0.4): [2], (8, 0.85): [4]}
REFERENCE_CHAINS = [
    (2, 0.25, 12), (2, 0.45, 8), (3, 0.2, 8), (3, 0.4, 16),
    (4, 0.5, 10), (4, 0.7, 8), (8, 0.5, 12), (8, 0.85, 6), (21, 0.5, 7),
]
GOLDEN_CHAINS = [(8, 0.5, 31), (3, 0.4, 21)]


# N = 1100: each cell has the exponent residue 1099, where a float 2^k overflows
@pytest.mark.parametrize("n,theta,length", REFERENCE_CHAINS + GOLDEN_CHAINS + [(1100, 0.5, 4)])
def test_chain_cells_are_transition_floats(n, theta, length):
    params = CascadeParams(n, theta)
    for y, x, exact in _chain_cells(params, length - 1):
        _assert_transition(params, y, x, exact)


@pytest.mark.parametrize("n,theta,length", REFERENCE_CHAINS)
def test_preimage_matches_full_scan_reference(n, theta, length):
    # From a_1 on, the window holds one transition, the chain value: the
    # least float in it whose image reaches the target, so the least exact
    # hit, or the float just above the root when nothing hits.  At a_0
    # (y = 1) g flattens toward its peak and G is not monotone; there only
    # the transition property holds (a hit can lie below a_0).
    params = CascadeParams(n, theta)
    no_hit = []
    for k, (y, x, exact) in enumerate(_chain_cells(params, length - 1)):
        if k == 0:
            continue
        assert _walk(params, y, x) == ([x._mpf_], exact), k
        if not exact:
            no_hit.append(k)
    assert no_hit == NO_HIT_CELLS.get((n, theta), [])


def test_float_index_steps_one_ulp():
    # Across binade boundaries too: 2^k, and the floats either side of it.
    for t in (fone, from_man_exp(1, -70), from_man_exp(2**53 - 1, -123),
              from_man_exp(2**52 + 1, -122), from_man_exp(2**52 + 12345, -60)):
        i = cascade._index(t)
        assert cascade._float_at(i) == t
        assert cascade._float_at(i - 1) == _next_float(t, False)
        assert cascade._float_at(i + 1) == _next_float(t, True)


def test_preimage_sweep_gives_transition_floats():
    rng = random.Random(20090917)
    # preimages of random targets, shallow and deep, in every regime
    for _ in range(12):
        n = rng.randint(2, 12)
        params = CascadeParams(n, rng.uniform(0.05, 0.95))
        for y in (rng.random(), 10.0 ** rng.uniform(-30.0, -3.0)):
            x, exact = _mp_preimage(_G(params), y, u_star(params))
            _assert_transition(params, y, x, exact)
    # critical and subcritical extension chains from random seed values
    for _ in range(8):
        n = rng.randint(2, 12)
        watershed = 1.0 - 1.0 / n
        params = CascadeParams(n, watershed if rng.random() < 0.5
                               else rng.uniform(watershed, 0.99))
        y = mpf(rng.uniform(0.02, 0.98))
        for _ in range(5):
            x, exact = _mp_preimage(_G(params), y, y)
            _assert_transition(params, y, x, exact)
            y = x
    # roots at a power of two and one ulp either side, so the search crosses
    # a binade boundary
    for n, theta in ((2, 0.25), (5, 0.3), (8, 0.5)):
        params = CascadeParams(n, theta)
        for k in (3, 11, 36):
            for j in (-1, 0, 1):
                with mp.workprec(53):
                    y = _reference_g(params, mpf(2) ** -k + j * mpf(2) ** (-k - 54))
                x, exact = _mp_preimage(_G(params), y, u_star(params))
                _assert_transition(params, y, x, exact)


@pytest.mark.parametrize("factor", [1 + 2.0**-30, 1 - 2.0**-30])
def test_perturbed_newton_start_finds_the_same_float(monkeypatch, factor):
    # The Newton estimate only places the start: moved about 2^22 ulps off,
    # the gallop and bisection still end on the window's one transition.
    cells = [(params, y, x, exact) for n, theta, length in REFERENCE_CHAINS
             for params in [CascadeParams(n, theta)]
             for y, x, exact in _chain_cells(params, length - 1)[1:]]
    newton = cascade._newton_root
    scale = from_float(factor)
    monkeypatch.setattr(cascade, "_newton_root",
                        lambda g, y: mpf_mul(newton(g, y), scale, 80, "n"))
    for params, y, x, exact in cells:
        assert _mp_preimage(_G(params), y, y) == (x, exact)


def test_preimage_above_hi_returns_hi(monkeypatch):
    # The root of g(x) = 1/2 lies near 0.016, far above hi: the search stops
    # at hi, flagged inexact, whether it starts there (Newton's estimate,
    # clamped; one evaluation) or about 2^12 ulps below it.
    g = _G(SUPER)
    assert _mp_preimage(g, 0.5, 1e-6) == (mpf(1e-6), False)
    assert g.calls == 1
    below = from_float(1e-6 * (1 - 2.0**-40))
    monkeypatch.setattr(cascade, "_newton_root", lambda g, y: below)
    assert _mp_preimage(_G(SUPER), 0.5, 1e-6) == (mpf(1e-6), False)


def _assert_root_rounds_correctly(n, u):
    assert _tuple(*_G(CascadeParams(n, 0.5)).root(*_pair(u))) == _reference_root(u, n), (n, u)


def test_nthroot_within_one_ulp():
    # the kernel's root is the correctly rounded one, down to 2^-400; and at
    # N = 1100, at exponent residues k = 1099, 1024, 1023, 0 and 1050, either
    # side of where the float estimate splits 2^k so that it cannot overflow
    rng = random.Random(7)
    for _ in range(300):
        n = rng.randint(3, 40)
        _assert_root_rounds_correctly(
            n, from_man_exp(rng.getrandbits(53) | 1 << 52, rng.randint(-400, 0)))
    for exp in (-53, -128, -129, -1152, -1100 * 900 + 998):
        u = from_man_exp(rng.getrandbits(53) | 1 << 52, exp)
        _assert_root_rounds_correctly(1100, u)
        _assert_kernel_matches(CascadeParams(1100, 0.5), [u])


def test_nthroot_within_the_stop_rule_bound():
    # The stop rule of extend_from_seed takes the kernel's root to be
    # correctly rounded, within a relative 2^-53.  A chain's last computed
    # cell lies near 2^(-1075 N), so the arguments reach 2^(-1100 N).
    rng = random.Random(2040)
    for _ in range(3000):
        n = rng.randint(21, 40)
        _assert_root_rounds_correctly(
            n, from_man_exp(rng.getrandbits(53) | 1 << 52, rng.randint(-1100 * n, 0)))


def _reference_newton(g, y):
    """The 80-bit Newton start with every step taken."""
    prec, n = 80, g.n
    ty = mpf_mul(g.theta, y, prec, "n")
    v = ty
    for _ in range(64):
        cw = mpf_mul(g.one_minus, mpf_pow_int(v, n - 1, prec, "n"), prec, "n")
        slope = mpf_sub(fone, mpf_mul_int(cw, n, prec, "n"), prec, "n")
        if not mpf_lt(fzero, slope):
            break
        p = mpf_sub(mpf_sub(v, mpf_mul(cw, v, prec, "n"), prec, "n"), ty, prec, "n")
        step = mpf_div(p, slope, prec, "n")
        v = mpf_sub(v, step, prec, "n")
        if mpf_le(mpf_abs(step), mpf_shift(v, -70)):
            break
    return mpf_pow_int(v, n, prec, "n")


@pytest.mark.parametrize("n", [2, 3, 8, 12, 40])
def test_newton_start_skips_only_a_zero_step(n):
    # targets from 1 down to 2^-400, across the point where c (theta y)^N
    # falls under a quarter ulp of theta y and the first step is skipped
    rng = random.Random(n)
    for theta in (0.05, 0.5, 0.875):
        g = _G(CascadeParams(n, theta))
        for k in range(0, 400, 3):
            y = from_man_exp(rng.getrandbits(53) | 1 << 52, -53 - k)
            assert cascade._newton_root(g, y) == _reference_newton(g, y), (theta, k)


def test_chain_g_evaluations_repeat():
    params = CascadeParams(8, 0.5)
    one = explicit_solution(params, scale=1.0, depth=30)
    two = explicit_solution(params, scale=2.5, depth=30)
    assert all(one.exact_flags)
    assert one.g_evaluations == two.g_evaluations == 176
    # a Newton start within a few ulps, a short gallop and bisection
    assert one.g_evaluations < 8 * len(one.exact_flags)


# calls of the evaluator each golden chain builds
GOLDEN_CHAIN_COUNTS = {(8, 0.5): 176, (3, 0.4): 74}


@pytest.mark.parametrize("n,theta,length", GOLDEN_CHAINS)
def test_golden_chain_counts_repeat(monkeypatch, n, theta, length):
    made = []
    make = cascade._G
    monkeypatch.setattr(cascade, "_G", lambda params: made.append(make(params)) or made[-1])
    params = CascadeParams(n, theta)
    first = exact_threshold_chain(params, length - 1)
    second = exact_threshold_chain(params, length - 1)
    assert first == second
    counts = [g.calls for g in made]
    assert counts == [GOLDEN_CHAIN_COUNTS[n, theta]] * 2
    assert counts[0] == first.g_evaluations


# ---------------------------------------------------------------------------
# the pair kernel of G, bit for bit against the mpf operators
# ---------------------------------------------------------------------------

# N = 2 (sqrt), and the integer rounding test on either side of N = 20,
# above which mpmath's own 53-bit root goes through pow
KERNEL_NS = [2, 3, 4, 5, 8, 12, 20, 21, 40]
KERNEL_THETAS = (0.5, 0.3, 0.875, 0.01)


def _assert_kernel_matches(params, args):
    """``G`` on the pair of each tuple equals :func:`_reference_G`."""
    g = _G(params)
    for u in args:
        assert _tuple(*g.pair(*_pair(u))) == _reference_G(params, u), (params, u)


@pytest.mark.parametrize("n", KERNEL_NS)
def test_kernel_matches_mpmath_at_random_exponents(n):
    # exponents down to -3000, and densely near the top, where the product
    # (1 - theta) u sits 50 to 70 bits below the root and the alignment
    # shift meets its clamp
    rng = random.Random(n)
    args = [from_man_exp(rng.getrandbits(53) | 1 << 52,
                         rng.randint(-3000, -53) if i % 2 else rng.randint(-260, -53))
            for i in range(300)]
    for theta in KERNEL_THETAS:
        _assert_kernel_matches(CascadeParams(n, theta), args)


def _nearest(power: int, scale: int) -> tuple:
    """The 53-bit float nearest ``power 2^-scale``, for a positive integer."""
    shift = power.bit_length() - 53
    return from_man_exp((power + (1 << (shift - 1))) >> shift, shift - scale)


@pytest.mark.parametrize("n", KERNEL_NS)
def test_kernel_matches_mpmath_at_binade_edges(n):
    # u at both ends of its binade, at every exponent residue mod N, so the
    # root's mantissa runs from 1 to its top, 2^53 - 1, and past it to 2,
    # carrying into the next binade; and u the nearest float to the N-th
    # power of a root at the top of its binade
    args = [fone] + [from_man_exp(man, exp) for man in (2**52, 2**52 + 1, 2**53 - 2, 2**53 - 1)
                     for exp in range(-53 - 2 * n, -52)]
    args += [_nearest(top**n, 52 * n + 7 * n) for top in (2**53 - 1, 2**53 - 2, 2**52 + 1)]
    if 2 < n:
        assert any(_reference_root(u, n)[1] == 1 for u in args)  # a root of 2^k
    for theta in KERNEL_THETAS:
        _assert_kernel_matches(CascadeParams(n, theta), args)


# u whose N-th root lies so near a rounding midpoint that mpf_nthroot rounds
# it the wrong way at 53 bits (found by a search over the nearest floats to
# midpoint powers); the kernel must give the correctly rounded root there
MISROUNDED_ROOTS = [(3, 8750263067684939, -221), (3, 8490573552234779, -116),
                    (4, 4930228678451138, -214), (4, 6832871653002633, -200),
                    (5, 8520093365378162, -153), (5, 7182988018445662, -150)]


@pytest.mark.parametrize("n, man, exp", MISROUNDED_ROOTS)
def test_kernel_takes_mpmath_root_where_mpmath_misrounds(n, man, exp):
    u = from_man_exp(man, exp)
    with mp.workprec(300):
        true = mp.root(mp.make_mpf(u), n)
    with mp.workprec(53):
        correct = (+true)._mpf_
    assert mpf_nthroot(u, n, 53, "n") != correct
    assert _tuple(*_G(CascadeParams(n, 0.5)).root(*_pair(u))) == correct
    _assert_kernel_matches(CascadeParams(n, 0.5), [u])


@pytest.mark.parametrize("n", KERNEL_NS)
def test_kernel_matches_mpmath_near_rounding_midpoints(n):
    # u the nearest float to mid^N for a midpoint mid = (M + 1/2) 2^-52 of
    # the root's binade: each root lies within about 2^-53/N of a midpoint
    rng = random.Random(100 + n)
    args = [_nearest((2 * (rng.getrandbits(52) | 1 << 52) + 1) ** n, 53 * n + n * rng.randint(1, 60))
            for _ in range(400)]
    _assert_kernel_matches(CascadeParams(n, 0.5), args)


@pytest.mark.parametrize("n", [4, 8, 12, 20])
def test_kernel_takes_mpmath_root_next_to_a_midpoint(n):
    # u = 1 - (N/2)(2i + 1) 2^-53 has the root 1 - (2i + 1) 2^-54 - O(i^2 2^-106),
    # a midpoint to far closer than mpmath's 53-bit error
    args = [from_man_exp(2**53 - n // 2 * (2 * i + 1), -53) for i in range(40)]
    _assert_kernel_matches(CascadeParams(n, 0.5), args)


@pytest.mark.parametrize("n", KERNEL_NS)
def test_kernel_matches_mpmath_where_the_difference_cancels(n):
    # u near 1 with a small theta: the root and (1 - theta) u share their
    # leading bits.  At theta = 2^-60, 1 - theta rounds to 1 and G(1) is 0.
    args = [fone] + [from_man_exp(2**53 - j, -53) for j in range(1, 120)]
    for theta in (2.0**-60, 2.0**-30, 1e-6, 0.01):
        _assert_kernel_matches(CascadeParams(n, theta), args)
    assert _tuple(*_G(CascadeParams(n, 2.0**-60)).pair(1.0, 0)) == fzero


@settings(max_examples=300, deadline=None)
@given(n=st.sampled_from(KERNEL_NS),
       theta=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
       man=st.integers(2**52, 2**53 - 1), exp=st.integers(-3052, -53))
def test_kernel_matches_mpmath_property(n, theta, man, exp):
    _assert_kernel_matches(CascadeParams(n, theta), [from_man_exp(man, exp)])


# ---------------------------------------------------------------------------
# explicit supercritical solution
# ---------------------------------------------------------------------------


def test_explicit_solution_values_follow_thresholds():
    sol = explicit_solution(SUPER, scale=1.0, depth=10, below=1)
    curve = sol.curve
    # grid points are right endpoints: the cell (1, e] carries a_0, (e, e^2] a_1
    v, _ = curve.eval(math.e)
    np.testing.assert_allclose(v, 1.0 / 9.0, atol=1e-12)
    v1, _ = curve.eval(1.0)
    assert v1 == 1.0  # identically one at and below the scale point
    v2, _ = curve.eval(math.e**2)
    np.testing.assert_allclose(v2, sol.a[1], rtol=1e-15)
    assert sol.underflow_index == 8


def test_explicit_solution_scale_shifts_grid():
    base = explicit_solution(SUPER, scale=1.0, depth=8, below=1)
    scaled = explicit_solution(SUPER, scale=2.5, depth=8, below=1)
    np.testing.assert_allclose(scaled.curve.grid, 2.5 * base.curve.grid, rtol=1e-12)
    np.testing.assert_array_equal(scaled.curve.values, base.curve.values)
    r1 = fixed_point_residual(base.curve, SUPER.model())
    r2 = fixed_point_residual(scaled.curve, SUPER.model())
    assert r2.sup_norm <= max(1e-12, 10.0 * r1.sup_norm + 1e-15)


def test_step_identity_exactly_zero():
    # the ulp scan finds bit-exact preimages at every level here, including
    # the cells far past float64 underflow
    sol = explicit_solution(SUPER, scale=1.0, depth=12, below=1)
    rep = step_identity_residual(sol)
    assert rep.exact
    assert rep.max_residual == 0.0
    assert all(sol.exact_flags)


def test_explicit_solution_requires_supercritical():
    with pytest.raises(ValueError):
        explicit_solution(CRIT, scale=1.0, depth=5)


# ---------------------------------------------------------------------------
# seeded extension
# ---------------------------------------------------------------------------


def test_constant_seed_extension_critical():
    seed = SeedFunction(np.array([math.e]), np.array([0.3]))
    assert seed_defect(CRIT, seed) == 0.0  # 0.3 <= g(0.3) in this regime
    curve = extend_from_seed(CRIT, seed, n_lo=-20, n_hi=20)
    rep = curve_step_residuals(CRIT, curve)
    assert rep.max_residual <= 1e-10
    # round trip: restricting the extension recovers the seed bit for bit
    back = restrict_to_seed(curve)
    np.testing.assert_array_equal(back.grid, seed.grid)
    np.testing.assert_array_equal(back.values, seed.values)


def test_two_residue_seed_extension_subcritical():
    seed = SeedFunction(
        np.array([math.sqrt(math.e), math.e]), np.array([0.62, 0.38])
    )
    curve = extend_from_seed(SUB, seed, n_lo=-12, n_hi=12)
    assert curve_step_residuals(SUB, curve).max_residual <= 1e-10
    back = restrict_to_seed(curve)
    np.testing.assert_array_equal(back.values, seed.values)


def test_step_residuals_label_every_residual():
    # two residues: one residual per (exponent, residue), each with its cell
    seed = SeedFunction(np.array([1.5, math.e]), np.array([0.5, 0.3]))
    rep = curve_step_residuals(CRIT, extend_from_seed(CRIT, seed, n_lo=-5, n_hi=5))
    assert len(rep.residuals) == 20
    np.testing.assert_array_equal(rep.cells, np.repeat(np.arange(-5, 5), 2))


def test_every_admissible_two_point_seed_extends():
    # forward iterates near 1 stall an ulp below 1.0 in one residue column
    # while the next reaches 1.0; that one-ulp rise is clamped, not rejected
    levels = [0.01, 0.02, 0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9]
    seeds = [SeedFunction(np.array([1.5, math.e]), np.array([a, b]))
             for a in levels for b in levels if b <= a]
    seeds = [seed for seed in seeds if seed_defect(CRIT, seed) == 0.0]
    assert len(seeds) == 28
    for seed in seeds:
        curve = extend_from_seed(CRIT, seed, n_lo=-5, n_hi=5)
        assert curve_step_residuals(CRIT, curve).max_residual <= 2.0**-52
        np.testing.assert_array_equal(restrict_to_seed(curve).values, seed.values)


@pytest.mark.parametrize("read, n_lo, n_hi, missing", [
    (restrict_to_seed, 1, 3, 0),
    (restrict_to_seed, -3, 0, 1),
    (lambda curve: extract_modulation(SUB, curve, _unit_phi(), LN3), 1, 3, 0),
], ids=["restrict-0", "restrict-1", "extract-0"])
def test_curve_reads_need_their_exponents(read, n_lo, n_hi, missing):
    spec = LatticeSpec(r=math.e, residues=(1.0,), n_lo=n_lo, n_hi=n_hi)
    values = np.linspace(0.9, 0.1, n_hi - n_lo + 1)
    curve = SurvivalCurve(grid=spec.points(), values=values, lattice=spec)
    with pytest.raises(ValueError, match=f"must cover exponent {missing};"):
        read(curve)


def _two_point_seed(params, v_e, frac):
    v_s = v_e + frac * (g_eval(params, v_e) - v_e)
    return SeedFunction(np.array([math.exp(0.4), math.e]), np.array([v_s, v_e]))


def _inverse_chain(params, v, cells, tol):
    """Inverse cells of seed value ``v``: ``(values, first failed cell or None)``.

    The reference for the extension: a full 53-bit preimage, checked to be
    a transition float, and the identity check at every cell, with no stop
    rule.  ``values`` holds the mpf cell values up to and including a
    failed one.
    """
    g = _G(params)
    out = []
    with mp.workprec(53):
        y = mpf(v)
        for k in range(1, cells + 1):
            prev, (y, exact) = y, _mp_preimage(g, y, y)
            _assert_transition(params, prev, y, exact)
            out.append(y)
            if abs(mp.make_mpf(_tuple(*g.pair(*_pair(y._mpf_)))) - prev) > tol:
                return out, k
    return out, None


def _count_preimages(monkeypatch):
    """A list that gains one entry per ``_mp_preimage`` call."""
    calls = []
    preimage = cascade._mp_preimage
    monkeypatch.setattr(cascade, "_mp_preimage",
                        lambda *a, **k: calls.append(None) or preimage(*a, **k))
    return calls


EXTENSION_CASES = [(n, theta, n_hi) for n in (2, 3, 8)
                   for theta, n_hi in ((1.0 - 1.0 / n, 40), (1.0 - 0.5 / n, 25))]


@pytest.mark.parametrize("n, theta, n_hi", EXTENSION_CASES)
def test_extension_equals_every_cell_reference(monkeypatch, n, theta, n_hi):
    # Each point's inverse chain stops after its first cell that projects to
    # 0.0: the curve keeps every bit of the full chain, whose every cell is
    # a transition float, and each point makes its float-range preimages
    # plus one.
    params = CascadeParams(n, theta)
    seed = _two_point_seed(params, 0.5, 0.5)
    calls = _count_preimages(monkeypatch)
    curve = extend_from_seed(params, seed, n_lo=-3, n_hi=n_hi)
    values = curve.values.reshape(-1, 2)[3:]  # rows 0 .. n_hi; column 0 is residue 1
    want_calls = 0
    for col, v in ((1, seed.values[0]), (0, seed.values[1])):
        chain, failed = _inverse_chain(params, v, n_hi, 1e-13)
        assert failed is None
        full = np.array([v] + [float(x) for x in chain])
        # residue 1 at exponent m carries the point e one cell down
        want = full[1:] if col else full[:-1]
        assert values[1:, col].tobytes() == want.tobytes()
        nonzero = int(np.count_nonzero(full[1:]))
        assert nonzero < n_hi and np.all(full[nonzero + 1:] == 0.0)
        want_calls += nonzero + 1
    assert len(calls) == want_calls


# (N, theta, v_e) -> the first cell of the first seed point's inverse chain
# with no exact preimage, by the brute-force walk
FIRST_MISS = {(8, 0.875, 0.5): 10, (8, 0.9375, 0.6): 21, (3, 1 - 1 / 3, 0.2): 12}


@pytest.mark.parametrize("n, theta, v_e", sorted(FIRST_MISS))
def test_extension_with_tol_zero_computes_every_cell(monkeypatch, n, theta, v_e):
    # No value is <= 0, so no chain stops: every cell is computed and held
    # to an exact identity until the first that misses it, which raises, as
    # the full chain does.  The first point's chain misses past its first
    # zero-projecting cell in each case.
    miss = FIRST_MISS[n, theta, v_e]
    params = CascadeParams(n, theta)
    seed = _two_point_seed(params, v_e, 0.5)
    calls = _count_preimages(monkeypatch)
    with pytest.raises(RuntimeError, match="inverse chain missed"):
        extend_from_seed(params, seed, n_lo=-3, n_hi=40, tol=0.0)
    first, failed = _inverse_chain(params, seed.values[0], 40, 0.0)
    assert failed == miss > np.count_nonzero([float(x) for x in first]) + 1
    assert _walk(params, first[-2], first[-1]) == ([first[-1]._mpf_], False)
    want_calls = 0
    for v in seed.values:
        _, failed = _inverse_chain(params, v, 40, 0.0)
        want_calls += failed or 40
        if failed:
            break
    assert len(calls) == want_calls


def test_extension_rejects_inadmissible_seed():
    # f(e) so small that g(f(e)) drops below the seed's maximum
    bad = SeedFunction(np.array([1.2, math.e]), np.array([0.9, 0.01]))
    assert seed_defect(CRIT, bad) > 0.0
    with pytest.raises(ValueError):
        extend_from_seed(CRIT, bad)


def test_extension_rejects_supercritical_regime():
    seed = SeedFunction(np.array([math.e]), np.array([0.3]))
    with pytest.raises(ValueError):
        extend_from_seed(SUPER, seed)


def test_extension_reproduces_mixture_curve():
    # Restrict the Monte Carlo representation curve to one period, extend it
    # back out, and compare: agreement is limited only by how far the curve
    # itself sits from the exact recursion (sampling noise).
    phi = sample_W_limit(BernoulliCascade(2, 0.75), LN3, depth=10,
                         replicates=20_000, seed=42)
    spec = LatticeSpec(r=math.e, residues=(1.0,), n_lo=-8, n_hi=8)
    curve = build_weibull_mixture(phi, 1.0, LN3, spec)
    own_residual = curve_step_residuals(SUB, curve).max_residual
    ext = extend_from_seed(SUB, restrict_to_seed(curve), n_lo=-8, n_hi=8)
    assert ext.lattice == curve.lattice and len(ext.values) == len(curve.values)
    gap = float(np.max(np.abs(curve.values - ext.values)))
    # the input curve satisfies the one-step recursion only to Monte Carlo
    # accuracy, which caps how closely any exact extension can match it
    assert 0.0 < gap <= 10.0 * own_residual


# ---------------------------------------------------------------------------
# escape iteration
# ---------------------------------------------------------------------------


def test_escape_between_thresholds_exceeds_quickly():
    seq = a_sequence(SUPER, 1)
    rep = escape_check(SUPER, float((seq[0] + seq[1]) / 2.0))
    assert rep.exceeded
    assert rep.iterations == 2


def test_escape_from_thresholds_reaches_one_exactly():
    seq = a_sequence(SUPER, 5)
    rep0 = escape_check(SUPER, float(seq[0]))
    assert rep0.reached_one and not rep0.exceeded
    assert rep0.iterations == 1
    rep5 = escape_check(SUPER, float(seq[5]))
    assert rep5.reached_one and not rep5.exceeded
    assert rep5.iterations == 6


def test_escape_requires_supercritical():
    with pytest.raises(ValueError):
        escape_check(SUB, 0.5)


# ---------------------------------------------------------------------------
# modulation extraction
# ---------------------------------------------------------------------------


def _unit_phi():
    return sample_W_limit(Deterministic(0.5, 0.5), 1.0, depth=4, replicates=64, seed=9)


def test_extract_constant_modulation():
    phi = _unit_phi()
    spec = LatticeSpec(r=math.e, residues=(1.0,), n_lo=-6, n_hi=6)
    curve = build_weibull_mixture(phi, 1.0, LN3, spec)
    rec = extract_modulation(SUB, curve, phi, LN3)
    np.testing.assert_allclose(rec.values, [1.0], atol=1e-10)


def test_extract_two_value_modulation():
    phi = _unit_phi()
    h = PeriodicModulation(
        math.e, np.array([1.0, math.sqrt(math.e)]), np.array([1.0, 0.8])
    )
    spec = LatticeSpec(
        r=math.e, residues=(1.0, math.sqrt(math.e)), n_lo=-6, n_hi=6
    )
    curve = build_weibull_mixture(phi, h, LN3, spec)
    rec = extract_modulation(SUB, curve, phi, LN3)
    np.testing.assert_array_equal(rec.residues, h.residues)
    np.testing.assert_allclose(rec.values, h.values, atol=1e-10)


def test_extract_rejects_saturated_cells():
    spec = LatticeSpec(r=math.e, residues=(1.0,), n_lo=-2, n_hi=2)
    # the exponent-0 cell is pinned at exactly 1, so no h value can be read
    vals = np.array([1.0, 1.0, 1.0, 0.2, 0.1])
    curve = SurvivalCurve(grid=spec.points(), values=vals, lattice=spec)
    with pytest.raises(ValueError):
        extract_modulation(SUB, curve, _unit_phi(), LN3)


def test_extract_rejects_supercritical():
    phi = _unit_phi()
    spec = LatticeSpec(r=math.e, residues=(1.0,), n_lo=-6, n_hi=6)
    curve = build_weibull_mixture(phi, 1.0, LN3, spec)
    with pytest.raises(ValueError):
        extract_modulation(SUPER, curve, phi, LN3)


# ---------------------------------------------------------------------------
# input checks
# ---------------------------------------------------------------------------


def _seed(grid, values):
    return SeedFunction(np.array(grid), np.array(values))


def _step(r, residues):
    spec = LatticeSpec(r=r, residues=residues, n_lo=-1, n_hi=1)
    return SurvivalCurve(grid=spec.points(), values=np.linspace(1.0, 0.5, 3 * len(residues)),
                         lattice=spec)


_PLAIN = SurvivalCurve(grid=np.array([1.0, 2.0]), values=np.array([0.5, 0.4]))
_E_SEED = SeedFunction(np.array([math.e]), np.array([0.3]))


# The RuntimeError of exact_threshold_chain (a chain that fails to
# decrease) is defensive: no parameter set is known to reach it, so no
# case here does.
@pytest.mark.parametrize("call, message", [
    (lambda: _seed([[1.5, math.e]], [[0.5, 0.4]]), "seed grid must be a nonempty 1-d array"),
    (lambda: _seed([1.5, math.e], [0.5]), "seed values and grid must have the same shape"),
    (lambda: _seed([1.5, 1.2, math.e], [0.5, 0.4, 0.3]), "seed grid must be strictly increasing"),
    (lambda: _seed([1.0, math.e], [0.5, 0.4]), "seed grid must lie in (1, e]"),
    (lambda: _seed([1.5, 2.5], [0.5, 0.4]),
     "seed grid must end at e (the value f(e) anchors the extension)"),
    (lambda: _seed([1.5, math.e], [1.0, 0.4]), "seed values must lie strictly inside (0, 1)"),
    (lambda: _seed([1.5, math.e], [0.3, 0.4]), "seed values must be nonincreasing"),
    (lambda: extend_from_seed(CRIT, _E_SEED, n_lo=1, n_hi=5),
     "need n_lo <= 0 <= n_hi with n_lo < n_hi"),
    (lambda: extend_from_seed(CRIT, _E_SEED, tol=-1e-13), "tol must be >= 0"),
    (lambda: explicit_solution(SUPER, scale=math.inf), "scale must be positive and finite"),
    (lambda: explicit_solution(SUPER, depth=-1), "need depth >= 0 and below >= 1"),
    (lambda: explicit_solution(SUPER, below=0), "need depth >= 0 and below >= 1"),
    (lambda: restrict_to_seed(_step(2.0, (1.0,))),
     "seed restriction needs a lattice-step curve with ratio e"),
    (lambda: restrict_to_seed(_step(math.e, (1.5,))),
     "seed restriction needs residue 1 on the curve lattice"),
    (lambda: curve_step_residuals(CRIT, _PLAIN),
     "step residuals need a lattice-step curve with ratio e"),
    (lambda: escape_check(SUPER, 1.0), "x must lie strictly inside (0, 1)"),
    (lambda: g_eval(CRIT, 1.5), "u = 1.5 outside [0, 1]"),
    (lambda: g_eval_mp(CRIT, -0.5), "u = -0.5 outside [0, 1]"),
    (lambda: exact_threshold_chain(SUPER, -1), "n must be >= 0"),
    (lambda: extract_modulation(SUB, _PLAIN, None, LN3),
     "modulation recovery needs a lattice-step curve"),
    (lambda: extract_modulation(BernoulliCascade(2, 0.25), _PLAIN, None, LN3),
     "modulation recovery applies to the subcritical regime"),
])
def test_cascade_input_checks(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message
