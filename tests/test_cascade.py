"""The one-parameter recursion family: regimes, thresholds, explicit and
extended solutions, escape, and modulation extraction."""

import math
import random

import numpy as np
import pytest
from mpmath import mp, mpf
from mpmath.libmp import (
    fone,
    from_float,
    from_int,
    from_man_exp,
    mpf_add,
    mpf_div,
    mpf_ge,
    mpf_le,
    mpf_lt,
    mpf_mul,
    mpf_nthroot,
    mpf_sub,
)

from branchfix import cascade
from branchfix.branching import sample_W_limit
from branchfix.cascade import (
    CascadeParams,
    _G,
    _below_peak,
    _enclosure,
    _mp_preimage,
    _ulp_scan,
    SeedFunction,
    a0,
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


# ---------------------------------------------------------------------------
# inversion and the threshold sequence
# ---------------------------------------------------------------------------


def test_g_inverse_endpoint_and_oracles():
    assert g_inverse(SUPER, 0.0) == 0.0
    # y = 1 on the increasing branch: 3a - 4 sqrt(a) + 1 = 0, sqrt(a) = 1/3
    np.testing.assert_allclose(g_inverse(SUPER, 1.0), 1.0 / 9.0, atol=1e-12)
    # y = 1/9: the smaller root of 3x^2 - 4x + 1/9 = 0 in x = sqrt(a)
    want = ((1.0 - math.sqrt(11.0 / 12.0)) / 1.5) ** 2
    np.testing.assert_allclose(g_inverse(SUPER, 1.0 / 9.0), want, rtol=1e-10)


def test_g_inverse_round_trip():
    for params in (SUB, CRIT):
        for y in (0.01, 0.3, 0.9):
            x = g_inverse(params, y)
            np.testing.assert_allclose(g_eval(params, x), y, atol=1e-12)
    for y in (0.2, 0.8, 1.0):
        x = g_inverse(SUPER, y)
        assert x <= 1.0 / 9.0 + 1e-12  # increasing branch only
        np.testing.assert_allclose(g_eval(SUPER, x), y, atol=1e-12)



def test_g_inverse_deep_targets_to_relative_precision():
    # x sits near (theta y)^N, far below the float resolution of y's scale.
    params = CascadeParams(8, 0.5)
    for y in (1e-20, 1e-5):
        x = g_inverse(params, y)
        np.testing.assert_allclose(x, (0.5 * y) ** 8, rtol=1e-6)
        np.testing.assert_allclose(g_eval(params, x), y, rtol=1e-14)

def test_a_sequence_oracles():
    seq = a_sequence(SUPER, 1)
    np.testing.assert_allclose(seq[0], 1.0 / 9.0, atol=1e-12)
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
        a0(SUPER), extinction_probability(pgf), atol=1e-12
    )


@pytest.mark.parametrize("n, theta, depth, cell", [(3, 0.4, 20, 14), (2, 0.3, 25, 13)])
def test_a_sequence_checks_cells_without_exact_preimage(n, theta, depth, cell):
    # The one cell with no exact preimage is held to tol instead.
    params = CascadeParams(n, theta)
    flags = exact_threshold_chain(params, depth).flags
    assert [k for k, ok in enumerate(flags) if not ok] == [cell]
    assert len(a_sequence(params, depth)) == depth + 1
    with pytest.raises(RuntimeError, match=f"threshold a_{cell} missed"):
        a_sequence(params, depth, tol=0.0)


def test_threshold_chain_is_the_solution_chain():
    chain = exact_threshold_chain(SUPER, 12)
    sol = explicit_solution(SUPER, depth=12)
    assert chain.values == sol.a_exact and chain.flags == sol.exact_flags
    assert chain.g_evaluations == sol.g_evaluations > 0
    assert chain.certified_steps == sol.certified_steps


def test_a_sequence_requires_supercritical():
    with pytest.raises(ValueError):
        a_sequence(CRIT, 3)


def test_exact_threshold_chain_flags():
    chain, flags, _, _ = exact_threshold_chain(SUPER, 8)
    assert len(chain) == 9
    assert all(isinstance(f, bool) for f in flags)
    # the chain decreases strictly and projects to the float sequence
    floats = [float(x) for x in chain]
    assert all(b < a for a, b in zip(floats, floats[1:]) if b > 0.0)
    seq = a_sequence(SUPER, 8)
    np.testing.assert_allclose(floats[:5], seq[:5], rtol=1e-12)


# ---------------------------------------------------------------------------
# the preimage search against the full-scan reference
# ---------------------------------------------------------------------------

# The reference is the search the chain was first defined by: mpf operators
# throughout, and a scan that evaluates every candidate center + j*step for
# |j| <= 64, then for |j| <= 1024, keeping the nearest hit (the lower one on
# a tie, since j ascends).  The library must return the same bits.


def _reference_g(params, u):
    u = mpf(u)
    theta = mpf(params.theta)
    if params.N == 2:
        root = mp.sqrt(u)
    else:
        root = mp.root(u, params.N)
    return (root - (1 - theta) * u) / theta


def _reference_scan(g, y, center):
    step = mpf(2) ** (mp.mag(center) - 54)
    best = None
    for radius in (64, 1024):
        for j in range(-radius, radius + 1):
            cand = center + j * step
            if cand <= 0:
                continue
            if g(cand) == y:
                if best is None or abs(cand - center) < abs(best - center):
                    best = cand
        if best is not None:
            return best, True
    return center, False


def _reference_preimage(params, y, hi, want_exact=True):
    with mp.workprec(53):
        y = mpf(y)
        if y == 0:
            return mpf(0), True
        lo = mpf(0)
        hi = mpf(hi)
        if y < 1e-3:
            est = (mpf(params.theta) * y) ** params.N
            blo, bhi = est / 16, est * 16
            if bhi < hi and _reference_g(params, blo) < y < _reference_g(params, bhi):
                lo, hi = blo, bhi
        for _ in range(4000):
            mid = mp.sqrt(lo * hi) if lo > 0 else hi / 2
            if mid <= lo or mid >= hi:
                break
            if _reference_g(params, mid) < y:
                lo = mid
            else:
                hi = mid
            if lo > 0 and hi - lo <= mp.eps * hi * 4:
                break
        center = hi
        if not want_exact:
            return center, False
        return _reference_scan(lambda c: _reference_g(params, c), y, center)


# (N, theta, chain length): supercritical, from near the watershed down.
# Four cells have no bit-exact preimage: 1 and 6 of (2, 0.45), 3 of
# (3, 0.2) and 14 of (3, 0.4).
NO_HIT_CELLS = {(2, 0.45): [1, 6], (3, 0.2): [3], (3, 0.4): [14]}
REFERENCE_CHAINS = [
    (2, 0.25, 12), (2, 0.45, 8), (3, 0.2, 8), (3, 0.4, 16),
    (4, 0.5, 10), (4, 0.7, 8), (8, 0.5, 12), (8, 0.85, 6),
]


@pytest.mark.parametrize("n,theta,length", REFERENCE_CHAINS)
def test_preimage_matches_full_scan_reference(n, theta, length):
    params = CascadeParams(n, theta)
    g = _G(params)
    y, hi = mpf(1), mpf(u_star(params))
    flags = []
    for _ in range(length):
        want, want_ok = _reference_preimage(params, y, hi)
        got, ok = _mp_preimage(g, y, hi)
        assert (got._mpf_, ok) == (want._mpf_, want_ok)
        # the bisection limit alone, as the seed extension takes it
        limit, _ = _reference_preimage(params, y, hi, want_exact=False)
        assert _mp_preimage(g, y, hi, want_exact=False)[0]._mpf_ == limit._mpf_
        flags.append(ok)
        y = hi = want
    assert [k for k, ok in enumerate(flags) if not ok] == NO_HIT_CELLS.get((n, theta), [])


class _HitSet:
    """A g whose image is Y exactly on a chosen set of arguments.

    Takes and returns raw tuples for the library and mpf for the reference,
    and records every argument it sees.
    """

    Y = from_man_exp(3, -5)
    MISS = from_man_exp(5, -5)

    def __init__(self, hits):
        self.hits = set(hits)
        self.args = []

    def __call__(self, u):
        key = getattr(u, "_mpf_", u)
        self.args.append(key)
        value = self.Y if key in self.hits else self.MISS
        return mp.make_mpf(value) if key is not u else value


def _scan_both(center, hits):
    """(library result, reference result, library's arguments) for one hit set."""
    lib = _HitSet(hits)
    got = _ulp_scan(lib, _HitSet.Y, center)
    with mp.workprec(53):
        want, ok = _reference_scan(_HitSet(hits), mp.make_mpf(_HitSet.Y), mp.make_mpf(center))
    return got, (want._mpf_ if ok else None), lib.args


# Centers with an odd and an even last mantissa bit, at a binade boundary
# 2^k (finer floats below it), one ulp above and one ulp below it.
CENTERS = {
    "odd": from_man_exp(2**52 + 12345, -60),
    "even": from_man_exp(2**52 + 12346, -60),
    "binade": from_man_exp(1, -70),
    "above-binade": from_man_exp(2**52 + 1, -122),
    "below-binade": from_man_exp(2**53 - 1, -123),
}


@pytest.mark.parametrize("name", sorted(CENTERS))
def test_ulp_scan_tie_rule_matches_reference(name):
    center = CENTERS[name]
    with mp.workprec(53):
        c = mp.make_mpf(center)
        step = mpf(2) ** (mp.mag(c) - 54)
        js = range(-1024, 1025)
        cands = sorted({(c + j * step)._mpf_ for j in js}, key=mp.make_mpf)
        first = {}
        for j in sorted(js, key=abs):
            first.setdefault((c + j * step)._mpf_, abs(j))
        by_distance = sorted(cands, key=lambda v: abs(mp.make_mpf(v) - c))
    near = by_distance[:12]
    # candidates first reached at the edge of the 64-step pass, both sides
    edge = [v for v in cands if 63 <= first[v] <= 66]
    singles = near + edge + [v for v in cands if first[v] in (500, 1024)]
    hit_sets = [()] + [(v,) for v in singles]
    for group in (near, edge):
        hit_sets += [(a, b) for i, a in enumerate(group) for b in group[i + 1:]]
    assert center in near[:1]
    for hits in hit_sets:
        got, want, args = _scan_both(center, hits)
        assert got == want, (name, hits)
        # every distinct candidate is tried at most once, and the walk stops
        # at its first hit
        assert len(args) == len(set(args))
        assert args.count(got) == (got is not None)
        if got is not None:
            assert args[-1] == got
    # no hit: all 2049 steps give this many distinct candidates, tried once each
    assert len(_scan_both(center, ())[2]) == len(cands)


def test_ulp_scan_far_hits_and_misses_with_real_g():
    # Centers moved off a true preimage: 150 steps puts every hit past the
    # 64-step pass, 3000 steps puts them past the 1024-step one.
    params = CascadeParams(4, 0.5)
    g = _G(params)
    with mp.workprec(53):
        y = _reference_preimage(params, 1, u_star(params))[0]
        x, ok = _reference_preimage(params, y, y)
        assert ok
        step_exp = mp.mag(x) - 54
        for shift, found in ((150, True), (-150, True), (3000, False), (-3000, False)):
            center = mpf_add(x._mpf_, from_man_exp(shift, step_exp), 53, "n")
            want, want_ok = _reference_scan(
                lambda u: _reference_g(params, u), y, mp.make_mpf(center))
            got = _ulp_scan(g, y._mpf_, center)
            assert want_ok == found
            assert got == (want._mpf_ if want_ok else None)
            if found:
                gap = abs(mp.make_mpf(mpf_sub(got, center, 53, "n")))
                assert gap > 64 * mpf(2) ** step_exp


def _no_hit_cells():
    """``(params, y, center)`` of every NO_HIT_CELLS cell: its target and bisection limit."""
    for (n, theta), cells in NO_HIT_CELLS.items():
        params = CascadeParams(n, theta)
        values = exact_threshold_chain(params, max(cells)).values
        for k in cells:
            y = fone if k == 0 else values[k - 1]._mpf_
            hi = from_float(u_star(params)) if k == 0 else y
            center = _mp_preimage(_G(params), y, hi, want_exact=False)[0]._mpf_
            yield params, y, center


def test_scan_window_ends_are_certified():
    # At each cell with no exact preimage both ends are certified, well
    # inside the scan, and the 64 floats beyond each end keep g on its side
    # of y.
    for params, y, center in _no_hit_cells():
        g = _G(params)
        step_exp = center[2] + center[3] - 54
        below, above = cascade._scan_window(g, y, center, step_exp)
        assert 64 < below < 512 and 64 < above < 512
        low = mpf_add(center, from_man_exp(-below - 1, step_exp), 53, "n")
        high = mpf_add(center, from_man_exp(above + 1, step_exp), 53, "n")
        for _ in range(65):
            assert mpf_lt(g(low), y) and mpf_lt(y, g(high))
            low, high = _next_float(low, False), _next_float(high, True)


def test_scan_window_cuts_no_hit_cells():
    for params, y, center in _no_hit_cells():
        full, windowed = _G(params), _G(params)
        assert _ulp_scan(full, y, center) is None
        assert _ulp_scan(windowed, y, center, window=True) is None
        # the two certificate evaluations, then about 200 of the full ~1030
        assert windowed.calls < full.calls / 3
    # the golden chain's one no-hit cell, 14, made 1 036 of its 1 279
    chain = exact_threshold_chain(CascadeParams(3, 0.4), 20)
    assert chain.g_evaluations <= 500
    # N = 8 at depth 30 has no such cell, so its count is unchanged
    assert exact_threshold_chain(CascadeParams(8, 0.5), 30).g_evaluations == 403


def test_refused_window_falls_back_to_the_full_scan(monkeypatch):
    # A root estimate 2^-30 off puts both ends outside the scan: no end is
    # certified, and the scan tries every candidate as without a window.
    newton = cascade._newton_root
    scale = from_float(1 + 2.0**-30)
    monkeypatch.setattr(cascade, "_newton_root",
                        lambda g, y: mpf_mul(newton(g, y), scale, 80, "n"))
    for params, y, center in _no_hit_cells():
        full, windowed = _G(params), _G(params)
        assert _ulp_scan(full, y, center) is None
        assert _ulp_scan(windowed, y, center, window=True) is None
        assert windowed.calls == full.calls


@pytest.mark.parametrize("shift", [150, -150])
@pytest.mark.parametrize("misplace", [-700, 700])
def test_misplaced_window_end_is_refused(monkeypatch, shift, misplace):
    # The center sits 150 steps off an exact preimage x, so the hit lies past
    # the 64-step pass.  The root estimate sits 700 steps off x, and the
    # window's half-width here is about 520 steps: the near end lies inside
    # the scan but beyond the hit, and its certificate is refused; the far
    # end falls outside the scan.  The scan still finds the reference's hit.
    params = CascadeParams(4, 0.5)
    with mp.workprec(53):
        y = _reference_preimage(params, 1, u_star(params))[0]
        x, ok = _reference_preimage(params, y, y)
        assert ok
        step_exp = mp.mag(x) - 54
        center = mpf_add(x._mpf_, from_man_exp(shift, step_exp), 53, "n")
        estimate = mpf_add(x._mpf_, from_man_exp(misplace, step_exp), 80, "n")
        want, want_ok = _reference_scan(
            lambda u: _reference_g(params, u), y, mp.make_mpf(center))
    assert want_ok
    monkeypatch.setattr(cascade, "_newton_root", lambda g, y: estimate)
    g = _G(params)
    assert cascade._scan_window(g, y._mpf_, center, step_exp) == (1024, 1024)
    assert _ulp_scan(g, y._mpf_, center, window=True) == want._mpf_


# ---------------------------------------------------------------------------
# the certified bisection replay
# ---------------------------------------------------------------------------

# Cells whose certificate is refused, so every mid is evaluated: the a_0 of
# the chains nearest the watershed, where g flattens toward its peak.
REFUSED_CELLS = {(2, 0.45): [0], (4, 0.7): [0], (8, 0.85): [0]}


def _same_as_reference(params, y, hi, want_exact):
    """The library's preimage, required to carry the reference's bits and flag."""
    want, want_ok = _reference_preimage(params, y, hi, want_exact)
    got, ok = _mp_preimage(_G(params), y, hi, want_exact)
    assert (got._mpf_, ok) == (want._mpf_, want_ok), (params, y, hi, want_exact)
    return want


def test_replay_sweep_matches_reference():
    rng = random.Random(20090917)
    with mp.workprec(53):
        # supercritical chains, scanned and bisection-only
        for _ in range(8):
            n = rng.randint(2, 12)
            params = CascadeParams(n, rng.uniform(0.05, 0.97 * (1.0 - 1.0 / n)))
            for want_exact in (True, False):
                y, hi = mpf(1), mpf(u_star(params))
                for _ in range(4):
                    y = hi = _same_as_reference(params, y, hi, want_exact)
        # critical and subcritical extension chains from random seed values
        for _ in range(8):
            n = rng.randint(2, 12)
            watershed = 1.0 - 1.0 / n
            theta = watershed if rng.random() < 0.5 else rng.uniform(watershed, 0.99)
            params = CascadeParams(n, theta)
            y = mpf(rng.uniform(0.02, 0.98))
            for _ in range(5):
                y = _same_as_reference(params, y, y, False)
        # g_inverse at random targets, shallow and deep, in every regime
        for _ in range(8):
            n = rng.randint(2, 12)
            params = CascadeParams(n, rng.uniform(0.05, 0.95))
            for y in (rng.random(), 10.0 ** rng.uniform(-30.0, -3.0)):
                x = _same_as_reference(params, y, u_star(params), True)
                assert g_inverse(params, y) == float(x)
        # roots at a power of two, so the last bracket can straddle a binade
        for n, theta in ((2, 0.25), (5, 0.3), (8, 0.5)):
            params = CascadeParams(n, theta)
            for k in (3, 11, 36):
                for j in (-1, 0, 1):
                    root = mpf(2) ** -k + j * mpf(2) ** (-k - 54)
                    y = _reference_g(params, root)
                    _same_as_reference(params, y, u_star(params), False)
    # the fallback: a_0 next to the watershed has no certificate
    params = CascadeParams(2, 0.49)
    g = _G(params)
    assert _enclosure(g, fone, from_float(u_star(params))) is None
    _same_as_reference(params, 1, u_star(params), True)


def _chain_cells(length=None):
    """``(params, y, hi)`` of the REFERENCE_CHAINS cells, in chain order."""
    for n, theta, full in REFERENCE_CHAINS:
        params = CascadeParams(n, theta)
        chain = exact_threshold_chain(params, (length or full) - 2).values
        yield params, fone, from_float(u_star(params))
        for a in chain:
            yield params, a._mpf_, a._mpf_


def _next_float(t, up):
    """The 53-bit float next to the positive tuple ``t``, above or below."""
    _, _, exp, bc = t
    half = from_man_exp(1 if up else -1, exp + bc - 54)
    return mpf_add(t, half, 53, "u" if up else "d")


def test_enclosure_certificate_holds_beside_its_ends():
    seen, refused = {}, {}
    for params, y, hi in _chain_cells():
        key = (params.N, params.theta)
        cell = seen[key] = seen.get(key, -1) + 1
        g = _G(params)
        bounds = _enclosure(g, y, hi)
        if bounds is None:
            refused.setdefault(key, []).append(cell)
            continue
        low, high, top = bounds
        assert mpf_le(high, top) and mpf_lt(top, hi)
        for _ in range(65):  # each end and the 64 floats beyond it
            assert mpf_lt(g(low), y)
            assert mpf_ge(g(high), y)
            low, high = _next_float(low, False), _next_float(high, True)
    assert refused == REFUSED_CELLS


@pytest.mark.parametrize("factor", [1 + 2.0**-30, 1 - 2.0**-30])
def test_perturbed_newton_is_refused_not_misdecided(monkeypatch, factor):
    newton = cascade._newton_root
    scale = from_float(factor)
    monkeypatch.setattr(cascade, "_newton_root",
                        lambda g, y: mpf_mul(newton(g, y), scale, 80, "n"))
    for params, y, hi in _chain_cells(length=3):
        assert _enclosure(_G(params), y, hi) is None
        with mp.workprec(53):
            _same_as_reference(params, mp.make_mpf(y), mp.make_mpf(hi), True)


def test_enclosure_end_at_the_root_is_refused(monkeypatch):
    # Place L, then U, on each float within 16 ulps of an exact preimage: at
    # N = 8 about eight adjacent floats share its image y, so an end there
    # has g(end) == y and only the margin refuses it.
    params = CascadeParams(8, 0.5)
    with mp.workprec(53):
        y = _reference_preimage(params, 1, u_star(params))[0]
        root, ok = _reference_preimage(params, y, y)
    assert ok
    half_width = from_man_exp(8, -45)
    for factor in (mpf_sub(fone, half_width), mpf_add(fone, half_width)):
        end = root._mpf_
        for _ in range(16):
            end = _next_float(end, False)
        for _ in range(33):
            x = mpf_div(end, factor, 200, "n")
            monkeypatch.setattr(cascade, "_newton_root", lambda g, y, x=x: x)
            assert _enclosure(_G(params), y._mpf_, y._mpf_) is None
            end = _next_float(end, True)


def test_below_peak_is_exact():
    # SUPER has its peak at (2 * 3/4)^-2 = 4/9 and CRIT at exactly 1.
    g = _G(SUPER)
    assert _below_peak(g, mpf_div(from_int(4), from_int(9), 53, "d"))
    assert not _below_peak(g, mpf_div(from_int(4), from_int(9), 53, "u"))
    assert _below_peak(_G(CRIT), fone)
    assert not _below_peak(_G(CRIT), _next_float(fone, True))
    # the certificate is refused when hi lies past the peak
    with mp.workprec(53):
        y = mpf("0.3")._mpf_
    assert _enclosure(g, y, from_float(u_star(SUPER))) is not None
    assert _enclosure(g, y, from_float(2 * u_star(SUPER))) is None


def test_nthroot_within_one_ulp():
    # the error bound E of the certificate assumes a 53-bit nthroot within
    # one ulp of the true root; above N = 20 mpmath takes it through pow
    rng = random.Random(7)
    for _ in range(300):
        n = rng.randint(3, 40)
        u = from_man_exp(rng.getrandbits(53) | 1 << 52, rng.randint(-400, 0))
        got = mp.make_mpf(mpf_nthroot(u, n, 53, "n"))
        with mp.workprec(200):
            true = mp.root(mp.make_mpf(u), n)
            assert abs(got - true) <= true * mpf(2) ** -52


def test_chain_g_evaluations_repeat():
    params = CascadeParams(8, 0.5)
    one = explicit_solution(params, scale=1.0, depth=30)
    two = explicit_solution(params, scale=2.5, depth=30)
    assert all(one.exact_flags)
    assert one.g_evaluations == two.g_evaluations > 0
    assert one.certified_steps == two.certified_steps > 0
    # the enclosure decides most bisection mids, and each exact cell stops
    # its scan at the first hit: 403 evaluations for these 31 cells
    assert one.g_evaluations < 20 * len(one.exact_flags)


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
    r1 = fixed_point_residual(base.curve, SUPER.model(), kind="min")
    r2 = fixed_point_residual(scaled.curve, SUPER.model(), kind="min")
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


def _two_point_seed(params, v_e, frac):
    v_s = v_e + frac * (g_eval(params, v_e) - v_e)
    return SeedFunction(np.array([math.exp(0.4), math.e]), np.array([v_s, v_e]))


def _inverse_chain(params, v, cells, tol):
    """Every inverse cell of seed value ``v``: ``(floats, first failed cell or None)``.

    The reference for the extension: a full 53-bit preimage and identity
    check at every cell, with no stop rule.
    """
    g = _G(params)
    out = []
    with mp.workprec(53):
        y = mpf(v)
        for k in range(1, cells + 1):
            prev, y = y, _mp_preimage(g, y, y, want_exact=False)[0]
            if abs(mp.make_mpf(g(y._mpf_)) - prev) > tol:
                return out, k
            out.append(float(y))
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
    # 0.0: the curve keeps every bit of the full chain, and each point makes
    # its float-range preimages plus one.
    params = CascadeParams(n, theta)
    seed = _two_point_seed(params, 0.5, 0.5)
    calls = _count_preimages(monkeypatch)
    curve = extend_from_seed(params, seed, n_lo=-3, n_hi=n_hi)
    values = curve.values.reshape(-1, 2)[3:]  # rows 0 .. n_hi; column 0 is residue 1
    want_calls = 0
    for col, v in ((1, seed.values[0]), (0, seed.values[1])):
        chain, failed = _inverse_chain(params, v, n_hi, 1e-13)
        assert failed is None
        full = np.array([v] + chain)
        # residue 1 at exponent m carries the point e one cell down
        want = full[1:] if col else full[:-1]
        assert values[1:, col].tobytes() == want.tobytes()
        nonzero = int(np.count_nonzero(full[1:]))
        assert nonzero < n_hi and np.all(full[nonzero + 1:] == 0.0)
        want_calls += nonzero + 1
    assert len(calls) == want_calls


@pytest.mark.parametrize("n, theta, v_e", [(8, 0.875, 0.5), (8, 0.9375, 0.6), (3, 1 - 1 / 3, 0.3)])
def test_extension_with_tol_zero_computes_every_cell(monkeypatch, n, theta, v_e):
    # No value is <= 0, so no chain stops: every cell is computed and held
    # to an exact identity until the first that misses it, which raises, as
    # the full chain does.  The first point's chain passes its first
    # zero-projecting cell in each case (at (8, 7/8) 23 cells exact, 3 of
    # them in float range).
    params = CascadeParams(n, theta)
    seed = _two_point_seed(params, v_e, 0.5)
    calls = _count_preimages(monkeypatch)
    with pytest.raises(RuntimeError, match="inverse chain missed"):
        extend_from_seed(params, seed, n_lo=-3, n_hi=40, tol=0.0)
    first, failed = _inverse_chain(params, seed.values[0], 40, 0.0)
    assert failed > np.count_nonzero(first) + 1
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
