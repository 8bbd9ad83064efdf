"""Monotone curve containers: evaluation modes, validation, modulations."""

import math

import numpy as np
import pytest

from branchfix.curves import (
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


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------


def test_log_grid_endpoints():
    g = log_grid(1e-6, 1e6, 512)
    assert len(g) == 512
    np.testing.assert_allclose(g[0], 1e-6, rtol=1e-12)
    np.testing.assert_allclose(g[-1], 1e6, rtol=1e-12)


def test_dyadic_grid_halving_is_exact():
    g = dyadic_grid(points=64, per_octave=8)
    # halving any point eight steps up lands exactly on another point
    np.testing.assert_array_equal(g[:-8] * 2.0, g[8:] * 1.0)


def test_lattice_points_layout():
    pts = lattice_points(math.e, [1.0, math.sqrt(math.e)], -1, 1)
    assert len(pts) == 6
    assert np.all(np.diff(pts) > 0.0)
    np.testing.assert_allclose(pts[2], 1.0, rtol=1e-15)


def test_lattice_spec_table_and_row():
    spec = LatticeSpec(math.e, (1.0, math.sqrt(math.e)), -1, 1)
    table = spec.table(spec.points())
    assert table.shape == (3, 2)
    # row i holds exponent n_lo + i, column j residue j
    np.testing.assert_allclose(table[spec.row(1)], [math.e, math.e**1.5], rtol=1e-15)
    np.testing.assert_allclose(table[:, 1], math.e ** np.arange(-0.5, 2.0), rtol=1e-15)
    for n in (-2, 2):
        with pytest.raises(ValueError, match=f"must cover exponent {n};"):
            spec.row(n)


# ---------------------------------------------------------------------------
# interp-loglinear curves
# ---------------------------------------------------------------------------


def test_interp_exact_on_grid_points():
    g = log_grid(1e-3, 1e3, 101)
    curve = SurvivalCurve(grid=g, values=np.exp(-g))
    for t in (g[0], g[13], g[50], g[-1]):
        val, clamped = curve.eval(t)
        assert val == math.exp(-t)
        assert not clamped


def test_interp_is_loglinear_between_points():
    g = np.array([1.0, 4.0])
    curve = SurvivalCurve(grid=g, values=np.array([0.8, 0.2]))
    val, _ = curve.eval(2.0)  # halfway in log space
    np.testing.assert_allclose(val, 0.5, rtol=1e-12)


def test_eval_at_zero_is_one():
    g = log_grid(0.1, 10.0, 16)
    curve = SurvivalCurve(grid=g, values=np.exp(-g))
    val, clamped = curve.eval(0.0)
    assert val == 1.0 and not clamped


def test_clamping_outside_grid():
    g = log_grid(1.0, 10.0, 8)
    curve = SurvivalCurve(grid=g, values=np.exp(-g))
    lo, cl_lo = curve.eval(0.5)
    hi, cl_hi = curve.eval(20.0)
    assert cl_lo and cl_hi
    assert lo == curve.values[0]
    assert hi == curve.values[-1]


def test_curve_validation_rejects_bad_data():
    g = log_grid(0.1, 10.0, 8)
    with pytest.raises(CurveShapeError):
        SurvivalCurve(grid=g, values=np.linspace(0.0, 1.0, 8))  # increasing
    with pytest.raises(CurveShapeError):
        SurvivalCurve(grid=g, values=np.full(8, 1.5))  # above 1
    with pytest.raises(CurveShapeError):
        SurvivalCurve(grid=g[::-1], values=np.full(8, 0.5))  # decreasing grid


@pytest.mark.parametrize("cls", [SurvivalCurve, LaplaceCurve])
def test_curve_without_a_tail_stores_one_minus_values(cls):
    g = log_grid(0.1, 10.0, 8)
    curve = cls(grid=g, values=np.exp(-g))
    assert curve.tail.dtype == np.float64
    assert curve.tail.tobytes() == (1.0 - np.exp(-g)).tobytes()


_G2 = np.array([1.0, 2.0])


@pytest.mark.parametrize("call, message", [
    (lambda: log_grid(1.0, 1.0), "need 0 < lo < hi and points >= 2"),
    (lambda: LatticeSpec(r=math.e, residues=()), "residues must be a nonempty 1-d array"),
    (lambda: LatticeSpec(r=math.e, residues=(1.5, 1.2)), "residues must be strictly increasing"),
    (lambda: SurvivalCurve(grid=np.array([]), values=np.array([])),
     "grid must be a nonempty 1-d array"),
    (lambda: SurvivalCurve(grid=np.array([0.0, 1.0]), values=np.array([1.0, 0.5])),
     "grid must be positive and finite"),
    (lambda: SurvivalCurve(grid=_G2, values=np.array([1.0])),
     "values and grid must have the same shape"),
    (lambda: SurvivalCurve(grid=_G2, values=np.array([1.0, math.nan])), "values must be finite"),
    (lambda: SurvivalCurve(grid=_G2, values=np.array([1.0, 0.5]), tail=np.array([0.0])),
     "tail and grid must have the same shape"),
    (lambda: SurvivalCurve(grid=_G2, values=np.array([1.0, 0.5]), tail=np.array([0.5, 0.0])),
     "tail must be nondecreasing in [0, 1]"),
    (lambda: SurvivalCurve(grid=_G2, values=np.array([1.0, 0.5]), tail=np.array([0.0, 0.4])),
     "tail is inconsistent with 1 - values"),
    (lambda: PeriodicModulation(math.e, np.array([1.0, 2.0]), np.array([1.0])),
     "values and residues must have the same shape"),
    (lambda: constant_modulation(1.0).eval_many([0.0]), "modulation arguments must be > 0"),
])
def test_curves_input_checks(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


def test_eval_rejects_negative_argument():
    g = log_grid(0.1, 10.0, 8)
    curve = SurvivalCurve(grid=g, values=np.exp(-g))
    with pytest.raises(ValueError):
        curve.eval(-1.0)


# ---------------------------------------------------------------------------
# lattice-step curves
# ---------------------------------------------------------------------------


def _step_curve():
    spec = LatticeSpec(r=math.e, residues=(1.0,), n_lo=-3, n_hi=3)
    pts = spec.points()
    return SurvivalCurve(grid=pts, values=np.linspace(1.0, 0.2, len(pts)), lattice=spec)


def test_lattice_lookup_exact():
    curve = _step_curve()
    for j, t in enumerate(curve.grid):
        val, clamped = curve.eval(t)
        assert val == curve.values[j]
        assert not clamped


def test_lattice_off_lattice_raises():
    curve = _step_curve()
    with pytest.raises(OffLatticeError):
        curve.eval(math.exp(2.5))


def test_lattice_clamps_beyond_range():
    curve = _step_curve()
    val, clamped = curve.eval(math.exp(9.0))  # on-lattice but past n_hi
    assert clamped
    assert val == curve.values[-1]


def test_lattice_grid_must_match_declaration():
    spec = LatticeSpec(r=math.e, residues=(1.0,), n_lo=-2, n_hi=2)
    pts = spec.points() * 1.001  # systematic off-lattice distortion
    with pytest.raises(CurveShapeError, match="do not match the declared lattice"):
        SurvivalCurve(grid=pts, values=np.linspace(1.0, 0.5, len(pts)), lattice=spec)
    # on the lattice, but one point short of the spec's range
    pts = spec.points()[:-1]
    with pytest.raises(CurveShapeError, match="do not match the declared lattice"):
        SurvivalCurve(grid=pts, values=np.linspace(1.0, 0.5, len(pts)), lattice=spec)


def test_lattice_residues_must_live_in_unit_cell():
    with pytest.raises(CurveShapeError, match=r"lie in \[1, period\)"):
        LatticeSpec(r=2.0, residues=(1.0, 3.0), n_lo=0, n_hi=0)


@pytest.mark.parametrize("r", [0.5, 1.0, math.nan])
def test_lattice_spec_rejects_ratio_at_most_one(r):
    with pytest.raises(CurveShapeError, match="lattice ratio r must exceed 1"):
        LatticeSpec(r=r, residues=(1.0,))


def test_lattice_spec_rejects_empty_exponent_range():
    # n_lo > n_hi used to give a spec with no points at all
    with pytest.raises(CurveShapeError, match="n_lo <= n_hi"):
        LatticeSpec(r=math.e, residues=(1.0,), n_lo=5, n_hi=2)
    assert len(LatticeSpec(r=math.e, residues=(1.0,), n_lo=2, n_hi=2).points()) == 1


@pytest.mark.parametrize("ends", [(0.5, 2.5), (0, 2.0), (False, 2), (0, np.float64(2))])
def test_lattice_spec_rejects_non_integer_exponents(ends):
    # fractional exponents used to give points off every residue's lattice
    with pytest.raises(CurveShapeError, match="must be integers"):
        LatticeSpec(math.e, (1.0,), *ends)


def test_lattice_spec_stores_residues_as_float_tuple():
    spec = LatticeSpec(math.e, np.array([1.0, 1.5]), np.int64(-1), 1)
    assert spec.residues == (1.0, 1.5)
    assert all(type(s) is float for s in spec.residues)
    same = LatticeSpec(math.e, (1.0, 1.5), -1, 1)
    assert spec == same and hash(spec) == hash(same)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_lattice_spec_rejects_non_finite_residues(bad):
    with pytest.raises(CurveShapeError, match=r"finite and lie in \[1, period\)"):
        LatticeSpec(r=math.e, residues=(1.0, bad), n_lo=0, n_hi=2)


@pytest.mark.parametrize("cls", [SurvivalCurve, LaplaceCurve])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_lattice_curve_rejects_non_finite_residues(cls, bad):
    # a curve's residues are its spec's, which refuses them
    grid = lattice_points(math.e, [1.0, 1.5], 0, 1)
    with pytest.raises(CurveShapeError, match=r"finite and lie in \[1, period\)"):
        cls(grid=grid, values=np.array([1.0, 0.9, 0.8, 0.7]),
            lattice=LatticeSpec(math.e, np.array([1.0, bad]), 0, 1))


# ---------------------------------------------------------------------------
# Laplace curves and convexity
# ---------------------------------------------------------------------------


def test_laplace_curve_accepts_exponential():
    g = log_grid(1e-2, 1e2, 64)
    curve = LaplaceCurve(grid=g, values=np.exp(-g))
    assert curve.convexity_defect <= 1e-12


def test_laplace_curve_computes_its_convexity_defect():
    g = log_grid(1e-2, 1e2, 64)
    with pytest.raises(TypeError):
        LaplaceCurve(grid=g, values=np.exp(-g), convexity_defect=0.0)


def test_laplace_curve_rejects_concave_values():
    g = np.array([1.0, 2.0, 3.0])
    vals = np.array([1.0, 0.9, 0.0])  # middle point far above the chord
    with pytest.raises(CurveShapeError):
        LaplaceCurve(grid=g, values=vals)


def test_convexity_defect_zero_for_linear():
    g = np.linspace(1.0, 5.0, 9)
    assert convexity_defect(g, 1.0 - 0.1 * (g - 1.0)) <= 1e-15


# ---------------------------------------------------------------------------
# periodic modulations
# ---------------------------------------------------------------------------


def test_constant_modulation_everywhere():
    h = constant_modulation(0.7)
    for t in (1e-7, 0.3, 1.0, math.e, 123.0):
        assert h.eval(t) == 0.7
    assert h.is_constant


def test_modulation_cell_lookup_and_periodicity():
    h = PeriodicModulation(math.e, np.array([1.0, math.sqrt(math.e)]),
                           np.array([2.0, 3.0]))
    # cells are (s0, s1] -> value 3.0, and wrap (s1/r, s0] -> value 2.0
    assert h.eval(1.0) == 2.0
    assert h.eval(math.sqrt(math.e)) == 3.0
    assert h.eval(1.2) == 3.0
    # multiplicative periodicity
    for t in (1.0, 1.2, math.sqrt(math.e)):
        assert h.eval(t * math.e) == h.eval(t)
        assert h.eval(t / math.e**3) == h.eval(t)


def test_modulation_validation():
    with pytest.raises(CurveShapeError):
        PeriodicModulation(0.9, np.array([1.0]), np.array([1.0]))  # period <= 1
    with pytest.raises(CurveShapeError):
        PeriodicModulation(2.0, np.array([1.0]), np.array([0.0]))  # value <= 0
    with pytest.raises(CurveShapeError):
        PeriodicModulation(2.0, np.array([0.5]), np.array([1.0]))  # residue < 1
    with pytest.raises(CurveShapeError, match="finite"):
        PeriodicModulation(2.0, np.array([1.0, np.nan]), np.array([1.0, 1.0]))


def test_weibull_defect_flags_seam_violation():
    # Within the period the steps rise, but wrapping to the next period the
    # scaled value drops: h(s0 r) (s0 r)^a < h(s1) s1^a.
    h = PeriodicModulation(math.e, np.array([1.0, 1.5]), np.array([1.0, 10.0]))
    assert h.weibull_defect(0.5) > 0.0
    # a gentle two-value modulation stays admissible at alpha = 1
    h2 = PeriodicModulation(math.e, np.array([1.0, 1.5]), np.array([1.0, 1.05]))
    assert h2.weibull_defect(1.0) == 0.0


def test_constant_modulation_always_admissible():
    h = constant_modulation(3.5)
    for alpha in (0.1, 1.0, 2.7):
        assert h.weibull_defect(alpha) == 0.0


# ---------------------------------------------------------------------------
# reductions
# ---------------------------------------------------------------------------


def test_pairwise_prod_matches_math_prod():
    rng = np.random.default_rng(42)
    for n in (1, 2, 3, 7, 64, 100):
        xs = rng.uniform(0.5, 1.0, size=n)
        np.testing.assert_allclose(pairwise_prod(xs), math.prod(xs), rtol=1e-13)
    assert pairwise_prod(np.array([])) == 1.0


def test_pairwise_prod_block_identity():
    # Balanced reduction: the product over a 2^j x 2^k array equals the
    # product of per-block products, bit for bit.
    rng = np.random.default_rng(42)
    xs = rng.uniform(0.9, 1.0, size=32)
    whole = pairwise_prod(xs)
    blocks = [pairwise_prod(xs[i : i + 8]) for i in range(0, 32, 8)]
    assert whole == pairwise_prod(np.array(blocks))

