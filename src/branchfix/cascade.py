"""The Bernoulli-weight cascade family: exact thresholds and step solutions.

For ``N`` weights ``exp(-B_i)`` with ``B_i ~ Bernoulli(theta)``, survival
functions of min-type fixed points obey the one-step recursion ``F̄(t/e) =
g(F̄(t))`` with

    g(u) = (u^(1/N) - (1-theta) u) / theta        on [0, 1].

Everything in this module is organized around ``g``: regime classification
at the watershed ``theta = 1 - 1/N``, inversion of its increasing branch,
the threshold sequence ``a_0 > a_1 > ...`` (supercritical regime), the
explicit lattice-step solution and its scalings, the seed-extension
correspondence of the critical/subcritical regimes, the escape iteration
behind uniqueness, and recovery of the periodic modulation of a subcritical
mixture curve.

The threshold sequence decays doubly exponentially (``a_{k+1} ~ (theta
a_k)^N``), which leaves IEEE double range around k = 8 for small theta.  The
chain is therefore computed in 53-bit floats with unbounded exponents, and
its values are mpmath floats.  ``G``, the 53-bit evaluation of ``g`` with
each operation correctly rounded, has one evaluator, :meth:`_G.pair`, on
pairs of a float mantissa and an integer exponent.
Each ``a_{k+1}`` is the transition float of ``a_k``: the ``x`` with
``G(pred x) < a_k <= G(x)``, ``pred x`` the float just below it, flagged
exact when ``G(x) == a_k``.  Where ``G`` is monotone that is the least float
whose image reaches ``a_k``, so the least exact hit whenever one exists;
such a float almost always exists because ``g`` contracts adjacent-float
spacing (slope ~ a_k / (N a_{k+1}) against an ulp ratio ~ a_{k+1}/a_k),
and exactness flags record the rare failures.  It is found on integer
float indices: a Newton estimate of the root, a gallop in whole ulps until
``G`` crosses the target, and a bisection of the bracketing indices.  The
seed extension's inverse cells are the same walk (:func:`_inverse_walk`),
and each check takes a cell's miss from ``_extended.miss``.  Float64
projections mark the underflow point.

The mpmath code lives in the private module :mod:`branchfix._extended`: the
80-bit Newton start, the one subtraction of a cell's miss, and every
conversion that makes or reads an extended-precision value, each rounded
explicitly.  The functions here that need it (the chain, the seed
extension, the step identity and :func:`g_eval_mp`) import it when they
run, through :func:`_ext`, so importing this module does not load mpmath.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .curves import LatticeSpec, PeriodicModulation, SurvivalCurve
from .weights import BernoulliCascade

SUBCRITICAL = "subcritical"
CRITICAL = "critical"
SUPERCRITICAL = "supercritical"


@dataclass(frozen=True)
class CascadeParams:
    """Cascade family parameters: ``N >= 2`` weights, ``theta`` in (0, 1)."""

    N: int
    theta: float

    def __post_init__(self) -> None:
        if not isinstance(self.N, (int, np.integer)) or self.N < 2:
            raise ValueError("N must be an integer >= 2")
        if not (0.0 < self.theta < 1.0):
            raise ValueError("theta must lie in (0,1)")

    def model(self) -> BernoulliCascade:
        """The same parameters as a sampleable weight model."""
        return BernoulliCascade(self.N, self.theta)


def classify(params: CascadeParams) -> str:
    """Regime by exact float comparison of theta against ``1 - 1/N``."""
    watershed = 1.0 - 1.0 / params.N
    if params.theta > watershed:
        return SUBCRITICAL
    if params.theta == watershed:
        return CRITICAL
    return SUPERCRITICAL


def g_eval(params: CascadeParams, u: float) -> float:
    """``g(u) = (u^(1/N) - (1-theta) u) / theta`` for ``u`` in [0, 1]."""
    if not (0.0 <= u <= 1.0):
        raise ValueError(f"u = {u!r} outside [0, 1]")
    if params.N == 2:
        root = math.sqrt(u)
    else:
        root = u ** (1.0 / params.N)
    return (root - (1.0 - params.theta) * u) / params.theta


@functools.cache
def _ext():
    """:mod:`branchfix._extended`, imported on first use (it loads mpmath).

    Cached, so that the preimage search, which asks once per cell, pays a
    call instead of an import.
    """
    from . import _extended

    return _extended


# A pair ``(m, e)`` is the positive 53-bit float ``m 2^e``: a float
# mantissa ``m`` in [1, 2) and an unbounded Python-int exponent ``e``.
_MASK = (1 << 52) - 1
_ULP = 2.0**-52
_TWO52 = 2.0**52
# beyond this alignment shift the subtrahend is under a quarter ulp
_SHIFT_CLAMP = 64


def _pair(x: float) -> tuple:
    """The pair of a positive float."""
    m, e = math.frexp(x)
    return m + m, e - 1


class _G:
    """``G``, the 53-bit round-to-nearest ``g``, on pairs.

    ``G`` is ``g`` with each of its operations (the N-th root, ``1 -
    theta``, the product, the difference and the quotient) correctly
    rounded to 53 bits, with an unbounded exponent: the root is IEEE 754's
    ``rootn``.  :meth:`pair` evaluates it on ``u`` in (0, 1] from IEEE
    arithmetic on mantissas and, for N > 2, one exact integer test.

    - ``(1 - theta) u`` and ``/ theta`` are one IEEE operation each on
      mantissas in [1, 2): no overflow or underflow, correctly rounded.
    - ``root - (1 - theta) u``: on (0, 1] the root is at least ``u`` and
      the product below it, so one ``ldexp`` aligns the product with the
      root, the shift clamped at ``_SHIFT_CLAMP``: beyond it the product is
      under a quarter ulp of the root and the difference rounds to the root
      either way.
    - :meth:`root`, N = 2: ``math.sqrt`` of the mantissa with the exponent
      made even.
    - :meth:`root`, N > 2: ``u = a 2^(qN)`` with ``a`` in [1, 2^N), and the
      float ``a ** (1/N)`` is a candidate mantissa ``M 2^-52`` (the power
      taken in two factors, so that an ``a`` past ``2^1024`` cannot
      overflow).  The exact integer test ``(2M-1)^N < 2^(53N) a <
      (2M+1)^N`` (equality cannot occur) moves ``M`` to the correctly
      rounded root.  The test raises 54-bit integers to the N-th power, so
      its cost grows faster than N: a four-cell chain takes about 1.8 ms at
      N = 100, 4.6 ms at N = 200, 15 ms at N = 400 and 145 ms at N = 1100.

    ``theta`` and ``one_minus`` are the floats ``theta`` and ``1 - theta``,
    the latter correctly rounded (it is at least 2^-53); ``mp`` holds the
    two as mpmath tuples once :mod:`branchfix._extended` has made them for
    a Newton start.  ``calls`` counts the evaluations.
    """

    __slots__ = ("n", "theta", "one_minus", "mp", "calls",
                 "_tm", "_te", "_cm", "_ce", "_inv", "_shift")

    def __init__(self, params: CascadeParams) -> None:
        n = self.n = int(params.N)
        self.theta = float(params.theta)
        self.one_minus = 1.0 - self.theta
        self.mp = None
        self.calls = 0
        self._tm, self._te = _pair(self.theta)
        self._cm, self._ce = _pair(self.one_minus)
        self._inv = 1.0 / n
        self._shift = 53 * n - 52  # 2^(53N) a = M_a << (k + _shift), a = M_a 2^(k-52)

    def root(self, m: float, e: int) -> tuple:
        """The correctly rounded N-th root of ``m 2^e`` as a pair."""
        n = self.n
        if n == 2:
            return math.sqrt(m + m) if e & 1 else math.sqrt(m), e >> 1
        re, k = divmod(e, n)
        t = int(m * _TWO52) << (k + self._shift)
        inv = self._inv
        man = int(math.ldexp(m, k & 1023) ** inv * 2.0 ** ((k & ~1023) * inv) * _TWO52)
        while True:
            if t < (man + man - 1) ** n:
                man -= 1
            elif t >= (man + man + 1) ** n:
                man += 1
            else:
                break
        return (1.0, re + 1) if man >> 53 else (man * _ULP, re)

    def pair(self, m: float, e: int) -> tuple:
        """``G(m 2^e)`` as a pair, for ``m 2^e`` in (0, 1]."""
        self.calls += 1
        r, re = self.root(m, e)
        # (1 - theta) u is (m cm) 2^(re + d) with m cm in [1, 4), d <= 0
        d = max(e + self._ce - re, -_SHIFT_CLAMP)
        q, k = math.frexp((r - math.ldexp(m * self._cm, d)) / self._tm)
        return q + q, re - self._te + k - 1


def g_eval_mp(params: CascadeParams, u):
    """53-bit, unbounded-exponent evaluation of ``g`` (no underflow), as an
    mpmath ``mpf``."""
    if u < 0 or u > 1:
        raise ValueError(f"u = {u!r} outside [0, 1]")
    ext = _ext()
    return ext.make_mpf(ext.image(_G(params), ext.rounded(u)))


def u_star(params: CascadeParams) -> float:
    """Location of the interior maximum of ``g`` in the supercritical regime.

    Solves ``g'(u) = 0``: ``u* = (N (1-theta))^(-N/(N-1))``.  For critical or
    subcritical parameters, as :func:`classify` decides them, ``g`` is
    increasing throughout and 1.0 is returned.
    """
    if classify(params) != SUPERCRITICAL:
        return 1.0
    n = params.N
    return (n * (1.0 - params.theta)) ** (-n / (n - 1.0))


def _mp_preimage(g: _G, y, hi):
    """Preimage of ``y`` under the increasing branch of ``g``, at 53 bits.

    With ``G`` the 53-bit evaluation ``g`` makes, returns ``(x, exact)``
    for the transition float ``x <= hi``: ``G(pred x) < y <= G(x)``, where
    ``pred x`` is the float just below ``x``, and ``exact`` is
    ``G(x) == y``.  Where ``G`` is nondecreasing around the root, ``x`` is
    the least float with ``G(x) >= y``: the least exact hit when one
    exists, else the float just above the root.  ``(hi, False)`` when
    ``G(hi) < y``, and ``(0, True)`` for ``y = 0``.

    The search runs on the integer float indices of ``_extended.index``.
    It starts at the Newton estimate ``_extended.newton_root`` rounded to
    53 bits (clamped to ``hi``), gallops in 1, 2, 4, ... ulps away from the
    side it starts on until ``G`` crosses ``y``, then bisects the bracket of
    indices; each ``G`` is one evaluation, counted on ``g.calls``.  Where
    ``G`` is monotone the start does not change the result; only near the
    peak of ``g``, where ``G`` is not, can it decide which transition is
    found.  Either way ``G`` at ``x`` and ``pred x`` checks the result.
    ``G`` runs on pairs (:meth:`_G.pair`), so the only extended-precision
    values are the ends of the search, which :mod:`branchfix._extended`
    makes and reads.
    """
    ext = _ext()
    y, hi = ext.rounded(y), ext.rounded(hi)
    ym, ye = ext.to_pair(y)
    if ym == 0.0:
        return ext.make_mpf(y), True
    top = ext.index(hi)
    start = min(ext.newton_start(g, y), top)
    pair = g.pair

    def below(i: int) -> tuple:
        """``(G(x_i) < y, G(x_i) == y)`` for the float ``x_i`` of index ``i``."""
        vm, ve = pair(1.0 + (i & _MASK) * _ULP, (i >> 52) + 51)  # the pair of x_i
        return ve < ye or (ve == ye and vm < ym), ve == ye and vm == ym

    under, exact = below(start)
    # G(lo) < y <= G(up); None until the gallop finds that side
    lo, up = (start, None) if under else (None, start)
    step = 1
    while lo is None or up is None:
        if up is None and lo == top:
            return ext.make_mpf(hi), False
        i = min(lo + step, top) if up is None else up - step
        under, hit = below(i)
        if under:
            lo = i
        else:
            up, exact = i, hit
        step += step
    while up - lo > 1:
        mid = (lo + up) >> 1
        under, hit = below(mid)
        if under:
            lo = mid
        else:
            up, exact = mid, hit
    return ext.make_mpf(ext.float_at(up)), exact


def _inverse_walk(g: _G, y, hi):
    """``(target, x, exact)`` per cell, endlessly: :func:`_mp_preimage` of
    ``y`` under ``hi``, then of each cell under itself."""
    while True:
        x, exact = _mp_preimage(g, y, hi)
        yield y, x, exact
        y = hi = x


class ThresholdChain(NamedTuple):
    """The exact threshold chain and the work that found it."""

    values: list
    flags: list
    g_evaluations: int


def exact_threshold_chain(params: CascadeParams, n: int) -> ThresholdChain:
    """Thresholds ``a_0 .. a_n`` as 53-bit unbounded-exponent floats.

    ``a_0`` is the preimage of 1 on the increasing branch and each further
    ``a_{k+1}`` the preimage of ``a_k``; the per-step ``exact`` flags state
    whether ``g(a_{k+1})`` reproduces ``a_k`` bit for bit.
    ``g_evaluations`` counts the chain's ``g`` evaluations.  Supercritical
    parameters only.
    """
    if classify(params) != SUPERCRITICAL:
        raise ValueError("threshold sequence exists only in the supercritical regime")
    if n < 0:
        raise ValueError("n must be >= 0")
    g = _G(params)
    values, flags = [], []
    for _, (_, x, exact) in zip(range(n + 1), _inverse_walk(g, 1.0, u_star(params))):
        if values and not x < values[-1]:
            raise RuntimeError("threshold chain failed to decrease strictly")
        values.append(x)
        flags.append(exact)
    return ThresholdChain(values, flags, g.calls)


def a_sequence(params: CascadeParams, n: int, tol: float = 1e-13) -> np.ndarray:
    """Float64 projection of the exact threshold chain ``a_0 .. a_n``.

    Entries below the float64 range project to 0.0; the underlying chain is
    strictly decreasing and satisfies ``|g(a_k) - a_{k-1}| <= tol`` (it is
    bit-exact whenever an exact preimage exists).
    """
    values, flags, _ = exact_threshold_chain(params, n)
    g = _G(params)
    for k, (y, x, ok) in enumerate(zip([1.0] + values, values, flags)):
        if not ok and _ext().miss(g, x, y) > tol:
            raise RuntimeError(f"threshold a_{k} missed its defining identity beyond {tol!r}")
    return np.array([float(v) for v in values])


# ---------------------------------------------------------------------------
# explicit supercritical solution
# ---------------------------------------------------------------------------


@dataclass
class CascadeSolution:
    """Explicit supercritical step solution, exact chain plus float curve.

    The survival function is 1 on ``(0, c]`` and ``a_n`` on
    ``(c e^n, c e^{n+1}]``.  ``a`` is the float64 projection of the exact
    53-bit chain ``a_exact``; ``underflow_index`` marks the first threshold
    that is not representable in float64 (``None`` if all are).
    ``g_evaluations`` counts the chain's ``g`` evaluations.
    """

    params: CascadeParams
    scale: float
    depth: int
    below: int
    a: np.ndarray
    a_exact: list
    exact_flags: list
    underflow_index: Optional[int]
    curve: SurvivalCurve
    g_evaluations: int

    def cells(self):
        """Cell indices ``n`` carried by the curve (values ``a_n`` or 1)."""
        return list(range(-self.below, self.depth + 1))


def explicit_solution(
    params: CascadeParams, scale: float = 1.0, depth: int = 30, below: int = 1
) -> CascadeSolution:
    """Construct the explicit lattice-step solution ``F̄(t/scale)``.

    ``depth`` is the last stored threshold cell and ``below`` the number of
    stored unit cells under the scale point.  Supercritical only.
    """
    if scale <= 0.0 or not math.isfinite(scale):
        raise ValueError("scale must be positive and finite")
    if depth < 0 or below < 1:
        raise ValueError("need depth >= 0 and below >= 1")
    chain = exact_threshold_chain(params, depth)
    floats = np.array([float(v) for v in chain.values])
    under = np.nonzero(floats == 0.0)[0]
    underflow_index = int(under[0]) if len(under) else None

    # Lattice points are the right endpoints c e^{n+1} of the cells
    # (c e^n, c e^{n+1}]; residue decomposition keeps them in [1, e) form.
    log_c = math.log(scale)
    kappa = math.floor(log_c)
    residue = math.exp(log_c - kappa)
    if residue >= math.e:  # log rounding at the boundary
        residue = 1.0
        kappa += 1
    spec = LatticeSpec(math.e, (residue,), kappa - below + 1, kappa + depth + 1)
    curve = SurvivalCurve(
        grid=spec.points(), values=np.concatenate([np.ones(below), floats]), lattice=spec
    )
    return CascadeSolution(
        params, scale, depth, below, floats, chain.values, chain.flags, underflow_index,
        curve, chain.g_evaluations,
    )


@dataclass(frozen=True)
class StepIdentityReport:
    """One-step recursion residuals, ``residuals[i]`` on the cell ``cells[i]``."""

    cells: np.ndarray
    residuals: np.ndarray
    max_residual: float
    exact: bool


def step_identity_residual(solution: CascadeSolution) -> StepIdentityReport:
    """Residuals ``|v_{n-1} - g(v_n)|`` over every stored cell, exact chain.

    Computed on the 53-bit unbounded-exponent chain, so double-exponentially
    small thresholds do not fake a zero residual through underflow.
    """
    miss = _ext().miss
    g = _G(solution.params)
    cells = np.arange(-solution.below, solution.depth + 1)
    # the cell values v_n from n = -below - 1 on: 1 below the scale point
    values = [1.0] * (solution.below + 1) + list(solution.a_exact)
    res = np.array([float(miss(g, v_n, v_prev)) for v_prev, v_n in zip(values, values[1:])])
    mx = float(np.max(res)) if len(res) else 0.0
    return StepIdentityReport(cells, res, mx, mx == 0.0)


# ---------------------------------------------------------------------------
# seed extension (critical / subcritical)
# ---------------------------------------------------------------------------


@dataclass
class SeedFunction:
    """Left-continuous nonincreasing step seed on ``(1, e]``.

    ``grid`` must be increasing inside ``(1, e]`` and end exactly at ``e``;
    ``values[j]`` is the value on the cell ending at ``grid[j]``, inside
    (0, 1) strictly.
    """

    grid: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        self.grid = np.asarray(self.grid, dtype=np.float64)
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.grid.ndim != 1 or len(self.grid) == 0:
            raise ValueError("seed grid must be a nonempty 1-d array")
        if self.values.shape != self.grid.shape:
            raise ValueError("seed values and grid must have the same shape")
        if np.any(np.diff(self.grid) <= 0.0):
            raise ValueError("seed grid must be strictly increasing")
        if self.grid[0] <= 1.0 or self.grid[-1] > math.e * (1.0 + 1e-12):
            raise ValueError("seed grid must lie in (1, e]")
        if abs(self.grid[-1] - math.e) > 1e-12:
            raise ValueError("seed grid must end at e (the value f(e) anchors the extension)")
        if np.any(self.values <= 0.0) or np.any(self.values >= 1.0):
            raise ValueError("seed values must lie strictly inside (0, 1)")
        if np.any(np.diff(self.values) > 0.0):
            raise ValueError("seed values must be nonincreasing")

    def at_e(self) -> float:
        return float(self.values[-1])


def seed_defect(params: CascadeParams, seed: SeedFunction) -> float:
    """How far the seed breaks ``f(t) <= g(f(e))``; 0 means admissible."""
    bound = g_eval(params, seed.at_e())
    return max(0.0, float(np.max(seed.values)) - bound)


def extend_from_seed(
    params: CascadeParams,
    seed: SeedFunction,
    n_lo: int = -20,
    n_hi: int = 20,
    tol: float = 1e-13,
) -> SurvivalCurve:
    """Extend a seed on ``(1, e]`` to a lattice-step curve over all cells.

    Cell ``(e^n, e^{n+1}]`` at seed residue ``s`` carries the ``|n|``-fold
    ``g``-iterate (``n < 0``) or ``g``-inverse iterate (``n > 0``) of the
    seed value.  Requires the critical or subcritical regime and an
    admissible seed.

    Each inverse cell is the transition float of the cell before it (see
    :func:`_mp_preimage`), held to ``|g(y_k) - y_{k-1}| <= tol``.  A seed
    point's inverse chain stops after the first cell ``k`` whose value
    projects to ``0.0`` and is itself ``<= tol``; every deeper cell is
    ``0.0``, with no ``g`` evaluated.  Both are what the full chain would
    give.  A preimage lies in ``(0, y]`` (the search is clamped to
    ``hi = y``), so the chain decreases and every deeper value projects to
    ``0.0`` too.  A deeper cell ``j > k`` has a target
    ``0 < t = y_{j-1} <= y_k <= tol``, and its value ``x`` has
    ``G(pred x) < t <= G(x)`` for the adjacent floats ``pred x < x``, a
    relative step of at most ``2^-52``.  ``g`` is concave with ``g(0) = 0``,
    so ``g(x) <= (1 + 2^-52) g(pred x)``, and ``G`` is ``g`` within a relative
    ``eps``, the root's error plus two roundings: ``0 <= G(x) - t < G(x) -
    G(pred x) <= (2^-52 + 3 eps) t / (1 - eps)``, below ``t`` for ``eps <
    1/5``.  The root is correctly rounded for every N, within a relative
    ``2^-53``, so ``eps < 2^-51`` and the check passes.  A ``tol`` below
    every value, ``tol = 0`` for one, never stops a chain: every cell is
    computed and checked, and the first failed check raises as before.
    """
    regime = classify(params)
    if regime == SUPERCRITICAL:
        raise ValueError(
            "seed extension requires the critical or subcritical regime; "
            "supercritical solutions are the explicit scaled step functions"
        )
    defect = seed_defect(params, seed)
    if defect > 0.0:
        raise ValueError(
            f"seed violates f(t) <= g(f(e)) by {defect!r}; not a valid seed"
        )
    if n_lo > 0 or n_hi < 0 or n_lo >= n_hi:
        raise ValueError("need n_lo <= 0 <= n_hi with n_lo < n_hi")
    if not tol >= 0.0:
        raise ValueError("tol must be >= 0")

    miss = _ext().miss
    # Chains per seed point over n in [n_lo - 1, n_hi]; the extra -1 entry
    # serves the residue-1 column, whose exponent is shifted by one.
    ups = -(n_lo - 1)
    chains = []
    g = _G(params)
    for v in seed.values:
        chain = {0: float(v)}
        for k in range(1, ups + 1):
            # clip: float rounding near the fixed point 1 can overshoot by an ulp
            chain[-k] = min(1.0, g_eval(params, min(chain[1 - k], 1.0)))
        # The inverse chain leaves float64 range within a few cells, so it runs
        # in unbounded-exponent 53-bit floats; cells past that project to 0.0.
        top = float(v)
        for k, (t, y, exact) in zip(range(1, n_hi + 1), _inverse_walk(g, top, top)):
            if not exact and miss(g, y, t) > tol:
                raise RuntimeError(f"inverse chain missed its defining identity beyond {tol!r}")
            chain[k] = float(y)
            if chain[k] == 0.0 and y <= tol:  # the stop rule in the docstring
                chain.update(dict.fromkeys(range(k + 1, n_hi + 1), 0.0))
                break
        chains.append(chain)

    residues = np.concatenate([[1.0], seed.grid[:-1]])  # 1, then the seed points inside (1, e)
    spec = LatticeSpec(math.e, residues, n_lo, n_hi)
    grid = spec.points()
    values = np.empty(len(grid))
    # a row per exponent m; residue 1.0 at exponent m is the seed point e one cell down
    spec.table(values)[:] = [[chains[-1][m - 1]] + [chain[m] for chain in chains[:-1]]
                             for m in range(n_lo, n_hi + 1)]
    # Forward iterates near 1 can stall an ulp below 1.0 in one column while
    # the next column reaches 1.0; such a one-ulp rise is clamped to the
    # nonincreasing order, and a larger one still fails the curve's check.
    floor = np.minimum.accumulate(values)
    np.copyto(values, floor, where=values <= np.nextafter(floor, 2.0))
    return SurvivalCurve(grid=grid, values=values, lattice=spec)


def restrict_to_seed(curve: SurvivalCurve) -> SeedFunction:
    """Restriction of a lattice-step curve (r = e) to the seed window (1, e]."""
    lat = curve.lattice
    if lat is None or abs(lat.r - math.e) > 1e-12:
        raise ValueError("seed restriction needs a lattice-step curve with ratio e")
    if abs(lat.residues[0] - 1.0) > 1e-12:
        raise ValueError("seed restriction needs residue 1 on the curve lattice")
    values = lat.table(curve.values)
    # the interior residues at exponent 0, then residue 1 at exponent 1: the point e
    vals = np.concatenate([values[lat.row(0), 1:], [values[lat.row(1), 0]]])
    return SeedFunction(np.concatenate([lat.residues[1:], [math.e]]), vals)


def curve_step_residuals(params: CascadeParams, curve: SurvivalCurve) -> StepIdentityReport:
    """Float64 one-step residuals ``|v(t/e) - g(v(t))|`` across a lattice curve."""
    lat = curve.lattice
    if lat is None or abs(lat.r - math.e) > 1e-12:
        raise ValueError("step residuals need a lattice-step curve with ratio e")
    vals = lat.table(curve.values)
    res = np.array([abs(v - g_eval(params, w)) for v, w in zip(vals[:-1].flat, vals[1:].flat)])
    # one residual per (exponent, residue), labelled with its lower exponent
    cells = np.repeat(np.arange(lat.n_lo, lat.n_hi), len(lat.residues))
    mx = float(np.max(res)) if len(res) else 0.0
    return StepIdentityReport(cells, res, mx, mx == 0.0)


# ---------------------------------------------------------------------------
# escape iteration (uniqueness mechanism)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EscapeReport:
    """Trajectory of ``g``-iterates from a supercritical start value."""

    start: float
    trajectory: np.ndarray
    iterations: int
    exceeded: bool
    reached_one: bool


def escape_check(params: CascadeParams, x: float, tol_one: float = 1e-12) -> EscapeReport:
    """Iterate ``g`` from ``x`` until the value escapes above 1 or hits 1.

    In the supercritical regime a start strictly between consecutive
    thresholds escapes above 1 (no fixed point can take such a value); a
    start exactly at a threshold walks the chain up to exactly 1 and stays.
    ``reached_one`` means ``|value - 1| <= tol_one`` before any escape.  At
    most 100 iterates are taken.
    """
    if classify(params) != SUPERCRITICAL:
        raise ValueError("escape check applies to the supercritical regime")
    if not (0.0 < x < 1.0):
        raise ValueError("x must lie strictly inside (0, 1)")
    traj = [x]
    cur = x
    exceeded = False
    reached = False
    iters = 0
    for _ in range(100):
        cur = g_eval(params, min(cur, 1.0))
        traj.append(cur)
        iters += 1
        if abs(cur - 1.0) <= tol_one:
            reached = True
            break
        if cur > 1.0:
            exceeded = True
            break
    return EscapeReport(x, np.array(traj), iters, exceeded, reached)


# ---------------------------------------------------------------------------
# modulation recovery
# ---------------------------------------------------------------------------


def extract_modulation(params, curve: SurvivalCurve, phi, alpha: float):
    """Recover the periodic modulation of a subcritical mixture curve.

    Inverts the empirical Laplace transform at each residue value of the
    curve (``h(s) = φ̂^{-1}(F̄(s)) s^{-alpha}``) by monotone bisection.
    Requires every queried value strictly inside (0, 1), and ``params`` a
    :class:`CascadeParams` or a :class:`~branchfix.weights.BernoulliCascade`
    (``theta`` inside (0, 1)) in the subcritical regime.
    """
    try:
        n, theta = params.N, params.theta
    except AttributeError:
        raise ValueError(
            "modulation recovery needs CascadeParams or a BernoulliCascade, "
            f"not {type(params).__name__}"
        ) from None
    params = CascadeParams(n, theta)
    if classify(params) != SUBCRITICAL:
        raise ValueError("modulation recovery applies to the subcritical regime")
    lat = curve.lattice
    if lat is None:
        raise ValueError("modulation recovery needs a lattice-step curve")
    res_vals = lat.table(curve.values)[lat.row(0)]
    hs = np.empty(len(res_vals))
    for j, (s, v) in enumerate(zip(lat.residues, res_vals)):
        if not (0.0 < v < 1.0):
            raise ValueError(
                f"curve value {v!r} at residue {s!r} is not strictly inside (0, 1)"
            )
        x = _invert_laplace(phi, float(v))
        hs[j] = x * s ** (-alpha)
    return PeriodicModulation(lat.r, lat.residues, hs)


def _invert_laplace(phi, v: float) -> float:
    """Solve ``φ̂(x) = v`` for the monotone empirical transform: double the
    bracket ``[0, 1]`` at most 200 times, then bisect to within 1e-12."""
    lo, hi = 0.0, 1.0
    val_hi = phi.evaluate(hi)
    expand = 0
    while val_hi > v:
        lo, hi = hi, hi * 2.0
        val_hi = phi.evaluate(hi)
        expand += 1
        if expand > 200:
            raise ValueError(
                f"curve value {v!r} is below the reachable range of the transform"
            )
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        val = phi.evaluate(mid)
        if abs(val - v) <= 1e-12:
            return mid
        if val > v:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-15 * max(1.0, hi):
            break
    return 0.5 * (lo + hi)
