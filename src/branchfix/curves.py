"""Discretized monotone curves on positive grids.

Two curve types share one representation: :class:`SurvivalCurve` for
``t -> P(X > t)`` (nonincreasing, values in [0, 1], value 1 at 0+) and
:class:`LaplaceCurve` for ``x -> E exp(-x X)`` (additionally convex).

A curve interpolates unless it carries a :class:`LatticeSpec`:

* without one, values are interpolated linearly in ``log t`` between grid
  points and clamped to the end values outside the grid (clamping is
  always reported to the caller);
* with one, the curve is piecewise constant on the multiplicative lattice
  ``{s * r^n}`` the spec names, and its grid is that lattice's points
  (left-continuous: the stored value at a lattice point is the value on
  the cell ending there).  Lookups must hit a lattice point within relative
  tolerance 1e-9; anything else is an error, because off-lattice evaluation
  of a step curve would silently invent data.

The spec owns the layout of a step curve's values: they follow
:meth:`LatticeSpec.points`, a row per exponent ``n_lo..n_hi`` and a column
per residue.  :meth:`LatticeSpec.table` reads them as that table and
:meth:`LatticeSpec.row` gives the row of an exponent.

Every curve stores a ``tail`` array holding ``1 - value``.  A caller may
pass one computed at full relative accuracy, which matters when values are
within float rounding distance of 1; without one the curve stores
``1 - values``.  Either way it is checked against the values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

_LOOKUP_TOL = 1e-9


class OffLatticeError(ValueError):
    """A lattice-step curve was evaluated off its lattice."""


class CurveShapeError(ValueError):
    """Curve data violates monotonicity / range / convexity requirements."""


def log_grid(lo: float = 1e-6, hi: float = 1e6, points: int = 512) -> np.ndarray:
    """Geometrically spaced grid for interpolated curves."""
    if not (0.0 < lo < hi) or points < 2:
        raise ValueError("need 0 < lo < hi and points >= 2")
    return np.geomspace(lo, hi, points)


def dyadic_grid(points: int = 512, per_octave: int = 12) -> np.ndarray:
    """Powers-of-two-aligned grid: ``2^((j - points//2) / per_octave)``.

    Halving any grid point lands exactly on another grid point (or exactly
    one octave below the bottom), which keeps operator lookups for dyadic
    weight models interpolation-free.
    """
    if points < 2 or per_octave < 1:
        raise ValueError("need points >= 2 and per_octave >= 1")
    j = np.arange(points) - points // 2
    return np.exp2(j / per_octave)


def lattice_points(r: float, residues: Sequence[float], n_lo: int, n_hi: int) -> np.ndarray:
    """All points ``s * r^n`` for ``s`` in residues, ``n_lo <= n <= n_hi``, sorted."""
    residues = np.asarray(residues, dtype=np.float64)
    powers = r ** np.arange(n_lo, n_hi + 1, dtype=np.float64)
    return (powers[:, None] * residues[None, :]).reshape(-1)


def _residues(residues, period: float) -> np.ndarray:
    """Residues of one period as float64, checked: nonempty, 1-d, strictly
    increasing, finite and in ``[1, period)``."""
    res = np.asarray(residues, dtype=np.float64)
    if res.ndim != 1 or len(res) == 0:
        raise CurveShapeError("residues must be a nonempty 1-d array")
    if np.any(np.diff(res) <= 0.0):
        raise CurveShapeError("residues must be strictly increasing")
    if not np.all((res >= 1.0) & (res < period)):
        raise CurveShapeError("residues must be finite and lie in [1, period)")
    return res


@dataclass(frozen=True)
class LatticeSpec:
    """The lattice of a lattice-step curve: points ``s * r^n``.

    Checked: ``r > 1``; residues nonempty, strictly increasing, finite and
    in ``[1, r)``, stored as a tuple of floats; integers ``n_lo <= n_hi``.
    """

    r: float
    residues: tuple = (1.0,)
    n_lo: int = -40
    n_hi: int = 40

    def __post_init__(self) -> None:
        if not self.r > 1.0:
            raise CurveShapeError("lattice ratio r must exceed 1")
        res = _residues(self.residues, self.r)
        object.__setattr__(self, "residues", tuple(float(s) for s in res))
        ends = (self.n_lo, self.n_hi)
        if not all(isinstance(n, (int, np.integer)) and not isinstance(n, bool)
                   for n in ends):
            raise CurveShapeError("lattice exponents n_lo and n_hi must be integers")
        if self.n_lo > self.n_hi:
            raise CurveShapeError("lattice exponents need n_lo <= n_hi")

    def points(self) -> np.ndarray:
        return lattice_points(self.r, self.residues, self.n_lo, self.n_hi)

    def table(self, values) -> np.ndarray:
        """``values`` in :meth:`points` order as an exponent × residue table:
        row ``i`` holds exponent ``n_lo + i``, column ``j`` residue ``j``."""
        return np.asarray(values).reshape(self.n_hi - self.n_lo + 1, len(self.residues))

    def row(self, n: int) -> int:
        """The :meth:`table` row of exponent ``n``; ``ValueError`` off the spec."""
        if not self.n_lo <= n <= self.n_hi:
            raise ValueError(f"the lattice must cover exponent {n}; "
                             f"it has n in [{self.n_lo}, {self.n_hi}]")
        return n - self.n_lo


def _validate_grid(grid: np.ndarray) -> None:
    if grid.ndim != 1 or len(grid) < 1:
        raise CurveShapeError("grid must be a nonempty 1-d array")
    if not np.all(np.isfinite(grid)) or grid[0] <= 0.0:
        raise CurveShapeError("grid must be positive and finite")
    if np.any(np.diff(grid) <= 0.0):
        raise CurveShapeError("grid must be strictly increasing")


def _validate_values(values: np.ndarray, grid: np.ndarray, tail) -> None:
    if values.shape != grid.shape:
        raise CurveShapeError("values and grid must have the same shape")
    if not np.all(np.isfinite(values)):
        raise CurveShapeError("values must be finite")
    if np.any(values < 0.0) or np.any(values > 1.0):
        raise CurveShapeError("values must lie in [0, 1]")
    if np.any(np.diff(values) > 0.0):
        raise CurveShapeError("values must be nonincreasing")
    if tail.shape != grid.shape:
        raise CurveShapeError("tail and grid must have the same shape")
    if np.any(tail < 0.0) or np.any(tail > 1.0) or np.any(np.diff(tail) < 0.0):
        raise CurveShapeError("tail must be nondecreasing in [0, 1]")
    if np.max(np.abs((1.0 - values) - tail)) > 1e-12:
        raise CurveShapeError("tail is inconsistent with 1 - values")


@dataclass
class _MonotoneCurve:
    grid: np.ndarray
    values: np.ndarray
    lattice: Optional[LatticeSpec] = None
    tail: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        self.grid = np.asarray(self.grid, dtype=np.float64)
        self.values = np.asarray(self.values, dtype=np.float64)
        self.tail = np.asarray(1.0 - self.values if self.tail is None else self.tail,
                               dtype=np.float64)
        _validate_grid(self.grid)
        _validate_values(self.values, self.grid, self.tail)
        self._log_grid = np.log(self.grid)
        if self.lattice is not None:
            expect = np.log(self.lattice.points())
            if (expect.shape != self.grid.shape
                    or np.max(np.abs(self._log_grid - expect)) > _LOOKUP_TOL):
                raise CurveShapeError("grid points do not match the declared lattice")
            self._log_r = math.log(self.lattice.r)
            self._log_res = np.log(self.lattice.residues)

    # -- evaluation -----------------------------------------------------

    def _lattice_index(self, log_t: np.ndarray):
        """Map log-arguments to flat lattice indices; raise when off-lattice."""
        q = len(self._log_res)
        rel = (log_t[:, None] - self._log_res[None, :]) / self._log_r
        m = np.round(rel)
        err = np.abs(log_t[:, None] - (self._log_res[None, :] + m * self._log_r))
        best = np.argmin(err, axis=1)
        rows = np.arange(len(log_t))
        err_best = err[rows, best]
        tol = _LOOKUP_TOL * np.maximum(1.0, np.abs(log_t))
        if np.any(err_best > tol):
            i = int(np.argmax(err_best - tol))
            raise OffLatticeError(
                f"argument {math.exp(float(log_t[i]))!r} is not on the lattice "
                f"(log-distance {float(err_best[i])!r})"
            )
        n = m[rows, best].astype(np.int64)
        flat = (n - self.lattice.n_lo) * q + best
        clamped = (flat < 0) | (flat >= len(self.grid))
        return np.clip(flat, 0, len(self.grid) - 1), clamped

    def eval_many(self, ts):
        """Vectorized evaluation: returns ``(values, clamped_mask)``."""
        ts = np.asarray(np.atleast_1d(ts), dtype=np.float64)
        if np.any(ts < 0.0) or not np.all(np.isfinite(ts)):
            raise ValueError("arguments must be finite and >= 0")
        out = np.empty(ts.shape)
        clamped = np.zeros(ts.shape, dtype=bool)
        zero = ts == 0.0
        pos = ~zero
        if np.any(pos):
            log_t = np.log(ts[pos])
            if self.lattice is None:
                out_pos = np.interp(log_t, self._log_grid, self.values)
                cl = (log_t < self._log_grid[0]) | (log_t > self._log_grid[-1])
            else:
                idx, cl = self._lattice_index(log_t)
                out_pos = self.values[idx]
            out[pos] = out_pos
            clamped[pos] = cl
        out[zero] = 1.0
        return out, clamped

    def eval(self, t: float):
        """Evaluate at one point: returns ``(value, clamped)``; ``t = 0`` gives 1."""
        vals, cl = self.eval_many(np.array([float(t)]))
        return float(vals[0]), bool(cl[0])


@dataclass
class SurvivalCurve(_MonotoneCurve):
    """Discretized survival function ``F̄`` (min-type fixed-point candidate)."""


@dataclass
class LaplaceCurve(_MonotoneCurve):
    """Discretized Laplace transform ``φ`` — also convex in its argument.

    ``convexity_defect`` records the largest amount by which a value exceeds
    the chord through its neighbors; anything above 1e-9 is rejected.
    """

    convexity_defect: float = field(init=False)

    def __post_init__(self) -> None:
        super().__post_init__()
        self.convexity_defect = float(convexity_defect(self.grid, self.values))
        if self.convexity_defect > 1e-9:
            raise CurveShapeError(
                f"values violate convexity by {self.convexity_defect!r} (> 1e-9)"
            )


def convexity_defect(grid: np.ndarray, values: np.ndarray) -> float:
    """Largest violation of the chord inequality across consecutive triples."""
    if len(grid) < 3:
        return 0.0
    t0, t1, t2 = grid[:-2], grid[1:-1], grid[2:]
    lam = (t1 - t0) / (t2 - t0)
    chord = (1.0 - lam) * values[:-2] + lam * values[2:]
    return max(0.0, float(np.max(values[1:-1] - chord)))


@dataclass
class PeriodicModulation:
    """Multiplicatively periodic step modulation ``h`` with period ``r``.

    ``h`` is constant on the residue cells ``(s_{j-1}, s_j]`` of ``[1, r)``
    (wrapping below ``s_0``) and extended by ``h(r t) = h(t)``.  Constant
    modulations are ``PeriodicModulation(r, [1.0], [c])``.
    """

    period: float
    residues: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.period <= 1.0:
            raise CurveShapeError("period must exceed 1")
        self.residues = _residues(self.residues, self.period)
        if self.values.shape != self.residues.shape:
            raise CurveShapeError("values and residues must have the same shape")
        if np.any(self.values <= 0.0) or not np.all(np.isfinite(self.values)):
            raise CurveShapeError("modulation values must be strictly positive and finite")

    @property
    def is_constant(self) -> bool:
        return len(self.values) == 1 or bool(np.all(self.values == self.values[0]))

    def eval_many(self, ts) -> np.ndarray:
        ts = np.atleast_1d(np.asarray(ts, dtype=np.float64))
        if np.any(ts <= 0.0):
            raise ValueError("modulation arguments must be > 0")
        log_r = math.log(self.period)
        frac = np.log(ts) / log_r
        frac -= np.floor(frac)
        log_res = np.log(self.residues)
        # The -tol nudge keeps arguments a rounding error above a residue in
        # that residue's cell instead of spilling into the next one.
        j = np.searchsorted(log_res, frac * log_r - _LOOKUP_TOL, side="left")
        # cells are (s_{j-1}, s_j]; arguments above the last residue wrap to s_0
        j = np.where(j >= len(self.residues), 0, j)
        return self.values[j]

    def eval(self, t: float) -> float:
        return float(self.eval_many(np.array([float(t)]))[0])

    def weibull_defect(self, alpha: float) -> float:
        """How far ``s -> h(s) s^alpha`` is from nondecreasing on a period.

        Checks the within-period steps and the wrap seam ``h(r) r^alpha >=
        h(s_last) s_last^alpha`` (equivalently the left limit at the period
        boundary).  0 means admissible.
        """
        g = self.values * self.residues**alpha
        defect = 0.0
        if len(g) > 1:
            defect = max(defect, float(np.max(g[:-1] - g[1:])))
        # wrap seam: the next sample after s_q is s_1 one period up
        seam = self.values[0] * (self.period * self.residues[0]) ** alpha - g[-1]
        defect = max(defect, float(-seam) if seam < 0.0 else 0.0)
        return defect


def constant_modulation(c: float) -> PeriodicModulation:
    """The modulation ``h = c``, on period ``e`` (a constant has every period)."""
    return PeriodicModulation(math.e, np.array([1.0]), np.array([float(c)]))


def pairwise_prod(values: np.ndarray) -> float:
    """Product by recursive halving (balanced binary reduction).

    The reduction tree depends only on the array length, so block products
    of a ``2^j * 2^k`` array computed per-block and then combined reproduce
    the full product bit for bit.
    """
    arr = np.asarray(values, dtype=np.float64)

    def rec(lo: int, hi: int) -> float:
        n = hi - lo
        if n == 1:
            return float(arr[lo])
        if n == 2:
            return float(arr[lo]) * float(arr[lo + 1])
        mid = lo + n // 2
        return rec(lo, mid) * rec(mid, hi)

    if len(arr) == 0:
        return 1.0
    return rec(0, len(arr))

