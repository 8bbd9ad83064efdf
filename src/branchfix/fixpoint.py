"""Fixed-point operators on curves, mixture construction, and verification.

The min-type operator sends a survival curve ``F̄`` to ``t -> E prod_i
F̄(t T_i)``; the sum-type (smoothing) operator sends a Laplace curve ``φ``
to ``x -> E prod_i φ(x T_i)``.  Over a finite-atom weight model both are the
same exact finite expectation, so one function computes both and the class
of the curve (:class:`SurvivalCurve` or :class:`LaplaceCurve`) is all that
tells the readings apart.  It is evaluated on the curve's own grid with
every grid-edge clamp counted and reported.  With ``T`` made of ``copies``
i.i.d. atom draws (:class:`branchfix.weights.AtomTable`) the expectation
factorizes into a ``copies``-th power, so its cost does not grow with the
number of cascade coordinates.

Fixed points are constructed as mixtures driven by the empirical martingale
limit: survival curves ``φ̂_α(h(t) t^α)`` (Weibull scale mixtures, min
case) and Laplace curves ``φ̂_α(p(x) x^α)`` (stable scale mixtures, sum
case).  Their residuals are also measured *sample-side* — the operator
expectation is evaluated directly through the empirical Laplace transform at
exact arguments, with a standard error propagated through the shared Monte
Carlo sample — so mixture verification does not inherit interpolation bias.
The residual takes its arguments from the builders' own ``h(t) t^α``, reads
φ̂ as a tail, and takes the grid operators' factorized atom expectation;
like them, it is one computation for either reading.

The remaining routines classify near-zero regularity (``(1 - F̄(t)) /
t^alpha``), check the generation-(j+k) disintegration of product
functionals over generation-j subtrees, and check the scaled log-transform
decomposition; both checks recompute one finite rearrangement two ways.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from .branching import EmpiricalLaplace, WeightedTree
from .curves import (
    CurveShapeError,
    LaplaceCurve,
    LatticeSpec,
    PeriodicModulation,
    SurvivalCurve,
    constant_modulation,
    pairwise_prod,
)
from .seeding import _BLOCK
from .weights import WeightModel, atom_table

Modulation = Union[PeriodicModulation, float]

# Share of clamped grid lookups above which an operator image carries a warning.
_CLAMP_WARN = 0.05


class GridDepthError(ValueError):
    """The curve grid does not reach deep enough below 1 for the diagnostic."""


def _as_modulation(h: Modulation) -> PeriodicModulation:
    if isinstance(h, PeriodicModulation):
        return h
    return constant_modulation(float(h))


# ---------------------------------------------------------------------------
# operators on grids
# ---------------------------------------------------------------------------


@dataclass
class OperatorResult:
    """Operator image on the input grid plus clamp accounting."""

    curve: object
    point_clamped: np.ndarray
    clamp_fraction: float
    warnings: list = field(default_factory=list)


def apply_operator(curve, model: WeightModel) -> OperatorResult:
    """Operator image ``t -> E prod_i curve(t T_i)`` on the curve grid.

    One expectation serves both readings, computed as
    ``(sum_k p_k prod_{w in atom k} curve(t w))^copies``:

    * on a :class:`SurvivalCurve` ``F̄`` it is the min-type operator
      ``E prod_i F̄(t T_i)``, the survival function of ``min_i X_i / T_i``;
    * on a :class:`LaplaceCurve` ``φ`` it is the smoothing transform
      ``E prod_i φ(x T_i)``, the Laplace transform of ``sum_i T_i X_i``.

    A zero weight contributes ``curve(0) = 1``.
    """
    table = atom_table(model)
    ts = curve.grid
    out = np.zeros(len(ts))
    clamped = np.zeros(len(ts), dtype=bool)
    for p, ws in zip(table.probs, table.full_weights):
        if p == 0.0:
            continue
        prod = np.ones(len(ts))
        for w in ws:
            if w == 0.0:
                continue  # curve(0) = 1 contributes a unit factor
            vals, cl = curve.eval_many(ts * w)
            prod *= vals
            clamped |= cl
        out += p * prod
    out **= table.copies
    np.clip(out, 0.0, 1.0, out=out)
    frac = float(np.mean(clamped))
    warnings = []
    if frac > _CLAMP_WARN:
        warnings.append(
            f"{frac:.1%} of grid points needed clamped lookups "
            f"(threshold {_CLAMP_WARN:.1%}); widen the grid"
        )
    image = type(curve)(grid=ts.copy(), values=out, lattice=curve.lattice)
    return OperatorResult(image, clamped, frac, warnings)


@dataclass
class ResidualReport:
    """Per-point and sup-norm distance between a curve and its operator image.

    ``sup_norm`` is taken over clean (clamp-free) grid points; ``sup_norm_all``
    includes clamped points and is the honest upper bound when every point is
    contaminated.
    """

    residuals: np.ndarray
    sup_norm: float
    sup_norm_all: float
    point_clamped: np.ndarray
    clamp_fraction: float
    image: object
    warnings: list = field(default_factory=list)


def fixed_point_residual(curve, model: WeightModel) -> ResidualReport:
    """Signed residuals ``(operator image - curve)`` on the curve's grid."""
    res = apply_operator(curve, model)
    diff = res.curve.values - curve.values
    clean = ~res.point_clamped
    sup_all = float(np.max(np.abs(diff))) if len(diff) else 0.0
    if np.any(clean):
        sup = float(np.max(np.abs(diff[clean])))
    else:
        sup = math.nan
        res.warnings.append("every grid point is clamped; clean sup-norm undefined")
    return ResidualReport(
        diff, sup, sup_all, res.point_clamped, res.clamp_fraction,
        res.curve, res.warnings,
    )


# ---------------------------------------------------------------------------
# mixture fixed points driven by the empirical limit law
# ---------------------------------------------------------------------------


def _mixture_arguments(h: PeriodicModulation, alpha: float, ts: np.ndarray) -> np.ndarray:
    return h.eval_many(ts) * ts**alpha


def _mixture_curve(phi: EmpiricalLaplace, h, alpha, grid, cls):
    if isinstance(grid, LatticeSpec):
        lattice, ts = grid, grid.points()
    else:
        lattice, ts = None, np.asarray(grid, dtype=np.float64)
    xs = _mixture_arguments(h, alpha, ts)
    if np.any(np.diff(xs) < 0.0):
        raise CurveShapeError(
            "mixture arguments h(t) t^alpha are not nondecreasing along the grid; "
            "the modulation is not admissible"
        )
    tail = phi.evaluate_tail(xs)
    values = 1.0 - tail
    return cls(grid=ts, values=values, lattice=lattice, tail=tail)


def build_weibull_mixture(
    phi: EmpiricalLaplace,
    h: Modulation,
    alpha: float,
    grid,
) -> SurvivalCurve:
    """Survival curve ``t -> φ̂_alpha(h(t) t^alpha)`` on the given grid.

    ``h`` is a positive constant or a periodic modulation whose scaled values
    ``h(s) s^alpha`` must be nondecreasing across residues including the
    period seam; admissibility is re-verified on the actual grid and
    violations raise :class:`CurveShapeError`.
    """
    if alpha <= 0.0:
        raise ValueError("alpha must be > 0")
    hmod = _as_modulation(h)
    defect = hmod.weibull_defect(alpha)
    scale = float(np.max(hmod.values * hmod.residues**alpha))
    if defect > 1e-12 * max(scale, 1.0):
        raise CurveShapeError(
            f"modulation violates scaled monotonicity by {defect!r}"
        )
    return _mixture_curve(phi, hmod, alpha, grid, SurvivalCurve)


def build_stable_mixture(
    phi: EmpiricalLaplace,
    p: Modulation,
    alpha: float,
    grid,
) -> LaplaceCurve:
    """Laplace curve ``x -> φ̂_alpha(p(x) x^alpha)`` on the given grid.

    Admissible exponents are ``0 < alpha <= 1``; for ``alpha = 1`` only
    constant scale functions are admissible (nonconstant periodic scales
    produce no completely monotone transform), and for ``alpha > 1`` there
    are none at all.  Convexity and monotonicity of the result are verified
    on the grid by the :class:`LaplaceCurve` constructor; full complete
    monotonicity of nonconstant scales below 1 is not grid-decidable and is
    not certified here.
    """
    if alpha > 1.0:
        raise ValueError(
            f"alpha = {alpha!r} > 1 admits no scale mixtures of this type"
        )
    if alpha <= 0.0:
        raise ValueError("alpha must be > 0")
    pmod = _as_modulation(p)
    if alpha == 1.0 and not pmod.is_constant:
        raise ValueError(
            "alpha = 1 admits only constant scale functions"
        )
    return _mixture_curve(phi, pmod, alpha, grid, LaplaceCurve)


@dataclass
class MixtureResidualReport:
    """Sample-side operator residuals of a mixture curve with propagated SE.

    At each grid point the operator expectation and the curve value are both
    evaluated through the *same* Monte Carlo sample, and ``se`` is the
    delta-method standard error of their difference (influence function
    aggregated per sample), so ``z = residual / se`` is the calibrated
    discrepancy statistic.
    """

    points: np.ndarray
    residuals: np.ndarray
    se: np.ndarray
    z: np.ndarray
    max_abs_z: float


def mixture_residual_report(
    phi: EmpiricalLaplace,
    h: Modulation,
    alpha: float,
    model: WeightModel,
    points: np.ndarray,
) -> MixtureResidualReport:
    """Residual ``E prod_i φ̂(arg(t T_i)) - φ̂(arg(t))`` with joint-sample SE.

    ``arg(u) = h(u) u^alpha`` comes from the curve builders' own map, on one
    (points x columns) matrix: column 0 is ``t``, then ``t w`` for each
    positive weight of each live atom in atom-table order.  φ̂ is read there
    sample-side as a tail (:meth:`EmpiricalLaplace.evaluate_tail`), with no
    grid interpolation.  The operator
    value is ``A^copies``, ``A = sum_k p_k prod_{w in atom k} φ̂(arg(t w))``
    over each atom's column slice; its tail
    ``(1 - A)(1 + A + ... + A^(copies-1))`` and its gradient ``copies
    A^(copies-1) dA`` go through that power.  Each point's standard error
    comes from the influence function over the shared sample, which takes
    ``exp(-x W) - 1`` where ``φ̂(x) > 1/2`` and ``exp(-x W)`` elsewhere, so
    that no column carries a constant near 1 for the variance to cancel.

    ``z = 0`` where ``|residual| <= 8 eps max(tail(t), operator tail)``: that
    is rounding of two tails, which near 1 is ulps over a tiny SE.  With zero
    SE a residual <= 1e-12 also gives ``z = 0`` (products underflow before
    single factors do), and any other residual ``z = inf``.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 1 or len(pts) == 0:
        raise ValueError("points must be a nonempty 1-d array")
    hmod = _as_modulation(h)
    table = atom_table(model)
    live = [(p, [w for w in ws if w != 0.0])
            for p, ws in zip(table.probs, table.full_weights) if p != 0.0]
    weights = np.array([1.0] + [w for _, ws in live for w in ws])
    x = _mixture_arguments(hmod, alpha, pts[:, None] * weights)
    # Tail means stay fully accurate near 0, where the value means would
    # quantize at one ulp of 1 and swamp small residuals.
    tau = phi.evaluate_tail(x.ravel()).reshape(x.shape)
    mu = 1.0 - tau
    with np.errstate(divide="ignore"):
        log_mu = np.log1p(-tau)
    op_tail = np.zeros(len(pts))   # 1 - A
    op_mean = np.zeros(len(pts))   # A
    grad = np.zeros(x.shape)
    stop = 1
    for p, ws in live:
        cols = slice(stop, stop + len(ws))
        stop = cols.stop
        # 1 - prod(mu_i) via logs: exact cancellation-free product tail
        op_tail += p * -np.expm1(log_mu[:, cols].sum(axis=1))
        op_mean += p * mu[:, cols].prod(axis=1)
        # d prod / d mu_i is the product of the others; no division by mu_i = 0
        others = np.where(np.eye(len(ws), dtype=bool), 1.0, mu[:, None, cols])
        grad[:, cols] = p * others.prod(axis=2)
    op_tail *= sum(op_mean**i for i in range(table.copies))
    grad *= (table.copies * op_mean ** (table.copies - 1))[:, None]
    grad[:, 0] -= 1.0
    residuals = tau[:, 0] - op_tail
    n = len(phi.samples)
    ses = np.full(len(pts), math.inf)
    if n > 1:
        # points per temporary: at most _BLOCK values, or one point's
        # (columns x samples) when that is more; a point is never split
        step = max(1, _BLOCK // (x.shape[1] * n))
        for lo in range(0, len(pts), step):
            rows = slice(lo, lo + step)
            # exp(-x W) minus 1 where φ̂ > 1/2, else as is: each column keeps
            # full relative accuracy, and a constant leaves the variance alone.
            terms = -x[rows, :, None] * phi.samples
            small = np.broadcast_to(tau[rows, :, None] <= 0.5, terms.shape)
            np.expm1(terms, out=terms, where=small)
            np.exp(terms, out=terms, where=~small)
            # the gradient-weighted sum over the columns, in column order (no BLAS)
            terms *= grad[rows, :, None]
            infl = np.add.reduce(terms, axis=1)
            ses[rows] = infl.std(axis=1, ddof=1) / math.sqrt(n)
    scales = np.maximum(tau[:, 0], op_tail)
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(ses > 0.0, residuals / ses,
                     np.where(np.abs(residuals) <= 1e-12, 0.0, np.inf))
    z[np.abs(residuals) <= 8.0 * np.finfo(np.float64).eps * scales] = 0.0
    return MixtureResidualReport(pts, residuals, ses, z, float(np.max(np.abs(z))))


# ---------------------------------------------------------------------------
# regularity of (1 - F̄(t)) / t^alpha near zero
# ---------------------------------------------------------------------------


@dataclass
class RegularityReport:
    """Near-zero behavior of ``D(t) = (1 - F̄(t)) / t^alpha``.

    ``classification`` is one of ``not-regular`` (D vanishes, diverges, or
    trends to 0/infinity), ``elementary-candidate`` (per-residue limits
    stabilize), ``regular`` (bounded within a factor 2 and away from 0),
    ``bounded`` (bounded above but not away from 0), ``inconclusive``.
    """

    alpha: float
    classification: str
    liminf_estimate: float
    limsup_estimate: float
    per_residue: Optional[dict]
    window_points: int
    notes: list = field(default_factory=list)


_CAUCHY_REL = 0.01
_REGULAR_RATIO = 2.0
_TREND_SLOPE = 0.05


def _trend_slope(xs: np.ndarray, ys: np.ndarray):
    """Least-squares slope and R^2 of ys against xs."""
    if len(xs) < 3:
        return 0.0, 0.0
    # the closed-form least-squares line: no LAPACK call, so no kernel-dependent bits
    dx = xs - np.add.reduce(xs) / len(xs)
    dy = ys - np.add.reduce(ys) / len(ys)
    slope = float(np.add.reduce(dx * dy) / np.add.reduce(dx * dx))
    ss_res = float(np.add.reduce((dy - slope * dx) ** 2))
    ss_tot = float(np.add.reduce(dy * dy))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return slope, r2


def regularity_diagnostic(
    curve: SurvivalCurve, alpha: float, window: int = 12
) -> RegularityReport:
    """Classify the near-zero regularity of the curve at exponent ``alpha``.

    Requires the grid to reach at least 6 decades (interpolated grids) or 12
    lattice steps (lattice-step grids) below 1; otherwise raises
    :class:`GridDepthError` rather than classifying from too shallow a
    window.  ``window >= 1`` counts the lattice points used per residue.
    """
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window!r}")
    notes = []
    grid = curve.grid
    logt = np.log(grid)
    d_all = curve.tail * np.exp(-alpha * logt)

    sequences = []  # (label, index array ascending toward deep, D values)
    if curve.lattice is not None:
        residues = curve.lattice.residues
        d_mat = curve.lattice.table(d_all)
        t_mat = curve.lattice.table(grid)
        for col in range(len(residues)):
            below = t_mat[:, col] < 1.0
            if int(below.sum()) < window:
                raise GridDepthError(
                    f"residue {residues[col]!r} has {int(below.sum())} lattice "
                    f"points below 1; need >= {window}"
                )
            dcol = d_mat[below, col]
            take = dcol[:window][::-1]  # deepest first -> ascending toward deep
            sequences.append((residues[col], take))
    else:
        if grid[0] > 1e-6 * (1.0 + 1e-12):
            raise GridDepthError(
                f"grid bottom {grid[0]!r} is less than 6 decades below 1"
            )
        sel = grid <= grid[0] * 100.0
        dsel = d_all[sel][::-1]  # ascending toward deep
        sequences.append((None, dsel))

    window_pts = sum(len(s) for _, s in sequences)
    flat = np.concatenate([s for _, s in sequences])
    limsup_est = float(np.max(flat))
    liminf_est = float(np.min(flat))

    if limsup_est == 0.0:
        notes.append("normalized tail vanishes on the whole window")
        return RegularityReport(
            alpha, "not-regular", 0.0, 0.0, None, window_pts, notes
        )

    # Per-residue stabilization (elementary candidate).
    per_res = {}
    all_cauchy = True
    for label, seq in sequences:
        last = seq[-4:]
        final = float(seq[-1])
        if final > 0.0 and len(last) >= 2 and float(
            np.max(np.abs(np.diff(last)))
        ) <= _CAUCHY_REL * final:
            per_res[label] = final
        else:
            all_cauchy = False
    if all_cauchy:
        return RegularityReport(
            alpha, "elementary-candidate", liminf_est, limsup_est,
            per_res, window_pts, notes,
        )

    if liminf_est > 0.0 and limsup_est / liminf_est <= _REGULAR_RATIO:
        return RegularityReport(
            alpha, "regular", liminf_est, limsup_est, None, window_pts, notes
        )

    # Sustained geometric trend toward 0 or infinity.
    if np.all(flat > 0.0):
        trending = True
        slopes = []
        for _, seq in sequences:
            idx = np.arange(len(seq), dtype=np.float64)
            slope, r2 = _trend_slope(idx, np.log(seq))
            slopes.append(slope)
            if abs(slope) < _TREND_SLOPE or r2 < 0.9:
                trending = False
        if trending and (all(s > 0 for s in slopes) or all(s < 0 for s in slopes)):
            direction = "0" if slopes[0] < 0 else "infinity"
            notes.append(f"normalized tail trends geometrically toward {direction}")
            return RegularityReport(
                alpha, "not-regular", liminf_est, limsup_est, None, window_pts, notes
            )

    if liminf_est <= _CAUCHY_REL * limsup_est:
        notes.append("bounded above but not bounded away from 0 on the window")
        return RegularityReport(
            alpha, "bounded", liminf_est, limsup_est, None, window_pts, notes
        )
    return RegularityReport(
        alpha, "inconclusive", liminf_est, limsup_est, None, window_pts, notes
    )


# ---------------------------------------------------------------------------
# structural identities on simulated trees
# ---------------------------------------------------------------------------


def _subtree_walk(curve, tree: WeightedTree, t_log, level: int, top: int):
    """Curve values at the generation-``level`` arguments ``e^t_log L(v)``,
    the same values with each argument rebased through its generation-``top``
    ancestor ``u`` as ``(t_log - S(u)) - (S(v) - S(u))``, and each ancestor's
    block ``(start, count)`` of the generation-``level`` vertices."""
    s_leaf = tree.generations[level]
    vals, _ = curve.eval_many(np.exp(t_log - s_leaf))
    anc = np.arange(len(s_leaf), dtype=np.int64)
    for lvl in range(level, top, -1):
        anc = tree.parent_index[lvl][anc]
    s_anc = tree.generations[top][anc]
    rebased, _ = curve.eval_many(np.exp((t_log - s_anc) - (s_leaf - s_anc)))
    counts = np.bincount(anc, minlength=len(tree.generations[top]))
    starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
    return vals, rebased, list(zip(starts, counts))


@dataclass(frozen=True)
class DisintegrationReport:
    """Product of curve values over generation j+k, whole vs per-subtree."""

    t: float
    j: int
    k: int
    lhs: float
    rhs: float
    abs_diff: float


def disintegration_check(
    curve, tree: WeightedTree, t: float, j: int, k: int
) -> DisintegrationReport:
    """Recompute ``prod_{|v|=j+k} F̄(t L(v))`` by generation-j subtree blocks.

    The left side multiplies all generation-(j+k) factors in one balanced
    reduction; the right side forms each generation-j subtree's product from
    rebased arguments ``(t L(u)) * (L(v)/L(u))`` first.  Both sides use the
    same balanced reduction tree, so on complete binary trees with lattice
    lookups the two floats agree exactly.
    """
    if j < 0 or k < 0 or j + k > tree.depth:
        raise ValueError(f"need 0 <= j, 0 <= k, j+k <= depth={tree.depth}")
    vals, vals2, blocks = _subtree_walk(curve, tree, np.log(t), j + k, j)
    lhs = pairwise_prod(vals)
    per_sub = np.array([pairwise_prod(vals2[s : s + c]) for s, c in blocks])
    rhs = pairwise_prod(per_sub)
    return DisintegrationReport(t, j, k, lhs, rhs, abs(lhs - rhs))


@dataclass(frozen=True)
class PsiReport:
    """Scaled log-transform at depth j = n + k and its generation-n split."""

    t_log: float
    alpha: float
    n: int
    value: float
    decomposition: float
    abs_diff: float


def psi_transform(
    curve, tree: WeightedTree, t_log: float, alpha: float, n: int
) -> PsiReport:
    """Verify ``Ψ_j(t) = sum_{|v|=n} L(v)^α [Ψ_k]_v(t - S(v))`` at depth j.

    ``Ψ_j(t) = e^{-α t} (-log prod_{|v|=j} F̄(e^t L(v)))`` with ``j`` the
    tree depth and ``k = j - n``.  Raises on any zero curve value, whose
    logarithm would poison the sum.
    """
    depth = tree.depth
    if not (0 <= n <= depth):
        raise ValueError(f"need 0 <= n <= depth={depth}")
    vals, vals2, blocks = _subtree_walk(curve, tree, t_log, depth, n)
    if np.any(vals <= 0.0) or np.any(vals2 <= 0.0):
        raise ValueError("curve value 0 inside the log transform")
    value = math.exp(-alpha * t_log) * float(-np.sum(np.log(vals)))
    logs2 = np.log(vals2)
    s_n = tree.generations[n]
    contribs = np.empty(len(s_n))
    for u, (st, c) in enumerate(blocks):
        inner = math.exp(-alpha * (t_log - float(s_n[u]))) * float(
            -np.sum(logs2[st : st + c])
        )
        contribs[u] = math.exp(-alpha * float(s_n[u])) * inner
    decomposition = float(np.sum(contribs))
    return PsiReport(
        t_log, alpha, n, value, decomposition, abs(value - decomposition)
    )
