"""Fixed-point operators on curves, mixture construction, and verification.

The min-type operator sends a survival curve ``F̄`` to ``t -> E prod_i
F̄(t T_i)``; the sum-type (smoothing) operator sends a Laplace curve ``φ``
to ``x -> E prod_i φ(x T_i)``.  Over a finite-atom weight model both are the
same exact finite expectation, evaluated here on the curve's own grid with
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
from .weights import WeightModel, atom_table

Modulation = Union[PeriodicModulation, float]


class GridDepthError(ValueError):
    """The curve grid does not reach deep enough below 1 for the diagnostic."""


def _as_modulation(h: Modulation, period: float = math.e) -> PeriodicModulation:
    if isinstance(h, PeriodicModulation):
        return h
    return constant_modulation(float(h), period)


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


def _apply_expectation(curve, model: WeightModel, warn_threshold: float) -> OperatorResult:
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
    if frac > warn_threshold:
        warnings.append(
            f"{frac:.1%} of grid points needed clamped lookups "
            f"(threshold {warn_threshold:.1%}); widen the grid"
        )
    image = type(curve)(
        grid=ts.copy(),
        values=out,
        mode=curve.mode,
        r=curve.r,
        residues=None if curve.residues is None else curve.residues.copy(),
        n_lo=curve.n_lo,
    )
    return OperatorResult(image, clamped, frac, warnings)


def apply_min_operator(
    curve: SurvivalCurve, model: WeightModel, warn_threshold: float = 0.05
) -> OperatorResult:
    """Min-type operator image ``t -> E prod_i F̄(t T_i)`` on the curve grid,
    computed as ``(sum_k p_k prod_{w in atom k} F̄(t w))^copies``."""
    return _apply_expectation(curve, model, warn_threshold)


def apply_sum_operator(
    curve, model: WeightModel, warn_threshold: float = 0.05
) -> OperatorResult:
    """Smoothing-transform image ``x -> E prod_i φ(x T_i)`` on the curve grid,
    computed as ``(sum_k p_k prod_{w in atom k} φ(x w))^copies``."""
    return _apply_expectation(curve, model, warn_threshold)


@dataclass
class ResidualReport:
    """Per-point and sup-norm distance between a curve and its operator image.

    ``sup_norm`` is taken over clean (clamp-free) grid points; ``sup_norm_all``
    includes clamped points and is the honest upper bound when every point is
    contaminated.
    """

    kind: str
    residuals: np.ndarray
    sup_norm: float
    sup_norm_all: float
    point_clamped: np.ndarray
    clamp_fraction: float
    image: object
    warnings: list = field(default_factory=list)


def fixed_point_residual(
    curve, model: WeightModel, kind: str = "min", warn_threshold: float = 0.05
) -> ResidualReport:
    """Signed residuals ``(operator image - curve)`` on the curve's grid."""
    if kind not in ("min", "sum"):
        raise ValueError(f"kind must be 'min' or 'sum', got {kind!r}")
    res = _apply_expectation(curve, model, warn_threshold)
    diff = res.curve.values - curve.values
    clean = ~res.point_clamped
    sup_all = float(np.max(np.abs(diff))) if len(diff) else 0.0
    if np.any(clean):
        sup = float(np.max(np.abs(diff[clean])))
    else:
        sup = math.nan
        res.warnings.append("every grid point is clamped; clean sup-norm undefined")
    return ResidualReport(
        kind, diff, sup, sup_all, res.point_clamped, res.clamp_fraction,
        res.curve, res.warnings,
    )


@dataclass
class IterationReport:
    """Residual trajectory of repeated operator application."""

    kind: str
    sup_norms: list
    clamp_fractions: list
    final: object
    warnings: list = field(default_factory=list)


def iterate_operator(
    curve, model: WeightModel, kind: str = "min", n_iter: int = 1,
    warn_threshold: float = 0.05,
) -> IterationReport:
    """Apply the operator ``n_iter`` times, recording the residual each step."""
    if n_iter < 1:
        raise ValueError("n_iter must be >= 1")
    sups, fracs, warnings = [], [], []
    cur = curve
    for _ in range(n_iter):
        rep = fixed_point_residual(cur, model, kind, warn_threshold)
        sups.append(rep.sup_norm)
        fracs.append(rep.clamp_fraction)
        warnings.extend(rep.warnings)
        cur = rep.image
    return IterationReport(kind, sups, fracs, cur, warnings)


# ---------------------------------------------------------------------------
# mixture fixed points driven by the empirical limit law
# ---------------------------------------------------------------------------


def _mixture_arguments(h: PeriodicModulation, alpha: float, ts: np.ndarray) -> np.ndarray:
    return h.eval_many(ts) * ts**alpha


def _mixture_curve(phi: EmpiricalLaplace, h, alpha, grid, cls):
    if isinstance(grid, LatticeSpec):
        ts = grid.points()
        mode_kwargs = dict(
            mode="lattice-step",
            r=grid.r,
            residues=np.asarray(grid.residues, dtype=np.float64),
            n_lo=grid.n_lo,
        )
    else:
        ts = np.asarray(grid, dtype=np.float64)
        mode_kwargs = dict(mode="interp-loglinear")
    xs = _mixture_arguments(h, alpha, ts)
    if np.any(np.diff(xs) < 0.0):
        raise CurveShapeError(
            "mixture arguments h(t) t^alpha are not nondecreasing along the grid; "
            "the modulation is not admissible"
        )
    tail, _ = phi.evaluate_tail(xs)
    values = 1.0 - tail
    return cls(grid=ts, values=values, tail=tail, **mode_kwargs)


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

    kind: str
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
    kind: str = "min",
) -> MixtureResidualReport:
    """Residual ``E prod_i φ̂(arg(t T_i)) - φ̂(arg(t))`` with joint-sample SE.

    ``arg(u) = h(u) u^alpha``.  Every Laplace evaluation is done sample-side
    at the exact argument (no grid interpolation), and each point's standard
    error accounts for the correlation induced by the shared sample.  The
    operator value is ``A^copies``, ``A = sum_k p_k prod_{w in atom k}
    φ̂(arg(t w))``; its tail ``(1 - A)(1 + A + ... + A^(copies-1))`` and its
    gradient ``copies A^(copies-1) dA`` go through that power.

    ``z = 0`` where ``|residual| <= 8 eps max(tail(t), operator tail)``: that
    is rounding of two tails, which near 1 is ulps over a tiny SE.  With zero
    SE a residual <= 1e-12 also gives ``z = 0`` (products underflow before
    single factors do), and any other residual ``z = inf``.
    """
    hmod = _as_modulation(h)
    table = atom_table(model)
    w = phi.samples
    n = len(w)
    pts = np.asarray(points, dtype=np.float64)
    residuals = np.empty(len(pts))
    ses = np.empty(len(pts))
    scales = np.empty(len(pts))
    for j, t in enumerate(pts):
        args = [float(hmod.eval(t) * t**alpha)]
        spans = []  # (prob, [arg indices]) per atom
        for p, ws in zip(table.probs, table.full_weights):
            if p == 0.0:
                continue
            idxs = []
            for wt in ws:
                if wt == 0.0:
                    continue
                u = t * wt
                args.append(float(hmod.eval(u) * u**alpha))
                idxs.append(len(args) - 1)
            spans.append((p, idxs))
        uniq, inv = np.unique(np.array(args), return_inverse=True)
        outer = np.outer(uniq, w)
        a = np.exp(-outer)
        # Tail means stay fully accurate near 0, where the value means would
        # quantize at one ulp of 1 and swamp small residuals.
        tau = -np.expm1(-outer).mean(axis=1)
        mu = 1.0 - tau
        grad = np.zeros(len(uniq))
        op_tail, op_mean = 0.0, 0.0   # 1 - A, A
        with np.errstate(divide="ignore"):
            log_mu = np.log1p(-tau)
        for p, idxs in spans:
            mus = mu[inv[idxs]]
            # 1 - prod(mu_i) via logs: exact cancellation-free product tail
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
        resid = float(tau[inv[0]]) - op_tail
        z_i = grad @ a
        se = float(z_i.std(ddof=1) / math.sqrt(n)) if n > 1 else math.inf
        residuals[j] = resid
        ses[j] = se
        scales[j] = max(float(tau[inv[0]]), op_tail)
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(ses > 0.0, residuals / ses,
                     np.where(np.abs(residuals) <= 1e-12, 0.0, np.inf))
    z[np.abs(residuals) <= 8.0 * np.finfo(np.float64).eps * scales] = 0.0
    return MixtureResidualReport(kind, pts, residuals, ses, z, float(np.max(np.abs(z))))


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
    coef = np.polyfit(xs, ys, 1)
    fit = np.polyval(coef, xs)
    ss_res = float(np.sum((ys - fit) ** 2))
    ss_tot = float(np.sum((ys - np.mean(ys)) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return float(coef[0]), r2


def regularity_diagnostic(
    curve: SurvivalCurve, alpha: float, window: int = 12
) -> RegularityReport:
    """Classify the near-zero regularity of the curve at exponent ``alpha``.

    Requires the grid to reach at least 6 decades (interpolated grids) or 12
    lattice steps (lattice-step grids) below 1; otherwise raises
    :class:`GridDepthError` rather than classifying from too shallow a
    window.
    """
    notes = []
    grid = curve.grid
    tail, _ = curve.eval_tail_many(grid)
    logt = np.log(grid)
    d_all = tail * np.exp(-alpha * logt)

    sequences = []  # (label, index array ascending toward deep, D values)
    if curve.mode == "lattice-step":
        q = len(curve.residues)
        rows = len(grid) // q
        d_mat = d_all.reshape(rows, q)
        t_mat = grid.reshape(rows, q)
        for col in range(q):
            below = t_mat[:, col] < 1.0
            if int(below.sum()) < window:
                raise GridDepthError(
                    f"residue {curve.residues[col]!r} has {int(below.sum())} lattice "
                    f"points below 1; need >= {window}"
                )
            dcol = d_mat[below, col]
            take = dcol[:window][::-1]  # deepest first -> ascending toward deep
            sequences.append((float(curve.residues[col]), take))
        step = math.log(curve.r)
    else:
        if grid[0] > 1e-6 * (1.0 + 1e-12):
            raise GridDepthError(
                f"grid bottom {grid[0]!r} is less than 6 decades below 1"
            )
        sel = grid <= grid[0] * 100.0
        dsel = d_all[sel][::-1]  # ascending toward deep
        sequences.append((None, dsel))
        step = math.log(10.0) / max(
            1, int(round((len(dsel) - 1) / max(np.log10(100.0), 1e-9)))
        )

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


def _ancestors(tree: WeightedTree, level: int, target: int) -> np.ndarray:
    """Index of each level-``level`` vertex's ancestor at ``target <= level``."""
    anc = np.arange(len(tree.generations[level]), dtype=np.int64)
    for lvl in range(level, target, -1):
        anc = tree.parent_index[lvl][anc]
    return anc


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
    s_leaf = tree.generations[j + k]
    vals, _ = curve.eval_many(np.exp(np.log(t) - s_leaf))
    lhs = pairwise_prod(vals)
    anc = _ancestors(tree, j + k, j)
    s_anc = tree.generations[j][anc]
    rebased = np.exp((np.log(t) - s_anc) - (s_leaf - s_anc))
    vals2, _ = curve.eval_many(rebased)
    counts = np.bincount(anc, minlength=len(tree.generations[j]))
    starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
    per_sub = np.array(
        [
            pairwise_prod(vals2[s : s + c])
            for s, c in zip(starts, counts)
        ]
    )
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
    s_leaf = tree.generations[depth]
    vals, _ = curve.eval_many(np.exp(t_log - s_leaf))
    if np.any(vals <= 0.0):
        raise ValueError("curve value 0 inside the log transform")
    logs = np.log(vals)
    value = math.exp(-alpha * t_log) * float(-np.sum(logs))

    anc = _ancestors(tree, depth, n)
    s_anc = tree.generations[n][anc]
    rebased = np.exp((t_log - s_anc) - (s_leaf - s_anc))
    vals2, _ = curve.eval_many(rebased)
    if np.any(vals2 <= 0.0):
        raise ValueError("curve value 0 inside the log transform")
    logs2 = np.log(vals2)
    counts = np.bincount(anc, minlength=len(tree.generations[n]))
    starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
    s_n = tree.generations[n]
    contribs = np.empty(len(s_n))
    for u, (st, c) in enumerate(zip(starts, counts)):
        inner = math.exp(-alpha * (t_log - float(s_n[u]))) * float(
            -np.sum(logs2[st : st + c])
        )
        contribs[u] = math.exp(-alpha * float(s_n[u])) * inner
    decomposition = float(np.sum(contribs))
    return PsiReport(
        t_log, alpha, n, value, decomposition, abs(value - decomposition)
    )
