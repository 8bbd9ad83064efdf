"""Weight-vector models and their exact analysis.

A weight model describes the distribution of a finite nonnegative weight
vector ``T = (T_1, ..., T_n)``.  Two variants are supported, both of them
atom-representable (finitely many possible realizations), which is what makes
every operation in this module exact:

* :class:`FiniteAtoms` — an explicit list of ``(probability, weights)`` atoms;
  a fixed vector is the one-atom law, built by :class:`Deterministic`;
* :class:`BernoulliCascade` — ``N`` weights ``T_i = exp(-B_i)`` with
  ``B_i`` i.i.d. Bernoulli(theta).

Infinite or continuously distributed weight vectors are out of scope.

Every analysis routine reads one form of a model, its :class:`AtomTable`:
``T`` is ``copies`` i.i.d. draws from a finite atom law.  Explicit atoms,
fixed vectors among them, are one draw; the cascade is ``N`` draws of
``{exp(-1): theta, 1: 1 - theta}``.  Expected products over the coordinates
are then ``copies``-th powers and expected sums scale by ``copies``, so
nothing enumerates the ``2^N`` cascade patterns.  The tree engine reads the
same table, so outside the CLI only :func:`atom_table` reads a model's type.

The module computes the moment function ``m(beta) = E sum_i T_i^beta``, its
minimal positive unit root (the characteristic exponent), the multiplicative
lattice generated by the positive weights, structural assumption flags, and
Galton-Watson extinction probabilities by generating-function iteration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

_ATOM_CAP = 1 << 20


class ModelError(ValueError):
    """Raised when a weight model violates its structural invariants."""


@dataclass(frozen=True)
class FiniteAtoms:
    """Explicit finite-atom weight distribution.

    Parameters
    ----------
    atoms : sequence of (probability, weights)
        Probabilities must sum to 1 within 1e-12.  Weights are nonnegative
        finite reals and every atom must contain at least one strictly
        positive weight.
    """

    atoms: tuple

    def __init__(self, atoms: Sequence) -> None:
        norm = []
        total = 0.0
        if not atoms:
            raise ModelError("at least one atom is required")
        if len(atoms) > _ATOM_CAP:
            raise ModelError(f"too many atoms ({len(atoms)} > {_ATOM_CAP})")
        for j, (p, ws) in enumerate(atoms):
            p = float(p)
            ws = tuple(float(w) for w in ws)
            if not math.isfinite(p) or p < 0.0:
                raise ModelError(f"atom {j}: probability must be finite and >= 0")
            if not ws:
                raise ModelError(f"atom {j}: empty weight vector")
            for w in ws:
                if not math.isfinite(w) or w < 0.0:
                    raise ModelError(f"atom {j}: weights must be finite and >= 0")
            if max(ws) <= 0.0:
                raise ModelError(f"atom {j}: needs at least one strictly positive weight")
            total += p
            norm.append((p, ws))
        if abs(total - 1.0) > 1e-12:
            raise ModelError(f"atom probabilities sum to {total!r}, not 1")
        object.__setattr__(self, "atoms", tuple(norm))


@dataclass(frozen=True)
class BernoulliCascade:
    """Weights ``T_i = exp(-B_i)``, ``B_i`` i.i.d. Bernoulli(theta), ``i <= N``.

    ``theta`` may take the closed endpoints 0 and 1, which give the
    deterministic all-ones / all-``exp(-1)`` vectors.
    """

    N: int
    theta: float

    def __post_init__(self) -> None:
        if not isinstance(self.N, (int, np.integer)) or self.N < 2:
            raise ModelError("N must be an integer >= 2")
        if not (0.0 <= self.theta <= 1.0):
            raise ModelError("theta must lie in [0, 1]")


class Deterministic(FiniteAtoms):
    """A single fixed weight vector: the one-atom law ``[(1.0, weights)]``."""

    def __init__(self, *weights) -> None:
        if len(weights) == 1 and isinstance(weights[0], (tuple, list, np.ndarray)):
            weights = weights[0]
        super().__init__([(1.0, weights)])

    @property
    def weights(self) -> tuple:
        return self.atoms[0][1]


WeightModel = Union[FiniteAtoms, BernoulliCascade]


@dataclass(frozen=True)
class AtomTable:
    """Internal exact atom representation shared by the analysis routines.

    ``T`` is ``copies`` i.i.d. draws, each drawing atom ``k`` (a weight
    vector) with probability ``probs[k]``, concatenated in draw order.
    ``log_weights[k]`` holds ``log T_i`` for the *positive* weights of atom
    ``k`` only; zero weights are recorded in ``full_weights``, where they
    keep their place in the tree engine's seed chain, but drop out of every
    moment/lattice computation.
    Atoms of probability 0 are kept: they still span the weight lattice.
    For the Bernoulli cascade the log-weights are the exact integers ``-1``
    and ``0``, avoiding ``log(exp(-1))`` round-trips.
    """

    probs: np.ndarray
    full_weights: tuple          # tuple of tuples, zeros included
    log_weights: tuple           # tuple of float64 arrays (positive weights only)
    copies: int = 1              # i.i.d. draws concatenated into T

    @property
    def positive_counts(self) -> np.ndarray:
        return np.array([len(lw) for lw in self.log_weights], dtype=np.int64)


def atom_table(model: WeightModel) -> AtomTable:
    """The :class:`AtomTable` of ``model``; the analysis' one type dispatch."""
    if isinstance(model, FiniteAtoms):
        probs = np.array([p for p, _ in model.atoms])
        full = tuple(ws for _, ws in model.atoms)
        logs = tuple(np.log(np.array([w for w in ws if w > 0.0])) for ws in full)
        return AtomTable(probs, full, logs)
    if isinstance(model, BernoulliCascade):
        # exp(-1) first, so a uniform u < theta draws it, as in the engine.
        theta = model.theta
        return AtomTable(
            np.array([theta, 1.0 - theta]),
            ((math.exp(-1.0),), (1.0,)),
            (np.array([-1.0]), np.array([0.0])),
            copies=int(model.N),
        )
    raise TypeError(f"not a weight model: {model!r}")


def moment_m(model: WeightModel, beta: float) -> float:
    """Moment function ``m(beta) = E sum_i T_i^beta`` over positive weights.

    ``0^beta`` contributes nothing for every ``beta >= 0`` here, so
    ``m(0)`` equals the expected number of strictly positive weights.
    """
    if beta < 0.0 or not math.isfinite(beta):
        raise ValueError("beta must be finite and >= 0")
    table = atom_table(model)
    total = 0.0
    for p, lw in zip(table.probs, table.log_weights):
        total += p * float(np.sum(np.exp(beta * lw)))
    return float(table.copies * total)


def _m_minus_one_many(model: WeightModel, betas: np.ndarray) -> np.ndarray:
    """``m(beta) - 1`` in a form immune to the ``1 + tiny == 1`` collapse.

    Direct evaluation of ``m - 1`` loses every signal smaller than one float
    epsilon around 1, which turns an asymptotic approach ``m -> 1+`` into a
    spurious zero plateau.  Here the constant part (unit weights and the
    ``-1``) is separated symbolically, so the beta-dependent terms keep full
    relative accuracy however small they are.
    """
    betas = np.atleast_1d(np.asarray(betas, dtype=np.float64))
    table = atom_table(model)
    const = -1.0
    pws = []
    lws = []
    for p, lw in zip(table.probs, table.log_weights):
        p = table.copies * p
        const += p * float(np.count_nonzero(lw == 0.0))
        rest = lw[lw != 0.0]
        if len(rest):
            pws.append(np.full(len(rest), p))
            lws.append(rest)
    if not lws:
        return np.full(betas.shape, const)
    pw = np.concatenate(pws)
    lw = np.concatenate(lws)
    return np.add.reduce(np.exp(betas[:, None] * lw[None, :]) * pw, axis=1) + const


def _m_minus_one(model: WeightModel, beta: float) -> float:
    return float(_m_minus_one_many(model, np.array([beta]))[0])


@dataclass(frozen=True)
class ExponentResult:
    """Outcome of the characteristic-exponent search.

    ``alpha`` is the minimal root of ``m(alpha) = 1`` in the search interval,
    or ``None`` with ``reason`` explaining why no root was certified.
    """

    alpha: Optional[float]
    reason: Optional[str] = None


# The exponent search interval [0, _ALPHA_MAX] and its bisection width.
_ALPHA_MAX = 50.0
_ALPHA_TOL = 1e-10


def characteristic_exponent(model: WeightModel) -> ExponentResult:
    """Minimal positive root of ``m(alpha) = 1`` on ``[0, 50]``.

    The moment function is scanned at 0 and on a 1024-point geometric grid
    from ``50e-12`` to 50 to bracket the first sign change of ``m - 1``
    (convexity of ``m`` makes the sublevel set ``{m <= 1}`` an interval, so
    the first bracket contains the minimal root), then refined by bisection
    to absolute tolerance ``1e-10``.
    """
    grid = np.concatenate([[0.0], np.geomspace(_ALPHA_MAX * 1e-12, _ALPHA_MAX, 1024)])
    f = _m_minus_one_many(model, grid)
    if not np.all(np.isfinite(f)):
        raise ValueError("m is not finite on the search interval")

    if np.all(np.abs(f) <= 1e-15):
        return ExponentResult(
            None, "m(beta) = 1 identically on the interval (degenerate model)"
        )

    neg = np.nonzero(f < 0.0)[0]
    if len(neg) == 0:
        # No strict crossing below 1.  A bare zero here cannot be told apart
        # from collective underflow of the beta-dependent terms, so it is not
        # certified as a root.
        if np.any(f == 0.0):
            return ExponentResult(
                None,
                "m(beta) touches 1 on the grid without crossing below it "
                "(tangency or underflow; no certified root)",
            )
        return ExponentResult(None, "m(beta) > 1 on the whole interval")

    j = int(neg[0])
    # Walk back over any exact zeros in front of the first negative value.
    i = j - 1
    while i >= 0 and f[i] == 0.0:
        i -= 1
    if i < 0 or j == 0:
        # m is <= 1 from beta = 0 on.  A zero at beta = 0 is not a *positive*
        # root (m(0) counts children), so the minimal positive root is where
        # m climbs back through 1.
        pos_after = np.nonzero(f[j:] > 0.0)[0]
        if len(pos_after) == 0:
            return ExponentResult(None, "m(beta) < 1 on the whole interval")
        k = int(pos_after[0]) + j
        return _bisect_unit_root(model, float(grid[k - 1]), float(grid[k]), -1.0)

    # Zeros immediately before the first negative are exact root hits of the
    # decreasing crossing; the leftmost of that run is the minimal root.
    if f[i + 1] == 0.0:
        return ExponentResult(float(grid[i + 1]))

    # Strict bracket f(a) > 0 > f(b); m is convex so {m <= 1} is an interval
    # and this first crossing is the minimal root.
    return _bisect_unit_root(model, float(grid[i]), float(grid[j]), 1.0)


def _bisect_unit_root(model: WeightModel, a: float, b: float, sign: float) -> ExponentResult:
    """Bisect ``[a, b]`` to width ``_ALPHA_TOL`` on a root of ``m - 1``: a mid
    where ``sign * (m - 1) > 0`` replaces ``a``, any other mid replaces ``b``."""
    while b - a > _ALPHA_TOL:
        mid = 0.5 * (a + b)
        if sign * _m_minus_one(model, mid) > 0.0:
            a = mid
        else:
            b = mid
    return ExponentResult(0.5 * (a + b))


@dataclass(frozen=True)
class LatticeInfo:
    """Multiplicative group generated by the positive weights.

    ``kind`` is ``"geometric"`` (group ``r^Z``, with ``r = exp(step) > 1``),
    ``"continuous"``, or ``"trivial-degenerate"`` (all positive weights are 1).
    """

    kind: str
    r: Optional[float] = None


_LATTICE_RTOL = 1e-9


def _real_gcd(values: np.ndarray, tol_abs: float) -> float:
    g = float(values[0])
    for v in values[1:]:
        a, b = float(v), g
        while b > tol_abs:
            a, b = b, abs(math.remainder(a, b))
        g = a
    return g


def detect_lattice(model: WeightModel) -> LatticeInfo:
    """Classify the multiplicative lattice of the positive weights.

    Returns geometric(r) when every positive weight is ``r^k`` for integer k
    within relative tolerance 1e-9 (r maximal), continuous otherwise, and
    trivial-degenerate when every positive weight equals 1.
    """
    table = atom_table(model)
    logs = np.concatenate(list(table.log_weights))
    mags = np.abs(logs)
    scale = float(mags.max(initial=0.0))
    if scale <= _LATTICE_RTOL:
        return LatticeInfo("trivial-degenerate")
    nonzero = np.unique(mags[mags > _LATTICE_RTOL * max(scale, 1.0)])
    d = _real_gcd(nonzero, _LATTICE_RTOL * scale)
    if d < 1e-8:
        return LatticeInfo("continuous")
    # Least-squares refinement of the step through the integer multiples,
    # then a strict verification pass.
    k = np.round(nonzero / d)
    d = float(np.add.reduce(nonzero * k) / np.add.reduce(k * k))
    k = np.round(nonzero / d)
    if np.any(k < 1) or np.any(np.abs(nonzero - k * d) > _LATTICE_RTOL * np.maximum(1.0, nonzero)):
        return LatticeInfo("continuous")
    return LatticeInfo("geometric", r=math.exp(d))


@dataclass(frozen=True)
class AssumptionReport:
    """Exact structural flags of a weight model.

    a1: at least one positive weight always, more than one with positive
        probability.  a2: all weights below 1 with positive probability.
    a3: mean number of positive weights exceeds 1.  a4: with positive
        probability some weight lies outside {0, 1}.
    ``degenerate_sup_one``: the largest weight equals 1 almost surely.
    ``sup_ge_one``: the largest weight is >= 1 almost surely and exceeds 1
    with positive probability (a regime admitting no fixed points).
    """

    a1: bool
    a2: bool
    a3: bool
    a4: bool
    degenerate_sup_one: bool
    sup_ge_one: bool


def check_assumptions(model: WeightModel) -> AssumptionReport:
    """Compute :class:`AssumptionReport` exactly from the atom table.

    Over ``copies`` i.i.d. draws the positive-weight count of ``T`` ranges
    up to ``copies`` times an atom's count and has ``copies`` times the mean
    (a1, a3).  Every draw can repeat any live atom, so the events on the
    largest weight and on weights in ``{0, 1}`` read off single atoms.
    """
    table = atom_table(model)
    sups = np.array([max(ws) for ws in table.full_weights])
    counts = table.positive_counts
    probs = table.probs
    live = probs > 0.0
    in01 = np.array(
        [all(w == 0.0 or w == 1.0 for w in ws) for ws in table.full_weights]
    )
    return AssumptionReport(
        a1=bool(np.all(counts[live] >= 1) and np.any(live & (table.copies * counts > 1))),
        a2=bool(np.any(live & (sups < 1.0))),
        a3=bool(table.copies * float(np.add.reduce(probs * counts)) > 1.0),
        a4=bool(np.any(live & ~in01)),
        degenerate_sup_one=bool(np.all(sups[live] == 1.0)),
        sup_ge_one=bool(np.all(sups[live] >= 1.0) and np.any(live & (sups > 1.0))),
    )


def extinction_probability(pgf_weights: Sequence[float]) -> float:
    """Minimal fixed point of the offspring generating function in [0, 1].

    Iterates ``s <- f(s)`` from 0, where ``f(s) = sum_j p_j s^j``, until the
    step falls below 1e-14.  A cap of 10^6 steps guards against the
    near-critical regime where the iteration converges like C/k^2; at the
    cap the current iterate (a lower bound on the fixed point) is returned.
    """
    p = np.asarray(pgf_weights, dtype=np.float64)
    if p.ndim != 1 or len(p) == 0:
        raise ValueError("pgf_weights must be a nonempty 1-d probability vector")
    if np.any(p < 0.0) or abs(float(p.sum()) - 1.0) > 1e-12:
        raise ValueError("pgf_weights must be nonnegative and sum to 1")
    coeffs = p[::-1]  # np.polyval expects highest degree first
    s = 0.0
    for _ in range(10**6):
        s_next = float(np.polyval(coeffs, s))
        if abs(s_next - s) < 1e-14:
            return s_next
        s = s_next
    return s
