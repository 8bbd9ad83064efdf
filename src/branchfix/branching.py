"""Weighted branching simulation with reproducible hierarchical seeding.

A weighted tree carries a multiplicative weight ``L(v)`` on every vertex
(product of the weights along the path from the root) and we work throughout
with ``S(v) = -log L(v)``, stored generation by generation.  All randomness is
counter-based (:mod:`branchfix.seeding`): a vertex's subtree is a pure
function of the vertex seed, replicates are pure functions of the master
seed and the replicate index, and results are independent of thread count
and batch boundaries.

Besides single-tree simulation this module provides batched replicate
engines for the additive statistics

* ``W_n = sum_v exp(-alpha * S(v))`` over generation ``n`` (a martingale
  with unit mean when ``m(alpha) = 1``),
* ``R_n = exp(-min_v S(v))``, the largest generation-``n`` weight,
* occupation sums ``sum_{n <= depth} sum_v exp(-alpha S(v)) 1{S(v) in I}``
  for the renewal-measure comparison,

and the exact per-generation increment distribution with the associated
drift/divergence verdict.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import seeding
from .seeding import GOLDEN, _M64
from .weights import (
    BernoulliCascade,
    WeightModel,
    atom_table,
    detect_lattice,
    moment_m,
)

_BATCH = 512


class NodeCapError(RuntimeError):
    """Raised when a growing tree exceeds its node budget.

    Attributes record the generation at which the budget was exceeded, the
    node count reached, and (for batched runs) the offending replicate.
    """

    def __init__(self, generation: int, node_count: int, replicate: Optional[int] = None):
        self.generation = generation
        self.node_count = node_count
        self.replicate = replicate
        where = f" (replicate {replicate})" if replicate is not None else ""
        super().__init__(
            f"node budget exceeded at generation {generation}: {node_count} nodes{where}"
        )


# ---------------------------------------------------------------------------
# generation expansion primitives
# ---------------------------------------------------------------------------


class _AtomPrep:
    """Padded per-atom lookup tables for vectorized generation expansion."""

    def __init__(self, model: WeightModel):
        table = atom_table(model)
        self.cum = np.cumsum(table.probs)
        sizes = np.array([len(ws) for ws in table.full_weights], dtype=np.int64)
        self.sizes = sizes
        width = int(sizes.max())
        k = len(sizes)
        self.pad_neglog = np.zeros((k, width))
        self.pad_pos = np.zeros((k, width), dtype=bool)
        for j, ws in enumerate(table.full_weights):
            pos_idx = 0
            for i, w in enumerate(ws):
                if w > 0.0:
                    self.pad_pos[j, i] = True
                    self.pad_neglog[j, i] = -float(table.log_weights[j][pos_idx])
                    pos_idx += 1
        self.child_salts = ((np.arange(width, dtype=np.uint64) + np.uint64(1))
                            * np.uint64(GOLDEN))


def _expand_atoms(prep: _AtomPrep, S, seeds, rep):
    """One generation step: returns (S, seeds, rep, parent_index) of children."""
    u = seeding.unit_uniforms_np(seeds)
    k = np.minimum(np.searchsorted(prep.cum, u, side="right"), len(prep.cum) - 1)
    sz = prep.sizes[k]
    total = int(sz.sum())
    parent_all = np.repeat(np.arange(len(S), dtype=np.int64), sz)
    offs = np.repeat(np.cumsum(sz) - sz, sz)
    intra_all = np.arange(total, dtype=np.int64) - offs
    katom = k[parent_all]
    pos = prep.pad_pos[katom, intra_all]
    parent = parent_all[pos]
    intra = intra_all[pos]
    step = prep.pad_neglog[katom[pos], intra]
    child_seeds = seeding.mix64_np(seeds[parent] ^ prep.child_salts[intra])
    return S[parent] + step, child_seeds, rep[parent], parent


def _expand_cascade(model: BernoulliCascade, levels, seeds, rep):
    """Cascade generation step on exact integer levels ``S(v) = sum B``."""
    n = model.N
    v = len(levels)
    salts = ((np.arange(n, dtype=np.uint64) + np.uint64(1)) * np.uint64(GOLDEN))
    parent = np.repeat(np.arange(v, dtype=np.int64), n)
    intra = np.tile(np.arange(n, dtype=np.int64), v)
    child_seeds = seeding.mix64_np(seeds[parent] ^ salts[intra])
    u = seeding.unit_uniforms_np(child_seeds)
    b = (u < model.theta).astype(levels.dtype)
    return levels[parent] + b, child_seeds, rep[parent], parent


# ---------------------------------------------------------------------------
# single trees
# ---------------------------------------------------------------------------


@dataclass
class WeightedTree:
    """A simulated weighted tree, stored generation-major.

    ``generations[n]`` holds ``S(v) = -log L(v)`` for the vertices of
    generation ``n`` (grouped by parent, in child order), ``parent_index[n]``
    the index of each vertex's parent in generation ``n-1``, and
    ``vertex_seeds[n]`` the per-vertex seeds driving the subtrees.
    """

    depth: int
    seed: int
    node_count: int
    generations: list
    parent_index: list
    vertex_seeds: list


def simulate_tree(
    model: WeightModel,
    depth: int,
    seed: int,
    node_cap: int = 10**7,
) -> WeightedTree:
    """Simulate one weighted tree of the given depth.

    Byte-reproducible: the result is a pure function of ``(model, depth,
    seed)``.  Zero weights produce no vertex.  Raises :class:`NodeCapError`
    as soon as the cumulative node count would exceed ``node_cap``.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    cascade = isinstance(model, BernoulliCascade)
    prep = None if cascade else _AtomPrep(model)
    if cascade:
        s = np.zeros(1, dtype=np.int64)
    else:
        s = np.zeros(1)
    seeds = np.array([seed & _M64], dtype=np.uint64)
    rep = np.zeros(1, dtype=np.int64)
    gens = [s.astype(np.float64)]
    parents = [np.array([-1], dtype=np.int64)]
    vseeds = [seeds.copy()]
    count = 1
    for n in range(1, depth + 1):
        if cascade:
            s, seeds, rep, parent = _expand_cascade(model, s, seeds, rep)
        else:
            s, seeds, rep, parent = _expand_atoms(prep, s, seeds, rep)
        count += len(s)
        if count > node_cap:
            raise NodeCapError(n, count)
        gens.append(s.astype(np.float64))
        parents.append(parent)
        vseeds.append(seeds.copy())
    return WeightedTree(depth, seed, count, gens, parents, vseeds)


@dataclass(frozen=True)
class MartingaleTrace:
    """Values ``W_n = sum_v L(v)^alpha`` for n = 0..depth (``W_0 = 1``)."""

    alpha: float
    values: np.ndarray


def martingale_trace(tree: WeightedTree, alpha: float) -> MartingaleTrace:
    vals = np.array([float(np.sum(np.exp(-alpha * s))) for s in tree.generations])
    return MartingaleTrace(alpha, vals)


def sup_weight_trace(tree: WeightedTree) -> np.ndarray:
    """``R_n = max_v L(v)`` per generation (empty generations give 0)."""
    out = np.empty(tree.depth + 1)
    for n, s in enumerate(tree.generations):
        out[n] = math.exp(-float(s.min())) if len(s) else 0.0
    return out


# ---------------------------------------------------------------------------
# batched replicate engine
# ---------------------------------------------------------------------------


@dataclass
class ReplicateTraces:
    """Per-replicate traces of ``W_n`` and ``R_n`` plus optional renewal sums."""

    alpha: float
    depth: int
    master_seed: int
    W: np.ndarray                      # (replicates, depth+1)
    R_sup: np.ndarray                  # (replicates, depth+1)
    renewal_interval: Optional[tuple] = None
    renewal_sums: Optional[np.ndarray] = None


def _batch_traces(model, alpha, depth, rep_indices, master_seed, node_cap,
                  interval):
    """Traces for one batch of replicates; pure function of its arguments."""
    nrep = len(rep_indices)
    w = np.empty((nrep, depth + 1))
    r = np.empty((nrep, depth + 1))
    ren = np.zeros(nrep) if interval is not None else None
    seeds = seeding.replicate_roots_np(master_seed, rep_indices)
    rep = np.arange(nrep, dtype=np.int64)
    w[:, 0] = 1.0
    r[:, 0] = 1.0
    if interval is not None:
        a, b = interval
        if a - 1e-9 <= 0.0 <= b + 1e-9:
            ren += 1.0
    totals = np.ones(nrep, dtype=np.int64)
    cascade = isinstance(model, BernoulliCascade)
    if cascade:
        state = np.zeros(nrep, dtype=np.int64)
        rho = np.exp(-alpha * np.arange(depth + 1))
    else:
        prep = _AtomPrep(model)
        state = np.zeros(nrep)
    for n in range(1, depth + 1):
        if cascade:
            state, seeds, rep, _ = _expand_cascade(model, state, seeds, rep)
        else:
            state, seeds, rep, _ = _expand_atoms(prep, state, seeds, rep)
        counts = np.bincount(rep, minlength=nrep)
        totals += counts
        bad = totals > node_cap
        if np.any(bad):
            i = int(np.argmax(bad))
            raise NodeCapError(n, int(totals[i]), replicate=int(rep_indices[i]))
        starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
        if cascade:
            # Exact integer levels: W_n is a per-replicate level histogram
            # dotted with the alpha-geometric weights -- no per-vertex exp.
            lvl = np.bincount(rep * (n + 1) + state, minlength=nrep * (n + 1))
            lvl = lvl.reshape(nrep, n + 1)
            w[:, n] = lvl @ rho[: n + 1]
            kmin = np.minimum.reduceat(state, starts)
            r[:, n] = np.exp(-1.0 * kmin)
            if interval is not None:
                ks = np.arange(n + 1)
                mask = (ks >= a - 1e-9) & (ks <= b + 1e-9)
                if np.any(mask):
                    ren += lvl[:, mask] @ rho[: n + 1][mask]
        else:
            wv = np.exp(-alpha * state)
            w[:, n] = np.bincount(rep, weights=wv, minlength=nrep)
            r[:, n] = np.exp(-np.minimum.reduceat(state, starts))
            if interval is not None:
                mask = (state >= a - 1e-9) & (state <= b + 1e-9)
                ren += np.bincount(rep, weights=wv * mask, minlength=nrep)
    return w, r, ren


def replicate_traces(
    model: WeightModel,
    alpha: float,
    depth: int,
    replicates: int,
    seed: int,
    node_cap: int = 10**7,
    threads: int = 1,
    renewal_interval: Optional[tuple] = None,
) -> ReplicateTraces:
    """Simulate ``replicates`` independent trees and collect their traces.

    Replicate ``i`` is a pure function of ``(model, seed, i)``; the output is
    bit-identical for every ``threads`` value and batch schedule.
    """
    if replicates <= 0:
        raise ValueError("replicates must be >= 1")
    if depth < 0:
        raise ValueError("depth must be >= 0")
    w = np.empty((replicates, depth + 1))
    r = np.empty((replicates, depth + 1))
    ren = np.zeros(replicates) if renewal_interval is not None else None
    batches = [
        np.arange(lo, min(lo + _BATCH, replicates), dtype=np.int64)
        for lo in range(0, replicates, _BATCH)
    ]

    def run(idx):
        bw, br, bren = _batch_traces(
            model, alpha, depth, batches[idx], seed, node_cap, renewal_interval
        )
        sl = slice(batches[idx][0], batches[idx][-1] + 1)
        w[sl] = bw
        r[sl] = br
        if ren is not None:
            ren[sl] = bren

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(run, range(len(batches))))
    else:
        for i in range(len(batches)):
            run(i)
    return ReplicateTraces(alpha, depth, seed, w, r, renewal_interval, ren)


# ---------------------------------------------------------------------------
# empirical limit law
# ---------------------------------------------------------------------------


@dataclass
class EmpiricalLaplace:
    """Monte Carlo sample of the martingale limit with Laplace evaluation.

    ``evaluate`` returns the empirical Laplace transform with a standard
    error per evaluation point; ``evaluate_tail`` returns ``1 - transform``
    computed via ``expm1`` so small tails keep full relative accuracy.
    """

    alpha: float
    depth: int
    samples: np.ndarray
    warnings: list = field(default_factory=list)
    diagnostics: dict = field(default_factory=dict)

    def _tail_moments(self, xs: np.ndarray):
        n = len(self.samples)
        mean = np.empty(len(xs))
        var = np.empty(len(xs))
        chunk = max(1, (1 << 22) // max(n, 1))
        for lo in range(0, len(xs), chunk):
            z = -np.expm1(-np.outer(xs[lo : lo + chunk], self.samples))
            mz = z.mean(axis=1)
            mean[lo : lo + chunk] = mz
            var[lo : lo + chunk] = np.sum((z - mz[:, None]) ** 2, axis=1) / (n - 1)
        return mean, np.sqrt(var / n)

    def evaluate(self, x):
        """Empirical ``phi(x) = mean exp(-x W)`` with its standard error."""
        xs = np.atleast_1d(np.asarray(x, dtype=np.float64))
        if np.any(xs < 0.0):
            raise ValueError("Laplace arguments must be >= 0")
        tail, se = self._tail_moments(xs)
        val = 1.0 - tail
        if np.isscalar(x) or np.ndim(x) == 0:
            return float(val[0]), float(se[0])
        return val, se

    def evaluate_tail(self, x):
        """``1 - phi(x)`` with full relative accuracy for small arguments."""
        xs = np.atleast_1d(np.asarray(x, dtype=np.float64))
        if np.any(xs < 0.0):
            raise ValueError("Laplace arguments must be >= 0")
        tail, se = self._tail_moments(xs)
        if np.isscalar(x) or np.ndim(x) == 0:
            return float(tail[0]), float(se[0])
        return tail, se


def sample_W_limit(
    model: WeightModel,
    alpha: float,
    depth: int,
    replicates: int,
    seed: int,
    node_cap: int = 10**7,
    threads: int = 1,
) -> EmpiricalLaplace:
    """Sample the generation-``depth`` martingale values as a limit proxy.

    Warns (without failing) when ``m(alpha)`` is not 1 within 1e-9 and
    attaches a depth-halving diagnostic comparing the mean at ``depth`` with
    the mean at ``depth // 2``.
    """
    warnings = []
    mval = moment_m(model, alpha)
    if abs(mval - 1.0) > 1e-9:
        warnings.append(
            f"m(alpha) = {mval!r} is not 1 within 1e-9; W_n is not a mean-one martingale"
        )
    traces = replicate_traces(model, alpha, depth, replicates, seed, node_cap, threads)
    samples = traces.W[:, depth].copy()
    half = depth // 2
    n = replicates
    mean_d = float(samples.mean())
    mean_h = float(traces.W[:, half].mean())
    se_d = float(samples.std(ddof=1) / math.sqrt(n)) if n > 1 else math.inf
    se_h = float(traces.W[:, half].std(ddof=1) / math.sqrt(n)) if n > 1 else math.inf
    diag = {
        "depth": depth,
        "half_depth": half,
        "mean_depth": mean_d,
        "se_depth": se_d,
        "mean_half_depth": mean_h,
        "se_half_depth": se_h,
    }
    gap = abs(mean_d - mean_h)
    band = 3.0 * math.hypot(se_d, se_h)
    if not warnings and gap > band and band > 0.0:
        warnings.append(
            f"depth-halving diagnostic: |mean({depth}) - mean({half})| = {gap!r} "
            f"exceeds 3 combined SE = {band!r}"
        )
    return EmpiricalLaplace(alpha, depth, samples, warnings, diag)


# ---------------------------------------------------------------------------
# increments, divergence verdict, renewal comparison
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IncrementDistribution:
    """Atomic measure ``sum_i T_i^alpha  delta at -log T_i`` (expectation).

    Total mass is ``m(alpha)``; it is a probability measure exactly when
    ``m(alpha) = 1``.  Locations are sorted; equal locations are merged.
    """

    alpha: float
    locations: np.ndarray
    masses: np.ndarray

    @property
    def total_mass(self) -> float:
        return float(np.sum(self.masses))

    @property
    def drift(self) -> float:
        return float(np.dot(self.masses, self.locations))


def increment_distribution(model: WeightModel, alpha: float) -> IncrementDistribution:
    """Exact one-step increment distribution at exponent ``alpha``.

    Each of the ``copies`` i.i.d. draws adds its atom's measure once.
    """
    table = atom_table(model)
    locs = []
    mass = []
    for p, lw in zip(table.probs, table.log_weights):
        if p == 0.0:
            continue
        locs.append(-lw)
        mass.append(table.copies * p * np.exp(alpha * lw))
    locs = np.concatenate(locs)
    mass = np.concatenate(mass)
    uniq, inv = np.unique(locs, return_inverse=True)
    merged = np.bincount(inv, weights=mass, minlength=len(uniq))
    keep = merged > 0.0
    return IncrementDistribution(alpha, uniq[keep], merged[keep])


@dataclass(frozen=True)
class BigginsReport:
    """Drift and moment verdict for almost-sure martingale-limit positivity.

    ``verdict`` is ``"holds"`` (positive drift, finite normalized
    ``u log u`` sum), ``"boundary"`` (zero drift), or ``"fails"``.
    """

    alpha: float
    drift: float
    integral: float
    verdict: str
    w1_values: np.ndarray
    w1_probs: np.ndarray


def _w1_distribution(model: WeightModel, alpha: float):
    """Law of ``W_1 = sum_i T_i^alpha``: multinomial over the atom counts."""
    table = atom_table(model)
    per_atom = [float(np.sum(np.exp(alpha * lw))) for lw in table.log_weights]
    c = table.copies
    vals, mass = [], []
    for draws in itertools.combinations_with_replacement(range(len(per_atom)), c):
        counts = Counter(draws).items()
        prob = math.factorial(c) // math.prod(math.factorial(j) for _, j in counts)
        for k, j in counts:
            prob *= float(table.probs[k]) ** j
        vals.append(sum(j * per_atom[k] for k, j in counts))
        mass.append(prob)
    uniq, inv = np.unique(np.array(vals), return_inverse=True)
    merged = np.bincount(inv, weights=np.array(mass), minlength=len(uniq))
    keep = merged > 0.0
    return uniq[keep], merged[keep]


def biggins_check(model: WeightModel, alpha: float, tol: float = 1e-9) -> BigginsReport:
    """Exact finite-sum verdict for nondegeneracy of the martingale limit.

    Requires ``m(alpha) = 1`` within ``tol``.  Computes the increment drift
    and ``sum_{u>1} P(W_1 = u) u log(u) / E[min(S^+, log u)]``; the verdict
    holds when the drift is positive and the sum is finite.
    """
    mval = moment_m(model, alpha)
    if abs(mval - 1.0) > tol:
        raise ValueError(f"m(alpha) = {mval!r} is not 1 within {tol!r}")
    inc = increment_distribution(model, alpha)
    drift = inc.drift
    vals, probs = _w1_distribution(model, alpha)
    pos = np.maximum(inc.locations, 0.0)
    integral = 0.0
    finite = True
    for u, p in zip(vals, probs):
        if u <= 1.0 or p == 0.0:
            continue
        logu = math.log(u)
        denom = float(np.dot(inc.masses, np.minimum(pos, logu)))
        if denom <= 0.0:
            finite = False
            integral = math.inf
            break
        integral += p * u * logu / denom
    if drift > 0.0 and finite:
        verdict = "holds"
    elif drift == 0.0:
        verdict = "boundary"
    else:
        verdict = "fails"
    return BigginsReport(alpha, drift, integral, verdict, vals, probs)


@dataclass(frozen=True)
class RenewalReport:
    """Monte Carlo occupation sum vs exact convolution series on an interval."""

    alpha: float
    interval: tuple
    depth: int
    replicates: int
    empirical_mean: float
    empirical_se: float
    exact: float
    z_score: float


def _exact_renewal_mass(model: WeightModel, alpha: float, interval, depth: int) -> float:
    a, b = interval
    inc = increment_distribution(model, alpha)
    lat = detect_lattice(model)
    total = 0.0
    if lat.kind == "geometric":
        d = math.log(lat.r)
        k = np.round(inc.locations / d).astype(np.int64)
        if np.any(np.abs(inc.locations - k * d) > 1e-9 * np.maximum(1.0, np.abs(inc.locations))):
            raise ValueError("increment locations do not embed in the detected lattice")
        kmin = min(int(k.min()), 0)
        base = np.zeros(int(k.max()) - kmin + 1)
        base[k - kmin] = inc.masses
        cur = np.array([1.0])
        cur_off = 0  # lattice index of cur[0]
        for n in range(depth + 1):
            idx = (np.arange(len(cur)) + cur_off) * d
            sel = (idx >= a - 1e-9) & (idx <= b + 1e-9)
            total += float(np.sum(cur[sel]))
            if n < depth:
                cur = np.convolve(cur, base)
                cur_off += kmin
        return total
    # Generic dense convolution over exact float locations.
    cur = {0.0: 1.0}
    for n in range(depth + 1):
        total += sum(wt for s, wt in cur.items() if a - 1e-9 <= s <= b + 1e-9)
        if n < depth:
            nxt = {}
            for s, wt in cur.items():
                for sj, mj in zip(inc.locations, inc.masses):
                    key = s + sj
                    nxt[key] = nxt.get(key, 0.0) + wt * mj
            if len(nxt) > (1 << 21):
                raise ValueError(
                    "renewal convolution support exceeded 2^21 atoms; "
                    "use a lattice model or a smaller depth"
                )
            cur = nxt
    return total


def renewal_measure_check(
    model: WeightModel,
    alpha: float,
    interval: tuple,
    depth: int,
    replicates: int,
    seed: int,
    node_cap: int = 10**7,
    threads: int = 1,
) -> RenewalReport:
    """Compare simulated occupation sums against the exact convolution series.

    The expected occupation measure of ``[a, b]`` up to ``depth`` equals the
    truncated renewal series ``sum_{n<=depth} mu^{*n}([a, b])`` of the
    increment distribution ``mu`` when ``m(alpha) = 1``; interval endpoints
    are matched with absolute slack 1e-9.  Requires positive drift.
    """
    a, b = float(interval[0]), float(interval[1])
    if not (math.isfinite(a) and math.isfinite(b)) or a > b:
        raise ValueError(f"invalid interval {interval!r}")
    mval = moment_m(model, alpha)
    if abs(mval - 1.0) > 1e-9:
        raise ValueError(f"m(alpha) = {mval!r} is not 1 within 1e-9")
    inc = increment_distribution(model, alpha)
    if inc.drift <= 0.0:
        raise ValueError(f"increment drift {inc.drift!r} is not positive")
    traces = replicate_traces(
        model, alpha, depth, replicates, seed, node_cap, threads, renewal_interval=(a, b)
    )
    sums = traces.renewal_sums
    mean = float(sums.mean())
    se = float(sums.std(ddof=1) / math.sqrt(replicates)) if replicates > 1 else 0.0
    exact = _exact_renewal_mass(model, alpha, (a, b), depth)
    if se > 0.0:
        z = (mean - exact) / se
    else:
        z = 0.0 if abs(mean - exact) <= 1e-12 * max(1.0, abs(exact)) else math.inf
    return RenewalReport(alpha, (a, b), depth, replicates, mean, se, exact, z)
