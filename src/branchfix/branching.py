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

Trees grow in one generation loop, :func:`_grow`, which draws every
parent's child count, checks the node budget on those exact counts (so a
generation over budget is never allocated) and builds the generation; it
feeds both :func:`simulate_tree` and the batch engine.  With a fixed fan-out
a batch's generation ``n`` is a C-contiguous ``(width^n, trees)`` array: row
``k`` holds vertex ``k`` of every tree, in a single tree's parent-major
order, so each per-replicate statistic is a reduction down the columns and
needs no per-vertex labels.  With a variable fan-out each tree's generation
is a contiguous block, and the float sums go through ``np.bincount`` labels.
A generation step (contract in :class:`_Slots`) owns its buffers;
:func:`_step_maker`, the engine's one type dispatch, picks
:class:`_CascadeStep` on the cascade's exact integer levels or
:class:`_AtomStep` for every other model, which reads tables built once per
call (:class:`_AtomColumns`).  Steps are handed from batch to batch, one per
running thread.
"""

from __future__ import annotations

import functools
import itertools
import math
import queue
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Optional

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


def _unit_threshold(theta: float) -> int:
    """``ceil(theta * 2^53)``: ``k < thr`` iff ``k * 2^-53 < theta`` for integer k."""
    return math.ceil(theta * 2.0**53)


class _Slots:
    """Base of a generation step: its contract, two output slots and buffers.

    A step has a ``width`` (the most children of one parent), the ``dtype``
    of its ``S`` values, ``draw(seeds) -> (atoms, ends)``, where ``ends``
    holds each parent's cumulative child count or is None when every parent
    has ``width`` children, and a call ``(S, seeds, atoms, ends, trees=1,
    leaf=False) -> (S, seeds)`` that builds the children.

    Layout.  With a fixed fan-out the parents of ``trees`` trees come as a
    flat C-contiguous ``(rows, trees)`` array, row ``k`` holding vertex
    ``k`` of every tree, and the children of parent row ``p`` fill rows
    ``p*width .. p*width + width-1`` in child order; with ``trees = 1`` this
    is a single tree's parent-major order.  With a variable fan-out the
    parents are tree-major and the children parent-major, each parent's
    after those of the parents before it, so each tree's vertices stay one
    block.  ``leaf=True`` says that nothing reads the children's seeds: a
    step that needs none to draw skips them and returns None for them.

    Outputs go to two slots in turn, each grown to the largest generation it
    has held: a call reads the previous call's slot while it writes the
    other, so a run of batches touches no fresh memory after the first, and
    a caller that keeps a generation copies it.  Work goes in blocks of
    whole parent rows, at most ``2^15`` children a block unless one row has
    more, through named buffers (:meth:`_buffer`) grown to the largest
    block they have held.  A step owns its buffers, so one instance serves
    one thread.
    """

    def __init__(self, dtype, width):
        self.dtype = np.dtype(dtype)
        self.width = width
        self.scratch = np.empty(seeding._BLOCK, dtype=np.uint64)
        self.buffers = {}
        self.slots = [(np.empty(0, dtype=dtype), np.empty(0, dtype=np.uint64))] * 2
        self.turn = 0

    def _outputs(self, size):
        out, child = self.slots[self.turn]
        if len(out) < size:
            out, child = np.empty(size, dtype=out.dtype), np.empty(size, dtype=np.uint64)
            self.slots[self.turn] = (out, child)
        self.turn ^= 1
        return out[:size], child[:size]

    def _buffer(self, name, size, dtype=np.uint64):
        """The first ``size`` values of the step's reused buffer ``name``."""
        buf = self.buffers.get(name)
        if buf is None or len(buf) < size:
            buf = self.buffers[name] = np.empty(size, dtype=dtype)
        return buf[:size]

    def _blocks(self, parents, trees):
        """``(lo, hi, rows)`` per block of whole rows of ``trees`` parents."""
        step = max(1, seeding._BLOCK // (self.width * trees)) * trees
        for lo in range(0, parents, step):
            hi = min(lo + step, parents)
            yield lo, hi, (hi - lo) // trees


class _CascadeStep(_Slots):
    """Cascade generation step on exact integer levels ``S(v) = sum B``.

    Every parent has ``N`` children, so :meth:`draw` has nothing to pick.
    Child ``j`` of a parent with seed ``s`` has seed ``mix64(s ^ salt_j)``
    and level ``parent + (bits < ceil(theta * 2^53))`` with ``bits =
    mix64(child ^ DRAW_SALT) >> 11``.  That integer test is exactly ``u <
    theta`` for ``u = bits * 2^-53`` (both sides scale by the power of two
    exactly), so the draws are those of :func:`seeding.unit_uniforms_np`.
    Per block of parent rows, one XOR per child position writes each child
    row, a contiguous slab of ``trees`` values; one fused pass then mixes
    the block's child seeds in place and draws, and one add per position
    writes the levels.  The draws need every child seed, the last
    generation's too, so ``leaf`` changes nothing here.  Levels are int64.
    """

    def __init__(self, model: BernoulliCascade):
        super().__init__(np.int64, model.N)
        self.salts = (np.arange(model.N, dtype=np.uint64) + np.uint64(1)) * np.uint64(GOLDEN)
        self.thr = np.uint64(_unit_threshold(model.theta))

    def draw(self, seeds):
        return None, None

    def __call__(self, levels, seeds, atoms=None, ends=None, trees=1, leaf=False):
        n = self.width
        out, child = self._outputs(len(levels) * n)
        for lo, hi, rows in self._blocks(len(levels), trees):
            shape = (rows, trees)
            c = child[lo * n : hi * n]
            kid_seeds = c.reshape(rows, n, trees)
            for j in range(n):
                np.bitwise_xor(seeds[lo:hi].reshape(shape), self.salts[j], out=kid_seeds[:, j])
            seeding._mix64_inplace(c, self.scratch)
            bits = self._buffer("bits", len(c))
            np.bitwise_xor(c, seeding._DRAW_NP, out=bits)
            seeding._mix64_inplace(bits, self.scratch)
            bits >>= seeding._UNIT_SHIFT
            hit = np.less(bits, self.thr, out=self._buffer("hit", len(c), bool))
            hit = hit.reshape(rows, n, trees)
            kid_levels = out[lo * n : hi * n].reshape(rows, n, trees)
            for j in range(n):
                np.add(levels[lo:hi].reshape(shape), hit[:, j], out=kid_levels[:, j])
        return out, child


class _AtomColumns:
    """Immutable draw and child tables of a finite-atom model.

    ``thr[j] = ceil(cum_j * 2^53)`` for the cumulative atom probabilities
    ``cum_j``, ``j < K-1``.  Column ``j`` of ``salts`` and ``neglog`` holds,
    per atom, the child salt and ``-log w`` of the atom's ``j``-th positive
    weight ``w``; the salt is that of the weight's position in
    ``full_weights``, so zero weights keep their place in the seed chain.
    ``valid[k, j]`` tells whether atom ``k`` has a ``j``-th positive weight
    and ``counts[k]`` how many it has.  The fan-out is fixed when every atom
    has the same count.  Built once per run; any number of steps share it.
    """

    def __init__(self, model: WeightModel):
        table = atom_table(model)
        cum = np.cumsum(table.probs)
        k = len(cum)
        self.thr = np.array([_unit_threshold(c) for c in cum[:-1]], dtype=np.uint64)
        self.counts = table.positive_counts
        self.width = width = int(self.counts.max())
        self.fixed = bool(np.all(self.counts == width))
        self.salts = np.zeros((width, k), dtype=np.uint64)
        self.neglog = np.zeros((width, k))
        self.valid = np.zeros((k, width), dtype=bool)
        for a, ws in enumerate(table.full_weights):
            positions = [i for i, w in enumerate(ws) if w > 0.0]
            for j, i in enumerate(positions):
                self.salts[j, a] = ((i + 1) * GOLDEN) & _M64
                self.neglog[j, a] = -float(table.log_weights[a][j])
                self.valid[a, j] = True
        for arr in (self.thr, self.counts, self.salts, self.neglog, self.valid):
            arr.flags.writeable = False


class _AtomStep(_Slots):
    """Finite-atom generation step on float ``S(v) = -log L(v)``.

    A generation takes two calls.  :meth:`draw` picks each parent's atom
    from ``bits = mix64(seed ^ DRAW_SALT) >> 11`` as the count of
    ``bits >= thr[j]``: ``cum_j <= u`` for ``u = bits * 2^-53`` exactly when
    ``bits >= ceil(cum_j * 2^53)`` (the power-of-two scaling is exact and
    ``bits`` is an integer), and with ``cum`` nondecreasing the count over
    ``j < K-1`` is ``min(searchsorted(cum, u, "right"), K-1)``, the draw of
    :func:`seeding.unit_uniforms_np`.  With a variable fan-out it also
    returns each parent's child end offset, so a caller knows every child
    count before any child is built.  Calling the step then builds the
    children, within a parent in ascending position of their weights.  Per
    block of parent rows, for each column ``j``, it gathers the atoms'
    ``-log w`` and salts from the column tables into reused buffers, adds
    the steps to the parent ``S`` and XORs the salts into the parent seeds.
    With a fixed fan-out these land straight in the output, child ``j`` of
    every parent row as one row of ``trees`` values (see :class:`_Slots`);
    otherwise in a block-sized ``(parents, width)`` buffer that one
    row-major compress by the atoms' ``valid`` rows moves to the output.
    The child seeds are then mixed in place.  With ``leaf`` set the seeds
    are not built at all (no gather, XOR or mix) and None is returned for
    them: the draws of a generation need only the parents' seeds.

    The tables are shared by every step of a run.  The atom buffer returned
    by :meth:`draw` is overwritten by the next draw.
    """

    def __init__(self, columns: _AtomColumns):
        super().__init__(np.float64, columns.width)
        self.cols = columns

    def draw(self, seeds):
        """``(atoms, ends)``: each parent's atom and, unless the fan-out is
        fixed (then None), the cumulative child count up to each parent."""
        v = len(seeds)
        atoms = self._buffer("atoms", v, np.intp)
        if len(self.cols.thr) == 0:         # one atom: nothing to draw
            atoms[:] = 0
        else:
            for lo in range(0, v, seeding._BLOCK):
                hi = min(lo + seeding._BLOCK, v)
                bits = self._buffer("bits", hi - lo)
                np.bitwise_xor(seeds[lo:hi], seeding._DRAW_NP, out=bits)
                seeding._mix64_inplace(bits, self.scratch)
                bits >>= seeding._UNIT_SHIFT
                self._count(bits, atoms[lo:hi])
        if self.cols.fixed:
            return atoms, None
        return atoms, np.cumsum(np.take(self.cols.counts, atoms, mode="clip"))

    def _count(self, bits, k):
        """``k[i] = #{j : bits[i] >= thr[j]}``."""
        thr = self.cols.thr
        np.greater_equal(bits, thr[0], out=k, casting="unsafe")
        hit = self._buffer("hit", len(bits), bool)
        for t in thr[1:]:
            np.greater_equal(bits, t, out=hit)
            k += hit

    def __call__(self, S, seeds, atoms, ends=None, trees=1, leaf=False):
        cols = self.cols
        width = self.width
        fixed = ends is None
        trees = trees if fixed else 1
        out, child = self._outputs(len(S) * width if fixed else int(ends[-1]))
        for lo, hi, rows in self._blocks(len(S), trees):
            m = hi - lo
            shape = (rows, trees)
            k = atoms[lo:hi]
            if fixed:
                full_s, full_seeds = out[lo * width : hi * width], child[lo * width : hi * width]
            else:
                full_s = self._buffer("full_s", m * width, np.float64)
                full_seeds = self._buffer("full_seeds", m * width)
            kids = full_s.reshape(rows, width, trees)
            inc = self._buffer("inc", m, np.float64)
            for j in range(width):
                np.take(cols.neglog[j], k, out=inc, mode="clip")
                np.add(S[lo:hi].reshape(shape), inc.reshape(shape), out=kids[:, j])
            if not fixed:
                o0, o1 = (int(ends[lo - 1]) if lo else 0), int(ends[hi - 1])
                keep = np.take(cols.valid, k, axis=0, mode="clip",
                               out=self._buffer("keep", m * width, bool).reshape(m, width))
                idx = np.flatnonzero(keep)
                np.take(full_s, idx, out=out[o0:o1], mode="clip")
            if leaf:
                continue
            kids = full_seeds.reshape(rows, width, trees)
            salt = self._buffer("salt", m)
            for j in range(width):
                np.take(cols.salts[j], k, out=salt, mode="clip")
                np.bitwise_xor(seeds[lo:hi].reshape(shape), salt.reshape(shape), out=kids[:, j])
            if fixed:
                c = full_seeds
            else:
                c = child[o0:o1]
                np.take(full_seeds, idx, out=c, mode="clip")
            seeding._mix64_inplace(c, self.scratch)
        return out, (None if leaf else child)


def _step_maker(model: WeightModel):
    """Step factory for ``model``, the engine's one type dispatch; its steps
    share the model's tables, built here once."""
    if isinstance(model, BernoulliCascade):
        return functools.partial(_CascadeStep, model)
    return functools.partial(_AtomStep, _AtomColumns(model))


def _grow(step, state, seeds, depth, node_cap, rep_indices=None, leaf_seeds=True):
    """Grow trees generation by generation: the engine's one generation loop.

    ``(state, seeds)`` holds one root per tree.  Yields ``(n, state, seeds,
    sizes, ends)`` for ``n = 1 .. depth``: generation ``n`` of every tree,
    ``sizes[i]`` vertices of tree ``i``, and the draw's ``ends`` (None for a
    fixed fan-out).  The step gets the tree count, so a fixed fan-out lays
    generation ``n`` out as a C-contiguous ``(width^n, trees)`` array and a
    variable one as tree ``i``'s contiguous block after those of trees ``0
    .. i-1`` (see :class:`_Slots`).  With ``leaf_seeds`` False the step is
    told that nothing reads the last generation's seeds, which may then be
    None.  The yielded arrays live in the step's slots.

    Every parent's child count is drawn before the node budget is checked,
    and the check precedes the build: when a tree's node count, root
    included, would pass ``node_cap``, :class:`NodeCapError` names the
    first such tree as ``rep_indices[i]`` (None for a single tree), and the
    generation is never allocated.
    """
    trees = len(state)
    sizes = np.ones(trees, dtype=np.int64)
    totals = sizes.copy()
    for n in range(1, depth + 1):
        atoms, ends = step.draw(seeds)
        if ends is None:
            sizes = sizes * step.width
        else:
            sizes = np.diff(ends[np.cumsum(sizes) - 1], prepend=0)
        totals += sizes
        if totals.max() > node_cap:
            i = int(np.argmax(totals > node_cap))
            raise NodeCapError(n, int(totals[i]),
                               None if rep_indices is None else int(rep_indices[i]))
        state, seeds = step(state, seeds, atoms, ends, trees=trees,
                            leaf=n == depth and not leaf_seeds)
        yield n, state, seeds, sizes, ends


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
    step = _step_maker(model)()
    s = np.zeros(1, dtype=step.dtype)
    seeds = np.array([seed & _M64], dtype=np.uint64)
    gens = [s.astype(np.float64)]
    parents = [np.array([-1], dtype=np.int64)]
    vseeds = [seeds.copy()]
    for _, s, seeds, _, ends in _grow(step, s, seeds, depth, node_cap):
        counts = step.width if ends is None else np.diff(ends, prepend=0)
        parents.append(np.repeat(np.arange(len(vseeds[-1]), dtype=np.int64), counts))
        gens.append(s.astype(np.float64))
        vseeds.append(seeds.copy())
    return WeightedTree(depth, seed, sum(map(len, gens)), gens, parents, vseeds)


@dataclass(frozen=True)
class MartingaleTrace:
    """Values ``W_n = sum_v L(v)^alpha`` for n = 0..depth (``W_0 = 1``)."""

    alpha: float
    values: np.ndarray


def martingale_trace(tree: WeightedTree, alpha: float) -> MartingaleTrace:
    vals = np.array([float(np.sum(np.exp(-alpha * s))) for s in tree.generations])
    return MartingaleTrace(alpha, vals)


def sup_weight_trace(tree: WeightedTree) -> np.ndarray:
    """``R_n = max_v L(v)`` per generation (empty generations give 0).

    ``np.exp`` of each generation's minimum, as the batch engines take it,
    so ``replicate_traces(...).R_sup`` equals this trace bit for bit.
    """
    mins = np.array([s.min() if len(s) else np.inf for s in tree.generations],
                    dtype=np.float64)
    return np.exp(-mins)


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


def _replicate_sums(x, nrep, labels=None):
    """Per-replicate sums of one generation's values, each in vertex order.

    Tree-major blocks (``labels`` given) add sequentially in
    ``np.bincount``.  The ``(position, replicate)`` layout adds down the
    columns: numpy adds a C-contiguous ``(rows, nrep)`` array row by row into
    ``nrep`` running sums, but drops the axis of a single column and sums
    that one contiguous run pairwise, so one replicate takes ``np.cumsum``.
    """
    if labels is not None:
        return np.bincount(labels, weights=x, minlength=nrep)
    if nrep == 1:
        return np.cumsum(x)[-1:]
    return np.add.reduce(x.reshape(-1, nrep), axis=0)


def _batch_traces(alpha, depth, rep_indices, master_seed, node_cap, interval, step):
    """Traces for one batch of replicates; pure function of its arguments.

    ``step`` is a generation step of the model (see :func:`_step_maker`);
    :func:`_grow` raises :class:`NodeCapError` before it builds the first
    generation over budget, with the fields of the first replicate over it.
    """
    nrep = len(rep_indices)
    w = np.empty((nrep, depth + 1))
    r = np.empty((nrep, depth + 1))
    ren = np.zeros(nrep) if interval is not None else None
    seeds = seeding.replicate_roots_np(master_seed, rep_indices)
    w[:, 0] = 1.0
    r[:, 0] = 1.0
    if interval is not None:
        a, b = interval
        if a - 1e-9 <= 0.0 <= b + 1e-9:
            ren += 1.0
    # Integer levels carry the replicate as an offset, i*(depth+1) + S(v), so
    # one exact bincount is every replicate's level histogram, which dotted
    # with the alpha-geometric weights gives W_n (no per-vertex exp).  Float
    # S(v) add sequentially per replicate: down the columns of a fixed
    # fan-out's (position, replicate) layout, in np.bincount over a variable
    # one's blocks; so those bits depend neither on the layout nor on how
    # the step cuts its blocks.  The two summation orders give different
    # bits, so each model keeps its own.
    levels = step.dtype.kind == "i"
    offset = np.arange(nrep, dtype=np.int64) * (depth + 1) if levels else np.zeros(nrep)
    rho = np.exp(-alpha * np.arange(depth + 1))
    for n, state, _, sizes, ends in _grow(step, offset, seeds, depth, node_cap,
                                          rep_indices, leaf_seeds=False):
        fixed = ends is None
        if fixed:
            low = np.minimum.reduce(state.reshape(-1, nrep), axis=0)
        else:
            low = np.minimum.reduceat(state, np.cumsum(sizes) - sizes)
        r[:, n] = np.exp(offset - low)
        if levels:
            hist = np.bincount(state, minlength=nrep * (depth + 1))
            lvl = np.ascontiguousarray(hist.reshape(nrep, depth + 1)[:, : n + 1])
            w[:, n] = lvl @ rho[: n + 1]
            if interval is not None:
                ks = np.arange(n + 1)
                mask = (ks >= a - 1e-9) & (ks <= b + 1e-9)
                if np.any(mask):
                    ren += lvl[:, mask] @ rho[: n + 1][mask]
            continue
        labels = None if fixed else np.repeat(np.arange(nrep), sizes)
        wv = np.multiply(state, -alpha, out=step._buffer("wv", len(state), np.float64))
        np.exp(wv, out=wv)
        w[:, n] = _replicate_sums(wv, nrep, labels)
        if interval is not None:
            wv *= (state >= a - 1e-9) & (state <= b + 1e-9)
            ren += _replicate_sums(wv, nrep, labels)
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

    # One step per running batch, handed from batch to batch so that its
    # buffers are reused.
    make_step = _step_maker(model)
    steps = queue.SimpleQueue()
    for _ in range(max(threads, 1)):
        steps.put(make_step())

    def run(idx):
        step = steps.get()
        try:
            bw, br, bren = _batch_traces(
                alpha, depth, batches[idx], seed, node_cap, renewal_interval, step
            )
        finally:
            steps.put(step)
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
    computed via ``expm1`` so small tails keep full relative accuracy, with
    its standard error or, for callers that need none, without.
    """

    alpha: float
    depth: int
    samples: np.ndarray
    warnings: list = field(default_factory=list)
    diagnostics: dict = field(default_factory=dict)

    @staticmethod
    def _arguments(x) -> np.ndarray:
        xs = np.atleast_1d(np.asarray(x, dtype=np.float64))
        if np.any(xs < 0.0):
            raise ValueError("Laplace arguments must be >= 0")
        return xs

    def evaluate(self, x):
        """Empirical ``phi(x) = mean exp(-x W)`` with its standard error."""
        tail, se = self.evaluate_tail(x)
        return 1.0 - tail, se

    def evaluate_tail(self, x, se=True):
        """``1 - phi(x)`` with full relative accuracy for small arguments.

        Returns ``(tail, standard error)``, or the tail alone with ``se``
        False, which skips the variance pass; floats for a scalar ``x``.
        The terms ``-expm1(-x W)`` go in blocks of at most 2^22 values
        through one buffer, formed, reduced and overwritten in place.
        """
        xs = self._arguments(x)
        n = len(self.samples)
        chunk = max(1, (1 << 22) // max(n, 1))
        buf = np.empty((min(chunk, len(xs)), n))
        neg = -self.samples
        mean = np.empty(len(xs))
        var = np.empty(len(xs)) if se else None
        for lo in range(0, len(xs), chunk):
            rows = slice(lo, lo + chunk)
            z = buf[: len(xs[rows])]
            np.multiply.outer(xs[rows], neg, out=z)
            np.expm1(z, out=z)
            np.negative(z, out=z)
            mean[rows] = mz = z.mean(axis=1)
            if se:
                z -= mz[:, None]
                np.multiply(z, z, out=z)
                var[rows] = z.sum(axis=1) / (n - 1)
        scalar = np.isscalar(x) or np.ndim(x) == 0
        if not se:
            return float(mean[0]) if scalar else mean
        err = np.sqrt(var / n)
        if scalar:
            return float(mean[0]), float(err[0])
        return mean, err


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
