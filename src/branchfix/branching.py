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

Trees grow in one loop, :func:`_grow`, which feeds both
:func:`simulate_tree` and the batch engine.  Since a subtree is a pure
function of its root's seed, the vertices can be built in any order without
changing a bit, so ``_grow`` goes depth first, in chunks of whole parent
rows with at most ``_CHUNK`` (``seeding._BLOCK``, 2^15) children each, or
one row when a row has more.  Each chunk takes the parent rows after those
of the chunk before it, so the chunks of every generation arrive in vertex
order.  With a fixed fan-out a batch's generation ``n`` is laid out as a
C-contiguous ``(width^n, trees)`` array: row ``k`` holds vertex ``k`` of
every tree, in a single tree's parent-major order, and a chunk is a run of
rows.  With a variable fan-out each tree's generation is a contiguous block,
so a chunk holds runs of whole or partial trees, which it lists by their
starts.  The batch engine folds each chunk into per-generation accumulators,
every model's sums through the one fold :func:`_carry_sums`, with the bits
of one pass over the whole generation and no BLAS product (see
:func:`_batch_traces`).

Memory.  A running thread works in one :class:`_Workspace`, which holds one
chunk slot per generation and the step's block buffers: about ``depth *
2^15 * 16`` bytes of ``S`` values and seeds, plus 8 bytes per slot value for
a one-draw model's atoms and 8 for a variable fan-out's child offsets,
whatever the replicate count (more when one row passes 2^15 children).  A
variable fan-out's chunk may hold up to 2^15 parents, so its step's
``(parents, width)`` buffers take up to ``2^15 * width`` values.  The
module's :class:`_WorkspacePool`, empty until first used, lends workspaces
to each call and keeps them for later ones, so a call after the first
touches no fresh memory beyond its outputs.  The Laplace kernel of
:class:`EmpiricalLaplace` works in blocks too: one buffer of whole sample
rows, at most 2^15 values (256 KiB) or one row when the sample is larger,
plus a negated copy of the sample, whatever the number of arguments.

Every model grows through one generation step, :class:`_Step`, built once
per call from the model's atom table, so the engine never reads a model's
type.  A step holds only immutable tables, so one step serves every thread
of a call.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import queue
import threading
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import seeding
from .seeding import GOLDEN, _M64
from .weights import (
    WeightModel,
    atom_table,
    detect_lattice,
    moment_m,
)

_BATCH = 512
# How far m(alpha) may sit from 1 for W_n to count as a mean-one martingale.
MEAN_ONE_TOL = 1e-9
# Most children in one chunk of a generation, unless one parent row has more.
_CHUNK = seeding._BLOCK


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
# workspaces
# ---------------------------------------------------------------------------


class _Workspace:
    """The named buffers of one running thread, kept from call to call.

    :meth:`get` returns the first ``size`` values of buffer ``name`` viewed
    as ``dtype``.  A buffer is raw bytes grown to the largest request it has
    served, so int64 levels and float64 ``S`` values share memory.  One
    workspace serves one thread at a time.
    """

    def __init__(self):
        self.buffers = {}

    def get(self, name, size, dtype=np.uint64):
        dtype = np.dtype(dtype)
        nbytes = size * dtype.itemsize
        buf = self.buffers.get(name)
        if buf is None or len(buf) < nbytes:
            buf = self.buffers[name] = np.empty(nbytes, dtype=np.uint8)
        return buf[:nbytes].view(dtype)


class _WorkspacePool:
    """Idle workspaces, lent to one call at a time and kept for later calls.

    :meth:`take` lends ``k`` workspaces for a ``with`` block, idle ones
    first, and makes the rest.  Callers in several user threads at once so
    get distinct workspaces.  On return the pool keeps at most as many as
    the largest ``k`` it has lent and drops the others.
    """

    def __init__(self):
        self.idle = []
        self.most = 0
        self.lock = threading.Lock()

    @contextlib.contextmanager
    def take(self, k):
        with self.lock:
            self.most = max(self.most, k)
            lent = [self.idle.pop() if self.idle else _Workspace() for _ in range(k)]
        try:
            yield lent
        finally:
            with self.lock:
                self.idle.extend(lent[: self.most - len(self.idle)])


_POOL = _WorkspacePool()


# ---------------------------------------------------------------------------
# generation steps
# ---------------------------------------------------------------------------


def _unit_threshold(theta: float) -> int:
    """``ceil(theta * 2^53)``: ``k < thr`` iff ``k * 2^-53 < theta`` for integer k."""
    return math.ceil(theta * 2.0**53)


class _Step:
    """The generation step of a weight model, built from its :func:`atom_table`.

    ``T`` is ``copies`` i.i.d. draws from the table's ``K`` atoms.  A draw
    from seed ``s`` reads ``bits = mix64(s ^ DRAW_SALT) >> 11`` and counts
    the thresholds ``thr[j] = ceil(cum_j * 2^53)`` above it, for the
    cumulative atom probabilities ``cum_j``, ``j < K-1``.  ``bits < thr[j]``
    is exactly ``u < cum_j`` for ``u = bits * 2^-53`` (the power-of-two
    scaling is exact and ``bits`` is an integer), so a count ``c`` is atom
    ``K-1-c``, the draw ``min(searchsorted(cum, u, "right"), K-1)`` of
    :func:`seeding.unit_uniforms_np`.  The step's tables list the atoms in
    that reversed order, so a count indexes them.  Which seed a draw reads
    is fixed by ``copies``:

    * ``copies == 1``: :meth:`draw` picks each parent's atom from the
      parent's own seed, so a caller knows every child count
      (``counts[c]``) before any child is built.  The call then builds the
      children, within a parent in ascending position of their weights: for
      each column ``j`` it gathers the atoms' ``-log w`` and salts from the
      column tables, adds the steps to the parent ``S`` and XORs the salts
      into the parent seeds.  With ``leaf`` set the seeds are not built at
      all: the draws need only the parents' seeds.
    * ``copies > 1``: every atom is one positive weight, and child ``j`` is
      draw ``j``.  One XOR per position writes the child seeds ``mix64(s ^
      salt_j)``, one pass mixes them in place and one draws each child's
      atom from its own seed, leaf or not.  Each atom's step is its count
      (the cascade's: ``bits < ceil(theta * 2^53)`` draws ``exp(-1)``, step
      1), so one add per position writes the child ``S`` straight from the
      counts; another table raises ``ValueError``.

    Column ``j`` of ``salts`` holds the salt ``(i+1) * GOLDEN`` of the
    ``j``-th positive weight's position ``i`` in ``T``, so zero weights keep
    their place in the seed chain, and column ``j`` of ``neglog`` its ``-log
    w``.  ``valid[c, j]`` tells whether atom ``c`` has a ``j``-th positive
    weight.  ``S`` is int64 (``dtype``) when every step ``-log w`` is a
    nonnegative integer, at most ``kmax``, and float64 otherwise; the
    tables are built once per call and read-only for every thread.

    The engine's contract: ``width`` (the most children of one parent),
    ``dtype``, ``counts`` (each atom's child count, None for a fixed
    fan-out), ``draws`` (whether :meth:`draw` must pick each parent's atom
    before a build) and a call ``(ws, S, seeds, atoms, out_s, out_seeds,
    trees=1, leaf=False)``.  The call builds the children of the parents
    ``(S, seeds)`` into ``(out_s, out_seeds)``, using the buffers of
    workspace ``ws``.  With a fixed fan-out the parents come as a flat
    C-contiguous ``(rows, trees)`` array and the children of parent row
    ``p`` fill rows ``p*width .. p*width + width-1`` in child order.  With a
    variable fan-out (``trees = 1``) the children follow their parent's,
    parent by parent, moved from ``(parents, width)`` buffers by one
    row-major compress over the atoms' ``valid`` rows.  ``leaf=True`` says
    that nothing reads the children's seeds.
    """

    def __init__(self, model: WeightModel):
        table = atom_table(model)
        k = len(table.probs)
        self.thr = np.array([_unit_threshold(c) for c in np.cumsum(table.probs)[:-1]],
                            dtype=np.uint64)
        full = table.full_weights[::-1]
        steps = [-lw for lw in table.log_weights[::-1]]
        flat = np.concatenate(steps)
        levels = bool(np.all((flat >= 0.0) & (flat == np.floor(flat))))
        self.dtype = np.dtype(np.int64 if levels else np.float64)
        self.kmax = int(flat.max()) if levels else None
        counts = np.array([len(s) for s in steps], dtype=np.int64)
        self.width = width = int(counts.max())
        self.counts = None if np.all(counts == width) else counts
        self.salts = np.zeros((width, k), dtype=np.uint64)
        self.neglog = np.zeros((width, k), dtype=self.dtype)
        self.valid = np.zeros((k, width), dtype=bool)
        for c, (ws, s) in enumerate(zip(full, steps)):
            positions = [i for i, w in enumerate(ws) if w > 0.0]
            self.salts[: len(s), c] = [((i + 1) * GOLDEN) & _M64 for i in positions]
            self.neglog[: len(s), c] = s
            self.valid[c, : len(s)] = True
        self.draws = table.copies == 1
        if not self.draws:
            if (width != 1 or any(len(ws) != 1 for ws in full) or not levels
                    or not np.array_equal(self.neglog[0], np.arange(k))):
                raise ValueError("an atom table of several draws needs atoms of one weight "
                                 "whose steps are their counts 0, 1, ...")
            self.width = table.copies
            self.salts = np.array([((j + 1) * GOLDEN) & _M64 for j in range(table.copies)],
                                  dtype=np.uint64)
        for arr in (self.thr, counts, self.salts, self.neglog, self.valid):
            arr.flags.writeable = False

    def draw(self, ws, seeds, out):
        """Write the atom that each seed draws, as its count, to ``out``."""
        thr = self.thr
        if len(thr) == 0:                   # one atom: nothing to draw
            out[:] = 0
            return out
        bits = ws.get("bits", len(seeds))
        np.bitwise_xor(seeds, seeding._DRAW_NP, out=bits)
        seeding._mix64_inplace(bits, ws.get("scratch", seeding._BLOCK))
        bits >>= seeding._UNIT_SHIFT
        np.less(bits, thr[0], out=out, casting="unsafe")
        hit = ws.get("hit", len(bits), bool)
        for t in thr[1:]:
            np.less(bits, t, out=hit)
            out += hit
        return out

    def __call__(self, ws, S, seeds, atoms, out_s, out_seeds, trees=1, leaf=False):
        width = self.width
        fixed = self.counts is None
        m = len(S)
        shape = (m // trees, trees)
        if fixed:
            full_s, full_seeds = out_s, out_seeds
        else:
            full_s = ws.get("full_s", m * width, self.dtype)
            full_seeds = ws.get("full_seeds", m * width)
            keep = np.take(self.valid, atoms, axis=0, mode="clip",
                           out=ws.get("keep", m * width, bool).reshape(m, width))
            idx = np.flatnonzero(keep)
        if not (leaf and self.draws):
            kids = full_seeds.reshape(-1, width, trees)
            salt = ws.get("salt", m)
            for j in range(width):
                s = self.salts[j]
                if self.draws:
                    s = np.take(s, atoms, out=salt, mode="clip").reshape(shape)
                np.bitwise_xor(seeds.reshape(shape), s, out=kids[:, j])
            if not fixed:
                np.take(full_seeds, idx, out=out_seeds, mode="clip")
            seeding._mix64_inplace(out_seeds, ws.get("scratch", seeding._BLOCK))
        if self.draws:
            inc = ws.get("inc", m, self.dtype)
        else:
            drawn = self.draw(ws, out_seeds, ws.get("drawn", len(out_seeds),
                                                    bool if len(self.thr) <= 1 else np.intp))
            drawn = drawn.reshape(-1, width, trees)
        kids = full_s.reshape(-1, width, trees)
        for j in range(width):
            if self.draws:
                step = np.take(self.neglog[j], atoms, out=inc, mode="clip").reshape(shape)
            else:
                step = drawn[:, j]
            np.add(S.reshape(shape), step, out=kids[:, j])
        if not fixed:
            np.take(full_s, idx, out=out_s, mode="clip")


# ---------------------------------------------------------------------------
# the generation loop
# ---------------------------------------------------------------------------


def _grow(step, ws, state, seeds, depth, node_cap, rep_indices=None, leaf_seeds=True):
    """Grow trees depth first in bounded chunks: the engine's one generation loop.

    ``(state, seeds)`` holds one root per tree.  Yields ``(n, S, seeds,
    runs, ends)`` per chunk of generation ``n >= 1``: the chunk's ``S``
    values and seeds and, with a variable fan-out, ``runs = (t, starts)``
    (the vertices from ``starts[i]`` on belong to tree ``t + i``) and
    ``ends``, the child offsets of the chunk's parents from 0; both are
    None for a fixed fan-out.  A chunk holds the children of a run of whole
    parent rows, at most ``_CHUNK`` of them unless one row has more; a row
    is one vertex of every tree with a fixed fan-out (the layout in the
    module docstring and :class:`_Step`) and one vertex with a
    variable one.  A fixed chunk takes ``_CHUNK // (width * trees)`` rows;
    a variable one takes as many parents as its drawn child counts fit.
    Descent is depth first, and a chunk's parent rows follow those of the
    chunk before it, so the chunks of each generation arrive in vertex
    order.  With ``leaf_seeds`` False nothing reads the last
    generation's seeds, which are then None.  The yielded arrays live in
    ``ws``, one slot per generation, and are overwritten by later chunks: a
    caller that keeps one copies it.

    Node budget.  Every parent's child count is drawn before its children
    are built.  When a tree's node count, root included, would pass
    ``node_cap``, :class:`NodeCapError` names the first generation at which
    any tree passes and the first such tree, as ``rep_indices[i]`` (None
    for a single tree), as a breadth-first count would.  A fixed fan-out
    knows every count in advance and checks before it builds anything.  A
    variable fan-out adds the drawn counts per generation and tree; once a
    partial total through generation ``n`` passes, no chunk of generation
    ``n`` or deeper is built, the shallower generations are finished, and
    the error is raised from their complete counts.
    """
    trees = len(state)
    width = step.width
    fixed = step.counts is None
    if fixed:
        total = 1
        for n in range(1, depth + 1):
            total += width**n
            if total > node_cap:
                raise NodeCapError(n, total, None if rep_indices is None else int(rep_indices[0]))
    row = trees if fixed else 1                    # vertices per parent row
    per = max(1, _CHUNK // (width * row))          # parent rows per fixed chunk
    size = per * width * row if fixed else max(_CHUNK, width)
    caps = [trees] + [size] * depth
    gen_s = [state] + [ws.get(("S", n), size, step.dtype) for n in range(1, depth + 1)]
    gen_seeds = [seeds] + [ws.get(("seeds", n), size) for n in range(1, depth + 1)]
    gen_atoms = [ws.get(("atoms", n), caps[n], np.intp) if step.draws else None
                 for n in range(depth)]
    if not fixed:
        gen_ends = [ws.get(("ends", n), caps[n] + 1, np.int64) for n in range(depth)]
        gen_runs = [(0, np.arange(trees))] + [None] * depth
        counts = np.zeros((depth + 1, trees), dtype=np.int64)
        counts[0] = 1
    stop = depth + 1                  # the shallowest generation not to build
    length = [trees] + [0] * depth    # vertices in each generation's current chunk
    pos = [0] * (depth + 1)           # next parent row of each current chunk
    n, fresh = 0, True
    while n >= 0:
        m = length[n]
        if fresh and n < depth:       # a new chunk: draw its child counts
            if step.draws:
                step.draw(ws, gen_seeds[n][:m], gen_atoms[n][:m])
            if not fixed:
                ends = gen_ends[n]
                ends[0] = 0
                per_parent = np.take(step.counts, gen_atoms[n][:m], mode="clip",
                                     out=ws.get("per_parent", m, np.int64))
                np.cumsum(per_parent, out=ends[1 : m + 1])
                t, starts = gen_runs[n]
                t1 = t + len(starts)
                counts[n + 1, t:t1] += np.diff(ends[np.append(starts, m)])
                if counts[: n + 2, t:t1].sum(axis=0).max() > node_cap:
                    stop = min(stop, n + 1)
        fresh = False
        if n + 1 >= stop or pos[n] == m // row:
            n -= 1
            continue
        lo = pos[n]
        if fixed:
            hi = pos[n] = min(lo + per, m // row)
            k, ends = (hi - lo) * width * row, None
        else:
            # As many parents as have at most _CHUNK children in all, by
            # their drawn child offsets, and at least one.  Every parent has
            # a child (each atom has a positive weight), so each tree met in
            # the parents [lo, hi) has a run of children.
            offsets = gen_ends[n][: m + 1]
            fit = int(np.searchsorted(offsets, offsets[lo] + _CHUNK, "right")) - 1
            hi = pos[n] = max(lo + 1, fit)
            t, starts = gen_runs[n]
            i0 = int(np.searchsorted(starts, lo, "right")) - 1
            i1 = int(np.searchsorted(starts, hi))
            ends = offsets[lo : hi + 1]
            k = int(ends[-1] - ends[0])
            gen_runs[n + 1] = (t + i0, offsets[np.maximum(starts[i0:i1], lo)] - ends[0])
        lo, hi = lo * row, hi * row
        leaf = n + 1 == depth and not leaf_seeds
        out_s, out_seeds = gen_s[n + 1][:k], gen_seeds[n + 1][:k]
        step(ws, gen_s[n][lo:hi], gen_seeds[n][lo:hi],
             None if gen_atoms[n] is None else gen_atoms[n][lo:hi], out_s, out_seeds,
             trees=row, leaf=leaf)
        n += 1
        length[n], pos[n], fresh = k, 0, True
        yield n, out_s, None if leaf else out_seeds, None if fixed else gen_runs[n], ends
    if stop <= depth:
        totals = np.cumsum(counts[: stop + 1], axis=0)
        n = next(g for g in range(1, stop + 1) if totals[g].max() > node_cap)
        i = int(np.argmax(totals[n] > node_cap))
        raise NodeCapError(n, int(totals[n, i]),
                           None if rep_indices is None else int(rep_indices[i]))


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
    when the cumulative node count would exceed ``node_cap`` (see
    :func:`_grow`).
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    step = _Step(model)
    s = np.zeros(1, dtype=step.dtype)
    seeds = np.array([seed & _M64], dtype=np.uint64)
    gens = [[s.astype(np.float64)]] + [[] for _ in range(depth)]
    vseeds = [[seeds.copy()]] + [[] for _ in range(depth)]
    counts = [[] for _ in range(depth + 1)]
    with _POOL.take(1) as (ws,):
        for n, chunk_s, chunk_seeds, _, ends in _grow(step, ws, s, seeds, depth, node_cap):
            gens[n].append(chunk_s.astype(np.float64))
            vseeds[n].append(chunk_seeds.copy())
            if ends is not None:
                counts[n].append(np.diff(ends))
    gens = [np.concatenate(g) for g in gens]
    parents = [np.array([-1], dtype=np.int64)]
    for n in range(1, depth + 1):
        per_parent = step.width if step.counts is None else np.concatenate(counts[n])
        parents.append(np.repeat(np.arange(len(gens[n - 1]), dtype=np.int64), per_parent))
    return WeightedTree(depth, seed, sum(map(len, gens)), gens, parents,
                        [np.concatenate(v) for v in vseeds])


# ---------------------------------------------------------------------------
# batched replicate engine
# ---------------------------------------------------------------------------


@dataclass
class ReplicateTraces:
    """Per-replicate traces of ``W_n`` and ``R_n`` plus optional renewal sums.

    ``vertices[n]`` counts the generation-``n`` vertices of all replicates.
    """

    alpha: float
    depth: int
    master_seed: int
    W: np.ndarray                      # (replicates, depth+1)
    R_sup: np.ndarray                  # (replicates, depth+1)
    vertices: np.ndarray               # (depth+1,) int64
    renewal_interval: Optional[tuple] = None
    renewal_sums: Optional[np.ndarray] = None


def _carry_sums(ws, terms, acc, lab=None):
    """Add one chunk's terms to the running per-replicate sums ``acc``.

    ``terms`` holds ``len(acc)`` free places, then the chunk's terms.  The
    running sums go in front, so each replicate's sum runs on sequentially,
    bit for bit one sum over the whole generation in vertex order.  With
    ``lab`` (a variable fan-out) every entry carries its replicate, those in
    front the replicates of ``acc``, and ``np.bincount`` adds in input
    order.  Without it the terms are the ``(position, replicate)`` layout:
    numpy adds a C-contiguous ``(rows, trees)`` array row by row into the
    ``trees`` running sums, but drops the axis of a single column and sums
    that one contiguous run pairwise, so one replicate takes ``np.cumsum``.
    """
    k = len(acc)
    terms[:k] = acc
    if lab is not None:
        acc[:] = np.bincount(lab, weights=terms)[-k:]
    elif k == 1:
        acc[0] = np.cumsum(terms, out=ws.get("cumsum", len(terms), np.float64))[-1]
    else:
        np.add.reduce(terms.reshape(-1, k), axis=0, out=acc)


def _batch_traces(alpha, depth, rep_indices, master_seed, node_cap, interval, step, ws,
                  w, r, ren):
    """Traces of one batch of replicates, a pure function of the arguments.

    Writes rows of the call's outputs ``w``, ``r`` and ``ren`` (None
    without an interval) and returns the batch's vertex count per
    generation.  ``step`` is the model's generation step (see
    :class:`_Step`) and ``ws`` the thread's workspace; :func:`_grow`
    raises :class:`NodeCapError` as it describes.

    Each chunk goes into per-generation accumulators in ``ws``, in the order
    the chunks arrive, which is vertex order, so each statistic has the bits
    of one pass over the whole generation.  ``R_n`` keeps a running
    ``np.minimum`` per replicate.  ``W_n`` and the renewal sums add each
    replicate's terms in vertex order through :func:`_carry_sums`: down the
    columns of a fixed fan-out's layout, in ``np.bincount`` over a variable
    one's labels.  A vertex's term is ``exp(-alpha * S(v))``; on integer
    levels it is read from the table ``rho[k] = exp(-alpha * k)``, one
    ``math.exp`` per level per batch, instead of one exp per vertex.  No sum
    goes through BLAS, so the bits do not depend on its kernel.
    """
    nrep = len(rep_indices)
    gens = depth + 1
    seeds = seeding.replicate_roots_np(master_seed, rep_indices)
    levels = step.dtype.kind == "i"
    fixed = step.counts is None
    low = ws.get("low", gens * nrep, step.dtype).reshape(gens, nrep)
    low[...] = np.iinfo(np.int64).max if levels else np.inf
    sums = ws.get("sums", 2 * gens * nrep, np.float64).reshape(2, gens, nrep)
    sums[...] = 0.0
    if levels:
        rho = np.array([math.exp(-alpha * k) for k in range(depth * step.kmax + 1)])
    if interval is not None:
        a, b = interval[0] - 1e-9, interval[1] + 1e-9
    vertices = np.zeros(gens, dtype=np.int64)
    vertices[0] = nrep
    tree_ids = np.arange(nrep + 1)
    for n, S, _, runs, _ in _grow(step, ws, np.zeros(nrep, step.dtype), seeds, depth,
                                  node_cap, rep_indices, leaf_seeds=False):
        m = len(S)
        vertices[n] += m
        if fixed:
            np.minimum(low[n], np.minimum.reduce(S.reshape(-1, nrep), axis=0), out=low[n])
            t0, t1, lab = 0, nrep, None
        else:
            t0, starts = runs
            t1 = t0 + len(starts)
            low_n = low[n, t0:t1]
            np.minimum(low_n, np.minimum.reduceat(S, starts), out=low_n)
            # Label each vertex with its tree, after the labels of the sums
            # carried in front: a cumulative count of the run starts.
            lab = ws.get("lab", t1 - t0 + m, np.intp)
            lab[: t1 - t0] = tree_ids[t0:t1]
            marks = ws.get("marks", m, np.intp)
            marks[:] = 0
            marks[starts[1:]] = 1
            marks[0] = t0
            np.cumsum(marks, out=lab[t1 - t0 :])
        head = t1 - t0
        terms = ws.get("terms", head + m, np.float64)
        wv = terms[head:]
        if levels:
            np.take(rho, S, out=wv, mode="clip")
        else:
            np.multiply(S, -alpha, out=wv)
            np.exp(wv, out=wv)
        _carry_sums(ws, terms, sums[0, n, t0:t1], lab)
        if interval is not None:
            inside = np.greater_equal(S, a, out=ws.get("inside", m, bool))
            inside &= np.less_equal(S, b, out=ws.get("below", m, bool))
            terms_in = ws.get("terms_in", head + m, np.float64)
            np.multiply(wv, inside, out=terms_in[head:])
            _carry_sums(ws, terms_in, sums[1, n, t0:t1], lab)
    w[:, 0] = 1.0
    r[:, 0] = 1.0
    if ren is not None:
        ren[:] = 1.0 if a <= 0.0 <= b else 0.0
    for n in range(1, gens):
        r[:, n] = np.exp(-low[n])
        w[:, n] = sums[0, n]
        if ren is not None:
            ren += sums[1, n]
    return vertices


def _interval(interval) -> tuple:
    """``interval`` as floats ``(a, b)``: finite ends with ``a <= b``."""
    a, b = float(interval[0]), float(interval[1])
    if not (math.isfinite(a) and math.isfinite(b)) or a > b:
        raise ValueError(f"invalid interval {interval!r}")
    return a, b


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
    bit-identical for every ``threads`` value and batch schedule.  Batches
    of 512 replicates run on ``threads`` threads, each in a workspace lent
    by the module's pool (see the module docstring).
    """
    if replicates <= 0:
        raise ValueError("replicates must be >= 1")
    if depth < 0:
        raise ValueError("depth must be >= 0")
    if threads < 1:
        raise ValueError("threads must be >= 1")
    w = np.empty((replicates, depth + 1))
    r = np.empty((replicates, depth + 1))
    ren = None
    if renewal_interval is not None:
        renewal_interval, ren = _interval(renewal_interval), np.zeros(replicates)
    batches = [(lo, min(lo + _BATCH, replicates)) for lo in range(0, replicates, _BATCH)]
    step = _Step(model)
    with _POOL.take(min(threads, len(batches))) as lent:
        idle = queue.SimpleQueue()
        for ws in lent:
            idle.put(ws)

        def run(bounds):
            lo, hi = bounds
            ws = idle.get()
            try:
                return _batch_traces(
                    alpha, depth, np.arange(lo, hi, dtype=np.int64), seed, node_cap,
                    renewal_interval, step, ws, w[lo:hi], r[lo:hi],
                    None if ren is None else ren[lo:hi])
            finally:
                idle.put(ws)

        if len(lent) > 1:
            with ThreadPoolExecutor(max_workers=len(lent)) as pool:
                counts = list(pool.map(run, batches))
        else:
            counts = [run(b) for b in batches]
    return ReplicateTraces(alpha, depth, seed, w, r, np.sum(counts, axis=0),
                           renewal_interval, ren)


# ---------------------------------------------------------------------------
# empirical limit law
# ---------------------------------------------------------------------------


@dataclass
class EmpiricalLaplace:
    """Monte Carlo sample of the martingale limit with Laplace evaluation.

    ``evaluate`` returns the empirical Laplace transform ``mean exp(-x W)``
    and ``evaluate_tail`` returns ``1 - transform``, computed via ``expm1``
    so small tails keep full relative accuracy.  Both return sample means
    only; the mixture residual report propagates its own standard error
    through the sample.
    """

    alpha: float
    depth: int
    samples: np.ndarray
    warnings: list = field(default_factory=list)
    diagnostics: dict = field(default_factory=dict)

    def evaluate(self, x):
        """Empirical ``phi(x) = mean exp(-x W)``; a float for a scalar ``x``.

        ``1 - evaluate_tail(x)`` where the tail is at most 1/2, else the mean
        itself, which keeps full relative accuracy as ``phi`` nears 0.  Both
        come from one blocked pass (:meth:`_block_means`).
        """
        _, value = self._block_means(x, values=True)
        return value

    def evaluate_tail(self, x):
        """``1 - phi(x)`` with full relative accuracy for small arguments.

        A float for a scalar ``x``, else an array.  The terms ``-expm1(-x
        W)`` go in blocks of whole rows, at most 2^15 values (one row when
        the sample is larger), through one buffer, formed, reduced and
        overwritten in place.
        """
        tail, _ = self._block_means(x, values=False)
        return tail

    def _block_means(self, x, values: bool):
        """``(mean -expm1(-x W), mean exp(-x W) or None)`` for each ``x``.

        A block holds the rows of as many arguments as fit in
        ``seeding._BLOCK`` values (one row when the sample is larger), so a
        row, one argument's terms over the whole sample, is never split and
        its mean does not depend on the block.  With ``values``, the block's
        rows whose tail exceeds 1/2 are formed again in the same buffer as
        ``exp(-x W)`` for the value means, while the block is in cache; every
        other value is ``1 - tail``.  Floats for a scalar ``x``.
        """
        xs = np.atleast_1d(np.asarray(x, dtype=np.float64))
        if np.any(xs < 0.0):
            raise ValueError("Laplace arguments must be >= 0")
        n = len(self.samples)
        per = max(1, seeding._BLOCK // max(n, 1))
        buf = np.empty((min(per, len(xs)), n))
        neg = -self.samples
        tail = np.empty(len(xs))
        value = np.empty(len(xs)) if values else None
        for lo in range(0, len(xs), per):
            block = xs[lo : lo + per]
            z = buf[: len(block)]
            np.multiply.outer(block, neg, out=z)
            np.expm1(z, out=z)
            np.negative(z, out=z)
            t = tail[lo : lo + len(block)]
            t[:] = z.mean(axis=1)
            if values:
                v = value[lo : lo + len(block)]
                np.subtract(1.0, t, out=v)
                far = np.flatnonzero(t > 0.5)
                if len(far):
                    z = buf[: len(far)]
                    np.multiply.outer(block[far], neg, out=z)
                    np.exp(z, out=z)
                    v[far] = z.mean(axis=1)
        if np.isscalar(x) or np.ndim(x) == 0:
            return float(tail[0]), None if value is None else float(value[0])
        return tail, value


def _mean_one_defect(model: WeightModel, alpha: float) -> Optional[str]:
    """Why ``W_n`` is not a mean-one martingale at ``alpha``, or None if it is.

    It is when ``m(alpha)`` is 1 within :data:`MEAN_ONE_TOL`.
    """
    mval = moment_m(model, alpha)
    if abs(mval - 1.0) > MEAN_ONE_TOL:
        return f"m(alpha) = {mval!r} is not 1 within {MEAN_ONE_TOL!r}"
    return None


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

    Warns (without failing) when ``m(alpha)`` is not 1 within
    :data:`MEAN_ONE_TOL` and attaches a depth-halving diagnostic comparing
    the mean at ``depth`` with the mean at ``depth // 2``.
    """
    defect = _mean_one_defect(model, alpha)
    warnings = [] if defect is None else [f"{defect}; W_n is not a mean-one martingale"]
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
        return float(np.add.reduce(self.masses * self.locations))


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


def biggins_check(model: WeightModel, alpha: float) -> BigginsReport:
    """Exact finite-sum verdict for nondegeneracy of the martingale limit.

    Requires ``m(alpha) = 1`` within :data:`MEAN_ONE_TOL`.  Computes the
    increment drift and ``sum_{u>1} P(W_1 = u) u log(u) / E[min(S^+, log
    u)]``; the verdict holds when the drift is positive and the sum is
    finite.
    """
    defect = _mean_one_defect(model, alpha)
    if defect is not None:
        raise ValueError(defect)
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
        denom = float(np.add.reduce(inc.masses * np.minimum(pos, logu)))
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
    increment distribution ``mu`` when ``m(alpha) = 1`` (within
    :data:`MEAN_ONE_TOL`); interval endpoints are matched with absolute
    slack 1e-9.  Requires positive drift.
    """
    a, b = _interval(interval)
    defect = _mean_one_defect(model, alpha)
    if defect is not None:
        raise ValueError(defect)
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
