"""Tree simulation, martingale traces, increment law, and renewal checks."""

import itertools
import math
import os
import subprocess
import sys
import textwrap
import threading
from pathlib import Path

import mpmath
import numpy as np
import pytest

from branchfix import branching
from branchfix.branching import (
    NodeCapError,
    biggins_check,
    increment_distribution,
    renewal_measure_check,
    replicate_traces,
    sample_W_limit,
    simulate_tree,
)
from branchfix.seeding import (
    DRAW_SALT,
    GOLDEN,
    _BLOCK,
    _M64,
    _MIX1,
    _MIX2,
    child_seeds_np,
    replicate_root,
    unit_uniforms_np,
)
from branchfix.weights import (AtomTable, BernoulliCascade, Deterministic, FiniteAtoms,
                               characteristic_exponent, moment_m)

LN3 = math.log(3.0)
# Every atom has two positive weights: a fixed fan-out of 2.
ATOMS_FIXED = FiniteAtoms([(0.3, (0.6, 0.5)), (0.5, (0.9, 0.35)), (0.2, (0.7, 0.8))])
# Unequal atom lengths and a zero weight: fan-out 1, 2 or 3.
ATOMS_VARIABLE = FiniteAtoms([(0.25, (0.2, 0.0, 1.5)), (0.5, (0.8,)),
                              (0.25, (1.0, 0.4, 0.1))])
# 80 positive weights per atom: one parent row of a 512-replicate batch has
# 40 960 children, more than a chunk's 2^15.
WIDE = FiniteAtoms([(0.6, tuple(round(0.004 + 0.0002 * j, 6) for j in range(80))),
                    (0.4, tuple(round(0.02 - 0.0001 * j, 6) for j in range(80)))])


# ---------------------------------------------------------------------------
# single trees
# ---------------------------------------------------------------------------


def test_deterministic_tree_shape_and_values():
    tree = simulate_tree(Deterministic(0.5, 0.5), depth=3, seed=1)
    assert [len(g) for g in tree.generations] == [1, 2, 4, 8]
    for n, s in enumerate(tree.generations):
        np.testing.assert_allclose(s, n * math.log(2.0), rtol=1e-14)
    assert tree.node_count == 15


def test_cascade_tree_is_complete():
    # Cascade weights are always positive, so every vertex has N children.
    tree = simulate_tree(BernoulliCascade(2, 0.3), depth=6, seed=5)
    assert [len(g) for g in tree.generations] == [2**n for n in range(7)]


def test_tree_reproducible_and_seed_sensitive():
    a = simulate_tree(BernoulliCascade(2, 0.5), depth=8, seed=42)
    b = simulate_tree(BernoulliCascade(2, 0.5), depth=8, seed=42)
    c = simulate_tree(BernoulliCascade(2, 0.5), depth=8, seed=43)
    for ga, gb in zip(a.generations, b.generations):
        np.testing.assert_array_equal(ga, gb)
    assert any(
        not np.array_equal(ga, gc) for ga, gc in zip(a.generations, c.generations)
    )


def test_subtree_is_function_of_vertex_seed():
    # The depth-1 subtree hanging off a vertex must match a fresh tree rooted
    # at that vertex's seed: generation growth is seed-local, not global.
    model = BernoulliCascade(2, 0.35)
    tree = simulate_tree(model, depth=4, seed=11)
    v = 3  # a generation-1 vertex... cascade trees are complete, so index 1 exists
    v = 1
    vseed = int(tree.vertex_seeds[1][v])
    sub = simulate_tree(model, depth=3, seed=vseed)
    # children of v in the big tree sit where parent_index == v
    mask = tree.parent_index[2] == v
    rel = tree.generations[2][mask] - tree.generations[1][v]
    np.testing.assert_allclose(np.sort(rel), np.sort(sub.generations[1]), atol=1e-12)


def test_node_cap_raises():
    with pytest.raises(NodeCapError):
        simulate_tree(Deterministic(0.5, 0.5), depth=20, seed=3, node_cap=10)


def _count_step_inputs(monkeypatch):
    """Record the child count of every call of a generation step."""
    sizes = []
    step = branching._Step
    original = step.__call__

    def spy(self, ws, S, seeds, atoms, out_s, *args, **kwargs):
        sizes.append(len(out_s))
        return original(self, ws, S, seeds, atoms, out_s, *args, **kwargs)

    monkeypatch.setattr(step, "__call__", spy)
    return sizes


@pytest.mark.parametrize("threads", [1, 2])
def test_cascade_node_cap_in_replicate_traces(threads, monkeypatch):
    # 2^13 - 1 = 8191 <= 10^4 < 16383 = 2^14 - 1 nodes per replicate.
    sizes = _count_step_inputs(monkeypatch)
    with pytest.raises(NodeCapError) as err:
        replicate_traces(BernoulliCascade(2, 0.5), 1.0, depth=30, replicates=1100,
                         seed=5, node_cap=10**4, threads=threads)
    e = err.value
    assert (e.generation, e.node_count, e.replicate) == (13, 16383, 0)
    # A fixed fan-out knows its sizes in advance: nothing is built.
    assert sizes == []


def test_cascade_node_cap_in_simulate_tree(monkeypatch):
    sizes = _count_step_inputs(monkeypatch)
    with pytest.raises(NodeCapError) as err:
        simulate_tree(BernoulliCascade(2, 0.5), depth=30, seed=5, node_cap=10**4)
    e = err.value
    assert (e.generation, e.node_count, e.replicate) == (13, 16383, None)
    assert sizes == []


@pytest.mark.parametrize("threads", [1, 2])
def test_fixed_fanout_atom_node_cap_in_replicate_traces(threads, monkeypatch):
    # Fan-out 2 as in the cascade test above: the counts are scalars.
    sizes = _count_step_inputs(monkeypatch)
    with pytest.raises(NodeCapError) as err:
        replicate_traces(ATOMS_FIXED, 1.0, depth=30, replicates=1100, seed=5,
                         node_cap=10**4, threads=threads)
    e = err.value
    assert (e.generation, e.node_count, e.replicate) == (13, 16383, 0)
    assert sizes == []


def test_fixed_fanout_atom_node_cap_in_simulate_tree(monkeypatch):
    sizes = _count_step_inputs(monkeypatch)
    with pytest.raises(NodeCapError) as err:
        simulate_tree(ATOMS_FIXED, depth=30, seed=5, node_cap=10**4)
    e = err.value
    assert (e.generation, e.node_count, e.replicate) == (13, 16383, None)
    assert sizes == []


@pytest.mark.parametrize("threads", [1, 2])
def test_variable_fanout_node_cap_in_replicate_traces(threads, monkeypatch):
    # Replicate 85 of the first batch is the first to pass 10^4 nodes, at
    # generation 13; W_n at alpha = 0 counts each replicate's vertices, and
    # no replicate of that batch is over the budget through generation 12.
    per_gen = replicate_traces(ATOMS_VARIABLE, 0.0, depth=12, replicates=512, seed=5).W
    totals = np.cumsum(per_gen, axis=1)
    assert np.all(totals <= 10**4)
    sizes = _count_step_inputs(monkeypatch)
    with pytest.raises(NodeCapError) as err:
        replicate_traces(ATOMS_VARIABLE, 1.0, depth=30, replicates=1100, seed=5,
                         node_cap=10**4, threads=threads)
    e = err.value
    assert (e.generation, e.node_count, e.replicate) == (13, 10386, 85)
    # No step input exceeds the chunk budget.
    assert 0 < max(sizes) <= branching._CHUNK


def test_variable_fanout_node_cap_in_simulate_tree(monkeypatch):
    gens = simulate_tree(ATOMS_VARIABLE, depth=15, seed=5).generations
    assert sum(len(g) for g in gens) <= 10**4
    sizes = _count_step_inputs(monkeypatch)
    with pytest.raises(NodeCapError) as err:
        simulate_tree(ATOMS_VARIABLE, depth=30, seed=5, node_cap=10**4)
    e = err.value
    assert (e.generation, e.node_count, e.replicate) == (16, 10732, None)
    assert 0 < max(sizes) <= branching._CHUNK


@pytest.mark.parametrize("theta", [
    0.0, 5e-324, 2.0**-53, 0.3, math.nextafter(0.75, 0.0), 0.75,
    math.nextafter(0.75, 1.0), 1.0 - 2.0**-53, 1.0,
])
def test_unit_threshold_is_exact(theta):
    thr = branching._unit_threshold(theta)
    for k in {0, thr - 1, thr, thr + 1, 2**53 - 1}:
        k = min(max(k, 0), 2**53 - 1)
        assert (k < thr) == (k * 2.0**-53 < theta), (theta, k, thr)


def _unmix64(z: int) -> int:
    """Inverse of :func:`branchfix.seeding.mix64`."""
    def unshift(x, k):
        y = x
        for _ in range(64 // k):
            y = x ^ (y >> k)
        return y

    z = unshift(z, 31)
    z = (z * pow(_MIX2, -1, 1 << 64)) & _M64
    z = unshift(z, 27)
    z = (z * pow(_MIX1, -1, 1 << 64)) & _M64
    return unshift(z, 30)


def _seeds_drawing(bits):
    """Seeds whose uniform is ``b * 2^-53`` for each ``b`` in ``bits``."""
    return np.array([_unmix64(b << 11) ^ DRAW_SALT for b in bits], dtype=np.uint64)


def _atom_reference(table, S, seeds):
    """One generation of ``table`` from the public seeding helpers.  A draw
    from seed ``s`` is atom ``min(searchsorted(cum, unit_uniform(s),
    "right"), K-1)``.  With one draw, the parent's seed draws its atom, and
    position ``i`` of the atom's weight vector, when positive, gives a child
    with seed ``child_seed(parent, i)`` and step ``-log w``.  With several,
    child ``j`` has seed ``child_seed(parent, j)`` and draws its own atom, of
    one weight, from that seed.  Returns the drawn atoms (per parent with
    one draw, per child with several) and the children's ``S`` and seeds."""
    cum = np.cumsum(table.probs)

    def draw(s):
        return np.minimum(np.searchsorted(cum, unit_uniforms_np(s), side="right"), len(cum) - 1)

    if table.copies > 1:
        kids = np.stack([child_seeds_np(seeds, j) for j in range(table.copies)], axis=1)
        k = draw(kids)
        steps = -np.array([lw[0] for lw in table.log_weights])
        return k, (S[:, None] + steps[k]).reshape(-1), kids.reshape(-1)
    k = draw(seeds)
    width = max(len(ws) for ws in table.full_weights)
    keep = np.zeros((len(seeds), width), dtype=bool)
    step = np.zeros((len(seeds), width))
    for a, (ws, logs) in enumerate(zip(table.full_weights, table.log_weights)):
        positions = [i for i, w in enumerate(ws) if w > 0.0]
        for i, lw in zip(positions, logs):
            keep[k == a, i] = True
            step[k == a, i] = -lw
    kids = np.stack([child_seeds_np(seeds, i) for i in range(width)], axis=1)
    return k, (S[:, None] + step)[keep], kids[keep]


# Twenty-two atoms: 21 comparison passes per draw block; cum_1 = 0.3 is no
# multiple of 2^-53, cum_0 = 0.25 is one.
MANY_ATOMS = FiniteAtoms([(0.25, (0.5, 0.0, 0.7)), (0.05, (1.1,))]
                         + [(0.035, (0.3 + 0.01 * j,) * (1 + j % 3)) for j in range(20)])
E1, E2 = math.exp(-1.0), math.exp(-2.0)
# Steps -log w of 1, 0 and 2: integer levels with a fan-out of 1 or 3.
LATTICE_VARIABLE = FiniteAtoms([(0.3, (E1, 1.0, E2)), (0.7, (E1,))])
STEP_CASES = {
    "fixed": ATOMS_FIXED,
    "variable": ATOMS_VARIABLE,
    "many": MANY_ATOMS,
    "deterministic": Deterministic(0.5, 0.0, 0.25),
    "lattice-variable": LATTICE_VARIABLE,
    # The cascade draws at theta and its neighbours of 2^-53 at both ends.
    **{f"cascade-{theta!r}": BernoulliCascade(3, theta)
       for theta in (0.0, 2.0**-53, 0.3, 0.75, 1.0 - 2.0**-53, 1.0)},
    # Several draws over three atoms, which no model gives: counts to 2.
    "draws-3": AtomTable(np.array([0.1, 0.6, 0.3]), ((E2,), (E1,), (1.0,)),
                         (np.array([-2.0]), np.array([-1.0]), np.array([0.0])), copies=2),
}


@pytest.mark.parametrize("case", STEP_CASES)
def test_atom_step_matches_reference(case, monkeypatch):
    model = STEP_CASES[case]
    if isinstance(model, AtomTable):
        monkeypatch.setattr(branching, "atom_table", lambda _: model)
    table = branching.atom_table(model)
    step = branching._Step(model)
    ws = branching._Workspace()
    rng = np.random.default_rng(23)
    # Draws exactly on each cum_j * 2^53 and one ulp of u either side, at
    # the head and across the boundary of the first mixing block.  With one
    # draw the parents' seeds draw; with several, child j of parent p is draw
    # ``copies * p + j``, and the planted seeds are those of child 0.
    cum = np.cumsum(table.probs)
    edges = sorted({b for c in cum for f in (math.floor, math.ceil)
                    for b in (f(c * 2.0**53) - 1, f(c * 2.0**53), f(c * 2.0**53) + 1)
                    if 0 <= b < 2**53} | {0, 2**53 - 1})
    planted = _seeds_drawing(edges)
    copies = table.copies
    if copies == 1:
        parents = _BLOCK + len(edges)
    else:
        # 2^15 // copies + 7 parents: their children pass one mixing block.
        parents = _BLOCK // copies + 7
        planted = np.array([_unmix64(int(s)) ^ GOLDEN for s in planted], dtype=np.uint64)
    seeds = rng.integers(0, 1 << 64, size=parents, dtype=np.uint64)
    for at in (0, _BLOCK // copies - len(edges) // 2):
        seeds[at : at + len(edges)] = planted
    first = seeds if copies == 1 else child_seeds_np(seeds, 0)
    np.testing.assert_array_equal(unit_uniforms_np(first[: len(edges)]),
                                  np.array(edges) * 2.0**-53)
    if step.dtype.kind == "i":
        S = rng.integers(0, 5, size=len(seeds), dtype=np.int64)
    else:
        S = rng.uniform(-1.0, 3.0, size=len(seeds))
    # Two chained calls: the second reads the first one's output and reuses
    # the workspace's buffers.  A leaf call builds the same S; with one draw
    # it builds no seeds, with several it needs them to draw.
    for _ in range(2):
        want_k, want_S, want_seeds = _atom_reference(table, S, seeds)
        atoms = None
        if step.draws:
            atoms = step.draw(ws, seeds, np.empty(len(seeds), dtype=np.intp))
            # A draw's count c of the thresholds above it is atom K-1-c.
            np.testing.assert_array_equal(atoms, len(cum) - 1 - want_k)
        k = len(want_S)
        if step.counts is None:
            assert k == step.width * len(seeds)
        else:
            assert k == int(step.counts[atoms].sum())
        leaf_S, leaf_seeds = np.empty(k, step.dtype), np.zeros(k, dtype=np.uint64)
        step(ws, S, seeds, atoms, leaf_S, leaf_seeds, leaf=True)
        np.testing.assert_array_equal(leaf_S, want_S)
        np.testing.assert_array_equal(leaf_seeds, 0 if step.draws else want_seeds)
        out_s, out_seeds = np.empty(k, step.dtype), np.empty(k, dtype=np.uint64)
        step(ws, S, seeds, atoms, out_s, out_seeds)
        np.testing.assert_array_equal(out_s, want_S)
        np.testing.assert_array_equal(out_seeds, want_seeds)
        S, seeds = out_s, out_seeds


def test_step_levels_and_draws_come_from_the_table():
    # Integer levels, up to kmax, exactly where every step -log w is a
    # nonnegative integer; the cascade draws per child, explicit atoms per
    # parent, and the tables are read-only.
    cascade = branching._Step(BernoulliCascade(3, 0.3))
    assert cascade.dtype == np.int64 and cascade.kmax == 1 and not cascade.draws
    assert cascade.width == 3 and cascade.counts is None
    lattice = branching._Step(LATTICE_VARIABLE)
    assert lattice.dtype == np.int64 and lattice.kmax == 2 and lattice.draws
    assert lattice.counts.tolist() == [1, 3]
    for model in (ATOMS_FIXED, ATOMS_VARIABLE, FiniteAtoms([(1.0, (math.e, E1))]),
                  FiniteAtoms([(1.0, (math.exp(-0.5),))])):
        assert branching._Step(model).dtype == np.float64
    assert not branching._Step(BernoulliCascade(2, 0.5)).thr.flags.writeable


@pytest.mark.parametrize("table", [
    AtomTable(np.array([1.0]), ((E1, E1),), (np.array([-1.0, -1.0]),), copies=2),
    AtomTable(np.array([0.5, 0.5]), ((1.0,), (E1,)), (np.array([0.0]), np.array([-1.0])),
              copies=2),
    AtomTable(np.array([0.5, 0.5]), ((0.5,), (1.0,)), (np.log([0.5]), np.array([0.0])),
              copies=2),
], ids=["two-weights", "step-no-count", "float"])
def test_step_rejects_several_draws_it_cannot_count(table, monkeypatch):
    monkeypatch.setattr(branching, "atom_table", lambda _: table)
    with pytest.raises(ValueError, match="several draws needs atoms of one weight"):
        branching._Step(None)


def test_atom_tables_built_once_per_call(monkeypatch):
    # Four batches on two threads share one set of tables.
    calls = []
    original = branching.atom_table

    def spy(model):
        calls.append(model)
        return original(model)

    monkeypatch.setattr(branching, "atom_table", spy)
    replicate_traces(ATOMS_FIXED, 1.0, depth=3, replicates=2048, seed=3, threads=2)
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# traces
# ---------------------------------------------------------------------------


def test_martingale_trace_deterministic_is_one():
    traces = replicate_traces(Deterministic(0.5, 0.5), 1.0, depth=6, replicates=1, seed=2)
    np.testing.assert_allclose(traces.W[0], 1.0, rtol=1e-12)


def test_trace_alpha_zero_counts_vertices():
    traces = replicate_traces(BernoulliCascade(2, 0.6), 0.0, depth=5, replicates=1, seed=9)
    np.testing.assert_array_equal(traces.W[0], [2**n for n in range(6)])


def test_sup_weight_deterministic():
    traces = replicate_traces(Deterministic(0.5, 0.5), 1.0, depth=5, replicates=1, seed=4)
    np.testing.assert_allclose(traces.R_sup[0], 0.5 ** np.arange(6), rtol=1e-12)


def test_replicate_traces_match_single_trees():
    # Replicate i is the tree rooted at replicate_root(master, i); the batch
    # engines add W_n and the renewal sums sequentially per replicate, the
    # cascade's terms from its per-level table, so values agree with the
    # per-vertex sum up to summation order only.  R_n is exact: the engines
    # take np.exp of the exact minimum, as the test does.  The renewal
    # sum is sum_n sum_v exp(-alpha S(v)) 1{S(v) in [a, b]}, with the engines'
    # 1e-9 slack at the ends, on an interval with 0 and one without;
    # ATOMS_VARIABLE's weights 1.5 and 1.0 also put S(v) at and below 0.
    cascade = BernoulliCascade(2, 0.75)
    for model, alpha in ((cascade, LN3), (ATOMS_FIXED, 1.0), (ATOMS_VARIABLE, 1.0)):
        for a, b in ((-0.5, 1.5), (0.5, 2.5)):
            traces = replicate_traces(model, alpha, depth=5, replicates=8, seed=2024,
                                      renewal_interval=(a, b))
            assert np.all(traces.renewal_sums > 0.0)
            for i in range(8):
                tree = simulate_tree(model, depth=5, seed=replicate_root(2024, i))
                np.testing.assert_allclose(
                    traces.W[i], [np.sum(np.exp(-alpha * s)) for s in tree.generations],
                    rtol=1e-12,
                )
                mins = np.array([s.min() for s in tree.generations])
                np.testing.assert_array_equal(traces.R_sup[i], np.exp(-mins))
                occupation = sum(
                    float(np.sum(np.exp(-alpha * s)[(s >= a - 1e-9) & (s <= b + 1e-9)]))
                    for s in tree.generations
                )
                np.testing.assert_allclose(traces.renewal_sums[i], occupation, rtol=1e-12)


@pytest.mark.parametrize("replicates", [1, 2, 3])
@pytest.mark.parametrize("model", [ATOMS_FIXED, ATOMS_VARIABLE, BernoulliCascade(2, 0.75)],
                         ids=["fixed", "variable", "cascade"])
def test_float_sums_add_in_vertex_order(model, replicates):
    # W_n and renewal sums add each replicate's generation in vertex order,
    # as np.cumsum does, bit for bit; a pairwise sum (what numpy does for one
    # contiguous run of more than 8 values) differs at depth 8.  The
    # cascade's terms come from its per-level table exp(-alpha k).
    alpha, (a, b) = 1.0, (0.5, 3.0)
    traces = replicate_traces(model, alpha, depth=8, replicates=replicates, seed=31,
                              renewal_interval=(a, b))
    rho = np.array([math.exp(-alpha * k) for k in range(9)])
    for i in range(replicates):
        tree = simulate_tree(model, depth=8, seed=replicate_root(31, i))
        ren = 0.0
        for n, s in enumerate(tree.generations):
            if isinstance(model, BernoulliCascade):
                wv = rho[s.astype(np.int64)]
            else:
                wv = np.exp(-alpha * s)
            assert traces.W[i, n] == np.cumsum(wv)[-1], (i, n)
            ren += np.cumsum(wv * ((s >= a - 1e-9) & (s <= b + 1e-9)))[-1]
        assert traces.renewal_sums[i] == ren, i


LATTICE_ALPHA = characteristic_exponent(LATTICE_VARIABLE).alpha


def test_lattice_variable_fanout_traces_match_single_trees():
    # Integer levels with a variable fan-out.  W_n and the renewal sums read
    # exp(-alpha k) from the level table (libm), which may differ from np.exp
    # of the same S in the last bit, so the vertex-order sums agree to
    # rounding; R_n takes np.exp of the same exact minimum.
    a, b = 0.5, 3.0
    traces = replicate_traces(LATTICE_VARIABLE, LATTICE_ALPHA, depth=8, replicates=40,
                              seed=606, renewal_interval=(a, b))
    assert np.all(traces.renewal_sums > 0.0)
    for i in range(40):
        tree = simulate_tree(LATTICE_VARIABLE, depth=8, seed=replicate_root(606, i))
        terms = [np.exp(-LATTICE_ALPHA * s) for s in tree.generations]
        np.testing.assert_allclose(traces.W[i], [np.cumsum(t)[-1] for t in terms], rtol=1e-14)
        mins = np.array([s.min() for s in tree.generations])
        np.testing.assert_array_equal(traces.R_sup[i], np.exp(-mins))
        occupation = sum(np.cumsum(t * ((s >= a - 1e-9) & (s <= b + 1e-9)))[-1]
                         for t, s in zip(terms, tree.generations))
        np.testing.assert_allclose(traces.renewal_sums[i], occupation, rtol=1e-14)


def test_lattice_variable_fanout_mean_is_m_to_the_n():
    # E W_n = m(alpha)^n.  Ten generations: |z| <= 4 bounds each at a
    # family-wise rate below 1e-3.
    depth, reps = 10, 4000
    traces = replicate_traces(LATTICE_VARIABLE, LATTICE_ALPHA, depth=depth, replicates=reps,
                              seed=4242)
    m = moment_m(LATTICE_VARIABLE, LATTICE_ALPHA)
    for n in range(1, depth + 1):
        col = traces.W[:, n]
        z = (col.mean() - m**n) / (col.std(ddof=1) / math.sqrt(reps))
        assert abs(z) <= 4.0, (n, z)


def test_lattice_variable_fanout_thread_invariant():
    one, two = (replicate_traces(LATTICE_VARIABLE, LATTICE_ALPHA, depth=8, replicates=1100,
                                 seed=8, threads=threads, renewal_interval=(0.5, 3.0))
                for threads in (1, 2))
    for name in ("W", "R_sup", "renewal_sums", "vertices"):
        assert getattr(one, name).tobytes() == getattr(two, name).tobytes(), name


def test_replicate_traces_thread_invariant():
    model = BernoulliCascade(2, 0.75)
    one = replicate_traces(model, LN3, depth=6, replicates=600, seed=7, threads=1)
    eight = replicate_traces(model, LN3, depth=6, replicates=600, seed=7, threads=8)
    np.testing.assert_array_equal(one.W, eight.W)
    np.testing.assert_array_equal(one.R_sup, eight.R_sup)


def _assert_steps_survive_thread_switches(model, alpha, depth):
    # Twelve batches on four threads with a short switch interval: a step
    # handed to two running batches at once would mix their buffers.
    want = replicate_traces(model, alpha, depth=depth, replicates=6000, seed=9, threads=1)
    got = []
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        worker = threading.Thread(target=lambda: got.append(replicate_traces(
            model, alpha, depth=depth, replicates=6000, seed=9, threads=4)))
        worker.start()
        worker.join(timeout=120)
    finally:
        sys.setswitchinterval(old)
    assert not worker.is_alive() and len(got) == 1
    np.testing.assert_array_equal(got[0].W, want.W)
    np.testing.assert_array_equal(got[0].R_sup, want.R_sup)


def test_cascade_steps_survive_thread_switches():
    _assert_steps_survive_thread_switches(BernoulliCascade(2, 0.75), LN3, 8)


@pytest.mark.parametrize("model", [ATOMS_FIXED, ATOMS_VARIABLE], ids=["fixed", "variable"])
def test_atom_steps_survive_thread_switches(model):
    _assert_steps_survive_thread_switches(model, 1.0, 7)


@pytest.mark.parametrize("threads", [0, -3])
def test_threads_must_be_positive(threads):
    cascade = BernoulliCascade(2, 0.75)
    calls = [
        lambda: replicate_traces(cascade, LN3, depth=3, replicates=4, seed=1, threads=threads),
        lambda: sample_W_limit(cascade, LN3, depth=3, replicates=4, seed=1, threads=threads),
        lambda: renewal_measure_check(cascade, LN3, (0.0, 2.0), depth=3, replicates=4,
                                      seed=1, threads=threads),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="threads must be >= 1"):
            call()


HALVES = Deterministic(0.5, 0.5)  # m(beta) = 2^(1 - beta)


@pytest.mark.parametrize("call, message", [
    (lambda: simulate_tree(HALVES, depth=-1, seed=1), "depth must be >= 0"),
    (lambda: replicate_traces(HALVES, 1.0, depth=3, replicates=0, seed=1),
     "replicates must be >= 1"),
    (lambda: replicate_traces(HALVES, 1.0, depth=-1, replicates=4, seed=1), "depth must be >= 0"),
    (lambda: renewal_measure_check(HALVES, 1.0, (2.0, 1.0), depth=3, replicates=4, seed=1),
     "invalid interval (2.0, 1.0)"),
    (lambda: replicate_traces(HALVES, 1.0, depth=3, replicates=4, seed=1,
                              renewal_interval=(3.0, -1.0)), "invalid interval (3.0, -1.0)"),
    (lambda: replicate_traces(HALVES, 1.0, depth=3, replicates=4, seed=1,
                              renewal_interval=(0.0, math.nan)), "invalid interval (0.0, nan)"),
    (lambda: renewal_measure_check(HALVES, 1.0, (math.inf, 1.0), depth=3, replicates=4, seed=1),
     "invalid interval (inf, 1.0)"),
    (lambda: renewal_measure_check(HALVES, 2.0, (0.0, 1.0), depth=3, replicates=4, seed=1),
     "m(alpha) = 0.5 is not 1 within 1e-09"),
])
def test_branching_input_checks(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


@pytest.mark.parametrize("budget", [1, 7, 100, None])
def test_variable_chunks_take_every_parent_that_fits(monkeypatch, budget):
    # A variable fan-out chunk takes its parents by their drawn child counts:
    # it holds at most _CHUNK children (or one parent), and it ends before a
    # parent only where that parent's children would not fit or where the
    # parents' own chunk ends.
    if budget is not None:
        monkeypatch.setattr(branching, "_CHUNK", budget)
    budget = branching._CHUNK
    trees, depth = (2048, 10) if budget > 100 else (64, 6)
    step = branching._Step(ATOMS_VARIABLE)
    seeds = np.arange(1, trees + 1, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    chunks = [[] for _ in range(depth + 1)]  # per generation: its chunks' child counts
    with branching._POOL.take(1) as (ws,):
        for n, S, _, _, ends in branching._grow(step, ws, np.zeros(trees), seeds, depth, 10**7):
            chunks[n].append(np.diff(ends))
            assert len(S) == ends[-1] - ends[0]
    sizes = [[trees]] + [[c.sum() for c in gen] for gen in chunks[1:]]
    assert sum(sizes[-1]) > 4 * budget
    for n in range(1, depth + 1):
        counts = np.concatenate(chunks[n])  # child counts of generation n - 1
        assert len(counts) == sum(sizes[n - 1])
        ends_of_parent_chunks = set(np.cumsum(sizes[n - 1]).tolist())
        at = 0
        for chunk in chunks[n]:
            assert chunk.sum() <= budget or len(chunk) == 1
            at += len(chunk)
            if at not in ends_of_parent_chunks:
                assert chunk.sum() + counts[at] > budget


# model, alpha, depth of the traces, renewal interval, depth of a single tree
CHUNK_CASES = {
    "cascade": (BernoulliCascade(2, 0.75), LN3, 8, (0.0, 2.0), 12),
    "fixed": (ATOMS_FIXED, 1.0, 7, (0.5, 3.0), 12),
    "variable": (ATOMS_VARIABLE, 1.0, 4, (0.5, 3.0), 12),
    "wide": (WIDE, 1.0, 2, (3.0, 9.5), 2),
    "lattice-variable": (LATTICE_VARIABLE, LATTICE_ALPHA, 4, (0.5, 3.0), 12),
}


def _chunked_runs(monkeypatch, case, budget):
    """Traces for 1, 513 and 1 100 replicates on 1 and 2 threads and one
    tree, with ``budget`` children per chunk (None: the default), and the
    child count of every step call."""
    model, alpha, depth, interval, tree_depth = CHUNK_CASES[case]
    with monkeypatch.context() as patch:
        if budget is not None:
            patch.setattr(branching, "_CHUNK", budget)
        sizes = _count_step_inputs(patch)
        traces = {(replicates, threads): replicate_traces(
                      model, alpha, depth, replicates, seed=77, threads=threads,
                      renewal_interval=interval)
                  for replicates in (1, 513, 1100) for threads in (1, 2)}
        tree = simulate_tree(model, tree_depth, seed=78)
    return traces, tree, sizes


@pytest.mark.parametrize("budget", [1, 3 * 512])
@pytest.mark.parametrize("case", sorted(CHUNK_CASES))
def test_output_does_not_depend_on_chunk_size(case, budget, monkeypatch):
    # Budget 1 builds one parent row per chunk; 3 * 512 is no multiple of a
    # fixed fan-out's row.  Every statistic keeps its bits, and so does a
    # single tree.
    want, want_tree, default_sizes = _chunked_runs(monkeypatch, case, None)
    got, tree, sizes = _chunked_runs(monkeypatch, case, budget)
    assert len(sizes) > len(default_sizes)
    for key, t in want.items():
        for name in ("W", "R_sup", "renewal_sums", "vertices"):
            assert getattr(got[key], name).tobytes() == getattr(t, name).tobytes(), (key, name)
        assert t.vertices.tobytes() == want[key[0], 1].vertices.tobytes()
    for name in ("generations", "parent_index", "vertex_seeds"):
        for a, b in zip(getattr(tree, name), getattr(want_tree, name), strict=True):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


def test_vertices_count_each_generation():
    fixed = replicate_traces(ATOMS_FIXED, 1.0, depth=9, replicates=1100, seed=4, threads=2)
    assert fixed.vertices.dtype == np.int64
    np.testing.assert_array_equal(fixed.vertices, 1100 * 2 ** np.arange(10))
    cascade = replicate_traces(BernoulliCascade(3, 0.5), LN3, depth=6, replicates=600, seed=4)
    np.testing.assert_array_equal(cascade.vertices, 600 * 3 ** np.arange(7))
    # W_n at alpha = 0 counts each replicate's generation-n vertices.
    counted = replicate_traces(ATOMS_VARIABLE, 0.0, depth=9, replicates=1100, seed=4)
    variable = replicate_traces(ATOMS_VARIABLE, 1.0, depth=9, replicates=1100, seed=4,
                                threads=2)
    np.testing.assert_array_equal(variable.vertices, counted.W.sum(axis=0).astype(np.int64))


def _run_python(code):
    """Run ``code`` in a fresh interpreter that imports this checkout's
    ``branchfix``; returns its standard output."""
    src = str(Path(branching.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(code)], env=env,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_batch_memory_is_bounded():
    # 1 024 replicates of a depth-15 binary cascade, about 67 M vertices, on
    # two threads: each thread's workspace holds one bounded chunk per
    # generation, so peak memory does not grow as width^depth.
    growth_kib = int(_run_python("""
        import math, resource, sys
        from branchfix import BernoulliCascade, replicate_traces
        kib = 1024 if sys.platform == "darwin" else 1
        base = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        replicate_traces(BernoulliCascade(2, 0.75), math.log(3.0), depth=15,
                         replicates=1024, seed=1, threads=2)
        print((resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - base) // kib)
    """))
    assert growth_kib < 64 * 1024


def test_warm_calls_touch_little_fresh_memory():
    # After a warm-up call, the pooled workspaces serve every buffer; what is
    # left is the outputs themselves (2 x 180 KB at this size).
    faults = [int(f) for f in _run_python("""
        import resource
        from branchfix import FiniteAtoms, replicate_traces
        model = FiniteAtoms([(0.3, (0.6, 0.5)), (0.5, (0.9, 0.35)), (0.2, (0.7, 0.8))])
        replicate_traces(model, 1.6, depth=10, replicates=2048, seed=0, threads=2)
        for seed in range(1, 6):
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            replicate_traces(model, 1.6, depth=10, replicates=2048, seed=seed, threads=2)
            print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    """).split()]
    assert sorted(faults)[len(faults) // 2] < 100, faults


def test_workspace_pool_reuses_workspaces(monkeypatch):
    pool = branching._WorkspacePool()
    monkeypatch.setattr(branching, "_POOL", pool)
    replicate_traces(ATOMS_FIXED, 1.0, depth=5, replicates=1100, seed=1, threads=2)
    kept = list(pool.idle)
    buffers = [dict(ws.buffers) for ws in kept]
    assert len(kept) == 2
    # Fewer threads, more threads than batches, a single tree: the same
    # workspaces, and a call like the first allocates no buffer.
    replicate_traces(ATOMS_FIXED, 1.0, depth=5, replicates=100, seed=2, threads=1)
    replicate_traces(ATOMS_FIXED, 1.0, depth=5, replicates=600, seed=3, threads=8)
    simulate_tree(ATOMS_FIXED, depth=5, seed=4)
    replicate_traces(ATOMS_FIXED, 1.0, depth=5, replicates=1100, seed=5, threads=2)
    assert len(pool.idle) == 2 and all(any(ws is k for k in kept) for ws in pool.idle)
    for ws, before in zip(kept, buffers):
        assert all(ws.buffers[name] is buf for name, buf in before.items())
    # Three threads lend a third workspace; the pool then keeps three.
    replicate_traces(ATOMS_FIXED, 1.0, depth=5, replicates=1600, seed=6, threads=3)
    assert len(pool.idle) == pool.most == 3


def test_concurrent_callers_get_distinct_workspaces(monkeypatch):
    pool = branching._WorkspacePool()
    monkeypatch.setattr(branching, "_POOL", pool)
    want = {seed: replicate_traces(ATOMS_VARIABLE, 1.0, depth=6, replicates=1100, seed=seed)
            for seed in (1, 2)}
    # The first batch of each caller waits for the other's, so both callers
    # hold their workspaces at once.
    meet = threading.Barrier(2, timeout=60)
    used = {1: set(), 2: set()}
    original = branching._batch_traces

    def spy(alpha, depth, rep_indices, master_seed, node_cap, interval, step, ws, *out):
        used[master_seed].add(id(ws))
        if rep_indices[0] == 0:
            meet.wait()
        return original(alpha, depth, rep_indices, master_seed, node_cap, interval, step,
                        ws, *out)

    monkeypatch.setattr(branching, "_batch_traces", spy)
    got = {}
    callers = [threading.Thread(target=lambda s=seed: got.update({s: replicate_traces(
        ATOMS_VARIABLE, 1.0, depth=6, replicates=1100, seed=s, threads=2)}))
        for seed in (1, 2)]
    for t in callers:
        t.start()
    for t in callers:
        t.join(timeout=120)
    assert not any(t.is_alive() for t in callers) and len(got) == 2
    assert len(used[1]) == len(used[2]) == 2 and not used[1] & used[2]
    for seed in (1, 2):
        np.testing.assert_array_equal(got[seed].W, want[seed].W)
        np.testing.assert_array_equal(got[seed].R_sup, want[seed].R_sup)
    assert len(pool.idle) == pool.most == 2


def test_martingale_mean_within_three_se():
    # E W_n = 1 for every generation when m(alpha) = 1.
    traces = replicate_traces(BernoulliCascade(2, 0.75), LN3, depth=10,
                              replicates=20_000, seed=42)
    for n in range(11):
        col = traces.W[:, n]
        se = col.std(ddof=1) / math.sqrt(len(col))
        assert abs(col.mean() - 1.0) <= 3.0 * max(se, 1e-15), f"generation {n}"


def test_sup_weight_survival_fraction():
    # For the supercritical cascade the event R_n = 1 is survival of the
    # unit-weight skeleton, a Binomial(2, 3/4) branching process with
    # extinction probability 1/9.  Extinction mass beyond depth 14 is below
    # 1e-4 (the pgf iteration contracts at rate 1/2 near its fixed point),
    # far inside the Monte Carlo band.
    depth, reps = 14, 2000
    traces = replicate_traces(BernoulliCascade(2, 0.25), 0.0, depth=depth,
                              replicates=reps, seed=13)
    frac = float(np.mean(traces.R_sup[:, depth] == 1.0))
    p = 8.0 / 9.0
    se = math.sqrt(p * (1 - p) / reps)
    assert abs(frac - p) <= 3.0 * se


def test_sample_W_limit_deterministic_is_unit():
    phi = sample_W_limit(Deterministic(0.5, 0.5), 1.0, depth=8, replicates=32, seed=3)
    np.testing.assert_allclose(phi.samples, 1.0, rtol=1e-12)
    np.testing.assert_allclose(phi.evaluate(2.0), math.exp(-2.0), rtol=1e-12)


def test_sample_W_limit_warns_when_not_martingale():
    phi = sample_W_limit(BernoulliCascade(2, 0.75), 2.0, depth=6, replicates=16, seed=1)
    assert phi.warnings  # m(2) != 1


def test_empirical_laplace_tail_accuracy():
    phi = sample_W_limit(BernoulliCascade(2, 0.75), LN3, depth=8,
                         replicates=4096, seed=21)
    x = 1e-9
    tail = phi.evaluate_tail(x)
    # 1 - phi(x) ~ x E W = x at first order; value-space evaluation would
    # quantize at one ulp of 1 and lose this entirely.
    assert 0.2 * x < tail < 5.0 * x


def test_empirical_laplace_value_keeps_relative_accuracy():
    # Far out, phi(x) = mean exp(-x W) is small (1.6e-8 at x = 60), and 1 -
    # tail would keep only absolute precision there; each value is held to
    # a 60-digit sum of its terms, and where the tail is under 1/2 it is
    # still 1 - tail, bit for bit.
    phi = sample_W_limit(BernoulliCascade(2, 0.75), LN3, depth=8, replicates=512, seed=5)
    xs = np.array([0.5, 5.0, 20.0, 60.0])
    got = phi.evaluate(xs)
    with mpmath.workdps(60):
        for x, value in zip(xs, got):
            want = mpmath.fsum(mpmath.exp(-mpmath.mpf(float(x)) * mpmath.mpf(float(w)))
                               for w in phi.samples) / len(phi.samples)
            assert abs(value - want) <= 1e-14 * want, x
    assert float(got[3]) == phi.evaluate(60.0) < 1e-7
    assert phi.evaluate(0.5) == 1.0 - phi.evaluate_tail(0.5)


# ---------------------------------------------------------------------------
# increments and the positivity verdict
# ---------------------------------------------------------------------------


def test_increments_cascade_exact():
    inc = increment_distribution(BernoulliCascade(2, 0.75), LN3)
    np.testing.assert_array_equal(inc.locations, [0.0, 1.0])
    np.testing.assert_allclose(inc.masses, [0.5, 0.5], rtol=1e-15)
    np.testing.assert_allclose(inc.drift, 0.5, rtol=1e-15)
    np.testing.assert_allclose(inc.total_mass, 1.0, rtol=1e-15)


def test_increments_deterministic():
    inc = increment_distribution(Deterministic(0.5, 0.5), 1.0)
    np.testing.assert_allclose(inc.locations, [math.log(2.0)], rtol=1e-15)
    np.testing.assert_allclose(inc.masses, [1.0], rtol=1e-15)


def test_biggins_holds_for_supercritical_drift():
    rep = biggins_check(BernoulliCascade(2, 0.75), LN3)
    assert rep.verdict == "holds"
    assert rep.drift == pytest.approx(0.5, abs=1e-9)
    assert math.isfinite(rep.integral)
    assert np.max(rep.w1_values) <= 2.0 + 1e-12


def test_biggins_boundary_zero_drift():
    # Masses 1/2 at +-log 2 give drift exactly 0 in floating point:
    # log(0.5) == -log(2.0) and alpha = 1 keeps both masses at 0.5 exactly.
    model = FiniteAtoms([(0.25, (2.0, 0.5)), (0.75, (0.5,))])
    rep = biggins_check(model, 1.0)
    assert rep.drift == 0.0
    assert rep.verdict == "boundary"


def test_biggins_fails_negative_drift():
    model = FiniteAtoms([(0.5, (2.0,)), (0.5, (0.25,))])
    alpha = math.log2((1.0 + math.sqrt(5.0)) / 2.0)
    rep = biggins_check(model, alpha)
    assert rep.verdict == "fails"
    assert rep.drift < 0.0


def test_biggins_requires_unit_moment():
    with pytest.raises(ValueError):
        biggins_check(BernoulliCascade(2, 0.5), 1.0)


def test_deterministic_trivial_integral():
    rep = biggins_check(Deterministic(0.5, 0.5), 1.0)
    assert rep.verdict == "holds"
    assert rep.integral == 0.0  # W_1 = 1: nothing above 1 to sum


# ---------------------------------------------------------------------------
# renewal comparison
# ---------------------------------------------------------------------------


def test_renewal_exact_binomial_series():
    # Increment law 1/2 at 0, 1/2 at 1 -> S_n ~ Binomial(n, 1/2); the
    # occupation of [0, 3] through depth 12 is sum_n P(Bin(n, 1/2) <= 3).
    want = sum(
        sum(math.comb(n, k) for k in range(0, 4)) / 2.0**n for n in range(13)
    )
    rep = renewal_measure_check(
        BernoulliCascade(2, 0.75), LN3, (0.0, 3.0), depth=12,
        replicates=10_000, seed=99,
    )
    np.testing.assert_allclose(rep.exact, want, rtol=1e-12)
    assert abs(rep.z_score) <= 3.0


def test_renewal_deterministic_walk_exact():
    # Walk steps are exactly log 2; [0, 2 log 2] catches n = 0, 1, 2 with
    # mass 1 each, on both the exact and the simulated side.
    rep = renewal_measure_check(
        Deterministic(0.5, 0.5), 1.0, (0.0, 2.0 * math.log(2.0)),
        depth=6, replicates=16, seed=5,
    )
    assert rep.exact == pytest.approx(3.0, abs=1e-12)
    assert rep.empirical_mean == pytest.approx(3.0, abs=1e-12)
    assert rep.z_score == 0.0


@pytest.mark.parametrize("depth", [3, 5])
def test_renewal_non_lattice_series_matches_brute_force(depth):
    # A non-lattice model takes the dense convolution path.  Recompute the
    # series sum_{n<=depth} mu^{*n}([a, b]) by enumerating every sequence of
    # n increments -log w with mass p w^alpha, straight from the atoms.
    atoms = [(0.3, (0.6, 0.5)), (0.5, (0.9, 0.35)), (0.2, (0.7, 0.8))]
    model = FiniteAtoms(atoms)
    alpha = characteristic_exponent(model).alpha
    steps = [(-math.log(w), p * w**alpha) for p, ws in atoms for w in ws]
    a, b = 0.5, 2.0
    want = 0.0
    for n in range(depth + 1):
        for seq in itertools.product(steps, repeat=n):
            if a <= sum(x for x, _ in seq) <= b:
                want += math.prod(m for _, m in seq)
    rep = renewal_measure_check(model, alpha, (a, b), depth=depth, replicates=4, seed=3)
    assert want > 0.0
    np.testing.assert_allclose(rep.exact, want, rtol=1e-12)


def test_renewal_negative_interval_is_empty():
    rep = renewal_measure_check(
        BernoulliCascade(2, 0.75), LN3, (-5.0, -1.0), depth=6,
        replicates=32, seed=8,
    )
    assert rep.exact == 0.0
    assert rep.empirical_mean == 0.0


def test_renewal_requires_positive_drift():
    model = FiniteAtoms([(0.25, (2.0, 0.5)), (0.75, (0.5,))])
    with pytest.raises(ValueError):
        renewal_measure_check(model, 1.0, (0.0, 1.0), depth=4, replicates=8, seed=1)
