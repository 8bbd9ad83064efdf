"""Counter-based seeding: determinism and scalar/vector agreement."""

import numpy as np
import pytest

from branchfix.seeding import (
    child_seed,
    child_seeds_np,
    mix64,
    mix64_np,
    replicate_root,
    replicate_roots_np,
    unit_uniform,
    unit_uniforms_np,
)


def test_mix64_is_deterministic_and_nontrivial():
    assert mix64(12345) == mix64(12345)
    assert mix64(12345) != mix64(12346)
    # stays inside 64 bits
    assert 0 <= mix64((1 << 64) - 1) < (1 << 64)


def test_unit_uniform_range():
    us = [unit_uniform(s) for s in range(1000)]
    assert all(0.0 <= u < 1.0 for u in us)
    # crude uniformity sanity: the mean of 1000 mixed seeds is near 1/2
    assert abs(np.mean(us) - 0.5) < 0.05


def test_child_seed_changes_with_index_and_parent():
    s = replicate_root(42, 0)
    assert child_seed(s, 0) != child_seed(s, 1)
    assert child_seed(s, 0) != child_seed(s + 1, 0)


def test_numpy_twins_match_scalar_loops():
    rng = np.random.default_rng(42)
    seeds = rng.integers(0, 1 << 63, size=257, dtype=np.int64).astype(np.uint64)

    got = mix64_np(seeds.copy())
    want = np.array([mix64(int(s)) for s in seeds], dtype=np.uint64)
    np.testing.assert_array_equal(got, want)

    for index in (0, 1, 7):
        got = child_seeds_np(seeds.copy(), index)
        want = np.array([child_seed(int(s), index) for s in seeds], dtype=np.uint64)
        np.testing.assert_array_equal(got, want)

    got = unit_uniforms_np(seeds.copy())
    want = np.array([unit_uniform(int(s)) for s in seeds])
    np.testing.assert_array_equal(got, want)


def test_replicate_roots_vectorized():
    reps = np.arange(100, dtype=np.int64)
    got = replicate_roots_np(77, reps)
    want = np.array([replicate_root(77, int(i)) for i in reps], dtype=np.uint64)
    np.testing.assert_array_equal(got, want)
    # distinct replicates get distinct roots
    assert len(np.unique(got)) == len(got)


# Lengths around the 2^15-value block of the in-place mixing kernel.
BLOCK = 1 << 15
KERNEL_LENGTHS = (0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 5)


def _twins_against_scalar(seeds):
    """Check the three twins on ``seeds`` and that none of them writes to it."""
    before = seeds.copy()
    ints = [int(s) for s in seeds]
    np.testing.assert_array_equal(
        mix64_np(seeds), np.array([mix64(s) for s in ints], dtype=np.uint64))
    np.testing.assert_array_equal(
        child_seeds_np(seeds, 5), np.array([child_seed(s, 5) for s in ints], dtype=np.uint64))
    np.testing.assert_array_equal(
        unit_uniforms_np(seeds), np.array([unit_uniform(s) for s in ints], dtype=np.float64))
    np.testing.assert_array_equal(seeds, before)
    assert seeds.dtype == before.dtype


@pytest.mark.parametrize("length", KERNEL_LENGTHS)
def test_kernel_matches_scalar_loops_across_block_edges(length):
    rng = np.random.default_rng(length)
    _twins_against_scalar(rng.integers(0, 1 << 64, size=length, dtype=np.uint64))


def test_kernel_takes_int64_input():
    # int64 seeds wrap mod 2^64, as the scalar helpers mask negative ints.
    rng = np.random.default_rng(3)
    _twins_against_scalar(rng.integers(-(1 << 63), 1 << 63, size=BLOCK + 1, dtype=np.int64))


def test_kernel_takes_strided_input():
    rng = np.random.default_rng(4)
    base = rng.integers(0, 1 << 64, size=2 * BLOCK + 6, dtype=np.uint64)
    strided = base[1::2]
    assert not strided.flags.c_contiguous
    _twins_against_scalar(strided)
