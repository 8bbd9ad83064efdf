"""Counter-based seeding for reproducible parallel Monte Carlo.

Every random decision in the simulation engines is a pure function of a 64-bit
seed, derived by avalanche mixing (SplitMix64 finalizer).  Child vertices chain
from their parent's seed, so the subtree below any vertex is a pure function of
that vertex's seed alone — simulating a fresh tree from ``seed(u)`` reproduces
u's subtree bit for bit.  Replicates chain from the master seed by index, which
makes replicate-level parallelism deterministic: thread count and batch
boundaries cannot change any draw.

Scalar helpers operate on Python ints (mod 2^64); the ``*_np`` twins operate on
numpy uint64 arrays with wrap-around semantics and return identical values.
Each twin returns a new array and leaves its input untouched.  Underneath
them one private kernel, :func:`_mix64_inplace`, mixes a C-contiguous uint64
array in place, in blocks of ``2^15`` values (256 KiB, resident in L2) with
one reused scratch buffer for the shifts, so a twin makes one pass over
memory per step and no per-shift temporaries.  Because every value is a pure
function of its own counter, the block size and the order of the blocks
cannot change any bit.
"""

from __future__ import annotations

import numpy as np

_M64 = (1 << 64) - 1

# SplitMix64 finalizer constants (public domain, Steele et al.).
GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

# Domain-separation salts: one per kind of decision drawn from a vertex seed.
DRAW_SALT = 0xD1B54A32D192ED03  # atom / Bernoulli uniforms
REP_SALT = 0xA0761D6478BD642F  # replicate root derivation


def mix64(z: int) -> int:
    """SplitMix64 avalanche finalizer on a 64-bit integer."""
    z &= _M64
    z = ((z ^ (z >> 30)) * _MIX1) & _M64
    z = ((z ^ (z >> 27)) * _MIX2) & _M64
    return (z ^ (z >> 31)) & _M64


def child_seed(parent_seed: int, index: int) -> int:
    """Seed of the ``index``-th child (0-based) of a vertex with ``parent_seed``."""
    return mix64(parent_seed ^ (((index + 1) * GOLDEN) & _M64))


def replicate_root(master_seed: int, replicate: int) -> int:
    """Root-vertex seed of replicate ``replicate`` under ``master_seed``."""
    return mix64(mix64(master_seed ^ REP_SALT) ^ (((replicate + 1) * GOLDEN) & _M64))


def unit_uniform(seed: int) -> float:
    """One uniform in [0, 1) drawn from ``seed`` (53 random bits)."""
    return (mix64(seed ^ DRAW_SALT) >> 11) * 2.0**-53


# --- numpy twins -----------------------------------------------------------

_MIX1_NP = np.uint64(_MIX1)
_MIX2_NP = np.uint64(_MIX2)
_GOLDEN_NP = np.uint64(GOLDEN)
_DRAW_NP = np.uint64(DRAW_SALT)
_SHIFTS = (np.uint64(30), np.uint64(27), np.uint64(31))
_UNIT_SHIFT = np.uint64(11)

_BLOCK = 1 << 15


def _mix64_inplace(z: np.ndarray, scratch: np.ndarray | None = None) -> None:
    """Apply :func:`mix64` in place to a 1-D C-contiguous uint64 array.

    Works block by block; ``scratch`` (uint64, at least ``min(len(z),
    _BLOCK)`` long) holds the shifted values and is allocated when omitted.
    """
    if scratch is None:
        scratch = np.empty(min(len(z), _BLOCK), dtype=np.uint64)
    s30, s27, s31 = _SHIFTS
    for lo in range(0, len(z), _BLOCK):
        b = z[lo : lo + _BLOCK]
        t = scratch[: len(b)]
        np.right_shift(b, s30, out=t)
        b ^= t
        b *= _MIX1_NP
        np.right_shift(b, s27, out=t)
        b ^= t
        b *= _MIX2_NP
        np.right_shift(b, s31, out=t)
        b ^= t


def _fresh_u64(z: np.ndarray) -> np.ndarray:
    """A new 1-D C-contiguous uint64 copy of ``z`` (int64 wraps mod 2^64)."""
    return np.array(z, dtype=np.uint64, order="C").reshape(-1)


def mix64_np(z: np.ndarray) -> np.ndarray:
    """Vectorized :func:`mix64` on a uint64 array."""
    out = _fresh_u64(z)
    _mix64_inplace(out)
    return out.reshape(np.shape(z))


def child_seeds_np(parent_seeds: np.ndarray, index: int) -> np.ndarray:
    """Vectorized :func:`child_seed` for one child index across many parents."""
    out = _fresh_u64(parent_seeds)
    out ^= np.uint64(((index + 1) * GOLDEN) & _M64)
    _mix64_inplace(out)
    return out.reshape(np.shape(parent_seeds))


def replicate_roots_np(master_seed: int, replicates: np.ndarray) -> np.ndarray:
    """Vectorized :func:`replicate_root` over an array of replicate indices."""
    base = np.uint64(mix64(master_seed ^ REP_SALT))
    idx = (replicates.astype(np.uint64) + np.uint64(1)) * _GOLDEN_NP
    return mix64_np(base ^ idx)


def unit_uniforms_np(seeds: np.ndarray) -> np.ndarray:
    """Vectorized :func:`unit_uniform`."""
    bits = _fresh_u64(seeds)
    bits ^= _DRAW_NP
    _mix64_inplace(bits)
    bits >>= _UNIT_SHIFT
    out = bits.astype(np.float64)
    out *= 2.0**-53
    return out.reshape(np.shape(seeds))
