"""Golden artifact digests: one small pinned config per CLI command.

Each case runs the command through :func:`branchfix.cli.main` and compares
the sha256 of every artifact it writes against a pinned value: each CSV
byte for byte, and the report with its ``wrote <path>`` lines dropped (they
carry the temporary directory).  A change that moves a digest on purpose
updates it here and says why in CHANGES.md.

The CLI configs are small: their largest generation stays inside one
2^15-value block of the seeding kernel.  Only ``wbp-simulate-chunks`` writes
enough rows to span several CSV write chunks.  The library cases below grow
generations over several blocks, with a partial last batch of replicates,
and pin the raw array bytes.

No artifact sum goes through BLAS, so the digests are the same under every
OpenBLAS kernel: one check reruns every case in a fresh interpreter under
``OPENBLAS_CORETYPE=Haswell`` and again under ``Prescott`` and compares the
same pinned tables.

To print the digests of the current code::

    PYTHONPATH=src python tests/test_golden.py

To list the ``cli.py`` lines that no case executes (``>>>>>>`` in the
``.cover`` file; coverage.py is not a dependency)::

    PYTHONPATH=src python -m trace --count --missing -C /tmp/cover \
        --module pytest -q tests/test_golden.py -k artifacts
"""

import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

import branchfix
from branchfix.branching import _Step, replicate_traces, simulate_tree
from branchfix.cascade import (CascadeParams, SeedFunction, exact_threshold_chain,
                               explicit_solution, extend_from_seed, g_eval)
from branchfix.cli import main
from branchfix.weights import BernoulliCascade, FiniteAtoms

LN3 = math.log(3.0)
CASCADE = {"kind": "cascade", "N": 2, "theta": 0.75}
CASCADE3 = {"kind": "cascade", "N": 3, "theta": 0.8}
ATOMS = {"kind": "atoms",
         "atoms": [[0.3, [0.6, 0.5]], [0.5, [0.9, 0.35]], [0.2, [0.7, 0.8]]]}
HALVES = {"kind": "deterministic", "weights": [0.5, 0.5]}
# Variable fan-out: unequal atom lengths and a zero weight (no child).
VARIABLE = [(0.25, (0.2, 0.0, 1.5)), (0.5, (0.8,)), (0.25, (1.0, 0.4, 0.1))]
# Integer levels with a variable fan-out: weights e^-1, 1 and e^-2.
LATTICE_FANOUT = [[0.3, [0.36787944117144233, 1.0, 0.1353352832366127]],
                  [0.7, [0.36787944117144233]]]
# A wide fixed fan-out: 80 positive weights per atom, so one parent's
# children of a 512-replicate batch span more than one 2^15-value block.
WIDE = [(0.6, tuple(round(0.004 + 0.0002 * j, 6) for j in range(80))),
        (0.4, tuple(round(0.02 - 0.0001 * j, 6) for j in range(80)))]
LATTICE_GRID = {"mode": "lattice-step", "r": math.e, "n_lo": -12, "n_hi": 8}
LOG_GRID = {"mode": "interp-loglinear", "lo": 1e-7, "hi": 1e3, "points": 96}
DYADIC_GRID = {"mode": "dyadic", "points": 256, "per_octave": 4}
# Two residues per period, for per-residue regularity labels.
RESIDUE_GRID = {"mode": "lattice-step", "r": math.e, "residues": [1.0, 1.6],
                "n_lo": -14, "n_hi": 6}

# name -> (command, config, exit code)
CASES = {
    "weights-analyze-cascade": ("weights-analyze", {"model": CASCADE3}, 0),
    "weights-analyze-atoms": ("weights-analyze", {"model": ATOMS}, 0),
    "weights-analyze-deterministic": (
        "weights-analyze", {"model": {"kind": "deterministic", "weights": [0.5, 0.25, 1.0]}}, 0),
    # No exponent: the cascade regime line, and the sup >= 1 line.
    "weights-analyze-cascade-critical": (
        "weights-analyze", {"model": {"kind": "cascade", "N": 2, "theta": 0.5}}, 0),
    "weights-analyze-sup-ge-one": ("weights-analyze", {"model": {
        "kind": "atoms", "atoms": [[0.5, [1.5, 0.5]], [0.5, [1.0, 0.3]]]}}, 0),
    "wbp-simulate-cascade": ("wbp-simulate", {
        "model": CASCADE, "alpha": LN3,
        "mc": {"depth": 5, "replicates": 60, "seed": 11}}, 0),
    "wbp-simulate-atoms": ("wbp-simulate", {
        "model": ATOMS, "alpha": "auto",
        "mc": {"depth": 4, "replicates": 50, "seed": 12},
        "options": {"z_max": 6.0}}, 0),
    # m(alpha) != 1: the mean check is skipped.
    "wbp-simulate-renewal-unnormalized": ("wbp-simulate", {
        "model": CASCADE, "alpha": 1.0,
        "mc": {"depth": 4, "replicates": 40, "seed": 17}}, 0),
    # 1400 x 11 = 15400 trace rows span several CSV write chunks.  Paths
    # through the 1e-80 weight underflow, so the traces hold zeros,
    # subnormals and other cells below 1e-4.
    "wbp-simulate-chunks": ("wbp-simulate", {
        "model": {"kind": "atoms", "atoms": [[0.5, [1e-80]], [0.5, [0.5, 0.5]]]},
        "alpha": 1.0, "mc": {"depth": 10, "replicates": 1400, "seed": 19}}, 0),
    # Alpha is the model's characteristic exponent as a literal: "auto"
    # would take it from a search whose np.exp rounds differently under
    # AVX-512.  The test below checks that the case takes integer levels.
    "wbp-simulate-lattice-fanout": ("wbp-simulate", {
        "model": {"kind": "atoms", "atoms": LATTICE_FANOUT}, "alpha": 0.5206908010569715,
        "mc": {"depth": 6, "replicates": 40, "seed": 23}}, 0),
    "fixpoint-verify-cascade": ("fixpoint-verify", {
        "model": CASCADE3, "grid": LOG_GRID,
        "options": {"kind": "min", "curve": {"form": "weibull", "alpha": 1.0}}}, 2),
    "fixpoint-verify-deterministic": ("fixpoint-verify", {
        "model": HALVES, "grid": {"mode": "dyadic", "points": 256, "per_octave": 4},
        "options": {"kind": "sum", "curve": {"form": "exponential", "rate": 1.5}}}, 0),
    "fixpoint-verify-exponential-min": ("fixpoint-verify", {
        "model": HALVES, "grid": DYADIC_GRID,
        "options": {"kind": "min", "curve": {"form": "exponential", "rate": 0.75}}}, 0),
    "fixpoint-verify-weibull-modulation-number": ("fixpoint-verify", {
        "model": HALVES, "grid": DYADIC_GRID,
        "options": {"kind": "min",
                    "curve": {"form": "weibull", "alpha": 1.0, "modulation": 2.0}}}, 0),
    "fixpoint-verify-atoms-mixture": ("fixpoint-verify", {
        "model": ATOMS, "alpha": "auto", "grid": LOG_GRID,
        "mc": {"depth": 5, "replicates": 200, "seed": 13},
        "options": {"kind": "min", "points": 8, "z_max": 50.0,
                    "curve": {"form": "weibull-mixture"}}}, 0),
    "fixpoint-construct-cascade": ("fixpoint-construct", {
        "model": CASCADE, "alpha": LN3, "grid": LATTICE_GRID,
        "mc": {"depth": 5, "replicates": 200, "seed": 14},
        "options": {"points": 8, "z_max": 50.0}}, 0),
    "fixpoint-construct-cascade-sum": ("fixpoint-construct", {
        "model": {"kind": "cascade", "N": 2, "theta": 0.9}, "alpha": "auto",
        "grid": LATTICE_GRID, "mc": {"depth": 5, "replicates": 200, "seed": 16},
        "options": {"kind": "sum", "points": 8, "z_max": 50.0}}, 0),
    "cascade-solve": ("cascade-solve", {
        "model": {"kind": "cascade", "N": 4, "theta": 0.5},
        "options": {"depth": 12, "scale": 1.25}}, 0),
    "cascade-extend": ("cascade-extend", {
        "model": {"kind": "cascade", "N": 2, "theta": 0.6},
        "options": {"seed_value": 0.4, "n_lo": -8, "n_hi": 8}}, 0),
    "cascade-extend-seed-grid": ("cascade-extend", {
        "model": {"kind": "cascade", "N": 2, "theta": 0.6},
        "options": {"seed_grid": [math.exp(0.4), math.e], "seed_values": [0.45, 0.4],
                    "n_lo": -6, "n_hi": 6}}, 0),
    "regularity-deterministic": ("regularity", {
        "model": HALVES, "alpha": 1.0, "grid": LOG_GRID,
        "options": {"curve": {"form": "weibull", "alpha": 1.0}}}, 0),
    # t^100 underflows on the window: a note and an empty regularity table.
    "regularity-vanishing-tail": ("regularity", {
        "model": HALVES, "alpha": 1.0, "grid": LOG_GRID,
        "options": {"curve": {"form": "weibull", "alpha": 100.0}}}, 0),
    "regularity-mixture-residues": ("regularity", {
        "model": CASCADE, "alpha": LN3, "grid": RESIDUE_GRID,
        "mc": {"depth": 5, "replicates": 200, "seed": 18},
        "options": {"curve": {"form": "weibull-mixture", "modulation": {
            "period": math.e, "residues": [1.0, 1.6], "values": [1.0, 1.3]}}}}, 0),
    "biggins-cascade": ("biggins", {"model": CASCADE3, "alpha": "auto"}, 0),
    "biggins-atoms": ("biggins", {"model": ATOMS, "alpha": "auto"}, 0),
    # A drift whose last bit moved with the BLAS kernel while it was a dot
    # product (0.435741031370962 under AVX-512, 0.43574103137096204 under
    # Haswell and Prescott).
    "biggins-atoms-fanout": ("biggins", {"model": {"kind": "atoms", "atoms": [
        [0.3, [0.6, 0.8]], [0.5, [0.2, 0.3, 0.8]], [0.2, [0.3, 0.4, 0.8]]]},
        "alpha": "auto"}, 0),
    "renewal-check-cascade": ("renewal-check", {
        "model": CASCADE, "alpha": LN3,
        "mc": {"depth": 5, "replicates": 100, "seed": 15},
        "options": {"interval": [0.0, 2.0], "z_max": 6.0}}, 0),
}

GOLDEN = {
    'biggins-atoms': {
        'generation-one.csv': 'eb4a7e69f9dd125db8c759f8a6eccdbf0466940393f350b63f2fadcb9ce473af',
        'increments.csv': '47993e0ce5b9174b3741d6d22ff4019184133cef1403f89196a5cf17b6d72ee9',
        'report.txt': 'd093c5f839775d8eca5ac7d624931fd685a28672ed7cd7184e07dca7a8d3d6cf',
    },
    'biggins-atoms-fanout': {
        'generation-one.csv': '088e9cc83bc8a501f7187d8f5567a8dc6c20fb0b0a3a8f36f51c3a5f91705189',
        'increments.csv': '8bbe24f568dd494e7764d4e7846dbd737ed2e52a7f5f5d5660da0d344c1e8383',
        'report.txt': '65d4281510ecb7742c1403e90f2a496ec9cae0363ff962da19b29a47b552a903',
    },
    'biggins-cascade': {
        'generation-one.csv': '0cfd193a13c522182448ae2ec83200f2c431147a2adf179f4f6028593c85f781',
        'increments.csv': 'eaa98d69f8eab5bbd4bf782ed06e15df292b827283eea86182b5579114e93a57',
        'report.txt': '82317fde95f264203f4fc92bf00c0721dc873a0ae72fb0a21ea9aa4a55e90482',
    },
    'cascade-extend': {
        'extension.csv': 'e29b0bdbd77819e528c49bc92d181a6c68df764dd48e72300fbf510945d5d5bb',
        'report.txt': '0fc98b6b39a222cdd451295354f0c3c1a2f64de61130ae1a9d959ea20b0f3c79',
    },
    'cascade-extend-seed-grid': {
        'extension.csv': 'c839548445bcb666867d3d0de5fccf5538d98f4d5d6e9d1e15847f5c09980e8e',
        'report.txt': 'cfb2f13492312d42b5b1e4d68efa6c2278fc1cf3b31e8f4318f6c55b930e27a2',
    },
    'cascade-solve': {
        'report.txt': '9728f5e9612bfd53ba8f07bfdd1f5fd0e0d8eb8434de805b22f84ba7407953ab',
        'solution.csv': '81942cb9eef26da4ecf78d0be38da8145119095e2f601fb456799a21eb79feda',
        'thresholds.csv': 'ac941e569f1376f4fd25f75979cf9476483766206556e1bc831d0419f115c7e9',
    },
    'fixpoint-construct-cascade': {
        'curve.csv': '2e928971a5007f212cff376f4563a3c079d7d3d480391bf16beb4541ce512039',
        'report.txt': '7c6ef3efdd10eab78dac869ea9eabab2cff6ce6051b9eac5bf729d5002347cc0',
        'residuals.csv': 'd66cb429a4f13e51cacfb517587f17e2c05d38f552dc811b59a00509d6e1677c',
    },
    'fixpoint-construct-cascade-sum': {
        'curve.csv': '1d92244f18b8fa66c768850c2a24d7f02fe59446d5782526233ef168f664e236',
        'report.txt': 'a807d0d6cbef499b40b4c389c83800660b64af1037a40c276f54411053dc0db6',
        'residuals.csv': '3bbbe47f9962e3f122287e5282232c7d04030335cc5c2cd124b0f983b345ebf1',
    },
    'fixpoint-verify-atoms-mixture': {
        'curve.csv': 'd85a6af3d3cefdae2bc855d1e43a92b1f283f5210b150fbf67f030fe79f41e30',
        'report.txt': 'f7ee65354bc603d7190a4d48c5683f0ec3eed3ed9a5a620b3d73aa3047fb26c0',
        'residuals.csv': 'f1cd2eb41e4fd2ff670c81f2882eec5ae6e129f85435c4fd23e6d10a08f5c2c5',
    },
    'fixpoint-verify-cascade': {
        'curve.csv': '30d30057f834653b45567fb8b9db7f52d3c0bf793bed79b9729f96f5b891121a',
        'report.txt': '954a633c9aef42e9d3ec1d06dd788db0fcb8befd69dc10eb7674431f9c124cc1',
        'residuals.csv': 'aad1258f098c9b8e3d2352f66b67a8be4a1f4d524728a2b888f424d2bdef8b03',
    },
    'fixpoint-verify-deterministic': {
        'curve.csv': '6fe47484782e6605e312e101b555c6d89ed8f66953bbc1dc968b3cc85fdf9d25',
        'report.txt': 'e4792dd89751e4de78fbfcfc13ebac165869e34f675282a5239278310d0b68fe',
        'residuals.csv': 'aefd322eba14aa6fefb9f484886fcb66aac3a9f8dd2ab48cb5bf048cc3eff99f',
    },
    'fixpoint-verify-exponential-min': {
        'curve.csv': '187d52d22233975008d7e48094305798740455941b964519ec2ea8b9ab4edd49',
        'report.txt': '220e699556188f01e4d1bfc3fa6aeb3742533dd520e65866253f1356b6dcf74a',
        'residuals.csv': '3438138322e06ecff1ebe9149ef4f7893d11e2d30c3794d44983b364344e4c49',
    },
    'fixpoint-verify-weibull-modulation-number': {
        'curve.csv': '712ebbf1504797b706775fbab322327d46f6e8a30a16d36e03361750bda5a94f',
        'report.txt': '9ac681483d1ab4c1ee279f06b12f19517e0f0de98d277bed2b8225c7dccad6d1',
        'residuals.csv': 'dd4944a914cc58ff066c1ee0b0dad2673d842b34fbb4bbdb111e4955bdc72698',
    },
    'regularity-deterministic': {
        'curve.csv': 'fd19ae9571440300ee2cab2aeb1f262f0e8c25425279b9ca8ed8604359a2a40d',
        'regularity.csv': '5c9436d4099d4d4b4f9bf6e140fa6875cf6f537e48c84b850302180588b5b50c',
        'report.txt': '66b48e64e5cbafade52b6fdace6a493e1ce8d71a60c282031eb32cd45bef2a6c',
    },
    'regularity-mixture-residues': {
        'curve.csv': '15842f2535add6f795664d78285a92d79ba4040036a16542bba9a24595365aa5',
        'regularity.csv': '32a12b2456e5fc1e2ca89d283d44941f120be02a5e24e1a80ce9d2f5fe43bdbd',
        'report.txt': '9df9e0ad6531ab4c557e8b02f7e64703903a199cfc23078500c808aea5755a03',
    },
    'regularity-vanishing-tail': {
        'curve.csv': '7082832e404bc8319fe901f9be572bd2f630ccaebfa044235823ef9ceef0e139',
        'regularity.csv': 'aee4f47315e6e1a4f77cd222fada8098cbd10e9550aea002d1cb2185ee31c754',
        'report.txt': '13ad20b59663b01294702006313fd96dfcaf91017bf852ee7c9c7702a108028b',
    },
    'renewal-check-cascade': {
        'renewal.csv': '258900c78a061e38b18339977e9b931acb0a90467fc882669da7684fd0fb0e8f',
        'report.txt': '431385b037d8305e934981aeacf7db651aeb332f4f3f0a2759e41601f500bd64',
    },
    'wbp-simulate-atoms': {
        'report.txt': '1f926116efa8c79348322c9985d447f85f27d7e9ad7bbd5399eb34291800476b',
        'traces.csv': '22acd12eaa8028c68def4e3a5b178a5c410eade2b32328d34ca58484fbff203b',
    },
    'wbp-simulate-cascade': {
        'report.txt': '3b93daa1199d9c75fabdb87baef677a7ccdb182c96c8b74bca52f70dcda74153',
        'traces.csv': '7e4376eeffeae97435720572db22123f1b6fc87381e7c9c863250fa9989873b3',
    },
    'wbp-simulate-chunks': {
        'report.txt': '13f3c850d37c9fc8d2aebcf23ef7b0575ed32357b5e340e5c1fcc6439c75082e',
        'traces.csv': '03dc2b563333ebab3e1585ae8a0c693e181d63e3033d0b7fd44bf5d57c72595e',
    },
    'wbp-simulate-lattice-fanout': {
        'report.txt': '884fe6ce565fdf308935c246c17c19e9e4999c4eaa614473fd855987d045df43',
        'traces.csv': '70834206e1bcd6b787ec6d7c77aca435ecc8b3105d9b20a27b235777df31f123',
    },
    'wbp-simulate-renewal-unnormalized': {
        'report.txt': '2ccedbcf7459c647d9f0a4a9aa8c9ea26873c3dc3101233fd177bc0701f8a70b',
        'traces.csv': '8b1043067214d90ee86f9a5d9a65e0e76e8130c08abf6b02d83f7bb5f339e204',
    },
    'weights-analyze-atoms': {
        'moments.csv': '6bb30281a35651ef35944af560613194e40906d4f9a2e718b32a4afd00bd3e72',
        'report.txt': '4cb7e69cfe64f63c197398a4ce3189493d51788233b85ce3782423811444589b',
    },
    'weights-analyze-cascade': {
        'moments.csv': '09777591b4678e6089b031c5404af82da5a4f2c15b7557e1a7e41e2d493d9e62',
        'report.txt': 'cd2f30c777cb539dd226e60d9fe6dba842ac51c27dbbffaa7cea58122853e06e',
    },
    'weights-analyze-cascade-critical': {
        'moments.csv': '7f57a72624d47672ffdeab33503f7480657b7e77bb05eb063cfc7bec32cb6a90',
        'report.txt': 'a408c7caf5cc8d0838cbc6c252a32b9aa6cf7531c4d306c864f8bb031b2cc0f9',
    },
    'weights-analyze-deterministic': {
        'moments.csv': 'c5627d81ae2c44a9f004d7190596dc455ffb6bc85b3bc67f4b1addd64b81cf29',
        'report.txt': '9d999d984d14895e21edbc39626c16c9ea8c51075a2d9ba082b6ddfd87680824',
    },
    'weights-analyze-sup-ge-one': {
        'moments.csv': 'f200011c2c48cccd826c29945417731303facd33ccb84eb81455e1dbd59bf23f',
        'report.txt': '075ee417e38eaa611f72cece3d6dd3c9efee4ac2c34bb7d7a776a7a03408fc48',
    },
}


def _sha(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _traces(model, alpha, depth, threads, interval=None, replicates=1100):
    tr = replicate_traces(model, alpha, depth, replicates=replicates, seed=21,
                          threads=threads, renewal_interval=interval)
    extra = () if tr.renewal_sums is None else (tr.renewal_sums,)
    return _sha(tr.W, tr.R_sup, *extra)


def _tree(model=BernoulliCascade(2, 0.75), depth=16):
    tree = simulate_tree(model, depth=depth, seed=21)
    return _sha(*tree.generations, *tree.parent_index, *tree.vertex_seeds)


def _chain(params, n):
    """Digest of the exact chain: each value's sign, mantissa and exponent, and the flags."""
    values, flags, _ = exact_threshold_chain(params, n)
    words = [f"{s}:{int(m)}:{int(e)}" for s, m, e, _ in (v._mpf_ for v in values)]
    return hashlib.sha256(repr((words, flags)).encode()).hexdigest()


def _extension(params, v_e=0.5, frac=0.5, n=20):
    v_s = v_e + frac * (g_eval(params, v_e) - v_e)
    seed = SeedFunction(np.array([math.exp(0.4), math.e]), np.array([v_s, v_e]))
    curve = extend_from_seed(params, seed, -n, n)
    return _sha(curve.grid, curve.values)


# name -> zero-argument function returning a sha256 of the result arrays
LIBRARY_CASES = {
    "replicate-traces-cascade-t1": lambda: _traces(
        BernoulliCascade(2, 0.75), LN3, 8, 1, (0.0, 2.0)),
    "replicate-traces-cascade-t2": lambda: _traces(
        BernoulliCascade(2, 0.75), LN3, 8, 2, (0.0, 2.0)),
    # A full batch and a one-replicate batch.
    "replicate-traces-cascade-r513": lambda: _traces(
        BernoulliCascade(2, 0.75), LN3, 8, 1, (0.0, 2.0), replicates=513),
    "simulate-tree-cascade": _tree,
    "replicate-traces-atoms": lambda: _traces(
        FiniteAtoms(ATOMS["atoms"]), 1.0, 6, 1),
    # Generation 7 of a 512-replicate batch is 2^16 parents: four blocks.
    "replicate-traces-atoms-renewal-t2": lambda: _traces(
        FiniteAtoms(ATOMS["atoms"]), 1.0, 8, 2, (0.5, 3.0)),
    # One-replicate batches: alone, and after a full batch.  Each sum over
    # a generation of 128 or 256 vertices adds in vertex order.
    "replicate-traces-atoms-renewal-r1": lambda: _traces(
        FiniteAtoms(ATOMS["atoms"]), 1.0, 8, 1, (0.5, 3.0), replicates=1),
    "replicate-traces-atoms-renewal-r513": lambda: _traces(
        FiniteAtoms(ATOMS["atoms"]), 1.0, 8, 1, (0.5, 3.0), replicates=513),
    # 512 x 80 = 40 960 vertices in generation 1, 3.3 M in generation 2.
    "replicate-traces-wide": lambda: _traces(
        FiniteAtoms(WIDE), 1.0, 2, 1, (3.0, 9.5), replicates=512),
    # About 512 * 1.75^8 = 45k parents in the last generation of a batch.
    "replicate-traces-variable-t1": lambda: _traces(
        FiniteAtoms(VARIABLE), 1.0, 9, 1, (0.5, 3.0)),
    "replicate-traces-variable-t2": lambda: _traces(
        FiniteAtoms(VARIABLE), 1.0, 9, 2, (0.5, 3.0)),
    "simulate-tree-atoms": lambda: _tree(FiniteAtoms(ATOMS["atoms"]), 16),
    "simulate-tree-variable": lambda: _tree(FiniteAtoms(VARIABLE), 19),
    # The threshold chain at N = 8 runs far past float64 underflow (a_30 is
    # about 10^(-3.4e27)); the CLI cases pin it only at N = 4 and N = 2.
    # The N = 3 chain has one cell (2) without a bit-exact preimage.
    "cascade-chain-n8": lambda: _chain(CascadeParams(8, 0.5), 30),
    "cascade-chain-n3": lambda: _chain(CascadeParams(3, 0.4), 20),
    "cascade-solution-n8": lambda: _sha(
        explicit_solution(CascadeParams(8, 0.5), scale=1.7, depth=30).a),
    "cascade-extend-n8": lambda: _extension(CascadeParams(8, 7 / 8)),
}

LIBRARY_GOLDEN = {
    'cascade-chain-n3': '0041e49030f6780fe7736625881c86976fa08fd8658530c837cae9101af4f8c0',
    'cascade-chain-n8': '11dd43cded674a2f84482797a318b5d24a204047229934bec6680690d4cb945a',
    'cascade-extend-n8': 'efc9d12bc89e77d3ee150808311d3dc5c4268359e8a72dec437e76799372d854',
    'cascade-solution-n8': '7abfeb81c3940a7a96b834730696252def35309c56c1a12172d2192d58a25200',
    'replicate-traces-atoms': '9530f5e9da8076b8d4cd76f1b22b4b2fe81c4e295f7bcc8eebab6a760783590b',
    'replicate-traces-atoms-renewal-r1': '15939b95178c288ebb8a8780afc5cea88fbaebe809ceba8efe12c707844b80de',
    'replicate-traces-atoms-renewal-r513': 'a90d3fd8a531a17c81a6dceb8294f2ffb17c45d64f6c8042f437042eacaf19af',
    'replicate-traces-atoms-renewal-t2': 'b47ff48603d58e6ed100ab5def5b0023bb0257762175bd05611d0c9af09e7518',
    'replicate-traces-cascade-r513': 'f3ddfae1a70d32543b2620f79d3666cc9d99b60f12a82d8173f3d60156f51c6b',
    'replicate-traces-cascade-t1': 'eb94b8177518b8deba9ab06333f75f5bdb4cfb5e25ead473f8c8fd34ed950887',
    'replicate-traces-cascade-t2': 'eb94b8177518b8deba9ab06333f75f5bdb4cfb5e25ead473f8c8fd34ed950887',
    'replicate-traces-variable-t1': '714902419723c67414ddcff64828e3416566a54e79a80bcbfe26b19191b05dfc',
    'replicate-traces-variable-t2': '714902419723c67414ddcff64828e3416566a54e79a80bcbfe26b19191b05dfc',
    'replicate-traces-wide': '1dc52f6098ef4ffa541ef19083fbaabd6dc899c98a9cf4e7ac2a83f7c4015113',
    'simulate-tree-atoms': '2ba1279a2c72b23484c0011bacac31dc816d23e456ca5071a64db74d34e28437',
    'simulate-tree-cascade': '0ebe5086a9db6b9c8850a4cb36abd0d59b95badec7a6c083868c4a076bc74f86',
    'simulate-tree-variable': '82663a7bb044077cd457d3e871e5e034616503d2289e7dc6f273bb4666ab00fd',
}


def artifact_digests(command: str, doc: dict, workdir: Path):
    """Run one command and return (exit code, {artifact: sha256})."""
    cfg = workdir / "config.json"
    cfg.write_text(json.dumps(doc), encoding="utf-8")
    prefix = workdir / "out"
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(["--config", str(cfg), "--command", command, "--out", str(prefix)])
    digests = {}
    for path in sorted(workdir.glob("out-*")):
        data = path.read_bytes()
        if path.name == "out-report.txt":
            lines = data.decode("utf-8").split("\n")
            data = "\n".join(ln for ln in lines if not ln.startswith("wrote ")).encode()
        digests[path.name[len("out-"):]] = hashlib.sha256(data).hexdigest()
    return code, digests


def all_digests():
    """``({case: (exit code, {artifact: sha256})}, {library case: sha256})``
    for every case."""
    cli = {}
    for case in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp:
            command, doc, _ = CASES[case]
            cli[case] = artifact_digests(command, doc, Path(tmp))
    return cli, {case: LIBRARY_CASES[case]() for case in sorted(LIBRARY_CASES)}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_artifacts(name, tmp_path):
    command, doc, want_code = CASES[name]
    code, digests = artifact_digests(command, doc, tmp_path)
    assert code == want_code
    assert digests == GOLDEN[name]


def test_lattice_fanout_case_takes_integer_levels():
    # So its digest pins the int64 level path with a variable fan-out.
    model = FiniteAtoms(CASES["wbp-simulate-lattice-fanout"][1]["model"]["atoms"])
    assert _Step(model).dtype == np.int64


@pytest.mark.parametrize("name", sorted(LIBRARY_CASES))
def test_golden_library(name):
    assert LIBRARY_CASES[name]() == LIBRARY_GOLDEN[name]


def _cpu_flags() -> set:
    """The CPU feature flags listed in ``/proc/cpuinfo``; empty where it is absent."""
    info = Path("/proc/cpuinfo")
    text = info.read_text() if info.exists() else ""
    return {f for line in text.splitlines() if line.startswith("flags")
            for f in line.split(":", 1)[1].split()}


@pytest.mark.parametrize("core", ["Haswell", "Prescott"])
def test_golden_digests_under_other_blas_kernels(core):
    # The pinned digests again, every case, in a fresh interpreter whose
    # OpenBLAS runs the named kernel instead of the one it detects.
    if core == "Haswell" and not {"avx2", "fma"} <= _cpu_flags():
        pytest.skip("the Haswell kernel needs avx2 and fma")
    src = str(Path(branchfix.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_CORETYPE=core, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = (f"import json, sys; sys.path.insert(0, {str(Path(__file__).parent)!r}); "
            "import test_golden; print(json.dumps(test_golden.all_digests()))")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    cli, lib = json.loads(proc.stdout.splitlines()[-1])
    want = {case: [CASES[case][2], GOLDEN[case]] for case in CASES}
    assert sorted(c for c in CASES if cli[c] != want[c]) == []
    assert sorted(c for c in LIBRARY_CASES if lib[c] != LIBRARY_GOLDEN[c]) == []


if __name__ == "__main__":
    cli, lib = all_digests()
    for case, (code, digests) in cli.items():
        print(f"    {case!r}: {{  # exit {code}")
        for art, dig in digests.items():
            print(f"        {art!r}: {dig!r},")
        print("    },")
    print("# LIBRARY_GOLDEN")
    for case, dig in lib.items():
        print(f"    {case!r}: {dig!r},")
    sys.exit(0)
