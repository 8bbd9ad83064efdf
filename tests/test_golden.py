"""Golden artifact digests: one small pinned config per CLI command.

Each case runs the command through :func:`branchfix.cli.main` and compares
the sha256 of every artifact it writes against a pinned value: each CSV
byte for byte, and the report with its ``wrote <path>`` lines dropped (they
carry the temporary directory).  A change that moves a digest on purpose
updates it here and says why in CHANGES.md.

To print the digests of the current code::

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import hashlib
import io
import json
import math
import sys
import tempfile
from pathlib import Path

import pytest

from branchfix.cli import main

LN3 = math.log(3.0)
CASCADE = {"kind": "cascade", "N": 2, "theta": 0.75}
CASCADE3 = {"kind": "cascade", "N": 3, "theta": 0.8}
ATOMS = {"kind": "atoms",
         "atoms": [[0.3, [0.6, 0.5]], [0.5, [0.9, 0.35]], [0.2, [0.7, 0.8]]]}
HALVES = {"kind": "deterministic", "weights": [0.5, 0.5]}
LATTICE_GRID = {"mode": "lattice-step", "r": math.e, "n_lo": -12, "n_hi": 8}
LOG_GRID = {"mode": "interp-loglinear", "lo": 1e-7, "hi": 1e3, "points": 96}

# name -> (command, config, exit code)
CASES = {
    "weights-analyze-cascade": ("weights-analyze", {"model": CASCADE3}, 0),
    "weights-analyze-atoms": ("weights-analyze", {"model": ATOMS}, 0),
    "weights-analyze-deterministic": (
        "weights-analyze", {"model": {"kind": "deterministic", "weights": [0.5, 0.25, 1.0]}}, 0),
    "wbp-simulate-cascade": ("wbp-simulate", {
        "model": CASCADE, "alpha": LN3,
        "mc": {"depth": 5, "replicates": 60, "seed": 11}}, 0),
    "wbp-simulate-atoms": ("wbp-simulate", {
        "model": ATOMS, "alpha": "auto",
        "mc": {"depth": 4, "replicates": 50, "seed": 12},
        "options": {"z_max": 6.0}}, 0),
    "fixpoint-verify-cascade": ("fixpoint-verify", {
        "model": CASCADE3, "grid": LOG_GRID,
        "options": {"kind": "min", "curve": {"form": "weibull", "alpha": 1.0}}}, 2),
    "fixpoint-verify-deterministic": ("fixpoint-verify", {
        "model": HALVES, "grid": {"mode": "dyadic", "points": 256, "per_octave": 4},
        "options": {"kind": "sum", "curve": {"form": "exponential", "rate": 1.5}}}, 0),
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
    "regularity-deterministic": ("regularity", {
        "model": HALVES, "alpha": 1.0, "grid": LOG_GRID,
        "options": {"curve": {"form": "weibull", "alpha": 1.0}}}, 0),
    "biggins-cascade": ("biggins", {"model": CASCADE3, "alpha": "auto"}, 0),
    "biggins-atoms": ("biggins", {"model": ATOMS, "alpha": "auto"}, 0),
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
    'biggins-cascade': {
        'generation-one.csv': '0cfd193a13c522182448ae2ec83200f2c431147a2adf179f4f6028593c85f781',
        'increments.csv': 'eaa98d69f8eab5bbd4bf782ed06e15df292b827283eea86182b5579114e93a57',
        'report.txt': '82317fde95f264203f4fc92bf00c0721dc873a0ae72fb0a21ea9aa4a55e90482',
    },
    'cascade-extend': {
        'extension.csv': '6f5b73e8dd4ce55c64896521c47647af24ac56e8b9948ad68af592f2cd33f89c',
        'report.txt': '3414306e3957c8d22382c071f778ec406e8e4de299b70b0eafd750ba234019f9',
    },
    'cascade-solve': {
        'report.txt': '9728f5e9612bfd53ba8f07bfdd1f5fd0e0d8eb8434de805b22f84ba7407953ab',
        'solution.csv': '19cc9692481899135998ea055ff90b39dc4dd70d3029f41c7376b6eb0ce55ea6',
        'thresholds.csv': 'c08978a097c26e332a336f15109bae22b9715898cb3f1230fa3fa1146912ba35',
    },
    'fixpoint-construct-cascade': {
        'curve.csv': '23ad1bc3cd0d6dcbf3c7de05a7dd110dde3870d6e3e2c48154d08350e259d362',
        'report.txt': '5fa38e98ba06d883617cf1c0cca6b22680e5bc7ec71c08ff0b6b190aeba54152',
        'residuals.csv': '0ae6cbbbd36bcb0bdfe047292852383fcdc2943d67bb98b89d08683e5f4eb1ca',
    },
    'fixpoint-construct-cascade-sum': {
        'curve.csv': '2203bb3f0eadac02866d24e1406fb69367b73ee4850e208572dd5917334ac0b3',
        'report.txt': '283c32c8c48f7815e971253411a46aa4518bc675f88189f99926642cd7ce49af',
        'residuals.csv': '09762595197ae132140dc5b48b7efa49a520964c9d197e95570c657aa7b11782',
    },
    'fixpoint-verify-atoms-mixture': {
        'curve.csv': 'd85a6af3d3cefdae2bc855d1e43a92b1f283f5210b150fbf67f030fe79f41e30',
        'report.txt': '136543b1393596f7137812e39a9b7a274e5f345a75b4c65d7fccc0a2e62a2f4f',
        'residuals.csv': 'a517e9c80c3924b6e0d7367813783f461eaead3fc8ebf7ca36dcc38def1dad65',
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
    'regularity-deterministic': {
        'curve.csv': 'fd19ae9571440300ee2cab2aeb1f262f0e8c25425279b9ca8ed8604359a2a40d',
        'regularity.csv': '5c9436d4099d4d4b4f9bf6e140fa6875cf6f537e48c84b850302180588b5b50c',
        'report.txt': '66b48e64e5cbafade52b6fdace6a493e1ce8d71a60c282031eb32cd45bef2a6c',
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
        'report.txt': '5c78d0854f54b326643ba81089ba471c70c709cdad288ef4566fa04ddfaba5a0',
        'traces.csv': 'd1d959ca6ce26abb4f5b46bc03bd7e4e2144af78852571124fd6a700ac110bf5',
    },
    'weights-analyze-atoms': {
        'moments.csv': '6bb30281a35651ef35944af560613194e40906d4f9a2e718b32a4afd00bd3e72',
        'report.txt': '4cb7e69cfe64f63c197398a4ce3189493d51788233b85ce3782423811444589b',
    },
    'weights-analyze-cascade': {
        'moments.csv': '09777591b4678e6089b031c5404af82da5a4f2c15b7557e1a7e41e2d493d9e62',
        'report.txt': 'cd2f30c777cb539dd226e60d9fe6dba842ac51c27dbbffaa7cea58122853e06e',
    },
    'weights-analyze-deterministic': {
        'moments.csv': 'c5627d81ae2c44a9f004d7190596dc455ffb6bc85b3bc67f4b1addd64b81cf29',
        'report.txt': '9d999d984d14895e21edbc39626c16c9ea8c51075a2d9ba082b6ddfd87680824',
    },
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


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_artifacts(name, tmp_path):
    command, doc, want_code = CASES[name]
    code, digests = artifact_digests(command, doc, tmp_path)
    assert code == want_code
    assert digests == GOLDEN[name]


if __name__ == "__main__":
    out = {}
    for case in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp:
            command, doc, _ = CASES[case]
            out[case] = artifact_digests(command, doc, Path(tmp))
    for case, (code, digests) in out.items():
        print(f"    {case!r}: {{  # exit {code}")
        for art, dig in digests.items():
            print(f"        {art!r}: {dig!r},")
        print("    },")
    sys.exit(0)
