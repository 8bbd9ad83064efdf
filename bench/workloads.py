"""The benchmark's workloads: inputs from a seed, one timed job, output checks.

Each workload is an object with

* ``setup(seed, size, workdir)`` — builds the inputs (models, exponents,
  configs).  This is the work ``setup_s`` times in a fresh interpreter.
* ``reference(inputs)`` — untimed, once per run: oracle data the checks
  compare against (``None`` where the checks need none).
* ``job(inputs)`` — the timed unit: calls into branchfix only.
* ``check(inputs, ref, out)`` — untimed: returns a :class:`Check` with the
  verdict, the units of work done, and a digest of the outputs.

Every job of a run gets the same inputs, so every job's digest must repeat;
the seed changes the inputs from run to run.  Why each workload exists is in
``README.md`` beside this file.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import statistics
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import branchfix as bf
from branchfix import cascade, cli
from tracing import tree_vertices

# Monte Carlo checks fail when |z| exceeds Z_BAND.  Over the ~30 tests of
# one run a correct program crosses it with probability ~1e-7 under the
# normal approximation (binomial tests use exact tails at the same level).
Z_BAND = 6.0
RESIDUAL_TOL = 1e-10     # the CLI's default tolerance for exact residuals

LATTICE_MODEL = {"kind": "cascade", "N": 2, "theta": 0.75}
ATOMS_MODEL = {"kind": "atoms",
               "atoms": [[0.3, [0.6, 0.5]], [0.5, [0.9, 0.35]], [0.2, [0.7, 0.8]]]}


@dataclass
class Check:
    """Verdict on one job's outputs."""

    ok: bool
    problems: list = field(default_factory=list)
    units: float = 0.0
    digest: str = ""
    stats: dict = field(default_factory=dict)  # recorded statistics, gated or not
    extra: dict = field(default_factory=dict)  # per-job counters for the trace


def derived_seed(seed: int, label: str) -> int:
    """A 63-bit seed for ``label`` that depends only on ``seed``."""
    h = hashlib.sha256(f"{label}:{seed}".encode()).digest()
    return int.from_bytes(h[:8], "little") >> 1


def _digest(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(np.ascontiguousarray(part).tobytes())
        elif isinstance(part, bytes):
            h.update(part)
        else:
            h.update(repr(part).encode())
    return h.hexdigest()


def build_model(doc: dict):
    if doc["kind"] == "cascade":
        return bf.BernoulliCascade(doc["N"], doc["theta"])
    return bf.FiniteAtoms(doc["atoms"])


# ---------------------------------------------------------------------------
# exact oracles (computed from the model description, not by branchfix)
# ---------------------------------------------------------------------------


def _atoms_of(doc: dict) -> list:
    """``(probability, positive weights)`` per atom; the cascade as one i.i.d. law."""
    if doc["kind"] == "atoms":
        return [(p, [w for w in ws if w > 0.0]) for p, ws in doc["atoms"]]
    n, theta = doc["N"], doc["theta"]
    return [(math.comb(n, k) * theta**k * (1.0 - theta) ** (n - k),
             [1.0] * (n - k) + [math.exp(-1.0)] * k) for k in range(n + 1)]


def moment(doc: dict, beta: float) -> float:
    """``m(beta) = E sum_i T_i^beta``."""
    return sum(p * sum(w**beta for w in ws) for p, ws in _atoms_of(doc))


def martingale_moments(doc: dict, alpha: float, depth: int):
    """Exact ``E W_n`` and ``E W_n^2`` for ``n = 0..depth``.

    ``W_{n+1} = sum_i T_i^alpha W_n^(i)`` with i.i.d. subtrees gives
    ``E W_{n+1}^2 = m(2 alpha) E W_n^2 + (E W_1^2 - m(2 alpha)) (E W_n)^2``.
    """
    m1 = moment(doc, alpha)
    m2 = moment(doc, 2.0 * alpha)
    q = sum(p * sum(w**alpha for w in ws) ** 2 for p, ws in _atoms_of(doc))
    mean = [1.0]
    second = [1.0]
    for _ in range(depth):
        second.append(m2 * second[-1] + (q - m2) * mean[-1] ** 2)
        mean.append(m1 * mean[-1])
    return np.array(mean), np.array(second)


def top_weight_survival(doc: dict, depth: int) -> np.ndarray:
    """``P(R_n = 1)`` for the cascade, ``n = 0..depth``.

    Weight-1 vertices form a Galton-Watson process with offspring
    Binomial(N, 1 - theta), generating function ``f(s) = (theta + (1-theta) s)^N``;
    ``P(R_n = 1) = 1 - f^n(0)``.
    """
    n, theta = doc["N"], doc["theta"]
    q = 0.0
    out = [1.0]
    for _ in range(depth):
        q = (theta + (1.0 - theta) * q) ** n
        out.append(1.0 - q)
    return np.array(out)


def _binomial_tails(k: int, n: int, p: float):
    """``(P(X <= k), P(X >= k))`` for ``X ~ Binomial(n, p)``, exact."""
    if p <= 0.0 or p >= 1.0:
        degenerate = float(k == (0 if p <= 0.0 else n))
        return degenerate, degenerate
    lp, lq = math.log(p), math.log1p(-p)
    logpmf = [math.lgamma(n + 1) - math.lgamma(i + 1) - math.lgamma(n - i + 1)
              + i * lp + (n - i) * lq for i in range(n + 1)]
    top = max(logpmf)
    pmf = [math.exp(v - top) for v in logpmf]
    total = sum(pmf)
    return sum(pmf[: k + 1]) / total, sum(pmf[k:]) / total


def binomial_z(k: int, n: int, p: float) -> float:
    """Two-sided exact binomial p-value of ``k`` as a normal-equivalent |z|."""
    lo, hi = _binomial_tails(k, n, p)
    pval = min(1.0, 2.0 * min(lo, hi))
    if pval >= 1.0:
        return 0.0
    if pval <= 0.0:
        return math.inf
    return -statistics.NormalDist().inv_cdf(pval / 2.0)


def mean_z(values: np.ndarray, expected: float) -> float:
    se = float(np.std(values, ddof=1)) / math.sqrt(len(values))
    diff = float(np.mean(values)) - expected
    if se == 0.0:
        return 0.0 if abs(diff) <= 1e-12 * max(1.0, abs(expected)) else math.inf
    return abs(diff) / se


# ---------------------------------------------------------------------------
# mc-lattice / mc-atoms
# ---------------------------------------------------------------------------


@dataclass
class McInputs:
    model: object
    alpha: float
    depth: int
    replicates: int
    master_seed: int
    threads: int
    grid: object
    points: np.ndarray


class MonteCarlo:
    """Sample the martingale limit, build the Weibull mixture, check it."""

    units_name = "tree vertices"

    SIZES = {"full": (10, 2048), "tiny": (4, 96)}

    def __init__(self, name: str, doc: dict, threads: int, lattice: bool):
        self.name = name
        self.doc = doc
        self.threads = threads
        self.lattice = lattice

    def setup(self, seed: int, size: str, workdir: Path) -> McInputs:
        model = build_model(self.doc)
        alpha = bf.characteristic_exponent(model).alpha
        depth, reps = self.SIZES[size]
        if self.lattice:
            grid = bf.LatticeSpec(math.e, (1.0,), -25, 15)
        else:
            grid = bf.log_grid()
        points = np.exp(np.arange(-10, 11, dtype=np.float64))
        return McInputs(model, alpha, depth, reps,
                        derived_seed(seed, self.name), self.threads, grid, points)

    def job(self, inp: McInputs):
        phi = bf.sample_W_limit(inp.model, inp.alpha, inp.depth, inp.replicates,
                                inp.master_seed, threads=inp.threads)
        curve = bf.build_weibull_mixture(phi, 1.0, inp.alpha, inp.grid)
        report = bf.mixture_residual_report(phi, 1.0, inp.alpha, inp.model, inp.points)
        regularity = bf.regularity_diagnostic(curve, inp.alpha)
        return phi, curve, report, regularity

    def reference(self, inp: McInputs) -> dict:
        """Full per-generation traces, tested once against exact oracles."""
        tr = bf.replicate_traces(inp.model, inp.alpha, inp.depth, inp.replicates,
                                 inp.master_seed, threads=inp.threads)
        mean, second = martingale_moments(self.doc, inp.alpha, inp.depth)
        z = {
            "mean_W": max(mean_z(tr.W[:, n], mean[n]) for n in range(1, inp.depth + 1)),
            "second_moment_W": max(mean_z(tr.W[:, n] ** 2, second[n])
                                   for n in range(1, inp.depth + 1)),
        }
        if self.lattice:
            surv = top_weight_survival(self.doc, inp.depth)
            z["top_weight_one"] = max(
                binomial_z(int(np.count_nonzero(tr.R_sup[:, n] == 1.0)), inp.replicates, surv[n])
                for n in range(1, inp.depth + 1))
        return {"W": tr.W, "z": z, "digest": _digest([tr.W, tr.R_sup])}

    def check(self, inp: McInputs, ref: dict, out) -> Check:
        phi, curve, report, regularity = out
        problems = []
        if not np.array_equal(phi.samples, ref["W"][:, inp.depth]):
            problems.append("W samples differ from the reference traces")
        for label, z in ref["z"].items():
            if not z <= Z_BAND:
                problems.append(f"{label}: |z| = {z:.3g} beyond {Z_BAND}")
        if not (np.all(np.isfinite(report.residuals)) and np.all(np.isfinite(report.se))):
            problems.append("mixture residuals are not finite")
        if regularity.classification not in ("elementary-candidate", "regular"):
            problems.append(f"regularity classified {regularity.classification!r}")
        stats = dict(ref["z"], mixture_residual=report.max_abs_z)
        digest = _digest([phi.samples, curve.values, report.residuals, report.se,
                          regularity.classification, ref["digest"]])
        units = tree_vertices(inp.model, inp.depth, inp.replicates)
        return Check(not problems, problems, units, digest, stats)


# ---------------------------------------------------------------------------
# exact
# ---------------------------------------------------------------------------


@dataclass
class ExactInputs:
    solve: object            # CascadeParams, supercritical
    extend: object           # CascadeParams, critical
    scale: float
    depth: int
    seed_function: object
    n_range: tuple
    between: float           # where between a_1 and a_2 (log scale) to start escaping


class Exact:
    """Explicit step solutions and seeded extensions of the cascade, checked exactly."""

    name = "exact"
    threads = 1
    units_name = "operator grid points imaged"
    SIZES = {"full": (8, 30, 20), "tiny": (4, 8, 4)}   # (N, depth, |n| range)

    def setup(self, seed: int, size: str, workdir: Path) -> ExactInputs:
        n, depth, span = self.SIZES[size]
        rng = np.random.default_rng(derived_seed(seed, self.name))
        solve = cascade.CascadeParams(n, 0.5)
        extend = cascade.CascadeParams(n, 1.0 - 1.0 / n)
        v_e = float(rng.uniform(0.2, 0.8))
        v_s = v_e + float(rng.uniform(0.0, 1.0)) * (cascade.g_eval(extend, v_e) - v_e)
        s = math.exp(float(rng.uniform(0.1, 0.9)))
        seed_function = cascade.SeedFunction(np.array([s, math.e]), np.array([v_s, v_e]))
        return ExactInputs(solve, extend, math.exp(float(rng.uniform(0.0, 1.0))), depth,
                           seed_function, (-span, span), float(rng.uniform(0.1, 0.9)))

    def reference(self, inp: ExactInputs):
        return None

    def job(self, inp: ExactInputs):
        sol = cascade.explicit_solution(inp.solve, scale=inp.scale, depth=inp.depth)
        op1 = bf.fixed_point_residual(sol.curve, inp.solve.model())
        steps1 = cascade.step_identity_residual(sol)
        a1, a2 = float(sol.a[1]), float(sol.a[2])
        at_threshold = cascade.escape_check(inp.solve, a1)
        between = cascade.escape_check(
            inp.solve, math.exp((1.0 - inp.between) * math.log(a1) + inp.between * math.log(a2)))
        ext = cascade.extend_from_seed(inp.extend, inp.seed_function, *inp.n_range)
        op2 = bf.fixed_point_residual(ext, inp.extend.model())
        steps2 = cascade.curve_step_residuals(inp.extend, ext)
        return sol, op1, steps1, at_threshold, between, ext, op2, steps2

    def check(self, inp: ExactInputs, ref, out) -> Check:
        sol, op1, steps1, at_threshold, between, ext, op2, steps2 = out
        problems = []
        for label, value in (("solution step identity", steps1.max_residual),
                             ("solution operator sup-norm", op1.sup_norm),
                             ("extension operator sup-norm", op2.sup_norm),
                             ("extension step identity", steps2.max_residual)):
            if not value <= RESIDUAL_TOL:
                problems.append(f"{label} {value!r} above {RESIDUAL_TOL}")
        chain = sol.a_exact
        if not all(b < a for a, b in zip(chain, chain[1:])):
            problems.append("threshold chain is not strictly decreasing")
        if not (at_threshold.reached_one and not at_threshold.exceeded):
            problems.append("start at a_1 did not walk up to 1")
        if not (between.exceeded and not between.reached_one):
            problems.append("start between a_2 and a_1 did not escape above 1")
        digest = _digest([sol.a, tuple(sol.exact_flags), op1.residuals, steps1.residuals,
                          at_threshold.trajectory, between.trajectory, ext.values,
                          op2.residuals, steps2.residuals])
        units = float(len(sol.curve.grid) + len(ext.grid))
        stats = {"solution_sup_norm": op1.sup_norm, "extension_sup_norm": op2.sup_norm}
        return Check(not problems, problems, units, digest, stats)


# ---------------------------------------------------------------------------
# cli-session
# ---------------------------------------------------------------------------


@dataclass
class CliInputs:
    runs: list           # [(command, config path, out prefix)]
    expected: dict       # command -> {"rows": {artifact: rows}, "seed": str, "sha": str}
    outdir: Path


# Commands that print a PASS/FAIL verdict line.
VERDICT_COMMANDS = {"wbp-simulate", "fixpoint-verify", "fixpoint-construct",
                    "cascade-solve", "cascade-extend", "renewal-check"}


class CliSession:
    """All nine CLI commands through ``branchfix.cli.main``, artifacts on disk."""

    name = "cli-session"
    threads = 1
    units_name = "CSV rows written"
    # (wbp-simulate replicates, wbp depth, small-mc replicates, small-mc depth)
    SIZES = {"full": (1500, 6, 500, 6), "tiny": (40, 3, 40, 3)}

    def setup(self, seed: int, size: str, workdir: Path) -> CliInputs:
        wbp_reps, wbp_depth, mc_reps, mc_depth = self.SIZES[size]
        rng = np.random.default_rng(derived_seed(seed, self.name))
        atoms_alpha = bf.characteristic_exponent(build_model(ATOMS_MODEL)).alpha
        lattice_alpha = bf.characteristic_exponent(build_model(LATTICE_MODEL)).alpha

        def mc(depth, reps):
            return {"depth": depth, "replicates": reps, "seed": int(rng.integers(0, 2**31))}

        lattice_grid = {"mode": "lattice-step", "r": math.e, "n_lo": -25, "n_hi": 15}
        deep_grid = {"mode": "interp-loglinear", "lo": 1e-6, "hi": 1e6, "points": 256}
        # fixpoint-construct gates on the sample-side mixture residual z,
        # which is not calibrated at finite depth (|z| reached 5.7 over 40
        # seeds at this size), so its limit is wide; the value is recorded.
        configs = {
            "weights-analyze": {"model": ATOMS_MODEL},
            "wbp-simulate": {"model": ATOMS_MODEL, "alpha": atoms_alpha,
                             "mc": mc(wbp_depth, wbp_reps), "options": {"z_max": Z_BAND}},
            "fixpoint-verify": {
                "model": {"kind": "deterministic", "weights": [0.5, 0.5]},
                "grid": {"mode": "dyadic", "points": 512, "per_octave": 4},
                "options": {"kind": "min", "curve": {
                    "form": "exponential", "rate": float(rng.uniform(0.5, 2.0))}}},
            "fixpoint-construct": {"model": LATTICE_MODEL, "alpha": lattice_alpha,
                                   "grid": lattice_grid, "mc": mc(mc_depth, mc_reps),
                                   "options": {"z_max": 50.0, "points": 12}},
            "cascade-solve": {"model": {"kind": "cascade", "N": 4, "theta": 0.5},
                              "options": {"depth": 12, "scale": float(rng.uniform(0.5, 2.0))}},
            "cascade-extend": {"model": {"kind": "cascade", "N": 2, "theta": 0.6},
                               "options": {"seed_value": float(rng.uniform(0.2, 0.8)),
                                           "n_lo": -10, "n_hi": 10}},
            "regularity": {"model": ATOMS_MODEL, "alpha": atoms_alpha, "grid": deep_grid,
                           "options": {"curve": {"form": "weibull", "alpha": atoms_alpha}}},
            "biggins": {"model": LATTICE_MODEL, "alpha": lattice_alpha},
            "renewal-check": {"model": LATTICE_MODEL, "alpha": lattice_alpha,
                              "mc": mc(mc_depth, mc_reps),
                              "options": {"interval": [0.0, 2.0], "z_max": Z_BAND}},
        }
        rows = {
            "weights-analyze": {"moments": 41},
            "wbp-simulate": {"traces": wbp_reps * (wbp_depth + 1)},
            "fixpoint-verify": {"curve": 512, "residuals": 512},
            "fixpoint-construct": {"curve": 41, "residuals": 12},
            "cascade-solve": {"thresholds": 13, "solution": 14},
            "cascade-extend": {"extension": 21},
            "regularity": {"regularity": 1, "curve": 256},
            # cascade(2, 3/4): increments B in {0, 1}; W_1 takes N + 1 values
            "biggins": {"increments": 2, "generation-one": 3},
            "renewal-check": {"renewal": 1},
        }
        cfgdir = workdir / "configs"
        outdir = workdir / "out"
        cfgdir.mkdir(parents=True, exist_ok=True)
        outdir.mkdir(parents=True, exist_ok=True)
        runs, expected = [], {}
        for command, doc in configs.items():
            path = cfgdir / f"{command}.json"
            path.write_text(json.dumps(doc), encoding="utf-8")
            runs.append((command, str(path), str(outdir / command)))
            canon = json.dumps(doc, sort_keys=True, separators=(",", ":"))
            expected[command] = {
                "rows": rows[command],
                "seed": str(doc["mc"]["seed"]) if "mc" in doc else "none",
                "sha": hashlib.sha256(canon.encode("utf-8")).hexdigest(),
            }
        return CliInputs(runs, expected, outdir)

    def reference(self, inp: CliInputs):
        return None

    def job(self, inp: CliInputs):
        results = []
        for command, config, prefix in inp.runs:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(["--config", config, "--command", command, "--out", prefix])
            results.append((command, code, buf.getvalue()))
        return results

    def check(self, inp: CliInputs, ref, out) -> Check:
        problems = []
        parts = []
        total_rows = total_bytes = 0
        stats = {}
        for command, code, text in out:
            if code != 0:
                problems.append(f"{command}: exit {code}")
            verdicts = [ln for ln in text.splitlines() if " check: " in ln]
            if command in VERDICT_COMMANDS and not verdicts:
                problems.append(f"{command}: no verdict line")
            problems += [f"{command}: {ln}" for ln in verdicts if " check: PASS" not in ln]
            for ln in text.splitlines():
                if "max |z| = " in ln:
                    stats[command] = float(ln.split("max |z| = ")[1].split()[0].rstrip(","))
            exp = inp.expected[command]
            for artifact, want in exp["rows"].items():
                path = Path(f"{inp.outdir / command}-{artifact}.csv")
                data = path.read_bytes()
                lines = data.decode("utf-8").splitlines()
                trailer = [f"# config_sha256: {exp['sha']}", f"# seed: {exp['seed']}"]
                if lines[-2:] != trailer:
                    problems.append(f"{path.name}: trailer {lines[-2:]!r}")
                got = len(lines) - 3
                if got != want:
                    problems.append(f"{path.name}: {got} rows, expected {want}")
                total_rows += got
                total_bytes += len(data)
                parts += [path.name, data]
        extra = {"csv_rows": float(total_rows), "csv_bytes": float(total_bytes)}
        return Check(not problems, problems, float(total_rows), _digest(parts), stats, extra)


WORKLOADS = {
    "mc-lattice": MonteCarlo("mc-lattice", LATTICE_MODEL, threads=1, lattice=True),
    "mc-atoms": MonteCarlo("mc-atoms", ATOMS_MODEL, threads=2, lattice=False),
    "exact": Exact(),
    "cli-session": CliSession(),
}
