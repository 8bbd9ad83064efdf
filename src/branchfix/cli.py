"""Command-line front end: config ingestion, dispatch, CSV/report emission.

The config document is JSON (file path via ``--config``).  Top-level keys:
``model`` (required; ``cascade``, ``atoms`` or ``deterministic``), ``alpha``
(a number, or ``"auto"`` to solve ``m(alpha) = 1``), ``grid``, ``mc``,
``out`` (artifact path prefix; ``--out`` overrides) and ``options``.

Every section is read by :func:`_read` from a table of ``key: (default,
type, bound)``, the one place each default is written: ``_TOP``,
``_MODELS`` per model kind, ``_GRIDS`` per grid mode, ``_MC``, each
command's options in ``_RUNNERS``, ``_CURVES`` per curve form and
``_MODULATION``.  A tagged section (``model.kind``, ``grid.mode``,
``options.curve.form``) names its table, and :func:`_tagged` reads it.  A
count is a JSON integer ``>= bound``, a number a JSON number ``> bound``, a
list a flat list of JSON numbers; anything else, and any unknown key, is a
usage error naming its path.  A config section reports every problem; a command's settings
report a section's problems together.  Exit codes: 0 on success, 1 on
usage/config errors (a tree past ``mc.node_cap`` included), 2 when a
verification quantity (residual, z-score) lands beyond its tolerance.
Artifacts are byte-identical for identical configs regardless of
``--threads``.

CSV conventions: comma separator, one header row, cells as
:func:`format_column` writes them, and a trailing comment block recording
the sha256 of the effective config and the master seed.
"""

from __future__ import annotations

import argparse
import copy
import functools
import hashlib
import json
import math
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional

import numpy as np

from . import cascade as casc
from .branching import (
    EmpiricalLaplace,
    NodeCapError,
    _mean_one_defect,
    biggins_check,
    increment_distribution,
    renewal_measure_check,
    replicate_traces,
    sample_W_limit,
)
from .curves import (
    CurveShapeError,
    LaplaceCurve,
    LatticeSpec,
    OffLatticeError,
    PeriodicModulation,
    SurvivalCurve,
    constant_modulation,
    dyadic_grid,
    log_grid,
)
from .fixpoint import (
    GridDepthError,
    _mixture_arguments,
    build_stable_mixture,
    build_weibull_mixture,
    fixed_point_residual,
    mixture_residual_report,
    regularity_diagnostic,
)
from .weights import (
    BernoulliCascade,
    Deterministic,
    FiniteAtoms,
    ModelError,
    characteristic_exponent,
    check_assumptions,
    detect_lattice,
    moment_m,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY = 2


class ConfigError(ValueError):
    """Config validation failure carrying one message per offending key path."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


@dataclass
class RunConfig:
    """Validated run configuration; ``raw`` preserves the input losslessly."""

    raw: dict
    model: object
    alpha: Optional[float]
    grid: object  # np.ndarray, LatticeSpec, or None
    mc: Optional[dict]  # the samplers' keyword arguments
    out: Optional[str]
    options: dict


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------


def _is_number(x) -> bool:  # a JSON number that float() can take
    return isinstance(x, float) or (_is_int(x) and abs(x) <= sys.float_info.max)


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_number_list(value, path: str, errors) -> bool:
    """Whether ``value`` is a list whose entries, at any depth, are lists or
    numbers.  Records an error for a value that is no list and for each
    entry that is neither (booleans and numeric strings included)."""
    if not isinstance(value, (list, tuple)):
        errors.append(f"{path}: must be a list")
        return False
    before = len(errors)
    for i, x in enumerate(value):
        if isinstance(x, (list, tuple)):
            _is_number_list(x, f"{path}[{i}]", errors)
        elif not _is_number(x):
            errors.append(f"{path}[{i}]: must be a number")
    return len(errors) == before


REQUIRED = object()  # a table default: the key must be given
_ANY = (None, None, None)  # an optional value checked by the code that reads it


def _typed(value, kind, bound, path: str, errors):
    """``value`` as ``kind``, or an error for ``path``: ``int`` is a JSON
    integer ``>= bound``, ``float`` a JSON number ``> bound`` (no bound when
    ``bound`` is None), ``list`` a flat list of JSON numbers, read as floats."""
    if kind is list:
        if not isinstance(value, (list, tuple)):
            errors.append(f"{path}: must be a list of numbers")
            return None
        bad = [f"{path}[{i}]: must be a number" for i, x in enumerate(value)
               if not _is_number(x)]
        errors.extend(bad)
        return None if bad else [float(x) for x in value]
    if kind is int:
        ok = _is_int(value) and (bound is None or value >= bound)
        need, op = "an integer", ">="
    else:
        ok = _is_number(value) and (bound is None or value > bound)
        need, op = "a number", ">"
    if ok:
        return kind(value)
    errors.append(f"{path}: must be {need}" + ("" if bound is None else f" {op} {bound}"))
    return None


def _read(doc, table: dict, path: str, errors, scope=None) -> Optional[dict]:
    """Read the section ``doc`` at ``path`` by ``table``, ``{key: (default,
    type, bound)}``: every key of the table, each absent one at its default.

    ``type`` is ``int``, ``float`` or ``list`` (see :func:`_typed`), or None
    for a value its reader checks.  A ``REQUIRED`` default makes the key
    required.  Each problem is appended to ``errors`` and makes the result
    None.  Unknown keys are one error each (``<path>.<key>: unknown key``),
    or, with a ``scope`` string, one naming them all (``<path>: unknown
    keys<scope>: a, b``).  The top level is the section at path ``""``.
    """
    if not isinstance(doc, dict):
        errors.append(f"{path}: must be an object")
        return None
    before, at = len(errors), f"{path}." if path else ""
    unknown = [key for key in doc if key not in table]
    if scope is None:
        errors.extend(f"{at}{key}: unknown key" for key in unknown)
    elif unknown:
        errors.append(f"{path}: unknown keys{scope}: {', '.join(sorted(unknown))}")
    values = {}
    for key, (default, kind, bound) in table.items():
        if key not in doc:
            if default is REQUIRED:
                errors.append(f"{at}{key}: missing required key")
            values[key] = default
        elif kind is None:
            values[key] = doc[key]
        else:
            values[key] = _typed(doc[key], kind, bound, f"{at}{key}", errors)
    return values if len(errors) == before else None


def _tagged(doc, tables: dict, path: str, tag: str, errors) -> Optional[dict]:
    """:func:`_read` for a section whose ``tag`` key names its table in
    ``tables``: the section must be an object and the tag one of the
    tables' names."""
    if not isinstance(doc, dict):
        errors.append(f"{path}: must be an object")
        return None
    name = doc.get(tag)
    if not isinstance(name, str) or name not in tables:
        errors.append(f"{path}.{tag}: must be one of {', '.join(map(repr, tables))}")
        return None
    return _read(doc, tables[name], path, errors)


def _checked(doc, table: dict, path: str, scope: str = "") -> dict:
    """:func:`_read` for a setting read by a command: every problem of the
    section in one usage error, joined with ``"; "``."""
    errors = []
    values = _read(doc, table, path, errors, scope)
    _require(not errors, "; ".join(errors))
    return values


_KIND = {"kind": (REQUIRED, None, None)}
# model kind -> its table; the model's own rules check the values
_MODELS = {
    "cascade": {**_KIND, "N": (REQUIRED, None, None), "theta": (REQUIRED, None, None)},
    "atoms": {**_KIND, "atoms": (REQUIRED, None, None)},
    "deterministic": {**_KIND, "weights": (REQUIRED, None, None)},
}


def _parse_model(doc, errors):
    m = _tagged(doc, _MODELS, "model", "kind", errors)
    if m is None:
        return None
    if m["kind"] == "cascade":  # both values are checked, and both reported
        n, theta, before = m["N"], m["theta"], len(errors)
        if not (_is_int(n) and n >= 2):
            errors.append("model.N: must be an integer >= 2")
        if not (_is_number(theta) and 0.0 < theta < 1.0):
            errors.append("model.theta: theta must lie in (0,1)")
        return BernoulliCascade(n, float(theta)) if len(errors) == before else None
    key, cls = ("atoms", FiniteAtoms) if m["kind"] == "atoms" else ("weights", Deterministic)
    if not _is_number_list(m[key], f"model.{key}", errors):
        return None
    try:
        return cls(m[key])
    except (ModelError, TypeError, ValueError) as exc:
        errors.append(f"model.{key}: {exc}")
        return None


_MODE = {"mode": (REQUIRED, None, None)}
_GRID_POINTS = (512, int, 2)
# grid mode -> its table
_GRIDS = {
    "interp-loglinear": {**_MODE, "lo": (1e-6, None, None), "hi": (1e6, None, None),
                         "points": _GRID_POINTS},
    "dyadic": {**_MODE, "points": _GRID_POINTS, "per_octave": (12, int, 1)},
    "lattice-step": {**_MODE, "r": (math.e, float, 1), "residues": ((1.0,), list, None),
                     "n_lo": (-40, None, None), "n_hi": (40, None, None)},
}


def _parse_grid(doc, errors):
    g = _tagged(doc, _GRIDS, "grid", "mode", errors)
    if g is None:
        return None
    mode = g["mode"]
    if mode == "dyadic":
        return dyadic_grid(g["points"], g["per_octave"])
    if mode == "interp-loglinear":
        lo, hi = g["lo"], g["hi"]
        if _is_number(lo) and _is_number(hi) and 0.0 < lo < hi:
            return log_grid(float(lo), float(hi), g["points"])
        errors.append("grid.lo: need numbers 0 < lo < hi")
        return None
    n_lo, n_hi = g["n_lo"], g["n_hi"]
    if not (_is_int(n_lo) and _is_int(n_hi) and n_lo < n_hi):
        errors.append("grid.n_lo: need integers n_lo < n_hi")
        return None
    try:
        return LatticeSpec(g["r"], tuple(g["residues"]), n_lo, n_hi)
    except (TypeError, ValueError) as exc:
        errors.append(f"grid.residues: {exc}")
        return None


_MC = {"depth": (REQUIRED, int, 0), "replicates": (REQUIRED, int, 1),
       "seed": (REQUIRED, int, 0), "node_cap": (10**7, int, 1)}
_TOP = {"model": (REQUIRED, None, None), "alpha": _ANY, "grid": _ANY, "mc": _ANY,
        "out": _ANY, "options": _ANY}


def parse_config(document) -> RunConfig:
    """Validate a config document (dict or JSON text) into a RunConfig.

    Raises :class:`ConfigError` carrying every problem found, each tagged
    with the key path it concerns.
    """
    if isinstance(document, (str, bytes)):
        try:
            doc = json.loads(document)
        except json.JSONDecodeError as exc:
            raise ConfigError([f"<config>: invalid JSON: {exc}"]) from exc
    else:
        doc = document
    if not isinstance(doc, dict):
        raise ConfigError(["<config>: top level must be an object"])

    errors = []
    _read(doc, _TOP, "", errors)  # unknown keys and a missing model; each section reads its own
    model = _parse_model(doc["model"], errors) if "model" in doc else None

    alpha = None
    if "alpha" in doc:
        spec = doc["alpha"]
        if spec == "auto":
            if model is not None:
                res = characteristic_exponent(model)
                if res.alpha is None:
                    errors.append(
                        f"alpha: model admits no characteristic exponent ({res.reason})"
                    )
                else:
                    alpha = res.alpha
        elif _is_number(spec) and spec > 0.0:
            alpha = float(spec)
        else:
            errors.append("alpha: must be a positive number or \"auto\"")

    grid = _parse_grid(doc["grid"], errors) if "grid" in doc else None
    mc = _read(doc["mc"], _MC, "mc", errors) if "mc" in doc else None

    out = doc.get("out")
    if out is not None and not isinstance(out, str):
        errors.append("out: must be a string path prefix")
        out = None

    options = doc.get("options", {})
    if not isinstance(options, dict):
        errors.append("options: must be an object")
        options = {}

    if errors:
        raise ConfigError(errors)
    return RunConfig(copy.deepcopy(doc), model, alpha, grid, mc, out, options)


# ---------------------------------------------------------------------------
# CSV / report helpers
# ---------------------------------------------------------------------------


def format_column(column) -> list:
    """CSV cells of one column: an ndarray, a ``range`` or a list.

    The one set of cell rules (README "Artifacts"): strings as they are,
    booleans ``True``/``False``, integers plain and floats as
    :func:`_float_cell` writes them.  An integer, boolean or float array
    formats each distinct value once (:func:`_array_cells`); other columns
    go cell by cell through :func:`format_number`.
    """
    if isinstance(column, range):
        return list(map(str, column))
    if isinstance(column, np.ndarray) and column.dtype.kind in "biu":
        return _array_cells(column, str)
    if isinstance(column, np.ndarray) and column.dtype.kind == "f":
        return _array_cells(column.astype(np.float64, copy=False), _float_cell)
    return list(map(format_number, column.tolist() if isinstance(column, np.ndarray) else column))


def _array_cells(values: np.ndarray, cell) -> list:
    """``cell`` of each entry of ``values``, each distinct value formatted once.

    ``cell`` runs on each value of ``np.unique``, and the cells are gathered
    back by its inverse index.  ``np.unique`` merges both zeros (each is
    ``0.0``) and every NaN (each is ``nan``), so the cells are those of a
    per-value pass.  A column without repeats is formatted in row order,
    which skips the gather.
    """
    uniq, inverse = np.unique(values, return_inverse=True)
    if len(uniq) == len(values):
        return list(map(cell, values.tolist()))
    cells = list(map(cell, uniq.tolist()))
    return list(map(cells.__getitem__, inverse.tolist()))


def _float_cell(x: float) -> str:
    """``repr(x)``, except ``0.0`` for both zeros and, for ``0 < |x| < 1e-4``
    (which ``repr`` writes in scientific form), a point after an integral
    mantissa: ``1e-05`` is ``1.e-05``."""
    if x == 0.0:
        return "0.0"
    text = repr(x)
    if -1e-4 < x < 1e-4 and "." not in text:
        return text.replace("e", ".e")
    return text


def format_number(x) -> str:
    """One CSV cell: a string, bool, integer or float by :func:`format_column`'s rules."""
    if isinstance(x, str):
        return x
    if isinstance(x, (bool, np.bool_)):
        return str(bool(x))
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return _float_cell(float(x))


def config_digest(config: RunConfig) -> str:
    """sha256 of the effective config in canonical JSON form."""
    canon = json.dumps(config.raw, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


# Rows per CSV write: a few thousand rows amortize the per-chunk work and
# keep the formatted text of a chunk, not of the file, in memory.
_CSV_CHUNK_ROWS = 4096


class _Emitter:
    """Collects report lines and writes CSV artifacts with metadata.

    Every artifact is written through :meth:`_create`, which replaces an
    existing file at its path instead of truncating it (README "Artifacts").
    """

    def __init__(self, config: RunConfig, out_prefix: str):
        self.prefix = out_prefix
        self.digest = config_digest(config)
        self.seed = str(config.mc["seed"]) if config.mc is not None else "none"
        self.lines = []

    def say(self, line: str = "") -> None:
        self.lines.append(line)

    def verdict(self, label: str, ok: bool, detail: str) -> int:
        """Report a ``PASS``/``FAIL`` line and return the matching exit status."""
        self.say(f"{label} check: {'PASS' if ok else 'FAIL'} ({detail})")
        return EXIT_OK if ok else EXIT_VERIFY

    def _create(self, suffix: str):
        """A new file ``<prefix>-<suffix>`` open for writing text.

        A file already at the path is unlinked, then the path is created.
        Truncating a file in place and writing it again costs several times
        more on ext4, which flushes a file truncated and rewritten.  A
        symlink at the path is replaced, not followed, and a hard link is
        broken.
        """
        path = Path(f"{self.prefix}-{suffix}")
        if path.parent != Path("."):
            path.parent.mkdir(parents=True, exist_ok=True)
        path.unlink(missing_ok=True)
        return path.open("x", encoding="utf-8")

    def csv(self, name: str, columns: dict) -> None:
        """Write ``{header: column}`` as rows; a column is an ndarray, range or list.

        Every column must have the same length.  Rows are formatted and
        written ``_CSV_CHUNK_ROWS`` at a time, so only one chunk's cells are
        held as text.
        """
        lengths = [len(c) for c in columns.values()]
        if len(set(lengths)) > 1:
            sizes = ", ".join(f"{h}: {k}" for h, k in zip(columns, lengths))
            raise ValueError(f"{self.prefix}-{name}.csv: columns differ in length ({sizes})")
        rows = lengths[0] if lengths else 0
        with self._create(f"{name}.csv") as f:
            f.write(",".join(columns) + "\n")
            for start in range(0, rows, _CSV_CHUNK_ROWS):
                stop = min(start + _CSV_CHUNK_ROWS, rows)
                cells = [format_column(c[start:stop]) for c in columns.values()]
                f.write("\n".join(map(",".join, zip(*cells))) + "\n")
            f.write(f"# config_sha256: {self.digest}\n# seed: {self.seed}\n")
        self.say(f"wrote {f.name}")

    def finish(self) -> str:
        self.say(f"config sha256: {self.digest}")
        self.say(f"seed: {self.seed}")
        text = "\n".join(self.lines) + "\n"
        with self._create("report.txt") as f:
            f.write(text)
        return text


def _describe_model(model) -> str:
    if isinstance(model, BernoulliCascade):
        return f"cascade(N={model.N}, theta={format_number(model.theta)})"
    if isinstance(model, Deterministic):
        return "deterministic(" + ", ".join(format_number(w) for w in model.weights) + ")"
    return f"atoms({len(model.atoms)} atoms)"


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ValueError(message)


_MODULATION = {"period": (math.e, float, 1), "residues": ((1.0,), list, None),
               "values": ((1.0,), list, None)}


def _parse_modulation(spec) -> PeriodicModulation:
    if spec is None or _is_number(spec):
        return constant_modulation(1.0 if spec is None else float(spec))
    _require(isinstance(spec, dict), "modulation: must be a number or an object")
    m = _checked(spec, _MODULATION, "modulation")
    return PeriodicModulation(m["period"], m["residues"], m["values"])


# ---------------------------------------------------------------------------
# curve construction shared by verify (and so construct) and regularity
# ---------------------------------------------------------------------------


@dataclass
class _BuiltCurve:
    curve: object
    phi: Optional[EmpiricalLaplace]
    modulation: Optional[PeriodicModulation]
    alpha: Optional[float]
    kind: str  # the operator the curve is a fixed point of: "min" or "sum"


_FORM = {"form": (REQUIRED, None, None)}
_MODULATED = {**_FORM, "modulation": _ANY}
# curve form -> its table
_CURVES = {
    "exponential": {**_FORM, "rate": (1.0, float, 0)},
    "weibull": {**_MODULATED, "alpha": (REQUIRED, float, 0)},
    "weibull-mixture": _MODULATED,
    "stable-mixture": _MODULATED,
}
# mixture form -> the operator its curve class belongs to
_MIXTURE_KIND = {"weibull-mixture": "min", "stable-mixture": "sum"}


def _build_curve(config: RunConfig, em: _Emitter, spec, kind, threads: int) -> _BuiltCurve:
    """The curve ``options.curve`` describes.  A mixture form fixes the
    operator, and an explicit ``kind`` must agree with it; a closed form
    takes ``kind``, min when it is None.  A mixture's report lines (its
    sample's warnings and depth-halving diagnostics) are said here."""
    _require(kind in (None, "min", "sum"), "options.kind: must be 'min' or 'sum'")
    errors = []
    c = _tagged(spec, _CURVES, "options.curve", "form", errors)
    _require(not errors, "; ".join(errors))
    form = c["form"]
    if form in _MIXTURE_KIND:
        fixed = _MIXTURE_KIND[form]
        _require(kind in (None, fixed),
                 f"options.kind: {kind!r} contradicts options.curve.form {form!r}, "
                 f"a {fixed}-operator curve")
        _require(config.alpha is not None, f"{form} curves need the alpha key")
        _require(config.mc is not None, f"{form} curves need the mc section")
        _require(config.grid is not None, f"{form} curves need a grid section")
        h = _parse_modulation(c["modulation"])
        phi = sample_W_limit(config.model, config.alpha, **config.mc, threads=threads)
        build = build_weibull_mixture if fixed == "min" else build_stable_mixture
        curve = build(phi, h, config.alpha, config.grid)
        em.say(f"constructed: {form} at alpha = {format_number(config.alpha)}")
        for w in phi.warnings:
            em.say(f"warning: {w}")
        diag = phi.diagnostics
        em.say(
            f"sample diagnostics: mean W = {format_number(diag['mean_depth'])} "
            f"(se {format_number(diag['se_depth'])}) at depth {diag['depth']}, "
            f"mean W = {format_number(diag['mean_half_depth'])} "
            f"(se {format_number(diag['se_half_depth'])}) at depth {diag['half_depth']}"
        )
        return _BuiltCurve(curve, phi, h, config.alpha, fixed)
    # Closed forms exp(-args): args = rate t, or h(t) t^alpha.  An exponential
    # curve carries no alpha, so `regularity` still needs the alpha key.
    if form == "exponential":
        h = a = None
    else:
        a, h = c["alpha"], _parse_modulation(c["modulation"])
    grid = config.grid
    _require(
        isinstance(grid, np.ndarray),
        f"{'closed-form ' if form == 'weibull' else ''}{form} curves need an "
        "interpolated grid section",
    )
    args = c["rate"] * grid if h is None else _mixture_arguments(h, a, grid)
    kind = kind or "min"
    cls = LaplaceCurve if kind == "sum" else SurvivalCurve
    return _BuiltCurve(cls(grid, np.exp(-args), tail=-np.expm1(-args)), None, h, a, kind)


def _curve_csv(em: _Emitter, curve) -> None:
    em.csv("curve", {"t": curve.grid, "value": curve.values, "tail": curve.tail})


# ---------------------------------------------------------------------------
# command runners
# ---------------------------------------------------------------------------
# `run_command` checks each runner's options and config parts against `_RUNNERS`
# and says the command and model lines before the runner's own.


def _run_weights_analyze(config: RunConfig, em: _Emitter, threads: int) -> int:
    model = config.model
    res = characteristic_exponent(model)
    if res.alpha is not None:
        em.say(f"characteristic exponent: {format_number(res.alpha)}")
    elif isinstance(model, BernoulliCascade):
        regime = casc.classify(_cascade_params(config))
        em.say(f"no characteristic exponent; {regime} regime")
    else:
        em.say(f"no characteristic exponent; {res.reason}")
    lat = detect_lattice(model)
    if lat.kind == "geometric":
        em.say(f"weight lattice: geometric with ratio {format_number(lat.r)}")
    else:
        em.say(f"weight lattice: {lat.kind}")
    rep = check_assumptions(model)
    em.say(
        "assumptions: "
        f"branching={rep.a1} subunit-weights={rep.a2} "
        f"supercritical-counts={rep.a3} nondegenerate-weights={rep.a4}"
    )
    if rep.degenerate_sup_one:
        em.say("largest weight is 1 almost surely (degenerate family)")
    if rep.sup_ge_one:
        em.say("largest weight >= 1 a.s. and > 1 with positive probability: "
               "no fixed points in this regime")
    alpha_col = res.alpha if res.alpha is not None else 1.0
    betas = np.linspace(0.0, 2.0 * alpha_col if alpha_col > 0 else 2.0, 41)
    em.csv("moments", {"beta": betas, "m": [moment_m(model, float(b)) for b in betas]})
    return EXIT_OK


def _run_wbp_simulate(config: RunConfig, em: _Emitter, threads: int) -> int:
    z_max, mc = config.options["z_max"], config.mc
    traces = replicate_traces(config.model, config.alpha, **mc, threads=threads)
    em.say(f"alpha: {format_number(config.alpha)}")
    em.say(f"replicates: {mc['replicates']}, depth: {mc['depth']}")
    replicate, n = np.divmod(np.arange(traces.W.size), mc["depth"] + 1)
    em.csv("traces", {"replicate": replicate, "n": n,
                      "W_n_alpha": traces.W.ravel(), "R_n": traces.R_sup.ravel()})

    mean_one = _mean_one_defect(config.model, config.alpha) is None
    worst = 0.0
    for n in range(1, mc["depth"] + 1):
        col = traces.W[:, n]
        mean = float(np.mean(col))
        se = float(np.std(col, ddof=1) / math.sqrt(len(col))) if len(col) > 1 else 0.0
        z = abs(mean - 1.0) / se if se > 0.0 else (0.0 if mean == 1.0 else math.inf)
        worst = max(worst, z)
        em.say(
            f"generation {n}: mean W = {format_number(mean)} "
            f"(se {format_number(se)}, z {format_number(z)})"
        )
    if mean_one:
        return em.verdict(
            "martingale mean", worst <= z_max,
            f"max |z| = {format_number(worst)}, limit {format_number(z_max)}",
        )
    em.say("martingale mean check: skipped (m(alpha) is not 1; no mean-one normalization)")
    return EXIT_OK


def _run_fixpoint_verify(config: RunConfig, em: _Emitter, threads: int) -> int:
    opts = config.options
    _require(opts["curve"] is not None, "fixpoint-verify requires options.curve")
    built = _build_curve(config, em, opts["curve"], opts["kind"], threads)
    kind, grid = built.kind, built.curve.grid
    em.say(f"operator: {kind}")
    _curve_csv(em, built.curve)

    if built.phi is not None:
        # sample-side residuals at `points` grid points over the middle half
        lo = len(grid) // 4
        hi = max(lo + 1, (3 * len(grid)) // 4)
        count, z_max = opts["points"], opts["z_max"]
        idx = np.unique(np.linspace(lo, hi - 1, count).round().astype(int))
        if len(idx) < count:
            em.say(f"note: {len(idx)} distinct grid points for options.points = {count}")
        rep = mixture_residual_report(built.phi, built.modulation, built.alpha, config.model,
                                      grid[idx])
        em.csv("residuals", {"t": rep.points, "residual": rep.residuals, "se": rep.se,
                             "z": rep.z})
        em.say(
            f"{kind}-operator residual (sample z-scores at {len(rep.points)} points): "
            f"max |z| = {format_number(rep.max_abs_z)}"
        )
        return em.verdict(f"{kind}-operator", rep.max_abs_z <= z_max,
                          f"limit {format_number(z_max)}")

    tol = opts["tol"]
    rep = fixed_point_residual(built.curve, config.model)
    em.csv("residuals", {"t": grid, "residual": rep.residuals, "clamped": rep.point_clamped})
    for w in rep.warnings:
        em.say(f"warning: {w}")
    _require(not math.isnan(rep.sup_norm), "every grid point needed clamped lookups; "
             "nothing was verified (widen the grid)")
    em.say(
        f"{kind}-operator residual: sup-norm {format_number(rep.sup_norm)} over "
        f"clean points (all points: {format_number(rep.sup_norm_all)}, "
        f"clamp fraction {format_number(rep.clamp_fraction)})"
    )
    return em.verdict(f"{kind}-operator", rep.sup_norm <= tol,
                      f"tolerance {format_number(tol)}")


def _run_fixpoint_construct(config: RunConfig, em: _Emitter, threads: int) -> int:
    """``fixpoint-verify`` on the mixture that ``options.kind`` names."""
    opts = config.options
    form = "stable-mixture" if opts["kind"] == "sum" else "weibull-mixture"
    curve = {"form": form, "modulation": opts["modulation"]}
    return _run_fixpoint_verify(replace(config, options={**opts, "curve": curve}), em, threads)


def _cascade_params(config: RunConfig) -> casc.CascadeParams:
    return casc.CascadeParams(config.model.N, config.model.theta)


def _run_cascade_solve(config: RunConfig, em: _Emitter, threads: int) -> int:
    opts = config.options
    params = _cascade_params(config)
    regime = casc.classify(params)
    _require(regime == casc.SUPERCRITICAL,
             f"cascade-solve needs the supercritical regime; got {regime} (theta vs 1 - 1/N)")
    depth, scale, below, tol = opts["depth"], opts["scale"], opts["below"], opts["tol"]
    sol = casc.explicit_solution(params, scale=scale, depth=depth, below=below)
    em.say(f"scale: {format_number(scale)}, cells n in [{-below}, {depth}]")
    em.csv("thresholds", {"n": range(depth + 1), "a_n": sol.a,
                          "exact_preimage": sol.exact_flags})
    cells = list(sol.cells())
    em.csv("solution", {
        "n": cells,
        "lower_t": [scale * math.e**n for n in cells],
        "upper_t": [scale * math.e ** (n + 1) for n in cells],
        "survival_value": sol.curve.values,
    })
    if sol.underflow_index is not None:
        em.say(
            f"float64 underflow from a_{sol.underflow_index} on "
            "(exact chain kept in extended precision)"
        )
    rep = casc.step_identity_residual(sol)
    em.say(
        f"step-identity residual: max = {format_number(rep.max_residual)}"
        + (" (exactly 0)" if rep.exact else "")
    )
    return em.verdict("step-identity", rep.max_residual <= tol,
                      f"tolerance {format_number(tol)}")


def _run_cascade_extend(config: RunConfig, em: _Emitter, threads: int) -> int:
    opts = config.options
    params = _cascade_params(config)
    grid, values, value = opts["seed_grid"], opts["seed_values"], opts["seed_value"]
    if value is not None:
        _require(grid is None and values is None,
                 "options.seed_value: give either seed_value or seed_grid/seed_values")
        seed = casc.SeedFunction(np.array([math.e]), np.array([value]))
    else:
        _require(grid is not None and values is not None,
                 "cascade-extend requires options.seed_value or options.seed_grid "
                 "plus options.seed_values")
        seed = casc.SeedFunction(grid, values)
    n_lo, n_hi, check_tol = opts["n_lo"], opts["n_hi"], opts["check_tol"]
    curve = casc.extend_from_seed(params, seed, n_lo=n_lo, n_hi=n_hi, tol=opts["tol"])
    em.say(f"seed points: {len(seed.grid)}, extension cells n in [{n_lo}, {n_hi}]")
    lat = curve.lattice
    n, residue = np.meshgrid(range(lat.n_lo, lat.n_hi + 1), lat.residues, indexing="ij")
    em.csv("extension", {"n": n.ravel(), "residue": residue.ravel(),
                         "t": curve.grid, "value": curve.values})
    rep = casc.curve_step_residuals(params, curve)
    em.say(f"step-identity residual: max = {format_number(rep.max_residual)}")
    return em.verdict("step-identity", rep.max_residual <= check_tol,
                      f"tolerance {format_number(check_tol)}")


def _run_regularity(config: RunConfig, em: _Emitter, threads: int) -> int:
    opts = config.options
    _require(opts["curve"] is not None, "regularity requires options.curve")
    built = _build_curve(config, em, opts["curve"], opts["kind"], threads)
    alpha = config.alpha if config.alpha is not None else built.alpha
    _require(alpha is not None, "regularity requires the alpha key (or a curve form carrying one)")
    rep = regularity_diagnostic(built.curve, alpha, window=opts["window"])
    em.say(f"alpha: {format_number(alpha)}, window points: {rep.window_points}")
    # a mixture sampled where W_n is no mean-one martingale is no fixed point
    defect = None if built.phi is None else _mean_one_defect(config.model, built.alpha)
    if defect is None:
        em.say(f"classification: {rep.classification}")
    else:
        em.say(f"not classified: {defect}; the mixture is not a fixed point")
    em.say(
        f"normalized tail range: [{format_number(rep.liminf_estimate)}, "
        f"{format_number(rep.limsup_estimate)}]"
    )
    for note in rep.notes:
        em.say(f"note: {note}")
    limits = sorted((rep.per_residue or {}).items(), key=lambda kv: (kv[0] is None, kv[0]))
    em.csv("regularity", {"residue": ["all" if k is None else k for k, _ in limits],
                          "stabilized_limit": [v for _, v in limits]})
    _curve_csv(em, built.curve)
    return EXIT_OK if defect is None else EXIT_VERIFY


def _run_biggins(config: RunConfig, em: _Emitter, threads: int) -> int:
    rep = biggins_check(config.model, config.alpha)
    inc = increment_distribution(config.model, config.alpha)
    em.say(f"alpha: {format_number(config.alpha)}")
    em.say(f"increment drift: {format_number(rep.drift)}")
    em.say(f"mean-one normalization integral: {format_number(rep.integral)}")
    em.say(f"mean-one limit verdict: {rep.verdict}")
    em.csv("increments", {"location": inc.locations, "mass": inc.masses})
    em.csv("generation-one", {"W_1_value": rep.w1_values, "probability": rep.w1_probs})
    return EXIT_OK


def _run_renewal_check(config: RunConfig, em: _Emitter, threads: int) -> int:
    opts = config.options
    _require(len(opts["interval"]) == 2, "renewal-check requires options.interval = [a, b]")
    z_max, mc = opts["z_max"], config.mc
    rep = renewal_measure_check(config.model, config.alpha, tuple(opts["interval"]),
                                **mc, threads=threads)
    em.say(
        f"interval: [{format_number(rep.interval[0])}, "
        f"{format_number(rep.interval[1])}], depth {mc['depth']}, "
        f"replicates {mc['replicates']}"
    )
    em.say(
        f"empirical mass: {format_number(rep.empirical_mean)} "
        f"(se {format_number(rep.empirical_se)})"
    )
    em.say(f"exact convolution mass: {format_number(rep.exact)}")
    em.say(f"z-score: {format_number(rep.z_score)}")
    em.csv("renewal", {
        "interval_lo": [rep.interval[0]], "interval_hi": [rep.interval[1]],
        "empirical_mean": [rep.empirical_mean], "empirical_se": [rep.empirical_se],
        "exact_value": [rep.exact], "z_score": [rep.z_score],
    })
    return em.verdict("renewal mass", abs(rep.z_score) <= z_max,
                      f"limit {format_number(z_max)}")


# Settings shared by several commands.  `kind` stays None unless given: a
# mixture curve form fixes the operator, and a closed form reads None as min.
_TOL = (1e-10, float, None)
_Z_MAX = (3.0, float, None)
_POINTS = (24, int, 1)

# A cascade command needs a cascade model, and its model line names the regime.
_CASCADE = "cascade model"

# command -> (runner, its options table, config parts it requires)
_RUNNERS = {
    "weights-analyze": (_run_weights_analyze, {}, ()),
    "wbp-simulate": (_run_wbp_simulate, {"z_max": (4.0, float, None)},
                     ("alpha key", "mc section")),
    "fixpoint-verify": (_run_fixpoint_verify, {
        "kind": _ANY, "curve": _ANY, "tol": _TOL, "z_max": _Z_MAX, "points": _POINTS}, ()),
    "fixpoint-construct": (_run_fixpoint_construct, {
        "kind": _ANY, "modulation": _ANY, "z_max": _Z_MAX, "points": _POINTS}, ()),
    "cascade-solve": (_run_cascade_solve, {
        "depth": (30, int, 0), "scale": (1.0, float, 0), "below": (1, int, 1),
        "tol": _TOL}, (_CASCADE,)),
    "cascade-extend": (_run_cascade_extend, {
        "seed_grid": (None, list, None), "seed_values": (None, list, None),
        "seed_value": (None, float, None), "n_lo": (-20, int, None),
        "n_hi": (20, int, None), "tol": (1e-13, float, None),
        "check_tol": _TOL}, (_CASCADE,)),
    "regularity": (_run_regularity, {
        "curve": _ANY, "window": (12, int, 1), "kind": _ANY}, ()),
    "biggins": (_run_biggins, {}, ("alpha key",)),
    "renewal-check": (_run_renewal_check, {"interval": (REQUIRED, list, None), "z_max": _Z_MAX},
                      ("alpha key", "mc section")),
}


def run_command(config: RunConfig, command: str, threads: int = 1,
                out: Optional[str] = None) -> int:
    """Run one command; writes artifacts and returns the exit status."""
    if command not in _RUNNERS:
        raise ValueError(f"unknown command {command!r}")
    runner, table, required = _RUNNERS[command]
    config = replace(config, options=_checked(config.options, table, "options",
                                               f" for {command}"))
    for part in required:  # "alpha key" is config.alpha, "mc section" is config.mc
        if part == _CASCADE:
            _require(isinstance(config.model, BernoulliCascade),
                     "this command needs model.kind = 'cascade'")
        else:
            _require(getattr(config, part.split()[0]) is not None,
                     f"{command} requires the {part}")
    em = _Emitter(config, out or config.out or command)
    em.say(f"command: {command}")
    regime = f" ({casc.classify(_cascade_params(config))})" if _CASCADE in required else ""
    em.say(f"model: {_describe_model(config.model)}{regime}")
    code = runner(config, em, threads)
    text = em.finish()
    sys.stdout.write(text)
    return code


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """:func:`main`'s parser, built on the first call; a parse leaves no state in it."""
    parser = argparse.ArgumentParser(
        prog="branchfix",
        description="Weighted-branching fixed-point toolkit command line",
    )
    parser.add_argument("--config", required=True, help="path to a JSON config file")
    parser.add_argument("--command", required=True, choices=list(_RUNNERS))
    parser.add_argument("--out", default=None, help="artifact path prefix")
    parser.add_argument("--seed", type=int, default=None,
                        help="override mc.seed from the config")
    parser.add_argument("--threads", type=int, default=1,
                        help="worker threads (never changes results)")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)

    if args.threads < 1:
        print("error: --threads must be >= 1", file=sys.stderr)
        return EXIT_USAGE
    try:
        text = Path(args.config).read_text(encoding="utf-8")
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        print(f"config error: invalid JSON: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.seed is not None:
        if not isinstance(doc, dict) or "mc" not in doc or not isinstance(doc["mc"], dict):
            print("error: --seed given but the config has no mc section",
                  file=sys.stderr)
            return EXIT_USAGE
        doc["mc"]["seed"] = args.seed
    try:
        config = parse_config(doc)
    except ConfigError as exc:
        print("config error(s):", file=sys.stderr)
        for line in exc.errors:
            print(f"  {line}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return run_command(config, args.command, threads=args.threads, out=args.out)
    except (ValueError, ModelError, CurveShapeError, OffLatticeError,
            GridDepthError, NodeCapError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
