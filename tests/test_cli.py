"""Config parsing, CSV/report emission, exit codes, and thread invariance."""

import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from branchfix.cli import (
    _CURVES,
    _GRIDS,
    _MC,
    _MODELS,
    _MODULATION,
    _RUNNERS,
    EXIT_VERIFY,
    ConfigError,
    _parser,
    config_digest,
    format_number,
    main,
    parse_config,
    run_command,
)
from branchfix.curves import LatticeSpec
from branchfix.weights import BernoulliCascade, Deterministic, FiniteAtoms

LN3 = math.log(3.0)


def _read_csv(path):
    lines = Path(path).read_text(encoding="utf-8").strip().split("\n")
    header = lines[0].split(",")
    rows = [ln.split(",") for ln in lines[1:] if not ln.startswith("#")]
    meta = [ln for ln in lines if ln.startswith("#")]
    return header, rows, meta


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------


def test_parse_minimal_cascade_config():
    cfg = parse_config({"model": {"kind": "cascade", "N": 2, "theta": 0.75}})
    assert isinstance(cfg.model, BernoulliCascade)
    assert cfg.model.N == 2 and cfg.model.theta == 0.75
    assert cfg.alpha is None and cfg.grid is None and cfg.mc is None


def test_parse_alpha_auto_resolves_exponent():
    cfg = parse_config(
        {"model": {"kind": "cascade", "N": 2, "theta": 0.75}, "alpha": "auto"}
    )
    assert abs(cfg.alpha - LN3) <= 1e-9


def test_parse_alpha_auto_critical_fails():
    with pytest.raises(ConfigError) as exc:
        parse_config(
            {"model": {"kind": "cascade", "N": 2, "theta": 0.5}, "alpha": "auto"}
        )
    assert any("admits no characteristic exponent" in e for e in exc.value.errors)


def test_parse_theta_out_of_range():
    with pytest.raises(ConfigError) as exc:
        parse_config({"model": {"kind": "cascade", "N": 2, "theta": 1.5}})
    assert "model.theta: theta must lie in (0,1)" in exc.value.errors


def test_parse_lattice_grid_rejects_nan_residue():
    with pytest.raises(ConfigError) as exc:
        parse_config({"model": {"kind": "cascade", "N": 2, "theta": 0.75},
                      "grid": {"mode": "lattice-step", "residues": [1.0, math.nan]}})
    assert exc.value.errors == [
        "grid.residues: residues must be finite and lie in [1, period)"]


@pytest.mark.parametrize("doc, message", [
    ({"model": {"kind": "atoms", "atoms": [[True, [0.5, 0.5]]]}},
     "model.atoms[0][0]: must be a number"),
    ({"model": {"kind": "atoms", "atoms": [[0.5, [0.5]], [0.5, ["0.5"]]]}},
     "model.atoms[1][1][0]: must be a number"),
    ({"model": {"kind": "deterministic", "weights": [True, 0.5]}},
     "model.weights[0]: must be a number"),
    ({"model": {"kind": "deterministic", "weights": "0.5"}}, "model.weights: must be a list"),
    ({"model": {"kind": "cascade", "N": 2, "theta": 0.75},
      "grid": {"mode": "lattice-step", "residues": [True]}},
     "grid.residues[0]: must be a number"),
])
def test_parse_rejects_non_numbers_in_lists(doc, message):
    with pytest.raises(ConfigError) as exc:
        parse_config(doc)
    assert exc.value.errors == [message]


def test_parse_missing_mc_seed_lists_requirements():
    with pytest.raises(ConfigError) as exc:
        parse_config(
            {
                "model": {"kind": "cascade", "N": 2, "theta": 0.75},
                "mc": {"depth": 4, "replicates": 100},
            }
        )
    assert exc.value.errors == ["mc.seed: missing required key"]


def test_parse_unknown_keys_rejected_with_paths():
    with pytest.raises(ConfigError) as exc:
        parse_config(
            {
                "model": {"kind": "cascade", "N": 2, "theta": 0.75, "bogus": 1},
                "extra": True,
            }
        )
    assert "model.bogus: unknown key" in exc.value.errors
    assert "extra: unknown key" in exc.value.errors


def test_parse_collects_every_error():
    with pytest.raises(ConfigError) as exc:
        parse_config(
            {
                "model": {"kind": "cascade", "N": 1, "theta": 2.0},
                "alpha": -3,
                "mc": {"depth": -1, "replicates": 0, "seed": -5},
            }
        )
    msgs = exc.value.errors
    assert "model.N: must be an integer >= 2" in msgs
    assert "model.theta: theta must lie in (0,1)" in msgs
    assert any(e.startswith("alpha:") for e in msgs)
    assert "mc.depth: must be an integer >= 0" in msgs
    assert "mc.replicates: must be an integer >= 1" in msgs
    assert "mc.seed: must be an integer >= 0" in msgs


def test_parse_other_model_kinds():
    cfg = parse_config(
        {"model": {"kind": "atoms", "atoms": [[0.5, [2.0]], [0.5, [0.25]]]}}
    )
    assert isinstance(cfg.model, FiniteAtoms)
    cfg = parse_config({"model": {"kind": "deterministic", "weights": [0.5, 0.5]}})
    assert isinstance(cfg.model, Deterministic)
    assert cfg.model.weights == (0.5, 0.5)
    with pytest.raises(ConfigError) as exc:
        parse_config({"model": {"kind": "mystery"}})
    assert any(e.startswith("model.kind:") for e in exc.value.errors)


def test_parse_grid_sections():
    base = {"model": {"kind": "cascade", "N": 2, "theta": 0.75}}
    cfg = parse_config({**base, "grid": {"mode": "dyadic", "points": 16, "per_octave": 4}})
    assert isinstance(cfg.grid, np.ndarray) and len(cfg.grid) == 16
    cfg = parse_config(
        {**base, "grid": {"mode": "lattice-step", "r": math.e, "n_lo": -4, "n_hi": 4}}
    )
    assert isinstance(cfg.grid, LatticeSpec) and cfg.grid.r == math.e
    cfg = parse_config(
        {**base, "grid": {"mode": "interp-loglinear", "lo": 0.1, "hi": 10.0, "points": 8}}
    )
    assert isinstance(cfg.grid, np.ndarray)
    assert cfg.grid[0] == pytest.approx(0.1) and cfg.grid[-1] == pytest.approx(10.0)
    with pytest.raises(ConfigError) as exc:
        parse_config({**base, "grid": {"mode": "interp-loglinear", "lo": 5.0, "hi": 1.0}})
    assert "grid.lo: need numbers 0 < lo < hi" in exc.value.errors


def test_parse_json_text_and_invalid_json():
    cfg = parse_config('{"model": {"kind": "cascade", "N": 3, "theta": 0.9}}')
    assert cfg.model.N == 3
    with pytest.raises(ConfigError) as exc:
        parse_config("{not json")
    assert any("invalid JSON" in e for e in exc.value.errors)


def test_raw_document_is_lossless_and_isolated():
    doc = {
        "model": {"kind": "cascade", "N": 2, "theta": 0.75},
        "alpha": "auto",
        "mc": {"depth": 4, "replicates": 10, "seed": 1},
        "options": {"z_max": 5.0},
    }
    cfg = parse_config(doc)
    assert cfg.raw == doc
    doc["model"]["theta"] = 0.1  # mutating the input must not touch the config
    assert cfg.raw["model"]["theta"] == 0.75


# ---------------------------------------------------------------------------
# formatting and digests
# ---------------------------------------------------------------------------


def test_format_number_conventions():
    assert format_number(3) == "3"
    assert format_number(True) == "True"
    assert format_number(0.0) == "0.0"
    assert format_number(0.5) == "0.5"
    assert format_number(1e-4) == "0.0001"  # boundary: scientific strictly below
    small = format_number(9.9e-5)
    assert "e-" in small and float(small) == 9.9e-5
    tiny = format_number(2.7e-68)
    assert "e-" in tiny and float(tiny) == 2.7e-68
    assert format_number(math.inf) == "inf"
    assert format_number("label") == "label"


def test_config_digest_is_canonical():
    a = parse_config({"model": {"kind": "cascade", "N": 2, "theta": 0.75}, "alpha": 1.0})
    b = parse_config({"alpha": 1.0, "model": {"theta": 0.75, "kind": "cascade", "N": 2}})
    c = parse_config({"model": {"kind": "cascade", "N": 2, "theta": 0.9}, "alpha": 1.0})
    assert len(config_digest(a)) == 64
    assert config_digest(a) == config_digest(b)  # key order is irrelevant
    assert config_digest(a) != config_digest(c)
    assert all(ch in "0123456789abcdef" for ch in config_digest(a))


# ---------------------------------------------------------------------------
# commands end to end
# ---------------------------------------------------------------------------


def test_cascade_solve_artifacts(tmp_path):
    cfg = parse_config(
        {
            "model": {"kind": "cascade", "N": 2, "theta": 0.25},
            "options": {"depth": 8},
        }
    )
    prefix = str(tmp_path / "solve")
    code = run_command(cfg, "cascade-solve", out=prefix)
    assert code == 0
    report = (tmp_path / "solve-report.txt").read_text(encoding="utf-8")
    assert "step-identity check: PASS" in report

    header, rows, meta = _read_csv(tmp_path / "solve-thresholds.csv")
    assert header == ["n", "a_n", "exact_preimage"]
    assert len(rows) == 9
    assert float(rows[0][1]) == pytest.approx(1.0 / 9.0, abs=1e-12)
    assert rows[0][2] == "True"
    assert any("e-" in r[1] for r in rows)  # deep thresholds print scientific
    assert meta[0].startswith("# config_sha256: ") and meta[0].endswith(config_digest(cfg))
    assert meta[1] == "# seed: none"

    header, rows, _ = _read_csv(tmp_path / "solve-solution.csv")
    assert header == ["n", "lower_t", "upper_t", "survival_value"]
    by_n = {r[0]: r for r in rows}
    assert float(by_n["-1"][3]) == 1.0
    assert float(by_n["0"][3]) == pytest.approx(1.0 / 9.0, abs=1e-12)


def test_cascade_solve_rejects_wrong_regime(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(
        json.dumps({"model": {"kind": "cascade", "N": 2, "theta": 0.5}}),
        encoding="utf-8",
    )
    code = main(
        ["--config", str(path), "--command", "cascade-solve",
         "--out", str(tmp_path / "x")]
    )
    assert code == 1  # usage error, not a verification failure


def test_weights_analyze_critical_regime(tmp_path):
    cfg = parse_config({"model": {"kind": "cascade", "N": 2, "theta": 0.5}})
    prefix = str(tmp_path / "wa")
    code = run_command(cfg, "weights-analyze", out=prefix)
    assert code == 0
    report = (tmp_path / "wa-report.txt").read_text(encoding="utf-8")
    assert "no characteristic exponent; critical regime" in report
    header, rows, _ = _read_csv(tmp_path / "wa-moments.csv")
    assert header == ["beta", "m"]
    assert len(rows) == 41


def test_fixpoint_verify_failing_model_exits_2(tmp_path):
    # no fixed point exists when some weight exceeds 1, and the residual says so
    cfg = parse_config(
        {
            "model": {"kind": "deterministic", "weights": [2.0, 1.0]},
            "grid": {"mode": "interp-loglinear", "lo": 0.01, "hi": 100.0, "points": 64},
            "options": {"kind": "min", "curve": {"form": "weibull", "alpha": 1.0}},
        }
    )
    code = run_command(cfg, "fixpoint-verify", out=str(tmp_path / "fv"))
    assert code == 2
    report = (tmp_path / "fv-report.txt").read_text(encoding="utf-8")
    assert "min-operator check: FAIL" in report


def test_fixpoint_verify_exact_closure_exits_0(tmp_path):
    cfg = parse_config(
        {
            "model": {"kind": "deterministic", "weights": [0.5, 0.5]},
            "grid": {"mode": "dyadic", "points": 512, "per_octave": 4},
            "options": {
                "kind": "min",
                "curve": {"form": "exponential", "rate": 1.0},
                "tol": 1e-12,
            },
        }
    )
    code = run_command(cfg, "fixpoint-verify", out=str(tmp_path / "ok"))
    assert code == 0


def test_cascade_extend_command(tmp_path):
    cfg = parse_config(
        {
            "model": {"kind": "cascade", "N": 2, "theta": 0.5},
            "options": {"seed_value": 0.3, "n_lo": -20, "n_hi": 20},
        }
    )
    code = run_command(cfg, "cascade-extend", out=str(tmp_path / "ext"))
    assert code == 0
    report = (tmp_path / "ext-report.txt").read_text(encoding="utf-8")
    assert "step-identity check: PASS" in report
    header, rows, _ = _read_csv(tmp_path / "ext-extension.csv")
    assert header == ["n", "residue", "t", "value"]
    assert len(rows) == 41  # one residue, n in [-20, 20]


def test_biggins_command(tmp_path):
    cfg = parse_config(
        {"model": {"kind": "cascade", "N": 2, "theta": 0.75}, "alpha": "auto"}
    )
    code = run_command(cfg, "biggins", out=str(tmp_path / "bg"))
    assert code == 0
    report = (tmp_path / "bg-report.txt").read_text(encoding="utf-8")
    assert "mean-one limit verdict: holds" in report
    header, rows, _ = _read_csv(tmp_path / "bg-increments.csv")
    assert header == ["location", "mass"]
    assert len(rows) == 2  # displacements 0 and 1 for the cascade


def test_unknown_command_raises():
    cfg = parse_config({"model": {"kind": "cascade", "N": 2, "theta": 0.75}})
    with pytest.raises(ValueError):
        run_command(cfg, "made-up-command")


def test_unknown_option_key_is_usage_error(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(
        json.dumps(
            {
                "model": {"kind": "cascade", "N": 2, "theta": 0.25},
                "options": {"depth": 5, "wat": 1},
            }
        ),
        encoding="utf-8",
    )
    code = main(
        ["--config", str(path), "--command", "cascade-solve",
         "--out", str(tmp_path / "y")]
    )
    assert code == 1


CASCADE = {"kind": "cascade", "N": 2, "theta": 0.75}
SMALL_MC = {"depth": 3, "replicates": 40, "seed": 5}
HALVES_DYADIC = {"model": {"kind": "deterministic", "weights": [0.5, 0.5]},
                 "grid": {"mode": "dyadic", "points": 64, "per_octave": 4}}
MIXTURE = {"model": CASCADE, "alpha": "auto", "mc": SMALL_MC,
           "grid": {"mode": "lattice-step", "r": math.e, "n_lo": -12, "n_hi": 8}}


def _usage_error(tmp_path, capsys, doc, command):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code = main(["--config", str(path), "--command", command,
                 "--out", str(tmp_path / "o")])
    return code, capsys.readouterr().err


# One case per command that takes numeric options: JSON null, booleans,
# strings and lists are usage errors naming the option, not tracebacks.
@pytest.mark.parametrize("command, doc, message", [
    ("wbp-simulate", {"model": CASCADE, "alpha": "auto", "mc": SMALL_MC,
                      "options": {"z_max": None}}, "options.z_max: must be a number"),
    ("fixpoint-verify", {**HALVES_DYADIC, "options": {"curve": {
        "form": "weibull", "alpha": 1.0, "modulation": {"residues": [1.0, None]}}}},
     "modulation.residues[1]: must be a number"),
    ("fixpoint-verify", {**HALVES_DYADIC, "options": {
        "tol": "1e-10", "curve": {"form": "exponential"}}}, "options.tol: must be a number"),
    ("fixpoint-verify", {**HALVES_DYADIC, "options": {"curve": {
        "form": "weibull", "alpha": 1.0, "modulation": {"period": None}}}},
     "modulation.period: must be a number > 1"),
    ("fixpoint-verify", {**MIXTURE, "options": {
        "points": 8.5, "curve": {"form": "weibull-mixture"}}},
     "options.points: must be an integer >= 1"),
    ("fixpoint-construct", {**MIXTURE, "options": {"z_max": [3.0]}},
     "options.z_max: must be a number"),
    ("cascade-solve", {"model": {"kind": "cascade", "N": 2, "theta": 0.25},
                       "options": {"depth": None}}, "options.depth: must be an integer >= 0"),
    ("cascade-solve", {"model": {"kind": "cascade", "N": 2, "theta": 0.25},
                       "options": {"scale": True}}, "options.scale: must be a number > 0"),
    ("cascade-extend", {"model": {"kind": "cascade", "N": 2, "theta": 0.6},
                        "options": {"seed_value": 0.4, "n_lo": None}},
     "options.n_lo: must be an integer"),
    ("cascade-extend", {"model": {"kind": "cascade", "N": 2, "theta": 0.6},
                        "options": {"seed_value": None}}, "options.seed_value: must be a number"),
    ("regularity", {**HALVES_DYADIC, "alpha": 1.0, "options": {
        "window": 12.5, "curve": {"form": "weibull", "alpha": 1.0}}},
     "options.window: must be an integer >= 1"),
    ("renewal-check", {"model": CASCADE, "alpha": "auto", "mc": SMALL_MC,
                       "options": {"interval": [None, 2]}}, "options.interval[0]: must be a number"),
    ("renewal-check", {"model": CASCADE, "alpha": "auto", "mc": SMALL_MC,
                       "options": {"interval": [0.0, 2.0], "z_max": False}},
     "options.z_max: must be a number"),
    ("fixpoint-construct", {**MIXTURE, "options": {"modulation": {
        "residues": [1.0, 1.6], "values": [1.0, None]}}}, "modulation.values[1]: must be a number"),
    ("cascade-extend", {"model": {"kind": "cascade", "N": 2, "theta": 0.6}, "options": {
        "seed_grid": [None, math.e], "seed_values": [0.45, 0.4]}},
     "options.seed_grid[0]: must be a number"),
    ("cascade-extend", {"model": {"kind": "cascade", "N": 2, "theta": 0.6}, "options": {
        "seed_grid": [math.exp(0.4), math.e], "seed_values": [None, 0.4]}},
     "options.seed_values[0]: must be a number"),
])
def test_non_numeric_option_is_usage_error(tmp_path, capsys, command, doc, message):
    code, err = _usage_error(tmp_path, capsys, doc, command)
    assert code == 1
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("command, doc, message", [
    ("wbp-simulate", {"model": CASCADE, "mc": SMALL_MC},
     "wbp-simulate requires the alpha key"),
    ("renewal-check", {"model": CASCADE, "alpha": "auto", "options": {"interval": [0, 2]}},
     "renewal-check requires the mc section"),
    ("biggins", {"model": CASCADE}, "biggins requires the alpha key"),
    ("renewal-check", {"model": CASCADE, "alpha": "auto", "mc": SMALL_MC,
                       "options": {"interval": [0.0, 1.0, 2.0]}},
     "renewal-check requires options.interval = [a, b]"),
    ("weights-analyze", {"model": CASCADE, "options": {"z_max": 1.0, "depth": 2}},
     "options: unknown keys for weights-analyze: depth, z_max"),
    ("wbp-simulate", {"model": CASCADE, "alpha": "auto", "mc": SMALL_MC,
                      "options": {"renewal_interval": [0.0, 2.0]}},
     "options: unknown keys for wbp-simulate: renewal_interval"),
    ("regularity", {**HALVES_DYADIC, "alpha": 1.0, "options": {
        "kind": "max", "curve": {"form": "weibull", "alpha": 1.0}}},
     "options.kind: must be 'min' or 'sum'"),
    ("regularity", {**HALVES_DYADIC, "alpha": 1.0, "options": {
        "window": -3, "curve": {"form": "weibull", "alpha": 1.0}}},
     "options.window: must be an integer >= 1"),
    ("fixpoint-verify", {**MIXTURE, "options": {
        "points": 0, "curve": {"form": "weibull-mixture"}}},
     "options.points: must be an integer >= 1"),
    ("renewal-check", {"model": CASCADE, "alpha": "auto", "mc": SMALL_MC},
     "options.interval: missing required key"),
])
def test_command_requirements_are_usage_errors(tmp_path, capsys, command, doc, message):
    code, err = _usage_error(tmp_path, capsys, doc, command)
    assert code == 1
    assert err == f"error: {message}\n"


# A valid config per command that takes options; each case below puts one
# bad value into it.
VALID = {
    "wbp-simulate": {"model": CASCADE, "alpha": "auto", "mc": SMALL_MC},
    "fixpoint-verify": {**MIXTURE, "options": {"curve": {"form": "weibull-mixture"}}},
    "fixpoint-construct": MIXTURE,
    "cascade-solve": {"model": {"kind": "cascade", "N": 2, "theta": 0.25}},
    "cascade-extend": {"model": {"kind": "cascade", "N": 2, "theta": 0.6},
                       "options": {"seed_value": 0.4}},
    "regularity": {**HALVES_DYADIC, "alpha": 1.0,
                   "options": {"curve": {"form": "weibull", "alpha": 1.0}}},
    "renewal-check": {"model": CASCADE, "alpha": "auto", "mc": SMALL_MC,
                      "options": {"interval": [0.0, 2.0]}},
}
BAD_BY_TYPE = {
    int: [True, 2.5, "3", None, [1]],
    float: [True, "1.0", None, [1.0], 10**400],
    list: [5, "1.0", [[1.0]], [1.0, True]],
}
# options whose table leaves the check to the code that reads them
BAD_BY_KEY = {
    "kind": ["max", ["min"], 1],
    "curve": [5, [], {"form": "weibull", "alpha": 1.0, "rate": 2.0}],
    "modulation": ["x", [1.0], {"period": True}, {"residues": [[1.0]]},
                   {"values": [1.0, False]}],
}


def _bad_options():
    for command, (_, table, _) in _RUNNERS.items():
        for key, (_, kind, bound) in table.items():
            bad = BAD_BY_KEY[key] if kind is None else list(BAD_BY_TYPE[kind])
            if bound is not None:  # an int must be >= bound, a float > bound
                bad.append(bound - 1 if kind is int else bound)
            for value in bad:
                yield pytest.param(command, key, value, id=f"{command}-{key}-{value!r:.20}")


@pytest.mark.parametrize("command, key, value", list(_bad_options()))
def test_every_option_rejects_a_bad_value(tmp_path, capsys, command, key, value):
    doc = json.loads(json.dumps(VALID[command]))
    doc.setdefault("options", {})[key] = value
    code, err = _usage_error(tmp_path, capsys, doc, command)
    path = "modulation" if key == "modulation" else f"options.{key}"
    assert code == 1
    assert err.startswith(f"error: {path}") and err.count("\n") == 1, err


def test_readme_lists_every_option():
    # every key of every settings table, named in the README bullet of its table
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    bullets = re.findall(r"^ *\* (`.*?)(?=^ *\* |^\S|\Z)", text, re.M | re.S)
    tables = [(f"`{command}`", table) for command, (_, table, _) in _RUNNERS.items()]
    tables += [("`mc`", _MC), ('"form": "weibull"', _MODULATION)]
    tables += [(f'"kind": "{kind}"', table) for kind, table in _MODELS.items()]
    tables += [(f'"mode": "{mode}"', table) for mode, table in _GRIDS.items()]
    tables += [(f'"form": "{form}"', table) for form, table in _CURVES.items()]
    for name, table in tables:
        # a bullet's head is its leading code spans, e.g. `weights-analyze`, `biggins`
        bullet = next(b for b in bullets
                      if name in re.match(r"(?:`[^`]*`(?:, | / )?)+", b).group(0))
        assert [k for k in table if not re.search(f'[`"]{k}\\b', bullet)] == [], name


@pytest.mark.parametrize("command", ["wbp-simulate", "fixpoint-construct", "renewal-check"])
def test_node_budget_is_a_usage_error(tmp_path, capsys, command):
    doc = {**MIXTURE, "mc": {**SMALL_MC, "depth": 8, "node_cap": 100}}
    if command == "renewal-check":
        doc["options"] = {"interval": [0.0, 2.0]}
    code, err = _usage_error(tmp_path, capsys, doc, command)
    assert code == 1
    assert err == "error: node budget exceeded at generation 6: 127 nodes (replicate 0)\n"


@pytest.mark.parametrize("command", ["fixpoint-verify", "regularity"])
def test_kind_must_agree_with_a_mixture_curve(tmp_path, capsys, command):
    doc = {**MIXTURE, "options": {"kind": "sum", "curve": {"form": "weibull-mixture"}}}
    code, err = _usage_error(tmp_path, capsys, doc, command)
    assert code == 1
    assert err == ("error: options.kind: 'sum' contradicts options.curve.form "
                   "'weibull-mixture', a min-operator curve\n")


def test_mixture_curve_sets_the_operator_label(tmp_path):
    # a stable mixture is a Laplace curve: checked against the sum operator
    cfg = parse_config({**MIXTURE, "model": {"kind": "cascade", "N": 2, "theta": 0.9},
                        "options": {"z_max": 50.0, "curve": {"form": "stable-mixture"}}})
    assert run_command(cfg, "fixpoint-verify", out=str(tmp_path / "fv")) == 0
    report = (tmp_path / "fv-report.txt").read_text(encoding="utf-8")
    assert "operator: sum" in report and "sum-operator check: PASS" in report


@pytest.mark.parametrize("points, note", [
    (24, "note: 10 distinct grid points for options.points = 24"), (8, None)])
def test_short_grid_notes_fewer_mixture_points(tmp_path, points, note):
    # 21 grid points: the middle half has 10 distinct indices
    cfg = parse_config({**MIXTURE, "options": {"points": points, "z_max": 50.0}})
    run_command(cfg, "fixpoint-construct", out=str(tmp_path / "fc"))
    report = (tmp_path / "fc-report.txt").read_text(encoding="utf-8")
    notes = [ln for ln in report.splitlines() if ln.startswith("note: ")]
    assert notes == ([note] if note else [])
    assert f"at {min(points, 10)} points" in report


# cascade(2, 3/4) at alpha = 1: m(alpha) = 1.0518..., so W_n is no martingale
NOT_MEAN_ONE = {**MIXTURE, "alpha": 1.0}
MEAN_ONE_WARNING = ("warning: m(alpha) = 1.0518191617571635 is not 1 within 1e-09; "
                    "W_n is not a mean-one martingale")


@pytest.mark.parametrize("command, options", [
    ("fixpoint-verify", {"curve": {"form": "weibull-mixture"}}),
    ("regularity", {"curve": {"form": "weibull-mixture"}}),
    ("fixpoint-construct", {}),
])
def test_every_mixture_report_names_its_sample(tmp_path, command, options):
    cfg = parse_config({**NOT_MEAN_ONE, "options": options})
    run_command(cfg, command, out=str(tmp_path / "r"))
    lines = (tmp_path / "r-report.txt").read_text(encoding="utf-8").splitlines()
    assert lines[1] == "model: cascade(N=2, theta=0.75)"
    assert lines[2] == "constructed: weibull-mixture at alpha = 1.0"
    assert lines[3] == MEAN_ONE_WARNING
    assert lines[4].startswith("sample diagnostics: mean W = ")


def test_regularity_does_not_classify_a_mixture_that_is_no_fixed_point(tmp_path):
    # the tail diagnostic of this curve reads elementary-candidate, but the
    # curve is no fixed point; fixpoint-verify fails it too (max |z| 12.4)
    cfg = parse_config({**NOT_MEAN_ONE, "options": {"curve": {"form": "weibull-mixture"}}})
    assert run_command(cfg, "regularity", out=str(tmp_path / "r")) == EXIT_VERIFY
    lines = (tmp_path / "r-report.txt").read_text(encoding="utf-8").splitlines()
    assert not [ln for ln in lines if ln.startswith("classification: ")]
    assert ("not classified: m(alpha) = 1.0518191617571635 is not 1 within 1e-09; "
            "the mixture is not a fixed point") in lines
    assert (tmp_path / "r-regularity.csv").exists() and (tmp_path / "r-curve.csv").exists()


@pytest.mark.parametrize("kind, form", [("min", "weibull-mixture"), ("sum", "stable-mixture")])
def test_construct_is_verify_on_its_mixture(tmp_path, kind, form):
    model = {"kind": "cascade", "N": 2, "theta": 0.9} if kind == "sum" else CASCADE
    modulation = {"residues": [1.0, 1.6], "values": [1.0, 1.2]}
    opts = {"kind": kind, "z_max": 50.0, "points": 8}
    runs = {
        "construct": ("fixpoint-construct", {**opts, "modulation": modulation}),
        "verify": ("fixpoint-verify", {**opts, "curve": {"form": form, "modulation": modulation}}),
    }
    reports, rows = {}, {}
    for name, (command, options) in runs.items():
        cfg = parse_config({**MIXTURE, "model": model, "options": options})
        prefix = tmp_path / name / "out"
        assert run_command(cfg, command, out=str(prefix)) == 0
        text = (tmp_path / name / "out-report.txt").read_text(encoding="utf-8")
        reports[name] = [ln for ln in text.replace(str(tmp_path / name), "").splitlines()
                         if not ln.startswith(("command: ", "config sha256: "))]
        rows[name] = [_read_csv(tmp_path / name / f"out-{a}.csv")[:2]
                      for a in ("curve", "residuals")]
    assert reports["construct"] == reports["verify"]
    assert rows["construct"] == rows["verify"]
    assert f"{kind}-operator check: PASS (limit 50.0)" in reports["verify"]


# ---------------------------------------------------------------------------
# main(): file/flag plumbing
# ---------------------------------------------------------------------------


def _wbp_doc():
    return {
        "model": {"kind": "cascade", "N": 2, "theta": 0.75},
        "alpha": "auto",
        "mc": {"depth": 6, "replicates": 200, "seed": 3},
        "options": {"z_max": 10.0},
    }


def test_main_runs_and_seed_override(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_wbp_doc()), encoding="utf-8")
    code = main(
        ["--config", str(path), "--command", "wbp-simulate",
         "--out", str(tmp_path / "w"), "--seed", "7"]
    )
    assert code == 0
    _, _, meta = _read_csv(tmp_path / "w-traces.csv")
    assert "# seed: 7" in meta


def test_main_usage_errors(tmp_path):
    missing = str(tmp_path / "nope.json")
    assert main(["--config", missing, "--command", "weights-analyze"]) == 1

    bad = tmp_path / "bad.json"
    bad.write_text("{oops", encoding="utf-8")
    assert main(["--config", str(bad), "--command", "weights-analyze"]) == 1

    badtheta = tmp_path / "theta.json"
    badtheta.write_text(
        json.dumps({"model": {"kind": "cascade", "N": 2, "theta": 1.5}}),
        encoding="utf-8",
    )
    assert main(["--config", str(badtheta), "--command", "weights-analyze"]) == 1

    ok = tmp_path / "ok.json"
    ok.write_text(
        json.dumps({"model": {"kind": "cascade", "N": 2, "theta": 0.75}}),
        encoding="utf-8",
    )
    assert main(["--config", str(ok), "--command", "weights-analyze",
                 "--threads", "0"]) == 1
    # --seed needs an mc section to land in
    assert main(["--config", str(ok), "--command", "weights-analyze",
                 "--seed", "5"]) == 1


def test_one_parser_serves_every_call(tmp_path, capsys):
    # main builds its parser once; a parse leaves nothing behind for the
    # next call: not a usage error, and not the --seed of the call before.
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_wbp_doc()), encoding="utf-8")
    out = str(tmp_path / "w")
    with pytest.raises(SystemExit) as exc:
        main(["--config", str(path), "--command", "no-such-command"])
    assert exc.value.code == 2
    assert "argument --command: invalid choice: 'no-such-command'" in capsys.readouterr().err
    parser = _parser()
    assert main(["--config", str(path), "--command", "wbp-simulate", "--out", out,
                 "--seed", "7"]) == 0
    assert "# seed: 7" in _read_csv(tmp_path / "w-traces.csv")[2]
    assert main(["--config", str(path), "--command", "wbp-simulate", "--out", out]) == 0
    assert "# seed: 3" in _read_csv(tmp_path / "w-traces.csv")[2]
    assert _parser() is parser


def test_rerun_replaces_artifacts(tmp_path):
    # A rerun into the same prefix writes the same bytes as new files: a
    # symlink at an artifact's path is replaced, not followed, and a hard
    # link to an artifact keeps the old file.
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_wbp_doc()), encoding="utf-8")
    argv = ["--config", str(path), "--command", "wbp-simulate", "--out", str(tmp_path / "w")]
    assert main(argv) == 0
    names = ("w-traces.csv", "w-report.txt")
    first = {name: (tmp_path / name).read_bytes() for name in names}
    target = tmp_path / "target.txt"
    target.write_text("untouched", encoding="utf-8")
    (tmp_path / "w-report.txt").unlink()
    (tmp_path / "w-report.txt").symlink_to(target)
    (tmp_path / "w-traces.csv").rename(tmp_path / "old.csv")
    (tmp_path / "w-traces.csv").hardlink_to(tmp_path / "old.csv")
    assert main(argv) == 0
    assert {name: (tmp_path / name).read_bytes() for name in names} == first
    assert not (tmp_path / "w-report.txt").is_symlink()
    assert target.read_text(encoding="utf-8") == "untouched"
    assert (tmp_path / "old.csv").stat().st_nlink == 1
    assert (tmp_path / "old.csv").read_bytes() == first["w-traces.csv"]


def test_artifacts_are_thread_invariant(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_wbp_doc()), encoding="utf-8")
    assert main(["--config", str(path), "--command", "wbp-simulate",
                 "--out", str(tmp_path / "t1"), "--threads", "1"]) == 0
    assert main(["--config", str(path), "--command", "wbp-simulate",
                 "--out", str(tmp_path / "t8"), "--threads", "8"]) == 0
    one = (tmp_path / "t1-traces.csv").read_bytes()
    eight = (tmp_path / "t8-traces.csv").read_bytes()
    assert one == eight
    rep1 = (tmp_path / "t1-report.txt").read_text(encoding="utf-8")
    rep8 = (tmp_path / "t8-report.txt").read_text(encoding="utf-8")
    assert rep1.replace("t1", "t8") == rep8
