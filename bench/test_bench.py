"""Tests of the benchmark itself: contract, smoke runs, failures, tracing."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

run.use_checkout_source()

import branchfix  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from branchfix import cli, fixpoint  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "bench/run.py"]
    assert spec["paths"] == ["bench"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        [(name, unit) for name, unit, _src in tracing.PER_LAYER]
    assert all(m["bound"] <= 0.25 for m in spec["end_to_end"])


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_tiny_smoke_run_of_each_workload(name, capsys):
    assert run.main(["--workload", name, "--seed", "3", "--seconds", "0.2",
                     "--size", "tiny"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert [k for k in result["metrics"]] == [k for k, _ in run.END_TO_END]
    assert all(m["value"] > 0.0 for m in result["metrics"].values())
    assert any(ln.startswith("output sha256: ") and "identical" in ln for ln in lines)


class _FailEveryThird:
    """A real workload whose every third job raises."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = 0

    def job(self, inputs):
        self.calls += 1
        if self.calls % 3 == 0:
            raise RuntimeError("injected failure")
        return self.inner.job(inputs)

    def check(self, inputs, ref, out):
        return self.inner.check(inputs, ref, out)


def test_injected_failing_job_is_counted_and_the_run_goes_on(tmp_path):
    inner = workloads.WORKLOADS["exact"]
    inputs = inner.setup(5, "tiny", tmp_path)
    records = run.run_jobs(_FailEveryThird(inner), inputs, None, seconds=0.5)
    failed = [r for r in records if not r.check.ok]
    assert len(records) >= 3
    assert len(failed) == len(records) // 3
    assert all("injected failure" in r.check.problems[0] for r in failed)
    assert all(r.check.ok for r in records if r not in failed)


def test_exclusive_times_share_concurrent_children():
    # parent 1 on [0, 10]; children 2 on [1, 5] and 3 on [2, 6] in two threads
    spans = [(2, 1, 1, 1.0, 5.0, 0, 0, 0), (3, 1, 2, 2.0, 6.0, 0, 0, 0),
             (1, 0, 0, 0.0, 10.0, 0, 0, 0)]
    assert tracing.exclusive_times(spans, 3) == pytest.approx([5.0, 2.5, 2.5])
    summary = tracing.summarize_job(spans, 3, 10.0)
    assert summary.busy == pytest.approx([10.0, 4.0, 4.0])
    assert summary.coverage == pytest.approx(1.0)


def test_every_binding_is_wrapped_and_restored():
    original = branchfix.replicate_traces
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for module in (branchfix, branchfix.branching, cli):
            assert module.replicate_traces is not original
        assert fixpoint.atom_table is branchfix.weights.atom_table
        assert hasattr(fixpoint.atom_table, "__wrapped__")
    finally:
        tracer.uninstall()
    assert cli.replicate_traces is original and branchfix.replicate_traces is original


@pytest.mark.parametrize("name", ["mc-atoms", "exact", "cli-session"])
def test_layer_self_times_never_exceed_job_wall_time(name, tmp_path):
    wl = workloads.WORKLOADS[name]
    inputs = wl.setup(7, "tiny", tmp_path)
    if name == "mc-atoms":   # three batches on two threads
        inputs.replicates, inputs.depth = 1100, 3
    ref = wl.reference(inputs)
    tracer = tracing.Tracer()
    records = run.run_jobs(wl, inputs, ref, seconds=0.3, tracer=tracer)
    by_job = tracer.spans_by_job()
    traced = [r for r in records if r.traced]
    assert traced and all(r.check.ok for r in records)
    for r in traced:
        start, end = tracer.jobs[r.index]
        summary = tracing.summarize_job(by_job[r.index], len(tracer.names), end - start)
        assert sum(summary.self_s) <= summary.wall * (1.0 + 1e-9)
        assert max(summary.busy) <= summary.wall * (1.0 + 1e-9)
        assert summary.coverage > 0.5
    if name == "mc-atoms":
        spans = [s for s in tracer.spans if tracer.names[s[2]] == "seeding.mix64_np"]
        parents = {s[1] for s in spans}
        names = {tracer.names[s[2]] for s in tracer.spans if s[0] in parents}
        assert names <= {"branching.replicate_traces", "seeding.unit_uniforms_np"}


def test_run_without_the_source_tree_exits_nonzero(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "exact",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
