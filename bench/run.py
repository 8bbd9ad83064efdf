"""Run one branchfix benchmark workload and print its metrics.

From the root of a checkout::

    python3 bench/run.py --workload mc-lattice --seed 1 --seconds 20 --trace 0

branchfix is imported from the checkout's own ``src/``, never from an
installed copy; without ``src/branchfix`` the run exits with status 2 and
prints no result.  One run:

1. times ``setup_s``: fresh interpreters that import branchfix and build the
   workload's inputs (median of several);
2. builds the inputs in process, computes the untimed oracle reference and
   runs one untimed warm-up job;
3. runs timed jobs back to back (a closed loop with one caller) until
   ``--seconds`` have passed, checking each job's outputs outside its timed
   interval;
4. prints a human-readable summary, then one JSON line with the end-to-end
   metrics (``--trace 0``) or the per-layer metrics (``--trace 1``).

With ``--trace 1`` every other job runs with the span tracer installed, so
the run also measures the tracer's own overhead.  Spans and a run record go
to ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import tracing

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"

END_TO_END = (
    ("setup_s", "s"),
    ("job_s_p50", "s"),
    ("job_s_tail", "s"),
    ("work_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)
TAIL_BEYOND = 10                       # jobs slower than the reported tail
SETUP_PROBES = {"full": 5, "tiny": 1}
PROBE_TIMEOUT_S = 120


class SourceError(RuntimeError):
    """The checkout has no importable ``src/branchfix``."""


def use_checkout_source(root: Path = ROOT):
    """Put ``root/src`` first on the import path and import branchfix from it."""
    init = root / "src" / "branchfix" / "__init__.py"
    if not init.is_file():
        raise SourceError(f"{init} not found; run from the root of a branchfix checkout")
    sys.path.insert(0, str(root / "src"))
    import branchfix

    if Path(branchfix.__file__).resolve() != init.resolve():
        raise SourceError(f"branchfix was imported from {branchfix.__file__}, not {init}")
    return branchfix


# ---------------------------------------------------------------------------
# facts about the machine and the code under test
# ---------------------------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _commit(root: Path) -> str:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src" / "branchfix").rglob("*.py")):
        h.update(path.relative_to(root).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def machine_facts(threads: int) -> dict:
    import mpmath
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpus_used": sorted(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "ram_gb": round(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**30, 1),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "threads": threads,
        "commit": _commit(ROOT),
        "source_sha256": _source_digest(ROOT),
    }


# ---------------------------------------------------------------------------
# measuring
# ---------------------------------------------------------------------------


@dataclass
class JobRecord:
    index: int
    seconds: float
    traced: bool
    check: object


def measure_setup(workload: str, seed: int, size: str, count: int) -> list:
    """Wall seconds of ``count`` fresh interpreters that import and set up."""
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--size", size, "--setup-probe"]
    times = []
    for _ in range(count):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, cwd=ROOT, stdout=subprocess.DEVNULL,
                       timeout=PROBE_TIMEOUT_S)
        times.append(time.perf_counter() - t0)
    return times


def _failed(message: str):
    from workloads import Check

    return Check(False, [message])


def run_one(workload, inputs, ref, tracer=None, index: int = 0):
    """One job, timed, then its check; failures are recorded, not raised."""
    if tracer is not None:
        tracer.job = index
        tracer.install()
    t0 = time.perf_counter()
    try:
        out = workload.job(inputs)
        error = None
    except Exception as exc:   # a failing job is counted and the run goes on
        out, error = None, f"job raised {type(exc).__name__}: {exc}"
    t1 = time.perf_counter()
    if tracer is not None:
        tracer.uninstall()
        tracer.record_job(index, t0, t1)
    if error is not None:
        return t1 - t0, _failed(error)
    try:
        return t1 - t0, workload.check(inputs, ref, out)
    except Exception as exc:
        return t1 - t0, _failed(f"check raised {type(exc).__name__}: {exc}")


def run_jobs(workload, inputs, ref, seconds: float, tracer=None) -> list:
    """Timed jobs until ``seconds`` have passed; every other one traced."""
    records = []
    start = time.perf_counter()
    while not records or time.perf_counter() - start < seconds:
        index = len(records)
        traced = tracer is not None and index % 2 == 0
        seconds_used, check = run_one(workload, inputs, ref,
                                      tracer if traced else None, index)
        records.append(JobRecord(index, seconds_used, traced, check))
    return records


def end_to_end_metrics(records, setup_times) -> tuple:
    """End-to-end metric values plus the notes printed beside them."""
    times = sorted(r.seconds for r in records)
    n = len(times)
    if n > TAIL_BEYOND:
        tail = times[n - TAIL_BEYOND - 1]
        pct = 100.0 * (n - TAIL_BEYOND) / n
    else:
        tail, pct = times[-1], 100.0
    units = sum(r.check.units for r in records if r.check.ok)
    values = {
        "setup_s": statistics.median(setup_times) if setup_times else float("nan"),
        "job_s_p50": statistics.median(times),
        "job_s_tail": tail,
        "work_per_s": units / sum(times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {
        "setup_s": f"median of {len(setup_times)} fresh interpreters "
                   + " ".join(f"{t:.4f}" for t in setup_times),
        "job_s_p50": f"{n} jobs",
        "job_s_tail": f"p{pct:.1f}: {min(n, TAIL_BEYOND)} of {n} jobs were slower",
        "work_per_s": f"{units:.0f} units in {sum(times):.4f} s of job time",
        "peak_rss_mb": "max RSS of the workload process",
    }
    return values, notes


def run_workload(workload, seed: int, seconds: float, trace: bool, size: str) -> dict:
    """Measure one workload; returns the result document printed by :func:`main`."""
    name = workload.name
    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT_DIR))
    tracer = tracing.Tracer() if trace else None
    try:
        setup_times = measure_setup(name, seed, size, SETUP_PROBES[size])
        if tracer is not None:
            tracer.install()
        t0 = time.perf_counter()
        inputs = workload.setup(seed, size, workdir)
        t1 = time.perf_counter()
        if tracer is not None:
            tracer.uninstall()
            tracer.record_job(tracing.SETUP_JOB, t0, t1)
        ref = workload.reference(inputs)
        _, warm = run_one(workload, inputs, ref)
        records = run_jobs(workload, inputs, ref, seconds, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    values, notes = end_to_end_metrics(records, setup_times)
    failed = sum(not r.check.ok for r in records)
    digests = sorted({r.check.digest for r in records if r.check.ok})
    result = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "size": size,
        "machine": machine_facts(workload.threads),
        "units": workload.units_name,
        "values": values,
        "notes": notes,
        "attempted": len(records),
        "failed": failed,
        "warmup_problems": warm.problems,
        "problems": sorted({p for r in records for p in r.check.problems}),
        "digest": digests[0] if len(digests) == 1 else digests,
        "stats": _stats_summary(records),
        "job_seconds": [r.seconds for r in records],
    }
    if tracer is not None:
        result["per_layer"] = _layer_result(tracer, records)
        stem = f"trace-{name}-seed{seed}"
        tracer.write(OUT_DIR / f"{stem}.csv.gz")
    return result


def _stats_summary(records) -> dict:
    """Per statistic, the smallest and largest value over jobs."""
    out = {}
    for r in records:
        for key, value in r.check.stats.items():
            lo, hi = out.get(key, (value, value))
            out[key] = (min(lo, value), max(hi, value))
    return out


def _layer_result(tracer, records) -> dict:
    by_job = tracer.spans_by_job()
    n = len(tracer.names)
    traced, untraced, summaries = [], [], []
    for r in records:
        (traced if r.traced else untraced).append(r.seconds)
        if r.traced:
            start, end = tracer.jobs[r.index]
            summary = tracing.summarize_job(by_job.get(r.index, []), n, end - start)
            summary.extra = dict(r.check.extra)
            summaries.append(summary)
    start, end = tracer.jobs[tracing.SETUP_JOB]
    setup = tracing.summarize_job(by_job.get(tracing.SETUP_JOB, []), n, end - start)
    return tracing.layer_metrics(tracer.names, summaries, setup, traced, untraced)


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------


def _print_summary(result: dict) -> None:
    m = result["machine"]
    print(f"workload: {result['workload']}  seed: {result['seed']}  "
          f"seconds: {result['seconds']}  trace: {result['trace']}  size: {result['size']}")
    print("machine: " + "  ".join(f"{k}={v}" for k, v in m.items()))
    for metric, unit in END_TO_END:
        print(f"{metric} = {result['values'][metric]:.6g} {unit}  ({result['notes'][metric]})")
    frac = result["failed"] / result["attempted"]
    print(f"fail_frac = {frac:.6g}  ({result['failed']} failed of {result['attempted']} "
          f"attempted; units of work: {result['units']})")
    for problem in result["warmup_problems"] + result["problems"]:
        print(f"problem: {problem}")
    for key, (lo, hi) in result["stats"].items():
        print(f"stat {key}: {lo:.4g} .. {hi:.4g} over jobs")
    digest = result["digest"]
    if isinstance(digest, str):
        print(f"output sha256: {digest} (identical in every passing job)")
    else:
        print(f"output sha256: {len(digest)} distinct digests over passing jobs: {digest}")
    for metric, entry in result.get("per_layer", {}).items():
        print(f"layer {metric} = {entry['value']:.6g} {entry['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("mc-lattice", "mc-atoms", "exact", "cli-session"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny inputs for the benchmark's own tests")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    # One CPU for the whole run, taken before numpy starts any thread.  On a
    # shared two-CPU machine the median of a two-thread job moved by a third
    # between runs with the availability of the second CPU; pinned, it moves
    # as little as a one-thread job's.  The thread pool still runs, so its
    # overhead and memory stay measured.
    affinity = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(affinity)})
    try:
        return _run(args)
    finally:
        os.sched_setaffinity(0, affinity)


def _run(args) -> int:
    try:
        use_checkout_source()
    except SourceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    if args.setup_probe:
        OUT_DIR.mkdir(exist_ok=True)
        workdir = tempfile.mkdtemp(prefix=f"setup-{args.workload}-", dir=OUT_DIR)
        try:
            workload.setup(args.seed, args.size, Path(workdir))
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        return 0

    result = run_workload(workload, args.seed, args.seconds, bool(args.trace), args.size)
    record = OUT_DIR / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps(result, indent=1, default=str), encoding="utf-8")
    _print_summary(result)
    if args.trace:
        metrics = result["per_layer"]
    else:
        metrics = {k: {"value": result["values"][k], "unit": u} for k, u in END_TO_END}
    print(json.dumps({"correct": result["failed"] == 0 and not result["warmup_problems"],
                      "attempted": result["attempted"], "failed": result["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
