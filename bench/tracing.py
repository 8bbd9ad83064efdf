"""Span tracing of branchfix from outside the library.

A :class:`Tracer` replaces every binding of the probed library functions with
a wrapper that records one span per call: ``(id, parent, name, start, end,
job, count1, count2)``.  "Every binding" means each module attribute in the
``branchfix`` package that refers to the function, because modules bind
each other's functions with ``from .x import y``: patching only the defining
module would miss, for example, the CLI's own reference to
``replicate_traces``.  Methods are patched on their class.

Spans are kept in memory and summarised per job after the run:

* ``busy`` of a name is the wall time during which at least one of its spans
  was open (the union of its intervals);
* ``self`` of a name is the wall time attributed to it exclusively.  Every
  instant of a job goes to the innermost open spans, split equally when
  several threads have innermost spans open at once, so self times of all
  names add up to the traced part of the job and never exceed its wall time.

Spans opened on a worker thread with no open span of its own take the span
open on the tracing thread (the one that called :meth:`Tracer.install`) as
their parent: that is the call that started the worker pool.
"""

from __future__ import annotations

import functools
import gzip
import itertools
import statistics
import sys
import threading
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Optional

# No numpy import here: the benchmark pins its CPU before numpy starts threads.


def _count_size(args, kwargs, result):
    return int(result.size), 0


def _count_arg(args, kwargs, result):
    # method probes: args[0] is the instance
    x = args[1] if len(args) > 1 else kwargs["x"]
    return int(getattr(x, "size", 1)), 0


def _count_len(attr):
    def count(args, kwargs, result):
        return len(getattr(result, attr)), 0
    return count


def _count_clamped(args, kwargs, result):
    mask = result[1]
    return int(mask.size), int(mask.sum())


def _count_chain(args, kwargs, result):
    flags = result[1]
    return len(flags), int(sum(bool(f) for f in flags))


def _count_atoms(args, kwargs, result):
    return len(result.probs), 0


def tree_vertices(model, depth: int, replicates: int) -> float:
    """Vertices of ``replicates`` trees of ``depth`` generations (root included).

    Exact when every atom has the same number of positive weights (true of
    every benchmark model); otherwise the expected count.
    """
    if hasattr(model, "N"):
        children = float(model.N)
    elif hasattr(model, "atoms"):
        children = sum(p * sum(w > 0.0 for w in ws) for p, ws in model.atoms)
    else:
        children = float(sum(w > 0.0 for w in model.weights))
    return replicates * sum(children**n for n in range(depth + 1))


def _count_vertices(args, kwargs, result):
    model = args[0] if args else kwargs["model"]
    reps, cols = result.W.shape
    return tree_vertices(model, cols - 1, reps), 0


@dataclass(frozen=True)
class Probe:
    """One probed library function: span name, owner and attribute path."""

    name: str
    module: str
    attr: str
    count: Optional[Callable] = None


PROBES = (
    Probe("seeding.mix64_np", "branchfix.seeding", "mix64_np", _count_size),
    Probe("seeding.unit_uniforms_np", "branchfix.seeding", "unit_uniforms_np"),
    Probe("branching.replicate_traces", "branchfix.branching", "replicate_traces",
          _count_vertices),
    Probe("branching.sample_W_limit", "branchfix.branching", "sample_W_limit"),
    Probe("branching.EmpiricalLaplace.evaluate_tail", "branchfix.branching",
          "EmpiricalLaplace.evaluate_tail", _count_arg),
    Probe("branching.biggins_check", "branchfix.branching", "biggins_check"),
    Probe("branching.increment_distribution", "branchfix.branching",
          "increment_distribution"),
    Probe("branching.renewal_measure_check", "branchfix.branching",
          "renewal_measure_check"),
    Probe("weights.atom_table", "branchfix.weights", "atom_table", _count_atoms),
    Probe("weights.characteristic_exponent", "branchfix.weights",
          "characteristic_exponent"),
    Probe("weights.moment_m", "branchfix.weights", "moment_m"),
    Probe("weights.detect_lattice", "branchfix.weights", "detect_lattice"),
    Probe("weights.check_assumptions", "branchfix.weights", "check_assumptions"),
    Probe("curves.eval_many", "branchfix.curves", "_MonotoneCurve.eval_many",
          _count_clamped),
    Probe("fixpoint.fixed_point_residual", "branchfix.fixpoint",
          "fixed_point_residual", _count_len("residuals")),
    Probe("fixpoint.mixture_residual_report", "branchfix.fixpoint",
          "mixture_residual_report", _count_len("points")),
    Probe("fixpoint.build_weibull_mixture", "branchfix.fixpoint",
          "build_weibull_mixture"),
    Probe("fixpoint.build_stable_mixture", "branchfix.fixpoint",
          "build_stable_mixture"),
    Probe("fixpoint.regularity_diagnostic", "branchfix.fixpoint",
          "regularity_diagnostic"),
    Probe("cascade.exact_threshold_chain", "branchfix.cascade",
          "exact_threshold_chain", _count_chain),
    Probe("cascade.explicit_solution", "branchfix.cascade", "explicit_solution"),
    Probe("cascade.extend_from_seed", "branchfix.cascade", "extend_from_seed",
          _count_len("values")),
    Probe("cascade.step_identity_residual", "branchfix.cascade",
          "step_identity_residual"),
    Probe("cascade.curve_step_residuals", "branchfix.cascade",
          "curve_step_residuals"),
    Probe("cascade.escape_check", "branchfix.cascade", "escape_check"),
    Probe("cli.main", "branchfix.cli", "main"),
    Probe("cli.parse_config", "branchfix.cli", "parse_config"),
)

SETUP_JOB = -1


def _resolve(probe: Probe):
    owner = sys.modules[probe.module]
    *path, leaf = probe.attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, leaf, getattr(owner, leaf)


class Tracer:
    """Records spans around :data:`PROBES` while installed."""

    def __init__(self):
        self.names = [p.name for p in PROBES]
        self.spans = []
        self.jobs = {}            # job id -> (start, end)
        self.job = SETUP_JOB
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack = None
        self._bindings = None     # [(owner, attr, original, wrapper)]

    # -- patching ---------------------------------------------------------

    def _find_bindings(self):
        bindings = []
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "branchfix" or name.startswith("branchfix."))]
        for idx, probe in enumerate(PROBES):
            owner, leaf, original = _resolve(probe)
            wrapper = self._wrap(idx, original, probe.count)
            if isinstance(owner, type):
                bindings.append((owner, leaf, original, wrapper))
                continue
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        bindings.append((mod, attr, original, wrapper))
        return bindings

    def install(self) -> None:
        """Patch every binding; the calling thread becomes the tracing thread."""
        if self._bindings is None:
            self._bindings = self._find_bindings()
        self._main_stack = self._stack()
        for owner, attr, _orig, wrapper in self._bindings:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _wrapper in self._bindings or ():
            setattr(owner, attr, original)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, idx: int, fn, count):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                main = tracer._main_stack
                parent = main[-1] if main and main is not stack else 0
            sid = next(tracer._ids)
            stack.append(sid)
            result = None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = perf_counter()
                stack.pop()
                c1, c2 = (0, 0) if count is None or result is None else count(args, kwargs, result)
                tracer.spans.append((sid, parent, idx, t0, t1, tracer.job, c1, c2))

        return wrapper

    # -- jobs -------------------------------------------------------------

    def record_job(self, job: int, start: float, end: float) -> None:
        self.jobs[job] = (start, end)

    def spans_by_job(self) -> dict:
        out = {}
        for span in self.spans:
            out.setdefault(span[5], []).append(span)
        return out

    def write(self, path) -> None:
        """Write every span as gzip CSV: name,start,end,parent,job,id,count1,count2."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("name,start_s,end_s,parent,job,id,count1,count2\n")
            for sid, parent, idx, t0, t1, job, c1, c2 in self.spans:
                fh.write(f"{self.names[idx]},{t0!r},{t1!r},{parent},{job},{sid},{c1},{c2}\n")


# ---------------------------------------------------------------------------
# per-job summaries
# ---------------------------------------------------------------------------


def _union_length(intervals) -> float:
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        elif hi > cur_hi:
            cur_hi = hi
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def exclusive_times(spans, nnames: int) -> list:
    """Self time per name: each instant goes to the innermost open spans."""
    name_of = {s[0]: s[2] for s in spans}
    parent_of = {s[0]: s[1] for s in spans}
    events = []
    for s in spans:
        events.append((s[3], 1, s[0]))
        events.append((s[4], 0, s[0]))
    events.sort(key=lambda e: (e[0], e[1]))
    self_t = [0.0] * nnames
    open_children = {}
    leaves = set()
    last = None
    for t, is_start, sid in events:
        if leaves:
            share = (t - last) / len(leaves)
            for leaf in leaves:
                self_t[name_of[leaf]] += share
        last = t
        parent = parent_of[sid]
        if is_start:
            open_children[sid] = 0
            leaves.add(sid)
            if parent in open_children:
                open_children[parent] += 1
                leaves.discard(parent)
        else:
            del open_children[sid]
            leaves.discard(sid)
            if parent in open_children:
                open_children[parent] -= 1
                if open_children[parent] == 0:
                    leaves.add(parent)
    return self_t


@dataclass
class JobSummary:
    """Per-name totals of one job's spans."""

    wall: float
    calls: list
    busy: list
    self_s: list
    count1: list
    count2: list
    covered: float = 0.0
    extra: dict = field(default_factory=dict)

    @property
    def coverage(self) -> float:
        return self.covered / self.wall if self.wall > 0.0 else 0.0


def summarize_job(spans, nnames: int, wall: float) -> JobSummary:
    calls = [0] * nnames
    c1 = [0.0] * nnames
    c2 = [0.0] * nnames
    per_name = [[] for _ in range(nnames)]
    for sid, parent, idx, t0, t1, _job, a, b in spans:
        calls[idx] += 1
        c1[idx] += a
        c2[idx] += b
        per_name[idx].append((t0, t1))
    busy = [_union_length(iv) for iv in per_name]
    self_s = exclusive_times(spans, nnames)
    covered = _union_length([(s[3], s[4]) for s in spans])
    return JobSummary(wall, calls, busy, self_s, c1, c2, covered)


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

# (metric, unit, source): source is (kind, span name[, span name]) where kind
# is the per-job quantity whose median over traced jobs is reported, or a
# ratio of totals over all traced jobs.
PER_LAYER = (
    ("seeding.mix64_np.busy_s", "s", ("busy", "seeding.mix64_np")),
    ("seeding.mix64_np.values", "count", ("count1", "seeding.mix64_np")),
    ("seeding.unit_uniforms_np.busy_s", "s", ("busy", "seeding.unit_uniforms_np")),
    ("branching.replicate_traces.self_s", "s", ("self", "branching.replicate_traces")),
    ("branching.replicate_traces.vertices", "count",
     ("count1", "branching.replicate_traces")),
    ("branching.replicate_traces.vertices_per_s", "1/s",
     ("rate", "branching.replicate_traces")),
    ("branching.sample_W_limit.self_s", "s", ("self", "branching.sample_W_limit")),
    ("branching.EmpiricalLaplace.evaluate_tail.busy_s", "s",
     ("busy", "branching.EmpiricalLaplace.evaluate_tail")),
    ("branching.EmpiricalLaplace.evaluate_tail.evaluations", "count",
     ("count1", "branching.EmpiricalLaplace.evaluate_tail")),
    ("fixpoint.mixture_residual_report.busy_s", "s",
     ("busy", "fixpoint.mixture_residual_report")),
    ("fixpoint.mixture_residual_report.points", "count",
     ("count1", "fixpoint.mixture_residual_report")),
    ("fixpoint.build_weibull_mixture.busy_s", "s", ("busy", "fixpoint.build_weibull_mixture")),
    ("fixpoint.regularity_diagnostic.busy_s", "s", ("busy", "fixpoint.regularity_diagnostic")),
    ("weights.atom_table.calls", "count", ("calls", "weights.atom_table")),
    ("weights.atom_table.atoms", "count", ("count1", "weights.atom_table")),
    ("weights.atom_table.busy_s", "s", ("busy", "weights.atom_table")),
    ("fixpoint.fixed_point_residual.self_s", "s", ("self", "fixpoint.fixed_point_residual")),
    ("fixpoint.fixed_point_residual.points", "count",
     ("count1", "fixpoint.fixed_point_residual")),
    ("fixpoint.fixed_point_residual.points_per_s", "1/s",
     ("rate", "fixpoint.fixed_point_residual")),
    ("curves.eval_many.calls", "count", ("calls", "curves.eval_many")),
    ("curves.eval_many.points", "count", ("count1", "curves.eval_many")),
    ("curves.eval_many.busy_s", "s", ("busy", "curves.eval_many")),
    ("curves.clamped_frac", "frac", ("frac", "curves.eval_many")),
    ("cascade.exact_threshold_chain.busy_s", "s", ("busy", "cascade.exact_threshold_chain")),
    ("cascade.exact_threshold_chain.cells", "count",
     ("count1", "cascade.exact_threshold_chain")),
    ("cascade.exact_threshold_chain.exact_frac", "frac",
     ("frac", "cascade.exact_threshold_chain")),
    ("cascade.explicit_solution.self_s", "s", ("self", "cascade.explicit_solution")),
    ("cascade.extend_from_seed.busy_s", "s", ("busy", "cascade.extend_from_seed")),
    ("cascade.extend_from_seed.cells", "count", ("count1", "cascade.extend_from_seed")),
    ("cascade.step_identity_residual.busy_s", "s",
     ("busy", "cascade.step_identity_residual")),
    ("cascade.escape_check.busy_s", "s", ("busy", "cascade.escape_check")),
    ("cli.main.self_s", "s", ("self", "cli.main")),
    ("cli.csv_rows", "count", ("extra", "csv_rows")),
    ("cli.csv_bytes", "count", ("extra", "csv_bytes")),
    ("cli.rows_per_self_s", "1/s", ("extra_rate", "csv_rows", "cli.main")),
    ("cli.parse_config.busy_s", "s", ("busy", "cli.parse_config")),
    ("weights.characteristic_exponent.busy_s", "s",
     ("setup_busy", "weights.characteristic_exponent")),
    ("trace.overhead_frac", "frac", ("overhead",)),
    ("trace.span_coverage", "frac", ("coverage",)),
)


def layer_metrics(names, jobs, setup, traced_times, untraced_times) -> dict:
    """Per-layer metric values from traced job summaries.

    ``jobs`` are the traced jobs' :class:`JobSummary` objects, ``setup`` the
    summary of the traced in-process set-up.  Per-job quantities are medians
    over traced jobs; rates and fractions are ratios of totals over them.
    """
    index = {n: i for i, n in enumerate(names)}

    def med(values):
        return float(statistics.median(values)) if values else 0.0

    def ratio(num, den):
        return float(num / den) if den > 0.0 else 0.0

    out = {}
    for metric, unit, (kind, *refs) in PER_LAYER:
        if kind == "overhead":
            value = ratio(med(traced_times), med(untraced_times)) - 1.0 \
                if untraced_times else 0.0
        elif kind == "coverage":
            value = min((j.coverage for j in jobs), default=0.0)
        elif kind == "setup_busy":
            value = setup.busy[index[refs[0]]] if setup is not None else 0.0
        elif kind == "extra":
            value = med([j.extra.get(refs[0], 0.0) for j in jobs])
        elif kind == "extra_rate":
            value = ratio(sum(j.extra.get(refs[0], 0.0) for j in jobs),
                          sum(j.self_s[index[refs[1]]] for j in jobs))
        else:
            i = index[refs[0]]
            if kind == "rate":
                value = ratio(sum(j.count1[i] for j in jobs), sum(j.busy[i] for j in jobs))
            elif kind == "frac":
                value = ratio(sum(j.count2[i] for j in jobs), sum(j.count1[i] for j in jobs))
            else:
                attr = {"busy": "busy", "self": "self_s", "calls": "calls",
                        "count1": "count1"}[kind]
                value = med([getattr(j, attr)[i] for j in jobs])
        out[metric] = {"value": float(value), "unit": unit}
    return out
