"""Span recorder and per-layer metrics for the traced benchmark run.

Spans are recorded from the benchmark's own code.  :meth:`Recorder.install`
replaces each layer's public entry point, at the place its caller looks
it up, with a timing wrapper; :meth:`Recorder.uninstall` restores the
originals, so untraced repetitions run the program exactly as shipped.
``parallel.py`` imports ``run_key`` by name, for instance, so the key
layer is wrapped as ``SimulationJob.key`` rather than
``result_cache.run_key``.

A span is a dict with ``name``, ``id``, ``parent``, ``pid``, ``start``
and ``end`` (``perf_counter_ns``, i.e. CLOCK_MONOTONIC, so parent and
worker clocks agree) plus optional tags (``job``, ``engine``, ``insts``,
``hit``, ``jobs``, ``error``).  The parent keeps its spans in memory and
writes them once, at the end.  Forked pool workers inherit the wrappers
but leave through ``os._exit`` without running ``atexit`` hooks, so a
worker appends its spans to its own file each time a root span (one
job) closes.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

Span = Dict[str, object]
Tagger = Callable[[tuple, object], Dict[str, object]]

#: Spans timed per call; each gets ``.p50_ms``, ``.p90_ms`` and ``.calls``.
CALL_SPANS = (
    "trace.acquire",
    "trace.read",
    "trace.attach",
    "engine.kernel.run",
    "engine.pipeline.run",
    "cache.key",
    "cache.get",
    "cache.put",
    "journal.append",
    "exec.job",
)

#: Every per-layer metric a traced run prints, with its unit.
NAMED_METRICS = {
    "trace.synth_s": "s",
    "trace.acquire_ms_per_job": "ms",
    "trace.reads_per_trace": "count",
    "trace.share_ms": "ms",
    "trace.attach_ms_per_job": "ms",
    "engine.pipeline.sim_ms_per_job": "ms",
    "engine.pipeline.ns_per_inst": "ns/inst",
    "engine.kernel.sim_ms_per_job": "ms",
    "engine.kernel.ns_per_inst": "ns/inst",
    "engine.sim_insts": "count",
    "engine.kernel.compile_s": "s",
    "cache.key_ms_per_job": "ms",
    "cache.get_ms_per_call": "ms",
    "cache.put_ms_per_call": "ms",
    "cache.hit_frac": "frac",
    "journal.append_ms_per_call": "ms",
    "journal.appends_per_job": "count",
    "exec.self_ms_per_job": "ms",
    "exec.overhead_ratio": "ratio",
    "exec.retries": "count",
    "exec.failed": "count",
    "fanout.first_result_s": "s",
    "fanout.worker_busy_frac": "frac",
    "fanout.parent_cpu_ms_per_job": "ms",
    "experiments.fold_ms": "ms",
    "tracing.jobs_per_s_ratio": "ratio",
}

PER_LAYER_UNITS = dict(NAMED_METRICS)
for _name in CALL_SPANS:
    PER_LAYER_UNITS[f"{_name}.p50_ms"] = "ms"
    PER_LAYER_UNITS[f"{_name}.p90_ms"] = "ms"
    PER_LAYER_UNITS[f"{_name}.calls"] = "count"


class Recorder:
    """Collects spans from wrapped entry points in this process and its forks."""

    def __init__(self, out_dir: os.PathLike | str) -> None:
        self.out_dir = Path(out_dir)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.spans: List[Span] = []
        self._stack: List[Span] = []
        self._seq = 0
        self._owner_pid = os.getpid()
        self._patches: List[Tuple[object, str, object]] = []
        os.register_at_fork(after_in_child=self._forked)

    def _forked(self) -> None:
        # A forked worker starts with no open spans and none of the
        # parent's buffered ones; what it records it flushes itself.
        self.spans = []
        self._stack = []

    def wrap(self, name: str, fn: Callable, tag: Optional[Tagger] = None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            pid = os.getpid()
            span: Span = {
                "name": name,
                "id": f"{pid}.{self._seq}",
                "parent": self._stack[-1]["id"] if self._stack else None,
                "pid": pid,
            }
            self._seq += 1
            self._stack.append(span)
            span["start"] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span["end"] = time.perf_counter_ns()
                span["error"] = True
                self._close(span, tag, args, None)
                raise
            span["end"] = time.perf_counter_ns()
            self._close(span, tag, args, result)
            return result

        return traced

    def _close(self, span: Span, tag: Optional[Tagger], args: tuple, result: object) -> None:
        self._stack.pop()
        if tag is not None:
            span.update(tag(args, result))
        self.spans.append(span)
        if not self._stack and span["pid"] != self._owner_pid:
            self._flush_worker()

    def install(self, targets: Iterable[Tuple[object, str, str, Optional[Tagger]]]) -> None:
        """Wrap ``owner.attr`` as span ``name`` for each target."""
        for owner, attr, name, tag in targets:
            original = vars(owner)[attr]
            self._patches.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original, tag))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _flush_worker(self) -> None:
        with open(self.out_dir / f"spans-{os.getpid()}.jsonl", "a") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
        self.spans = []

    def collect(self) -> List[Span]:
        """This process's spans plus every span a worker flushed."""
        with open(self.out_dir / f"spans-{self._owner_pid}.jsonl", "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
        spans: List[Span] = []
        for path in sorted(self.out_dir.glob("spans-*.jsonl")):
            with open(path) as fh:
                spans.extend(json.loads(line) for line in fh if line.strip())
        return spans


def repro_targets() -> List[Tuple[object, str, str, Optional[Tagger]]]:
    """Each layer's public entry point, where its caller looks it up."""
    import repro.workloads
    from repro.analysis import experiments, parallel
    from repro.analysis.checkpoint import RunJournal
    from repro.analysis.result_cache import ResultCache
    from repro.core.simulator import Simulator
    from repro.trace.store import TraceStore

    job_key = parallel.SimulationJob.key  # the unwrapped one, for tags

    def engine_tag(args, result):
        return {"engine": args[0].engine_name, "insts": len(args[1])}

    def job_tag(args, result):
        return {"job": job_key(args[0])}

    def batch_tag(args, result):
        return {"jobs": len(args[0])}

    return [
        # traces
        (repro.workloads, "build_trace", "trace.build", None),
        (TraceStore, "get_or_build", "trace.acquire", None),
        (TraceStore, "get", "trace.read", None),
        (parallel, "share_trace", "trace.share", None),
        (parallel, "attach_trace", "trace.attach", None),
        # engines
        (Simulator, "run", "engine.run", engine_tag),
        # result cache and journal
        (parallel.SimulationJob, "key", "cache.key", None),
        (ResultCache, "get", "cache.get", lambda args, result: {"hit": result is not None}),
        (ResultCache, "put", "cache.put", None),
        (RunJournal, "record_success", "journal.append", None),
        (RunJournal, "record_failure", "journal.append", None),
        # execution
        (parallel, "run_jobs", "exec.run_jobs", batch_tag),
        (experiments, "run_jobs", "exec.run_jobs", batch_tag),
        (parallel, "execute_job", "exec.job", job_tag),
        # experiments
        (experiments.ExperimentSuite, "run_all", "experiments.run_all", None),
    ]


# ----------------------------------------------------------------------
# Analysis
# ----------------------------------------------------------------------
def duration(span: Span) -> int:
    return int(span["end"]) - int(span["start"])


def covered(intervals: Iterable[Tuple[int, int]], lo: int, hi: int) -> int:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: Sequence[Span]) -> Dict[str, int]:
    """Span id -> duration minus the time its direct children cover."""
    children: Dict[str, List[Tuple[int, int]]] = defaultdict(list)
    for span in spans:
        if span.get("parent") is not None:
            children[span["parent"]].append((int(span["start"]), int(span["end"])))
    return {
        span["id"]: duration(span) - covered(children[span["id"]], int(span["start"]), int(span["end"]))
        for span in spans
    }


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return float(ordered[int(rank) - 1])


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def call_name(span: Span) -> str:
    if span["name"] == "engine.run":
        return f"engine.{span['engine']}.run"
    return str(span["name"])


def within(spans: Sequence[Span], window: Tuple[int, int]) -> List[Span]:
    lo, hi = window
    return [s for s in spans if int(s["start"]) >= lo and int(s["end"]) <= hi]


def layer_metrics(
    spans: Sequence[Span],
    setup_windows: Sequence[Tuple[int, int]],
    rep_windows: Sequence[Tuple[int, int]],
    jobs_per_rep: int,
    traces_per_rep: int,
    workers: int,
    parent_pid: int,
    extra: Dict[str, float],
) -> Dict[str, float]:
    """Derive every per-layer metric from the spans of one traced run.

    ``rep_windows`` are the ``perf_counter_ns`` intervals of the traced
    repetitions; every rep submits ``jobs_per_rep`` jobs over
    ``traces_per_rep`` distinct traces.  ``extra`` carries the values
    measured outside the spans (compile time, parent CPU, overhead).
    Metrics of a layer the workload does not exercise read 0.
    """
    reps = len(rep_windows)
    jobs = jobs_per_rep * reps
    per_rep = [within(spans, w) for w in rep_windows]
    measured = [s for rep in per_rep for s in rep]
    selfs = self_times(spans)
    by_name: Dict[str, List[Span]] = defaultdict(list)
    for span in measured:
        by_name[call_name(span)].append(span)

    def total_ms(name: str) -> float:
        return sum(duration(s) for s in by_name[name]) / 1e6

    def engine(e: str) -> Tuple[float, float]:
        runs = by_name[f"engine.{e}.run"]
        ns = sum(duration(s) for s in runs)
        insts = sum(int(s["insts"]) for s in runs)
        return ratio(ns / 1e6, len(runs)), ratio(ns, insts)

    synth = [
        sum(duration(s) for s in within(spans, w) if s["name"] == "trace.build") / 1e9
        for w in setup_windows
    ]
    batches = by_name["exec.run_jobs"]
    gets = by_name["cache.get"]
    worker_jobs = [s for s in by_name["exec.job"] if s["pid"] != parent_pid]
    retries = failed = 0
    for rep in per_rep:
        attempts = [s for s in rep if s["name"] == "exec.job"]
        keys = {s["job"] for s in attempts}
        retries += len(attempts) - len(keys)
        failed += len(keys - {s["job"] for s in attempts if not s.get("error")})
    first_results = []
    for batch in batches:
        puts = [int(s["start"]) for s in by_name["cache.put"]
                if int(batch["start"]) <= int(s["start"]) <= int(batch["end"])]
        if puts:
            first_results.append((min(puts) - int(batch["start"])) / 1e9)
    pipe_ms, pipe_ns = engine("pipeline")
    kern_ms, kern_ns = engine("kernel")
    engine_ms = total_ms("engine.pipeline.run") + total_ms("engine.kernel.run")

    out = {
        "trace.synth_s": statistics.median(synth) if synth else 0.0,
        "trace.acquire_ms_per_job": ratio(total_ms("trace.acquire"), jobs),
        "trace.reads_per_trace": ratio(len(by_name["trace.read"]), traces_per_rep * reps),
        "trace.share_ms": ratio(total_ms("trace.share"), reps),
        "trace.attach_ms_per_job": ratio(total_ms("trace.attach"), jobs),
        "engine.pipeline.sim_ms_per_job": pipe_ms,
        "engine.pipeline.ns_per_inst": pipe_ns,
        "engine.kernel.sim_ms_per_job": kern_ms,
        "engine.kernel.ns_per_inst": kern_ns,
        "engine.sim_insts": ratio(
            sum(int(s["insts"]) for s in measured if s["name"] == "engine.run"), reps
        ),
        "cache.key_ms_per_job": ratio(total_ms("cache.key"), jobs),
        "cache.get_ms_per_call": percentile([duration(s) / 1e6 for s in gets], 50),
        "cache.put_ms_per_call": percentile([duration(s) / 1e6 for s in by_name["cache.put"]], 50),
        "cache.hit_frac": ratio(sum(1 for s in gets if s["hit"]), len(gets)),
        "journal.append_ms_per_call": percentile(
            [duration(s) / 1e6 for s in by_name["journal.append"]], 50
        ),
        "journal.appends_per_job": ratio(len(by_name["journal.append"]), jobs),
        "exec.self_ms_per_job": ratio(sum(selfs[s["id"]] for s in batches) / 1e6, jobs),
        "exec.overhead_ratio": ratio(total_ms("exec.run_jobs"), engine_ms),
        "exec.retries": ratio(retries, reps),
        "exec.failed": ratio(failed, reps),
        "fanout.first_result_s": statistics.median(first_results) if first_results and workers > 1 else 0.0,
        "fanout.worker_busy_frac": ratio(
            sum(duration(s) for s in worker_jobs) / 1e6, workers * total_ms("exec.run_jobs")
        ),
        "experiments.fold_ms": ratio(
            sum(selfs[s["id"]] for s in by_name["experiments.run_all"]) / 1e6, reps
        ),
    }
    out.update(extra)
    for name in CALL_SPANS:
        times = [duration(s) / 1e6 for s in by_name[name]]
        out[f"{name}.p50_ms"] = percentile(times, 50)
        out[f"{name}.p90_ms"] = percentile(times, 90)
        out[f"{name}.calls"] = ratio(len(times), reps)
    return out
