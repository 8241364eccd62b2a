"""One measured benchmark run, in the fresh interpreter ``run.py`` starts.

The run sets its workload up :data:`SETUPS` times (each in a fresh
directory, keeping the last), then repeats the measured phase until
``--seconds`` have passed and at least :data:`MIN_REPS` repetitions ran.
Every repetition submits the whole batch through one closed-loop client
(a single process that waits for the batch) and gets a fresh result
cache and journal.  End-to-end metrics are medians over repetitions,
with times scaled to a reference host speed (:func:`calibration_seconds`).

With ``--trace 1`` untraced and traced repetitions alternate; the
per-layer metrics come from the traced ones and the untraced ones give
the tracing overhead.

The last stdout line is one JSON object: ``correct``, ``attempted``,
``failed``, ``metrics`` and a ``log`` for ``run.py``.  ``--prepare``
instead imports everything and builds the C kernel leg once (run before
any timed process); ``--compile-probe`` times a first load of that leg
into the (empty) kernel cache named by ``REPRO_CACHE_DIR``.
"""

from __future__ import annotations

import argparse
import gc
import json
import multiprocessing
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

SETUPS = 5
MIN_REPS = 3
#: Each kind of repetition in a traced run (traced, untraced) runs at least this often.
MIN_TRACED_REPS = 2
#: Calibration samples taken before every set-up and every repetition.
CALIBRATIONS_PER_STEP = 5
#: Size of the buffer :func:`calibration_seconds` reads; it counts in
#: ``peak_rss_mb``.
CALIBRATION_BUFFER_BYTES = 4 << 20
#: Mean CPU seconds of one :func:`calibration_seconds` sample on the
#: reference host (a shared 2-vCPU VM at its usual speed).
CALIBRATION_REF_S = 0.016
#: How much of the calibration's slowdown the program's own jobs show,
#: as an exponent.  Measured on the reference host by alternating
#: calibration samples with single jobs: in the slower half of the
#: samples, which ran 1.46x slower, kernel-grid jobs ran 1.30x and
#: pipeline jobs 1.27x slower, a log ratio of 0.62-0.70.
CALIBRATION_SENSITIVITY = 0.7

_calibration_buffer = None

WORKLOADS = ("figures-pipeline", "sweep-kernel-cold", "sweep-fanout")

END_TO_END_UNITS = {
    "jobs_per_s": "1/s",
    "cpu_ms_per_job": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "ok_frac": "frac",
}


class FiguresPipeline:
    """``ExperimentSuite.run_all(["f4", "f5", "f6"])`` on the pipeline engine."""

    workers = 1

    def __init__(self, variant: int, reference: Dict) -> None:
        import grids
        from repro.workloads import workload_names

        self.variant = variant
        self.expected = reference["variants"][str(variant)]["figures"]
        self.jobs = len(workload_names()) * len(grids.FIGURE_FILTERS)

    def setup(self, root: Path) -> None:
        import grids
        from repro.workloads import cached_trace, workload_names

        # ExperimentSuite reads traces through this memo; clearing it makes
        # every set-up synthesise them again.
        cached_trace.cache_clear()
        for workload in workload_names():
            cached_trace(workload, grids.FIGURE_INSTS, self.variant, True)

    def run(self, root: Path):
        import grids
        from repro.analysis.result_cache import ResultCache

        suite = grids.figure_suite(self.variant, ResultCache(root / "cache"))
        return suite, suite.run_all(grids.FIGURE_IDS)

    def check(self, outcome) -> Tuple[int, bool]:
        import grids

        suite, experiments = outcome
        ok = grids.matching(grids.figure_results(suite), self.expected["jobs"])
        return ok, grids.table_values(experiments) == self.expected["tables"]


class KernelSweep:
    """The 300-job kernel grid through ``run_jobs`` with a TraceStore,
    a fresh ResultCache and a RunJournal: cold (serial) or fan-out
    (``pool``, one worker per CPU)."""

    def __init__(self, variant: int, reference: Dict, mode: str) -> None:
        import grids

        self.variant = variant
        self.labelled = grids.kernel_grid(variant)
        self.batch = [job for _, job in self.labelled]
        self.jobs = len(self.batch)
        self.expected = reference["variants"][str(variant)]["kernel_grid"]
        self.workers = (os.cpu_count() or 1) if mode == "fanout" else 1

    def setup(self, root: Path) -> None:
        import grids
        from repro.trace.store import TraceStore
        from repro.workloads import workload_names

        self.store = TraceStore(root / "traces")
        for workload in workload_names():
            self.store.get_or_build(workload, grids.KERNEL_INSTS, self.variant, True)

    def run(self, root: Path):
        from repro.analysis import parallel
        from repro.analysis.checkpoint import RunJournal
        from repro.analysis.result_cache import ResultCache

        return parallel.run_jobs(
            self.batch,
            workers=self.workers,
            cache=ResultCache(root / "cache"),
            trace_store=self.store,
            journal=RunJournal(root / "journal.jsonl"),
            return_report=True,
        )

    def check(self, report) -> Tuple[int, bool]:
        import grids

        results = [(label, o.result if o.ok else None)
                   for (label, _), o in zip(self.labelled, report.outcomes)]
        return grids.matching(results, self.expected), True


def make_workload(name: str, variant: int, reference: Dict):
    if name == "figures-pipeline":
        return FiguresPipeline(variant, reference)
    return KernelSweep(variant, reference, name.rsplit("-", 1)[-1])


def steal_seconds() -> float:
    """CPU steal summed over this host's CPUs so far (``/proc/stat``).

    Steal is time the hypervisor gave the VM's CPUs to someone else.
    Where the counter is unreadable no steal is assumed.
    """
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def host_seconds(wall: float, steal: float) -> float:
    """``wall`` less the steal over it, averaged per CPU.

    On a shared 2-vCPU host, steal varies from nothing to 40% of the CPU
    time over minutes.  Timings here measure the program, not its
    neighbours, so every wall time is charged only for the time the
    host actually ran this VM.
    """
    return wall - steal / (os.cpu_count() or 1)


def calibration_seconds() -> float:
    """CPU seconds this thread takes for a fixed piece of work.

    The work is a pure-Python loop of random reads from a buffer larger
    than a core's share of the cache, so it slows both when a neighbour
    shares the core and when neighbours evict the cache, as the
    program's jobs do.  It runs none of the program's code, so no change
    to the program moves it.  CPU time excludes steal here, as the guest
    kernel accounts steal apart from process time.  The garbage
    collector is off meanwhile, so the sample does not depend on how
    many objects the run has left alive.
    """
    global _calibration_buffer
    if _calibration_buffer is None:
        _calibration_buffer = bytes(range(256)) * (CALIBRATION_BUFFER_BYTES // 256)
    buf = _calibration_buffer
    size = len(buf)
    gc.disable()
    try:
        start = time.thread_time()
        index = total = 1
        for _ in range(60_000):
            index = (index * 1103515245 + 12345) & 0x7FFFFFFF
            total += buf[index % size]
        return time.thread_time() - start
    finally:
        gc.enable()


def calibrate(samples: List[float]) -> None:
    samples.extend(calibration_seconds() for _ in range(CALIBRATIONS_PER_STEP))


def cpu_seconds() -> Tuple[float, float]:
    """CPU time of this process, and of its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime, kids.ru_utime + kids.ru_stime


def reap_workers() -> None:
    """Wait for pool workers that ``run_jobs`` left exiting.

    The pool phase ends with ``shutdown(wait=False)``, so its workers may
    still be alive when ``run_jobs`` returns; ``RUSAGE_CHILDREN`` counts
    them only once they are reaped.
    """
    for proc in multiprocessing.active_children():
        proc.join()


def check_reference(reference: Dict, leg: str) -> str:
    """Why the committed reference cannot judge this run, or ''."""
    import grids

    expected = grids.reference_header(leg)
    for key, value in expected.items():
        if reference.get(key) != value:
            return (f"reference {key}={reference.get(key)!r} but this run has {value!r}; "
                    "runs on different kernel legs or models are not compared")
    return ""


def measure(args) -> Dict:
    import grids
    from repro.core.kernel import select_mode

    leg = select_mode()
    reference = grids.load_reference()
    refusal = check_reference(reference, leg)
    if refusal:
        raise SystemExit(f"perfbench: {refusal}")
    variant = grids.variant_of(args.seed)
    workload = make_workload(args.workload, variant, reference)
    work = Path(args.work)

    recorder = targets = None
    if args.trace:
        import tracing

        recorder = tracing.Recorder(work / "spans")
        recorder.install(tracing.repro_targets())

    setups: List[Tuple[int, int]] = []
    setup_s: List[float] = []
    calibration: List[float] = []
    started = time.monotonic()
    started_steal = steal_seconds()
    for i in range(SETUPS):
        root = work / f"setup-{i}"
        calibrate(calibration)
        steal0 = steal_seconds()
        start = time.perf_counter_ns()
        workload.setup(root)
        setups.append((start, time.perf_counter_ns()))
        setup_s.append(host_seconds((setups[-1][1] - start) / 1e9, steal_seconds() - steal0))
        if i:
            shutil.rmtree(work / f"setup-{i - 1}", ignore_errors=True)
    if recorder is not None:
        recorder.uninstall()
        targets = tracing.repro_targets()

    reps: List[Dict] = []
    began = time.perf_counter()

    def more() -> bool:
        if args.trace:
            kinds = [r["traced"] for r in reps]
            if kinds.count(True) < MIN_TRACED_REPS or kinds.count(False) < MIN_TRACED_REPS:
                return True
        elif len(reps) < MIN_REPS:
            return True
        return time.perf_counter() - began < args.seconds

    while more():
        root = work / f"rep-{len(reps)}"
        traced = bool(args.trace) and len(reps) % 2 == 1
        calibrate(calibration)
        if traced:
            recorder.install(targets)
        own0, kids0 = cpu_seconds()
        steal0 = steal_seconds()
        start = time.perf_counter_ns()
        outcome = workload.run(root)
        end = time.perf_counter_ns()
        steal = steal_seconds() - steal0
        if traced:
            recorder.uninstall()
        reap_workers()
        own1, kids1 = cpu_seconds()
        ok, tables_ok = workload.check(outcome)
        shutil.rmtree(root, ignore_errors=True)
        reps.append({
            "traced": traced,
            "window": (start, end),
            "jobs_per_s": workload.jobs / host_seconds((end - start) / 1e9, steal),
            "cpu_ms_per_job": ((own1 - own0) + (kids1 - kids0)) * 1e3 / workload.jobs,
            "parent_cpu_ms_per_job": (own1 - own0) * 1e3 / workload.jobs,
            "steal_s": steal,
            "ok": ok,
            "tables_ok": tables_ok,
        })

    plain = [r for r in reps if not r["traced"]]
    # Times are reported as the reference host would have taken them.
    # The mean, not the median: the host switches between a slow and a
    # fast state many times a second, and a repetition's time is the
    # mixture of both.
    speed = (CALIBRATION_REF_S / statistics.mean(calibration)) ** CALIBRATION_SENSITIVITY
    attempted = workload.jobs * len(reps)
    ok_total = sum(r["ok"] for r in reps)
    correct = ok_total == attempted and all(r["tables_ok"] for r in reps)

    if args.trace:
        import tracing

        traced = [r for r in reps if r["traced"]]
        extra = {
            "engine.kernel.compile_s": args.compile_s,
            "fanout.parent_cpu_ms_per_job": statistics.median(r["parent_cpu_ms_per_job"] for r in plain),
            "tracing.jobs_per_s_ratio": statistics.median(r["jobs_per_s"] for r in traced)
            / statistics.median(r["jobs_per_s"] for r in plain),
        }
        values = tracing.layer_metrics(
            recorder.collect(),
            setups,
            [r["window"] for r in traced],
            workload.jobs,
            traces_per_rep=10,
            workers=workload.workers,
            parent_pid=os.getpid(),
            extra=extra,
        )
        units = tracing.PER_LAYER_UNITS
    else:
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        values = {
            "jobs_per_s": statistics.median(r["jobs_per_s"] for r in plain) / speed,
            "cpu_ms_per_job": statistics.median(r["cpu_ms_per_job"] for r in plain) * speed,
            "setup_s": (host_seconds(started - args.t0, started_steal - args.steal0)
                        + statistics.median(setup_s)) * speed,
            "peak_rss_mb": (own + kids) / 1024,
            "ok_frac": ok_total / attempted,
        }
        units = END_TO_END_UNITS
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": attempted - ok_total,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
        "log": {
            "variant": variant,
            "kernel_leg": leg,
            "reps": len(reps),
            "speed": round(speed, 4),
            "calibration_ms": {
                "mean": round(statistics.mean(calibration) * 1e3, 3),
                "quartiles": [round(q * 1e3, 3) for q in statistics.quantiles(calibration, n=4)],
            },
            "setup_s": [round(s, 4) for s in setup_s],
            "jobs_per_s": [round(r["jobs_per_s"], 2) for r in reps],
            "cpu_ms_per_job": [round(r["cpu_ms_per_job"], 4) for r in reps],
            "wall_s": [round((r["window"][1] - r["window"][0]) / 1e9, 4) for r in reps],
            "steal_s": [round(r["steal_s"], 3) for r in reps],
        },
    }


def prepare() -> Dict:
    """Import every module a run uses and build the C kernel leg once."""
    import grids  # noqa: F401 - imports the analysis, config and engine layers
    import tracing  # noqa: F401
    from repro.analysis import resilience, sweep  # noqa: F401
    from repro.core.kernel import select_mode

    return {"kernel_leg": select_mode()}


def compile_probe() -> Dict:
    from repro.core import _ckernel

    start = time.perf_counter()
    loaded = _ckernel.load() is not None
    return {"compile_s": time.perf_counter() - start if loaded else 0.0}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--prepare", action="store_true")
    parser.add_argument("--compile-probe", action="store_true")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, help="time.monotonic() when run.py started this process")
    parser.add_argument("--steal0", type=float, default=0.0, help="steal_seconds() at --t0")
    parser.add_argument("--work", help="work directory for this run")
    parser.add_argument("--compile-s", type=float, default=0.0)
    args = parser.parse_args(argv)
    if args.prepare:
        result = prepare()
    elif args.compile_probe:
        result = compile_probe()
    else:
        if args.workload is None or args.t0 is None or args.work is None:
            parser.error("--workload, --t0 and --work are required")
        result = measure(args)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
