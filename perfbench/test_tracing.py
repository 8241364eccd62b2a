"""Self-time arithmetic and span recording of the traced benchmark run.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import child
import tracing


def span(sid, start, end, parent=None, name="x", pid=1, **tags):
    return {"id": sid, "name": name, "start": start, "end": end, "parent": parent, "pid": pid, **tags}


def test_nested_spans_subtract_only_direct_children():
    spans = [span("a", 0, 100), span("b", 10, 60, "a"), span("c", 20, 30, "b")]
    assert tracing.self_times(spans) == {"a": 50, "b": 40, "c": 10}


def test_sibling_spans_are_each_subtracted():
    spans = [span("a", 0, 100), span("b", 10, 30, "a"), span("c", 40, 70, "a")]
    assert tracing.self_times(spans)["a"] == 50


def test_overlapping_children_count_once_and_clip_to_parent():
    spans = [span("a", 10, 100), span("b", 0, 40, "a"), span("c", 30, 50, "a"), span("d", 90, 120, "a")]
    # children cover [10, 50) and [90, 100) inside the parent
    assert tracing.self_times(spans)["a"] == 90 - 40 - 10


def test_percentile_nearest_rank():
    values = list(range(1, 101))
    assert tracing.percentile(values, 50) == 50
    assert tracing.percentile(values, 90) == 90
    assert tracing.percentile([], 90) == 0.0


class Layer:
    def outer(self, n):
        return self.inner(n) + 1

    def inner(self, n):
        if n < 0:
            raise ValueError(n)
        return n


def test_recorder_nests_spans_and_restores_originals(tmp_path):
    recorder = tracing.Recorder(tmp_path)
    outer, inner = Layer.__dict__["outer"], Layer.__dict__["inner"]
    recorder.install([
        (Layer, "outer", "outer", None),
        (Layer, "inner", "inner", lambda args, result: {"n": args[1]}),
    ])
    assert Layer().outer(3) == 4
    with pytest.raises(ValueError):
        Layer().inner(-1)
    recorder.uninstall()
    assert Layer.__dict__["outer"] is outer and Layer.__dict__["inner"] is inner

    spans = recorder.collect()
    by_name = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)
    (top,) = by_name["outer"]
    nested, failed = by_name["inner"]
    assert top["parent"] is None and nested["parent"] == top["id"]
    assert nested["n"] == 3 and failed["error"] and failed["parent"] is None
    assert len(spans) == 3
    selfs = tracing.self_times(spans)
    assert selfs[top["id"]] == tracing.duration(top) - tracing.duration(nested)


def test_layer_metrics_count_retries_and_failures_per_repetition():
    def job(sid, start, key, error=False):
        s = span(sid, start, start + 5, f"b{1 + start // 200}", name="exec.job", job=key)
        return {**s, "error": True} if error else s

    reps = [(0, 100), (200, 300)]
    spans = [
        span("b1", 0, 100, name="exec.run_jobs", jobs=2),
        job("j1", 10, "k1", error=True), job("j2", 20, "k1"), job("j3", 30, "k2"),
        span("b2", 200, 300, name="exec.run_jobs", jobs=2),
        job("j4", 210, "k1"), job("j5", 220, "k2", error=True),
    ]
    out = tracing.layer_metrics(spans, [], reps, jobs_per_rep=2, traces_per_rep=1,
                                workers=1, parent_pid=1, extra={})
    assert out["exec.retries"] == 0.5  # one retry over two repetitions
    assert out["exec.failed"] == 0.5  # k2 never succeeded in the second
    assert out["exec.job.calls"] == 2.5
    assert out["exec.self_ms_per_job"] == pytest.approx((100 - 15 + 100 - 10) / 1e6 / 4)


def test_benchmark_json_names_what_the_harness_prints():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == child.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(child.WORKLOADS)
