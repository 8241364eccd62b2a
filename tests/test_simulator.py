"""Tests for the Simulator facade, filter factory, and SimulationResult."""

import pytest

from repro.common.config import FilterKind, SimulationConfig
from repro.core.simulator import SimulationResult, Simulator, build_filter, run_simulation
from repro.common.stats import Stats
from repro.filters.adaptive import AdaptiveFilter
from repro.filters.null_filter import NullFilter
from repro.filters.pa_filter import PAFilter
from repro.filters.pc_filter import PCFilter


def run_workload_ipc(name: str, cfg: SimulationConfig, engine: str) -> float:
    from repro.workloads import build_trace

    trace = build_trace(name, 25_000, seed=1)
    return run_simulation(cfg, trace, engine=engine).ipc


class TestBuildFilter:
    @pytest.mark.parametrize(
        "kind,cls",
        [
            (FilterKind.NONE, NullFilter),
            (FilterKind.PA, PAFilter),
            (FilterKind.PC, PCFilter),
            (FilterKind.ADAPTIVE, AdaptiveFilter),
        ],
    )
    def test_dynamic_kinds(self, kind, cls):
        cfg = SimulationConfig.paper_default(kind)
        assert isinstance(build_filter(cfg, Stats()), cls)

    @pytest.mark.parametrize("kind", [FilterKind.STATIC, FilterKind.ORACLE])
    def test_two_pass_kinds_rejected(self, kind):
        cfg = SimulationConfig.paper_default(kind)
        with pytest.raises(ValueError):
            build_filter(cfg, Stats())

    def test_table_geometry_propagated(self):
        cfg = SimulationConfig.paper_default(FilterKind.PA).with_filter(table_entries=1024)
        f = build_filter(cfg, Stats())
        assert f.table.entries == 1024


class TestSimulatorRun:
    def test_result_fields(self, em3d_trace, small_config):
        r = run_simulation(small_config, em3d_trace)
        assert isinstance(r, SimulationResult)
        assert r.trace_name == "em3d"
        assert r.filter_name == "none"
        assert r.instructions == len(em3d_trace)
        assert r.cycles > 0
        assert 0 < r.ipc < small_config.processor.issue_width
        assert 0 <= r.l1_miss_rate <= 1
        assert 0 <= r.l2_miss_rate <= 1

    def test_custom_filter_instance(self, em3d_trace, small_config):
        f = PAFilter(entries=64)
        r = run_simulation(small_config, em3d_trace, filter_=f)
        assert r.filter_name == "pa"

    def test_fresh_state_per_simulator(self, em3d_trace, small_config):
        a = Simulator(small_config).run(em3d_trace)
        b = Simulator(small_config).run(em3d_trace)
        assert a.cycles == b.cycles

    def test_traffic_split_consistency(self, ijpeg_trace, small_config):
        r = run_simulation(small_config, ijpeg_trace)
        assert r.l1_prefetch_fills == r.prefetch.issued
        assert r.demand_line_traffic > 0

    def test_prefetch_to_normal_ratio(self, ijpeg_trace, small_config):
        r = run_simulation(small_config, ijpeg_trace)
        assert r.prefetch_to_normal_ratio == pytest.approx(
            r.l1_prefetch_fills / r.l1_demand_accesses
        )

    def test_interval_engine_runs(self, em3d_trace, small_config):
        r = run_simulation(small_config, em3d_trace, engine="interval")
        assert r.cycles > 0

    def test_unknown_engine(self, em3d_trace, small_config):
        with pytest.raises(ValueError):
            Simulator(small_config, engine="cycle_accurate")

    def test_interval_pipeline_agree_directionally(self):
        """The interval engine must preserve the orderings sweeps rely on.

        Measured past the init/warmup region, where both engines see steady
        state: the cache-friendly FP benchmark must rank far above the
        pointer-chasing one under either engine.
        """
        from repro.common.config import SimulationConfig

        cfg = SimulationConfig.paper_default().with_warmup(10_000)
        pipe_hot = run_workload_ipc("fpppp", cfg, "pipeline")
        pipe_cold = run_workload_ipc("mcf", cfg, "pipeline")
        int_hot = run_workload_ipc("fpppp", cfg, "interval")
        int_cold = run_workload_ipc("mcf", cfg, "interval")
        assert pipe_hot > pipe_cold
        assert int_hot > int_cold


class TestTeardown:
    """A finished run leaves no reference cycles behind.

    Each machine is wired with callbacks that point back at it (eviction
    feedback, the warmup hook, stats flush hooks).  ``Simulator.run``
    unhooks them all, so the whole machine is freed by refcount the
    moment the caller drops it; nothing waits for the cyclic collector.
    """

    @pytest.mark.parametrize(
        "engine,kind",
        [
            ("pipeline", FilterKind.PC),
            ("vector", FilterKind.PC),
            ("kernel", FilterKind.PC),
            # The two-pass protocols build their own filters.
            ("pipeline", FilterKind.ORACLE),
            ("vector", FilterKind.STATIC),
        ],
    )
    def test_one_job_leaves_no_cyclic_garbage(self, engine, kind):
        import gc
        import warnings

        from repro.analysis.sweep import run_workload

        cfg = SimulationConfig.paper_default(kind).with_warmup(4_000)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # kernel leg notice
            run_workload("em3d", cfg, 10_000, 0, engine)  # imports, trace, kernel load
            gc.collect()
            gc.disable()
            try:
                result = run_workload("em3d", cfg, 10_000, 0, engine)
                unreachable = gc.collect()
            finally:
                gc.enable()
        assert result.cycles > 0
        assert unreachable == 0

    def test_second_run_fails_loudly(self, em3d_trace, small_config):
        sim = Simulator(small_config)
        first = sim.run(em3d_trace)
        with pytest.raises(RuntimeError, match="fresh Simulator"):
            sim.run(em3d_trace)
        assert Simulator(small_config).run(em3d_trace).cycles == first.cycles

    def test_teardown_runs_when_the_engine_raises(self, em3d_trace):
        cfg = SimulationConfig.paper_default(FilterKind.ADAPTIVE)
        sim = Simulator(cfg, engine="kernel")
        with pytest.raises(ValueError, match="kernel engine"):
            sim.run(em3d_trace)
        hierarchy = sim.hierarchy
        assert hierarchy.l1.on_evict is None and hierarchy.l2.on_evict is None
        assert hierarchy.on_buffer_evict is None and sim.engine.on_warmup is None
        with pytest.raises(RuntimeError):
            sim.run(em3d_trace)
