"""Kernel engine: bit-identity with the vector tier, legs, batch plumbing.

The kernel tier is a *lowering* of the vector engine — same functional
model, flat arrays instead of dict/closure state — so its fidelity
contract is stricter than the pipeline/vector one: every counter the
golden corpus locks must match the vector engine **bit-for-bit** on any
supported configuration, paper-default contention included.  Execution
legs (numba ``jit``, compiled-C ``cc``, interpreted ``interp``) share
one kernel source and must also agree exactly; only timing and the
recorded provenance id may differ between them.
"""

import pickle

import numpy as np
import pytest

import repro.core.kernel as kernel_mod
from repro.analysis.checkpoint import RunJournal
from repro.analysis.parallel import SimulationJob, run_jobs
from repro.analysis.resilience import RetryPolicy, execute_batch
from repro.analysis.sweep import run_workload
from repro.cli import main as cli_main
from repro.common.config import CacheConfig, FilterKind, SimulationConfig
from repro.common.faults import inject_faults
from repro.core.kernel import (
    MODE_CC,
    MODE_ENV,
    MODE_IDS,
    MODE_INTERP,
    MODE_JIT,
    KernelEngine,
    available_modes,
    select_mode,
)
from repro.core.simulator import Simulator
from repro.sanitize.differential import golden_counters, run_kernel_parity
from repro.workloads import workload_names

N = 25_000
FILTERS = (FilterKind.NONE, FilterKind.PA, FilterKind.PC)

#: Small backoffs keep the chaos test fast without changing semantics.
FAST = dict(backoff_base=0.02, backoff_max=0.1, jitter=0.25)


def _pair(workload, cfg, n=N, seed=0):
    v = run_workload(workload, cfg, n, seed, "vector")
    k = run_workload(workload, cfg, n, seed, "kernel")
    return v, k


def _assert_identical(label, v, k):
    """The kernel contract: the full golden counter vector, exactly."""
    expected, got = golden_counters(v), golden_counters(k)
    diffs = {key: (expected[key], got[key]) for key in expected if expected[key] != got[key]}
    assert not diffs, f"{label}: vector != kernel on {diffs}"
    assert v.prefetch == k.prefetch
    assert v.per_source == k.per_source


@pytest.fixture
def fresh_warnings():
    """Reset the process-wide warn-once set so a test can observe it."""
    saved = set(kernel_mod._warned)
    kernel_mod._warned.clear()
    yield
    kernel_mod._warned.clear()
    kernel_mod._warned.update(saved)


class TestBitIdentity:
    """Vector vs kernel on the paper-default machine: zero tolerance."""

    @pytest.mark.parametrize("workload", workload_names())
    @pytest.mark.parametrize("kind", FILTERS, ids=lambda k: k.value)
    def test_all_workloads_all_filters(self, workload, kind):
        cfg = SimulationConfig.paper_default(kind)
        v, k = _pair(workload, cfg)
        _assert_identical(f"{workload}/{kind.value}", v, k)

    def test_warmup_discards_the_same_prefix(self):
        cfg = SimulationConfig.paper_default(FilterKind.PA).with_warmup(N // 4)
        v, k = _pair("mcf", cfg)
        _assert_identical("warmup", v, k)

    def test_32kb_machine(self):
        cfg = SimulationConfig.paper_32kb(FilterKind.PC)
        v, k = _pair("gcc", cfg)
        _assert_identical("32kb", v, k)

    def test_oracle_report_agrees(self):
        report = run_kernel_parity("em3d", FilterKind.PA, n_insts=12_000)
        assert report.ok, report.mismatches
        assert report.kernel_mode in MODE_IDS

    def test_deterministic(self):
        cfg = SimulationConfig.paper_default(FilterKind.PA)
        a = run_workload("wave5", cfg, N, 0, "kernel")
        b = run_workload("wave5", cfg, N, 0, "kernel")
        assert a.cycles == b.cycles
        assert a.prefetch == b.prefetch
        assert a.stats.flat() == b.stats.flat()


class TestPropertySweep:
    """Seeded random configurations: identity must hold off the beaten
    path (odd geometries, table shapes, prefetcher subsets), not just on
    the two paper machines."""

    @staticmethod
    def _random_config(rng):
        l1_kb = int(rng.choice([4, 8, 16]))
        l1_assoc = int(rng.choice([1, 2, 4]))
        l2_kb = int(rng.choice([128, 256, 512]))
        l2_assoc = int(rng.choice([2, 4, 8]))
        bits = int(rng.integers(1, 4))
        top = (1 << bits) - 1
        kind = FilterKind(str(rng.choice(["none", "pa", "pc"])))
        cfg = (
            SimulationConfig.paper_default(kind)
            .with_l1(
                CacheConfig(
                    size_bytes=l1_kb * 1024, line_bytes=32, assoc=l1_assoc,
                    latency=1, ports=3,
                )
            )
            .with_filter(
                table_entries=int(rng.choice([256, 1024, 4096])),
                counter_bits=bits,
                initial_value=int(rng.integers(0, top + 1)),
                threshold=int(rng.integers(1, top + 1)),
            )
            .with_prefetch(
                nsp=bool(rng.integers(2)),
                sdp=bool(rng.integers(2)),
                degree=int(rng.integers(1, 5)),
            )
        )
        from dataclasses import replace

        l2 = CacheConfig(
            size_bytes=l2_kb * 1024, line_bytes=32, assoc=l2_assoc, latency=15, ports=1
        )
        return replace(cfg, hierarchy=replace(cfg.hierarchy, l2=l2)).validate()

    @pytest.mark.parametrize("seed", range(8))
    def test_random_config_is_bit_identical(self, seed):
        rng = np.random.default_rng(seed)
        cfg = self._random_config(rng)
        workload = str(rng.choice(["em3d", "gzip", "perimeter", "gap"]))
        v, k = _pair(workload, cfg, n=10_000, seed=seed)
        _assert_identical(f"sweep-{seed}/{workload}", v, k)


class TestExecutionLegs:
    """jit/cc/interp share one kernel source; counters never differ."""

    def test_interp_leg_matches_default(self, monkeypatch):
        cfg = SimulationConfig.paper_default(FilterKind.PA)
        default = run_workload("em3d", cfg, 12_000, 0, "kernel")
        monkeypatch.setenv(MODE_ENV, MODE_INTERP)
        interp = run_workload("em3d", cfg, 12_000, 0, "kernel")
        _assert_identical("interp-vs-default", default, interp)

    def test_cc_leg_matches_interp(self, monkeypatch):
        if MODE_CC not in available_modes():
            pytest.skip("no C compiler available to build the cc leg")
        cfg = SimulationConfig.paper_default(FilterKind.PC)
        monkeypatch.setenv(MODE_ENV, MODE_CC)
        cc = run_workload("mcf", cfg, 12_000, 0, "kernel")
        monkeypatch.setenv(MODE_ENV, MODE_INTERP)
        interp = run_workload("mcf", cfg, 12_000, 0, "kernel")
        _assert_identical("cc-vs-interp", cc, interp)
        # Provenance differs even though counters do not.
        assert cc.stats.flat()["pipeline.kernel_mode_id"] == MODE_IDS[MODE_CC]
        assert interp.stats.flat()["pipeline.kernel_mode_id"] == MODE_IDS[MODE_INTERP]

    def test_mode_is_recorded_in_result_payload(self):
        cfg = SimulationConfig.paper_default(FilterKind.NONE)
        r = run_workload("bh", cfg, 6_000, 0, "kernel")
        assert r.stats.flat()["pipeline.kernel_mode_id"] == MODE_IDS[select_mode()]

    def test_unknown_mode_env_is_rejected(self, monkeypatch):
        monkeypatch.setenv(MODE_ENV, "warp-drive")
        with pytest.raises(ValueError, match="REPRO_KERNEL_MODE"):
            select_mode()

    def test_numba_disable_env_gates_the_jit_leg(self, monkeypatch):
        import repro.core.kernels as krn

        monkeypatch.setenv("NUMBA_DISABLE_JIT", "1")
        assert not krn._jit_requested()
        monkeypatch.setenv("NUMBA_DISABLE_JIT", "0")
        assert krn._jit_requested()
        monkeypatch.delenv("NUMBA_DISABLE_JIT")
        assert krn._jit_requested()

    def test_missing_jit_degrades_with_one_warning(self, monkeypatch, fresh_warnings):
        # Simulate the numba-missing / NUMBA_DISABLE_JIT=1 import outcome
        # regardless of what this interpreter actually has installed.
        monkeypatch.delenv(MODE_ENV, raising=False)
        monkeypatch.setattr(kernel_mod.krn, "HAVE_JIT", False)
        with pytest.warns(RuntimeWarning, match="kernel engine"):
            mode = select_mode()
        assert mode != MODE_JIT
        # Warn-once: the second selection is silent.
        import warnings as _warnings

        with _warnings.catch_warnings():
            _warnings.simplefilter("error")
            assert select_mode() == mode

    def test_explicit_available_mode_is_silent(self, monkeypatch, fresh_warnings):
        monkeypatch.setenv(MODE_ENV, MODE_INTERP)
        import warnings as _warnings

        with _warnings.catch_warnings():
            _warnings.simplefilter("error")
            assert select_mode() == MODE_INTERP

    def test_unavailable_requested_mode_falls_back(self, monkeypatch, fresh_warnings):
        monkeypatch.setattr(kernel_mod.krn, "HAVE_JIT", False)
        monkeypatch.setenv(MODE_ENV, MODE_JIT)
        with pytest.warns(RuntimeWarning, match="unavailable"):
            mode = select_mode()
        assert mode == available_modes()[0]


class TestEngineSelection:
    def test_make_engine_builds_kernel(self):
        cfg = SimulationConfig.paper_default()
        sim = Simulator(cfg, engine="kernel")
        assert isinstance(sim.engine, KernelEngine)

    def test_config_engine_field_selects_kernel(self):
        cfg = SimulationConfig.paper_default().with_engine("kernel")
        assert cfg.validate() is cfg
        assert isinstance(Simulator(cfg).engine, KernelEngine)
        assert run_workload("em3d", cfg, 5_000).instructions > 0

    def test_cli_engine_flag(self, capsys):
        rc = cli_main(
            ["run", "--workload", "em3d", "--engine", "kernel", "--insts", "4000"]
        )
        assert rc == 0
        assert "workload" in capsys.readouterr().out

    def test_cli_bench_rejects_unknown_engine(self, capsys):
        rc = cli_main(["bench", "--engines", "pipeline,warp-drive"])
        assert rc == 2
        assert "unknown engine" in capsys.readouterr().err

    def test_stride_config_is_rejected(self):
        cfg = SimulationConfig.paper_default().with_prefetch(stride=True)
        with pytest.raises(ValueError, match="stride"):
            run_workload("em3d", cfg, 5_000, engine="kernel")

    def test_prefetch_buffer_config_is_rejected(self):
        cfg = SimulationConfig.paper_default().with_buffer(True)
        with pytest.raises(ValueError, match="buffer"):
            run_workload("em3d", cfg, 5_000, engine="kernel")

    def test_unsupported_filter_is_rejected(self):
        cfg = SimulationConfig.paper_default(FilterKind.ADAPTIVE)
        with pytest.raises(ValueError, match="filter"):
            run_workload("em3d", cfg, 5_000, engine="kernel")


class TestBatchExecution:
    """RL002: kernel jobs cross the process boundary as plain data."""

    @staticmethod
    def _jobs(n):
        cfg = SimulationConfig.paper_default(FilterKind.PA).with_warmup(1_000)
        return [SimulationJob("em3d", cfg, 3_000, seed, engine="kernel") for seed in range(n)]

    def test_jobs_are_picklable_and_pool_matches_serial(self):
        jobs = self._jobs(3)
        for job in jobs:
            assert pickle.loads(pickle.dumps(job)) == job
        serial = run_jobs(jobs, workers=1)
        for r in serial:
            assert pickle.loads(pickle.dumps(r)).prefetch == r.prefetch
        rerun = run_jobs(jobs, workers=1)
        for a, b in zip(serial, rerun):
            assert a.prefetch == b.prefetch and a.cycles == b.cycles

    def test_execute_batch_resumes_after_fault(self, tmp_path):
        jobs = self._jobs(3)
        clean = run_jobs(jobs, workers=1)
        journal = RunJournal(tmp_path / "kernel.jsonl")
        with inject_faults("raise@worker:match=|seed=1|"):
            report = execute_batch(
                jobs, workers=1, policy=RetryPolicy(max_attempts=2, **FAST), journal=journal
            )
        assert [o.ok for o in report.outcomes] == [True, False, True]
        # Resume (fault gone): survivors come from the journal, only the
        # victim executes, and the batch converges on the clean results.
        resumed = execute_batch(
            jobs, workers=1, journal=RunJournal(tmp_path / "kernel.jsonl")
        )
        assert all(o.ok for o in resumed.outcomes)
        assert sum(1 for o in resumed.outcomes if o.from_journal) == 2
        for a, b in zip(clean, resumed.results):
            assert a.prefetch == b.prefetch
            assert a.cycles == b.cycles
            assert a.stats.flat() == b.stats.flat()


class TestVerifyCli:
    def test_verify_includes_kernel_oracle(self, capsys):
        rc = cli_main(
            ["verify", "--workload", "em3d", "--filter", "pa", "--no-golden"]
        )
        out = capsys.readouterr().out
        assert rc == 0, out
        assert "kernel em3d/pa" in out
        assert "bit-identical to vector" in out


def test_kernel_is_materially_faster_than_vector():
    """Guard the perf point of the tier: the full bench is
    ``repro-sim bench --engines``; here a 2x floor over the vector engine
    catches an accidental fall-back to per-event execution while staying
    robust to CI timer noise.  Skipped on the interp leg — pure Python
    cannot promise a ratio."""
    import time

    from repro.workloads import cached_trace

    if select_mode() == MODE_INTERP:
        pytest.skip("no compiled leg available (interp only)")
    cfg = SimulationConfig.paper_default(FilterKind.PA)
    n = 120_000
    trace = cached_trace("em3d", n, 0)

    def best(engine):
        best_t = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            run_workload("em3d", cfg, n, 0, engine, trace=trace)
            best_t = min(best_t, time.perf_counter() - t0)
        return best_t

    assert best("vector") / best("kernel") > 2.0


def test_flat_cache_allocation_layout():
    """The array-state layout contract ``KernelState`` builds on."""
    from repro.mem.geometry import allocate_flat_cache

    cfg = CacheConfig(size_bytes=8 * 1024, line_bytes=32, assoc=4)
    arrays = allocate_flat_cache(cfg, flags=("dirty", "pib"), extra=("fid",))
    n = cfg.num_sets * cfg.ways
    assert arrays["tag"].dtype == np.int64 and arrays["tag"].shape == (n,)
    assert (arrays["tag"] == -1).all()
    assert arrays["stamp"].dtype == np.int64 and not arrays["stamp"].any()
    assert arrays["dirty"].dtype == np.uint8 and arrays["pib"].dtype == np.uint8
    assert arrays["fid"].dtype == np.int64


class TestPerTraceReuse:
    """Per-trace columns and the reused state arena change no counter,
    and live exactly as long as the trace they were derived from."""

    @staticmethod
    def _l2(cfg, kb):
        from dataclasses import replace

        l2 = replace(cfg.hierarchy.l2, size_bytes=kb * 1024)
        return replace(cfg, hierarchy=replace(cfg.hierarchy, l2=l2)).validate()

    @staticmethod
    def _vs_vector(label, workload, cfg, trace):
        v = run_workload(workload, cfg, len(trace), 0, "vector", trace=trace)
        k = run_workload(workload, cfg, len(trace), 0, "kernel", trace=trace)
        _assert_identical(label, v, k)

    def test_interleaved_traces_filters_and_geometries(self):
        from repro.workloads import build_trace

        traces = {w: build_trace(w, 10_000, seed=3) for w in ("em3d", "mcf")}
        base = SimulationConfig.paper_default(FilterKind.NONE).with_warmup(2_000)
        for workload in ("em3d", "mcf", "em3d"):
            for kind in FILTERS:
                for l2_kb in (512, 128):
                    for entries in (1024, 4096):
                        cfg = self._l2(base.with_filter(kind=kind, table_entries=entries), l2_kb)
                        self._vs_vector(
                            f"{workload}/{kind.value}/l2={l2_kb}k/t{entries}",
                            workload, cfg, traces[workload],
                        )

    def test_clean_run_after_a_sanitizer_trip_on_the_same_arena(self, monkeypatch):
        from repro.common.faults import inject_faults as faults
        from repro.sanitize import SanitizerViolation
        from repro.workloads import build_trace

        trace = build_trace("em3d", 8_000, seed=5)
        cfg = SimulationConfig.paper_default(FilterKind.PA)
        monkeypatch.setenv("REPRO_SANITIZE_INTERVAL", "512")
        with faults("invariant-trip@sanitizer"):
            with pytest.raises(SanitizerViolation):
                run_workload("em3d", cfg.with_sanitize(), len(trace), 0, "kernel", trace=trace)
        arena = kernel_mod._memo.arena
        assert arena is not None and arena.l1_rib[0] == 1  # the trip's residue
        self._vs_vector("after-trip", "em3d", cfg, trace)
        assert kernel_mod._memo.arena is arena  # reset in place, not rebuilt

    def test_trace_and_arena_die_together(self):
        import gc
        import weakref

        from repro.workloads import build_trace

        trace = build_trace("gzip", 6_000, seed=2)
        cfg = SimulationConfig.paper_default(FilterKind.PC)
        run_workload("gzip", cfg, len(trace), 0, "kernel", trace=trace)
        memo = kernel_mod._memo
        assert memo.ref() is trace
        arrays = [weakref.ref(a) for a in (memo.arena.l1_tag, memo.arena.dir_key)]
        arrays += [weakref.ref(a) for a in memo.cols + memo.fids]
        trace_ref = weakref.ref(trace)
        del trace, memo
        gc.collect()
        assert trace_ref() is None
        assert kernel_mod._memo is None
        assert all(ref() is None for ref in arrays)

    def test_columns_are_read_only_and_traces_still_pickle(self):
        from repro.workloads import build_trace

        trace = build_trace("em3d", 6_000, seed=4)
        cfg = SimulationConfig.paper_default(FilterKind.PA)
        run_workload("em3d", cfg, len(trace), 0, "kernel", trace=trace)
        memo = kernel_mod._memo
        for column in memo.cols + memo.fids:
            assert not column.flags.writeable
            with pytest.raises(ValueError):
                column[0] = 0
        copy = pickle.loads(pickle.dumps(trace))
        assert copy.name == trace.name
        for field in ("iclass", "pc", "addr", "taken"):
            a, b = getattr(trace, field), getattr(copy, field)
            assert a.dtype == b.dtype and np.array_equal(a, b)
        import weakref

        assert weakref.ref(copy)() is copy


class TestKernelFlush:
    """The in-kernel final flush agrees on every leg, saturation included."""

    @staticmethod
    def _state(fmode, seed):
        from repro.core import kernels as krn

        l1cfg = CacheConfig(size_bytes=4 * 1024, line_bytes=32, assoc=2)
        l2cfg = CacheConfig(size_bytes=16 * 1024, line_bytes=32, assoc=4)
        st = kernel_mod.KernelState(l1cfg, l2cfg, 1024)
        rng = np.random.default_rng(seed)
        n1 = len(st.l1_tag)
        valid = rng.random(n1) < 0.8
        st.l1_tag[:] = np.where(valid, np.arange(n1) // 2, -1)
        st.l1_pib[:] = rng.random(n1) < 0.6
        st.l1_rib[:] = st.l1_pib & (rng.random(n1) < 0.5)
        st.l1_src[:] = np.where(st.l1_pib != 0, rng.integers(1, 5, n1), 0)
        # Few table slots, many ways each, counters starting at both
        # rails: the saturating updates only agree in one way order.
        st.l1_fid[:] = rng.integers(0, 4, n1)
        st.tvals = np.array([0, 3, 1, 3], dtype=np.int64)
        st.P[krn.P_W1] = l1cfg.ways
        st.P[krn.P_L1MASK] = l1cfg.num_sets - 1
        st.P[krn.P_FMODE] = fmode
        st.P[krn.P_MAXV] = 3
        return st

    @pytest.mark.parametrize("fmode", [0, 1], ids=["null", "table"])
    def test_flush_parity_across_legs(self, fmode):
        outcomes = {}
        for leg in available_modes():
            st = self._state(fmode, seed=11)
            cols = tuple(np.zeros(1, dtype=np.int64) for _ in range(5))
            _, flush = kernel_mod._bind_leg(leg, st.span_args(*cols))
            assert int(flush()) == 0
            outcomes[leg] = (st.K.tolist(), st.T.tolist(), st.tvals.tolist())
        expected = outcomes[MODE_INTERP]
        assert any(expected[0]) and any(expected[1])
        for leg, got in outcomes.items():
            assert got == expected, f"{leg} flush != interp flush"
        if fmode == 1:
            assert expected[2] != [0, 3, 1, 3]  # the table was trained
