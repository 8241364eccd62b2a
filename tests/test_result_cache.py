"""Persistent result cache: keys, round-trips, invalidation, tolerance."""

import hashlib
import json
import os

import pytest

from repro.analysis.result_cache import (
    MODEL_VERSION,
    ResultCache,
    config_fingerprint,
    default_cache_dir,
    result_from_dict,
    result_to_dict,
    run_key,
)
from repro.analysis.sweep import run_workload
from repro.common.config import FilterKind, SimulationConfig

N = 8_000


@pytest.fixture(scope="module")
def sample_result():
    cfg = SimulationConfig.paper_default(FilterKind.PA).with_warmup(2_000)
    return run_workload("em3d", cfg, N, 0)


def _unmemoized_key(workload, config, n_insts, seed, software_prefetch, engine):
    """``run_key`` spelled out over the un-memoized ``config_fingerprint``."""
    payload = {
        "version": MODEL_VERSION,
        "workload": workload,
        "config": config_fingerprint(config),
        "n_insts": n_insts,
        "seed": seed,
        "software_prefetch": software_prefetch,
        "engine": engine,
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


class TestRunKey:
    def test_stable_across_equal_configs(self):
        a = SimulationConfig.paper_default(FilterKind.PA)
        b = SimulationConfig.paper_default(FilterKind.PA)
        assert a is not b
        assert run_key("em3d", a, N, 0) == run_key("em3d", b, N, 0)

    def test_sensitive_to_config_content(self):
        base = SimulationConfig.paper_default(FilterKind.PA)
        assert run_key("em3d", base, N, 0) != run_key(
            "em3d", base.with_filter(table_entries=8192), N, 0
        )

    def test_version_tag_invalidates(self):
        cfg = SimulationConfig.paper_default()
        assert run_key("em3d", cfg, N, 0) != run_key("em3d", cfg, N, 0, version="v-next")
        assert run_key("em3d", cfg, N, 0) == run_key("em3d", cfg, N, 0, version=MODEL_VERSION)

    def test_memoized_key_matches_the_unmemoized_path(self):
        def build():
            return (
                SimulationConfig.paper_ports(4, FilterKind.PC)
                .with_warmup(8_000)
                .with_filter(table_entries=1024)
            )

        a, b = build(), build()
        assert a is not b and a == b
        expected = _unmemoized_key("gcc", a, 20_000, 1, True, "kernel")
        for cfg in (a, b, a, b.with_sanitize()):
            assert run_key("gcc", cfg, 20_000, 1, True, "kernel") == expected
        # The key the code derived for this run before the memo existed.
        assert expected == "4a81f7e4f2a3b44885932c28009f3ea1887a22bcecf689bfb5b8d6aeae7e5908"

    def test_memo_keeps_equal_but_differently_serialised_configs_apart(self):
        # 1 == 1.0 and both hash alike, but they serialise differently, so
        # each config must keep the key its own fingerprint gives.
        as_int = SimulationConfig.paper_default().with_filter(static_bad_fraction=1)
        as_float = SimulationConfig.paper_default().with_filter(static_bad_fraction=1.0)
        assert as_int == as_float
        for first, second in ((as_int, as_float), (as_float, as_int)):
            for cfg in (first, second):
                assert run_key("em3d", cfg, N, 0) == _unmemoized_key(
                    "em3d", cfg, N, 0, True, "pipeline"
                )
        assert run_key("em3d", as_int, N, 0) != run_key("em3d", as_float, N, 0)

    def test_fingerprint_is_json_serialisable(self):
        fp = config_fingerprint(SimulationConfig.paper_32kb(FilterKind.PC))
        text = json.dumps(fp, sort_keys=True)
        assert "pc" in text  # enum reduced to its value


class TestRoundTrip:
    def test_dict_round_trip_preserves_everything(self, sample_result):
        restored = result_from_dict(result_to_dict(sample_result))
        assert restored.trace_name == sample_result.trace_name
        assert restored.filter_name == sample_result.filter_name
        assert restored.instructions == sample_result.instructions
        assert restored.cycles == sample_result.cycles
        assert restored.prefetch == sample_result.prefetch
        assert restored.per_source == sample_result.per_source
        assert restored.l1_demand_accesses == sample_result.l1_demand_accesses
        assert restored.l1_demand_misses == sample_result.l1_demand_misses
        assert restored.stats.flat() == sample_result.stats.flat()
        assert restored.ipc == pytest.approx(sample_result.ipc)
        assert restored.bad_good_ratio == pytest.approx(sample_result.bad_good_ratio)

    def test_serialised_form_is_plain_json(self, sample_result):
        text = json.dumps(result_to_dict(sample_result))
        assert json.loads(text)["trace_name"] == sample_result.trace_name


class TestResultCache:
    def test_put_get_round_trip(self, tmp_path, sample_result):
        cache = ResultCache(tmp_path)
        cache.put("abc123", sample_result)
        restored = cache.get("abc123")
        assert restored is not None
        assert restored.cycles == sample_result.cycles
        assert restored.stats.flat() == sample_result.stats.flat()
        assert cache.hits == 1 and cache.misses == 0

    def test_put_recreates_a_deleted_directory(self, tmp_path, sample_result):
        import shutil

        cache = ResultCache(tmp_path / "cache")
        cache.put("first", sample_result)
        shutil.rmtree(tmp_path / "cache")
        cache.put("second", sample_result)
        restored = cache.get("second")
        assert restored is not None
        assert restored.stats.flat() == sample_result.stats.flat()

    def test_missing_key_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.get("nope") is None
        assert cache.misses == 1

    def test_corrupt_file_tolerated_and_removed(self, tmp_path, sample_result):
        cache = ResultCache(tmp_path)
        cache.put("k", sample_result)
        path = tmp_path / "k.json"
        path.write_text("{ not json")
        assert cache.get("k") is None
        assert not path.exists()  # corrupt entry cleaned up

    def test_structurally_stale_file_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        (tmp_path / "old.json").write_text(json.dumps({"schema": "ancient"}))
        assert cache.get("old") is None

    def test_clear_and_len(self, tmp_path, sample_result):
        cache = ResultCache(tmp_path)
        cache.put("a", sample_result)
        cache.put("b", sample_result)
        assert len(cache) == 2
        assert cache.clear() == 2
        assert len(cache) == 0

    def test_env_dir_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "envcache"))
        assert default_cache_dir() == tmp_path / "envcache"
        cache = ResultCache()
        assert cache.directory == tmp_path / "envcache"

    def test_default_dir_under_home(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        assert str(default_cache_dir()).endswith(os.path.join(".cache", "repro"))


class TestHealthCounters:
    def test_quarantined_counter_tracks_corruption(self, tmp_path, sample_result):
        cache = ResultCache(tmp_path)
        cache.put("k", sample_result)
        (tmp_path / "k.json").write_text("\x00 not json")
        assert cache.get("k") is None
        assert cache.quarantined == 1
        assert cache.stats == {
            "hits": 0, "misses": 1, "quarantined": 1, "stale_tmp_removed": 0,
            "evicted": 0, "budget_bytes": 0, "pressure_skipped": 0,
        }

    def test_plain_miss_is_not_quarantine(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.get("nope") is None
        assert cache.stats["quarantined"] == 0 and cache.stats["misses"] == 1

    def test_injected_corruption_is_observable(self, tmp_path, sample_result):
        """corrupt-cache fault -> garbled entry -> quarantined, not wedged."""
        from repro.common.faults import inject_faults

        cache = ResultCache(tmp_path)
        with inject_faults("corrupt-cache@cache"):
            cache.put("k", sample_result)
        fresh = ResultCache(tmp_path)
        assert fresh.get("k") is None
        assert fresh.quarantined == 1


class TestTmpFileHygiene:
    def test_tmp_paths_are_unique_within_a_process(self, tmp_path):
        from repro.common.diskio import tmp_path_for

        target = tmp_path / "k.json"
        a, b = tmp_path_for(target), tmp_path_for(target)
        assert a != b
        assert f".tmp.{os.getpid()}." in a.name and f".tmp.{os.getpid()}." in b.name

    def test_init_sweeps_only_stale_tmp_files(self, tmp_path, sample_result):
        old = tmp_path / "dead.json.tmp.999.0"
        old.write_text("orphan")
        os.utime(old, (1, 1))  # ancient mtime: clearly a dead writer's
        fresh = tmp_path / "live.json.tmp.888.0"
        fresh.write_text("in flight")

        cache = ResultCache(tmp_path)
        assert cache.stale_tmp_removed == 1
        assert not old.exists()
        assert fresh.exists()  # a live writer's file is left alone
        cache.put("k", sample_result)  # and the cache still works
        assert cache.get("k") is not None
