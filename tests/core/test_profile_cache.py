"""Tests for the persistent (on-disk) profile and interference caches."""

import dataclasses
import json
import os
import pathlib

import pytest

from repro.core.interference import (interference_cache_key,
                                     measure_interference)
from repro.core.profiling import (Profiler, default_cache_dir, fingerprint,
                                  profile_cache_key)
from repro.gpusim import small_test_config

from ..conftest import make_tiny_spec


class TestCacheKey:
    def test_identical_inputs_identical_key(self, small_cfg):
        spec = make_tiny_spec()
        assert (profile_cache_key(small_cfg, spec)
                == profile_cache_key(small_test_config(), make_tiny_spec()))

    @pytest.mark.parametrize("override", [
        dict(seed=8), dict(instr_per_warp=61), dict(mem_fraction=0.16),
        dict(pattern="random"), dict(working_set_kb=65),
        dict(kernel_launches=2), dict(name="other"),
    ])
    def test_any_spec_field_change_changes_key(self, small_cfg, override):
        base = profile_cache_key(small_cfg, make_tiny_spec())
        assert profile_cache_key(small_cfg,
                                 make_tiny_spec(**override)) != base

    def test_config_change_changes_key(self, small_cfg):
        spec = make_tiny_spec()
        assert (profile_cache_key(small_cfg, spec)
                != profile_cache_key(small_test_config(scheduler="lrr"),
                                     spec))

    def test_nested_dram_timing_is_keyed(self, small_cfg):
        import dataclasses as dc
        from repro.gpusim import DramTiming
        spec = make_tiny_spec()
        tweaked = dc.replace(small_cfg,
                             dram=DramTiming(row_hit=4))
        assert (profile_cache_key(small_cfg, spec)
                != profile_cache_key(tweaked, spec))

    def test_fingerprint_stable_across_processes(self):
        # Pure content hash: no id()/hash() randomness may leak in.
        assert fingerprint({"a": 1}, [2, 3]) == fingerprint({"a": 1}, [2, 3])


class TestProfilerDiskCache:
    def test_miss_then_hit(self, small_cfg, tmp_path):
        spec = make_tiny_spec()
        p1 = Profiler(small_cfg, cache_dir=tmp_path)
        m1 = p1.profile("tiny", spec)
        assert p1.simulations_run == 1
        files = list(tmp_path.glob("profile_*.json"))
        assert len(files) == 1

        # A fresh profiler (fresh process, conceptually) hits the disk.
        p2 = Profiler(small_cfg, cache_dir=tmp_path)
        m2 = p2.profile("tiny", spec)
        assert p2.simulations_run == 0
        assert m2 == m1

    def test_spec_change_misses(self, small_cfg, tmp_path):
        p = Profiler(small_cfg, cache_dir=tmp_path)
        p.profile("tiny", make_tiny_spec())
        p.profile("tiny", make_tiny_spec(seed=8))
        assert p.simulations_run == 2
        assert len(list(tmp_path.glob("profile_*.json"))) == 2

    def test_corrupt_cache_entry_is_remeasured(self, small_cfg, tmp_path):
        spec = make_tiny_spec()
        p1 = Profiler(small_cfg, cache_dir=tmp_path)
        m1 = p1.profile("tiny", spec)
        (path,) = tmp_path.glob("profile_*.json")
        path.write_text("{not json")
        p2 = Profiler(small_cfg, cache_dir=tmp_path)
        assert p2.profile("tiny", spec) == m1
        assert p2.simulations_run == 1
        # The corrupt file was rewritten with valid content.
        assert json.loads(path.read_text())["solo_cycles"] == m1.solo_cycles

    def test_concurrent_writer_cannot_corrupt_entry(self, small_cfg,
                                                    tmp_path, monkeypatch):
        # Writer A has written its temp file and is about to rename it
        # when writer B, another process storing the same entry, dies
        # half-way through its own write.  A's rename must still publish
        # A's complete file, not B's half.
        spec = make_tiny_spec()
        writer = Profiler(small_cfg, cache_dir=tmp_path)
        metrics = writer.profile("tiny", spec)
        (path,) = tmp_path.glob("profile_*.json")
        path.unlink()
        real_replace = os.replace
        real_write_text = pathlib.Path.write_text
        other_pid = os.getpid() + 1

        def killed_mid_write(self, text):
            real_write_text(self, text[:len(text) // 2])
            raise OSError("writer killed")

        def racing_replace(src, dst):
            with monkeypatch.context() as m:
                m.setattr(os, "getpid", lambda: other_pid)
                m.setattr(os, "replace", real_replace)
                m.setattr(pathlib.Path, "write_text", killed_mid_write)
                Profiler(small_cfg, cache_dir=tmp_path)._store_disk(
                    dst, metrics)
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", racing_replace)
        writer._store_disk(path, metrics)
        monkeypatch.undo()
        assert Profiler(small_cfg, cache_dir=tmp_path)._load_disk(path) \
            == metrics

    def test_no_cache_dir_still_works(self, small_cfg):
        p = Profiler(small_cfg)
        m = p.profile("tiny", make_tiny_spec())
        assert m.solo_cycles > 0

    def test_in_memory_memoization_unchanged(self, small_cfg, tmp_path):
        p = Profiler(small_cfg, cache_dir=tmp_path)
        spec = make_tiny_spec()
        assert p.profile("tiny", spec) is p.profile("tiny", spec)
        assert p.simulations_run == 1


class TestInterferenceDiskCache:
    def _suite(self):
        return {
            "a": make_tiny_spec("a", seed=1),
            "b": make_tiny_spec("b", seed=2, pattern="random",
                                working_set_kb=2048, mem_fraction=0.3),
        }

    def test_roundtrip_and_hit(self, small_cfg, tmp_path):
        suite = self._suite()
        m1 = measure_interference(small_cfg, suite, samples_per_pair=1,
                                  cache_dir=tmp_path)
        files = list(tmp_path.glob("interference_*.json"))
        assert len(files) == 1
        m2 = measure_interference(small_cfg, suite, samples_per_pair=1,
                                  cache_dir=tmp_path)
        assert m2.slowdown == m1.slowdown
        assert m2.samples == m1.samples

    def test_key_depends_on_sampling(self, small_cfg):
        from repro.core import ClassificationThresholds
        suite = self._suite()
        thresholds = ClassificationThresholds.for_device(small_cfg)
        assert (interference_cache_key(small_cfg, suite, thresholds, 1)
                != interference_cache_key(small_cfg, suite, thresholds, 2))


class TestDefaultCacheDir:
    def test_env_off_disables(self, monkeypatch):
        monkeypatch.setenv("REPRO_PROFILE_CACHE", "off")
        assert default_cache_dir() is None

    def test_env_path_overrides(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_PROFILE_CACHE", str(tmp_path))
        assert default_cache_dir() == tmp_path

    def test_default_points_into_benchmarks(self, monkeypatch):
        monkeypatch.delenv("REPRO_PROFILE_CACHE", raising=False)
        d = default_cache_dir()
        assert d is not None and d.parts[-3:] == ("benchmarks", "results",
                                                  "cache")
