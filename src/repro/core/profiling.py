"""Solo profiling of applications (step 1 of the methodology).

Each application is executed alone on the full device; the profiler
extracts the Table 3.2 metric vector — DRAM bandwidth, L2→L1 bandwidth,
IPC, and memory-to-compute ratio — plus the solo completion time used as
the denominator of every slowdown in §3.2.2.

Profiles are memoized at two levels:

* **in process** per (kernel-spec, device-config) pair, because the
  benchmark suite re-profiles the same 14 applications across many
  experiments; and
* **on disk** (optional) under ``benchmarks/results/cache/``, keyed by a
  content hash of the device config, the kernel spec, and the engine
  version (:data:`repro.gpusim.ENGINE_VERSION`), so repeated figure-suite
  runs never re-simulate an identical solo run.  Any change to a config
  field, a spec field, or the engine version changes the key and thus
  invalidates the entry; stale files are simply never read again.

Set the ``REPRO_PROFILE_CACHE`` environment variable to a directory to
relocate the disk cache, or to ``off`` / ``0`` to disable it.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pathlib
from dataclasses import dataclass
from typing import Dict, Optional, Tuple, Union

from repro.gpusim import (ENGINE_VERSION, Application, DeviceResult,
                          GPUConfig, KernelSpec, simulate)

CacheDir = Optional[Union[str, pathlib.Path]]


def fingerprint(*objs) -> str:
    """Stable content hash of dataclasses / plain JSON-able values."""
    def canon(o):
        if dataclasses.is_dataclass(o) and not isinstance(o, type):
            return {"__dc__": type(o).__name__,
                    **{k: canon(v)
                       for k, v in dataclasses.asdict(o).items()}}
        if isinstance(o, dict):
            return {str(k): canon(v) for k, v in sorted(o.items())}
        if isinstance(o, (list, tuple)):
            return [canon(v) for v in o]
        return o
    payload = json.dumps(canon(objs), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


def write_atomic(path: pathlib.Path, text: str) -> None:
    """Write `text` to `path` through a per-process temp file and an
    atomic rename, so concurrent writers of one entry (pool workers,
    campaign shards) never rename each other's half-written file."""
    tmp = path.with_name(f"{path.name}.tmp.{os.getpid()}")
    tmp.write_text(text)
    os.replace(tmp, path)


def profile_cache_key(config: GPUConfig, spec: KernelSpec) -> str:
    """Disk-cache key of one solo profile (see module docstring)."""
    return fingerprint(ENGINE_VERSION, config, spec)


def default_cache_dir() -> Optional[pathlib.Path]:
    """The repo-local persistent cache dir, honoring REPRO_PROFILE_CACHE."""
    env = os.environ.get("REPRO_PROFILE_CACHE")
    if env is not None:
        if env.strip().lower() in ("", "0", "off", "none", "disabled"):
            return None
        return pathlib.Path(env)
    # src/repro/core/profiling.py -> repo root is three levels up from
    # the package directory; only use it when it looks like the repo.
    root = pathlib.Path(__file__).resolve().parents[3]
    bench = root / "benchmarks"
    if bench.is_dir():
        return bench / "results" / "cache"
    return None


@dataclass(frozen=True)
class ProfileMetrics:
    """Solo-run profile of one application (the Table 3.2 columns)."""

    name: str
    memory_bandwidth_gbps: float
    l2_to_l1_gbps: float
    ipc: float
    mem_compute_ratio: float
    solo_cycles: int
    thread_instructions: int
    utilization: float

    @property
    def columns(self) -> Tuple[float, float, float, float]:
        """(MB, L2→L1, IPC, R) — the Table 3.2 metric columns."""
        return (self.memory_bandwidth_gbps, self.l2_to_l1_gbps, self.ipc,
                self.mem_compute_ratio)


def metrics_from_result(result: DeviceResult, app_id: int = 0
                        ) -> ProfileMetrics:
    """Extract :class:`ProfileMetrics` from a finished solo run."""
    stats = result.app_stats[app_id]
    cycles = stats.finish_cycle if stats.finish_cycle else result.cycles
    cfg = result.config
    return ProfileMetrics(
        name=result.app_names.get(app_id, stats.name),
        memory_bandwidth_gbps=stats.memory_bandwidth_gbps(cycles, cfg),
        l2_to_l1_gbps=stats.l2_to_l1_bandwidth_gbps(cycles, cfg),
        ipc=stats.ipc(cycles),
        mem_compute_ratio=stats.mem_compute_ratio,
        solo_cycles=cycles,
        thread_instructions=stats.thread_instructions,
        utilization=stats.ipc(cycles) / cfg.peak_ipc)


class Profiler:
    """Runs and memoizes solo profiles (in memory, optionally on disk)."""

    def __init__(self, config: GPUConfig, cache_dir: CacheDir = None):
        self.config = config
        self.cache_dir = pathlib.Path(cache_dir) if cache_dir else None
        self._cache: Dict[KernelSpec, ProfileMetrics] = {}
        #: Simulations actually executed (cache misses) — test hook.
        self.simulations_run = 0

    # -- disk layer ---------------------------------------------------------
    def _cache_path(self, spec: KernelSpec) -> Optional[pathlib.Path]:
        if self.cache_dir is None:
            return None
        key = profile_cache_key(self.config, spec)
        safe_name = "".join(c if c.isalnum() else "-" for c in spec.name)
        return self.cache_dir / f"profile_{safe_name}_{key[:20]}.json"

    def _load_disk(self, path: pathlib.Path) -> Optional[ProfileMetrics]:
        try:
            data = json.loads(path.read_text())
            return ProfileMetrics(**data)
        except (OSError, ValueError, TypeError):
            return None  # missing or corrupt → treat as a miss

    def _store_disk(self, path: pathlib.Path,
                    metrics: ProfileMetrics) -> None:
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            write_atomic(path, json.dumps(dataclasses.asdict(metrics),
                                          indent=1, sort_keys=True))
        except OSError:
            pass  # a read-only checkout never blocks profiling

    # -- public API ---------------------------------------------------------
    def profile(self, name: str, spec: KernelSpec) -> ProfileMetrics:
        cached = self._cache.get(spec)
        if cached is not None:
            return cached
        path = self._cache_path(spec)
        if path is not None:
            metrics = self._load_disk(path)
            if metrics is not None:
                self._cache[spec] = metrics
                return metrics
        result = simulate(self.config, [Application(name, spec)])
        metrics = metrics_from_result(result)
        self.simulations_run += 1
        self._cache[spec] = metrics
        if path is not None:
            self._store_disk(path, metrics)
        return metrics

    def peek(self, spec: KernelSpec) -> Optional[ProfileMetrics]:
        """The in-memory entry for `spec`, or None (no simulation)."""
        return self._cache.get(spec)

    def prime(self, spec: KernelSpec, metrics: ProfileMetrics) -> None:
        """Seed the in-memory cache with an externally computed profile
        (e.g. one returned by a parallel executor's worker)."""
        self._cache[spec] = metrics

    def solo_cycles(self, name: str, spec: KernelSpec) -> int:
        return self.profile(name, spec).solo_cycles

    def invalidate(self) -> None:
        self._cache.clear()


def warm_profiles(profiler: Profiler, executor, entries) -> None:
    """Warm `profiler`'s cache for ``(name, spec)`` `entries` in parallel.

    With a multi-worker executor (anything exposing ``workers > 1`` and
    ``run_profiles``), the not-yet-cached specs — deduplicated, so
    repeated kernels profile once — are solo-profiled in worker
    processes (each writing through the shared disk cache) and the
    results primed into `profiler`; subsequent ``profiler.profile``
    calls are pure hits.  A serial executor (or ``None``) is a no-op:
    the inline profiling path is already optimal there.
    """
    if executor is None or getattr(executor, "workers", 1) <= 1:
        return
    todo = []
    seen = set()
    for name, spec in entries:
        if profiler.peek(spec) is None and spec not in seen:
            seen.add(spec)
            todo.append((name, spec))
    if not todo:
        return
    metrics = executor.run_profiles(profiler.config, todo,
                                    cache_dir=profiler.cache_dir)
    for (name, spec), m in zip(todo, metrics):
        profiler.prime(spec, m)


#: Process-wide profiler cache, keyed by config.  The benchmark harness
#: profiles the same suite dozens of times; sharing one profiler per
#: configuration keeps the full figure suite tractable.  Shared
#: profilers also persist to the repo-local disk cache so whole figure
#: *sessions* reuse each other's solo runs.
_PROFILERS: Dict[GPUConfig, Profiler] = {}


def shared_profiler(config: GPUConfig) -> Profiler:
    profiler = _PROFILERS.get(config)
    if profiler is None:
        profiler = Profiler(config, cache_dir=default_cache_dir())
        _PROFILERS[config] = profiler
    return profiler
