"""The ``vector`` backend's device object: lifetime, limits, availability.

Result parity with the event engine is covered by the golden suite
(``test_golden_determinism.py``) and ``tests/api/test_engine_backends.py``;
this module covers what is specific to the compiled core's glue.
"""

import dataclasses
import gc
import weakref

import pytest

from repro.gpusim import (GPU, Application, KernelSpec, _native, simulate,
                          small_test_config)

needs_core = pytest.mark.skipif(_native.load() is None,
                                reason="C core unavailable on this host")


def _apps():
    specs = [KernelSpec("a", blocks=6, warps_per_block=2, instr_per_warp=60,
                        mem_fraction=0.2, tx_per_access=2,
                        working_set_kb=128, pattern="stream", seed=19),
             KernelSpec("b", blocks=6, warps_per_block=2, instr_per_warp=40,
                        mem_fraction=0.3, tx_per_access=4,
                        working_set_kb=2048, pattern="random", seed=23)]
    return [Application(s.name, s) for s in specs]


def _fingerprint(result):
    return (result.cycles, result.events,
            {i: dataclasses.asdict(s) for i, s in result.app_stats.items()})


@needs_core
def test_finished_device_is_freed():
    from repro.gpusim.vector import VectorGPU
    gpu = VectorGPU(small_test_config())
    gpu.launch(_apps())
    gpu.run()
    ref = weakref.ref(gpu)
    del gpu
    gc.collect()
    assert ref() is None


@needs_core
def test_huge_max_cycles_matches_event_engine():
    # A limit beyond the core's 2^40-cycle event packing must neither
    # truncate nor change a run that finishes long before it.
    from repro.gpusim.vector import VectorGPU
    limit = 2 ** 41
    event = simulate(small_test_config(), _apps(), max_cycles=limit)
    vector = simulate(small_test_config(), _apps(), max_cycles=limit,
                      engine=VectorGPU)
    assert _fingerprint(vector) == _fingerprint(event)


@needs_core
def test_event_time_past_packing_limit_raises():
    # One ALU run waking 2^40 cycles later does not fit the core's
    # event packing: the run must fail, not wrap around.
    from repro.gpusim.vector import VectorGPU
    spec = KernelSpec("slow", blocks=1, warps_per_block=1,
                      instr_per_warp=10, mem_fraction=0.0,
                      dep_gap=float(2 ** 40))
    with pytest.raises(RuntimeError, match="packing limits"):
        simulate(small_test_config(), [Application("slow", spec)],
                 max_cycles=2 ** 41, engine=VectorGPU)


@needs_core
def test_max_cycles_cutoff_matches_event_engine():
    from repro.gpusim.vector import VectorGPU
    event = simulate(small_test_config(), _apps(), max_cycles=300)
    vector = simulate(small_test_config(), _apps(), max_cycles=300,
                      engine=VectorGPU)
    assert vector.cycles == 300
    assert _fingerprint(vector) == _fingerprint(event)


@pytest.fixture
def core_missing(monkeypatch):
    """Make ``_native.load()`` report a failed build in this process."""
    monkeypatch.setattr(_native, "_tried", True)
    monkeypatch.setattr(_native, "_lib", None)
    monkeypatch.setattr(_native, "unavailable_reason",
                        "CalledProcessError: compiler failed")


def test_constructor_raises_without_core(core_missing):
    from repro.gpusim.vector import VectorGPU
    with pytest.raises(RuntimeError, match="compiler failed"):
        VectorGPU(small_test_config())


def test_registry_falls_back_to_event_engine_once(core_missing,
                                                  monkeypatch, capsys):
    from repro.api import engines
    monkeypatch.setattr(engines, "_CLASS_CACHE", {})
    assert engines.engine_class("vector") is GPU
    assert engines.engine_class("vector") is GPU
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert "compiler failed" in err[0] and "event engine" in err[0]
