"""The ``vector`` engine backend: the event engine's model on a compiled loop.

:class:`VectorGPU` is a drop-in replacement for :class:`~repro.gpusim.gpu.GPU`
(same constructor, ``launch``/``run``/``result`` surface, same
:class:`~repro.gpusim.gpu.DeviceResult`) whose run loop is the C core in
``_vectorcore.c``, driven through :mod:`repro.gpusim._native`.  The
simulator has exactly two engines: the event engine (``gpu.py``,
``sm.py``, ``dram.py``) is the readable reference, and the C loop is an
operation-for-operation transcription of ``GPU.run`` +
``sm.issue_batch`` + ``MemorySystem.access_line`` over flat arrays, so
results are **bit-identical**.  It is selected through the
``engine-backends`` registry kind (``ExecutionSpec.backend =
"vector"``); when the C core cannot be built or loaded, that registry
entry hands out the event engine instead, and constructing
:class:`VectorGPU` directly raises with the reason.

Python keeps everything that is not the hot loop: launch, block
dispatch, warp admission and retirement bookkeeping, and periodic
callbacks (SMRA controllers, telemetry), which see model objects
flushed back from the C arrays at every crossing.  This module adds the
one piece of preprocessing the C loop consumes:

* **Precomputed line records, memoized across runs.**  A warp's memory
  lines are a pure function of ``(KernelSpec, warp_index, base_line,
  device geometry)``.  :class:`VectorWorkDistributor` decodes each line's
  partition / L2-set / bank / DRAM-row indices *once* into a flat
  ``array("q")`` of five int64 per line — the exact layout the C core
  reads — and stores it in a process-wide memo, so every later run of
  the same spec (bench repeats, solo profiles, interference pairs,
  sweep points) reuses it, skipping the Mersenne-Twister seeding and the
  per-line address decode entirely.
"""

from __future__ import annotations

from array import array
from typing import List, Sequence

from . import _native
from .dispatcher import WorkDistributor
from .gpu import DEFAULT_MAX_CYCLES, GPU, Callback, DeviceResult
from .kernel import AddressStream, BlockContext, WarpContext

# -- the cross-run line-record memo -----------------------------------------

#: (spec, base_line, geometry) → {warp_index: array("q") of records}, five
#: int64 per line: (line, p, s2i, bgi, row).  Bounded: when the memo holds
#: more than _MEMO_MAX_LINES line records in total, the oldest-inserted
#: spec entries are dropped first.  Per-process (each pool worker warms its
#: own); purely a cache of deterministic preprocessing, so hits cannot
#: change results.
_STREAM_MEMO: dict = {}
_MEMO_MAX_LINES = 1_500_000
_memo_lines = 0


class VectorWorkDistributor(WorkDistributor):
    """Block builder producing precomputed, memoized line records.

    A record ``(line, p, s2i, bgi, row)`` carries the global line number
    plus its memory-partition index, flat L2-set index, flat bank index,
    and DRAM row — everything the C loop's memory path needs, decoded
    once instead of per access per run.
    """

    def __init__(self, gpu: "VectorGPU"):
        super().__init__(gpu)
        mem = gpu.memory
        self._np = mem._num_partitions
        self._banks_per = mem._banks
        self._span = mem._bank_row_span
        self._l2_nsets = mem._l2_nsets
        self._l2_mask = mem._l2_mask
        #: Everything record contents depend on besides (spec, base_line).
        self._geom = (self._line_size, self._lines_per_row, self._np,
                      self._banks_per, self._l2_nsets)

    def _records(self, lines: List[int]) -> array:
        np_, banks_per = self._np, self._banks_per
        span, nsets, mask = self._span, self._l2_nsets, self._l2_mask
        out = []
        extend = out.extend
        for line in lines:
            p = line % np_
            local = line // np_
            extend((line, p,
                    p * nsets + (line & mask if mask is not None
                                 else line % nsets),
                    p * banks_per + local % banks_per,
                    local // span))
        return array("q", out)

    def _make_block(self, app, now: int):
        global _memo_lines
        spec = app.spec
        block_id = app.blocks_dispatched
        block = BlockContext(app.app_id, block_id, spec.warps_per_block)
        program = self._program_of(app)
        warps = []
        app_stats = self._gpu.stats.apps.get(app.app_id)
        has_mem = any(n_tx for _alu, n_tx in program)
        base_line = app.base_line
        per_spec = None
        if has_mem:
            key = (spec, base_line, self._geom)
            per_spec = _STREAM_MEMO.get(key)
            if per_spec is None:
                if _memo_lines > _MEMO_MAX_LINES:
                    # Evict oldest spec entries (dict preserves insertion
                    # order) until back under the cap.
                    for old_key in list(_STREAM_MEMO):
                        dropped = _STREAM_MEMO.pop(old_key)
                        _memo_lines -= sum(len(r) for r in
                                           dropped.values()) // 5
                        if _memo_lines <= _MEMO_MAX_LINES:
                            break
                _STREAM_MEMO[key] = per_spec = {}
        for w in range(spec.warps_per_block):
            warp_index = block_id * spec.warps_per_block + w
            recs = per_spec.get(warp_index) if per_spec is not None else None
            if recs is None:
                stream = AddressStream(spec, base_line, warp_index,
                                       self._line_size, self._lines_per_row,
                                       row_stride=self._row_stride)
                warp = WarpContext(app.app_id, block, program, stream,
                                   age=0, dep_gap=spec.dep_gap,
                                   stats=app_stats)
                if has_mem:
                    recs = self._records(stream.pregenerate(program))
                    per_spec[warp_index] = recs
                    _memo_lines += len(recs) // 5
                    warp.lines = recs
            else:
                # Warm hit: skip AddressStream construction entirely (the
                # RNG seeding is a large share of cold block-build cost).
                warp = WarpContext(app.app_id, block, program, None,
                                   age=0, dep_gap=spec.dep_gap,
                                   stats=app_stats)
                warp.lines = recs
            warps.append(warp)
        app.blocks_dispatched += 1
        return block, warps


class VectorGPU(GPU):
    """The compiled-loop engine backend (see module docstring)."""

    __slots__ = ("_native", "_l1_dirty", "__weakref__")

    def __init__(self, config):
        if _native.load() is None:
            raise RuntimeError("vector backend unavailable: "
                               f"{_native.unavailable_reason}")
        super().__init__(config)
        if config.num_sms > 0xFFF:
            raise ValueError("vector backend supports at most 4095 SMs")
        self.distributor = VectorWorkDistributor(self)
        #: The C-side state, built at the first ``run``.
        self._native = None
        self._l1_dirty = set()
        for sm in self.sms:
            sm.l1 = _native._TrackedL1(config.l1_sets, config.l1_assoc,
                                       self._l1_dirty, sm.index)

    def run(self, max_cycles: int = DEFAULT_MAX_CYCLES,
            callbacks: Sequence[Callback] = ()) -> DeviceResult:
        """Same contract and results as :meth:`GPU.run`, on the C loop."""
        return _native.run_native(self, max_cycles, callbacks)
