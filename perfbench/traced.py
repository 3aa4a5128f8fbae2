"""Run one ``repro`` CLI command with layer spans recorded.

Usage: ``python perfbench/traced.py SPANS_OUT -- <repro CLI arguments>``
with ``src`` on ``PYTHONPATH``.

The script times ``import repro.cli``, wraps the public entry points of
each ``repro`` layer (recording a span per call, in memory), calls the
same ``repro.cli.main`` a user's ``python -m repro`` would, and writes
the spans to SPANS_OUT when the command ends.  Nothing under ``src`` is
edited: callees are imported by name (``from .scheduler import
run_group``), so every module attribute that holds a wrapped function
is rebound to the wrapper.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

_clock = time.perf_counter

#: [name, start, end, parent index, value] per call, in entry order.
SPANS: list = []
_STACK: list = []

#: (module, attribute path, span name); a method is "Class.method".
FUNCTIONS = [
    ("repro.api.scenario", "Scenario.from_json", "api.load"),
    ("repro.api.scenario", "Scenario.from_dict", "api.load"),
    ("repro.campaign.spec", "CampaignSpec.from_json", "api.load"),
    ("repro.api.runner", "run_scenario", "api.run"),
    ("repro.api.runner", "RunResult.to_dict", "api.write"),
    ("repro.api.runner", "RunResult.to_json", "api.write"),
    ("repro.campaign.result", "CampaignResult.to_json", "api.write"),
    ("repro.campaign.manifest", "atomic_write", "api.write"),
    ("repro.core.scheduler", "make_context", "core.context"),
    ("repro.core.interference", "measure_interference",
     "core.interference"),
    ("repro.core.profiling", "Profiler.profile", "core.profile"),
    ("repro.core.scheduler", "run_group", "core.run_group"),
    ("repro.core.smra", "SMRAController._tick", "core.smra"),
    ("repro.ilp.model", "Model.solve", "ilp.solve"),
    ("repro.gpusim.gpu", "GPU.run", "gpusim.event"),
    ("repro.gpusim.vector", "VectorGPU.run", "gpusim.vector"),
    ("repro.runtime.engine", "run_stream", "runtime.stream"),
    ("repro.cluster.fleet", "run_fleet", "cluster.fleet"),
    ("repro.analysis.streams", "summarize_stream", "analysis.summarize"),
    ("repro.analysis.fleet", "summarize_fleet", "analysis.summarize"),
    ("repro.analysis.fleet", "summarize_faults", "analysis.summarize"),
    ("repro.campaign.plan", "plan_campaign", "campaign.plan"),
    ("repro.campaign.driver", "shard_job", "campaign.shard"),
    ("repro.campaign.result", "merge_campaign", "campaign.merge"),
]

#: Every public function defined in these modules is a workload build.
WORKLOAD_MODULES = ("repro.workloads.queues", "repro.workloads.streams")

#: (module, base class, method, span name): the method as overridden by
#: each subclass the module tree defines.
OVERRIDES = [
    ("repro.core.policies", "Policy", "plan", "core.plan"),
    ("repro.runtime.online", "OnlinePolicy", "next_group", "core.plan"),
    ("repro.cluster.placement", "PlacementPolicy", "choose",
     "cluster.placement"),
]

#: Engine runs carry the events they processed as the span value.
_ENGINE_SPANS = ("gpusim.event", "gpusim.vector")


def _span(name, fn):
    counts_events = name in _ENGINE_SPANS

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = len(SPANS)
        before = args[0].events_processed if counts_events else None
        SPANS.append([name, _clock(), None,
                      _STACK[-1] if _STACK else -1, None])
        _STACK.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            _STACK.pop()
            span = SPANS[index]
            span[2] = _clock()
            if counts_events:
                span[4] = args[0].events_processed - before

    wrapper.__perfbench_span__ = name
    return wrapper


def _wrap_attr(owner, attr, name):
    """Wrap ``owner.attr`` in place; return (original, wrapper) for a
    plain function, None for a method (the class is the only holder)."""
    raw = owner.__dict__[attr]
    func = raw.__func__ if isinstance(raw, classmethod) else raw
    if hasattr(func, "__perfbench_span__"):
        raise RuntimeError(f"{attr} is already wrapped")
    wrapper = _span(name, func)
    setattr(owner, attr,
            classmethod(wrapper) if isinstance(raw, classmethod)
            else wrapper)
    return None if isinstance(owner, type) else (func, wrapper)


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def install():
    """Wrap every target and rebind the names other modules import."""
    rebinds = []
    for module_name, path, name in FUNCTIONS:
        owner = importlib.import_module(module_name)
        *classes, attr = path.split(".")
        for cls in classes:
            owner = getattr(owner, cls)
        pair = _wrap_attr(owner, attr, name)
        if pair:
            rebinds.append(pair)
    for module_name in WORKLOAD_MODULES:
        module = importlib.import_module(module_name)
        for attr, value in list(vars(module).items()):
            if (callable(value) and not attr.startswith("_")
                    and getattr(value, "__module__", None) == module_name
                    and not isinstance(value, type)):
                rebinds.append(_wrap_attr(module, attr, "workloads.build"))
    for module_name, base_name, method, name in OVERRIDES:
        base = getattr(importlib.import_module(module_name), base_name)
        for cls in [base, *_subclasses(base)]:
            if method in cls.__dict__:
                _wrap_attr(cls, method, name)
    originals = {id(func): wrapper for func, wrapper in rebinds}
    for module_name, module in list(sys.modules.items()):
        if module_name.split(".")[0] != "repro" or module is None:
            continue
        for attr, value in list(vars(module).items()):
            wrapper = originals.get(id(value))
            if wrapper is not None and value is not wrapper:
                setattr(module, attr, wrapper)


def _record(name, start, end):
    SPANS.append([name, start, end, -1, None])


def main(argv):
    out_path, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit(__doc__)
    start = _clock()
    import repro.cli
    _record("cli.import", start, _clock())

    start = _clock()
    # Eager imports: a lazily imported module's functions could not be
    # wrapped before the command first calls them.
    for module_name in ("repro.api.engines", "repro.gpusim.vector",
                        "repro.campaign", "repro.cluster",
                        "repro.runtime"):
        importlib.import_module(module_name)
    install()
    _record("trace.install", start, _clock())

    code = 1
    try:
        code = _span("cli.main", repro.cli.main)(cli_args)
    finally:
        native = sys.modules["repro.gpusim._native"]
        with open(out_path, "w") as out:
            json.dump({"spans": SPANS, "exit_code": code,
                       "native_loaded": int(native._lib is not None),
                       "unavailable_reason": native.unavailable_reason},
                      out)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
