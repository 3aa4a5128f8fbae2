"""Layered end-to-end benchmark of the ``repro`` command line.

Run from the repository root::

    python3 perfbench/run.py --workload queue_cold --seed 1 --seconds 15 --trace 0

The workload's scenario is generated from ``--seed`` and run the way a
user runs it, ``python -m repro run|campaign <file>`` in a fresh
process, repeatedly for ``--seconds``.  Every run's output is checked.
With ``--trace 1`` one more run goes through ``perfbench/traced.py`` and
the report gives per-layer numbers from its spans.  The last line of
standard output is a JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics`` (the end-to-end metrics of ``BENCHMARK.json``, or its
per-layer metrics under ``--trace 1``).  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import os
import pathlib
import platform
import shutil
import signal
import subprocess
import sys
import threading
import time

import scenarios
import stats

HERE = pathlib.Path(__file__).resolve().parent
#: Result digests recorded at one seed, with their ENGINE_VERSION.
DIGESTS = HERE / "digests.json"

#: Native-core builds per set-up; the build part of set-up time is
#: their median.
NATIVE_BUILDS = 3
#: Timed runs per invocation even when ``--seconds`` is already spent.
MIN_TIMED_RUNS = 3
#: A child still running after this long is killed and counts as failed.
CHILD_TIMEOUT_S = 120

NATIVE_PROBE = (
    "import json, repro.cli, repro.gpusim.vector\n"
    "from repro.gpusim import _native\n"
    "_native.load()\n"
    "print(json.dumps(_native.unavailable_reason))\n")


class Child:
    """One finished child process: wall time, peak RSS, exit status."""

    def __init__(self, argv, env, log: pathlib.Path):
        with open(log, "wb") as out:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, env=env, stdout=out,
                                    stderr=subprocess.STDOUT)
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                # wait4 gives this child's own rusage; RUSAGE_CHILDREN
                # would be a running maximum over every child so far.
                _pid, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            self.wall_s = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.returncode = proc.returncode
        self.peak_rss_mb = usage.ru_maxrss / 1024.0
        self.log = log


class Bench:
    """One invocation's work directory, caches, runs and verdicts."""

    def __init__(self, root: pathlib.Path, workload: str, seed: int):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.campaign = scenarios.WORKLOADS[workload]["command"] == "campaign"
        self.warm = scenarios.WORKLOADS[workload]["warm"]
        self.work = (root / ".perfbench_work"
                     / f"{workload}-{seed}-{os.getpid()}")
        self.work.mkdir(parents=True)
        self._dirs = itertools.count()
        self.scenario = self.work / "scenario.json"
        self.scenario.write_bytes(scenarios.scenario_bytes(workload, seed))
        self.native_cache = None
        self.warm_cache = self.fresh_dir("cache")
        self.attempted = 0
        self.failed = 0
        self.problems = []
        #: The first run with a result: its bytes, the output check's
        #: verdict (None when correct), parsed result, unit results
        #: (campaign), digest and profile cache.
        self.reference = None
        self.reference_problem = None
        self.result = None
        self.units = []
        self.reference_cache = None
        self.digest = None

    def fresh_dir(self, tag: str) -> pathlib.Path:
        path = self.work / f"{tag}-{next(self._dirs)}"
        path.mkdir()
        return path

    def env(self, profile_cache: pathlib.Path):
        env = dict(os.environ)
        env.pop("REPRO_VECTOR_NATIVE", None)
        env["PYTHONPATH"] = str(self.root / "src")
        env["REPRO_PROFILE_CACHE"] = str(profile_cache)
        env["REPRO_NATIVE_CACHE"] = str(self.native_cache)
        return env

    def build_native(self):
        """Build the vector C core into a fresh cache (and warm the
        bytecode cache); return (seconds, why the core is unavailable)."""
        self.native_cache = self.fresh_dir("native")
        log = self.work / f"native-{self.native_cache.name}.log"
        child = Child([sys.executable, "-c", NATIVE_PROBE],
                      self.env(self.fresh_dir("cache")), log)
        if child.returncode != 0:
            raise SystemExit(f"native build probe failed:\n"
                             f"{log.read_text(errors='replace')}")
        return child.wall_s, json.loads(log.read_text().splitlines()[-1])

    def run(self, profile_cache, extra=(), spans=None):
        """Run the workload's command once; return (Child, out dir)."""
        out = self.fresh_dir("out")
        if spans is None:
            argv = [sys.executable, "-m", "repro"]
        else:
            argv = [sys.executable, str(HERE / "traced.py"), str(spans), "--"]
        if self.campaign:
            argv += ["campaign", str(self.scenario), "--out-dir", str(out),
                     "--shard-workers", "1"]
        else:
            argv += ["run", str(self.scenario), "--out",
                     str(out / "result.json")]
        child = Child(argv + list(extra), self.env(profile_cache),
                      self.work / f"{out.name}.log")
        self.attempted += 1
        return child, out

    def result_path(self, out: pathlib.Path) -> pathlib.Path:
        return out / ("campaign_result.json" if self.campaign
                      else "result.json")

    def fail(self, what: str, problem: str, child: Child) -> None:
        self.failed += 1
        tail = child.log.read_text(errors="replace")[-2000:]
        self.problems.append(f"{what}: {problem}\n{tail}")

    def check(self, child: Child, out: pathlib.Path, cache, what) -> bool:
        """Check one run.  The first run with a result becomes the
        reference and gets the full output check; every other run must
        match its bytes and shares its verdict."""
        path = self.result_path(out)
        if child.returncode != 0:
            problem = f"exit code {child.returncode}"
        elif not path.exists():
            problem = "no result file"
        else:
            raw = path.read_bytes()
            first = self.reference is None
            if first:
                self.reference, self.reference_cache = raw, cache
            try:
                units = (scenarios.check_campaign_files(out, json.loads(raw))
                         if self.campaign else [])
                if first:
                    self.deep_check(raw, units)
                problem = None
            except (OSError, ValueError, KeyError, TypeError) as exc:
                problem = f"output check: {exc}"
            if first:
                self.reference_problem = problem
            elif problem is None:
                problem = (self.reference_problem if raw == self.reference
                           else "result bytes differ from the first run")
        if problem is not None:
            self.fail(what, problem, child)
        return problem is None

    def deep_check(self, raw: bytes, units) -> None:
        result = json.loads(raw)
        self.result, self.units = result, units
        self.digest = scenarios.result_digest(result)
        scenarios.check_result(self.workload, self.seed, result, units)
        recorded = json.loads(DIGESTS.read_text())
        version = result["provenance"]["engine_version"]
        if (self.seed == recorded["seed"]
                and version == recorded["engine_version"]
                and self.digest != recorded["digests"][self.workload]):
            raise ValueError(f"digest {self.digest} differs from the one "
                             f"recorded for seed {self.seed} at engine "
                             f"version {version}")

    def check_event_parity(self) -> None:
        """The event engine must give the vector result, bar the
        recorded backend."""
        child, out = self.run(self.warm_cache, ["--backend", "event"])
        path = self.result_path(out)
        if child.returncode != 0 or not path.exists():
            self.fail("event parity run", "no result", child)
        elif (_without_backend(json.loads(path.read_bytes()))
              != _without_backend(json.loads(self.reference))):
            self.fail("event parity run",
                      "event result differs from vector", child)


def _without_backend(result):
    result["provenance"].pop("backend", None)
    result["scenario"]["execution"].pop("backend", None)
    return result


def queue_solo_cycles(root: pathlib.Path, scenario: pathlib.Path,
                      cache: pathlib.Path):
    """Solo cycles of every queued app, read from a cold run's profile
    cache (the queue result itself carries none)."""
    sys.path.insert(0, str(root / "src"))
    from repro.api import Scenario, build_queue
    from repro.api.registry import REGISTRY
    from repro.core import Profiler

    parsed = Scenario.from_json(scenario.read_text())
    profiler = Profiler(REGISTRY.create("gpu-configs",
                                        parsed.devices.config),
                        cache_dir=cache)
    solo = {name: profiler.solo_cycles(name, spec)
            for name, spec in build_queue(parsed)}
    if profiler.simulations_run:
        raise ValueError("a queued app is missing from the profile cache")
    return solo


def profile_files(cache: pathlib.Path) -> int:
    return len(list(cache.glob("profile_*.json")))


def host_info():
    gcc = shutil.which("gcc")
    version = (subprocess.run([gcc, "-dumpfullversion"], capture_output=True,
                              text=True).stdout.strip() if gcc else "none")
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "gcc": version}


def layer_metrics(trace, wall_s, untraced_median, misses, result_bytes,
                  bytes_written):
    spans = trace["spans"]
    agg = stats.aggregate(spans)

    def get(name, field):
        return agg[name][field] if name in agg else 0

    profile_calls = get("core.profile", "calls")
    engine_s = get("gpusim.event", "self") + get("gpusim.vector", "self")
    events = get("gpusim.event", "value") + get("gpusim.vector", "value")
    return {
        "cli.import_s": get("cli.import", "total"),
        "core.context_s": get("core.context", "total"),
        "core.profile_calls": profile_calls,
        "core.profile_misses": misses,
        "core.profile_hit_ratio": ((profile_calls - misses) / profile_calls
                                   if profile_calls else 1.0),
        "core.interference_s": get("core.interference", "total"),
        "core.plan_calls": get("core.plan", "calls"),
        "core.plan_s": get("core.plan", "total"),
        "ilp.solve_calls": get("ilp.solve", "calls"),
        "ilp.solve_s": get("ilp.solve", "total"),
        "core.run_group_calls": get("core.run_group", "calls"),
        # SMRA ticks run inside the engine's span but are core work.
        "core.run_group_self_s": (get("core.run_group", "self")
                                  + get("core.smra", "total")),
        "gpusim.runs": get("gpusim.event", "calls")
                       + get("gpusim.vector", "calls"),
        "gpusim.event_s": get("gpusim.event", "self"),
        "gpusim.vector_s": get("gpusim.vector", "self"),
        "gpusim.events": events,
        "gpusim.events_per_s": events / engine_s if engine_s else 0.0,
        "gpusim.native_loaded": trace["native_loaded"],
        "runtime.stream_self_s": get("runtime.stream", "self"),
        "cluster.fleet_self_s": get("cluster.fleet", "self"),
        "cluster.placement_calls": get("cluster.placement", "calls"),
        "cluster.placement_s": get("cluster.placement", "total"),
        "workloads.build_s": get("workloads.build", "total"),
        "api.load_s": get("api.load", "total"),
        "api.write_s": get("api.write", "total"),
        "api.result_bytes": result_bytes,
        "analysis.summarize_s": get("analysis.summarize", "total"),
        "campaign.plan_s": get("campaign.plan", "total"),
        "campaign.shards": get("campaign.shard", "calls"),
        "campaign.shard_s": get("campaign.shard", "total"),
        "campaign.merge_s": get("campaign.merge", "total"),
        "campaign.bytes_written": bytes_written,
        "trace.unattributed_s": stats.unattributed(spans, wall_s),
        "trace.overhead_frac": wall_s / untraced_median - 1.0,
    }


def measure(bench: Bench, seconds: float, trace: bool):
    """Set up, run and check; return the end-to-end metrics, their
    quartiles, the timed-run count, the modelled outcome and, when
    traced, the per-layer metrics."""
    builds = []
    for _ in range(NATIVE_BUILDS):
        build_s, reason = bench.build_native()
        if reason is not None:
            raise SystemExit(f"the vector C core failed to load: {reason}")
        builds.append(build_s)
    setup_s = stats.median(builds)
    if bench.warm:
        # The one cold run a user pays before the cache is warm.
        cold, cold_out = bench.run(bench.warm_cache)
        setup_s += cold.wall_s

    timed = []
    start = time.perf_counter()
    while (len(timed) < MIN_TIMED_RUNS
           or time.perf_counter() - start < seconds):
        cache = bench.warm_cache if bench.warm else bench.fresh_dir("cache")
        before = profile_files(cache)
        child, out = bench.run(cache)
        what = f"timed run {len(timed) + 1}"
        if bench.check(child, out, cache, what) and bench.warm and (
                profile_files(cache) != before):
            bench.fail(what, "a warm run wrote a profile", child)
        timed.append(child)
    if bench.result is None:
        raise SystemExit("no run produced a readable result:\n"
                         + "\n".join(bench.problems))
    if bench.warm:
        bench.check(cold, cold_out, bench.warm_cache, "cold set-up run")
    if bench.workload == "fleet_warm":
        bench.check_event_parity()

    walls = [c.wall_s for c in timed]
    rates = [scenarios.completed_apps(bench.workload, bench.result) / w
             for w in walls]
    rss = [c.peak_rss_mb for c in timed]
    solo = (queue_solo_cycles(bench.root, bench.scenario,
                              bench.reference_cache)
            if bench.workload == "queue_cold" else None)
    e2e = {"wall_s": stats.median(walls),
           "apps_per_s": stats.median(rates),
           "setup_s": setup_s,
           "peak_rss_mb": stats.median(rss)}
    sim = scenarios.sim_metrics(bench.workload, bench.result, bench.units,
                                solo)
    spreads = {"wall_s": stats.quartiles(walls),
               "apps_per_s": stats.quartiles(rates),
               "peak_rss_mb": stats.quartiles(rss)}

    layers = None
    if trace:
        cache = bench.warm_cache if bench.warm else bench.fresh_dir("cache")
        spans = bench.work / "spans.json"
        before = profile_files(cache)
        child, out = bench.run(cache, spans=spans)
        bench.check(child, out, cache, "traced run")
        if (child.returncode == 0 and spans.exists()
                and bench.result_path(out).exists()):
            misses = profile_files(cache) - before
            layers = layer_metrics(
                json.loads(spans.read_text()), child.wall_s, e2e["wall_s"],
                misses, bench.result_path(out).stat().st_size,
                sum(p.stat().st_size for p in out.rglob("*.json")))
            layers.update(sim)
            # A cold run must simulate profiles, a warm one only read.
            expected = (layers["core.profile_hit_ratio"] == 1.0
                        if bench.warm else misses > 0)
            if not expected or layers["trace.unattributed_s"] < 0:
                bench.fail("traced run", f"preconditions: misses {misses}, "
                           f"unattributed {layers['trace.unattributed_s']}",
                           child)
    return e2e, spreads, len(timed), sim, layers


def report(bench, info, e2e, spreads, runs, sim, layers, contract):
    """Print the human-readable report (everything but the last line)."""
    print(f"perfbench {bench.workload} seed {bench.seed}: {runs} timed "
          f"run(s); nproc {info['nproc']}, Python {info['python']}, gcc "
          f"{info['gcc']}, _native.unavailable_reason None")
    print(f"result digest {bench.digest} (engine version "
          f"{bench.result['provenance']['engine_version']})")
    print(f"error_rate {bench.failed}/{bench.attempted}")
    for metric in contract["end_to_end"]:
        name = metric["name"]
        line = (f"  {name:22s} {e2e[name]:>16.6g} {metric['unit']:8s} "
                f"({metric['better']} is better")
        if name in spreads:
            q1, q3 = spreads[name]
            line += f"; median of {runs}, quartiles {q1:.6g}..{q3:.6g}"
        print(line + ")")
    if layers is None:
        print("modelled outcome (exact for this seed):")
        for name, value in sim.items():
            print(f"  {name:22s} {value:>16.6g}")
    else:
        print("per-layer, from one traced run (sim_*: modelled outcome):")
        for metric in contract["per_layer"]:
            print(f"  {metric['name']:28s} {layers[metric['name']]:>14.6g} "
                  f"{metric['unit']}")
    for problem in bench.problems:
        print(f"FAILED {problem}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(scenarios.WORKLOADS))
    parser.add_argument("--seed", type=int,
                        default=json.loads(DIGESTS.read_text())["seed"])
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated benchmark still stops its child and removes its files.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    root = pathlib.Path.cwd()
    if not (root / "src" / "repro").is_dir():
        raise SystemExit("run from the repository root: src/repro is "
                         "missing")
    contract = json.loads((root / "BENCHMARK.json").read_text())
    bench = Bench(root, args.workload, args.seed)
    try:
        e2e, spreads, runs, sim, layers = measure(bench, args.seconds,
                                                  bool(args.trace))
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)
        with contextlib.suppress(OSError):  # another invocation's is there
            bench.work.parent.rmdir()
    report(bench, host_info(), e2e, spreads, runs, sim, layers, contract)
    if args.trace and layers is None:
        raise SystemExit("the traced run failed:\n"
                         + "\n".join(bench.problems))
    chosen = (contract["per_layer"] if args.trace
              else contract["end_to_end"])
    values = layers if args.trace else e2e
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {m["name"]: {"value": values[m["name"]],
                                "unit": m["unit"]} for m in chosen},
    }))


if __name__ == "__main__":
    main()
