"""Per-class interference measurement (§3.2.2, Fig. 3.4).

Every class is co-run against every other class (via representative
benchmark pairs on an evenly split device) and the slowdown of each side
relative to its solo execution is recorded.  Aggregating by class pair
yields the slowdown matrix ``S[i][j]`` — the average slowdown a class-*i*
application suffers when co-executing with a class-*j* application — from
which the ILP's inverse-slowdown coefficients (Eq. 3.4) are computed.

For three concurrent applications the pairwise matrix is composed
additively: ``S(a | {b, c}) = S[a][b] + S[a][c] − 1`` (excess slowdowns
add).  The paper states its two-application methodology "can be
replicated for three application execution" without giving the
composition rule; the additive model is the standard first-order choice
and is validated against direct 3-way co-runs in the test suite.
"""

from __future__ import annotations

import itertools
import json
import pathlib
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.gpusim import (ENGINE_VERSION, Application, GPUConfig, KernelSpec,
                          simulate)

from .classification import (CLASS_ORDER, NUM_CLASSES, AppClass,
                             ClassificationThresholds, classify)
from .patterns import Pattern
from .profiling import (CacheDir, Profiler, fingerprint, warm_profiles,
                        write_atomic)


@dataclass
class InterferenceModel:
    """The class-level slowdown matrix and the e-coefficients built on it."""

    slowdown: Tuple[Tuple[float, ...], ...]  # S[i][j], indices per CLASS_ORDER
    samples: Dict[Tuple[str, str], Tuple[float, float]] = field(
        default_factory=dict)

    def __post_init__(self):
        if len(self.slowdown) != NUM_CLASSES or any(
                len(row) != NUM_CLASSES for row in self.slowdown):
            raise ValueError("slowdown matrix must be NT x NT")
        if any(s < 1.0 - 1e-9 for row in self.slowdown for s in row):
            raise ValueError("slowdowns must be >= 1")

    def pair_slowdown(self, victim: AppClass, aggressor: AppClass) -> float:
        return self.slowdown[CLASS_ORDER.index(victim)][
            CLASS_ORDER.index(aggressor)]

    def group_slowdown(self, victim: AppClass,
                       others: Sequence[AppClass]) -> float:
        """Slowdown of `victim` co-running with `others` (additive model)."""
        if not others:
            return 1.0
        total = 1.0
        for other in others:
            total += self.pair_slowdown(victim, other) - 1.0
        return total

    def pattern_coefficient(self, pattern: Pattern) -> float:
        """e_k of Eq. 3.4: mean inverse slowdown of the pattern's members."""
        members = pattern.classes
        inv_sum = 0.0
        for i, victim in enumerate(members):
            others = members[:i] + members[i + 1:]
            inv_sum += 1.0 / self.group_slowdown(victim, list(others))
        return inv_sum / len(members)

    def coefficients(self, patterns: Sequence[Pattern]) -> List[float]:
        return [self.pattern_coefficient(p) for p in patterns]


def _pick_pairs(by_class: Mapping[AppClass, Sequence[str]],
                ci: AppClass, cj: AppClass,
                samples: int) -> List[Tuple[str, str]]:
    """Deterministic benchmark pairs representing the class pair (ci, cj)."""
    left, right = list(by_class[ci]), list(by_class[cj])
    if ci == cj:
        combos = (list(itertools.combinations(left, 2))
                  or [(left[0], left[0])])
        return combos[:samples]
    # Diagonal sampling: rotate through *both* class member lists so every
    # benchmark of a class eventually appears as aggressor and as victim —
    # sampling only the first member would hide within-class variance
    # (e.g. BLK vs GUPS are very different class-M aggressors).
    pairs = []
    seen = set()
    k = 0
    while len(pairs) < samples and k < len(left) * len(right):
        pair = (left[k % len(left)], right[k % len(right)])
        if pair not in seen:
            seen.add(pair)
            pairs.append(pair)
        k += 1
    return pairs


def interference_cache_key(config: GPUConfig,
                           suite: Mapping[str, KernelSpec],
                           thresholds: ClassificationThresholds,
                           samples_per_pair: int,
                           profiler_config: Optional[GPUConfig] = None
                           ) -> str:
    """Disk-cache key of one interference-matrix measurement.

    `profiler_config` is the device the solo-cycle denominators were
    profiled on; it is part of the key so a caller passing a profiler
    built for a different config cannot poison (or read) the entries of
    the matching-config case."""
    return fingerprint(ENGINE_VERSION, config,
                       sorted((n, s) for n, s in suite.items()),
                       thresholds, samples_per_pair,
                       profiler_config if profiler_config is not None
                       else config)


def _model_to_json(model: InterferenceModel) -> str:
    return json.dumps({
        "slowdown": [list(row) for row in model.slowdown],
        "samples": [[a, b, sa, sb]
                    for (a, b), (sa, sb) in sorted(model.samples.items())],
    }, indent=1, sort_keys=True)


def _model_from_json(text: str) -> InterferenceModel:
    data = json.loads(text)
    return InterferenceModel(
        slowdown=tuple(tuple(row) for row in data["slowdown"]),
        samples={(a, b): (sa, sb) for a, b, sa, sb in data["samples"]})


def _pair_jobs(by_class: Mapping[AppClass, Sequence[str]],
               samples_per_pair: int) -> List[Tuple[int, int, str, str]]:
    """The full, deterministically ordered list of pair co-runs to
    measure: (victim class index, aggressor class index, name_a, name_b)."""
    jobs: List[Tuple[int, int, str, str]] = []
    for i, ci in enumerate(CLASS_ORDER):
        for j in range(i, NUM_CLASSES):
            cj = CLASS_ORDER[j]
            if not by_class[ci] or not by_class[cj]:
                continue
            for name_a, name_b in _pick_pairs(by_class, ci, cj,
                                              samples_per_pair):
                jobs.append((i, j, name_a, name_b))
    return jobs


def measure_interference(config: GPUConfig,
                         suite: Mapping[str, KernelSpec],
                         profiler: Optional[Profiler] = None,
                         thresholds: Optional[ClassificationThresholds] = None,
                         samples_per_pair: int = 2,
                         cache_dir: CacheDir = None,
                         executor=None) -> InterferenceModel:
    """Build the Fig. 3.4 slowdown matrix by running class-pair co-runs.

    Parameters
    ----------
    suite:
        name → kernel spec of the benchmark suite to sample from.
    samples_per_pair:
        How many distinct benchmark pairs to average per class pair.
    cache_dir:
        Optional persistent cache directory: the measured matrix (and its
        per-pair samples) is stored keyed by a content hash of config,
        suite, thresholds, sampling, and engine version — identical
        reruns load instead of co-running dozens of simulations.
    executor:
        Optional :class:`repro.runtime.executors.Executor`.  A parallel
        executor fans the solo profiles and the pair co-runs across
        worker processes (sharing profiles through the on-disk cache);
        slowdowns are then accumulated in the same deterministic order
        as the serial path, so the resulting matrix is identical.
    """
    profiler = profiler or Profiler(config)
    thresholds = thresholds or ClassificationThresholds.for_device(config)
    parallel = executor is not None and getattr(executor, "workers", 1) > 1

    cache_path = None
    if cache_dir is not None:
        key = interference_cache_key(config, suite, thresholds,
                                     samples_per_pair,
                                     profiler_config=profiler.config)
        cache_path = (pathlib.Path(cache_dir) /
                      f"interference_{key[:20]}.json")
        try:
            return _model_from_json(cache_path.read_text())
        except (OSError, ValueError, KeyError, TypeError):
            pass  # missing or corrupt → measure and rewrite

    if parallel:
        # Solo profiles fan out across workers (sharing the disk cache)
        # so the `profiler.profile` calls below are pure hits.
        warm_profiles(profiler, executor, suite.items())

    by_class: Dict[AppClass, List[str]] = {c: [] for c in CLASS_ORDER}
    solo: Dict[str, int] = {}
    for name, spec in suite.items():
        metrics = profiler.profile(name, spec)
        by_class[classify(metrics, thresholds)].append(name)
        solo[name] = metrics.solo_cycles

    jobs = _pair_jobs(by_class, samples_per_pair)
    if parallel:
        finishes = executor.run_pairs(config, [
            ((name_a, suite[name_a]), (f"{name_b}#co", suite[name_b]))
            for _i, _j, name_a, name_b in jobs])
    else:
        finishes = []
        for _i, _j, name_a, name_b in jobs:
            result = simulate(config, [
                Application(name_a, suite[name_a]),
                Application(f"{name_b}#co", suite[name_b])])
            # `or result.cycles` mirrors the parallel _pair_job exactly:
            # an app cut off at max_cycles counts the full run instead of
            # crashing on a None finish cycle.
            finishes.append(
                (result.app_stats[0].finish_cycle or result.cycles,
                 result.app_stats[1].finish_cycle or result.cycles))

    sums = [[0.0] * NUM_CLASSES for _ in range(NUM_CLASSES)]
    counts = [[0] * NUM_CLASSES for _ in range(NUM_CLASSES)]
    samples: Dict[Tuple[str, str], Tuple[float, float]] = {}

    for (i, j, name_a, name_b), (finish_a, finish_b) in zip(jobs, finishes):
        s_a = finish_a / solo[name_a]
        s_b = finish_b / solo[name_b]
        s_a, s_b = max(1.0, s_a), max(1.0, s_b)
        samples[(name_a, name_b)] = (s_a, s_b)
        sums[i][j] += s_a
        counts[i][j] += 1
        sums[j][i] += s_b
        counts[j][i] += 1

    matrix = tuple(
        tuple(sums[i][j] / counts[i][j] if counts[i][j] else 1.0
              for j in range(NUM_CLASSES))
        for i in range(NUM_CLASSES))
    model = InterferenceModel(slowdown=matrix, samples=samples)
    if cache_path is not None:
        try:
            cache_path.parent.mkdir(parents=True, exist_ok=True)
            write_atomic(cache_path, _model_to_json(model))
        except OSError:
            pass  # read-only checkouts never block measurement
    return model


#: The paper's Appendix A coefficients (Eq. 5.1), derived from its
#: Fig. 3.4 measurements.  Order matches ``enumerate_patterns(2)``:
#: M-M, M-MC, M-C, M-A, MC-MC, MC-C, MC-A, C-C, C-A, A-A.
PAPER_APPENDIX_E: Tuple[float, ...] = (
    0.0072, 0.0110, 0.0146, 0.03584, 0.0204,
    0.0202, 0.0698, 0.0178, 0.0412, 0.166)
