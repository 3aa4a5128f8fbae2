"""Seeded workload generation, result digests and output checks.

Each workload is a template the benchmark's ``--seed`` fills in; the
program only ever sees the generated JSON file.  Nothing here imports
``repro``: generation and checking work on plain JSON, so they are
testable without the simulator.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import statistics
from typing import Any, Dict, List, Mapping


# Every workload draws its apps from an equal class distribution: a
# fixed multiset of kernels whose order (and arrival gaps) the seed
# shuffles, so each seed simulates the same instructions and host time
# varies little with the seed.  A random stream mix moved wall time by
# about 30% between seeds.

def _queue_cold(seed: int) -> Dict[str, Any]:
    return {
        "schema_version": 1,
        "kind": "queue",
        "name": "bench-queue-cold",
        "workload": {"source": "distribution", "distribution": "equal",
                     "length": 24, "scale": 0.25, "seed": seed},
        "policy": {"name": "ilp-smra", "nc": 2},
        "execution": {"workers": 1, "samples_per_pair": 2},
    }


def _fleet_warm(seed: int) -> Dict[str, Any]:
    return {
        "schema_version": 1,
        "kind": "fleet",
        "name": "bench-fleet-warm",
        "workload": {"source": "distribution", "distribution": "equal",
                     "length": 48, "scale": 0.3, "seed": seed,
                     "arrival": "poisson", "mean_gap": 5000.0},
        "policy": {"name": "ilp-smra", "nc": 2},
        "placement": {"name": "interference"},
        "devices": {"count": 4, "config": "gtx480",
                    "per_device": ["gtx480", "gtx480", "gtx480-half",
                                   "gtx480-double"]},
        "faults": {"kind": "mtbf", "mtbf": 200000.0, "mttr": 20000.0,
                   "horizon": 400000, "seed": seed + 1},
        "admission": {"kind": "queue-cap", "queue_cap": 16,
                      "mode": "reject"},
        "execution": {"workers": 1, "backend": "vector"},
    }


def _campaign_warm(seed: int) -> Dict[str, Any]:
    return {
        "schema_version": 1,
        "name": "bench-campaign-warm",
        "base": {
            "schema_version": 1,
            "kind": "stream",
            "name": "bench-campaign-point",
            "workload": {"source": "distribution",
                         "distribution": "equal", "length": 16,
                         "scale": 0.07, "seed": seed,
                         "arrival": "poisson", "mean_gap": 5000.0},
            "policy": {"name": "fcfs", "nc": 2},
            "execution": {"workers": 1},
        },
        "grid": {"workload.seed": [4 * seed + k for k in range(4)],
                 "policy.name": ["fcfs", "backfill", "ilp"]},
        "shard": {"strategy": "by-point", "max_shard_size": 2},
        "resume": "verify",
    }


#: Workload name -> CLI sub-command, whether the profile cache is warm,
#: and the seed -> scenario template.
WORKLOADS: Dict[str, Dict[str, Any]] = {
    "queue_cold": {"command": "run", "warm": False, "template": _queue_cold},
    "fleet_warm": {"command": "run", "warm": True, "template": _fleet_warm},
    "campaign_warm": {"command": "campaign", "warm": True,
                      "template": _campaign_warm},
}


def scenario_bytes(workload: str, seed: int) -> bytes:
    """The canonical scenario file for `workload` at `seed`."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of "
                         f"{sorted(WORKLOADS)}")
    template = WORKLOADS[workload]["template"]
    return (json.dumps(template(seed), sort_keys=True, indent=2)
            + "\n").encode()


def _sha(obj: Any) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()
                          ).hexdigest()


def result_digest(result: Mapping[str, Any]) -> str:
    """Digest of a result's modelled outcome, provenance excluded.

    A run result (queue, stream, fleet) is digested over
    ``metrics``/``apps``/``groups``/``devices``, so the engine backend
    recorded in provenance does not enter.  A merged campaign result is
    digested over its ``metrics`` and the per-shard result hashes.
    """
    if "per_shard" in result:
        body = {"metrics": result["metrics"],
                "shards": [s["result_hash"] for s in result["per_shard"]]}
    else:
        body = {key: result.get(key)
                for key in ("metrics", "apps", "groups", "devices")}
    return _sha(body)


def check_campaign_files(out_dir: pathlib.Path,
                         result: Mapping[str, Any]) -> List[Dict[str, Any]]:
    """Re-hash every shard file the merged `result` names; return the
    unit results.  Raises ``ValueError`` on a missing or altered file."""
    units: List[Dict[str, Any]] = []
    for shard in result["per_shard"]:
        raw = (out_dir / shard["file"]).read_bytes()
        if hashlib.sha256(raw).hexdigest() != shard["result_hash"]:
            raise ValueError(f"shard file {shard['file']} does not match "
                             f"its result hash")
        data = json.loads(raw)
        units.extend(data["results"] if "results" in data else [data])
    return units


def _stp_antt(apps: List[Mapping[str, Any]], solo: Mapping[str, int]):
    slowdowns = [(a["finish_cycle"] - a["arrival_cycle"]) / solo[a["name"]]
                 for a in apps]
    return (sum(1.0 / s for s in slowdowns), statistics.fmean(slowdowns))


def sim_metrics(workload: str, result: Mapping[str, Any],
                units: List[Mapping[str, Any]],
                queue_solo: Mapping[str, int]) -> Dict[str, float]:
    """The modelled outcome: makespan, IPC, STP and ANTT.

    These are simulated quantities, exact for a given seed.  The queue
    result carries no solo cycles, so its STP/ANTT use `queue_solo`
    (name -> solo cycles) taken from the run's own profile cache.  A
    campaign's IPC is the mean device throughput over its grid points.
    """
    metrics = result["metrics"]
    if workload == "queue_cold":
        stp, antt = _stp_antt(result["apps"], queue_solo)
        return {"sim_makespan_cycles": metrics["makespan"],
                "sim_ipc": metrics["device_throughput"],
                "sim_stp": stp, "sim_antt": antt}
    if workload == "fleet_warm":
        return {"sim_makespan_cycles": metrics["makespan"],
                "sim_ipc": metrics["fleet_throughput"],
                "sim_stp": metrics["stp"], "sim_antt": metrics["antt"]}
    return {"sim_makespan_cycles": metrics["makespan_max"],
            "sim_ipc": statistics.fmean(u["metrics"]["device_throughput"]
                                        for u in units),
            "sim_stp": metrics["stp"], "sim_antt": metrics["antt"]}


def completed_apps(workload: str, result: Mapping[str, Any]) -> int:
    """Applications the run completed (rejected arrivals excluded)."""
    metrics = result["metrics"]
    if workload == "queue_cold":
        return len(result["apps"])
    if workload == "fleet_warm":
        return metrics["served"]
    return metrics["apps"]


def check_result(workload: str, seed: int, result: Mapping[str, Any],
                 units: List[Mapping[str, Any]]) -> None:
    """Invariants every seed's result must satisfy; raises ``ValueError``.

    Determinism and the recorded digest are checked by the caller; these
    catch a result that is self-consistent but wrong for its input.
    """
    scenario = json.loads(scenario_bytes(workload, seed))
    metrics = result["metrics"]

    def require(ok: bool, what: str) -> None:
        if not ok:
            raise ValueError(f"{workload} seed {seed}: {what}")

    if workload == "queue_cold":
        wl = scenario["workload"]
        require(len(result["apps"]) == wl["length"], "not every app ran")
        require(sum(g["cycles"] for g in result["groups"])
                == metrics["makespan"], "group cycles do not sum to "
                "the makespan")
        require(result["provenance"]["seed"] == seed, "wrong seed")
    elif workload == "fleet_warm":
        require(metrics["arrivals"] == scenario["workload"]["length"],
                "arrival count")
        require(metrics["served"] + metrics["rejected"]
                == metrics["arrivals"], "served + rejected != arrivals")
        require(len(result["devices"]) == scenario["devices"]["count"],
                "device count")
        require(result["provenance"].get("backend") == "vector",
                "vector backend not recorded")
    else:
        grid = scenario["grid"]
        points = len(grid["workload.seed"]) * len(grid["policy.name"])
        require(len(units) == points, "unit count")
        require(metrics["units"] == points, "merged unit count")
        require(metrics["apps"] == points * scenario["base"]["workload"]
                ["length"], "merged app count")
        require(sorted(u["provenance"]["seed"] for u in units)
                == sorted(grid["workload.seed"] * len(grid["policy.name"])),
                "unit seeds")
    for app in result.get("apps") or []:
        require(app["finish_cycle"] >= app["start_cycle"]
                >= app["arrival_cycle"], f"app {app['name']} timeline")
