"""Tests for the benchmark's own code (statistics, spans, digests,
scenario generation and the traced runner)."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

import scenarios
import stats

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent


def test_median_and_quartiles():
    values = [float(v) for v in range(1, 11)]
    assert stats.median(values) == 5.5
    assert stats.quartiles(values) == (2.75, 8.25)
    assert stats.quartiles([3.0]) == (3.0, 3.0)


def test_self_time_from_nested_spans():
    spans = [
        ["main", 0.0, 10.0, -1, None],
        ["a", 1.0, 5.0, 0, None],
        ["a", 2.0, 3.0, 1, None],      # nested call of the same layer
        ["b", 6.0, 9.0, 0, 7],
        ["b", 9.5, 9.75, 0, 1],
    ]
    agg = stats.aggregate(spans)
    assert agg["main"]["self"] == pytest.approx(10 - 4 - 3 - 0.25)
    assert agg["a"]["calls"] == 1
    assert agg["a"]["total"] == pytest.approx(4.0)
    assert agg["a"]["self"] == pytest.approx(4.0)
    assert agg["b"]["calls"] == 2
    assert agg["b"]["value"] == 8
    assert stats.unattributed(spans, 12.0) == pytest.approx(2.0)
    # Self times of every span add up to the top-level spans' time.
    assert sum(e["self"] for e in agg.values()) == pytest.approx(10.0)


def _run_result():
    return {"kind": "fleet", "metrics": {"makespan": 10},
            "apps": [{"name": "BP"}], "groups": [], "devices": [{}],
            "scenario": {"execution": {}},
            "provenance": {"engine_version": 1, "seed": 3}}


def test_digest_ignores_provenance():
    base = _run_result()
    other = _run_result()
    other["provenance"]["backend"] = "vector"
    other["provenance"]["spec_hash"] = "x"
    assert scenarios.result_digest(base) == scenarios.result_digest(other)
    other["metrics"]["makespan"] = 11
    assert scenarios.result_digest(base) != scenarios.result_digest(other)


def test_campaign_digest_covers_metrics_and_shard_hashes():
    merged = {"metrics": {"apps": 4},
              "per_shard": [{"result_hash": "a", "file": "s0.json"}],
              "provenance": {"campaign_hash": "c"}}
    digest = scenarios.result_digest(merged)
    merged["provenance"]["campaign_hash"] = "d"
    assert scenarios.result_digest(merged) == digest
    merged["per_shard"][0]["result_hash"] = "b"
    assert scenarios.result_digest(merged) != digest


@pytest.mark.parametrize("workload", sorted(scenarios.WORKLOADS))
def test_same_seed_same_bytes_and_valid_scenario(workload):
    from repro.api import Scenario
    from repro.campaign import CampaignSpec

    raw = scenarios.scenario_bytes(workload, 5)
    assert raw == scenarios.scenario_bytes(workload, 5)
    parse = (CampaignSpec if workload == "campaign_warm"
             else Scenario).from_json
    parse(raw.decode())     # the program accepts every generated file


def test_seed_changes_workload_and_fault_seeds():
    a = json.loads(scenarios.scenario_bytes("fleet_warm", 1))
    b = json.loads(scenarios.scenario_bytes("fleet_warm", 2))
    assert a["workload"]["seed"] != b["workload"]["seed"]
    assert a["faults"]["seed"] != b["faults"]["seed"]
    a["workload"].pop("seed"), b["workload"].pop("seed")
    a["faults"].pop("seed"), b["faults"].pop("seed")
    assert a == b
    q1 = json.loads(scenarios.scenario_bytes("queue_cold", 1))
    q2 = json.loads(scenarios.scenario_bytes("queue_cold", 2))
    assert q1["workload"]["seed"] != q2["workload"]["seed"]
    c1 = json.loads(scenarios.scenario_bytes("campaign_warm", 1))
    c2 = json.loads(scenarios.scenario_bytes("campaign_warm", 2))
    assert not (set(c1["grid"]["workload.seed"])
                & set(c2["grid"]["workload.seed"]))


def test_unknown_workload_rejected():
    with pytest.raises(ValueError, match="unknown workload"):
        scenarios.scenario_bytes("nope", 1)


def test_traced_run_matches_plain_run(tmp_path):
    """The traced runner records layer spans without double counting
    and without changing the result bytes."""
    scenario = tmp_path / "tiny.json"
    scenario.write_text(json.dumps({
        "schema_version": 1, "kind": "stream",
        "workload": {"source": "stream", "apps": 3, "scale": 0.05,
                     "synthetic_fraction": 0.0, "seed": 2,
                     "arrival": "poisson", "mean_gap": 2000.0},
        "policy": {"name": "fcfs", "nc": 2},
        "devices": {"count": 1, "config": "small-test"}}))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               REPRO_PROFILE_CACHE=str(tmp_path / "cache"),
               REPRO_NATIVE_CACHE=str(tmp_path / "native"))
    plain, traced = tmp_path / "plain.json", tmp_path / "traced.json"
    spans_path = tmp_path / "spans.json"
    subprocess.run([sys.executable, "-m", "repro", "run", str(scenario),
                    "--out", str(plain)], env=env, check=True,
                   capture_output=True, timeout=120)
    subprocess.run([sys.executable, str(HERE / "traced.py"),
                    str(spans_path), "--", "run", str(scenario),
                    "--out", str(traced)], env=env, check=True,
                   capture_output=True, timeout=120)
    assert traced.read_bytes() == plain.read_bytes()
    trace = json.loads(spans_path.read_text())
    spans = trace["spans"]
    agg = stats.aggregate(spans)
    assert trace["exit_code"] == 0
    for name in ("cli.import", "cli.main", "api.load", "api.run",
                 "core.context", "core.profile", "runtime.stream",
                 "gpusim.event", "analysis.summarize", "api.write"):
        assert name in agg, name
    assert agg["gpusim.event"]["value"] > 0
    # Every span closes inside its parent; nothing is counted twice.
    for name, start, end, parent, _value in spans:
        assert start <= end
        if parent >= 0:
            assert spans[parent][1] <= start and end <= spans[parent][2]
    top = sorted((start, end) for _n, start, end, parent, _v in spans
                 if parent < 0)
    assert all(a[1] <= b[0] for a, b in zip(top, top[1:]))
    assert all(e["self"] >= -1e-9 for e in agg.values())
