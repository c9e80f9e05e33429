"""Self-test of the campaign benchmark on its tiny ``--quick`` grids.

Run with ``PYTHONPATH=src python -m pytest benchmarks/campaign``.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import run
import spans
import workloads
from repro.engine import TraceStore, run_campaign

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]


def _bench(*args: str) -> tuple[subprocess.CompletedProcess, dict]:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--quick", "--seconds", "0.3", *args],
        capture_output=True,
        text=True,
        timeout=120,
        cwd=ROOT,
    )
    assert done.returncode == 0, done.stderr
    return done, json.loads(done.stdout.splitlines()[-1])


def test_every_end_to_end_metric_is_printed_with_its_unit():
    done, result = _bench()
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    for workload in run.WORKLOADS:
        for name, (unit, _better) in run.END_TO_END.items():
            metric = result["metrics"][f"{workload}.{name}"]
            assert metric["unit"] == unit
            assert metric["value"] > 0
    for name, (unit, _better) in run.END_TO_END.items():
        assert done.stdout.count(f"  {name} = ") == len(run.WORKLOADS)
    assert done.stdout.count("  error_rate = 0 fraction") == len(run.WORKLOADS)


def test_traced_run_prints_every_layer_metric_and_nested_spans():
    done, result = _bench("--workload", "paper_cold", "--trace", "1")
    assert result["correct"] is True
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        name: unit for name, (unit, _better) in spans.LAYER_METRICS.items()
    }
    assert 0 < result["metrics"]["trace.coverage"]["value"] <= 1
    assert result["metrics"]["store.put_result.calls"]["value"] > 0

    path = run.spans_path("paper_cold", 0, quick=True)
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    path.unlink()
    assert {row["name"] for row in rows} >= {
        spans.ROOT,
        "store.put_result",
        "backends.evaluate",
        "ir.build_trace",
    }
    for row in rows:
        assert row["start"] <= row["end"]
        assert row["self_s"] >= -1e-9
        if row["parent"] >= 0:
            parent = rows[row["parent"]]
            assert parent["start"] <= row["start"] <= row["end"] <= parent["end"]
            assert parent["pass"] == row["pass"]
        else:
            assert row["name"] == spans.ROOT


def test_a_corrupted_counter_is_caught(tmp_path):
    spec = workloads.build_spec("paper_cold", 0, quick=True)
    store = TraceStore(tmp_path)
    expected = workloads.oracle(spec, store)["points"]
    result = run_campaign(spec, store=store, parallel=False)
    assert workloads.failed_points(result, expected) == 0

    result.records[5].outcome.stats.counts[0, 0] += 1
    assert workloads.failed_points(result, expected) == 1


def test_benchmark_json_matches_the_runner():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert bench["paths"] == ["benchmarks/campaign"]
    assert {w["name"]: w["why"] for w in bench["workloads"]} == run.WORKLOADS
    assert set(run.WORKLOADS) == set(workloads.WORKLOADS)
    assert set(json.loads(run.GOLDEN.read_text())) == {
        w.grid for w in workloads.WORKLOADS.values()
    }
    assert {
        m["name"]: (m["unit"], m["better"]) for m in bench["end_to_end"]
    } == run.END_TO_END
    assert {
        m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]
    } == spans.LAYER_METRICS
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())
    assert bench["run_seconds"] == run.DEFAULT_SECONDS
