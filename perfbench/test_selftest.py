"""Self-test of the benchmark at reduced size.

    python3 -m pytest perfbench -q

Runs every workload once untraced and twice traced with ``--size small``
and checks that every metric is reported with its unit, that no task
fails its reference check, and that the counts which depend only on the
inputs repeat exactly between the two traced runs.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import metrics
import run
import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / HERE.name / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


_RUNS: dict = {}


def output(workload: str, trace: int, repeat: int = 0) -> str:
    """Standard output of one small run, cached across the tests."""
    key = (workload, trace, repeat)
    if key not in _RUNS:
        proc = _bench("--workload", workload, "--seed", "7", "--seconds", "1",
                      "--trace", str(trace), "--size", "small")
        assert proc.returncode == 0, proc.stderr
        _RUNS[key] = proc.stdout
    return _RUNS[key]


def result(workload: str, trace: int, repeat: int = 0) -> dict:
    return json.loads(output(workload, trace, repeat).strip().splitlines()[-1])


def test_benchmark_json_lists_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == metrics.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == metrics.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace,units", [(0, metrics.END_TO_END), (1, metrics.PER_LAYER)])
def test_metrics_present_and_no_failures(workload, trace, units):
    res = result(workload, trace)
    assert res["correct"] and res["failed"] == 0 and res["attempted"] > 0
    assert {k: v["unit"] for k, v in res["metrics"].items()} == units


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_deterministic_counts_repeat(workload):
    first, second = (result(workload, 1, r)["metrics"] for r in (0, 1))
    for name in metrics.DETERMINISTIC:
        assert first[name]["value"] == second[name]["value"], name


def test_existence_route_mix():
    """One task leans on the large-x expansion, another on the series and
    50-digit routes."""
    mixes = [line.split() for line in output("existence", 1).splitlines()
             if line.lstrip().startswith("routes ")]
    counts = [(int(f[3]), int(f[5]), int(f[7])) for f in mixes]
    assert any(asym > series + hp50 for series, hp50, asym in counts)
    assert any(series + hp50 > asym for series, hp50, asym in counts)


def test_tail_has_ten_tasks_beyond_in_min_passes():
    per_pass = 100 // run.MIN_PASSES + 1
    n = run.MIN_PASSES * per_pass
    value, pct = run.tail(list(range(n)), per_pass)
    assert value == n - run.TAIL_BEYOND - 1
    assert pct == 100.0 * (n - run.TAIL_BEYOND) / n
    # more passes: same percentile, estimated from more tasks
    value, pct2 = run.tail(list(range(2 * n)), per_pass)
    assert pct2 == pct and value == 2 * n - 2 * run.TAIL_BEYOND - 1
    with pytest.raises(run.BenchmarkError):
        run.tail(list(range(3)), 1)


def test_speed_probe_reference_seconds():
    """At half the reference speed an interval counts half its length, with
    the probe's own time taken out and a single slow sample ignored."""
    probe = speed.SpeedProbe()
    probe.starts = [0.1 * i for i in range(1, 40)]
    probe.durations = [2 * speed.REF_S] * 39
    probe.durations[15] = 20 * speed.REF_S
    assert probe.factor(1.05, 2.05) == pytest.approx(0.5)
    overhead = 9 * 2 * speed.REF_S + 20 * speed.REF_S   # ten samples inside
    assert probe.overhead(1.05, 2.05) == pytest.approx(overhead)
    assert probe.reference(1.05, 2.05) == pytest.approx((1.0 - overhead) * 0.5)


def test_speed_probe_samples_while_entered():
    with speed.SpeedProbe() as probe:
        end = speed.now() + 4.5 * speed.INTERVAL_S
        while speed.now() < end:
            pass
    assert len(probe.durations) >= 4 and all(d > 0 for d in probe.durations)


def test_fails_without_library(tmp_path):
    """In a directory holding only the benchmark, the run exits nonzero
    and prints no result."""
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _bench("--workload", "pair", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
