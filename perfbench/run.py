"""Benchmark entry point: runs one workload for a fixed time and prints its
metrics.

    python3 perfbench/run.py --workload existence --seed 1 --seconds 30 --trace 0

Workloads: existence, oscillatory, pair (see workloads.py for what each
exercises and why).  The run is a closed loop with one caller: it starts
one fresh worker process per pass over the workload's task list, one after
another, until the next pass would overrun ``--seconds`` (at least
MIN_PASSES passes).  Workers run on one thread: BLAS threads are capped
at 1 (with two BLAS threads the 1e5 x 256 products of the pair workload ran
slower and twice as noisy on a 2-CPU machine).

--trace 0 reports the end-to-end metrics (tracing off), times in reference
seconds (speed.py: the time at a fixed machine speed, sampled as the pass runs):
    wall_s        median over passes of the time to run the task list
    task_p50_ms   median latency of one task (one public call)
    task_tail_ms  latency at the highest percentile that has ten tasks
                  beyond it in MIN_PASSES passes, taken over all passes
                  (percentile and task count are printed)
    setup_s       median over passes of process start to ready (library
                  import and input generation)
    peak_rss_mb   median over passes of the worker's ru_maxrss
--trace 1 alternates untraced and traced passes, then runs the layer
microbenchmarks, and reports the per-layer metrics of metrics.PER_LAYER.

Every task result is checked against an independent reference; failures
are counted in ``failed`` and ``failed_frac`` and make the exit code 1.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  If the library
cannot be found or a worker dies, the run prints no result and exits 2.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("existence", "oscillatory", "pair")
MIN_PASSES = 3
TAIL_BEYOND = 10
BLAS_THREADS = 1
# a run must end within 180 s; leave room for the last pass to finish
DEADLINE_S = 150.0


class BenchmarkError(RuntimeError):
    """The benchmark itself could not run (no result is printed)."""


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _worker_env() -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    # Workers import the library from bytecode caches, as an installed copy
    # would, whatever the caller's environment says; the first pass in a
    # checkout writes them.  Compiling every module on every pass made
    # setup_s 13-21 % and peak_rss_mb 2 MB higher.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def _spawn(args: list, env: dict, started: float) -> dict:
    timeout = DEADLINE_S - (_now() - started)
    if timeout <= 0:
        raise BenchmarkError(f"no time left for another pass ({DEADLINE_S:.0f} s)")
    spawned = _now()
    try:
        proc = subprocess.run([sys.executable, str(WORKER), *args, "--spawned", repr(spawned)],
                              cwd=ROOT, env=env, stdout=subprocess.PIPE, timeout=timeout,
                              text=True)
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"worker {args} exceeded {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchmarkError(f"worker {args} exited with code {proc.returncode}")
    return json.loads(lines[-1])


def tail(latencies: list, per_pass: int) -> tuple:
    """(value, percentile) at the highest percentile that leaves exactly
    TAIL_BEYOND tasks beyond it in MIN_PASSES passes of ``per_pass`` tasks.

    The percentile depends only on the task list, so runs that fit
    different numbers of passes report the same percentile; extra passes
    only estimate it from more tasks."""
    n = MIN_PASSES * per_pass
    if n <= TAIL_BEYOND:
        raise BenchmarkError(f"{n} tasks are too few for a tail with {TAIL_BEYOND} beyond it")
    xs = sorted(latencies)
    rank = -(-(n - TAIL_BEYOND) * len(xs) // n)   # ceil, in integers
    return xs[max(0, rank - 1)], 100.0 * (n - TAIL_BEYOND) / n


def end_to_end(passes: list) -> dict:
    """End-to-end metrics in reference seconds (see speed.py), with the raw
    medians they were converted from."""
    lat = [t["ref_ms"] for p in passes for t in p["tasks"]]
    tail_ms, pct = tail(lat, len(passes[0]["tasks"]))
    return {
        "values": {
            "wall_s": statistics.median(p["wall_ref_s"] for p in passes),
            "task_p50_ms": statistics.median(lat),
            "task_tail_ms": tail_ms,
            "setup_s": statistics.median(p["setup_ref_s"] for p in passes),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        },
        "raw": {
            "wall_s": statistics.median(p["wall_s"] for p in passes),
            "task_p50_ms": statistics.median(t["ms"] for p in passes for t in p["tasks"]),
            "setup_s": statistics.median(p["setup_s"] for p in passes),
            "speed": statistics.median(p["speed"] for p in passes),
        },
        "tail_percentile": pct,
        "tasks": len(lat),
    }


def per_layer(workload: str, plain: list, traced: list, bench: dict) -> tuple:
    """Per-layer metrics and the names left out because the function they
    need no longer exists."""
    values = {}
    absent = set(traced[0]["absent"])
    for name in metrics.TRACED:
        if name not in absent:
            values[name] = statistics.median(p["layers"][name] for p in traced)
    for name in metrics.MICROBENCH:
        if name in bench["metrics"]:
            values[name] = bench["metrics"][name]
        else:
            absent.add(name)
    values["proc.cpu_s"] = statistics.median(p["cpu_s"] for p in plain)
    values["trace.overhead_s"] = statistics.median(p["wall_s"] for p in traced) \
        - statistics.median(p["wall_s"] for p in plain)

    zero = [k for k in metrics.EXPECTED_NONZERO[workload] if k in values and not values[k]]
    if zero:
        raise BenchmarkError(f"counters expected nonzero on {workload} read 0: {zero}")
    for label, taken in bench["routes"].items():
        want = f"specfun.hyp1f2.route_{label}"
        if taken != [want]:
            raise BenchmarkError(f"microbench point {label} took routes {taken}, not {want}")
    return values, sorted(absent)


def run(workload: str, seed: int, seconds: float, trace: bool, size: str) -> dict:
    started = _now()
    if not (ROOT / "src" / "besselprob" / "__init__.py").is_file():
        raise BenchmarkError(f"library source not found under {ROOT / 'src'}")
    env = _worker_env()
    base = ["--workload", workload, "--seed", str(seed), "--size", size]
    plain, traced, durations = [], [], []
    bench = None
    while True:
        t0 = _now()
        plain.append(_spawn(base + ["--mode", "plain"], env, started))
        if trace:
            traced.append(_spawn(base + ["--mode", "traced"], env, started))
            if bench is None:
                bench = _spawn(["--mode", "microbench"], env, started)
        durations.append(_now() - t0)
        enough = len(plain) >= (1 if trace else MIN_PASSES)
        if enough and _now() - started + statistics.median(durations) > seconds:
            break

    passes = plain + traced
    digests = {p["inputs_sha256"] for p in passes}
    if len(digests) != 1:
        raise BenchmarkError(f"passes generated different inputs: {sorted(digests)}")
    tasks = [t for p in passes for t in p["tasks"]]
    failures = sorted({t["label"] for t in tasks if not t["ok"]})
    result = {
        "workload": workload,
        "seed": seed,
        "size": size,
        "inputs_sha256": digests.pop(),
        **passes[0]["environment"],
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "passes": len(plain),
        "pass_wall_s": [round(p["wall_s"], 4) for p in plain],
        "traced_passes": len(traced),
        "attempted": len(tasks),
        "failed": len(tasks) - sum(t["ok"] for t in tasks),
        "failed_tasks": failures,
    }
    result["failed_frac"] = result["failed"] / result["attempted"]
    if trace:
        result["metrics"], result["absent"] = per_layer(workload, plain, traced, bench)
        result["routes"] = traced[0]["routes"]
    else:
        e2e = end_to_end(plain)
        result["metrics"] = e2e["values"]
        result["raw"] = {k: round(v, 4) for k, v in e2e["raw"].items()}
        result["tail_percentile"] = e2e["tail_percentile"]
        result["tasks_per_run"] = e2e["tasks"]
    return result


def report(result: dict, units: dict) -> None:
    """Human-readable lines, then the JSON result as the last line."""
    meta = {k: v for k, v in result.items() if k not in ("metrics", "routes")}
    print("run: " + json.dumps(meta, sort_keys=True))
    for name, value in result["metrics"].items():
        print(f"  {name:<44} {value:>16.6g} {units[name]}")
    print(f"  {'failed_frac':<44} {result['failed_frac']:>16.6g} ratio")
    for label, (series, hp50, asym) in result.get("routes", {}).items():
        print(f"  routes {label:<40} series {series:>7} hp50 {hp50:>6} asym {asym:>7}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in result["metrics"].items()},
    }))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "small"), default="full",
                   help="small: reduced task lists, used by the self-test")
    args = p.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.size)
    except BenchmarkError as exc:
        sys.stderr.write(f"benchmark error: {exc}\n")
        return 2
    report(result, metrics.PER_LAYER if args.trace else metrics.END_TO_END)
    return 0 if result["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
