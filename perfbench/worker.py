"""One benchmark pass in a fresh process.

Started by run.py.  Imports the library from ``<checkout>/src``, generates
the workload's inputs from the seed, runs its task list once (closed loop,
one caller, one thread), checks every result against its reference and
prints one JSON line.  With ``--mode traced`` the pass runs under the
tracer and adds the per-layer metrics; with ``--mode microbench`` it runs
the layer microbenchmarks instead of a workload.

Each pass is its own process because every CLI invocation of the library
starts with empty caches (``lru_cache`` on zero tables, 1F2 coefficients,
Gauss-Legendre nodes); cold caches are what users pay.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import speed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


# system-wide clock, comparable with the value run.py passes in
_now = speed.now


def _cpu() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def _import_library():
    """Import besselprob from this checkout, never from an installed copy."""
    sys.path.insert(0, str(SRC))
    import besselprob

    if SRC.resolve() not in Path(besselprob.__file__).resolve().parents:
        raise SystemExit(f"besselprob imported from {besselprob.__file__}, not from {SRC}")
    return besselprob


def _environment(besselprob) -> dict:
    import mpmath
    import numpy

    return {
        "backend": besselprob.BACKEND_NAME,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
    }


def run_pass(workload: str, seed: int, size: str, traced: bool, spawned: float) -> dict:
    # Untraced passes run under the speed probe from the start, so that
    # set-up and every task can be given in reference seconds too.
    probe = None if traced else speed.SpeedProbe()
    with probe or contextlib.nullcontext():
        besselprob = _import_library()
        import workloads

        make_inputs, make_tasks = workloads.WORKLOADS[workload]
        inputs = make_inputs(seed, size)
        tasks = make_tasks(inputs)
        ready = _now()
        if traced:
            import layers
            from tracer import Tracer

            tr = Tracer()
            absent = layers.install(tr)
        routes = []
        outcomes = []
        cpu0 = _cpu()
        loop0 = _now()
        for task in tasks:
            if traced:
                before = [tr.counts[k] for k in layers.ROUTES]
            t0 = _now()
            try:
                result = tr.call("task", task.call, (), {}) if traced else task.call()
                error = None
            except Exception:
                result, error = None, traceback.format_exc()
            outcomes.append((t0, _now(), result, error))
            if traced:
                routes.append([tr.counts[k] - b for k, b in zip(layers.ROUTES, before)])
        loop1 = _now()
        # the probe's calibrations run on this thread: leave them out
        cpu_s = _cpu() - cpu0 - (probe.overhead(loop0, loop1) if probe else 0.0)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    digest = hashlib.sha256(
        json.dumps(inputs, sort_keys=True, separators=(",", ":")).encode()).hexdigest()

    def raw(t0, t1):
        return t1 - t0 - (probe.overhead(t0, t1) if probe else 0.0)

    out = {"inputs_sha256": digest, "environment": _environment(besselprob),
           "setup_s": raw(spawned, ready), "wall_s": raw(loop0, loop1), "cpu_s": cpu_s,
           "peak_rss_mb": peak_rss_mb}
    if probe:
        out["setup_ref_s"] = probe.reference(spawned, ready)
        out["wall_ref_s"] = probe.reference(loop0, loop1)
        out["speed"] = probe.factor(spawned, loop1)
    if traced:
        out["layers"] = layers.derive(tr, absent)
        out["absent"] = sorted(absent)
        out["routes"] = {task.label: r for task, r in zip(tasks, routes) if any(r)}
        tr.uninstall()

    rows = []
    for task, (t0, t1, result, error) in zip(tasks, outcomes):
        if error is None:
            try:
                ok = bool(task.check(result))
            except Exception:
                ok, error = False, traceback.format_exc()
        else:
            ok = False
        if not ok:
            sys.stderr.write(f"task {task.label} failed its check\n{error or ''}")
        row = {"label": task.label, "ms": raw(t0, t1) * 1e3, "ok": ok}
        if probe:
            row["ref_ms"] = probe.reference(t0, t1) * 1e3
        rows.append(row)
    out["tasks"] = rows
    return out


def run_microbench() -> dict:
    besselprob = _import_library()
    import microbench

    return {"environment": _environment(besselprob), "routes": microbench.check_routes(),
            "metrics": microbench.run()}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--mode", choices=("plain", "traced", "microbench"), default="plain")
    p.add_argument("--workload")
    p.add_argument("--seed", type=int)
    p.add_argument("--size", default="full")
    p.add_argument("--spawned", type=float, required=True,
                   help="CLOCK_MONOTONIC reading taken just before this process started")
    args = p.parse_args(argv)
    if args.mode == "microbench":
        out = run_microbench()
    else:
        out = run_pass(args.workload, args.seed, args.size, args.mode == "traced", args.spawned)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
