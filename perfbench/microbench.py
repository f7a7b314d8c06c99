"""Per-layer microbenchmarks: scalar kernels, zero tables, one quadrature
panel, one 1F2 point per route and the random-variate layer.

The kernel sweeps are the argument sweeps of ``benchmarks/bench_kernels.py``
so that its earlier numbers still compare.  Kernels are taken from
``besselprob.backend`` as imported; the backend in use is recorded by the
caller from ``besselprob.BACKEND_NAME``.
"""

from __future__ import annotations

import math
import time

from besselprob import backend, quad, rng, specfun

import layers
from tracer import Tracer

KERNEL_SWEEPS = {
    "ln_gamma": ("ln_gamma", [(0.1 + 0.03 * i,) for i in range(1000)]),
    "digamma": ("digamma", [(0.1 + 0.03 * i,) for i in range(1000)]),
    "bessel_j.series": ("bessel_j", [(1.3, 0.02 * i) for i in range(1, 600)]),
    "bessel_j.asymptotic": ("bessel_j", [(1.3, 20.0 + 0.05 * i) for i in range(600)]),
    "bessel_i": ("bessel_i", [(0.7, 0.1 * i) for i in range(1, 500)]),
    "bessel_j_normalized": ("bessel_j_normalized", [(2.2, 0.05 * i) for i in range(1, 500)]),
    "hyp1f2_series": ("hyp1f2_series", [(1.3, 2.1, 0.9, -(i % 90) - 1.0) for i in range(400)]),
    "normal_inv_cdf": ("normal_inv_cdf", [((i + 0.5) / 2000,) for i in range(2000)]),
}

# One point per 1F2 route: series below |x| = 110, the 50-digit series
# between 110 and 160, the large-x expansion beyond.
HYP1F2_POINTS = {
    "series": ((1.3, 2.0, 2.4, -50.0), "specfun.hyp1f2.route_series"),
    "hp50": ((1.3, 2.0, 2.4, -130.0), "specfun.hyp1f2.route_hp50"),
    "asym": ((1.3, 2.0, 2.4, -2.0e4), "specfun.hyp1f2.route_asym"),
}

ZERO_ALPHA = 1.0


def _best(fn, repeats: int) -> float:
    """Fastest of ``repeats`` timings of fn()."""
    best = math.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _uncached(fn):
    """fn with any lru_cache on it cleared before each call, so that a
    cached result is never what gets timed."""
    clear = getattr(fn, "cache_clear", None)

    def run(*args):
        if clear is not None:
            clear()
        return fn(*args)
    return run


def _sweep(fn, args_list):
    def run():
        for args in args_list:
            fn(*args)
    return run


def check_routes() -> dict:
    """Route each microbench point actually takes, from a traced call."""
    tr = Tracer()
    absent = layers.install(tr)
    taken = {}
    try:
        for label, (args, key) in HYP1F2_POINTS.items():
            before = {k: tr.counts[k] for k in layers.ROUTES}
            specfun.hyp1f2_with_bound(*args)
            taken[label] = [k for k in layers.ROUTES if tr.counts[k] > before[k]]
    finally:
        tr.uninstall()
    return {label: keys for label, keys in taken.items()
            if HYP1F2_POINTS[label][1] not in absent}


def run(repeats: int = 5) -> dict:
    out = {}
    for label, (fn_name, sweep) in KERNEL_SWEEPS.items():
        t = _best(_sweep(getattr(backend, fn_name), sweep), repeats)
        out[f"backend.{label}.us_per_call"] = t / len(sweep) * 1e6

    zeros = _uncached(specfun.bessel_zeros)
    for n in (49, 256):
        out[f"specfun.bessel_zeros.ms_{n}"] = _best(lambda: zeros(ZERO_ALPHA, n), 3) * 1e3

    hyp1f2 = _uncached(specfun.hyp1f2_with_bound)
    for label, (args, _) in HYP1F2_POINTS.items():
        out[f"specfun.hyp1f2.us_{label}"] = _best(lambda: hyp1f2(*args), repeats) * 1e6

    gl_panel = getattr(quad, "_gl_panel", None)
    if gl_panel is not None:
        # one panel of the squared-Bessel Mellin remainder between two zeros
        table = specfun.bessel_zeros(ZERO_ALPHA, 3)
        f = lambda z: z ** -1.5 * backend.bessel_j(ZERO_ALPHA, z) ** 2
        out["quad.gl_panel.us"] = _best(
            lambda: gl_panel(f, table[1], table[2], 32), 20 * repeats) * 1e6

    count, per_sample = 16384, 257
    t = _best(lambda: rng.uniform_blocks(7, count, per_sample), 3)
    out["rng.uniform_blocks.per_s"] = count * per_sample / t
    u = rng.uniform_blocks(11, 20000, 1)[:, 0]
    t = _best(lambda: rng.normal_from_uniform(u), 3)
    out["rng.normal_from_uniform.per_s"] = u.size / t
    return out

