"""The benchmark workloads: inputs generated from the seed, the task list of
one pass, and the reference each task result is checked against.

Every task is one call of a public library function.  Inputs are drawn with
``random.Random`` so that generating them calls nothing in the library.
References are independent of the call they check: closed forms evaluated
with ``math.lgamma``, ``mpmath`` evaluations, or the acceptance thresholds
of the test suite.

Why these three workloads:

existence
    The only workload where ``gammatype`` and the 1F2 evaluator do the
    work.  ``boundary_f_ab`` at u = 3.5 for (a, b) = (1, 1) marches one
    scan to ``x_cap`` through thousands of large-x (asymptotic) evaluations
    per parameter triple; its bisection points and the ``exists_D``
    quartets make many short scans over new parameter triples on the series
    and 50-digit routes.  Caching parameter-only work should move the tail
    and leave the median.
oscillatory
    ``quad`` with one scalar Bessel-kernel call per node, and zero tables
    recomputed on every ``ws_integral`` call.  Each alpha repeats across
    several s values, as in ``verify ws``, so a zero-table cache or array
    kernels show here.  No 1F2 calls.
pair
    ``verify_pair`` at 1e5 Monte Carlo samples, sampling throughput and the
    Hadamard product.  Time goes to ``rng`` and ``vandantzig``; the 1e5 x
    257 uniform arrays make it the memory-heavy workload.  No 1F2 calls
    and no oscillatory quadrature.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Any, Callable

import mpmath
import numpy as np

from besselprob import gammatype as gt
from besselprob import quad, specfun
from besselprob import vandantzig as vd

@dataclass(frozen=True)
class Task:
    label: str
    call: Callable[[], Any]
    check: Callable[[Any], bool]


def _draw(rnd: random.Random, lo: float, hi: float, digits: int = 6) -> float:
    return round(rnd.uniform(lo, hi), digits)


def _rel(x: float, ref: float) -> float:
    return abs(x - ref) / abs(ref)


# ---------------------------------------------------------------------------
# existence

BOUNDARY_GRID = {
    "full": ((1.0, 1.0, (3.5, 4.0, 5.0, 6.5)), (0.5, 0.5, (2.5, 3.0))),
    "small": ((1.0, 1.0, (5.0,)), (0.5, 0.5, (3.0,))),
}

# Gap-band quartets (a, b, c, d) whose verdict and scan length stay the
# same under the +-0.5% jitter applied per seed (checked at +-1% when the
# table was drawn), so that every seed runs the same mix of 16 long
# (Exists) and 8 short (NotExists) scans.
QUARTETS = (
    (1.047, 1.104, 1.253, 5.27, "Exists"),
    (1.767, 1.936, 2.069, 7.189, "Exists"),
    (1.393, 0.336, 1.78, 4.719, "Exists"),
    (0.978, 1.112, 1.394, 4.46, "Exists"),
    (1.02, 0.512, 1.187, 4.689, "Exists"),
    (0.59, 1.676, 0.999, 4.976, "Exists"),
    (1.64, 1.734, 1.953, 7.121, "Exists"),
    (0.356, 1.184, 0.648, 4.873, "Exists"),
    (0.888, 0.678, 1.158, 5.047, "Exists"),
    (1.014, 0.639, 1.119, 5.525, "Exists"),
    (1.015, 0.937, 1.43, 4.76, "Exists"),
    (0.784, 0.538, 1.032, 5.253, "Exists"),
    (0.513, 1.149, 0.952, 3.115, "Exists"),
    (1.502, 0.37, 1.913, 4.485, "Exists"),
    (0.452, 0.631, 0.702, 3.877, "Exists"),
    (0.929, 1.096, 1.337, 4.974, "Exists"),
    (1.244, 1.629, 1.406, 5.981, "NotExists"),
    (0.848, 0.982, 1.008, 3.925, "NotExists"),
    (1.026, 1.451, 1.257, 4.232, "NotExists"),
    (0.424, 1.236, 0.462, 3.079, "NotExists"),
    (1.429, 0.324, 1.675, 4.11, "NotExists"),
    (1.223, 1.107, 1.339, 4.527, "NotExists"),
    (1.715, 1.587, 1.817, 5.772, "NotExists"),
    (0.781, 1.99, 1.007, 4.316, "NotExists"),
)
QUARTET_JITTER = 0.005

# x at which an Exists verdict is spot-checked: 1F2(A; B, C; -x) >= 0
SPOT_X = (5.0, 20.0, 60.0, 150.0)


def _in_gap_band(a, b, c, d) -> bool:
    return a < min(c, d) < min(2 * a + b, a + 0.5) and c + d > 3 * a + b + 0.5


def existence_inputs(seed: int, size: str) -> dict:
    rnd = random.Random(f"existence:{seed}")
    quartets = QUARTETS if size == "full" else QUARTETS[:2] + QUARTETS[16:18]
    drawn = []
    for a, b, c, d, verdict in quartets:
        q = [round(v * (1.0 + rnd.uniform(-QUARTET_JITTER, QUARTET_JITTER)), 6)
             for v in (a, b, c, d)]
        if not _in_gap_band(*q):
            raise ValueError(f"jittered quartet {q} left the gap band")
        drawn.append(q + [verdict])
    boundary = [[a, b, u] for a, b, us in BOUNDARY_GRID[size] for u in us]
    return {"boundary": boundary, "quartets": drawn}


def _check_boundary(a, b, u):
    def check(sample) -> bool:
        # the region bounds of test 09: a < f <= a + (a+b) / (2 (u-a))
        return (sample.method == "Bisection" and sample.bracket_width <= 1e-3
                and a < sample.f_value <= a + (a + b) / (2.0 * (u - a)))
    return check


def _check_quartet(a, b, c, d, expected):
    A, B, C = a + b, c + b, d + b

    def check(verdict) -> bool:
        if verdict.state != expected:
            return False
        if verdict.reason == "scan-negative":
            w = verdict.witness
            val, bound = specfun.hyp1f2_with_bound(A, B, C, -w)
            return val < -bound and mpmath.hyp1f2(A, B, C, -w) < 0
        if verdict.state == "Exists":
            return all(mpmath.hyp1f2(A, B, C, -x) >= 0 for x in SPOT_X)
        return True
    return check


def existence_tasks(inputs: dict) -> list:
    tasks = []
    for a, b, u in inputs["boundary"]:
        tasks.append(Task(f"boundary_f_ab({a:g},{b:g},{u:g})",
                          lambda a=a, b=b, u=u: gt.boundary_f_ab(a, b, u),
                          _check_boundary(a, b, u)))
    for i, (a, b, c, d, verdict) in enumerate(inputs["quartets"]):
        tasks.append(Task(f"exists_D(q{i:02d})",
                          lambda a=a, b=b, c=c, d=d: gt.exists_D(a, b, c, d),
                          _check_quartet(a, b, c, d, verdict)))
    return tasks


# ---------------------------------------------------------------------------
# oscillatory

WS_FRACTIONS = (0.2, 0.5, 0.8)
WS_ALPHA_STRATA = 8
EXTREMAL_AB = {
    "full": [(a, b) for a in (0.5, 1.0, 1.5) for b in (0.5, 1.0, 2.0)],
    "small": [(1.0, 1.0)],
}
SELBERG_ALPHAS = {"full": (0.5, 1.0, 2.0), "small": (1.0,)}
# Gamma_2 / Gamma_3 has density 12 x / (1+x)^5; Gamma_2 has x e^{-x}
DENSITY_SPECS = {
    "ratio": ({"a": (2.0,), "b": (3.0,)}, lambda x: 12.0 * x / (1.0 + x) ** 5),
    "gamma2": ({"a": (2.0,)}, lambda x: x * math.exp(-x)),
}


def oscillatory_inputs(seed: int, size: str) -> dict:
    rnd = random.Random(f"oscillatory:{seed}")
    full = size == "full"
    # one alpha per half-unit stratum, kept off the half-integers where
    # the kernels take closed forms
    alphas = [_draw(rnd, 0.5 * k + 0.05, 0.5 * k + 0.45, 4)
              for k in range(WS_ALPHA_STRATA if full else 1)]
    fracs = WS_FRACTIONS if full else WS_FRACTIONS[:2]
    ext = [[a, b, _draw(rnd, lo, lo + 0.2, 4)]
           for a, b in EXTREMAL_AB[size] for lo in ((0.15, 0.4, 0.65) if full else (0.4,))]
    # few of the millisecond-scale calls, so that the median task is one of
    # the quadratures this workload is about rather than the boundary
    # between the two groups
    mus = [_draw(rnd, k / 10 - 0.03, k / 10 + 0.03, 4) for k in ((2, 5, 8) if full else (5,))]
    selberg = [[al, _draw(rnd, al + 0.15, al + 0.35, 4)] for al in SELBERG_ALPHAS[size]]
    density = [[name, _draw(rnd, 0.2, 3.0, 4)]
               for name in DENSITY_SPECS for _ in range(2 if full else 1)]
    return {"ws": [[al, f] for al in alphas for f in fracs], "extremal": ext,
            "fresnel": mus, "selberg": selberg, "density": density}


def _ws_ref(alpha: float, s: float) -> float:
    return math.exp(math.lgamma(s) + math.lgamma(alpha + 0.5 - s) - math.lgamma(0.5 + s)
                    - math.lgamma(alpha + 0.5 + s)) / (2.0 * math.sqrt(math.pi))


def _extremal_ref(a: float, b: float, s: float) -> float:
    lg = math.lgamma
    return math.exp(lg(a + s) - lg(a) + lg(b - s) - lg(b)
                    - lg(2 * a + b + s) + lg(2 * a + b) - lg(a + 0.5 + s) + lg(a + 0.5))


def _selberg_ref(alpha: float, s: float) -> float:
    lg = math.lgamma
    return math.exp(2 * lg(s) + lg(2 * s - 2 * alpha) + 2 * lg(alpha + 0.5)
                    - lg(2 * s) - lg(s - alpha + 0.5) - lg(alpha + s + 0.5))


def oscillatory_tasks(inputs: dict) -> list:
    tasks = []
    for alpha, frac in inputs["ws"]:
        s = frac * (alpha + 0.5)
        ref = _ws_ref(alpha, s)
        tasks.append(Task(f"ws_integral({alpha:g},{s:.4g})",
                          lambda alpha=alpha, s=s: quad.ws_integral(alpha, s, tol=1e-8),
                          lambda r, ref=ref: _rel(r.value, ref) <= 1e-6))
    for a, b, frac in inputs["extremal"]:
        s = -a + frac * (a + b)
        ref = _extremal_ref(a, b, s)
        tasks.append(Task(f"extremal_moment_check({a:g},{b:g},{s:.4g})",
                          lambda a=a, b=b, s=s: gt.extremal_moment_check(a, b, s),
                          lambda r, ref=ref: _rel(r[0], r[1]) <= 1e-5
                          and _rel(r[1], ref) <= 1e-10))
    for mu in inputs["fresnel"]:
        ref = math.gamma(mu) * math.cos(0.5 * math.pi * mu)
        tasks.append(Task(f"fresnel_cos_moment({mu:g})",
                          lambda mu=mu: quad.fresnel_cos_moment(mu, tol=1e-9),
                          lambda r, ref=ref: abs(r.value - ref) <= 1e-8))
    for alpha, s in inputs["selberg"]:
        ref = _selberg_ref(alpha, s)
        tasks.append(Task(f"selberg2_check({alpha:g},{s:g})",
                          lambda alpha=alpha, s=s: gt.selberg2_check(alpha, s),
                          lambda r, ref=ref: _rel(r[0], ref) <= 1e-6
                          and _rel(r[1], ref) <= 1e-10))
    for name, x in inputs["density"]:
        sets, density = DENSITY_SPECS[name]
        spec = gt.GammaRatioSpec(**sets)
        ref = density(x)
        tasks.append(Task(f"density_via_inversion({name},{x:g})",
                          lambda spec=spec, x=x: gt.density_via_inversion(spec, x),
                          lambda r, ref=ref: abs(r - ref) <= 1e-9))
    return tasks


# ---------------------------------------------------------------------------
# pair

PAIR_ALPHAS = {"full": (0.0, 0.5, 1.0, 2.0), "small": (0.5,)}
PAIR_MC = {"full": 100_000, "small": 20_000}
# The Monte Carlo seed of test 06: its z-score gate (<= 4) is a
# statistical test, and a seed drawn per run would fail it now and then.
PAIR_MC_SEED = 20260808
PAIR_GRID = (0.25, 30.0, 120)
SAMPLE_COUNT = {"full": 16384, "small": 4096}
HADAMARD_Z = {"full": 8, "small": 2}
HADAMARD_TRUNCATION = 200
SAMPLERS = {"hitting": "sample_hitting_time", "subordinated": "sample_subordinated"}


def pair_inputs(seed: int, size: str) -> dict:
    rnd = random.Random(f"pair:{seed}")
    alphas = PAIR_ALPHAS[size]
    return {
        "verify": [[al, PAIR_MC[size], PAIR_MC_SEED] for al in alphas],
        "sample": [[al, kind, rnd.randrange(2 ** 31), SAMPLE_COUNT[size]]
                   for al in alphas for kind in SAMPLERS],
        "hadamard": [[al, _draw(rnd, 0.25, 10.0), axis]
                     for al in alphas for _ in range(HADAMARD_Z[size])
                     for axis in ("real", "imag")],
    }


def _check_report(rep) -> bool:
    return (rep.max_identity_error <= 1e-10 and rep.bochner_min_eigenvalue >= -1e-10
            and rep.mc_cf_max_z_score <= 4.0)


def _check_model(alpha: float):
    def check(model) -> bool:
        # E[T] = 1 / (2 alpha + 2) for the hitting time of 1 from 0
        mean = sum(2.0 / (z * z) for z in model.zeros.zeros) + model.tail_mean
        j1 = float(mpmath.besseljzero(alpha, 1))
        return abs(mean - 1.0 / (2.0 * alpha + 2.0)) <= 1e-9 \
            and _rel(model.zeros[0], j1) <= 1e-12
    return check


def _check_samples(alpha: float, kind: str, count: int):
    mean_t = 1.0 / (2.0 * alpha + 2.0)

    def within(x: np.ndarray, target: float) -> bool:
        se = float(np.std(x, ddof=1)) / math.sqrt(x.size)
        return abs(float(np.mean(x)) - target) <= 6.0 * se

    def check(x) -> bool:
        if x.shape != (count,) or not np.all(np.isfinite(x)):
            return False
        if kind == "hitting":
            return bool(np.all(x > 0.0)) and within(x, mean_t)
        return within(x * x, mean_t) and within(x, 0.0)
    return check


def _check_hadamard(alpha: float, z: float, axis: str):
    def check(v) -> bool:
        bessel = mpmath.besselj if axis == "real" else mpmath.besseli
        ref = float(mpmath.gamma(alpha + 1) * (z / 2) ** (-alpha) * bessel(alpha, z))
        return abs(v - ref) <= 1e-8 * max(1.0, abs(ref))
    return check


def pair_tasks(inputs: dict) -> list:
    lo, hi, n = PAIR_GRID
    grid = np.linspace(lo, hi, n)
    tasks = []
    for alpha, mc, mc_seed in inputs["verify"]:
        tasks.append(Task(f"verify_pair({alpha:g})",
                          lambda alpha=alpha, mc=mc, mc_seed=mc_seed: vd.verify_pair(
                              vd.PowerSemicircle(alpha), grid, mc_count=mc, seed=mc_seed),
                          _check_report))
    models = {}

    def build(alpha):
        models[alpha] = vd.HittingTimeModel.build(alpha)
        return models[alpha]

    for alpha in dict.fromkeys(al for al, *_ in inputs["sample"]):
        tasks.append(Task(f"HittingTimeModel.build({alpha:g})",
                          lambda alpha=alpha: build(alpha), _check_model(alpha)))
    for alpha, kind, seed, count in inputs["sample"]:
        sampler = SAMPLERS[kind]
        tasks.append(Task(f"{sampler}({alpha:g})",
                          lambda alpha=alpha, sampler=sampler, seed=seed, count=count:
                          getattr(vd, sampler)(models[alpha], seed, count),
                          _check_samples(alpha, kind, count)))
    for alpha, z, axis in inputs["hadamard"]:
        model = vd.PowerSemicircle(alpha)
        tasks.append(Task(f"hadamard_cf({alpha:g},{z:g},{axis})",
                          lambda model=model, z=z, axis=axis: vd.hadamard_cf(
                              model, z, HADAMARD_TRUNCATION, axis),
                          _check_hadamard(alpha, z, axis)))
    return tasks


WORKLOADS = {
    "existence": (existence_inputs, existence_tasks),
    "oscillatory": (oscillatory_inputs, oscillatory_tasks),
    "pair": (pair_inputs, pair_tasks),
}
