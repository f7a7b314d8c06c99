"""Which library functions the traced pass instruments, and how the
per-layer metrics are derived from the spans and counters.

Public functions of each layer get spans; scalar kernels and the 1F2 route
functions get counters only.  Private names (``specfun._f2_asymptotic``,
``quad._gl_panel`` ...) may disappear in later versions: their metrics are
then reported as absent.
"""

from __future__ import annotations

from tracer import Tracer

KERNEL_IMPLS = ("besselprob._kernels_py", "besselprob._kernels_cy")
ROUTES = ("specfun.hyp1f2.route_series", "specfun.hyp1f2.route_hp50",
          "specfun.hyp1f2.route_asym")

_QUAD_AGGREGATES = ("quad.ws_integral", "quad.fresnel_cos_moment")


def _quad_result(tr: Tracer, parent: int, result) -> None:
    # ws_integral and fresnel_cos_moment already include the evaluations of
    # the head tanh_sinh they call, so a result counted there is skipped
    if tr.span_name(parent) in _QUAD_AGGREGATES:
        return
    tr.counts["quad.evaluations"] += result.evaluations
    if not result.converged:
        tr.counts["quad.nonconverged"] += 1


def _ws_call(tr: Tracer, parent: int, args, kwargs) -> None:
    alpha = float(args[0] if args else kwargs["alpha"])
    seen = tr.notes.setdefault("ws_alphas", set())
    if alpha in seen:
        tr.counts["quad.ws_integral.alpha_repeats"] += 1
    seen.add(alpha)


def _exists_call(tr: Tracer, parent: int, args, kwargs) -> None:
    # boundary_f_ab escalates by re-calling exists_D with a wider policy
    if tr.span_name(parent) != "gammatype.boundary":
        return
    digits = getattr(kwargs.get("policy"), "highprec_digits", None)
    first = tr.notes.setdefault(("boundary_digits", parent), digits)
    if digits != first:
        tr.notes.setdefault("escalated", set()).add(parent)


def _exists_result(tr: Tracer, parent: int, verdict) -> None:
    if not verdict.reason.startswith("scan"):
        tr.counts["gammatype.exists_D.closed_form"] += 1


def _count_arg(key: str, *positions: tuple):
    """Hook adding the product of the given (position, keyword) arguments
    to ``counts[key]``."""
    def on_call(tr: Tracer, parent: int, args, kwargs) -> None:
        n = 1
        for pos, name in positions:
            n *= int(args[pos] if len(args) > pos else kwargs[name])
        tr.counts[key] += n
    return on_call


# (module, attribute, span name, on_call, on_result)
SPANS = (
    ("besselprob.specfun", "hyp1f2_with_bound", "specfun.hyp1f2", None, None),
    ("besselprob.specfun", "bessel_zeros", "specfun.bessel_zeros", None, None),
    ("besselprob.quad", "ws_integral", "quad.ws_integral", _ws_call, _quad_result),
    ("besselprob.quad", "fresnel_cos_moment", "quad.fresnel_cos_moment", None, _quad_result),
    ("besselprob.quad", "tanh_sinh", "quad.tanh_sinh", None, _quad_result),
    ("besselprob.quad", "gauss_legendre", "quad.gauss_legendre", None, _quad_result),
    ("besselprob.quad", "_gl_panel", "quad.gl_panel", None, None),
    ("besselprob.gammatype", "exists_D", "gammatype.exists_D", _exists_call, _exists_result),
    ("besselprob.gammatype", "f2_nonneg_scan", "gammatype.scan", None, None),
    ("besselprob.gammatype", "boundary_f_ab", "gammatype.boundary", None, None),
    ("besselprob.gammatype", "density_via_inversion", "gammatype.density", None, None),
    ("besselprob.gammatype", "extremal_moment_check", "gammatype.extremal_moment", None, None),
    ("besselprob.gammatype", "selberg2_check", "gammatype.selberg2", None, None),
    ("besselprob.vandantzig", "verify_pair", "vandantzig.verify_pair", None, None),
    ("besselprob.vandantzig", "hadamard_cf", "vandantzig.hadamard", None, None),
    ("besselprob.vandantzig", "sample_hitting_time", "vandantzig.sample",
     _count_arg("vandantzig.samples", (2, "count")), None),
    ("besselprob.vandantzig", "sample_subordinated", "vandantzig.sample",
     _count_arg("vandantzig.samples", (2, "count")), None),
    ("besselprob.rng", "uniform_blocks", "rng.uniform_blocks",
     _count_arg("rng.uniforms", (1, "count"), (2, "per_sample")), None),
    ("besselprob.rng", "normal_from_uniform", "rng.normal_from_uniform", None, None),
)

# (module, attribute, counter, modules left unpatched)
COUNTERS = (
    ("besselprob.backend", "bessel_j", "backend.bessel_j.calls", KERNEL_IMPLS),
    ("besselprob.backend", "bessel_i_normalized", "backend.bessel_i_normalized.calls",
     KERNEL_IMPLS),
    ("besselprob.backend", "normal_inv_cdf", "backend.normal_inv_cdf.calls", KERNEL_IMPLS),
    ("besselprob._highprec", "bessel_j_mp", "highprec.bessel_j_mp.calls", ()),
    ("besselprob.specfun", "_f2_highprec_series", "specfun.hyp1f2.route_hp50", ()),
    ("besselprob.specfun", "_f2_asymptotic", "specfun.hyp1f2.route_asym", ()),
)

# Metrics that cannot be derived when the named function is gone.
DEPENDS = {
    ("besselprob.quad", "_gl_panel"): ("quad.gl_panel.self_s",),
    ("besselprob.specfun", "_f2_highprec_series"): (
        "specfun.hyp1f2.route_hp50", "specfun.hyp1f2.useful_ratio"),
    ("besselprob.specfun", "_f2_asymptotic"): (
        "specfun.hyp1f2.route_asym", "specfun.hyp1f2.useful_ratio"),
}


def install(tr: Tracer) -> set:
    """Instrument the imported library; returns the names of metrics that
    cannot be reported because a wrapped function does not exist."""
    absent = set()
    missing = []
    for module, attr, name, on_call, on_result in SPANS:
        if not tr.bind(module, attr, tr.spanned(name, on_call, on_result)):
            missing.append((module, attr))
    if not tr.bind_classmethod("besselprob.vandantzig", "HittingTimeModel", "build",
                               tr.spanned("vandantzig.build")):
        missing.append(("besselprob.vandantzig", "HittingTimeModel.build"))
    for module, attr, key, skip in COUNTERS:
        if not tr.bind(module, attr, tr.counted(key), skip=skip):
            missing.append((module, attr))
    # series route: hyp1f2_series calls made by the 1F2 evaluator itself
    if not tr.bind("besselprob.backend", "hyp1f2_series",
                   tr.counted("backend.hyp1f2_series.calls", inside="specfun.hyp1f2",
                              inside_key="specfun.hyp1f2.route_series"),
                   skip=KERNEL_IMPLS):
        missing.append(("besselprob.backend", "hyp1f2_series"))
    for key in missing:
        absent.update(DEPENDS.get(key, ()))
    return absent


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def derive(tr: Tracer, absent: set) -> dict:
    """Per-layer metrics of one traced pass (see metrics.TRACED)."""
    t = tr.totals()
    c = tr.counts

    def calls(name):
        return t.get(name, (0, 0.0, 0.0))[0]

    def total(name):
        return t.get(name, (0, 0.0, 0.0))[1]

    def self_s(name):
        return t.get(name, (0, 0.0, 0.0))[2]

    hyp_calls = calls("specfun.hyp1f2")
    routes = c["specfun.hyp1f2.route_series"] + c["specfun.hyp1f2.route_hp50"] \
        + c["specfun.hyp1f2.route_asym"]
    points = tr.children_of("gammatype.scan", "specfun.hyp1f2")
    steps = tr.children_of("gammatype.boundary", "gammatype.exists_D")
    out = {
        "specfun.hyp1f2.calls": hyp_calls,
        "specfun.hyp1f2.self_s": self_s("specfun.hyp1f2"),
        "specfun.hyp1f2.route_series": c["specfun.hyp1f2.route_series"],
        "specfun.hyp1f2.route_hp50": c["specfun.hyp1f2.route_hp50"],
        "specfun.hyp1f2.route_asym": c["specfun.hyp1f2.route_asym"],
        "specfun.hyp1f2.useful_ratio": _ratio(hyp_calls, routes),
        "specfun.bessel_zeros.calls": calls("specfun.bessel_zeros"),
        "specfun.bessel_zeros.self_s": self_s("specfun.bessel_zeros"),
        "backend.bessel_j.calls": c["backend.bessel_j.calls"],
        "backend.bessel_i_normalized.calls": c["backend.bessel_i_normalized.calls"],
        "backend.normal_inv_cdf.calls": c["backend.normal_inv_cdf.calls"],
        "backend.hyp1f2_series.calls": c["backend.hyp1f2_series.calls"],
        "highprec.bessel_j_mp.calls": c["highprec.bessel_j_mp.calls"],
        "quad.ws_integral.calls": calls("quad.ws_integral"),
        "quad.ws_integral.self_s": self_s("quad.ws_integral"),
        "quad.tanh_sinh.self_s": self_s("quad.tanh_sinh"),
        "quad.gl_panel.self_s": self_s("quad.gl_panel"),
        "quad.evaluations": c["quad.evaluations"],
        "quad.nonconverged": c["quad.nonconverged"],
        "quad.zero_repeat_share": _ratio(c["quad.ws_integral.alpha_repeats"],
                                         calls("quad.ws_integral")),
        "gammatype.exists_D.calls": calls("gammatype.exists_D"),
        "gammatype.exists_D.closed_form_share": _ratio(c["gammatype.exists_D.closed_form"],
                                                       calls("gammatype.exists_D")),
        "gammatype.scan.calls": calls("gammatype.scan"),
        "gammatype.scan.self_s": self_s("gammatype.scan"),
        "gammatype.scan.points": sum(points),
        "gammatype.scan.max_points": max(points, default=0),
        "gammatype.boundary.calls": calls("gammatype.boundary"),
        "gammatype.boundary.bisection_steps": sum(steps),
        "gammatype.boundary.escalations": len(tr.notes.get("escalated", ())),
        "gammatype.density.self_s": self_s("gammatype.density"),
        "vandantzig.verify_pair.self_s": self_s("vandantzig.verify_pair"),
        "vandantzig.build.self_s": self_s("vandantzig.build"),
        "vandantzig.hadamard.self_s": self_s("vandantzig.hadamard"),
        "vandantzig.sample.self_s": self_s("vandantzig.sample"),
        "vandantzig.samples_per_s": _ratio(c["vandantzig.samples"],
                                           total("vandantzig.sample")),
        "rng.uniform_blocks.self_s": self_s("rng.uniform_blocks"),
        "rng.uniforms_per_s": _ratio(c["rng.uniforms"], total("rng.uniform_blocks")),
        "rng.normal_from_uniform.self_s": self_s("rng.normal_from_uniform"),
    }
    return {k: v for k, v in out.items() if k not in absent}

