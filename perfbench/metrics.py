"""Names and units of every metric the benchmark reports.

``BENCHMARK.json`` at the repository root lists the same names; the
self-test checks that the two agree.
"""

# Reported with --trace 0, measured with tracing off.
END_TO_END = {
    "wall_s": "s",
    "task_p50_ms": "ms",
    "task_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Reported with --trace 1.  Traced counts and self times come from
# layers.py, the rest from microbench.py and from the run itself.
TRACED = {
    "specfun.hyp1f2.calls": "count",
    "specfun.hyp1f2.self_s": "s",
    "specfun.hyp1f2.route_series": "count",
    "specfun.hyp1f2.route_hp50": "count",
    "specfun.hyp1f2.route_asym": "count",
    "specfun.hyp1f2.useful_ratio": "ratio",
    "specfun.bessel_zeros.calls": "count",
    "specfun.bessel_zeros.self_s": "s",
    "backend.bessel_j.calls": "count",
    "backend.bessel_i_normalized.calls": "count",
    "backend.normal_inv_cdf.calls": "count",
    "backend.hyp1f2_series.calls": "count",
    "highprec.bessel_j_mp.calls": "count",
    "quad.ws_integral.calls": "count",
    "quad.ws_integral.self_s": "s",
    "quad.tanh_sinh.self_s": "s",
    "quad.gl_panel.self_s": "s",
    "quad.evaluations": "count",
    "quad.nonconverged": "count",
    "quad.zero_repeat_share": "ratio",
    "gammatype.exists_D.calls": "count",
    "gammatype.exists_D.closed_form_share": "ratio",
    "gammatype.scan.calls": "count",
    "gammatype.scan.self_s": "s",
    "gammatype.scan.points": "count",
    "gammatype.scan.max_points": "count",
    "gammatype.boundary.calls": "count",
    "gammatype.boundary.bisection_steps": "count",
    "gammatype.boundary.escalations": "count",
    "gammatype.density.self_s": "s",
    "vandantzig.verify_pair.self_s": "s",
    "vandantzig.build.self_s": "s",
    "vandantzig.hadamard.self_s": "s",
    "vandantzig.sample.self_s": "s",
    "vandantzig.samples_per_s": "1/s",
    "rng.uniform_blocks.self_s": "s",
    "rng.uniforms_per_s": "1/s",
    "rng.normal_from_uniform.self_s": "s",
}

MICROBENCH = {
    "backend.ln_gamma.us_per_call": "us",
    "backend.digamma.us_per_call": "us",
    "backend.bessel_j.series.us_per_call": "us",
    "backend.bessel_j.asymptotic.us_per_call": "us",
    "backend.bessel_i.us_per_call": "us",
    "backend.bessel_j_normalized.us_per_call": "us",
    "backend.hyp1f2_series.us_per_call": "us",
    "backend.normal_inv_cdf.us_per_call": "us",
    "specfun.bessel_zeros.ms_49": "ms",
    "specfun.bessel_zeros.ms_256": "ms",
    "specfun.hyp1f2.us_series": "us",
    "specfun.hyp1f2.us_hp50": "us",
    "specfun.hyp1f2.us_asym": "us",
    "quad.gl_panel.us": "us",
    "rng.uniform_blocks.per_s": "1/s",
    "rng.normal_from_uniform.per_s": "1/s",
}

RUN = {
    "proc.cpu_s": "s",
    "trace.overhead_s": "s",
}

PER_LAYER = {**TRACED, **MICROBENCH, **RUN}

# Counts that depend only on the inputs; two traced passes over the same
# inputs must give identical values.
DETERMINISTIC = (
    "specfun.hyp1f2.calls",
    "specfun.hyp1f2.route_series",
    "specfun.hyp1f2.route_hp50",
    "specfun.hyp1f2.route_asym",
    "specfun.bessel_zeros.calls",
    "backend.bessel_j.calls",
    "backend.bessel_i_normalized.calls",
    "backend.normal_inv_cdf.calls",
    "backend.hyp1f2_series.calls",
    "highprec.bessel_j_mp.calls",
    "quad.ws_integral.calls",
    "quad.evaluations",
    "quad.nonconverged",
    "gammatype.exists_D.calls",
    "gammatype.scan.calls",
    "gammatype.scan.points",
    "gammatype.scan.max_points",
    "gammatype.boundary.calls",
    "gammatype.boundary.bisection_steps",
    "gammatype.boundary.escalations",
)

# Counters that must be nonzero on a workload's traced pass; a zero means
# an instrument no longer sees the calls it was written for.
EXPECTED_NONZERO = {
    "existence": (
        "specfun.hyp1f2.calls",
        "specfun.hyp1f2.route_series",
        "specfun.hyp1f2.route_hp50",
        "specfun.hyp1f2.route_asym",
        "backend.hyp1f2_series.calls",
        "gammatype.exists_D.calls",
        "gammatype.scan.calls",
        "gammatype.scan.points",
        "gammatype.boundary.calls",
        "gammatype.boundary.bisection_steps",
    ),
    "oscillatory": (
        "specfun.bessel_zeros.calls",
        "backend.bessel_j.calls",
        "quad.ws_integral.calls",
        "quad.evaluations",
    ),
    "pair": (
        "specfun.bessel_zeros.calls",
        "backend.bessel_i_normalized.calls",
        "backend.normal_inv_cdf.calls",
    ),
}
