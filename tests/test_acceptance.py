"""Acceptance suite: one test per criterion, each printing a PASS line
(run with `pytest -s tests/test_acceptance.py` to see them).

Tolerances for quantities that grow exponentially (imaginary-axis
characteristic functions, their product forms) are applied relative to
max(1, |target|); everything else is absolute or relative as stated.
"""

import json
import math
import time

import numpy as np
import pytest

from besselprob import cli, gammatype as gt, quad, specfun, vandantzig as vd


def _report(num: int, ok: bool, detail: str):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance {num:02d}] {status}: {detail}")
    assert ok, detail


def test_01_lommel_identity_suite():
    t0 = time.perf_counter()
    worst = 0.0
    for alpha in (-0.4, 0.0, 0.5, 1.0, 2.5):
        c = math.exp(-specfun.ln_gamma(alpha + 0.5)) / math.sqrt(math.pi)
        lam = alpha - 0.5
        for t in (0.5, 1.0, 5.0, 10.0, 20.0):
            cos_part = quad.tanh_sinh(
                lambda x, dlo, dhi: math.cos(t * x) * (dlo * dhi) ** lam,
                -1.0, 1.0, tol=1e-12)
            sin_part = quad.tanh_sinh(
                lambda x, dlo, dhi: math.sin(t * x) * (dlo * dhi) ** lam,
                -1.0, 1.0, tol=1e-12)
            lhs = c * (0.5 * t) ** alpha * cos_part.value
            worst = max(worst, abs(lhs - specfun.bessel_j(alpha, t)))
            assert abs(c * (0.5 * t) ** alpha * sin_part.value) <= 1e-12
    elapsed = time.perf_counter() - t0
    _report(1, worst <= 1e-9 and elapsed < 5.0,
            f"Fourier-transform identity, worst {worst:.2e} (<=1e-9), {elapsed:.2f}s (<5s)")


def test_02_ws_identity_suite():
    t0 = time.perf_counter()
    worst = 0.0
    for alpha in (0.0, 0.5, 1.0, 2.0):
        for frac in (0.2, 0.5, 0.8):
            s = frac * (alpha + 0.5)
            r = quad.ws_integral(alpha, s, tol=1e-8)
            rhs = quad.ws_rhs(alpha, s)
            worst = max(worst, abs(r.value - rhs) / abs(rhs))
    elapsed = time.perf_counter() - t0
    _report(2, worst <= 1e-6 and elapsed < 30.0,
            f"squared-Bessel Mellin identity, worst rel {worst:.2e} (<=1e-6), "
            f"{elapsed:.2f}s (<30s)")


def test_03_half_order_closed_forms():
    m = vd.PowerSemicircle(0.5)
    worst_cf = worst_icf = 0.0
    for i in range(1, 2001):
        t = 50.0 * i / 2000.0
        worst_cf = max(worst_cf, abs(vd.semicircle_cf(m, t) - math.sin(t) / t))
        target = math.sinh(t) / t
        worst_icf = max(worst_icf,
                        abs(vd.semicircle_cf_imag_axis(m, t) - target)
                        / max(1.0, target))
    htm = vd.HittingTimeModel.build(0.5)
    worst_lt = 0.0
    for lam in np.geomspace(1e-6, 10.0, 400):
        s = math.sqrt(2.0 * lam)
        worst_lt = max(worst_lt, abs(vd.hitting_time_lt(htm, lam) - s / math.sinh(s)))
    ok = worst_cf <= 1e-12 and worst_icf <= 1e-12 and worst_lt <= 1e-12
    _report(3, ok, f"closed forms: cf {worst_cf:.2e}, cf(i.) {worst_icf:.2e} "
                   f"(scale-rel), transform {worst_lt:.2e} (all <=1e-12)")


def test_04_half_order_zeros():
    table = specfun.bessel_zeros(0.5, 50)
    worst_rel = max(abs(z - n * math.pi) / (n * math.pi)
                    for n, z in enumerate(table.zeros, start=1))
    worst_res = max(abs(specfun.bessel_j(0.5, z)) for z in table.zeros)
    _report(4, worst_rel <= 1e-12 and worst_res <= 1e-10,
            f"j_(1/2,n) = n pi: rel {worst_rel:.2e} (<=1e-12), "
            f"residual {worst_res:.2e} (<=1e-10)")


def test_05_product_over_zeros():
    worst = 0.0
    for alpha in (0.0, 0.5, 1.0, 3.0):
        m = vd.PowerSemicircle(alpha)
        for z in np.linspace(0.25, 10.0, 40):
            ref_r = vd.semicircle_cf(m, z)
            ref_i = vd.semicircle_cf_imag_axis(m, z)
            worst = max(
                worst,
                abs(vd.hadamard_cf(m, z, 200, "real") - ref_r) / max(1.0, abs(ref_r)),
                abs(vd.hadamard_cf(m, z, 200, "imag") - ref_i) / max(1.0, abs(ref_i)))
    _report(5, worst <= 1e-8,
            f"product over first 200 zeros, tail-corrected: worst {worst:.2e} (<=1e-8)")


def test_06_pair_verification():
    t0 = time.perf_counter()
    details = []
    ok = True
    for alpha in (0.0, 0.5, 1.0, 2.0):
        rep = vd.verify_pair(vd.PowerSemicircle(alpha),
                             np.linspace(0.25, 30.0, 120),
                             mc_count=100_000, seed=20260808)
        ok &= (rep.max_identity_error <= 1e-10
               and rep.bochner_min_eigenvalue >= -1e-10
               and rep.mc_cf_max_z_score <= 4.0)
        details.append(f"a={alpha}: id {rep.max_identity_error:.1e} "
                       f"eig {rep.bochner_min_eigenvalue:.1e} z {rep.mc_cf_max_z_score:.2f}")
    elapsed = time.perf_counter() - t0
    _report(6, ok and elapsed < 60.0,
            "; ".join(details) + f"; {elapsed:.1f}s (<60s)")


def test_07_counterexample_atom():
    spec = gt.GammaRatioSpec(a=("2", "16/5", "17/5"), c=("11/5", "12/5", "4"))
    atom = gt.atom_at_one(spec)
    verdict = gt.exists_spec(spec)
    ok = abs(atom - 150.0 / 132.0) <= 1e-12 and verdict.state == "NotExists"
    _report(7, ok, f"atom {atom:.15f} vs 150/132 (err {abs(atom-150/132):.1e}), "
                   f"verdict {verdict.state}/{verdict.reason}")


def test_08_existence_oracle():
    t0 = time.perf_counter()
    v1 = gt.exists_D(1.0, 1.0, 3.0, 1.5)
    v2 = gt.exists_D(1.0, 1.0, 2.0, 2.0)
    v3 = gt.exists_D(1.0, 1.0, 1.0, 10.0)
    ok = v1.state == "Exists" and v2.state == "NotExists" and v3.state == "NotExists"
    # the non-existence witness must be a verified negative value
    scan = gt.f2_nonneg_scan(2.0, 3.0, 3.0)
    wv, wb = specfun.hyp1f2_with_bound(2.0, 3.0, 3.0, -scan.witness)
    ok &= scan.kind == "Negative" and wv < -wb
    worst = 0.0
    for a in (0.5, 1.0, 1.5):
        for b in (0.5, 1.0, 2.0):
            for frac in (0.25, 0.5, 0.75):
                s = -a + frac * (a + b)
                lhs, rhs = gt.extremal_moment_check(a, b, s)
                worst = max(worst, abs(lhs - rhs) / abs(rhs))
    ok &= worst <= 1e-5
    elapsed = time.perf_counter() - t0
    _report(8, ok and elapsed < 120.0,
            f"verdicts ({v1.state},{v2.state},{v3.state}), witness x={scan.witness:.3f} "
            f"value {wv:.2e} < -{wb:.1e}, moment grid worst {worst:.2e} (<=1e-5), "
            f"{elapsed:.1f}s (<2min)")


def test_09_boundary_mapping():
    a, b = 1.0, 1.0
    ok = True
    # exact linear law on the initial segment
    for u in np.linspace(2.25, 3.0, 7):
        s = gt.boundary_f_ab(a, b, float(u))
        ok &= s.method == "LinearSegment" and s.bracket_width <= 1e-6
        ok &= abs(s.f_value - (3 * a + b + 0.5 - u)) <= 1e-9
    # bounds and monotonicity beyond it
    fs = []
    for u in (3.5, 4.0, 5.0, 6.5, 8.0, 10.0):
        s = gt.boundary_f_ab(a, b, u, resolution=1e-3)
        fs.append((u, s.f_value, s.bracket_width))
        ok &= a < s.f_value <= a + (a + b) / (2.0 * (u - a))
    mono_viol = sum(1 for (u1, f1, w1), (u2, f2, w2) in zip(fs, fs[1:])
                    if f2 > f1 + w1 + w2)
    ok &= mono_viol == 0
    _report(9, ok, f"linear law exact, beyond-segment values "
                   f"{[round(f, 4) for _, f, _ in fs]} inside bounds, "
                   f"{mono_viol} monotonicity violations")


def test_10_appendix_suite():
    worst_f = 0.0
    for mu10 in range(1, 10):
        mu = mu10 / 10.0
        r = quad.fresnel_cos_moment(mu, tol=1e-9)
        target = math.exp(specfun.ln_gamma(mu)) * math.cos(0.5 * math.pi * mu)
        worst_f = max(worst_f, abs(r.value - target))
    worst_s = 0.0
    for alpha, s in ((0.5, 0.75), (1.0, 1.2), (2.0, 2.2)):
        qv, cf = gt.selberg2_check(alpha, s)
        worst_s = max(worst_s, abs(qv - cf) / abs(cf))
    _report(10, worst_f <= 1e-8 and worst_s <= 1e-6,
            f"cosine moment worst {worst_f:.2e} (<=1e-8), "
            f"planar Beta-type integral worst rel {worst_s:.2e} (<=1e-6)")


def test_11_quasi_levy():
    ok = True
    details = []
    for a, b in ((1.0, 1.0), (0.5, 2.0)):
        q = gt.QuasiLevySpec(a, b)
        root = gt.quasi_levy_root(q)
        xs = np.linspace(-15.0, -1e-3, 1200)
        signs = np.sign([gt.quasi_levy_density(q, float(x)) for x in xs])
        changes = int(np.sum(signs[1:] != signs[:-1]))
        ok &= changes == 1 and root < 0.0
        worst = 0.0
        for s in (-a / 2.0, b / 2.0):
            rec = gt.quasi_levy_mellin(q, s)
            want = gt.mellin(q.ratio_spec(), s)
            worst = max(worst, abs(rec - want) / want)
        ok &= worst <= 1e-5
        details.append(f"(a,b)=({a},{b}): root {root:.4f}, {changes} sign change, "
                       f"reconstruction {worst:.1e}")
    _report(11, ok, "; ".join(details))


def test_12_cross_oracle_draws():
    rng = np.random.default_rng(20260808)
    agree = 0
    total = 0
    symmetric = True
    while total < 50:
        a = float(rng.uniform(0.3, 2.0))
        b = float(rng.uniform(0.3, 2.0))
        c = float(rng.uniform(a + 0.2, a + 4.0))
        d = float(rng.uniform(a + 0.2, a + 6.0))
        gap = c + d - (3 * a + b + 0.5)
        if abs(gap) < 0.3:
            continue
        if min(c, d) < a + 0.15 and gap > 0:
            continue
        total += 1
        v = gt.exists_D(a, b, c, d)
        symmetric &= gt.exists_D(a, b, d, c).state == v.state
        t = float(rng.uniform(-a + 0.1, b - 0.1))
        shifted = gt.exists_D(a + t, b - t, c + t, d + t)
        scan = gt.f2_nonneg_scan(a + b, c + b, d + b)
        mapped = {"Nonnegative": "Exists", "Negative": "NotExists"}.get(
            scan.kind, "Indeterminate")
        if v.state == shifted.state == mapped != "Indeterminate":
            agree += 1
    _report(12, agree == 50 and symmetric,
            f"{agree}/50 randomized draws agree across direct rule, shifted rule "
            f"and scan; symmetry in the lower pair holds")


def test_13_cli_determinism(tmp_path):
    outputs = []
    for tag in ("r1", "r2"):
        out = tmp_path / f"{tag}.json"
        code = cli.main(["vandantzig", "pair", "--alpha", "1.0",
                         "--mc", "50000", "--seed", "424242", "--out", str(out)])
        assert code == 0
        outputs.append(out.read_bytes())
    _report(13, outputs[0] == outputs[1],
            "byte-identical canonical JSON across repeated seeded runs")
