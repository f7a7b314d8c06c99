import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from besselprob import gammatype as gt
from besselprob import quad, specfun
from besselprob.errors import AccuracyError

import oracles

# Gamma(1.5)^2 / (Gamma(1) Gamma(2)) = pi/4
PI_OVER_4 = 0.78539816339744830962


class TestGammaRatioSpec:
    def test_sorting_and_rationals(self):
        sp = gt.GammaRatioSpec(a=("17/5", 2, "16/5"), c=("4", "11/5", "12/5"))
        assert sp.a == (2.0, 3.2, 3.4)
        assert sp.c == (2.2, 2.4, 4.0)
        assert sp.sizes == (3, 0, 3, 0)

    def test_strip(self):
        sp = gt.GammaRatioSpec(a=(1.0,), b=(2.0,))
        assert sp.strip == (-1.0, 2.0)
        assert gt.GammaRatioSpec(a=(1.0,)).strip == (-1.0, math.inf)

    def test_positive_entries(self):
        with pytest.raises(ValueError):
            gt.GammaRatioSpec(a=(0.0,))
        with pytest.raises(ValueError):
            gt.GammaRatioSpec(c=(-1.0,))

    def test_json_round_trip(self):
        sp = gt.GammaRatioSpec.from_json('{"a": [1, "16/5"], "c": [2.5]}')
        assert sp.a == (1.0, 3.2) and sp.c == (2.5,)


class TestMellin:
    def test_at_zero(self):
        sp = gt.GammaRatioSpec(a=(1.2, 3.3), b=(0.7,), c=(2.0,), d=(1.1,))
        assert gt.mellin(sp, 0.0) == pytest.approx(1.0, abs=1e-15)

    def test_bounded_support_example(self):
        sp = gt.GammaRatioSpec(a=(1, 3), c=(2, 2))
        assert gt.mellin(sp, 1.0) == pytest.approx(0.75, rel=1e-13)

    def test_complex_line_matches_real(self):
        sp = gt.GammaRatioSpec(a=(1, 3), c=(2, 2))
        v = gt.mellin_complex(sp, complex(1.0, 0.0))
        assert v.real == pytest.approx(0.75, rel=1e-12)
        assert abs(v.imag) < 1e-13


class TestNecessaryConditions:
    def test_counterexample_passes(self):
        sp = gt.GammaRatioSpec(a=("2", "16/5", "17/5"), c=("11/5", "12/5", "4"))
        ok, violated = gt.necessary_conditions(sp)
        assert ok and not violated

    def test_count_rule(self):
        ok, violated = gt.necessary_conditions(gt.GammaRatioSpec(a=(1.0,), c=(2.0, 3.0)))
        assert not ok and "count:p<=n" in violated

    def test_min_rule(self):
        ok, violated = gt.necessary_conditions(gt.GammaRatioSpec(a=(1.0,), c=(0.5,)))
        assert not ok and "min:a1<=c1" in violated

    def test_general_rules(self):
        ok, violated = gt.necessary_conditions(
            gt.GammaRatioSpec(a=(1.0,), b=(2.0,), c=(0.5,), d=(3.0,)))
        assert not ok and "min:a<=c" in violated


class TestAtom:
    def test_counterexample_value(self):
        sp = gt.GammaRatioSpec(a=("2", "16/5", "17/5"), c=("11/5", "12/5", "4"))
        assert abs(gt.atom_at_one(sp) - 150.0 / 132.0) <= 1e-12

    def test_identity_sets(self):
        sp = gt.GammaRatioSpec(a=(1.0, 2.0), c=(1.0, 2.0))
        assert gt.atom_at_one(sp) == pytest.approx(1.0, abs=1e-14)

    def test_pi_over_four(self):
        sp = gt.GammaRatioSpec(a=(1.0, 2.0), c=(1.5, 1.5))
        assert gt.atom_at_one(sp) == pytest.approx(PI_OVER_4, rel=1e-13)

    def test_unequal_sums_rejected(self):
        with pytest.raises(ValueError):
            gt.atom_at_one(gt.GammaRatioSpec(a=(1.0,), c=(2.0,)))


class TestSchur:
    def test_convex_case(self):
        ok, w = gt.schur_check((1.0, 2.0), (1.5, 1.5))
        assert ok and w is None

    def test_equal_sets(self):
        ok, _ = gt.schur_check((1.0, 2.0), (1.0, 2.0))
        assert ok

    def test_counterexample_fails_with_witness(self):
        ok, w = gt.schur_check((2.0, 3.2, 3.4), (2.2, 2.4, 4.0))
        assert not ok and w is not None
        # the witness really is a violation
        phi = lambda es, x: sum(math.exp(-e * x) for e in es)
        assert phi((2.0, 3.2, 3.4), w) < phi((2.2, 2.4, 4.0), w)


class TestMalmsten:
    def test_zero_for_equal_sets(self):
        for x in (0.1, 1.0, 7.0):
            assert gt.malmsten_integrand((1.0, 2.0), (1.0, 2.0), x) == 0.0

    def test_exponent_identity(self):
        # exp(-int (1 - e^{-sx}) integrand dx) must equal the Mellin symbol
        f = lambda x: -math.expm1(-1.0 * x) * gt.malmsten_integrand((1.0,), (2.0,), x)
        r = quad.gauss_legendre(f, 1e-12, 60.0, tol=1e-12)
        assert math.exp(-r.value) == pytest.approx(0.5, abs=1e-10)

    def test_small_x_limit_for_equal_sums(self):
        # with matching sums the difference opens at second order:
        # phi_a - phi_c = x^2 (sum a^2 - sum c^2)/2 + O(x^3), and the
        # denominator behaves like x^2
        a, c = (1.0, 2.0), (1.5, 1.5)
        want = 0.5 * (sum(v * v for v in a) - sum(v * v for v in c))
        got = gt.malmsten_integrand(a, c, 1e-6)
        assert got == pytest.approx(want, rel=1e-4)


class TestLkExponent:
    def test_zero_at_zero(self):
        sp = gt.GammaRatioSpec(a=(1.0,), c=(2.0,))
        assert gt.lk_exponent(sp, 0.0) == 0.0

    def test_log_half(self):
        sp = gt.GammaRatioSpec(a=(1.0,), c=(2.0,))
        assert gt.lk_exponent(sp, 1.0) == pytest.approx(math.log(0.5), abs=1e-9)

    def test_matches_mellin(self):
        sp = gt.GammaRatioSpec(a=(1.0, 1.0), c=(2.0, 3.0))
        got = gt.lk_exponent(sp, 0.5)
        assert got == pytest.approx(math.log(gt.mellin(sp, 0.5)), abs=1e-8)
        assert abs(math.exp(got) - gt.mellin(sp, 0.5)) <= 1e-6

    def test_shape_guards(self):
        with pytest.raises(ValueError):
            gt.lk_exponent(gt.GammaRatioSpec(a=(1.0,), b=(1.0,)), 0.2)


class TestQuasiLevy:
    def test_derived_entries(self):
        q = gt.QuasiLevySpec(1.0, 1.0)
        assert q.c == 3.0 and q.d == 1.5

    def test_positive_side(self):
        q = gt.QuasiLevySpec(1.0, 1.0)
        for x in (0.1, 1.0, 10.0):
            assert gt.quasi_levy_density(q, x) > 0.0

    def test_sign_pattern(self):
        q = gt.QuasiLevySpec(1.0, 1.0)
        a_star = gt.quasi_levy_root(q)
        assert a_star < 0.0
        assert abs(gt.quasi_levy_density(q, a_star)) < 1e-10
        assert gt.quasi_levy_density(q, 0.5 * a_star) < 0.0
        assert gt.quasi_levy_density(q, 2.0 * a_star) > 0.0
        # single sign change on a grid
        xs = np.linspace(-15.0, -1e-3, 1500)
        signs = np.sign([gt.quasi_levy_density(q, x) for x in xs])
        changes = int(np.sum(signs[1:] != signs[:-1]))
        assert changes == 1

    def test_divergence_at_zero_minus(self):
        q = gt.QuasiLevySpec(1.0, 1.0)
        # near-origin behaviour ~ -1/x^2
        v = gt.quasi_levy_density(q, -1e-4)
        assert v < -0.9e8

    @pytest.mark.parametrize("a,b", [(1.0, 1.0), (0.5, 2.0)])
    def test_mellin_reconstruction(self, a, b):
        q = gt.QuasiLevySpec(a, b)
        for s in (-a / 2.0, b / 2.0):
            rec = gt.quasi_levy_mellin(q, s)
            want = gt.mellin(q.ratio_spec(), s)
            assert abs(rec - want) / want <= 1e-5


class TestExtremal:
    def test_density_zeros_at_reciprocal_squared_zeros(self):
        a, b = 1.0, 1.0
        table = specfun.bessel_zeros(a + b - 0.5, 3)
        for j in table.zeros:
            x = j ** -2.0
            assert abs(gt.extremal_density(a, b, x)) < 1e-12

    def test_nonnegative_on_log_grid(self):
        for x in np.geomspace(1e-6, 1e6, 200):
            assert gt.extremal_density(1.0, 1.0, float(x)) >= 0.0

    def test_spot_value_vs_kernels(self):
        a, b, x = 1.0, 1.0, 0.37
        j = oracles.series_bessel_j(a + b - 0.5, x ** -0.5)
        c = math.sqrt(math.pi) * math.exp(
            specfun.ln_gamma(2 * a + b) + specfun.ln_gamma(a + 0.5)
            - specfun.ln_gamma(a) - specfun.ln_gamma(b))
        want = c * x ** (a - 1.5) * j * j
        assert gt.extremal_density(a, b, x) == pytest.approx(want, rel=1e-10)

    def test_moment_check_trivial(self):
        lhs, rhs = gt.extremal_moment_check(1.0, 1.0, 0.0)
        assert rhs == pytest.approx(1.0, abs=1e-14)
        assert lhs == pytest.approx(1.0, rel=1e-8)

    @pytest.mark.parametrize("a,b,s", [(1.0, 1.0, 0.5), (0.5, 1.0, -0.25)])
    def test_moment_check_pairs(self, a, b, s):
        lhs, rhs = gt.extremal_moment_check(a, b, s)
        assert abs(lhs - rhs) / abs(rhs) <= 1e-5


class TestScan:
    def test_trivial_positive_at_zero(self):
        out = gt.f2_nonneg_scan(1.3, 2.0, 2.4)
        assert out.kind in ("Nonnegative", "Negative")

    def test_square_structure(self):
        out = gt.f2_nonneg_scan(2.0, 4.0, 2.5)
        assert out.kind == "Nonnegative" and out.bound == math.inf

    def test_negative_with_verified_witness(self):
        out = gt.f2_nonneg_scan(2.0, 3.0, 3.0)   # shifted from (1,1,2,2)
        assert out.kind == "Negative"
        v, bound = specfun.hyp1f2_with_bound(2.0, 3.0, 3.0, -out.witness)
        assert v < -bound

    def test_clear_positive(self):
        # far inside the existence region
        out = gt.f2_nonneg_scan(1.5, 6.0, 5.0)
        assert out.kind == "Nonnegative"
        assert out.bound is not None and out.bound > 0

    # whole outcomes recorded from the one-call-per-point march, for scans
    # that reach the large-x array chunks: witnesses past x = 160 out to
    # 8.7e6, the full-cap Indeterminate, the x_stop = 2^23 Nonnegative of
    # boundary_f_ab(1, 1, 3.5), and witnesses at the first point of a chunk
    # (grid point 65, x = 162.9, after the scalar stretch; grid point 1089,
    # x = 45720, after the first 1024-point array chunk), which bisect from
    # the last point of the chunk before
    SCAN_OUTCOMES = [
        ((2.734, 5.024, 3.438), "Negative", 220.88723389693314, None,
         "verified value -3.9418e-07 (bound 1.55e-16)"),
        ((1.654, 2.629, 2.672), "Negative", 516.8637944082618, None,
         "verified value -1.50722e-06 (bound 6.21e-18)"),
        ((1.682, 3.089, 2.385), "Negative", 12304.490831239016, None,
         "verified value -5.13715e-10 (bound 1.85e-20)"),
        ((2.174, 3.757, 3.169), "Negative", 8731188.86115756, None,
         "verified value -8.99205e-19 (bound 5.72e-28)"),
        ((1.343, 2.165, 2.35), "Indeterminate", None, None,
         "no verified witness below x=1e+08; ambiguity 0"),
        ((2.0, 2.37109375, 4.5), "Nonnegative", None, 8388608.0,
         "scan clean; algebraic tail dominates"),
        ((3.65, 5.25, 5.36), "Negative", 158.3585917536466, None,
         "verified value -3.24435e-07 (bound 2.04e-15)"),
        ((3.65, 5.25, 5.53), "Negative", 640.6315068366512, None,
         "verified value -1.86998e-09 (bound 9.68e-21)"),
        ((3.3, 4.655, 5.445), "Negative", 45717.85221684817, None,
         "verified value -2.72565e-16 (bound 1.83e-26)"),
    ]

    @pytest.mark.parametrize("abc, kind, witness, bound, detail", SCAN_OUTCOMES,
                             ids=[str(case[0]) for case in SCAN_OUTCOMES])
    def test_large_x_outcomes(self, abc, kind, witness, bound, detail):
        assert gt.f2_nonneg_scan(*abc) == gt.ScanOutcome(
            kind=kind, witness=witness, bound=bound, detail=detail)

    def test_deep_decay_negativity(self):
        # the whole function decays below any absolute tolerance before the
        # first verified-negative trough; the sign decision must be made
        # against the evaluator bound, not an absolute floor
        a, b, c, d = 2.373, 2.533, 5.675, 3.882   # sum rule says NotExists
        assert gt.exists_D(a, b, c, d).state == "NotExists"
        out = gt.f2_nonneg_scan(a + b, c + b, d + b)
        assert out.kind == "Negative"
        v, bound = specfun.hyp1f2_with_bound(a + b, c + b, d + b, -out.witness)
        assert v < -bound


class TestExistsD:
    def test_acceptance_trio(self):
        assert gt.exists_D(1, 1, 3, 1.5).state == "Exists"
        v = gt.exists_D(1, 1, 2, 2)
        assert v.state == "NotExists" and v.reason == "sum-below-threshold"
        v = gt.exists_D(1, 1, 1, 10)
        assert v.state == "NotExists" and v.reason == "min-at-most-a"

    def test_symmetry(self):
        for (a, b, c, d) in ((1, 1, 3, 1.5), (0.7, 1.3, 2.0, 4.0), (1, 1, 2, 2)):
            assert gt.exists_D(a, b, c, d).state == gt.exists_D(a, b, d, c).state

    def test_monotone_in_d(self):
        base = gt.exists_D(1.0, 1.0, 3.0, 1.5)
        assert base.state == "Exists"
        for s in (0.5, 2.0, 7.0):
            assert gt.exists_D(1.0, 1.0, 3.0, 1.5 + s).state == "Exists"

    @given(st.floats(0.4, 1.6), st.floats(0.4, 1.6), st.floats(0.1, 3.0),
           st.floats(0.1, 3.0))
    @settings(max_examples=25, deadline=None, derandomize=True)
    def test_symmetry_property(self, a, b, dc, dd):
        c, d = a + dc, a + dd
        v1, v2 = gt.exists_D(a, b, c, d), gt.exists_D(a, b, d, c)
        assert v1.state == v2.state

    def test_shift_equivalence(self):
        a, b, c, d = 0.8, 1.4, 2.8, 3.5
        base = gt.exists_D(a, b, c, d).state
        for t in (-0.5, 0.3, 0.9):
            assert gt.exists_D(a + t, b - t, c + t, d + t).state == base

    def test_positivity_guard(self):
        with pytest.raises(ValueError):
            gt.exists_D(0.0, 1.0, 2.0, 2.0)


class TestExistsSpec:
    def test_counterexample(self):
        sp = gt.GammaRatioSpec(a=("2", "16/5", "17/5"), c=("11/5", "12/5", "4"))
        v = gt.exists_spec(sp)
        assert v.state == "NotExists" and v.reason == "atom-exceeds-one"
        assert v.witness == pytest.approx(150.0 / 132.0, rel=1e-12)

    def test_gamma_product(self):
        assert gt.exists_spec(gt.GammaRatioSpec(a=(1.0, 2.5))).state == "Exists"

    def test_beta_gamma(self):
        v = gt.exists_spec(gt.GammaRatioSpec(a=(1.0, 2.0), c=(3.0,)))
        assert v.state == "Exists" and v.reason == "beta-gamma-product"

    def test_schur_route(self):
        v = gt.exists_spec(gt.GammaRatioSpec(a=(1.0, 2.0, 3.0), c=(1.5, 1.5, 3.0)))
        assert v.state == "Exists" and v.reason == "schur-holds"

    def test_necessary_fail(self):
        v = gt.exists_spec(gt.GammaRatioSpec(a=(1.0,), c=(2.0, 3.0)))
        assert v.state == "NotExists"
        assert v.reason.startswith("necessary-conditions")

    def test_quartet_shape_dispatch(self):
        sp = gt.GammaRatioSpec(a=(1.0,), b=(1.0,), c=(3.0, 1.5))
        assert gt.exists_spec(sp).state == "Exists"

    def test_verdict_json(self):
        v = gt.ExistenceVerdict("NotExists", "scan-negative", witness=4.2)
        loaded = json.loads(v.to_json())
        assert loaded == {"state": "NotExists", "reason": "scan-negative",
                          "witness": 4.2}


class TestBoundary:
    def test_linear_segment(self):
        s = gt.boundary_f_ab(1.0, 1.0, 2.5)
        assert s.method == "LinearSegment"
        assert s.f_value == pytest.approx(2.0, abs=1e-12)
        assert s.bracket_width == 0.0

    def test_diagonal_start(self):
        # at the domain start the boundary meets the diagonal
        a, b = 0.7, 1.3
        u0 = 0.5 * (3 * a + b) + 0.25
        s = gt.boundary_f_ab(a, b, u0)
        assert s.f_value == pytest.approx(u0, abs=1e-12)

    def test_beyond_segment_bounds(self):
        a, b = 1.0, 1.0
        for u in (4.0, 10.0):
            s = gt.boundary_f_ab(a, b, u, resolution=1e-3)
            assert s.method == "Bisection"
            assert s.bracket_width <= 1e-3
            assert a < s.f_value <= a + (a + b) / (2.0 * (u - a))

    def test_domain_guard(self):
        with pytest.raises(ValueError):
            gt.boundary_f_ab(1.0, 1.0, 2.0)

    # without the check, resolution <= 0 and u = inf bisect forever and a
    # NaN returns a "Bisection" sample that no bisection produced; exists_D
    # is replaced so that a case reaching the bisection fails at once
    @pytest.mark.parametrize("u, resolution", [
        (3.5, 0.0), (3.5, -1.0), (3.5, math.nan), (3.5, math.inf), (2.5, 0.0),
        (math.inf, 1e-3), (-math.inf, 1e-3), (math.nan, 1e-3)])
    def test_degenerate_input_rejected(self, u, resolution, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("bisection reached")

        monkeypatch.setattr(gt, "exists_D", unreachable)
        with pytest.raises(ValueError):
            gt.boundary_f_ab(1.0, 1.0, u, resolution=resolution)

    def test_nonincreasing(self):
        vals = [gt.boundary_f_ab(1.0, 1.0, u, resolution=1e-3).f_value
                for u in (3.0, 4.0, 6.0, 9.0)]
        assert all(b <= a + 2e-3 for a, b in zip(vals, vals[1:]))


class TestConvexity:
    def test_report_shape_and_monotonicity(self):
        rep = gt.convexity_scan(1.0, 1.0, [2.5, 3.0, 3.5, 4.5, 6.0], resolution=2e-3)
        assert rep["monotonicity_violations"] == 0
        assert len(rep["second_differences"]) == 3
        json.dumps(rep)   # must be serializable

    def test_linear_segment_flat(self):
        rep = gt.convexity_scan(1.0, 1.0, [2.3, 2.55, 2.8], resolution=1e-4)
        assert abs(rep["second_differences"][0]) < 1e-9


class TestAskeySzego:
    @pytest.mark.parametrize("a,b,expect_nonneg", [
        (1.0, 1.0, True),      # partial integrals are 1 - J_0 >= 0
        (2.5, 0.5, True),
        (0.3, 2.0, False),     # strong growing weight goes negative
    ])
    def test_agreement(self, a, b, expect_nonneg):
        rep = gt.askey_szego_check(a, b, np.linspace(0.5, 60.0, 40))
        assert rep["integral_nonneg"] is expect_nonneg
        assert rep["agrees"] is True

    def test_first_partial_matches_direct_value(self):
        # spot value of int_0^x J_1 = 1 - J_0(x)
        rep = gt.askey_szego_check(1.0, 1.0, [2.0])
        want = 1.0 - specfun.bessel_j(0.0, 2.0)
        assert rep["partial_integrals"][0] == pytest.approx(want, abs=1e-10)


class TestInversion:
    def test_exponential_density(self):
        sp = gt.GammaRatioSpec(a=(1.0,))
        for x in (0.3, 1.0, 2.5):
            assert gt.density_via_inversion(sp, x) \
                == pytest.approx(math.exp(-x), abs=1e-9)

    def test_half_uniform_with_atom(self):
        sp = gt.GammaRatioSpec(a=(1, 3), c=(2, 2))
        for x in (0.4, 0.8):
            assert gt.density_via_inversion(sp, x) == pytest.approx(0.5, abs=5e-3)
        assert abs(gt.density_via_inversion(sp, 1.7)) <= 5e-3

    def test_two_sided_ratio_density(self):
        # Gamma_2 / Gamma_3 has the closed density 12 x / (1+x)^5
        sp = gt.GammaRatioSpec(a=(2.0,), b=(3.0,))
        for x in (0.2, 0.7, 1.0, 2.3):
            want = 12.0 * x / (1.0 + x) ** 5
            assert gt.density_via_inversion(sp, x) == pytest.approx(want, abs=1e-10)

    def test_sigma_validation(self):
        sp = gt.GammaRatioSpec(a=(1.0,))
        with pytest.raises(ValueError):
            gt.density_via_inversion(sp, 1.0, line_sigma=-2.0)


class TestSelberg:
    @pytest.mark.parametrize("alpha,s", [(0.5, 0.75), (1.0, 1.2), (2.0, 2.2)])
    def test_agreement(self, alpha, s):
        qv, cf = gt.selberg2_check(alpha, s)
        assert abs(qv - cf) / cf <= 1e-6

    def test_window_guard(self):
        with pytest.raises(ValueError):
            gt.selberg2_check(1.0, 0.9)   # below max(0, alpha)
        with pytest.raises(ValueError):
            gt.selberg2_check(0.5, 1.1)   # above alpha + 1/2


class TestRatioProductSampling:
    def test_unit_gamma(self):
        xs = gt.sample_ratio_product(gt.GammaRatioSpec(a=(1.0,)), seed=5, count=100_000)
        se = xs.std(ddof=1) / math.sqrt(len(xs))
        assert abs(xs.mean() - 1.0) <= 3.0 * se

    def test_beta_gamma_moment(self):
        sp = gt.GammaRatioSpec(a=(1.0, 2.0), c=(3.0,))
        xs = gt.sample_ratio_product(sp, seed=5, count=100_000)
        emp = xs ** 0.5
        se = emp.std(ddof=1) / math.sqrt(len(xs))
        assert abs(emp.mean() - gt.mellin(sp, 0.5)) <= 3.0 * se

    def test_reciprocal_side(self):
        sp = gt.GammaRatioSpec(b=(2.0,), d=(3.0,))
        xs = gt.sample_ratio_product(sp, seed=6, count=100_000)
        emp = xs ** -0.5
        se = emp.std(ddof=1) / math.sqrt(len(xs))
        assert abs(emp.mean() - gt.mellin(sp, -0.5)) <= 3.0 * se

    def test_prefix_stability_unaligned_counts(self):
        # per-block substreams: the short draw ends inside the third block,
        # which the long draw fills completely
        sp = gt.GammaRatioSpec(a=(1.0, 2.0), c=(3.0,))
        big = gt.sample_ratio_product(sp, seed=5, count=20_000)
        small = gt.sample_ratio_product(sp, seed=5, count=9_000)
        assert np.array_equal(big[:9_000], small)

    def test_shape_guards(self):
        with pytest.raises(ValueError):
            gt.sample_ratio_product(gt.GammaRatioSpec(a=(1.0,), c=(2.0, 3.0)), 1, 10)
        with pytest.raises(ValueError):
            gt.sample_ratio_product(gt.GammaRatioSpec(b=(1.0,), d=(0.5,)), 1, 10)


class TestCrossOracle:
    def test_scan_vs_rules_on_random_draws(self):
        rng = np.random.default_rng(2718)
        agree = 0
        total = 0
        while total < 25:
            a = rng.uniform(0.3, 2.0)
            b = rng.uniform(0.3, 2.0)
            c = rng.uniform(a + 0.2, a + 4.0)
            d = rng.uniform(a + 0.2, a + 6.0)
            gap = c + d - (3 * a + b + 0.5)
            if abs(gap) < 0.3:
                continue
            if min(c, d) < a + 0.15 and gap > 0:
                continue
            total += 1
            v = gt.exists_D(a, b, c, d)
            scan = gt.f2_nonneg_scan(a + b, c + b, d + b)
            mapped = {"Nonnegative": "Exists", "Negative": "NotExists"}.get(
                scan.kind, "Indeterminate")
            assert v.state == mapped, (a, b, c, d, v.to_dict(), scan)
            agree += 1
        assert agree == total == 25
