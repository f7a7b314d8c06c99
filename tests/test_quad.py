import math

import pytest

from besselprob import quad, specfun
from besselprob.errors import DivergenceError

# frozen: sqrt(pi) Gamma(0.6) / Gamma(1.1), Beta-integral oracle at 50 digits
BETA_M04 = 2.7745019184840557379
# Gamma(1/4) Gamma(3/4) / (2 sqrt(pi) Gamma(3/4) Gamma(5/4)) = 2/sqrt(pi)
WS_HALF_QUARTER = 1.1283791670955125739
# frozen: Gamma(1/4) cos(pi/8)
FRESNEL_QUARTER = 3.3496267870763459323


class TestGaussLegendre:
    def test_constant(self):
        r = quad.gauss_legendre(lambda x: 1.0, 0.0, 1.0)
        assert r.value == pytest.approx(1.0, abs=1e-14)
        assert r.converged

    def test_sin(self):
        r = quad.gauss_legendre(math.sin, 0.0, math.pi)
        assert r.value == pytest.approx(2.0, abs=1e-13)

    def test_semicircle_area(self):
        r = quad.gauss_legendre(lambda x: math.sqrt(max(0.0, 1.0 - x * x)), -1.0, 1.0,
                                tol=1e-10)
        assert r.value == pytest.approx(math.pi / 2.0, abs=1e-10)

    def test_bad_interval(self):
        with pytest.raises(ValueError):
            quad.gauss_legendre(math.sin, 1.0, 0.0)

    def test_rerun_within_estimate(self):
        f = lambda x: math.cos(3.0 * x) * math.exp(x)
        r1 = quad.gauss_legendre(f, 0.0, 2.0, tol=1e-8)
        r2 = quad.gauss_legendre(f, 0.0, 2.0, tol=1e-9)
        assert r1.converged
        assert abs(r1.value - r2.value) <= max(r1.abs_error_estimate, 1e-15)


class TestTanhSinh:
    def test_sqrt_singularity(self):
        r = quad.tanh_sinh(lambda x, dlo, dhi: dlo ** -0.5, 0.0, 1.0, 1e-12)
        assert r.value == pytest.approx(2.0, abs=1e-12)
        assert r.converged

    def test_symmetric_weight(self):
        r = quad.tanh_sinh(lambda x, dlo, dhi: (dlo * dhi) ** -0.4, -1.0, 1.0,
                           1e-12)
        assert r.value == pytest.approx(BETA_M04, abs=1e-11)

    def test_weight_normalization_alpha_one(self):
        # (1-t^2)^{1/2} over (-1,1) = pi/2
        r = quad.tanh_sinh(lambda x, dlo, dhi: (dlo * dhi) ** 0.5, -1.0, 1.0,
                           1e-12)
        assert r.value == pytest.approx(math.pi / 2.0, abs=1e-12)

    def test_smooth(self):
        r = quad.tanh_sinh(lambda x, dlo, dhi: math.exp(-x * x), -3.0, 3.0, 1e-12)
        assert r.value == pytest.approx(math.sqrt(math.pi) * math.erf(3.0), abs=1e-12)

    def test_divergence_detected(self):
        with pytest.raises(DivergenceError):
            quad.tanh_sinh(lambda x, dlo, dhi: dlo ** -1.2, 0.0, 1.0, 1e-10)

    def test_rerun_within_estimate(self):
        f = lambda x, dlo, dhi: math.cos(2.0 * x) * dlo ** -0.3
        r1 = quad.tanh_sinh(f, 0.0, 2.0, 1e-8)
        r2 = quad.tanh_sinh(f, 0.0, 2.0, 1e-9)
        assert r1.converged
        assert abs(r1.value - r2.value) <= max(r1.abs_error_estimate, 1e-15)


class TestWynn:
    def test_geometric(self):
        partial = []
        tot = 0.0
        for k in range(20):
            tot += 0.7 ** k
            partial.append(tot)
        val, est = quad.wynn_epsilon(partial)
        assert val == pytest.approx(1.0 / 0.3, rel=1e-12)

    def test_alternating_log2(self):
        partial = []
        tot = 0.0
        for k in range(1, 26):
            tot += (-1.0) ** (k + 1) / k
            partial.append(tot)
        val, est = quad.wynn_epsilon(partial)
        assert val == pytest.approx(math.log(2.0), abs=1e-10)


class TestFresnelMoment:
    @pytest.mark.parametrize("mu,target", [
        (0.5, 1.2533141373155002512),       # sqrt(pi/2)
        (0.25, FRESNEL_QUARTER),
    ])
    def test_known_values(self, mu, target):
        r = quad.fresnel_cos_moment(mu, tol=1e-9)
        assert r.converged
        assert r.value == pytest.approx(target, abs=1e-9)

    def test_full_range_identity(self):
        for mu10 in range(1, 10):
            mu = mu10 / 10.0
            r = quad.fresnel_cos_moment(mu, tol=1e-9)
            target = math.exp(specfun.ln_gamma(mu)) * math.cos(0.5 * math.pi * mu)
            assert abs(r.value - target) <= 1e-8

    def test_near_one_trend(self):
        # the identity value tends to 0 as mu -> 1-
        r = quad.fresnel_cos_moment(0.98, tol=1e-8)
        assert abs(r.value) < 0.05

    def test_domain(self):
        with pytest.raises(ValueError):
            quad.fresnel_cos_moment(1.2)


class TestWsIntegral:
    def test_closed_form_half(self):
        r = quad.ws_integral(0.5, 0.25, tol=1e-9)
        assert r.converged
        assert r.value == pytest.approx(WS_HALF_QUARTER, rel=1e-9)

    def test_alpha_one(self):
        r = quad.ws_integral(1.0, 0.5, tol=1e-9)
        assert r.value == pytest.approx(quad.ws_rhs(1.0, 0.5), rel=1e-9)

    def test_identity_grid(self):
        for alpha in (0.0, 0.5, 1.0, 2.0):
            for frac in (0.1, 0.3, 0.5, 0.7, 0.9):
                s = frac * (alpha + 0.5)
                r = quad.ws_integral(alpha, s, tol=1e-8)
                rhs = quad.ws_rhs(alpha, s)
                assert abs(r.value - rhs) / rhs <= 1e-8, (alpha, s)

    def test_strip_enforced(self):
        with pytest.raises(ValueError):
            quad.ws_integral(0.5, 1.0)
        with pytest.raises(ValueError):
            quad.ws_integral(0.5, 0.0)
        with pytest.raises(ValueError):
            quad.ws_integral(-0.6, 0.1)

    def test_small_s_blowup_trend(self):
        # Gamma(s) pole: value grows as s -> 0+
        vals = [quad.ws_integral(0.0, s, tol=1e-7).value for s in (0.2, 0.1, 0.05)]
        assert vals[0] < vals[1] < vals[2]

    def test_partition_shift_robustness(self):
        alpha, s = 1.0, 0.4
        base = quad.ws_integral(alpha, s, tol=1e-9)
        zeros = specfun.bessel_zeros(alpha, 49)
        # shift every interior breakpoint by a quarter gap
        bps = []
        for i in range(48):
            a, b = zeros[i], zeros[i + 1]
            bps.extend((a + 0.25 * (b - a), a + 0.75 * (b - a)))
        shifted = quad.ws_integral(alpha, s, tol=1e-9, breakpoints=[zeros[0]] + bps)
        assert abs(base.value - shifted.value) <= max(
            base.abs_error_estimate + shifted.abs_error_estimate, 1e-11)

    def test_zero_table_built_once_per_alpha(self):
        specfun.bessel_zeros.cache_clear()
        quad.ws_integral(1.35, 0.4, tol=1e-8)
        quad.ws_integral(1.35, 0.9, tol=1e-8)
        info = specfun.bessel_zeros.cache_info()
        assert (info.misses, info.hits) == (1, 1)

    def test_plan_validation(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            quad.ws_integral(0.5, 0.2, breakpoints=(2.0, 1.0))

    # (value, abs_error_estimate) as float.hex, and evaluations, recorded
    # with zero tables that accept the first Newton step <= 5e-16 x; the
    # breakpoints are those zeros, so the bits move with them
    FROZEN_BITS = [
        ((0.5, 0.25), False, ("0x1.20dd750429b6ep+0", "0x1.a8c4c5c11a6e4p-52", 3249)),
        ((1.0, 0.4), False, ("0x1.288d909f826c3p-1", "0x1.79950a229e1e2p-40", 3249)),
        ((1.0, 0.4), True, ("0x1.288d909f83a7ep-1", "0x1.200a11848b8ccp-43", 3249)),
        ((2.37, 1.1), False, ("0x1.8951416fe8a96p-5", "0x1.5b7b2f1aa3baep-53", 3249)),
    ]

    @pytest.mark.parametrize("args, shifted, want", FROZEN_BITS)
    def test_frozen_bits(self, args, shifted, want):
        # shifted: every interior breakpoint a quarter gap off the default
        kw = {}
        if shifted:
            zeros = specfun.bessel_zeros(args[0], 49)
            kw["breakpoints"] = [zeros[0]] + [zeros[i] + f * (zeros[i + 1] - zeros[i])
                                              for i in range(48) for f in (0.25, 0.75)]
        r = quad.ws_integral(*args, tol=1e-9, **kw)
        assert (r.value.hex(), r.abs_error_estimate.hex(), r.evaluations) == want


def test_quadrature_result_validation():
    with pytest.raises(ValueError):
        quad.QuadratureResult(value=1.0, abs_error_estimate=-1.0,
                              evaluations=3, converged=True)
