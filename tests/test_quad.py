import hashlib
import math
import random
import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from besselprob import backend, quad, specfun
from besselprob.errors import DivergenceError

import oracles

# frozen: sqrt(pi) Gamma(0.6) / Gamma(1.1), Beta-integral oracle at 50 digits
BETA_M04 = 2.7745019184840557379
# Gamma(1/4) Gamma(3/4) / (2 sqrt(pi) Gamma(3/4) Gamma(5/4)) = 2/sqrt(pi)
WS_HALF_QUARTER = 1.1283791670955125739
# frozen: Gamma(1/4) cos(pi/8)
FRESNEL_QUARTER = 3.3496267870763459323


def _ws_closed_form(alpha: float, s: float) -> float:
    """The Weber-Schafheitlin closed form `ws_integral` checks, at 30 digits."""
    import mpmath as mp

    with mp.workdps(30):
        a, t = mp.mpf(alpha), mp.mpf(s)
        return mp.gamma(t) * mp.gamma(a + 0.5 - t) / (
            2 * mp.sqrt(mp.pi) * mp.gamma(0.5 + t) * mp.gamma(a + 0.5 + t))


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

    # both ends of (0, 1): the value grows like 1/mu as mu -> 0 and tends
    # to 0 as mu -> 1
    @pytest.mark.parametrize("mu", [1e-8, 1e-3, 0.005, 0.01, 0.06, 0.5, 1.0 - 1e-6])
    def test_error_within_estimate(self, mu):
        r = quad.fresnel_cos_moment(mu)
        assert abs(r.value - oracles.gamma_cos_moment(mu)) <= r.abs_error_estimate

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    def test_error_within_estimate_property(self, mu):
        r = quad.fresnel_cos_moment(mu)
        assert abs(r.value - oracles.gamma_cos_moment(mu)) <= r.abs_error_estimate


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

    def test_zero_table_built_once_per_alpha(self, monkeypatch):
        # the second integral at the same alpha adds no cache miss and walks
        # no zero: the zero walk makes no backend.bessel_j call
        walk = [0]
        inner = backend.bessel_j

        def counted(a, x):
            walk[0] += 1
            return inner(a, x)

        monkeypatch.setattr(specfun, "backend",
                            types.SimpleNamespace(**{**vars(backend), "bessel_j": counted}))
        specfun.bessel_zeros.cache_clear()
        quad._ws_order.cache_clear()
        quad.ws_integral(1.35, 0.4, tol=1e-8)
        misses, calls = specfun.bessel_zeros.cache_info().misses, walk[0]
        assert misses > 0 and calls > 0
        quad.ws_integral(1.35, 0.9, tol=1e-8)
        assert (specfun.bessel_zeros.cache_info().misses, walk[0]) == (misses, calls)

    def test_tail_needs_few_zeros(self, monkeypatch):
        # the panels stop at the first zero past j_crossover(alpha) = 14
        counts = []

        def counted(alpha, count):
            counts.append(count)
            return specfun.bessel_zeros(alpha, count)

        monkeypatch.setattr(quad, "bessel_zeros", counted)
        quad._ws_order.cache_clear()
        for alpha in (0.0, 0.3, 0.5, 1.0, 1.35, 1.5, 1.9, 2.0):
            quad.ws_integral(alpha, 0.4, tol=1e-9)
        assert 0 < max(counts) <= 8

    def test_repeat_order_evaluates_no_kernel(self, monkeypatch):
        # a further s at a cached order reads every J value, error bound and
        # Hankel term off the order's cache; cache_clear brings the calls back
        names = ("bessel_j", "bessel_j_normalized", "bessel_j_error_bound", "hankel_terms")
        calls = dict.fromkeys(names, 0)

        def counted(name):
            inner = getattr(backend, name)

            def call(*args):
                calls[name] += 1
                return inner(*args)
            return call

        monkeypatch.setattr(quad, "backend", types.SimpleNamespace(
            **{**vars(backend), **{name: counted(name) for name in names}}))
        quad._ws_order.cache_clear()
        quad.ws_integral(2.37, 1.1)
        cold = dict(calls)
        assert all(cold.values()), cold
        quad.ws_integral(2.37, 0.4)
        assert calls == cold
        quad._ws_order.cache_clear()
        quad.ws_integral(2.37, 0.4)
        assert calls == {name: 2 * n for name, n in cold.items()}

    def test_order_cache_changes_no_bit(self):
        # each integral asked with a cleared cache equals, bit for bit, the
        # same integral asked in shuffled order with the cache filling;
        # alpha = 12.16 puts the zero-gap nodes in the fixed-point J band
        points = [(alpha, frac * (alpha + 0.5)) for alpha in (-0.3, 0.5, 2.37, 7.3, 12.16)
                  for frac in (0.1, 0.5, 0.9)]

        def bits(r):
            return r.value.hex(), r.abs_error_estimate.hex(), r.evaluations, r.converged

        cold = {}
        for point in points:
            quad._ws_order.cache_clear()
            cold[point] = bits(quad.ws_integral(*point))
        quad._ws_order.cache_clear()
        random.Random(3).shuffle(points)
        assert {point: bits(quad.ws_integral(*point)) for point in points} == cold

    def test_error_estimate_bounds_the_error(self):
        # |value - closed form| <= abs_error_estimate at 150 points, alpha in
        # [0, 8] and s in (0.05, alpha + 0.45), the closed form at 30 digits
        rnd = random.Random(7)
        short = []
        for _ in range(150):
            alpha = rnd.uniform(0.0, 8.0)
            s = rnd.uniform(0.05, alpha + 0.45)
            r = quad.ws_integral(alpha, s, tol=1e-9)
            err = float(abs(r.value - _ws_closed_form(alpha, s)))
            if not err <= r.abs_error_estimate:
                short.append((alpha, s, err, r.abs_error_estimate))
        assert short == []

    @pytest.mark.parametrize("alpha, s", [
        # 2 alpha - 2s + 1 = 0.018: below the smallest node of a tanh-sinh
        # head lay 3.9e-2 of the integral's 54.55
        (-0.4821, 0.00895),
        # 1e-3 inside the strip's right edge
        (2.0, 2.499),
        # p + 1 = 3.3e-7, 6e-6 and 1.1e-4: formed as (2 alpha - 2s) + 1 it
        # left the integral up to 1.7e-10 off
        *[(alpha, alpha + 0.5 - 0.5 * p1) for alpha in (-0.45, -0.3, -0.1317, -0.01)
          for p1 in (3.3e-7, 6e-6, 1.1e-4)],
    ])
    def test_head_mass_near_zero(self, alpha, s):
        # the head's leading power c z^p is integrated in closed form, so
        # its mass near 0 is counted as p + 1 -> 0
        r = quad.ws_integral(alpha, s)
        want = _ws_closed_form(alpha, s)
        err = float(abs(r.value - want))
        assert err <= r.abs_error_estimate
        assert err <= 1e-13 * float(want)

    def test_head_takes_no_tanh_sinh(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("ws_integral called tanh_sinh")

        monkeypatch.setattr(quad, "tanh_sinh", refuse)
        for alpha, s in ((-0.3, 0.1), (0.5, 0.25), (2.37, 1.1), (12.0, 6.0)):
            quad.ws_integral(alpha, s)

    # j_1 = 2.5 at alpha = 0.0621100802...: below it the head's power series
    # reaches j_1, above it panels take [2.5, j_1]
    @pytest.mark.parametrize("alpha", [0.06111008024269475, 0.06211008024269475,
                                       0.06311008024269475])
    @pytest.mark.parametrize("frac", [0.01, 0.5, 0.999])
    def test_estimate_across_series_panel_switch(self, alpha, frac):
        s = frac * (alpha + 0.5)
        r = quad.ws_integral(alpha, s)
        want = _ws_closed_form(alpha, s)
        err = float(abs(r.value - want))
        assert err <= r.abs_error_estimate
        assert err <= 1e-13 * float(want)

    def test_estimate_bounds_the_error_to_alpha_30(self):
        # 20 seeded points with alpha in (-0.49, 30] and s anywhere in the
        # strip but its outer thousandths
        rnd = random.Random(31)
        short = []
        for _ in range(20):
            alpha = rnd.uniform(-0.49, 30.0)
            s = rnd.uniform(1e-3, 1.0 - 1e-3) * (alpha + 0.5)
            r = quad.ws_integral(alpha, s)
            err = float(abs(r.value - _ws_closed_form(alpha, s)))
            if not err <= r.abs_error_estimate:
                short.append((alpha, s, err, r.abs_error_estimate))
        assert short == []

    # (value, abs_error_estimate) as float.hex, and evaluations: the head's
    # series terms and 28 per head panel, then 16 per zero gap up to the
    # first zero past j_crossover(alpha); the tail past it is summed in
    # closed form
    FROZEN_BITS = [
        ((0.5, 0.25), ("0x1.20dd750429b6ep+0", "0x1.d24e6e3cca779p-47", 107)),
        ((1.0, 0.4), ("0x1.288d909f832dap-1", "0x1.024447092f56dp-39", 107)),
        ((7.3, 3.0), ("0x1.65dae961e11b6p-20", "0x1.38fee43f9df10p-59", 100)),
        ((2.37, 1.1), ("0x1.8951416fe8b08p-5", "0x1.4d76dbe4277fdp-45", 90)),
    ]

    @pytest.mark.parametrize("args, want", FROZEN_BITS)
    def test_frozen_bits(self, args, want):
        r = quad.ws_integral(*args, tol=1e-9)
        assert (r.value.hex(), r.abs_error_estimate.hex(), r.evaluations) == want

    # sha256 over one line "value estimate evaluations" (float.hex) per point
    # at the first 120 points of test_error_estimate_bounds_the_error: it
    # moves with the order or association of any product, e.g. of the zero
    # gaps' kernel error rw * zp * mag * dj, where the four pins above do not
    def test_frozen_bits_digest(self):
        rnd = random.Random(7)
        digest = hashlib.sha256()
        for _ in range(120):
            alpha = rnd.uniform(0.0, 8.0)
            s = rnd.uniform(0.05, alpha + 0.45)
            r = quad.ws_integral(alpha, s, tol=1e-9)
            digest.update(f"{r.value.hex()} {r.abs_error_estimate.hex()} {r.evaluations}\n".encode())
        assert digest.hexdigest() == \
            "5b26a7ad1a5794be7278ac5cff6548c01795edfa44e01c2c84fc88158cbe241e"


def test_quadrature_result_validation():
    with pytest.raises(ValueError):
        quad.QuadratureResult(value=1.0, abs_error_estimate=-1.0,
                              evaluations=3, converged=True)
