import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from besselprob import _kernels_py
from besselprob import backend, specfun
from besselprob.errors import AccuracyError
from besselprob.policy import PrecisionPolicy

import oracles

# frozen from the 50-digit series oracle (oracles.series_bessel_j/_i and
# explicit summation; see oracles.py)
J_1_AT_1 = 0.44005058574493351596
I_HALF_AT_1 = 0.93767488824548764672   # = sqrt(2/pi) sinh 1
I_1_AT_2 = 1.5906368546373290634
F2_1_2_15_M4 = 0.20670545260795148933
PSI_1 = -0.57721566490153286061        # Euler-Mascheroni, 50-digit series
J0_FIRST_ZERO = 2.4048255576957727686  # bisection oracle on [2.4, 2.5]


@pytest.mark.parametrize("kern", [_kernels_py], ids=["python"])
class TestKernels:
    def test_ln_gamma_values(self, kern):
        assert kern.ln_gamma(1.0) == pytest.approx(0.0, abs=1e-15)
        assert kern.ln_gamma(4.0) == pytest.approx(math.log(6.0), rel=1e-14)
        assert kern.ln_gamma(0.5) == pytest.approx(math.log(math.sqrt(math.pi)), rel=1e-14)

    def test_ln_gamma_domain(self, kern):
        with pytest.raises(ValueError):
            kern.ln_gamma(0.0)
        with pytest.raises(ValueError):
            kern.ln_gamma(-2.5)

    def test_digamma(self, kern):
        assert kern.digamma(1.0) == pytest.approx(PSI_1, abs=2e-15)
        assert kern.digamma(2.0) == pytest.approx(kern.digamma(1.0) + 1.0, abs=2e-15)
        assert kern.digamma(0.5) == pytest.approx(PSI_1 - 2.0 * math.log(2.0), abs=2e-15)
        with pytest.raises(ValueError):
            kern.digamma(0.0)

    def test_bessel_j_basics(self, kern):
        assert kern.bessel_j(0.0, 0.0) == 1.0
        assert kern.bessel_j(0.5, math.pi) == pytest.approx(0.0, abs=1e-15)
        assert kern.bessel_j(1.0, 1.0) == pytest.approx(J_1_AT_1, abs=1e-14)

    def test_bessel_j_domain(self, kern):
        with pytest.raises(ValueError):
            kern.bessel_j(-1.0, 1.0)
        with pytest.raises(ValueError):
            kern.bessel_j(1.0, -0.5)
        with pytest.raises(ZeroDivisionError):
            kern.bessel_j(-0.3, 0.0)

    def test_bessel_i(self, kern):
        assert kern.bessel_i(0.0, 0.0) == 1.0
        assert kern.bessel_i(0.5, 1.0) == pytest.approx(I_HALF_AT_1, rel=1e-13)
        assert kern.bessel_i(1.0, 2.0) == pytest.approx(I_1_AT_2, rel=1e-13)

    def test_bessel_i_overflow(self, kern):
        with pytest.raises(OverflowError):
            kern.bessel_i(0.0, 800.0)

    def test_hyp1f2_series(self, kern):
        v, err, n = kern.hyp1f2_series(1.0, 2.0, 1.5, -4.0)
        assert v == pytest.approx(F2_1_2_15_M4, abs=max(err, 1e-14))
        v0, err0, _ = kern.hyp1f2_series(0.7, 1.1, 2.2, 0.0)
        assert v0 == 1.0 and err0 < 1e-13

    def test_series_asymptotic_overlap(self, kern):
        # the two J evaluation paths must agree around the crossover (for
        # orders small enough that the raw series still has digits there;
        # beyond that the dispatch swaps in the verified fallback)
        policy = PrecisionPolicy()
        for alpha in (-0.4, 0.0, 0.9, 1.7, 2.3, 3.2, 4.0):
            cross = kern.j_crossover(alpha)
            for z in (cross * 0.9, cross, cross * 1.1):
                s = kern.bessel_j_series(alpha, z)
                a = kern.bessel_j_asymptotic(alpha, z)
                assert abs(s - a) <= 10.0 * policy.target_abs_tol


def _normal_quantile_mp(u: float):
    """Phi^{-1}(u) to 40 digits: Newton on mpmath's ncdf from the double
    estimate, with the upper tail mirrored so 1 - u stays exact."""
    import mpmath as mp

    with mp.workdps(40):
        p = mp.mpf(u)
        if p == 0.5:
            return mp.mpf(0)
        if p > 0.5:
            return -_normal_quantile_mp(1.0 - u)
        x = mp.mpf(backend.normal_inv_cdf(u))
        for _ in range(6):
            x -= (mp.ncdf(x) - p) / mp.npdf(x)
        return x


class TestNormalInvCdf:
    # the array kernel (AS241), bound as `backend.normal_inv_cdf`
    def test_normal_inv_cdf(self):
        assert backend.normal_inv_cdf(0.5) == 0.0
        # standard two-sided 95% quantile
        assert backend.normal_inv_cdf(0.975) == pytest.approx(1.959963984540054, abs=1e-15)
        assert type(backend.normal_inv_cdf(0.975)) is float
        # odd symmetry where 1 - u is exact, in the central region and a tail
        for u in (0.375, 2.0 ** -10):
            assert backend.normal_inv_cdf(u) == -backend.normal_inv_cdf(1.0 - u)

    def test_relative_error_against_mpmath(self):
        # 0.075 and 0.925 sit at the central/tail switch (|u - 1/2| = 0.425);
        # the geometric points reach the far tail (r > 5) down to 1e-300
        grid = np.concatenate([
            np.linspace(0.001, 0.999, 199), [0.075, 0.925, 0.5 + 2.0 ** -53, 1.0 - 2.0 ** -53],
            np.geomspace(1e-300, 0.4, 120), 1.0 - np.geomspace(1e-15, 0.4, 40)])
        got = backend.normal_inv_cdf(grid)
        worst = 0.0
        for u, x in zip(grid, got):
            want = _normal_quantile_mp(float(u))
            worst = max(worst, float(abs((x - want) / want)) if want else abs(x))
        assert worst <= 2e-15

    def test_shape_preserved(self):
        u = np.linspace(0.05, 0.95, 12).reshape(3, 4)
        got = backend.normal_inv_cdf(u)
        assert got.shape == (3, 4)
        assert np.array_equal(got.ravel(), backend.normal_inv_cdf(u.ravel()))
        assert backend.normal_inv_cdf(np.array([0.3])).shape == (1,)
        assert backend.normal_inv_cdf(np.empty((0, 2))).shape == (0, 2)

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.5, 1.5, math.nan,
                                     [0.2, 0.0, 0.7], np.array([[0.5, 1.0]])],
                             ids=["zero", "one", "negative", "above-one", "nan",
                                  "list-with-zero", "array-with-one"])
    def test_domain(self, bad):
        with pytest.raises(ValueError):
            backend.normal_inv_cdf(bad)


def _bits(values) -> list:
    return [float(v).hex() for v in values]


@st.composite
def _order_and_arguments(draw):
    """An order and a list of z >= 0 that straddles each route switch of
    `bessel_j` at that order: the half-integer closed forms (k = -1..6, safe
    from z = 2k + 2 for k >= 1), the Hankel expansion from `j_crossover`
    (14, or alpha^2/4 + 2 above alpha = 6.93), and for alpha >= 8 the
    series bound's hand-over to the 50-digit series."""
    alpha = draw(st.one_of(
        st.integers(-1, 6).map(lambda k: k + 0.5),
        st.floats(-0.99, -0.01),
        st.floats(0.0, 6.9),
        st.floats(6.95, 13.0)))
    cross = _kernels_py.j_crossover(alpha)
    switches = [cross]
    k = math.floor(alpha)
    if alpha - k == 0.5 and k >= 1:
        switches.append(2.0 * k + 2.0)
    if alpha >= 8.0:
        # the 50-digit hand-over: bisect for the z where the series bound
        # first exceeds it
        lo, hi = 1.0, 0.95 * cross
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if _kernels_py._bessel_j_series_bound(alpha, mid)[1] > 2e-11:
                hi = mid
            else:
                lo = mid
        switches += [hi, 0.95 * cross]
    z = draw(st.lists(st.floats(1e-3, 1.5 * cross), min_size=1, max_size=16))
    for edge in switches:
        eps = draw(st.floats(1e-12, 0.05))
        z += [edge, math.nextafter(edge, 0.0), edge * (1.0 - eps), edge * (1.0 + eps)]
    if alpha >= 0.0 and draw(st.booleans()):
        z.append(0.0)
    return alpha, draw(st.permutations(z))


class TestBesselJArray:
    # every kernel `backend` binds is the one `_kernels_py`/`_normal` object
    def test_bound_for_every_backend(self):
        import besselprob
        from besselprob import _normal

        public = {n for n in vars(backend) if not n.startswith("_")} - {"annotations"}
        assert public == set(_kernels_py.__all__) | {"normal_inv_cdf"}
        for name in _kernels_py.__all__:
            assert getattr(backend, name) is getattr(_kernels_py, name), name
        assert backend.normal_inv_cdf is _normal.normal_inv_cdf
        assert besselprob.BACKEND_NAME == "python"

    @settings(max_examples=60, deadline=None)
    @given(_order_and_arguments())
    def test_equals_scalar_bit_for_bit(self, case):
        alpha, z = case
        want = [_kernels_py.bessel_j(alpha, v) for v in z]
        assert _bits(backend.bessel_j_array(alpha, z)) == _bits(want)
        if alpha >= 8.0:
            # the 50-digit route really ran for some element
            assert any(_kernels_py._bessel_j_series_bound(alpha, v)[1] > 2e-11
                       for v in z if 0.0 < v < _kernels_py.j_crossover(alpha))

    def test_shape_preserved(self):
        z = np.linspace(0.0, 30.0, 12).reshape(3, 4)
        got = backend.bessel_j_array(1.3, z)
        assert got.shape == (3, 4)
        assert _bits(got.ravel()) == _bits(_kernels_py.bessel_j(1.3, v) for v in z.ravel())
        assert backend.bessel_j_array(1.3, np.empty(0)).shape == (0,)

    @pytest.mark.parametrize("alpha, z", [
        (-1.0, [1.0]), (-1.5, [1.0]), (math.nan, [1.0]), (-math.inf, [1.0]),
        (1.0, [2.0, -0.5]), (-0.3, [1.0, 0.0, 2.0]), (0.5, [3.0, -1.0, 0.0]),
    ])
    def test_domain_raises_scalar_exception(self, alpha, z):
        with pytest.raises(Exception) as scalar:
            [_kernels_py.bessel_j(alpha, v) for v in z]
        with pytest.raises(scalar.type):
            backend.bessel_j_array(alpha, z)


@pytest.mark.parametrize("name", ["bessel_j", "bessel_j_normalized", "bessel_j_prime",
                                  "bessel_j_array"])
@pytest.mark.parametrize("alpha", [0.3, 0.5, 2.0])
@pytest.mark.parametrize("z", [math.inf, math.nan])
def test_non_finite_z_raises_domain_error(name, alpha, z):
    f = getattr(_kernels_py, name)
    arg = [z] if name == "bessel_j_array" else z
    with pytest.raises(ValueError, match=r"requires finite z >= 0"):
        f(alpha, arg)


@pytest.mark.parametrize("name", ["bessel_i", "bessel_i_normalized"])
@pytest.mark.parametrize("alpha", [0.3, 1.5])
@pytest.mark.parametrize("z", [math.nan, math.inf, -math.inf])
def test_bessel_i_non_finite_z(name, alpha, z):
    f = getattr(_kernels_py, name)
    if math.isnan(z) or (name == "bessel_i" and z < 0.0):
        with pytest.raises(ValueError, match=rf"{name} requires .*z"):
            f(alpha, z)
    else:
        # I is even in z for the normalized form; both overflow at |z| = inf
        with pytest.raises(OverflowError, match=r"~ inf$"):
            f(alpha, z)


def test_bessel_j_vs_series_oracle():
    for alpha in (-0.4, 0.3, 1.0, 2.2, 5.5):
        for z in (0.05, 1.0, 7.7, 13.0):
            want = oracles.series_bessel_j(alpha, z)
            assert specfun.bessel_j(alpha, z) == pytest.approx(want, abs=5e-12)


def test_bessel_j_large_order_window():
    # between the series cancellation limit and the validity range of the
    # large-argument expansion the dispatch must still deliver (the window
    # exists for orders above ~7)
    for alpha in (7.3, 9.0, 12.0):
        for z in (0.3 * alpha, alpha, 1.6 * alpha, 0.24 * alpha * alpha,
                  0.3 * alpha * alpha, alpha * alpha):
            want = oracles.series_bessel_j(alpha, z, dps=80, terms=600)
            assert specfun.bessel_j(alpha, z) == pytest.approx(want, abs=2e-11)


def test_bessel_i_vs_series_oracle():
    for alpha in (-0.4, 0.0, 1.0, 2.5):
        for z in (0.3, 2.0, 24.0):
            want = oracles.series_bessel_i(alpha, z)
            assert specfun.bessel_i(alpha, z) == pytest.approx(want, rel=1e-12)


def test_half_order_identity():
    worst = 0.0
    for i in range(1, 1000):
        t = 50.0 * i / 1000.0
        worst = max(worst, abs(specfun.bessel_j(0.5, t) * math.sqrt(math.pi * t / 2.0)
                               - math.sin(t)))
    assert worst <= 1e-12


def test_bessel_order_type():
    order = specfun.BesselOrder(1.5)
    assert specfun.bessel_j(order, 2.0) == specfun.bessel_j(1.5, 2.0)
    with pytest.raises(ValueError):
        specfun.BesselOrder(float("nan"))
    with pytest.raises(ValueError):
        specfun.BesselOrder(-1.0)


class TestZeros:
    def test_half_order_zeros_are_multiples_of_pi(self):
        table = specfun.bessel_zeros(0.5, 50)
        for n, z in enumerate(table.zeros, start=1):
            assert abs(z - n * math.pi) <= 1e-12 * n * math.pi

    def test_first_zero_of_j0(self):
        table = specfun.bessel_zeros(0.0, 1)
        assert table.zeros[0] == pytest.approx(J0_FIRST_ZERO, abs=1e-11)

    @pytest.mark.parametrize("alpha", [-0.4, 0.0, 1.0, 3.0, 5.5])
    def test_residuals_and_ordering(self, alpha):
        table = specfun.bessel_zeros(alpha, 60)
        assert all(b > a for a, b in zip(table.zeros, table.zeros[1:]))
        assert max(abs(specfun.bessel_j(alpha, z)) for z in table.zeros) <= 1e-10
        # spacing approaches pi
        gaps = [b - a for a, b in zip(table.zeros[-6:], table.zeros[-5:])]
        assert all(abs(g - math.pi) < 0.01 for g in gaps)

    def test_table_cached_per_order_and_count(self):
        assert specfun.bessel_zeros(1.25, 40) is specfun.bessel_zeros(1.25, 40)
        assert specfun.bessel_zeros(1.25, 41) is not specfun.bessel_zeros(1.25, 40)
        specfun.bessel_zeros.cache_clear()
        assert specfun.bessel_zeros.cache_info().currsize == 0

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.37])
    def test_scalar_calls_per_zero(self, alpha, monkeypatch):
        # a Newton step that has converged is accepted, not bisected away
        calls = [0]
        inner = backend.bessel_j

        def counted(a, z):
            calls[0] += 1
            return inner(a, z)

        monkeypatch.setattr(backend, "bessel_j", counted)
        specfun.bessel_zeros.__wrapped__(alpha, 49)
        assert calls[0] <= 5 * 49

    @settings(max_examples=3, deadline=None, derandomize=True)
    @given(alpha=st.one_of(st.floats(0.0, 10.0), st.floats(-0.99, -0.01)))
    @example(alpha=1.4324)   # k = 4 is 8e-13 off, in the series band
    @example(alpha=6.35)     # k = 2 is ~48 ulps off, just past j_crossover
    @example(alpha=-0.4)
    def test_zeros_against_mpmath(self, alpha):
        # below j_crossover the series band limits the zeros to ~1e-12;
        # the Hankel expansion is a few ulps from one unit past it on
        crossover = _kernels_py.j_crossover(alpha)
        for k, z in enumerate(specfun.bessel_zeros.__wrapped__(alpha, 49).zeros, start=1):
            err = float(abs(z - oracles.bessel_j_zero(alpha, k, z)))
            assert err <= 1e-12 * z, (alpha, k, z)
            if z >= crossover:
                assert err <= 64 * math.ulp(z), (alpha, k, z)
            if z >= crossover + 1.0:
                assert err <= 16 * math.ulp(z), (alpha, k, z)

    def test_zero_table_validation(self):
        with pytest.raises(ValueError):
            specfun.ZeroTable(alpha=0.0, zeros=(2.0, 1.0))
        with pytest.raises(ValueError):
            specfun.ZeroTable(alpha=0.0, zeros=(-1.0, 2.0))


class _SpecLike:
    def __init__(self, a=(), b=(), c=(), d=()):
        self.a, self.b, self.c, self.d = a, b, c, d


class TestPochhammer:
    def test_at_zero(self):
        sp = _SpecLike(a=(2.0, 3.2, 3.4), c=(2.2, 2.4, 4.0))
        assert specfun.pochhammer_ratio(sp, 0.0) == pytest.approx(1.0, abs=1e-15)

    def test_simple_ratio(self):
        sp = _SpecLike(a=(1.0,), c=(2.0,))
        assert specfun.pochhammer_ratio(sp, 1.0) == pytest.approx(0.5, rel=1e-13)

    def test_counterexample_limit_ratio(self):
        # Gamma(c) products over Gamma(a) products for the bounded-support
        # counterexample sets: 150/132
        num = sum(specfun.ln_gamma(v) for v in (2.2, 2.4, 4.0))
        den = sum(specfun.ln_gamma(v) for v in (2.0, 3.2, 3.4))
        assert math.exp(num - den) == pytest.approx(150.0 / 132.0, rel=1e-13)

    def test_strip_enforced(self):
        sp = _SpecLike(a=(1.0,), b=(2.0,))
        with pytest.raises(ValueError):
            specfun.pochhammer_ratio(sp, 2.5)
        with pytest.raises(ValueError):
            specfun.pochhammer_ratio(sp, -1.0)

    @given(a1=st.floats(0.2, 5.0), c1=st.floats(0.2, 5.0),
           s=st.floats(0.05, 0.95))
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_reciprocity_at_mirrored_arguments(self, a1, c1, s):
        # (x)_s (x+s)_{-s} = 1: moving each entry into the opposite-sign
        # slot at the shifted argument inverts the ratio
        su = s * min(a1, c1)
        fwd = _SpecLike(a=(a1,), c=(c1,))
        mirror = _SpecLike(b=(a1 + su,), d=(c1 + su,))
        prod = specfun.pochhammer_ratio(fwd, su) * specfun.pochhammer_ratio(mirror, su)
        assert prod == pytest.approx(1.0, rel=1e-11)


def _mpf_highprec_series(a, b, c, x, digits):
    """The fixed-precision 1F2 summation in mpmath.mpf arithmetic: the
    reference that specfun._f2_highprec_series must match bit for bit."""
    import mpmath

    with mpmath.workdps(digits):
        aa, bb, cc, xx = (mpmath.mpf(v) for v in (a, b, c, x))
        term = mpmath.mpf(1)
        total = mpmath.mpf(1)
        max_term = mpmath.mpf(1)
        n = 0
        for n in range(1, 6000):
            term = term * ((aa + (n - 1)) * xx) / ((bb + (n - 1)) * (cc + (n - 1)) * n)
            at = abs(term)
            if at > max_term:
                max_term = at
            total += term
            if at < 1e-8 * mpmath.mpf(10) ** (-digits) * (abs(total) + max_term):
                break
        bound = float(max_term) * 10.0 ** (2 - digits) * max(1.0, 0.05 * n)
        return float(total), bound


class TestHyp1F2:
    def test_at_zero_exact(self):
        assert specfun.hyp1f2(0.7, 1.3, 2.9, 0.0) == 1.0

    def test_frozen_value(self):
        assert specfun.hyp1f2(1.0, 2.0, 1.5, -4.0) == pytest.approx(F2_1_2_15_M4, abs=1e-12)

    def test_reduction_to_bessel(self):
        # equal upper/lower parameters cancel; what is left is the
        # normalized Bessel series
        for alpha, z in ((0.3, 2.0), (1.5, 5.0), (2.0, 11.0)):
            lhs = specfun.hyp1f2(0.9, 0.9, alpha + 1.0, -z * z / 4.0)
            rhs = specfun.bessel_j_normalized(alpha, z)
            assert lhs == pytest.approx(rhs, abs=5e-11)

    # x straddles both route switches (the double series stops at |x| = 110,
    # the large-x expansion starts at 160); 80 digits is the precision
    # boundary_f_ab escalates to
    @pytest.mark.parametrize("x, digits", [
        pytest.param(x, 50, id=str(x))
        for x in (-30.0, -109.9, -110.1, -130.0, -159.9, -160.1, -400.0, -2500.0)
    ] + [pytest.param(-130.0, 80, id="-130.0-hp80")])
    def test_cancellation_and_asymptotic_paths(self, x, digits):
        policy = PrecisionPolicy(highprec_digits=digits)
        for (a, b, c) in ((1.5, 3.0, 2.0), (0.8, 1.2, 2.6), (2.5, 5.5, 3.0)):
            v, bound = specfun.hyp1f2_with_bound(a, b, c, x, policy)
            want = oracles.series_hyp1f2(a, b, c, x)
            assert abs(v - want) <= max(bound, 1e-15 * abs(want))

    # (a, b, c, x, highprec_digits) -> exact (value, bound) bits; any change
    # to the order or precision of the arithmetic on these routes shows here
    FROZEN_BITS = [
        # 50-digit series
        ((1.3, 2.0, 2.4, -130.0, 50), "0x1.a18cd0538aa34p-9", "0x1.141a46e1f0c27p-138"),
        ((0.8, 1.2, 2.6, -109.9, 50), "0x1.d9eeabfc3da5fp-7", "0x1.c4860ca5d4148p-141"),
        ((0.5, 3.0, 8.0, -200.0, 50), "0x1.1e55692452919p-2", "0x1.78e3448421455p-148"),
        # 80-digit series
        ((1.5, 3.0, 2.0, -130.0, 80), "0x1.8f951e8994f00p-10", "0x1.037085661650fp-238"),
        # large-x expansion
        ((1.3, 2.0, 2.4, -2.0e4, 50), "0x1.4ddd01cadf96cp-20", "0x1.36b62a8c5d57ap-63"),
        ((1.0, 1.0, 3.5, -180.0, 50), "-0x1.8c1e235795593p-11", "0x1.1ebeb5d7283cap-55"),
        ((2.5, 5.5, 3.0, -160.1, 50), "0x1.5cb8d425b62c6p-14", "0x1.9acd0075faa4cp-48"),
    ]

    @pytest.mark.parametrize("args, value, bound", FROZEN_BITS)
    def test_frozen_bits(self, args, value, bound):
        *abcx, digits = args
        got = specfun.hyp1f2_with_bound(*abcx, PrecisionPolicy(highprec_digits=digits))
        assert got == (float.fromhex(value), float.fromhex(bound))

    @given(a=st.floats(0.05, 6.0), b=st.floats(0.1, 10.0), c=st.floats(0.1, 10.0),
           x=st.floats(-300.0, -1.0), digits=st.sampled_from([15, 50, 80]))
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_highprec_series_matches_mpf_formulation(self, a, b, c, x, digits):
        # bit equality with the same summation written in mpf arithmetic;
        # at 15 digits the cancellation exposes any change of operation order
        got = specfun._f2_highprec_series(a, b, c, x, digits)
        assert got == _mpf_highprec_series(a, b, c, x, digits)

    def test_alg_series_coefficient_overflow(self):
        # the cached residue coefficients end where Gamma(a+k) overflows; the
        # series still returns when its terms start growing before that k
        got = specfun._f2_alg_series(158.0, 158.5, 158.5, 64.0)
        assert got == (float.fromhex("0x1.a4cfe6d9a5cd1p+903"),
                       float.fromhex("0x1.da0e2290e9fdbp+905"))
        with pytest.raises(OverflowError):
            specfun._f2_alg_series(158.0, 1.5, 2.5, 64.0)
        # the array form of the expansion raises where the scalar one does
        # ((158, 150, 150) runs past the coefficients in both series forms)
        for abc in ((158.0, 1.5, 2.5), (158.0, 150.0, 150.0)):
            with pytest.raises(OverflowError):
                specfun._f2_asymptotic(*abc, 64.0)
            with pytest.raises(OverflowError):
                specfun._f2_asymptotic(*abc, np.array([64.0, 400.0]))

    # numpy's power rounds differently from libm's on a few percent of
    # arguments, so the array form is held to a share of the scalar bound
    # (measured worst 0.026), not to bit equality
    @given(a=st.floats(0.3, 4.0), b=st.floats(0.3, 4.0), c=st.floats(0.3, 4.0),
           logx=st.lists(st.floats(math.log10(160.0), 8.0), min_size=1, max_size=48),
           column=st.booleans())
    @settings(max_examples=80, deadline=None, derandomize=True)
    def test_asymptotic_array_matches_scalar(self, a, b, c, logx, column):
        x = 10.0 ** np.array(logx)
        if column:
            x = x.reshape(-1, 1)
        values, bounds = specfun._f2_asymptotic(a, b, c, x)
        assert values.shape == bounds.shape == x.shape
        for xi, v, bound in zip(x.ravel().tolist(), values.ravel().tolist(),
                                bounds.ravel().tolist()):
            want, want_bound = specfun._f2_asymptotic(a, b, c, xi)
            assert abs(v - want) <= 0.05 * want_bound
            assert abs(bound - want_bound) <= 1e-12 * want_bound

    # every route switch of hyp1f2_with_bound: the double series stops at
    # |x| = 110 and the large-x expansion starts at 160
    @given(a=st.floats(0.3, 4.0), b=st.floats(0.3, 4.0), c=st.floats(0.3, 4.0),
           edge=st.sampled_from([110.0, 160.0]), eps=st.floats(-0.02, 0.02))
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_bound_contains_error_across_route_switches(self, a, b, c, edge, eps):
        for x in (-edge, -math.nextafter(edge, 0.0), -edge * (1.0 + eps)):
            v, bound = specfun.hyp1f2_with_bound(a, b, c, x)
            want = oracles.series_hyp1f2(a, b, c, x)
            assert abs(v - want) <= max(bound, 1e-15 * abs(want)), x

    def test_asymptotic_evaluated_once_before_highprec(self, monkeypatch):
        # at this point the large-x bound misses the target, so the 50-digit
        # series runs; the expansion's result is reused, not recomputed
        calls = {"asym": 0, "hp": 0}

        def counting(key, fn):
            def wrapped(*args):
                calls[key] += 1
                return fn(*args)
            return wrapped

        monkeypatch.setattr(specfun, "_f2_asymptotic",
                            counting("asym", specfun._f2_asymptotic))
        monkeypatch.setattr(specfun, "_f2_highprec_series",
                            counting("hp", specfun._f2_highprec_series))
        specfun.hyp1f2_with_bound(0.5, 3.0, 8.0, -200.0)
        assert calls == {"asym": 1, "hp": 1}

    # the large-x expansion needs a, b, c > 0 (its prefactor takes
    # log Gamma of each); other parameters take the 50-digit series
    @pytest.mark.parametrize("a, b, c, x", [
        (1.0, -0.5, 2.0, -200.0), (-0.5, 1.5, 2.0, -200.0), (1.0, 2.0, -1.5, -300.0)])
    def test_nonpositive_parameters_at_large_x(self, a, b, c, x):
        import mpmath as mp

        v, bound = specfun.hyp1f2_with_bound(a, b, c, x)
        with mp.workdps(30):
            want = float(mp.hyp1f2(a, b, c, x))
        assert abs(v - want) <= max(bound, 1e-15 * abs(want))
        assert specfun.hyp1f2(a, b, c, x) == v

    def test_large_x_coefficients_cached_once(self):
        specfun._f2_alg_coeffs.cache_clear()
        specfun._f2_osc_coeffs.cache_clear()
        specfun.hyp1f2_with_bound(1.3, 2.0, 2.4, -400.0)
        assert specfun._f2_alg_coeffs.cache_info().currsize == 1
        assert specfun._f2_osc_coeffs.cache_info().currsize == 1

    def test_pole_rejected(self):
        with pytest.raises(ValueError):
            specfun.hyp1f2(1.0, -2.0, 1.5, -4.0)

    def test_accuracy_error_carries_bound(self):
        # a hopeless target: e^{2 sqrt(2500)} cancellation swamps every path
        # at a 1e-30 absolute goal
        tiny = PrecisionPolicy(target_abs_tol=1e-30, target_rel_tol=1e-30)
        with pytest.raises(AccuracyError) as exc:
            specfun.hyp1f2(1.5, 3.0, 2.0, -2500.0, policy=tiny)
        assert exc.value.achieved_bound > 1e-30


def test_ln_gamma_complex_on_line():
    import mpmath as mp

    with mp.workdps(30):
        for re in (0.7, 2.5):
            for im in (0.0, 3.0, 40.0):
                got = specfun.ln_gamma_complex(complex(re, im))
                want = complex(mp.loggamma(complex(re, im)))
                assert abs(got - want) <= 1e-12 * max(1.0, abs(want))
