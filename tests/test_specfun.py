import math
import random

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from besselprob import _kernels_py
from besselprob import backend, specfun
from besselprob import gammatype as gt
from besselprob.gammatype import GammaRatioSpec
from besselprob.errors import AccuracyError

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
        for alpha in (-0.4, 0.0, 0.9, 1.7, 2.3, 3.2, 4.0):
            cross = kern.j_crossover(alpha)
            for z in (cross * 0.9, cross, cross * 1.1):
                s = kern._bessel_j_series_bound(alpha, z)[0]
                a = kern.bessel_j_asymptotic(alpha, z)
                assert abs(s - a) <= 10.0 * specfun._TARGET_ABS


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


def _past_series_bound(alpha: float, z: float) -> bool:
    """Whether `bessel_j`'s series bound exceeds `_SERIES_BOUND_MAX`, so
    that it takes the fixed-point sum below j_crossover."""
    return _kernels_py._bessel_j_series_bound(alpha, z)[1] > _kernels_py._SERIES_BOUND_MAX


@st.composite
def _order_and_arguments(draw):
    """An order and a list of z >= 0 that straddles each route switch of
    `bessel_j` at that order: the half-integer closed forms (k = -1..6, safe
    from z = 2k + 2 for k >= 1), the Hankel expansion from `j_crossover`
    (14, or alpha^2/4 + 2 above alpha = 6.93), and for alpha >= 8 the
    series bound's hand-over to the fixed-point sum."""
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
        switches += [_fixed_point_handover(alpha), 0.95 * cross]
    z = draw(st.lists(st.floats(1e-3, 1.5 * cross), min_size=1, max_size=16))
    for edge in switches:
        eps = draw(st.floats(1e-12, 0.05))
        z += [edge, math.nextafter(edge, 0.0), edge * (1.0 - eps), edge * (1.0 + eps)]
    if alpha >= 0.0 and draw(st.booleans()):
        z.append(0.0)
    return alpha, draw(st.permutations(z))


class TestBackend:
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


class TestKernelErrorBounds:
    @pytest.mark.parametrize("alpha", [0.0, 0.3, 1.5, 2.37, 7.3, 20.0, 55.0])
    def test_hankel_terms(self, alpha):
        # P and Q rebuilt from the terms give `bessel_j_asymptotic` bit for
        # bit, and the truncated expansion is within sqrt(2/(pi z)) rest of
        # J (DLMF 10.17(iii)), up to the rounding of the sums
        import mpmath as mp

        cross = _kernels_py.j_crossover(alpha)
        for z in (cross, 1.07 * cross + 0.3, 2.0 * cross):
            terms, rest = _kernels_py.hankel_terms(alpha, z)
            p, q = 1.0, 0.0
            for k, t in enumerate(terms[1:], start=1):
                if k % 2 == 0:
                    p = p + t if k % 4 == 0 else p - t
                else:
                    q = q + t if k % 4 == 1 else q - t
            w = z - alpha * math.pi / 2.0 - math.pi / 4.0
            rebuilt = math.sqrt(2.0 / (math.pi * z)) * (p * math.cos(w) - q * math.sin(w))
            assert rebuilt.hex() == _kernels_py.bessel_j_asymptotic(alpha, z).hex()
            with mp.workdps(40):
                w = mp.mpf(z) - (mp.mpf(alpha) / 2 + mp.mpf(1) / 4) * mp.pi
                amp = mp.sqrt(2 / (mp.pi * z))
                got = amp * (p * mp.cos(w) - q * mp.sin(w))
                err = abs(got - oracles.mp_bessel_j(alpha, z))
                assert err <= amp * (rest + 4e-16 * sum(abs(t) for t in terms)), (z, err)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(_order_and_arguments())
    # below J's fall through 1 at negative orders |J| reaches 58 here, so
    # a floor of 8 eps alone does not bound the prefactor's rounding
    @example(case=(-0.9512, [1.19e-3]))
    @example(case=(-0.5, [1e-3, 0.5, 2.0]))
    # the series' error passed the 8 eps floor here (by 6 % and 36 %): its
    # prefactor carries the rounding of its exponent
    @example(case=(6.281773960582224, [6.75]))
    @example(case=(5.818473349083686, [7.028892517722505]))
    def test_bound_across_route_switches(self, case):
        alpha, z = case
        for v in z:
            if v > 0.0:
                err = abs(_kernels_py.bessel_j(alpha, v) - float(oracles.mp_bessel_j(alpha, v)))
                assert err <= _kernels_py.bessel_j_error_bound(alpha, v), (v, err)

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.5, 2.5907, 4.188, 7.9, 12.0])
    def test_bessel_j_error_bound(self, alpha):
        top = 1.2 * _kernels_py.j_crossover(alpha)
        for z in np.linspace(top / 60, top, 60).tolist():
            err = abs(_kernels_py.bessel_j(alpha, z) - float(oracles.mp_bessel_j(alpha, z)))
            assert err <= _kernels_py.bessel_j_error_bound(alpha, z), (z, err)


@pytest.mark.parametrize("name", ["bessel_j", "bessel_j_normalized", "bessel_j_prime"])
@pytest.mark.parametrize("alpha", [0.3, 0.5, 2.0])
@pytest.mark.parametrize("z", [math.inf, math.nan])
def test_non_finite_z_raises_domain_error(name, alpha, z):
    f = getattr(_kernels_py, name)
    with pytest.raises(ValueError, match=r"requires finite z >= 0"):
        f(alpha, z)


def test_bessel_j_prime_at_zero():
    # J_0'(0) = -J_1(0) = 0 and J_1'(0) = (J_0(0) - J_2(0)) / 2 = 1/2;
    # J_alpha'(z) ~ z^(alpha-1) is singular at 0 for the other orders in (-1, 1)
    assert _kernels_py.bessel_j_prime(0.0, 0.0) == 0.0
    assert _kernels_py.bessel_j_prime(1.0, 0.0) == 0.5
    assert _kernels_py.bessel_j_prime(2.5, 0.0) == 0.0
    for alpha in (-0.5, 0.3, 0.99):
        with pytest.raises(ZeroDivisionError, match=r"J_alpha'\(0\) is singular"):
            _kernels_py.bessel_j_prime(alpha, 0.0)
    for alpha in (-1.0, math.nan):
        with pytest.raises(ValueError, match=r"bessel_j_prime requires alpha > -1"):
            _kernels_py.bessel_j_prime(alpha, 0.0)


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


def _fixed_point_handover(alpha: float) -> float:
    """The z where the series bound first exceeds `_SERIES_BOUND_MAX`
    (bisected below 0.95 j_crossover); `bessel_j` takes the fixed-point
    sum past it."""
    lo, hi = 1.0, 0.95 * _kernels_py.j_crossover(alpha)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if _past_series_bound(alpha, mid):
            hi = mid
        else:
            lo = mid
    return hi


@st.composite
def _fallback_point(draw):
    """An order in [7.5, 60] and a z below j_crossover whose series bound
    exceeds `_SERIES_BOUND_MAX`, so `bessel_j` takes the fixed-point sum."""
    alpha = draw(st.floats(7.5, 60.0))
    lo, hi = _fixed_point_handover(alpha), _kernels_py.j_crossover(alpha)
    z = lo + draw(st.floats(0.0, 1.0, exclude_max=True)) * (hi - lo)
    assume(z < hi and _past_series_bound(alpha, z))
    return alpha, z


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_fallback_point())
@example((150.3, 3000.0))
@example((175.0, 7600.0))   # the series prefactor overflows here
def test_bessel_j_fixed_point_window(point):
    alpha, z = point
    want = oracles.mp_bessel_j(alpha, z)
    assert abs(backend.bessel_j(alpha, z) - want) <= 1e-15 * abs(want)


def test_bessel_j_prefactor_past_double_range():
    # from alpha = 175 the series prefactor (z/2)^alpha / Gamma(alpha+1)
    # overflows just below j_crossover; the fixed-point sum takes the point
    assert _kernels_py._bessel_j_series_bound(180.3, 8000.0)[1] == math.inf
    got = backend.bessel_j(180.3, 8000.0)
    assert got == pytest.approx(oracles.mp_bessel_j(180.3, 8000.0), rel=1e-15)  # -0.00581209...


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

    def test_count_must_be_an_integer(self):
        with pytest.raises(TypeError):
            specfun.bessel_zeros(1.0, 2.5)
        assert specfun.bessel_zeros(1.0, np.int64(3)) == specfun.bessel_zeros(1.0, 3)

    @pytest.mark.parametrize("alpha", [-0.4, 0.0, 1.0, 3.0, 5.5])
    def test_request_order_changes_no_zero(self, alpha):
        # every table is a prefix of any longer one, however the cache
        # was filled: ascending, descending and shuffled requests agree
        counts = [1, 2, 3, 7, 8, 49, 64, 100, 128, 200, 256, 300]
        shuffled = list(counts)
        random.Random(5).shuffle(shuffled)
        seen = []
        for order in (counts, counts[::-1], shuffled):
            specfun.bessel_zeros.cache_clear()
            seen.append({n: specfun.bessel_zeros(alpha, n).zeros for n in order})
        assert seen[1] == seen[0] and seen[2] == seen[0]
        assert all(seen[0][n] == seen[0][300][:n] for n in counts)

    @pytest.mark.parametrize("alpha", [-0.4, 0.0, 1.0, 3.0, 5.5])
    def test_growth_walks_past_the_last_cell_only(self, alpha, monkeypatch):
        # growing 128 -> 256 zeros evaluates J only from the grid point
        # that closed the 128th zero's cell on, and costs what a cold
        # 256-zero walk spends past a cold 128-zero one
        xs = []
        inner = backend.bessel_j

        def counted(a, x):
            xs.append(x)
            return inner(a, x)

        monkeypatch.setattr(backend, "bessel_j", counted)
        cold = {}
        for n in (128, 256):
            specfun.bessel_zeros.cache_clear()
            xs.clear()
            specfun.bessel_zeros(alpha, n)
            cold[n] = len(xs)
        # a cleared cache walks from the first cell
        lo = math.sqrt(alpha * (alpha + 2.0)) if alpha > 0.0 else 0.0
        assert xs[0] == lo + specfun._ZERO_STEP
        specfun.bessel_zeros.cache_clear()
        j128 = specfun.bessel_zeros(alpha, 128)[127]
        xs.clear()
        specfun.bessel_zeros(alpha, 256)
        assert len(xs) == cold[256] - cold[128]
        assert min(xs) > j128
        # and no point is evaluated twice across the doublings of a cold walk
        specfun.bessel_zeros.cache_clear()
        xs.clear()
        specfun.bessel_zeros(alpha, 256)
        assert len(set(xs)) == len(xs)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.37])
    def test_scalar_calls_per_zero(self, alpha, monkeypatch):
        # a Newton step that has converged is accepted, not bisected away
        calls = [0]
        inner = backend.bessel_j

        def counted(a, z):
            calls[0] += 1
            return inner(a, z)

        monkeypatch.setattr(backend, "bessel_j", counted)
        specfun.bessel_zeros.cache_clear()
        specfun.bessel_zeros(alpha, 49)
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
        specfun.bessel_zeros.cache_clear()
        for k, z in enumerate(specfun.bessel_zeros(alpha, 49).zeros, start=1):
            err = float(abs(z - oracles.bessel_j_zero(alpha, k, z)))
            assert err <= 1e-12 * z, (alpha, k, z)
            if z >= crossover:
                assert err <= 64 * math.ulp(z), (alpha, k, z)
            if z >= crossover + 1.0:
                assert err <= 16 * math.ulp(z), (alpha, k, z)

    @pytest.mark.parametrize("alpha", [53.0, 55.0, 60.0, 90.0, 150.0])
    def test_large_order_zeros_against_mpmath(self, alpha):
        # McMahon's guess at n = 1 lies past j_1 from alpha ~ 53 on; the grid
        # walk from sqrt(alpha (alpha + 2)) < j_1 must not skip it
        specfun.bessel_zeros.cache_clear()
        zeros = specfun.bessel_zeros(alpha, 16).zeros
        for k, z in enumerate(zeros, start=1):
            ref = oracles.bessel_j_zero(alpha, k, z)
            assert float(abs(z - ref)) <= 1e-12 * z, (alpha, k, z, float(ref))

    def test_grid_point_at_an_exact_zero(self, monkeypatch):
        # a grid value of exactly 0.0 is a zero: it is returned once, and
        # the walk goes on to the next sign changes and ends
        lo = math.sqrt(0.5 * 2.5)
        g = lo + specfun._ZERO_STEP
        calls = [0]

        def fake_j(a, x):
            calls[0] += 1
            assert calls[0] < 1000, "the zero walk does not end"
            return 0.0 if x == g else math.sin(math.pi * x / g)

        monkeypatch.setattr(backend, "bessel_j", fake_j)
        monkeypatch.setattr(backend, "bessel_j_prime",
                            lambda a, x: math.pi / g * math.cos(math.pi * x / g))
        specfun.bessel_zeros.cache_clear()
        try:
            zeros = specfun.bessel_zeros(0.5, 3).zeros
        finally:
            specfun.bessel_zeros.cache_clear()   # the fake zeros must not outlive the test
        assert zeros[0] == g
        assert zeros[1:] == pytest.approx([2.0 * g, 3.0 * g], rel=1e-14)

    @pytest.mark.parametrize("ulps", [0, 1])
    def test_zero_within_an_ulp_of_a_grid_point(self, ulps, monkeypatch):
        # J = sin(pi x / g), g = x_1 + ulps ulps: sin(pi) > 0 at x = x_1, so
        # j_1 is found in the second cell but refined to an ulp below x_1
        # (ulps = 0) or to x_1 + ulp.  The walk resumed past j_1 neither
        # skips a zero nor finds j_1 again.
        g = specfun._ZERO_STEP     # x_1 at alpha = 0
        for _ in range(ulps):
            g = math.nextafter(g, math.inf)
        monkeypatch.setattr(backend, "bessel_j", lambda a, x: math.sin(math.pi * x / g))
        monkeypatch.setattr(backend, "bessel_j_prime",
                            lambda a, x: math.pi / g * math.cos(math.pi * x / g))
        specfun.bessel_zeros.cache_clear()
        try:
            j1 = specfun.bessel_zeros(0.0, 1)[0]
            zeros = specfun.bessel_zeros(0.0, 4).zeros
        finally:
            specfun.bessel_zeros.cache_clear()   # the fake zeros must not outlive the test
        assert abs(j1 - g) <= math.ulp(g)
        assert zeros == pytest.approx([g, 2.0 * g, 3.0 * g, 4.0 * g], rel=1e-14)

    def test_zero_table_validation(self):
        with pytest.raises(ValueError):
            specfun.ZeroTable(alpha=0.0, zeros=(2.0, 1.0))
        with pytest.raises(ValueError):
            specfun.ZeroTable(alpha=0.0, zeros=(-1.0, 2.0))
        with pytest.raises(ValueError):
            specfun.ZeroTable(alpha=0.0, zeros=(math.nan,))
        with pytest.raises(ValueError):
            specfun.ZeroTable(alpha=0.0, zeros=(2.4, math.inf))


class TestPochhammer:
    def test_at_zero(self):
        sp = GammaRatioSpec(a=(2.0, 3.2, 3.4), c=(2.2, 2.4, 4.0))
        assert gt.mellin(sp, 0.0) == pytest.approx(1.0, abs=1e-15)

    def test_simple_ratio(self):
        sp = GammaRatioSpec(a=(1.0,), c=(2.0,))
        assert gt.mellin(sp, 1.0) == pytest.approx(0.5, rel=1e-13)

    def test_counterexample_limit_ratio(self):
        # Gamma(c) products over Gamma(a) products for the bounded-support
        # counterexample sets: 150/132
        num = sum(specfun.ln_gamma(v) for v in (2.2, 2.4, 4.0))
        den = sum(specfun.ln_gamma(v) for v in (2.0, 3.2, 3.4))
        assert math.exp(num - den) == pytest.approx(150.0 / 132.0, rel=1e-13)

    def test_strip_enforced(self):
        sp = GammaRatioSpec(a=(1.0,), b=(2.0,))
        with pytest.raises(ValueError):
            gt.mellin(sp, 2.5)
        with pytest.raises(ValueError):
            gt.mellin(sp, -1.0)

    @given(a1=st.floats(0.2, 5.0), c1=st.floats(0.2, 5.0),
           s=st.floats(0.05, 0.95))
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_reciprocity_at_mirrored_arguments(self, a1, c1, s):
        # (x)_s (x+s)_{-s} = 1: moving each entry into the opposite-sign
        # slot at the shifted argument inverts the ratio
        su = s * min(a1, c1)
        fwd = GammaRatioSpec(a=(a1,), c=(c1,))
        mirror = GammaRatioSpec(b=(a1 + su,), d=(c1 + su,))
        prod = gt.mellin(fwd, su) * gt.mellin(mirror, su)
        assert prod == pytest.approx(1.0, rel=1e-11)


# b and c of 1F2 at least 1e-3 from its poles 0, -1, -2, ...
_OFF_POLES = st.floats(-3.0, 6.0).filter(lambda v: v >= 1e-3 or abs(v - round(v)) >= 1e-3)


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
    # the large-x expansion starts at 160)
    @pytest.mark.parametrize("x", [-30.0, -109.9, -110.1, -130.0, -159.9, -160.1, -400.0,
                                   -2500.0], ids=str)
    def test_cancellation_and_asymptotic_paths(self, x):
        for (a, b, c) in ((1.5, 3.0, 2.0), (0.8, 1.2, 2.6), (2.5, 5.5, 3.0)):
            v, bound = specfun.hyp1f2_with_bound(a, b, c, x)
            want = oracles.series_hyp1f2(a, b, c, x)
            assert abs(v - want) <= max(bound, 1e-15 * abs(want))

    # (a, b, c, x) -> exact (value, bound) bits; any change to the order or
    # precision of the arithmetic on these routes shows here
    FROZEN_BITS = [
        # fixed-point series
        ((1.3, 2.0, 2.4, -130.0), "0x1.a18cd0538aa34p-9", "0x1.0000000000004p-62"),
        ((0.8, 1.2, 2.6, -109.9), "0x1.d9eeabfc3da5fp-7", "0x1.0000000000004p-60"),
        ((0.5, 3.0, 8.0, -200.0), "0x1.1e55692452919p-2", "0x1.0000000000004p-55"),
        ((1.5, 3.0, 2.0, -130.0), "0x1.8f951e8994f00p-10", "0x1.0000000000004p-63"),
        # large-x expansion (bounds include the phase rounding term)
        ((1.3, 2.0, 2.4, -2.0e4), "0x1.4ddd01cadf96ap-20", "0x1.bfcdcd1e49642p-62"),
        ((1.0, 1.0, 3.5, -180.0), "-0x1.8c1e235795593p-11", "0x1.653d318f8a3fep-55"),
        ((2.5, 5.5, 3.0, -160.1), "0x1.5cb8d425b62c6p-14", "0x1.9ad256169a488p-48"),
    ]

    @pytest.mark.parametrize("args, value, bound", FROZEN_BITS)
    def test_frozen_bits(self, args, value, bound):
        got = specfun.hyp1f2_with_bound(*args)
        assert got == (float.fromhex(value), float.fromhex(bound))

    # the fixed-point sum keeps 50 digits below 1 past the largest rise of
    # its terms, so its double is the correctly rounded one, and the bound
    # holds that error plus the final rounding; parameters of either sign,
    # off the poles of b and c.
    # The bound is half an ulp of the value plus at most ~6,000 * 2^-182:
    # wherever the series returns, it meets the accuracy target, which is
    # why no precision beyond 50 digits is ever needed.  At a = 1e-50 the
    # terms rise ~2^290 from the first one, which is far below 1; a
    # precision set by the peak term alone left a bound of 1e-7 there
    @given(a=st.floats(-3.0, 6.0), b=_OFF_POLES, c=_OFF_POLES, x=st.floats(-2000.0, -1.0))
    @settings(max_examples=60, deadline=None, derandomize=True)
    @example(a=1.3, b=2.0, c=2.4, x=-130.0)
    @example(a=-2.0, b=-0.5, c=2.5, x=-300.0)
    @example(a=2.64, b=1.55, c=0.76, x=-1.45e6)
    @example(a=1e-50, b=1.0, c=-2.0625, x=-1e4)
    def test_highprec_series_against_exact_sum(self, a, b, c, x):
        v, bound = specfun._f2_highprec_series(a, b, c, x)
        assert bound <= 0.5 * math.ulp(v) * (1.0 + 2.0 ** -40) + 1e-40
        assert v == oracles.series_hyp1f2(a, b, c, x)
        assert oracles.series_hyp1f2_abs_error(v, a, b, c, x) <= bound

    # the large-x bound misses the target at x = -1.45e6 (its phase term),
    # where the series takes about 4,400 terms; at x = -4e6 it would need
    # more than _F2_HP_TERMS and declines instead of summing them
    def test_highprec_series_term_cap(self):
        abc = (2.64, 1.55, 0.76)
        assert specfun.hyp1f2(*abc, -1.45e6) == oracles.mp_hyp1f2(*abc, -1.45e6)
        v, bound = specfun._f2_highprec_series(*abc, -4e6)
        assert math.isnan(v) and bound == math.inf

    def test_alg_series_coefficient_overflow(self):
        # the cached residue coefficients end where Gamma(a+k) overflows; the
        # series still returns when its terms start growing before that k
        got = specfun._f2_alg_series(158.0, 158.5, 158.5, np.array([64.0]))
        assert (got[0].tolist(), got[1].tolist()) == (
            [float.fromhex("0x1.a4cfe6d9a5cd1p+903")], [float.fromhex("0x1.da0e2290e9fdbp+905")])
        # these coefficients are infinite; the nan sums they give keep
        # summing until the coefficients run out
        with np.errstate(invalid="ignore"), pytest.raises(OverflowError):
            specfun._f2_alg_series(158.0, 1.5, 2.5, np.array([64.0]))
        # (158, 150, 150) has 14 finite coefficients and runs past them
        for abc in ((158.0, 1.5, 2.5), (158.0, 150.0, 150.0)):
            with pytest.raises(OverflowError):
                specfun._f2_asymptotic(*abc, 64.0)
            with pytest.raises(OverflowError):
                specfun._f2_asymptotic(*abc, np.array([64.0, 400.0]))

    # the expansion leaves the double range at these parameters (infinite
    # residue coefficients), so the value is the 50-digit series'; at
    # a = 100 that series is accurate to 2e-17
    @pytest.mark.parametrize("a", [100.0, 158.0])
    def test_expansion_out_of_range_takes_highprec(self, a):
        with pytest.raises(OverflowError):
            specfun._f2_asymptotic(a, 1.5, 2.5, 200.0)
        got = specfun.hyp1f2_with_bound(a, 1.5, 2.5, -200.0)
        assert got == specfun._f2_highprec_series(a, 1.5, 2.5, -200.0)

    # a float x is the one-element array: same bits; an array keeps its shape
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
            got = specfun._f2_asymptotic(a, b, c, xi)
            assert type(got[0]) is type(got[1]) is float
            assert got == (v, bound)
        xi = float(x.ravel()[0])
        want = oracles.mp_hyp1f2(a, b, c, -xi)
        assert abs(values.ravel()[0] - want) <= bounds.ravel()[0]

    # an array x gives each element the float call's bits, on every route:
    # x = 0, x > 0, the bands (-110, 0), [-160, -110] and <= -160, a point
    # whose expansion bound misses the target (0.5, 3, 8 at 200),
    # parameters the expansion does not take (b < 0), and a chunk on which
    # the expansion overflows (a = 100)
    @given(a=st.floats(0.3, 4.0), b=st.floats(0.3, 4.0), c=st.floats(0.3, 4.0),
           xs=st.lists(st.one_of(st.just(0.0), st.floats(0.0, 50.0),
                                 st.floats(-110.0, 0.0, exclude_max=True),
                                 st.floats(-160.0, -110.0), st.floats(-1e6, -160.0)),
                       min_size=1, max_size=24))
    @settings(max_examples=60, deadline=None, derandomize=True)
    @example(a=0.5, b=3.0, c=8.0, xs=[-200.0, -5e5, 0.0, -120.0, 3.0])
    @example(a=1.0, b=-0.5, c=2.0, xs=[-200.0, -300.0, -50.0])
    @example(a=100.0, b=1.5, c=2.5, xs=[-200.0, -400.0, -130.0, 3.0])
    def test_array_matches_float_calls(self, a, b, c, xs):
        values, bounds = specfun.hyp1f2_screened(a, b, c, np.array(xs))
        assert values.shape == bounds.shape == (len(xs),)
        want = [specfun.hyp1f2_screened(a, b, c, x) for x in xs]
        assert [(v.hex(), bound.hex()) for v, bound in zip(values.tolist(), bounds.tolist())] \
            == [(v.hex(), bound.hex()) for v, bound in want]

    # the screen tries the expansion on the band [-160, -110] too, in the
    # same one call, and sums no fixed-point series where it shows the
    # value positive (1.3, 2.0, 2.4 at -130)
    def test_screened_array_takes_one_expansion_call(self, monkeypatch):
        calls, fixed_point = [], []
        asym, hp = specfun._f2_asymptotic, specfun._f2_highprec_series
        monkeypatch.setattr(specfun, "_f2_asymptotic",
                            lambda *args: calls.append(args[3]) or asym(*args))
        monkeypatch.setattr(specfun, "_f2_highprec_series",
                            lambda *args: fixed_point.append(args[3]) or hp(*args))
        values, bounds = specfun.hyp1f2_screened(
            1.3, 2.0, 2.4, np.array([-50.0, -200.0, -130.0, -2.0e4]))
        assert len(calls) == 1 and calls[0].tolist() == [200.0, 130.0, 2.0e4]
        assert fixed_point == [] and bounds[2] == math.inf and values[2] > 0.0

    # an element from x = -160 on whose expansion bound misses the target
    # (0.5, 3, 8 at -200) settles from the array call's pair and the
    # fixed-point series, with no second expansion call; -120 is screened
    def test_screened_array_settles_missed_points_from_its_call(self, monkeypatch):
        xs = [-200.0, -5e5, -120.0]
        want = [specfun.hyp1f2_screened(0.5, 3.0, 8.0, x) for x in xs]
        calls, fixed_point = [], []
        asym, hp = specfun._f2_asymptotic, specfun._f2_highprec_series
        monkeypatch.setattr(specfun, "_f2_asymptotic",
                            lambda *args: calls.append(args[3]) or asym(*args))
        monkeypatch.setattr(specfun, "_f2_highprec_series",
                            lambda *args: fixed_point.append(args[3]) or hp(*args))
        values, bounds = specfun.hyp1f2_screened(0.5, 3.0, 8.0, np.array(xs))
        assert len(calls) == 1 and calls[0].tolist() == [200.0, 5e5, 120.0]
        assert fixed_point == [-200.0]
        assert [(v.hex(), bound.hex()) for v, bound in zip(values.tolist(), bounds.tolist())] \
            == [(v.hex(), bound.hex()) for v, bound in want]

    # the screen on the ranges of the existence scan's parameters: a point
    # whose cheaper enclosure (the double series below |x| = 110, the
    # expansion from there) shows v > 8 bound where hyp1f2_with_bound sums
    # the fixed-point series returns (v, inf), and v is positive; every
    # other point is hyp1f2_with_bound's pair, bit for bit.  The examples
    # have bound < v <= 8 bound on either enclosure, so they are not
    # screened, and sit at both route switches.
    @given(a=st.floats(0.5, 4.0), b=st.floats(1.0, 9.0), c=st.floats(1.0, 9.0),
           x=st.floats(-160.0, -40.0, exclude_min=True))
    @settings(max_examples=120, deadline=None, derandomize=True)
    @example(a=3.356, b=2.446, c=5.653, x=-102.52621459960938)
    @example(a=1.472, b=8.097, c=1.485, x=-144.27)
    @example(a=3.992, b=8.651, c=4.711, x=-126.37)
    @example(a=2.0, b=5.0, c=6.0, x=-110.0)
    @example(a=2.0, b=5.0, c=6.0, x=-math.nextafter(160.0, 0.0))
    def test_screen_only_shown_positive_points(self, a, b, c, x):
        got = specfun.hyp1f2_screened(a, b, c, x)
        want = specfun.hyp1f2_with_bound(a, b, c, x)
        if x > -110.0:
            v, bound, _ = backend.hyp1f2_series(a, b, c, x)
            on_fixed_point = bound > max(1e-11, 1e-12 * abs(v))
        else:
            v, bound = specfun._f2_asymptotic(a, b, c, -x)
            on_fixed_point = True
        if on_fixed_point and v > 8.0 * bound:
            assert got == (v, math.inf)
            assert oracles.series_hyp1f2(a, b, c, x) > 0.0
        else:
            assert got == want

    def test_tail_profile_horizon(self):
        # the algebraic part dominates from the first candidate, x = 64, on;
        # where x^{-a} decays faster than the envelope there is no horizon
        assert specfun.f2_tail_profile(5.0, 8.0, 8.0).horizon == 64.0
        assert specfun.f2_tail_profile(2.0, 2.0, 2.4).horizon is None

    # the phase 2 sqrt(x) + nu pi/2 is rounded by ~2^-52 of itself before
    # cos and sin see it; past x ~ 7.5e4 that error outgrew the bound
    # without its phase term
    @given(a=st.floats(0.3, 4.0), b=st.floats(0.3, 4.0), c=st.floats(0.3, 4.0),
           logx=st.floats(math.log10(160.0), 8.0))
    @settings(max_examples=100, deadline=None, derandomize=True)
    @example(a=2.837, b=1.121, c=3.325, logx=math.log10(8.31e7))
    def test_large_x_bound_contains_error(self, a, b, c, logx):
        x = -(10.0 ** logx)
        v, bound = specfun.hyp1f2_with_bound(a, b, c, x)
        assert abs(v - oracles.mp_hyp1f2(a, b, c, x)) <= bound

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

    # at b = a, 1F2 is 0F1(; c; -x) = Gamma(c) x^{(1-c)/2} J_{c-1}(2 sqrt x),
    # whose Hankel expansion (DLMF 10.17.3) makes g_k = a_k(c-1) (i/2)^k
    # with a_k(nu) = prod_{j<=k} (4 nu^2 - (2j-1)^2) / (k! 8^k); compared
    # weighted by u^{-k} at u = sqrt(160), where the expansion takes over
    @pytest.mark.parametrize("a, c", [(0.5, 1.5), (1.3, 2.4), (2.0, 0.7), (3.7, 5.2),
                                      (0.9, 8.1)])
    def test_osc_coeffs_match_hankel_at_b_equal_a(self, a, c):
        g = specfun._f2_osc_coeffs(a, a, c)
        u = math.sqrt(160.0)
        scale = sum(abs(gk) * u ** -k for k, gk in enumerate(g))
        four_nu2 = 4.0 * (c - 1.0) ** 2
        ak = 1.0
        for k, gk in enumerate(g):
            if k:
                ak *= (four_nu2 - (2 * k - 1) ** 2) / (8.0 * k)
            assert abs(gk - ak * (0.5j) ** k) * u ** -k <= 1e-13 * scale, (k, gk, ak)

    def test_pole_rejected(self):
        with pytest.raises(ValueError):
            specfun.hyp1f2(1.0, -2.0, 1.5, -4.0)

    def test_accuracy_error_carries_bound(self):
        # past x ~ -2.7e6 the fixed-point series declines, and here the
        # large-x bound (its phase term) misses the target
        with pytest.raises(AccuracyError) as exc:
            specfun.hyp1f2(2.64, 1.55, 0.76, -4e6)
        assert exc.value.achieved_bound == pytest.approx(4.12e-10, rel=1e-3)


def test_ln_gamma_complex_on_line():
    import mpmath as mp

    with mp.workdps(30):
        for re in (0.7, 2.5):
            for im in (0.0, 3.0, 40.0):
                got = specfun.ln_gamma_complex(complex(re, im))
                want = complex(mp.loggamma(complex(re, im)))
                assert abs(got - want) <= 1e-12 * max(1.0, abs(want))
        # left of Re z = 1/2 (the reflection), out to |Im z| = 3000 where
        # pi / sin(pi z) leaves the double range; the imaginary part is
        # compared mod 2 pi
        for re in (-3.5, -0.6, 0.05, 0.35, 0.49):
            for im in (0.0, 0.5, -3.0, 40.0, 250.0, -700.0, 3000.0, -3000.0):
                z = complex(re, im)
                got = complex(specfun.ln_gamma_complex(z))
                want = complex(mp.loggamma(z))
                tol = 1e-12 * max(1.0, abs(want))
                assert abs(got.real - want.real) <= tol, z
                turn = (got.imag - want.imag + math.pi) % (2.0 * math.pi) - math.pi
                assert abs(turn) <= tol, z
