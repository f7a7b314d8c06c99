import dataclasses
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import besselprob
import oracles
from besselprob import quad, rng, specfun, vandantzig as vd

# frozen 50-digit values
SIN_1 = 0.84147098480789650665
TWO_I1_AT_1 = 1.1303182079849700544   # 2 I_1(1)
HALF_INV_I1_AT_1 = 0.88470661884029129286   # 1 / (2 I_1(1))


class TestPowerSemicircle:
    def test_constructor_guards(self):
        with pytest.raises(ValueError):
            vd.PowerSemicircle(-0.5)
        with pytest.raises(ValueError):
            vd.PowerSemicircle(-0.5 + 1e-10)
        vd.PowerSemicircle(-0.4999)

    @pytest.mark.parametrize("alpha,at_zero", [
        (0.5, 0.5),                    # uniform on (-1,1)
        (1.0, 2.0 / math.pi),          # semicircle
        (0.0, 1.0 / math.pi),          # arcsine
    ])
    def test_density_values(self, alpha, at_zero):
        m = vd.PowerSemicircle(alpha)
        assert vd.semicircle_density(m, 0.0) == pytest.approx(at_zero, rel=1e-13)
        assert vd.semicircle_density(m, 1.5) == 0.0
        assert vd.semicircle_density(m, -2.0) == 0.0

    @pytest.mark.parametrize("alpha", [-0.4, 0.0, 0.5, 1.0, 2.5])
    def test_density_normalized(self, alpha):
        # integrate the endpoint-stable product form of the same density
        m = vd.PowerSemicircle(alpha)
        c = math.exp(specfun.ln_gamma(alpha + 1.0)
                     - specfun.ln_gamma(alpha + 0.5)) / math.sqrt(math.pi)
        r = quad.tanh_sinh(lambda x, dlo, dhi: c * (dlo * dhi) ** (alpha - 0.5),
                           -1.0, 1.0, tol=1e-11)
        assert r.value == pytest.approx(1.0, abs=1e-10)


class TestCharacteristicFunctions:
    def test_uniform_closed_forms(self):
        m = vd.PowerSemicircle(0.5)
        for t in np.linspace(0.025, 50.0, 500):
            assert abs(vd.semicircle_cf(m, t) - math.sin(t) / t) <= 1e-12
            rel = abs(vd.semicircle_cf_imag_axis(m, t) - math.sinh(t) / t) \
                / (math.sinh(t) / t)
            assert rel <= 1e-12

    def test_cf_at_zero_and_evenness(self):
        for alpha in (-0.3, 0.0, 1.0, 2.5):
            m = vd.PowerSemicircle(alpha)
            assert vd.semicircle_cf(m, 0.0) == 1.0
            assert vd.semicircle_cf_imag_axis(m, 0.0) == 1.0
            for t in (0.3, 2.2, 17.0):
                assert vd.semicircle_cf(m, -t) == vd.semicircle_cf(m, t)
                assert vd.semicircle_cf_imag_axis(m, -t) == vd.semicircle_cf_imag_axis(m, t)
                assert vd.semicircle_cf_imag_axis(m, t) >= 1.0

    def test_cf_vanishes_at_first_zero(self):
        m = vd.PowerSemicircle(1.0)
        j11 = specfun.bessel_zeros(1.0, 1).zeros[0]
        assert abs(vd.semicircle_cf(m, j11)) <= 1e-11

    def test_imag_axis_overflow(self):
        m = vd.PowerSemicircle(0.0)
        with pytest.raises(OverflowError):
            vd.semicircle_cf_imag_axis(m, 800.0)

    def test_reciprocal_nonincreasing(self):
        m = vd.PowerSemicircle(1.0)
        ts = np.linspace(0.0, 20.0, 200)
        phi = [1.0 / vd.semicircle_cf_imag_axis(m, t) for t in ts]
        assert all(b <= a + 1e-15 for a, b in zip(phi, phi[1:]))


class TestHadamard:
    def test_uniform_at_one(self):
        m = vd.PowerSemicircle(0.5)
        assert vd.hadamard_cf(m, 1.0, 200, "real") == pytest.approx(SIN_1, abs=1e-8)

    def test_at_zero(self):
        for alpha in (0.0, 1.0):
            m = vd.PowerSemicircle(alpha)
            assert vd.hadamard_cf(m, 0.0, 50, "real") == 1.0
            assert vd.hadamard_cf(m, 0.0, 50, "imag") == 1.0

    def test_imag_axis_alpha_one(self):
        m = vd.PowerSemicircle(1.0)
        assert vd.hadamard_cf(m, 1.0, 200, "imag") \
            == pytest.approx(TWO_I1_AT_1, abs=1e-8)

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0, 3.0])
    def test_matches_closed_forms(self, alpha):
        m = vd.PowerSemicircle(alpha)
        for z in np.linspace(0.25, 10.0, 40):
            ref_r = vd.semicircle_cf(m, z)
            ref_i = vd.semicircle_cf_imag_axis(m, z)
            assert abs(vd.hadamard_cf(m, z, 200, "real") - ref_r) \
                <= 1e-8 * max(1.0, abs(ref_r))
            assert abs(vd.hadamard_cf(m, z, 200, "imag") - ref_i) \
                <= 1e-8 * max(1.0, abs(ref_i))

    def test_axis_validation(self):
        with pytest.raises(ValueError):
            vd.hadamard_cf(vd.PowerSemicircle(1.0), 1.0, 50, "complex")


class TestHittingTime:
    def test_lt_at_zero(self):
        m = vd.HittingTimeModel.build(1.0)
        assert vd.hitting_time_lt(m, 0.0) == 1.0

    def test_uniform_closed_form(self):
        m = vd.HittingTimeModel.build(0.5)
        for lam in np.geomspace(1e-6, 10.0, 120):
            s = math.sqrt(2.0 * lam)
            assert abs(vd.hitting_time_lt(m, lam) - s / math.sinh(s)) <= 1e-12

    def test_alpha_one_value(self):
        # (2 lam)^{1/2} / (2 Gamma(2) I_1(sqrt(2 lam))) at lam = 1/2; a
        # transform value must stay inside (0, 1]
        m = vd.HittingTimeModel.build(1.0)
        assert vd.hitting_time_lt(m, 0.5) == pytest.approx(HALF_INV_I1_AT_1, rel=1e-13)
        assert 0.0 < vd.hitting_time_lt(m, 0.5) <= 1.0

    def test_product_form_matches(self):
        for alpha in (0.0, 0.5, 1.0, 2.0, 3.0):
            m = vd.HittingTimeModel.build(alpha)
            for lam in np.linspace(0.0, 10.0, 41):
                assert abs(vd.hitting_time_lt_product(m, lam)
                           - vd.hitting_time_lt(m, lam)) <= 1e-12

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0, 3.0])
    def test_products_are_reciprocal(self, alpha):
        # cf(i sqrt(2 lam)) and E[exp(-lam T)] are one product over the
        # same 256 zeros, once in each direction
        m = vd.HittingTimeModel.build(alpha)
        for lam in np.linspace(0.0, 10.0, 41):
            prod = vd.hadamard_cf(vd.PowerSemicircle(alpha), math.sqrt(2.0 * lam), 256,
                                  "imag") * vd.hitting_time_lt_product(m, lam)
            assert abs(prod - 1.0) <= 1e-14

    def test_mean_by_derivative(self):
        # Rayleigh's closed form against the derivative of the transform
        for alpha in (0.0, 0.5, 1.0, 3.0):
            assert vd.mean_hitting_time(alpha) == pytest.approx(
                oracles.mean_hitting_time_by_derivative(alpha), abs=5e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            vd.HittingTimeModel.build(-0.6)
        m = vd.HittingTimeModel.build(1.0)
        with pytest.raises(ValueError):
            vd.hitting_time_lt(m, -1.0)


class TestSampling:
    def test_positive_and_reproducible(self):
        m = vd.HittingTimeModel.build(1.0)
        t1 = vd.sample_hitting_time(m, 7, 5000)
        t2 = vd.sample_hitting_time(m, 7, 5000)
        assert np.array_equal(t1, t2)
        assert np.all(t1 > 0.0)
        t3 = vd.sample_hitting_time(m, 8, 5000)
        assert not np.array_equal(t1, t3)

    def test_block_prefix_stability(self):
        # drawing fewer samples reproduces the prefix (substreams per block)
        m = vd.HittingTimeModel.build(0.5)
        big = vd.sample_hitting_time(m, 11, 9000)
        small = vd.sample_hitting_time(m, 11, 4096)
        assert np.array_equal(big[:4096], small)

    @pytest.mark.parametrize("sampler", ["sample_hitting_time", "sample_subordinated"])
    def test_prefix_stability_unaligned_counts(self, sampler):
        # neither count is a multiple of the block size: the short draw ends
        # inside the third block, which the long draw fills completely
        m = vd.HittingTimeModel.build(1.5)
        big = getattr(vd, sampler)(m, 23, 20000)
        small = getattr(vd, sampler)(m, 23, 9000)
        assert np.array_equal(big[:9000], small)

    def test_first_draws_pinned(self):
        # a tolerance, not a digest: numpy's SIMD exp may round differently
        # on another CPU
        m = vd.HittingTimeModel.build(1.0)
        np.testing.assert_allclose(
            vd.sample_hitting_time(m, 7, 8),
            [0.4038228140712607, 0.15963500459248153, 0.1912597935402794,
             0.18736457120203961, 0.10406811745654254, 0.2850310201147896,
             0.15987784365073995, 0.2535804043003257], rtol=1e-12)

    def test_independent_of_blas_threads(self):
        # the same seed gives the same bytes whatever the BLAS thread count
        script = (
            "import hashlib\n"
            "from besselprob import vandantzig as vd\n"
            "h = hashlib.sha256()\n"
            "for alpha in (0.0, 0.5, 1.0, 2.0):\n"
            "    m = vd.HittingTimeModel.build(alpha)\n"
            "    h.update(vd.sample_hitting_time(m, 31, 16461).tobytes())\n"
            "    h.update(vd.sample_subordinated(m, 31, 16461).tobytes())\n"
            "print(h.hexdigest())\n")
        src = os.path.dirname(os.path.dirname(besselprob.__file__))
        digests = []
        for threads in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads,
                       OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
            run = subprocess.run([sys.executable, "-c", script], env=env,
                                 capture_output=True, text=True, check=True)
            digests.append(run.stdout.strip())
        assert digests[0] == digests[1]

    def test_mean_against_derivative(self):
        m = vd.HittingTimeModel.build(0.5)
        ts = vd.sample_hitting_time(m, 42, 100_000)
        se = ts.std(ddof=1) / math.sqrt(len(ts))
        assert abs(ts.mean() - 1.0 / 3.0) <= 3.0 * se
        assert abs(ts.mean() - vd.mean_hitting_time(0.5)) <= 3.0 * se

    def test_mean_at_large_order(self):
        # from alpha ~ 53 a zero finder that trusts McMahon's guess skips
        # j_1, and the spectral table rejects the table; Var T = 4 sum j^-4
        # = 1 / (4 (alpha + 1)^2 (alpha + 2)) (Rayleigh)
        alpha = 55.0
        m = vd.HittingTimeModel(alpha, specfun.bessel_zeros(alpha, 64), 0.0)
        ts = vd.sample_hitting_time(m, 5, 20_000)
        se = math.sqrt(1.0 / (4.0 * (alpha + 1.0) ** 2 * (alpha + 2.0)) / len(ts))
        assert abs(ts.mean() - 1.0 / 112.0) <= 6.0 * se

    def test_empirical_laplace_transform(self):
        m = vd.HittingTimeModel.build(1.0)
        ts = vd.sample_hitting_time(m, 13, 100_000)
        for lam in (0.5, 1.0, 2.0):
            emp = np.exp(-lam * ts)
            se = emp.std(ddof=1) / math.sqrt(len(ts))
            assert abs(emp.mean() - vd.hitting_time_lt(m, lam)) <= 3.0 * se

    def test_subordinated_moments(self):
        m = vd.HittingTimeModel.build(1.0)
        ys = vd.sample_subordinated(m, 17, 100_000)
        n = len(ys)
        assert abs(ys.mean()) <= 3.0 * ys.std(ddof=1) / math.sqrt(n)
        # Var Y = E[T]
        want = vd.mean_hitting_time(1.0)
        var = ys.var(ddof=1)
        se_var = math.sqrt(2.0 / (n - 1)) * var   # normal-theory approximation
        assert abs(var - want) <= 4.0 * se_var

    def test_subordination_identity_cf(self):
        # E e^{i t Y} = E e^{-t^2 T / 2}
        m = vd.HittingTimeModel.build(1.0)
        ys = vd.sample_subordinated(m, 19, 100_000)
        t = 1.0
        emp = np.cos(t * ys)
        se = emp.std(ddof=1) / math.sqrt(len(ys))
        assert abs(emp.mean() - vd.hitting_time_lt(m, 0.5 * t * t)) <= 3.0 * se


CDF_U = (0.0, 2.0 ** -53, 1e-12, 1e-9, 1e-6, 1e-3, 0.5, 1.0 - 2.0 ** -53)


def _oracle_zeros(alpha, count):
    near = specfun.bessel_zeros(alpha, count).zeros
    return [oracles.bessel_j_zero(alpha, k + 1, near[k]) for k in range(count)]


def _spectral_oracle(alpha, count):
    zeros = _oracle_zeros(alpha, count)
    return lambda t: oracles.hitting_time_cdf(alpha, t, zeros)


class TestQuantile:
    def _cdf_errors(self, model, cdf, us):
        """|F(t(u)) - u| at each u, and |S(t(u)) - (1 - u)| / (1 - u) for
        u > 1/2."""
        ks, rel = [], []
        for u, t in zip(us, vd.hitting_time_quantile(model, us)):
            f, s = cdf(float(t))
            ks.append(float(abs(f - u)))
            if u > 0.5:
                rel.append(float(abs(s - (1 - oracles.mp.mpf(u))) / (1 - oracles.mp.mpf(u))))
        return np.array(ks), np.array(rel)

    @pytest.mark.parametrize("alpha", [-0.45, 0.0, 0.5, 1.3, 2.0])
    def test_cdf_against_oracle(self, alpha):
        # alpha = 1/2 against the Jacobi-theta forms, the others against
        # the spectral series at 40 digits over 60 mpmath zeros
        m = vd.HittingTimeModel.build(alpha)
        cdf = (oracles.theta_hitting_time_cdf if alpha == 0.5
               else _spectral_oracle(alpha, 60))
        us = np.concatenate([CDF_U, np.geomspace(1e-11, 0.999, 12),
                             1.0 - np.geomspace(1e-15, 0.4, 8)])
        ks, rel = self._cdf_errors(m, cdf, us)
        assert m.spectral.ks_bound <= 1e-10
        assert ks.max() <= m.spectral.ks_bound
        assert rel.max() <= 1e-10

    @pytest.mark.parametrize("alpha", [7.3, 30.0])
    def test_cdf_error_within_reported_bound(self, alpha):
        m = vd.HittingTimeModel.build(alpha)
        us = np.concatenate([CDF_U, np.geomspace(m.spectral.ks_bound / 10, 0.999, 12)])
        ks, _ = self._cdf_errors(m, _spectral_oracle(alpha, 90), us)
        assert ks.max() <= m.spectral.ks_bound

    @pytest.mark.parametrize("alpha,count", [(0.0, 60), (1.0, 60), (2.0, 60), (7.3, 90)])
    def test_against_mpmath_inverse(self, alpha, count):
        # the reference is the root of the 40-digit series, so it shares
        # no double-precision step with the sampler
        m = vd.HittingTimeModel.build(alpha)
        tab = m.spectral
        us = np.concatenate([np.geomspace(tab.f_c, 0.5, 100),
                             1.0 - np.geomspace(0.5, 1e-15, 100)])
        t = vd.hitting_time_quantile(m, us)
        ref = oracles.hitting_time_inverse(alpha, us, _oracle_zeros(alpha, count), t)
        # the CDF error f |t - t_ref| to first order, and for u > 1/2 the
        # survival error relative to 1 - u
        d_f = np.array([float(f * abs(oracles.mp.mpf(float(x)) - r))
                        for x, (r, f) in zip(t, ref)])
        assert d_f.max() <= tab.ks_bound
        hi = us > 0.5
        assert np.max(d_f[hi] / (1.0 - us[hi])) <= 1e-10

    def test_chord_slopes_break_the_bound(self):
        # one-sided chord slopes make each cell about linear: the midpoint
        # term must see the larger error, which then leaves F(t_c) (the
        # bound without that term) behind but stays inside the new bound
        tab = vd.HittingTimeModel.build(0.0).spectral
        chord = np.diff(tab.log_t) / np.diff(tab.logit)
        chord = np.append(chord, chord[-1])
        assert tab.ks_bound == tab.f_c + vd._MIDPOINT_SAFETY * vd._midpoint_error(
            tab.half_j2, tab.weights, tab.log_t, tab.logit, tab.slope)
        err = vd._midpoint_error(tab.half_j2, tab.weights, tab.log_t, tab.logit, chord)
        assert err > tab.f_c
        bad = dataclasses.replace(tab, slope=chord,
                                  ks_bound=tab.f_c + vd._MIDPOINT_SAFETY * err)
        y = 0.5 * (tab.logit[:-1] + tab.logit[1:])[::128]
        us = 1.0 / (1.0 + np.exp(-y))
        cdf = _spectral_oracle(0.0, 60)

        def ks(table):
            return max(float(abs(cdf(float(t))[0] - u))
                       for u, t in zip(us, vd._quantile(table, us)))

        assert tab.f_c < ks(bad) <= bad.ks_bound
        assert ks(tab) <= tab.ks_bound

    @pytest.mark.parametrize("alpha", [-0.45, 0.0, 2.0, 7.3, 30.0])
    def test_monotone_across_cells_and_switches(self, alpha):
        tab = vd.HittingTimeModel.build(alpha).spectral
        # four points in every cell, in y = log F - log S
        y = (tab.logit[:-1, None] + np.diff(tab.logit)[:, None] * np.arange(4) / 4).ravel()
        s_r = 1.0 / (1.0 + math.exp(tab.logit[-1]))
        steps = np.concatenate([np.arange(-20, 0), np.arange(1, 21)])
        u = np.concatenate([
            1.0 / (1.0 + np.exp(-y)),
            tab.f_c * (1.0 + 1e-9 * steps),      # across the left-tail switch
            1.0 - s_r * (1.0 + 1e-6 * steps),    # across t_r, where u < 1 reaches it
            1.0 - 2.0 ** -53 * np.arange(1, 64)])
        u = np.unique(u[u < 1.0])
        t = vd._quantile(tab, u)
        assert np.all(np.diff(t) > 0.0)
        # the guide finds the cell a binary search finds, also next to nodes
        y = np.concatenate([y, np.log(u) - np.log1p(-u), tab.logit,
                            np.nextafter(tab.logit, -np.inf), np.nextafter(tab.logit, np.inf)])
        assert np.array_equal(vd._cell(tab, y),
                              np.clip(np.searchsorted(tab.logit, y), 1, tab.logit.size - 1))

    @pytest.mark.parametrize("alpha", [-0.45, 0.0, 2.0, 30.0])
    def test_draws_finite_and_positive(self, alpha):
        m = vd.HittingTimeModel.build(alpha)
        # the left-tail route, the table, and past the table's right end
        t = vd.hitting_time_quantile(m, np.concatenate(
            [[0.0, 2.0 ** -53], np.geomspace(1e-15, 0.5, 40),
             1.0 - np.geomspace(0.4, 2.0 ** -53, 40)]))
        assert np.all(np.isfinite(t) & (t > 0.0))
        assert np.all(np.diff(t) > 0.0)
        assert np.all(vd.sample_hitting_time(m, 41, 20000) > 0.0)
        assert np.all(np.isfinite(vd.sample_subordinated(m, 41, 20000)))

    @pytest.mark.parametrize("alpha", [0.0, 2.0])
    def test_mean_and_variance(self, alpha):
        # T = sum_n 2 E_n / j_n^2: E[T] = 1 / (2 alpha + 2),
        # Var T = sum_n 4 / j_n^4
        m = vd.HittingTimeModel.build(alpha)
        t = vd.sample_hitting_time(m, 2024, 1_000_000)
        j = np.asarray(m.zeros.zeros)
        var = float(np.sum(4.0 / j ** 4)) + 4.0 * specfun.zero_tail_power_sum(m.zeros, 4)
        assert abs(t.mean() - 0.5 / (alpha + 1.0)) <= 4.0 * math.sqrt(var / t.size)
        c = t - t.mean()
        var_se = math.sqrt((np.mean(c ** 4) - np.mean(c ** 2) ** 2) / t.size)
        assert abs(t.var(ddof=1) - var) <= 4.0 * var_se

    def test_ks_against_sum_of_exponentials(self):
        # the former sampler: T = sum_n 2 E_n / j_n^2 over 256 zeros plus
        # the mean of the dropped terms, E_n unit exponentials
        m = vd.HittingTimeModel.build(1.0)
        n = 20000
        inv_j2 = 2.0 / np.asarray(m.zeros.zeros) ** 2
        u = rng.uniform_blocks(29, n, inv_j2.size)
        old = np.sort(-np.log1p(-u) @ inv_j2 + m.tail_mean)
        new = np.sort(vd.sample_hitting_time(m, 31, n))

        def ks(a, b):
            grid = np.concatenate([a, b])
            return np.max(np.abs(np.searchsorted(a, grid, side="right")
                                 - np.searchsorted(b, grid, side="right"))) / n

        critical = 1.95 * math.sqrt(2.0 / n)   # two-sample KS at the 0.1 % level
        assert ks(old, new) <= critical
        assert ks(old, 1.05 * new) > critical   # the test can fail

    def test_domain(self):
        m = vd.HittingTimeModel.build(1.0)
        for u in (-0.1, 1.0, math.nan):
            with pytest.raises(ValueError):
                vd.hitting_time_quantile(m, [0.5, u])

    def test_table_rejects_a_skipped_zero(self):
        # J_{alpha+1} alternates in sign over consecutive zeros of J_alpha
        zeros = specfun.bessel_zeros(1.0, 64).zeros
        m = vd.HittingTimeModel(alpha=1.0, zeros=specfun.ZeroTable(1.0, zeros[1:]),
                                tail_mean=0.0)
        with pytest.raises(ValueError, match="skips a zero"):
            m.spectral


class TestVerifyPair:
    def test_uniform_identity_tight(self):
        rep = vd.verify_pair(vd.PowerSemicircle(0.5), np.linspace(0.25, 30, 120),
                             mc_count=20_000, seed=5)
        assert rep.max_identity_error <= 1e-10
        assert rep.bochner_min_eigenvalue >= -1e-10
        assert rep.mc_cf_max_z_score <= 4.0

    def test_report_serialization(self):
        rep = vd.verify_pair(vd.PowerSemicircle(1.0), [0.5, 1.0, 2.0],
                             mc_count=10_000, seed=3)
        d = rep.to_dict()
        assert set(d) == {"alpha", "grid", "max_identity_error",
                          "bochner_min_eigenvalue", "mc_cf_max_z_score",
                          "mc_count", "seed"}

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            vd.verify_pair(vd.PowerSemicircle(1.0), [])
        with pytest.raises(ValueError):
            vd.verify_pair(vd.PowerSemicircle(1.0), [2.0, 1.0])


def test_samples_csv(tmp_path):
    # both sample commands write their draws through one CSV writer: a
    # `value` header, then one draw per line to 17 significant digits
    from besselprob import cli

    assert cli._samples_csv([1.0, 2.5, 0.125]) == "value\n1\n2.5\n0.125\n"
    path = tmp_path / "draws.csv"
    assert cli.main(["vandantzig", "sample", "--alpha", "1.0", "--count", "5",
                     "--seed", "3", "--out", str(path)]) == 0
    draws = vd.sample_hitting_time(vd.HittingTimeModel.build(1.0), 3, 5)
    lines = path.read_text().splitlines()
    assert lines[0] == "value"
    assert [float(v) for v in lines[1:]] == draws.tolist()
