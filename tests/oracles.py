"""Independent brute-force oracles used by the tests.

Everything here evaluates defining series or bisection directly in
high-precision arithmetic, deliberately sharing no code with the library
paths under test.
"""

from functools import lru_cache

import mpmath as mp


def series_bessel_j(alpha, z, dps=50, terms=300):
    """Partial sums of the defining alternating series."""
    with mp.workdps(dps):
        a = mp.mpf(alpha)
        half = mp.mpf(z) / 2
        tot = mp.mpf(0)
        for n in range(terms):
            tot += (-1) ** n * half ** (2 * n + a) / (mp.factorial(n) * mp.gamma(n + a + 1))
        return float(tot)


def mp_bessel_j(alpha, z, dps=40):
    """mpmath's besselj at `dps` digits, for z past the reach of the fixed
    600 terms of `series_bessel_j`."""
    with mp.workdps(dps):
        return float(mp.besselj(alpha, z))


def series_bessel_i(alpha, z, dps=50, terms=400):
    with mp.workdps(dps):
        a = mp.mpf(alpha)
        half = mp.mpf(z) / 2
        tot = mp.mpf(0)
        for n in range(terms):
            tot += half ** (2 * n + a) / (mp.factorial(n) * mp.gamma(n + a + 1))
        return float(tot)


def _cancellation_dps(x):
    import math

    return int(2.0 * math.sqrt(abs(x)) / math.log(10)) + 45


def _hyp1f2_sum(a, b, c, x, dps):
    """The direct sum at `dps` digits, as an mpf."""
    with mp.workdps(dps):
        A, B, C, X = (mp.mpf(v) for v in (a, b, c, x))
        term = mp.mpf(1)
        tot = mp.mpf(1)
        for n in range(1, 60000):
            term = term * ((A + (n - 1)) * X) / ((B + (n - 1)) * (C + (n - 1)) * n)
            tot += term
            if abs(term) < mp.mpf(10) ** (-(dps - 10)) * (abs(tot) + 1):
                break
        return tot


def series_hyp1f2(a, b, c, x, dps=None):
    """Direct summation with working precision scaled to the cancellation."""
    return float(_hyp1f2_sum(a, b, c, x, dps or _cancellation_dps(x)))


def series_hyp1f2_abs_error(value, a, b, c, x):
    """|value - 1F2(a; b, c; x)| as an mpf, against the direct sum of
    `series_hyp1f2` before it is rounded to a double."""
    dps = _cancellation_dps(x)
    exact = _hyp1f2_sum(a, b, c, x, dps)
    with mp.workdps(dps):
        return abs(mp.mpf(value) - exact)


def mp_hyp1f2(a, b, c, x, dps=60):
    """mpmath's hyp1f2 at `dps` digits (its own convergent and asymptotic
    series), for x where the direct series would need thousands of digits."""
    with mp.workdps(dps):
        return float(mp.hyp1f2(a, b, c, x))


def gamma_cos_moment(mu, dps=40):
    """Gamma(mu) cos(pi mu / 2) = int_0^inf z^{mu-1} cos z dz (0 < mu < 1)
    at `dps` digits, as an mpf."""
    with mp.workdps(dps):
        m = mp.mpf(mu)
        return mp.gamma(m) * mp.cos(mp.pi * m / 2)


def bisect_first_j_zero(alpha, lo, hi, dps=40):
    """Sign-change bisection on the high-precision series."""
    with mp.workdps(dps):
        f = lambda z: mp.besselj(alpha, z)
        a, b = mp.mpf(lo), mp.mpf(hi)
        fa = f(a)
        assert fa * f(b) < 0, "oracle bracket must straddle the zero"
        for _ in range(200):
            m = (a + b) / 2
            if fa * f(m) <= 0:
                b = m
            else:
                a = m
                fa = f(a)
        return float((a + b) / 2)


def quad_moment(f, dps=30, upper=60):
    """mpmath quadrature of f over (0, upper) as a crude cross-check."""
    with mp.workdps(dps):
        return float(mp.quad(f, [0, upper]))


def bessel_j_zero(alpha, k, near, dps=40):
    """The k-th positive zero of J_alpha as an mpf: mpmath's besseljzero
    for alpha >= 0; for -1 < alpha < 0, which besseljzero rejects, a
    40-digit root search on besselj started at `near`."""
    with mp.workdps(dps):
        if alpha >= 0:
            return +mp.besseljzero(alpha, k)
        return mp.findroot(lambda z: mp.besselj(alpha, z), mp.mpf(near))


@lru_cache(maxsize=32)
def _spectral_weights(alpha, zeros, dps):
    """w_n = 2 j_n^(alpha-1) / (2^alpha Gamma(alpha+1) J_{alpha+1}(j_n)) for
    each of the (mpf) zeros at `dps` digits, computed once per
    (alpha, zeros, dps): the 40-digit J_{alpha+1} dominates the series'
    cost."""
    with mp.workdps(dps):
        a = mp.mpf(alpha)
        norm = 2 ** a * mp.gamma(a + 1)
        return tuple(2 * j ** (a - 1) / (norm * mp.besselj(a + 1, j)) for j in zeros)


def hitting_time_cdf(alpha, t, zeros, dps=40):
    """(F, S) = (P(T <= t), P(T > t)) for T the hitting time of the
    index-alpha Bessel process, from the spectral series
    S(t) = sum_n w_n exp(-j_n^2 t / 2) (weights from `_spectral_weights`),
    summed over the given zeros at `dps` digits; mpf values."""
    zeros = tuple(zeros)
    weights = _spectral_weights(alpha, zeros, dps)
    with mp.workdps(dps):
        t = mp.mpf(t)
        s = mp.fsum(w * mp.exp(-j * j * t / 2) for j, w in zip(zeros, weights))
        return 1 - s, s


def hitting_time_inverse(alpha, us, zeros, starts, dps=40):
    """(t, f) with F(t) = u at each u, F the spectral series of
    `hitting_time_cdf` at `dps` digits and f = F' its density there: Newton
    on F(t) - u in t from each start until the step is below 1e-30
    relative.  F is strictly increasing, so the root does not depend on
    the start, which only needs to be close enough for Newton to settle;
    mpf values."""
    zeros = tuple(zeros)
    weights = _spectral_weights(alpha, zeros, dps)
    with mp.workdps(dps):
        terms = [(j * j / 2, w) for j, w in zip(zeros, weights)]
        out = []
        for u, t in zip(us, starts):
            u, t = mp.mpf(u), mp.mpf(t)
            for _ in range(60):
                e = [(h, w * mp.exp(-h * t)) for h, w in terms]
                f = mp.fsum(h * x for h, x in e)
                step = (1 - mp.fsum(x for _, x in e) - u) / f
                t -= step
                if abs(step) <= mp.mpf(10) ** -30 * t:
                    break
            else:
                raise AssertionError(f"no convergence at u = {u}")
            out.append((t, f))
        return out


def theta_hitting_time_cdf(t, dps=40, terms=40):
    """(F, S) at alpha = 1/2, where T is the hitting time of 1 by a
    three-dimensional Bessel process, from the two Jacobi-theta forms:
    F(t) = 2 sqrt(2 / (pi t)) sum_{k>=0} exp(-(2k+1)^2 / (2t)) and
    S(t) = 2 sum_{n>=1} (-1)^(n+1) exp(-n^2 pi^2 t / 2); mpf values."""
    with mp.workdps(dps):
        t = mp.mpf(t)
        f = 2 * mp.sqrt(2 / (mp.pi * t)) * mp.fsum(
            mp.exp(-(2 * k + 1) ** 2 / (2 * t)) for k in range(terms))
        s = 2 * mp.fsum((-1) ** (n + 1) * mp.exp(-n * n * mp.pi ** 2 * t / 2)
                        for n in range(1, terms + 1))
        return f, s


def mean_hitting_time_by_derivative(alpha, h=1e-3, dps=30):
    """E[T] = -d/dlam E[exp(-lam T)] at lam = 0, by the five-point stencil
    at step h on the closed-form transform
    1 / (Gamma(alpha+1) (s/2)^-alpha I_alpha(s)), s = sqrt(2 lam),
    continued to lam < 0 through J_alpha; the stencil's error is
    O(h^4 E[T^5])."""
    with mp.workdps(dps):
        a, h = mp.mpf(alpha), mp.mpf(h)

        def lt(lam):
            s = mp.sqrt(2 * abs(lam))
            bessel = mp.besseli if lam > 0 else mp.besselj
            return 1 / (mp.gamma(a + 1) * (s / 2) ** (-a) * bessel(a, s))

        return float(-(-lt(2 * h) + 8 * lt(h) - 8 * lt(-h) + lt(-2 * h)) / (12 * h))
