"""Scalar special-function kernels: gamma family, Bessel J/I, their zeros,
Pochhammer ratios and the 1F2 hypergeometric evaluator.

Every other module consumes these.  All functions are pure and thread-safe;
the hot scalar loops are the kernels of `besselprob.backend`.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from mpmath import libmp

from . import backend
from ._kernels_py import _LANCZOS_C, _LANCZOS_G
from .errors import AccuracyError, BracketError
from .policy import DEFAULT_POLICY, PrecisionPolicy

__all__ = [
    "BesselOrder",
    "ZeroTable",
    "ln_gamma",
    "ln_gamma_complex",
    "gamma",
    "rgamma",
    "digamma",
    "bessel_j",
    "bessel_i",
    "bessel_j_normalized",
    "bessel_i_normalized",
    "bessel_j_prime",
    "bessel_zeros",
    "zero_tail_power_sum",
    "hyp1f2",
    "hyp1f2_with_bound",
    "F2TailProfile",
    "f2_tail_profile",
    "pochhammer_ratio",
]

ln_gamma = backend.ln_gamma
digamma = backend.digamma
bessel_j_normalized = backend.bessel_j_normalized
bessel_i_normalized = backend.bessel_i_normalized


@dataclass(frozen=True)
class BesselOrder:
    """Bessel order alpha; the J/I series require alpha > -1."""

    alpha: float

    def __post_init__(self):
        if math.isnan(self.alpha) or math.isinf(self.alpha):
            raise ValueError(f"order must be finite, got {self.alpha!r}")
        if not self.alpha > -1.0:
            raise ValueError(f"order must satisfy alpha > -1, got {self.alpha!r}")


@dataclass(frozen=True)
class ZeroTable:
    """First N positive zeros of J_alpha, strictly increasing."""

    alpha: float
    zeros: tuple

    def __post_init__(self):
        zs = tuple(float(z) for z in self.zeros)
        object.__setattr__(self, "zeros", zs)
        if not zs or zs[0] <= 0.0:
            raise ValueError("zero table must start with a positive zero")
        for a, b in zip(zs, zs[1:]):
            if not b > a:
                raise ValueError("zeros must be strictly increasing")

    def __len__(self) -> int:
        return len(self.zeros)

    def __getitem__(self, i):
        return self.zeros[i]


def _order_alpha(order) -> float:
    return order.alpha if isinstance(order, BesselOrder) else float(order)


def bessel_j(order, z: float) -> float:
    """J_alpha(z), alpha > -1, z >= 0 (z = 0 needs alpha >= 0)."""
    return backend.bessel_j(_order_alpha(order), z)


def bessel_i(order, z: float) -> float:
    """I_alpha(z), alpha > -1, z >= 0; raises OverflowError past z ~ 690."""
    return backend.bessel_i(_order_alpha(order), z)


def bessel_j_prime(order, z: float) -> float:
    return backend.bessel_j_prime(_order_alpha(order), z)


def gamma(x: float) -> float:
    """Gamma(x) for any real x off the poles (reflection for x <= 0)."""
    if x > 0.0:
        return math.exp(ln_gamma(x))
    r = rgamma(x)
    if r == 0.0:
        raise ValueError(f"Gamma pole at x = {x!r}")
    return 1.0 / r


def rgamma(x: float) -> float:
    """1 / Gamma(x) for any real x; returns 0 at the poles."""
    if x > 0.0:
        lg = ln_gamma(x)
        if lg > 700.0:
            return 0.0
        return math.exp(-lg)
    if x == math.floor(x):
        return 0.0
    s = math.sin(math.pi * x)
    return s * math.exp(ln_gamma(1.0 - x)) / math.pi


def ln_gamma_complex(z: complex) -> complex:
    """Principal-branch log Gamma for complex z off the poles."""
    z = complex(z)
    if z.real < 0.5:
        return cmath.log(math.pi / cmath.sin(math.pi * z)) - ln_gamma_complex(1.0 - z)
    acc = _LANCZOS_C[0] + 0j
    for k in range(1, 9):
        acc += _LANCZOS_C[k] / (z - 1.0 + k)
    t = z + _LANCZOS_G - 0.5
    return 0.9189385332046727417803297 + (z - 0.5) * cmath.log(t) - t + cmath.log(acc)


def ln_gamma_complex_array(z):
    """Vectorized ln_gamma_complex for ndarray input with Re(z) >= 0.5
    (the Mellin-line use case keeps arguments right of the strip)."""
    z = np.asarray(z, dtype=complex)
    if np.any(z.real < 0.5):
        return np.array([ln_gamma_complex(v) for v in z.ravel()]).reshape(z.shape)
    acc = np.full(z.shape, _LANCZOS_C[0], dtype=complex)
    for k in range(1, 9):
        acc += _LANCZOS_C[k] / (z - 1.0 + k)
    t = z + _LANCZOS_G - 0.5
    return 0.9189385332046727417803297 + (z - 0.5) * np.log(t) - t + np.log(acc)


# ---------------------------------------------------------------------------
# Bessel zeros


def _mcmahon_guess(alpha: float, n: int) -> float:
    b = (n + 0.5 * alpha - 0.25) * math.pi
    mu = 4.0 * alpha * alpha
    r = 1.0 / (8.0 * b)
    return b - (mu - 1.0) * r * (
        1.0
        + r * r * (4.0 * (7.0 * mu - 31.0) / 3.0
                   + r * r * 32.0 * (83.0 * mu * mu - 982.0 * mu + 3779.0) / 15.0)
    )


def _bracket_zero(alpha: float, lo: float, hi: float, guess: float):
    """Expand around `guess` inside (lo, hi) until J changes sign."""
    f = lambda x: backend.bessel_j(alpha, x)
    width = 0.05 * (hi - lo) if hi < math.inf else 0.35
    a = max(guess - width, lo + 1e-12)
    b = min(guess + width, hi - 1e-12) if hi < math.inf else guess + width
    fa, fb = f(a), f(b)
    for _ in range(60):
        if fa == 0.0:
            return a, a, fa
        if fb == 0.0:
            return b, b, fb
        if fa * fb < 0.0:
            return a, b, fa
        a = max(lo + 1e-12, a - width)
        b = b + width if hi == math.inf else min(hi - 1e-12, b + width)
        fa, fb = f(a), f(b)
        width *= 1.6
    raise BracketError(f"could not bracket zero near {guess} for alpha={alpha}")


def _refine_zero(alpha: float, a: float, b: float, fa: float) -> float:
    """Newton inside a maintained sign bracket, bisection fallback."""
    if a == b:
        return a
    x = 0.5 * (a + b)
    for _ in range(100):
        fx = backend.bessel_j(alpha, x)
        if fx == 0.0:
            return x
        if fa * fx < 0.0:
            b = x
        else:
            a, fa = x, fx
        d = backend.bessel_j_prime(alpha, x)
        step = fx / d if d != 0.0 else math.inf
        xn = x - step
        # a converged step lands within an ulp or two of x, which is now a
        # bracket end, so it must be accepted before the bracket test
        if abs(step) <= 5e-16 * x:
            return xn
        if not (a < xn < b):
            xn = 0.5 * (a + b)
        if abs(xn - x) <= 5e-16 * x:
            return xn
        x = xn
    return x


@lru_cache(maxsize=128)
def bessel_zeros(order, count: int) -> ZeroTable:
    """First `count` positive zeros of J_alpha.

    McMahon-type initial guesses refined by safeguarded Newton using
    J' = (J_{alpha-1} - J_{alpha+1})/2 inside a sign bracket; a zero is
    accepted as x - dx once the Newton step |dx| <= 5e-16 x, usually after
    three or four J evaluations.  A step that leaves the bracket is
    replaced by bisection.  The zeros are as accurate as `bessel_j` near
    them: a few ulps from one unit past `j_crossover`, up to ~1e-12
    relative below it.  Tables depend only on (order, count) and are
    cached: repeated calls return the same table.
    """
    alpha = _order_alpha(order)
    if math.isnan(alpha) or not alpha > -1.0:
        raise ValueError(f"need alpha > -1, got {alpha!r}")
    if count < 1:
        raise ValueError("count must be >= 1")
    zeros = []
    prev = 0.0
    for n in range(1, count + 1):
        guess = _mcmahon_guess(alpha, n)
        if guess <= prev:
            guess = prev + 1.5
        a, b, fa = _bracket_zero(alpha, prev, math.inf, guess)
        z = _refine_zero(alpha, a, b, fa)
        if z <= prev:
            raise BracketError(f"zero ordering broke at n={n} for alpha={alpha}")
        zeros.append(z)
        prev = z
    return ZeroTable(alpha=alpha, zeros=tuple(zeros))


def zero_tail_power_sum(table: ZeroTable, p: int) -> float:
    """sum over n > len(table) of j_{alpha,n}^{-p} (p >= 2 even).

    Uses the McMahon leading form j ~ pi (n + alpha/2 - 1/4) and
    Euler-Maclaurin for the remainder; relative error O(N^{-2}), absolute
    error negligible at the N ~ 10^2 sizes used here.
    """
    if p < 2:
        raise ValueError("p must be >= 2")
    x = len(table) + 1 + 0.5 * table.alpha - 0.25
    s = x ** (1.0 - p) / (p - 1.0) + 0.5 * x ** (-p) + (p / 12.0) * x ** (-p - 1.0)
    return s / math.pi ** p


# ---------------------------------------------------------------------------
# Pochhammer ratios (Mellin symbols)


def pochhammer_ratio(spec, s: float) -> float:
    """exp of the signed log-Gamma sum for the four-set Mellin symbol.

    `spec` provides sorted tuples a, b, c, d of positive reals (empty sets
    contribute a factor 1 and min(empty) = inf for the strip).  Requires s
    strictly inside (-min(a), min(b)) and every Gamma argument positive.
    """
    a, b, c, d = spec.a, spec.b, spec.c, spec.d
    lo = -(a[0] if a else math.inf)
    hi = b[0] if b else math.inf
    if not (lo < s < hi):
        raise ValueError(f"s={s} outside the Mellin strip ({lo}, {hi})")
    acc = 0.0
    for x in a:
        acc += ln_gamma(x + s) - ln_gamma(x)
    for x in b:
        acc += ln_gamma(x - s) - ln_gamma(x)
    for x in c:
        if x + s <= 0.0:
            raise ValueError(f"Gamma argument {x}+{s} <= 0 in denominator")
        acc -= ln_gamma(x + s) - ln_gamma(x)
    for x in d:
        if x - s <= 0.0:
            raise ValueError(f"Gamma argument {x}-{s} <= 0 in denominator")
        acc -= ln_gamma(x - s) - ln_gamma(x)
    return math.exp(acc)


# ---------------------------------------------------------------------------
# 1F2 evaluation: direct series, fixed-50-digit series, large-x expansion


@dataclass(frozen=True)
class F2TailProfile:
    """Large-x structure of 1F2(a; b, c; -x).

    nu:  oscillation exponent a - b - c + 1/2.
    alg: leading algebraic coefficient (of x^{-a}); sign decides the
         eventual algebraic behaviour.
    osc: positive envelope coefficient of x^{nu/2} cos(2 sqrt x + nu pi/2).
    """

    a: float
    b: float
    c: float
    nu: float
    alg: float
    osc: float


def _f2_pole_check(b: float, c: float):
    for name, v in (("b", b), ("c", c)):
        if v <= 0.0 and v == math.floor(v):
            raise ValueError(f"1F2 parameter {name}={v} sits on a series pole")


# number of correction terms kept in both large-x expansions
_F2_KMAX = 14


@lru_cache(maxsize=256)
def _f2_osc_coeffs(a: float, b: float, c: float) -> tuple:
    """Coefficients g_k of the oscillatory expansion
    e^{2iu} u^nu sum_k g_k u^{-k} (u = sqrt(x)) solving the 1F2 ODE
    theta(theta+b-1)(theta+c-1) F + x (theta+a) F = 0, with g_0 = 1.

    theta acts on e^{2iu} u^m as i u^{m+1} + (m/2) u^m, which turns the ODE
    into an exactly solvable triangular recurrence.
    """
    nu = a - b - c + 0.5

    def theta_plus(cc, poly):
        out = {}
        for m, amp in poly.items():
            out[m + 1] = out.get(m + 1, 0) + amp * 1j
            out[m] = out.get(m, 0) + amp * (0.5 * m + cc)
        return out

    def ode_apply(m):
        p = {m: 1.0 + 0j}
        q = theta_plus(c - 1.0, p)
        q = theta_plus(b - 1.0, q)
        q = theta_plus(0.0, q)
        r = theta_plus(a, p)
        out = dict(q)
        for mm, amp in r.items():
            out[mm + 2] = out.get(mm + 2, 0) + amp
        return out

    eq: dict = {}

    def add(poly, coef):
        for m, amp in poly.items():
            key = round(m, 9)
            eq[key] = eq.get(key, 0) + coef * amp

    g = [1.0 + 0j]
    add(ode_apply(nu), g[0])
    # the power m+3 coefficient vanishes identically; g_k enters at nu-k+2
    for k in range(1, _F2_KMAX + 1):
        poly_k = ode_apply(nu - k)
        c_unknown = poly_k.get(nu - k + 2, 0)
        resid = eq.get(round(nu + 2 - k, 9), 0)
        if abs(c_unknown) < 1e-13:
            break
        gk = -resid / c_unknown
        g.append(gk)
        add(poly_k, gk)
    return tuple(g)


def f2_tail_profile(a: float, b: float, c: float) -> F2TailProfile:
    _f2_pole_check(b, c)
    nu = a - b - c + 0.5
    pref = _f2_alg_coeffs(a, b, c)[0]
    alg = pref * rgamma(b - a) * rgamma(c - a)
    osc = pref / math.sqrt(math.pi)
    return F2TailProfile(a=a, b=b, c=c, nu=nu, alg=alg, osc=osc)


@lru_cache(maxsize=256)
def _f2_alg_coeffs(a: float, b: float, c: float) -> tuple:
    """Parameter-only parts of the algebraic large-x expansion of
    1F2(a;b,c;-x): returns (pref, coeffs) with
    pref = Gamma(b) Gamma(c) / Gamma(a) and
    coeffs[k] = (-1)^k/k! Gamma(a+k) / (Gamma(b-a-k) Gamma(c-a-k)),
    the Mellin-Barnes residues (DLMF 16.11), so that term k of the series
    is pref * coeffs[k] * x^{-a-k}.  The tuple ends before the first
    coefficient whose Gamma factor overflows a double."""
    pref = math.exp(ln_gamma(b) + ln_gamma(c) - ln_gamma(a))
    coeffs = []
    sign = 1.0
    fact = 1.0
    for k in range(_F2_KMAX + 1):
        if k > 0:
            sign = -sign
            fact *= k
        try:
            coeffs.append(sign / fact * math.exp(ln_gamma(a + k)) * rgamma(b - a - k) * rgamma(c - a - k))
        except OverflowError:
            break
    return pref, tuple(coeffs)


def _f2_alg_series(a: float, b: float, c: float, x: float):
    """Algebraic component of 1F2(a;b,c;-x) at large x (exact coefficients
    from the Mellin-Barnes residues); returns (value, trunc_bound)."""
    pref, coeffs = _f2_alg_coeffs(a, b, c)
    total = 0.0
    last = math.inf
    bound = 0.0
    for k in range(_F2_KMAX + 1):
        if k == len(coeffs):
            raise OverflowError("1F2 algebraic coefficient overflows a double")
        t = coeffs[k] * x ** (-a - k)
        at = abs(t)
        if at > last:
            bound = at
            break
        total += t
        last = at
        bound = at
    return pref * total, pref * bound


def _f2_asymptotic(a: float, b: float, c: float, x):
    """1F2(a;b,c;-x) by the large-x expansion; returns (value, abs_bound).

    `x` may also be an ndarray, which returns (values, bounds) arrays of
    its shape (see _f2_asymptotic_array)."""
    if isinstance(x, np.ndarray):
        return _f2_asymptotic_array(a, b, c, x)
    nu = a - b - c + 0.5
    g = _f2_osc_coeffs(a, b, c)
    u = math.sqrt(x)
    tot = 0 + 0j
    last = math.inf
    trunc = abs(g[0])
    for k, gk in enumerate(g):
        t = gk * u ** (-k)
        at = abs(t)
        if at > last:
            trunc = at
            break
        tot += t
        last = at
        trunc = at
    pref = _f2_alg_coeffs(a, b, c)[0] / math.sqrt(math.pi)
    env = pref * u ** nu
    osc = env * (cmath.exp(2j * u + 0.5j * nu * math.pi) * tot).real
    alg, alg_bound = _f2_alg_series(a, b, c, x)
    val = alg + osc
    bound = env * trunc + alg_bound + 2e-14 * (abs(alg) + env * (abs(tot) + 1.0))
    return val, bound


def _f2_asymptotic_array(a: float, b: float, c: float, x: np.ndarray):
    """_f2_asymptotic on every element of `x` > 0, with the scalar form's
    coefficients, stop rules, order of additions and bound.

    Each series is a loop over its terms on the whole array; an element
    whose term grows stops summing (the mask `active`).  numpy's power
    rounds differently from libm's on a few percent of arguments, so
    values can differ from the scalar form's in the last ulp.  Raises
    OverflowError where the scalar series would run past its coefficients,
    and where any operation overflows or turns invalid: callers then fall
    back to the scalar form."""
    nu = a - b - c + 0.5
    g = _f2_osc_coeffs(a, b, c)
    apref, coeffs = _f2_alg_coeffs(a, b, c)
    xs = np.asarray(x, dtype=float).ravel()
    try:
        with np.errstate(over="raise", invalid="raise"):
            u = np.sqrt(xs)
            re, im, trunc = np.zeros(xs.shape), np.zeros(xs.shape), np.zeros(xs.shape)
            last = np.full(xs.shape, math.inf)
            active = np.ones(xs.shape, dtype=bool)
            for k, gk in enumerate(g):
                p = np.power(u, -k)
                t_re, t_im = gk.real * p, gk.imag * p
                at = np.hypot(t_re, t_im)
                np.copyto(trunc, at, where=active)
                active &= ~(at > last)
                np.add(re, t_re, out=re, where=active)
                np.add(im, t_im, out=im, where=active)
                last = at
            alg = np.zeros(xs.shape)
            alg_bound = np.zeros(xs.shape)
            last = np.full(xs.shape, math.inf)
            active = np.ones(xs.shape, dtype=bool)
            for k, ck in enumerate(coeffs):
                t = ck * np.power(xs, -a - k)
                at = np.abs(t)
                np.copyto(alg_bound, at, where=active)
                active &= ~(at > last)
                np.add(alg, t, out=alg, where=active)
                last = at
            if len(coeffs) <= _F2_KMAX and active.any():
                raise OverflowError("1F2 algebraic coefficient overflows a double")
            alg *= apref
            alg_bound *= apref
            env = apref / math.sqrt(math.pi) * np.power(u, nu)
            theta = 2.0 * u + 0.5 * nu * math.pi
            val = alg + env * (np.cos(theta) * re - np.sin(theta) * im)
            bound = env * trunc + alg_bound + 2e-14 * (np.abs(alg) + env * (np.hypot(re, im) + 1.0))
    except FloatingPointError as exc:
        raise OverflowError(f"1F2 large-x expansion leaves the double range: {exc}") from exc
    return val.reshape(np.shape(x)), bound.reshape(np.shape(x))


# large-x expansion becomes competitive with the 50-digit series here
_F2_ASYM_MIN_X = 160.0


def _f2_highprec_series(a: float, b: float, c: float, x: float, digits: int):
    """Fixed-`digits` summation of the defining series; returns
    (value, abs_bound).  Not adaptive: callers escalate explicitly.

    Works on raw mpmath.libmp values: every step is the same rounded
    operation, in the same order, that mpf arithmetic under
    mpmath.workdps(digits) performs, at dps_to_prec(digits) bits with
    rounding to nearest, so results equal the mpf formulation bit for bit
    without its per-operation object dispatch."""
    prec = libmp.dps_to_prec(digits)
    rnd = libmp.round_nearest
    add, mul, div = libmp.mpf_add, libmp.mpf_mul, libmp.mpf_div
    mul_int, mpf_abs, from_int = libmp.mpf_mul_int, libmp.mpf_abs, libmp.from_int
    # convert the inputs once, as mpf(v) does (exactly when prec >= 53)
    aa, bb, cc, xx = (libmp.mpf_pos(libmp.from_float(v), prec, rnd) for v in (a, b, c, x))
    term = total = max_term = libmp.fone
    # loop-invariant part of the stopping test, 1e-8 * 10^-digits
    stop = mul(libmp.mpf_pow_int(from_int(10), -digits, prec, rnd), libmp.from_float(1e-8), prec, rnd)
    n = 0
    for n in range(1, 6000):
        m = from_int(n - 1)
        num = mul(add(aa, m, prec, rnd), xx, prec, rnd)
        den = mul_int(mul(add(bb, m, prec, rnd), add(cc, m, prec, rnd), prec, rnd), n, prec, rnd)
        term = div(mul(term, num, prec, rnd), den, prec, rnd)
        at = mpf_abs(term, prec, rnd)
        if libmp.mpf_gt(at, max_term):
            max_term = at
        total = add(total, term, prec, rnd)
        if libmp.mpf_lt(at, mul(stop, add(mpf_abs(total, prec, rnd), max_term, prec, rnd), prec, rnd)):
            break
    bound = libmp.to_float(max_term, rnd=rnd) * 10.0 ** (2 - digits) * max(1.0, 0.05 * n)
    return libmp.to_float(total, rnd=rnd), bound


def hyp1f2_with_bound(a: float, b: float, c: float, x: float,
                      policy: PrecisionPolicy = DEFAULT_POLICY):
    """1F2(a; b, c; x) with an absolute error bound.

    Route: direct double series while its cancellation bound meets the
    policy target; the large-x expansion for x <= -_F2_ASYM_MIN_X when its
    bound is at least as good; otherwise the fixed-50-digit series.  The
    expansion's Gamma prefactor needs a, b, c > 0, so any other parameters
    go to the 50-digit series at every large x.
    """
    _f2_pole_check(b, c)
    if x == 0.0:
        return 1.0, 0.0
    # past |x| ~ 110 the double series cancels away all its digits; do not
    # even attempt it (the sum would still run its full length)
    if x > -110.0:
        val, bound, _ = backend.hyp1f2_series(a, b, c, x)
        need = max(policy.target_abs_tol, policy.target_rel_tol * abs(val))
        if x > 0.0 or bound <= need:
            return val, bound
    ax = -x
    abound = math.inf
    if ax >= _F2_ASYM_MIN_X and min(a, b, c) > 0.0:
        aval, abound = _f2_asymptotic(a, b, c, ax)
        need = max(policy.target_abs_tol, policy.target_rel_tol * abs(aval))
        if abound <= need:
            return aval, abound
    hval, hbound = _f2_highprec_series(a, b, c, x, policy.highprec_digits)
    if abound < hbound:
        return aval, abound
    return hval, hbound


def hyp1f2(a: float, b: float, c: float, x: float,
           policy: PrecisionPolicy = DEFAULT_POLICY) -> float:
    """1F2(a; b, c; x); raises AccuracyError when the policy target is
    unachievable (the error object carries the achieved bound)."""
    val, bound = hyp1f2_with_bound(a, b, c, x, policy)
    if bound > max(policy.target_abs_tol, policy.target_rel_tol * abs(val)):
        raise AccuracyError("1F2 tolerance unachievable", val, bound)
    return val
