"""Scalar special-function kernels: gamma family (real, and complex on
arrays), Bessel J/I, their zeros, the 1F2 hypergeometric evaluator and
the scan that decides the sign of x -> 1F2(A; B, C; -x) on [0, inf).

Every other module consumes these.  All functions are pure and thread-safe;
the hot scalar loops are the kernels of `besselprob.backend`.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from . import backend
from .errors import AccuracyError

__all__ = [
    "ZeroTable",
    "ln_gamma",
    "ln_gamma_complex",
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
    "ScanOutcome",
    "f2_nonneg_scan",
]

ln_gamma = backend.ln_gamma
ln_gamma_complex = backend.ln_gamma_complex
digamma = backend.digamma
bessel_j = backend.bessel_j
bessel_i = backend.bessel_i
bessel_j_prime = backend.bessel_j_prime
bessel_j_normalized = backend.bessel_j_normalized
bessel_i_normalized = backend.bessel_i_normalized


@dataclass(frozen=True)
class ZeroTable:
    """First N positive zeros of J_alpha: finite, strictly increasing."""

    alpha: float
    zeros: tuple

    def __post_init__(self):
        zs = tuple(float(z) for z in self.zeros)
        object.__setattr__(self, "zeros", zs)
        if not zs or not 0.0 < zs[0] or not math.isfinite(zs[-1]):
            raise ValueError("zero table must hold finite positive zeros")
        for a, b in zip(zs, zs[1:]):
            if not b > a:
                raise ValueError("zeros must be strictly increasing")

    def __len__(self) -> int:
        return len(self.zeros)

    def __getitem__(self, i):
        return self.zeros[i]


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


def _refine_zero(alpha: float, a: float, b: float, fa: float, x: float) -> float:
    """Newton from `x` inside a maintained sign bracket, bisection fallback."""
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


# Grid step of the zero walk: zeros of J_alpha are more than 3.11 apart for
# every alpha > -1 (the least gap is j_2 - j_1 = 3.114 near alpha = -0.11),
# so a cell 0.9 pi = 2.83 wide holds at most one zero.
_ZERO_STEP = 0.9 * math.pi


@lru_cache(maxsize=128)
def bessel_zeros(alpha: float, count: int) -> ZeroTable:
    """First `count` positive zeros of J_alpha.

    Walks the grid x_k = lo + k * `_ZERO_STEP`, k = 1, 2, ..., from
    lo = sqrt(alpha (alpha + 2)) for alpha > 0 and lo = 0 otherwise.
    Since j_1 > lo (Watson, section 15.3), J_alpha > 0 on (lo, j_1), and
    the walk counts the sign at lo as positive.  A cell is narrower than
    any gap between zeros, so each sign change between grid points is one
    zero, and a grid point where J is exactly 0.0 is that zero.  Each sign
    change is refined by safeguarded Newton using
    J' = (J_{alpha-1} - J_{alpha+1})/2 inside its cell, started at
    McMahon's asymptotic guess when that lies in the cell and at the
    cell's midpoint otherwise; a step that leaves the bracket is replaced
    by bisection.  A zero is accepted as x - dx once the Newton step
    |dx| <= 5e-16 x, usually after one to three J evaluations.  The zeros
    are as accurate as `bessel_j` near them: a few ulps from one unit past
    `j_crossover`, up to ~1e-12 relative below it.

    The grid depends on alpha alone, so every table is a prefix of any
    longer one.  Any count is the prefix of the next power of two, and a
    table of 2^m > 1 zeros resumes the walk of the 2^(m-1) table at
    k = ceil((j_n - lo) / `_ZERO_STEP`), the point closing the cell of its
    last zero j_n, with fa = (-1)^n, the sign of J past j_n: the walk and
    its refinement read only fa's sign.  With j_n within an ulp of a grid
    point, rounding may move k by one; the cell so added or dropped holds
    no zero but j_n (the next is more than a cell on), and fa hides j_n,
    so no zero is skipped or found twice.  Tables are cached: repeated
    calls return the same table, and `cache_clear` forgets every zero.
    """
    alpha = float(alpha)
    count = operator.index(count)
    if not alpha > -1.0:
        raise ValueError(f"need alpha > -1, got {alpha!r}")
    if count < 1:
        raise ValueError("count must be >= 1")
    size = 1 << (count - 1).bit_length()
    if size != count:
        return ZeroTable(alpha=alpha, zeros=bessel_zeros(alpha, size).zeros[:count])
    lo = math.sqrt(alpha * (alpha + 2.0)) if alpha > 0.0 else 0.0
    zeros = list(bessel_zeros(alpha, count // 2).zeros) if count > 1 else []
    k = math.ceil((zeros[-1] - lo) / _ZERO_STEP) if zeros else 0
    a, fa = lo + k * _ZERO_STEP, (-1.0) ** len(zeros)
    while len(zeros) < count:
        k += 1
        b = lo + k * _ZERO_STEP
        fb = backend.bessel_j(alpha, b)
        if fb == 0.0:
            # the next zero is more than a step past b, so the next cell,
            # where fa = 0 shows no sign change, holds none
            zeros.append(b)
        elif fa * fb < 0.0:
            guess = _mcmahon_guess(alpha, len(zeros) + 1)
            start = guess if a < guess < b else 0.5 * (a + b)
            zeros.append(_refine_zero(alpha, a, b, fa, start))
        a, fa = b, fb
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
# 1F2 evaluation: direct series, exact fixed-point series, large-x expansion


@dataclass(frozen=True)
class _F2TailProfile:
    """Large-x structure of 1F2(a; b, c; -x).

    nu:  oscillation exponent a - b - c + 1/2.
    alg: leading algebraic coefficient (of x^{-a}); sign decides the
         eventual algebraic behaviour.
    osc: positive envelope coefficient of x^{nu/2} cos(2 sqrt x + nu pi/2).
    g1:  |g_1|, the modulus of the first correction coefficient of the
         oscillatory expansion (`_f2_osc_coeffs`).
    horizon: the first x = 64 * 2^k <= 1e8 at which the algebraic part,
         less its truncation bound, is positive and at least 10 times the
         oscillatory envelope (with the moduli of all its terms); None when
         there is none, as always where alg <= 0 or nu/2 >= -a.
    """

    nu: float
    alg: float
    osc: float
    g1: float
    horizon: Optional[float]


def _f2_pole_check(b: float, c: float):
    for name, v in (("b", b), ("c", c)):
        if v <= 0.0 and v == math.floor(v):
            raise ValueError(f"1F2 parameter {name}={v} sits on a series pole")


# number of correction terms kept in both large-x expansions
_F2_KMAX = 14


@lru_cache(maxsize=256)
def _f2_osc_coeffs(a: float, b: float, c: float) -> tuple:
    """Coefficients g_0 = 1, g_1, ..., g_{_F2_KMAX} of the oscillatory
    expansion e^{2iu} u^nu sum_k g_k u^{-k} (u = sqrt(x)) solving the 1F2
    ODE theta(theta+b-1)(theta+c-1) F + x (theta+a) F = 0.

    theta acts on e^{2iu} u^m as i u^{m+1} + (m/2) u^m, so the ODE maps
    e^{2iu} u^m to e^{2iu} ((nu-m) u^{m+2} + i A(m) u^{m+1} + B(m) u^m), with
    h = m/2, h1 = (m+1)/2,
      A(m) = (h+c-1)(h+b-1) + (h+c-1) h1 + (h1+b-1) h1,
      B(m) = (h+c-1)(h+b-1) h.
    The power u^{nu-k+2} of the series must vanish, which gives the
    recurrence k g_k = -(i A(m) g_{k-1} + B(m+1) g_{k-2}) at m = nu-k+1.
    """
    nu = a - b - c + 0.5
    g = [1.0 + 0j]
    for k in range(1, _F2_KMAX + 1):
        h = 0.5 * (nu - k + 1.0)
        h1 = h + 0.5
        amp = (h + c - 1.0) * (h + b - 1.0) + (h + c - 1.0) * h1 + (h1 + b - 1.0) * h1
        back = (h1 + c - 1.0) * (h1 + b - 1.0) * h1 * g[k - 2] if k > 1 else 0.0
        g.append(-(1j * amp * g[k - 1] + back) / k)
    return tuple(g)


def _f2_tail_profile(a: float, b: float, c: float) -> _F2TailProfile:
    _f2_pole_check(b, c)
    nu = a - b - c + 0.5
    pref = _f2_alg_coeffs(a, b, c)[0]
    alg = pref * rgamma(b - a) * rgamma(c - a)
    osc = pref / math.sqrt(math.pi)
    horizon = None
    if -2.0 * a - nu > 0.0 and alg > 0.0:
        xs = 64.0 * 2.0 ** np.arange(21)     # up to 1e8; an inf or nan is not dominated
        with np.errstate(over="ignore", invalid="ignore"):
            av, av_bound = _f2_alg_series(a, b, c, xs)
            u = np.sqrt(xs)
            envelope = osc * np.power(u, nu) * _f2_osc_series(a, b, c, u)[3]
            dominated = (av - av_bound >= 10.0 * envelope) & (av > 0.0)
        if dominated.any():
            horizon = float(xs[dominated.argmax()])
    return _F2TailProfile(nu=nu, alg=alg, osc=osc,
                          g1=abs(_f2_osc_coeffs(a, b, c)[1]), horizon=horizon)


@lru_cache(maxsize=256)
def _f2_alg_coeffs(a: float, b: float, c: float) -> tuple:
    """Parameter-only parts of the algebraic large-x expansion of
    1F2(a;b,c;-x): returns (pref, coeffs) with
    pref = Gamma(b) Gamma(c) / Gamma(a) and
    coeffs[k] = (-1)^k/k! Gamma(a+k) / (Gamma(b-a-k) Gamma(c-a-k)),
    the Mellin-Barnes residues (DLMF 16.11), so that term k of the series
    is pref * coeffs[k] * x^{-a-k}.  The tuple ends before the first
    coefficient whose Gamma factor overflows a double; raises
    OverflowError where pref does."""
    try:
        pref = math.exp(ln_gamma(b) + ln_gamma(c) - ln_gamma(a))
    except OverflowError:
        raise OverflowError(f"1F2 prefactor Gamma(b) Gamma(c) / Gamma(a) overflows a double "
                            f"at a={a!r}, b={b!r}, c={c!r}") from None
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


def _sum_to_smallest(terms, shape: tuple, dtype=float):
    """Sum an iterable of term arrays of `shape`, each element up to its
    first term larger in modulus than the one before (the mask
    `active`).  Returns (total, trunc, mag, active): the sums, the
    modulus of the term each element stopped at (else of its last term),
    the sums of the moduli kept, and which elements never stopped."""
    total = np.zeros(shape, dtype=dtype)
    trunc, mag = np.zeros(shape), np.zeros(shape)
    last = np.full(shape, math.inf)
    active = np.ones(shape, dtype=bool)
    for t in terms:
        at = np.abs(t)
        np.copyto(trunc, at, where=active)
        active &= ~(at > last)
        np.add(total, t, out=total, where=active)
        np.add(mag, at, out=mag, where=active)
        last = at
    return total, trunc, mag, active


def _f2_alg_series(a: float, b: float, c: float, x: np.ndarray):
    """Algebraic component of 1F2(a;b,c;-x) on an array x of large values
    (exact coefficients from the Mellin-Barnes residues); returns
    (values, trunc_bounds) arrays, each element stopped by
    `_sum_to_smallest`; raises OverflowError where one would run past the
    coefficients."""
    pref, coeffs = _f2_alg_coeffs(a, b, c)
    total, bound, _, active = _sum_to_smallest(
        (ck * np.power(x, -a - k) for k, ck in enumerate(coeffs)), x.shape)
    if len(coeffs) <= _F2_KMAX and active.any():
        raise OverflowError("1F2 algebraic coefficient overflows a double")
    return pref * total, pref * bound


def _f2_osc_series(a: float, b: float, c: float, u: np.ndarray):
    """The oscillatory sum s = sum_k g_k u^{-k} on an array u = sqrt(x),
    stopped by `_sum_to_smallest`; returns (re, im, trunc, mag): s, the
    modulus of the term it stopped at and the sum of the moduli it kept."""
    s, trunc, mag, _ = _sum_to_smallest(
        (gk * np.power(u, -k) for k, gk in enumerate(_f2_osc_coeffs(a, b, c))), u.shape, complex)
    return s.real, s.imag, trunc, mag


def _f2_asymptotic(a: float, b: float, c: float, x):
    """1F2(a;b,c;-x) by the large-x expansion (DLMF 16.11): the algebraic
    residue series plus env(x) Re(e^{i theta} s), theta = 2 sqrt(x) +
    nu pi/2.  Returns (value, abs_bound): floats for a float x > 0,
    arrays of x's shape for an ndarray (a float is the one-element array,
    so both give the same bits).

    The bound adds the two truncation terms, 2e-14 of the parts' sizes,
    and the phase term 4 * 2^-53 |theta| env |s|: theta is rounded by
    about 2^-52 |theta| before cos and sin see it.  Raises OverflowError
    where an element would run past the algebraic coefficients, and
    where any operation overflows or turns invalid."""
    xs = np.asarray(x, dtype=float).ravel()
    nu = a - b - c + 0.5
    try:
        with np.errstate(over="raise", invalid="raise"):
            u = np.sqrt(xs)
            re, im, trunc, _ = _f2_osc_series(a, b, c, u)
            alg, alg_bound = _f2_alg_series(a, b, c, xs)
            env = _f2_alg_coeffs(a, b, c)[0] / math.sqrt(math.pi) * np.power(u, nu)
            theta = 2.0 * u + 0.5 * nu * math.pi
            val = alg + env * (np.cos(theta) * re - np.sin(theta) * im)
            size = np.hypot(re, im)
            bound = (env * trunc + alg_bound + 2e-14 * (np.abs(alg) + env * (size + 1.0))
                     + 4.0 * 2.0 ** -53 * np.abs(theta) * env * size)
    except FloatingPointError as exc:
        raise OverflowError(f"1F2 large-x expansion leaves the double range: {exc}") from exc
    if isinstance(x, np.ndarray):
        return val.reshape(x.shape), bound.reshape(x.shape)
    return float(val[0]), float(bound[0])


# the double series is tried only for x > -_F2_SERIES_MAX_X: past |x| ~ 110
# it cancels away all its digits (the sum would still run its full length)
_F2_SERIES_MAX_X = 110.0
# the large-x expansion takes over from the fixed-point series here
_F2_ASYM_MIN_X = 160.0

# accuracy target of hyp1f2: a bound of at most max(_TARGET_ABS, _TARGET_REL |value|)
_TARGET_ABS = 1e-11
_TARGET_REL = 1e-12

# _hyp1f2_screened takes a cheaper enclosure as proof of a positive value
# where the value exceeds this many bounds: the margin at which
# f2_nonneg_scan takes a negative value as a verified hit
_F2_SCREEN_MARGIN = 8.0

# term cap of the fixed-point series: x = -1.45e6 takes about 4,400 terms,
# and past x ~ -2.7e6 it would need more
_F2_HP_TERMS = 6000


def _f2_highprec_series(a: float, b: float, c: float, x: float):
    """`backend.hyp1f2_fixed_point` capped at _F2_HP_TERMS terms:
    (value, abs_bound), or (nan, inf) past the cap."""
    a, b, c, x = (v.as_integer_ratio() for v in (a, b, c, x))
    return backend.hyp1f2_fixed_point(a, b, c, x, (1, 1), _F2_HP_TERMS)


def _expansion_or_fixed_point(a: float, b: float, c: float, x: float, val: float, bound: float):
    """hyp1f2_with_bound's pair where the double series does not settle x,
    from the large-x expansion's (val, bound), or (nan, inf) where it was
    not tried: that pair where its bound meets the target; otherwise the
    fixed-point series' pair, or the expansion's where its bound is smaller."""
    if bound <= max(_TARGET_ABS, _TARGET_REL * abs(val)):
        return val, bound
    hval, hbound = _f2_highprec_series(a, b, c, x)
    if bound < hbound:
        return val, bound
    return hval, hbound


def hyp1f2_with_bound(a: float, b: float, c: float, x: float):
    """1F2(a; b, c; x) with an absolute error bound.

    Route: direct double series for x > -_F2_SERIES_MAX_X (110) while its
    cancellation bound meets the target (_TARGET_ABS, _TARGET_REL); the
    large-x expansion for x <= -_F2_ASYM_MIN_X (160) when its bound meets
    the target; otherwise the exact fixed-point series, whose bound is
    half an ulp of its correctly rounded value plus about 1e-50, or the
    expansion where its bound is smaller.  The expansion's Gamma prefactor
    needs a, b, c > 0, so any other parameters go to the fixed-point
    series at every large x, as do points where the expansion leaves the
    double range (`_f2_asymptotic` raises OverflowError).  Past
    x ~ -2.7e6 the fixed-point series declines (nan, inf bound), so where
    the expansion misses the target there, or does not apply, the bound
    misses it too and `hyp1f2` raises AccuracyError.
    """
    _f2_pole_check(b, c)
    if x == 0.0:
        return 1.0, 0.0
    if x > -_F2_SERIES_MAX_X:
        val, bound, _ = backend.hyp1f2_series(a, b, c, x)
        if x > 0.0 or bound <= max(_TARGET_ABS, _TARGET_REL * abs(val)):
            return val, bound
    val, bound = math.nan, math.inf
    if -x >= _F2_ASYM_MIN_X and min(a, b, c) > 0.0:
        try:
            val, bound = _f2_asymptotic(a, b, c, -x)
        except OverflowError:   # the expansion leaves the double range
            pass
    return _expansion_or_fixed_point(a, b, c, x, val, bound)


def _hyp1f2_screened(a: float, b: float, c: float, x: "float | np.ndarray"):
    """hyp1f2_with_bound's pair, except where a cheaper enclosure shows the
    value positive: then (value, inf), "positive, no accuracy claimed".

    Only points -_F2_ASYM_MIN_X < x < 0 whose hyp1f2_with_bound pair comes
    from the fixed-point series are screened.  Below |x| =
    _F2_SERIES_MAX_X the enclosure is the double series' pair, which that
    route computes anyway; from there (a, b, c > 0) it is the large-x
    expansion's.  It screens a point when its value exceeds
    _F2_SCREEN_MARGIN (8) times its bound; else the point takes the
    fixed-point series, as in hyp1f2_with_bound.  For |x| < 160 the
    expansion's bound can fall short of its error (by up to ~3 % where
    measured), so a screened point keeps no bound; the margin covers the
    shortfall.  A screened value is thus > 0 and cannot pass
    f2_nonneg_scan's hit rule v < -_F2_SCREEN_MARGIN bound.

    A 1-D ndarray x gives (values, bounds) arrays, each element the float
    call's bits.  Given a, b, c > 0, the elements x <= -_F2_SERIES_MAX_X
    take one array `_f2_asymptotic` call, and those it leaves open (not
    screened in the band, bound off the target from _F2_ASYM_MIN_X on)
    settle from that call's pair by `_expansion_or_fixed_point`, which
    sums the fixed-point series where needed.  All other elements, and all
    of them where the array call raises OverflowError, take one float call
    each.
    """
    _f2_pole_check(b, c)
    if isinstance(x, np.ndarray):
        vals, bounds = np.empty(x.shape), np.empty(x.shape)
        rest = np.ones(x.shape, dtype=bool)
        large = np.flatnonzero(x <= -_F2_SERIES_MAX_X) if min(a, b, c) > 0.0 else []
        if len(large):
            try:
                v, bnd = _f2_asymptotic(a, b, c, -x[large])
            except OverflowError:   # the expansion leaves the double range
                pass
            else:
                band = x[large] > -_F2_ASYM_MIN_X
                shown = band & (v > _F2_SCREEN_MARGIN * bnd)
                vals[large], bounds[large] = v, np.where(shown, math.inf, bnd)
                rest[large] = False
                missed = bnd > np.maximum(_TARGET_ABS, _TARGET_REL * np.abs(v))
                for j in np.flatnonzero(~shown & (band | missed)):
                    # in the band hyp1f2_with_bound tries no expansion
                    pair = (math.nan, math.inf) if band[j] else (v[j], bnd[j])
                    i = large[j]
                    vals[i], bounds[i] = _expansion_or_fixed_point(a, b, c, float(x[i]), *pair)
        for i in np.flatnonzero(rest):
            vals[i], bounds[i] = _hyp1f2_screened(a, b, c, float(x[i]))
        return vals, bounds
    ax = -x
    if not 0.0 < ax < _F2_ASYM_MIN_X:
        return hyp1f2_with_bound(a, b, c, x)
    val, bound = math.nan, math.inf
    if ax < _F2_SERIES_MAX_X:
        val, bound, _ = backend.hyp1f2_series(a, b, c, x)
        if bound <= max(_TARGET_ABS, _TARGET_REL * abs(val)):
            return val, bound
    elif min(a, b, c) > 0.0:
        try:
            val, bound = _f2_asymptotic(a, b, c, ax)
        except OverflowError:   # the expansion leaves the double range
            pass
    if val > _F2_SCREEN_MARGIN * bound:
        return val, math.inf
    return _f2_highprec_series(a, b, c, x)


def hyp1f2(a: float, b: float, c: float, x: float) -> float:
    """1F2(a; b, c; x); raises AccuracyError when the target is
    unachievable (the error object carries the achieved bound)."""
    val, bound = hyp1f2_with_bound(a, b, c, x)
    if bound > max(_TARGET_ABS, _TARGET_REL * abs(val)):
        raise AccuracyError("1F2 tolerance unachievable", val, bound)
    return val


# ---------------------------------------------------------------------------
# 1F2 nonnegativity scan


@dataclass(frozen=True)
class ScanOutcome:
    kind: str               # Nonnegative | Negative | Indeterminate
    witness: Optional[float] = None   # negativity location (Negative)
    bound: Optional[float] = None     # pointwise-verified horizon
    detail: str = ""


_SCAN_X_CAP = 1e8
# The scan evaluates one point per _hyp1f2_screened call below
# _F2_SERIES_MAX_X and _SCAN_CHUNK grid points per array call from there
# on.  Hits lie low: on existence benchmark seeds 1 and 5, all 78 verified
# witnesses lie below x = 160, and marching point by point, stopping at the
# hit, skips most of the evaluations a whole chunk would make.  Past the
# double series one array call screens the band up to _F2_ASYM_MIN_X,
# where point by point each fixed-point sum took ~70 us.
_SCAN_CHUNK = 1024


def _is_square_structure(A: float, B: float, C: float) -> bool:
    """Detect the parameter set where the function is a normalized squared
    Bessel function (B = 2A, C = A + 1/2 up to ordering), hence
    nonnegative identically."""
    for bb, cc in ((B, C), (C, B)):
        if abs(bb - 2.0 * A) < 1e-12 and abs(cc - (A + 0.5)) < 1e-12:
            return True
    return False


def f2_nonneg_scan(A: float, B: float, C: float) -> ScanOutcome:
    """Decide the sign pattern of x -> 1F2(A; B, C; -x) on [0, inf).

    March in y = sqrt(x) (16 points per oscillation period), verify any
    candidate negative value against the evaluator's error bound with
    bisection refinement of the crossing, and close the tail by the
    large-x structure: the algebraic term x^{-A} (coefficient P) governs
    when it strictly dominates the oscillatory envelope x^{nu/2}
    (coefficient Q > 0), and the scan stops at the profile's horizon.
    A point is a hit where v < -_F2_SCREEN_MARGIN bound; the points come
    from `_hyp1f2_screened`, whose screened points are positive, so every
    outcome is the one hyp1f2_with_bound alone gives.  Raises ValueError
    unless A, B and C lie in (0, inf).
    """
    if not all(0.0 < v < math.inf for v in (A, B, C)):
        raise ValueError("need positive finite parameters")
    if _is_square_structure(A, B, C):
        return ScanOutcome(kind="Nonnegative", bound=math.inf,
                           detail="squared-Bessel structure")
    prof = _f2_tail_profile(A, B, C)
    x_stop = prof.horizon
    boundary = abs(-2.0 * A - prof.nu) < 1e-9

    # sign decisions are made against the evaluator's own error bound (an
    # absolute floor would blind the scan wherever the function itself
    # decays below it)
    dy = math.pi / 16.0
    y = dy
    y_end = math.sqrt(_SCAN_X_CAP if x_stop is None else x_stop) + dy
    prev_x, prev_v = 0.0, 1.0
    ambiguous = 0.0
    while y <= y_end:
        # one chunk: every point below the split, or the next _SCAN_CHUNK
        # points past it (the running sum keeps the grid's bits)
        large = y * y >= _F2_SERIES_MAX_X
        xs = []
        while y <= y_end and (len(xs) < _SCAN_CHUNK if large else y * y < _F2_SERIES_MAX_X):
            xs.append(y * y)
            y += dy
        if large:
            vs, bnds = _hyp1f2_screened(A, B, C, -np.array(xs))
        else:
            pts = []
            for x in xs:
                pts.append(_hyp1f2_screened(A, B, C, -x))
                if pts[-1][0] < -_F2_SCREEN_MARGIN * pts[-1][1]:
                    break
            vs, bnds = np.array(pts).T
        hits = np.flatnonzero(vs < -_F2_SCREEN_MARGIN * bnds)
        before = vs[:hits[0]] if hits.size else vs
        neg = before[before < 0.0]
        if neg.size:
            ambiguous = max(ambiguous, float(-neg.min()))
        if before.size:
            prev_x, prev_v = xs[before.size - 1], float(before[-1])
        if hits.size:
            v, bnd = float(vs[hits[0]]), float(bnds[hits[0]])
            witness = _refine_witness(A, B, C, prev_x, prev_v, xs[hits[0]], v)
            return ScanOutcome(kind="Negative", witness=witness,
                               detail=f"verified value {v:.6g} (bound {bnd:.3g})")

    if x_stop is not None:
        return ScanOutcome(kind="Nonnegative", bound=x_stop,
                           detail="scan clean; algebraic tail dominates")
    if boundary:
        # equal decay: the trough value behaves like (P - Q) x^{-A}
        margin = prof.osc * (prof.g1 / math.sqrt(_SCAN_X_CAP) + 1e-12)
        if prof.alg - prof.osc > margin:
            return ScanOutcome(kind="Nonnegative", bound=_SCAN_X_CAP,
                               detail="boundary case, algebraic coefficient wins")
        if prof.alg - prof.osc < -margin:
            return ScanOutcome(kind="Indeterminate",
                               detail="boundary case: troughs negative beyond horizon, "
                                      "no verified witness inside it")
        return ScanOutcome(kind="Indeterminate", detail="boundary case too close to call")
    # oscillation dominates (gap < 0) but no verified witness inside the cap
    return ScanOutcome(kind="Indeterminate",
                       detail=f"no verified witness below x={_SCAN_X_CAP:g}; "
                              f"ambiguity {ambiguous:.3g}")


def _refine_witness(A, B, C, x_lo, v_lo, x_hi, v_hi) -> float:
    """Bisect the bracketing sign change, then return the verified negative
    point just past it (the scanned hit when no crossing brackets)."""
    if not (v_lo > 0.0 > v_hi):
        return x_hi
    lo, hi = x_lo, x_hi
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        v, bnd = hyp1f2_with_bound(A, B, C, -mid)
        if v < -_F2_SCREEN_MARGIN * bnd:
            hi = mid
        elif v > 0.0:
            lo = mid
        else:
            break
        if hi - lo <= 1e-9 * max(1.0, hi):
            break
    return hi
