"""Scalar kernels: log-gamma, digamma, Bessel J/I, 1F2 series.

The functions in `__all__` are the library's one kernel implementation;
every module reaches them through `besselprob.backend`.  All but
`ln_gamma_complex`, which works on complex arrays, take and return floats.
Everything here is pure and reentrant.
"""

from __future__ import annotations

import math
import sys
from functools import reduce
from operator import add, mul

import numpy as np

__all__ = [
    "ln_gamma",
    "ln_gamma_complex",
    "bessel_j_normalized",
    "bessel_i_normalized",
    "digamma",
    "bessel_j",
    "bessel_j_asymptotic",
    "bessel_j_prime",
    "bessel_i",
    "hyp1f2_series",
    "hyp1f2_fixed_point",
    "hankel_terms",
    "bessel_j_error_bound",
    "j_crossover",
    "BACKEND_NAME",
]

BACKEND_NAME = "python"

_LN_SQRT_2PI = 0.9189385332046727417803297  # log sqrt(2*pi)
_LN_PI = math.log(math.pi)

# Lanczos coefficients, g = 7, 9 terms (double precision grade).
_LANCZOS_G = 7.0
_LANCZOS_C = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)


def ln_gamma(x: float) -> float:
    """log Gamma(x) for x > 0, relative error ~1e-15."""
    if not x > 0.0:
        raise ValueError(f"ln_gamma requires x > 0, got {x!r}")
    if x < 0.5:
        # reflection keeps the Lanczos argument away from the poles
        return math.log(math.pi / math.sin(math.pi * x)) - ln_gamma(1.0 - x)
    acc = _LANCZOS_C[0]
    for k in range(1, 9):
        acc += _LANCZOS_C[k] / (x - 1.0 + k)
    t = x + _LANCZOS_G - 0.5
    return _LN_SQRT_2PI + (x - 0.5) * math.log(t) - t + math.log(acc)


def ln_gamma_complex(z) -> np.ndarray:
    """log Gamma(z) elementwise for complex z off the poles: an array of
    z's shape (a scalar z gives a 0-d array).

    Re z >= 1/2 sums the Lanczos series of `ln_gamma`.  Re z < 1/2 uses
    the reflection log Gamma(z) = log pi - log sin(pi z) - log Gamma(1 - z)
    (DLMF 5.5.3) with sin(pi z) = (i/2) e^{-i pi z} (1 - e^{2 i pi z}) for
    Im z >= 0 and the conjugate form below the axis, so the logarithm is
    taken of factors that stay in the double range for every Im z.  There
    the imaginary part may differ from the principal branch by a multiple
    of 2 pi, which exp does not see.
    """
    z = np.asarray(z, dtype=complex)
    flat = z.ravel()
    left = flat.real < 0.5
    w = np.where(left, 1.0 - flat, flat)
    acc = np.full(w.shape, _LANCZOS_C[0], dtype=complex)
    for k in range(1, 9):
        acc += _LANCZOS_C[k] / (w - 1.0 + k)
    t = w + _LANCZOS_G - 0.5
    out = _LN_SQRT_2PI + (w - 0.5) * np.log(t) - t + np.log(acc)
    if left.any():
        zl = flat[left]
        sgn = np.where(zl.imag < 0.0, -1.0, 1.0)
        log_sin = (1j * sgn * (0.5 * math.pi - math.pi * zl) - math.log(2.0)
                   + np.log1p(-np.exp(2j * math.pi * sgn * zl)))
        out[left] = _LN_PI - log_sin - out[left]
    return out.reshape(z.shape)


# Asymptotic digamma below this threshold loses the ~1e-15 target.
_DIGAMMA_LIFT = 10.0


def digamma(x: float) -> float:
    """psi(x) for x > 0: recurrence lift to x >= 10, then asymptotic series."""
    if not x > 0.0:
        raise ValueError(f"digamma requires x > 0, got {x!r}")
    acc = 0.0
    while x < _DIGAMMA_LIFT:
        acc -= 1.0 / x
        x += 1.0
    inv = 1.0 / x
    inv2 = inv * inv
    # B_{2k}/(2k) x^{-2k} terms through k = 7
    tail = inv2 * (1.0 / 12.0
                   - inv2 * (1.0 / 120.0
                             - inv2 * (1.0 / 252.0
                                       - inv2 * (1.0 / 240.0
                                                 - inv2 * (1.0 / 132.0
                                                           - inv2 * (691.0 / 32760.0
                                                                     - inv2 * (1.0 / 12.0)))))))
    return acc + math.log(x) - 0.5 * inv - tail


def j_crossover(alpha: float) -> float:
    """Smallest argument where the large-argument expansion is reliable
    (~1e-12); calibrated empirically, growing like alpha^2/4 for large
    orders.  Below it the power series is used, or past `_SERIES_BOUND_MAX`
    (orders above ~7) the exact fixed-point sum `_bessel_j_fixed_point`."""
    return max(14.0, 0.25 * alpha * alpha + 2.0)


_MAX_SERIES_TERMS = 400


# Stopping rules and the route switch of `bessel_j`.
_HANKEL_TERMS = 40          # the P/Q sums stop before term k = 40 ...
_HANKEL_TINY = 1e-18        # ... or at a term this small, or growing
_SERIES_STOP = 1e-17        # the series stops at a term this small relative to its sum
_SERIES_BOUND_MAX = 2e-11   # a larger series bound hands over to the fixed-point sum
_SERIES_LOG_MAX = 700.0     # a larger log prefactor starts the series at inf, before exp
                            # overflows (its bound exceeds _SERIES_BOUND_MAX anyway)

# (2k - 1)^2 of the Hankel term ratio, and the alternating signs of P's
# and of Q's terms
_ODD_SQUARES = tuple((2.0 * k - 1.0) ** 2 for k in range(_HANKEL_TERMS + 1))
_SIGNS = (1.0, -1.0) * (_HANKEL_TERMS // 2)


def _half_integer_order(alpha: float) -> int:
    """Return k for alpha = k + 1/2 with k in [-1, 6], else -2."""
    k = math.floor(alpha)
    if alpha - k == 0.5 and -1 <= k <= 6:
        return int(k)
    return -2


def _half_integer_k(alpha: float, z: float) -> int:
    """Return k for alpha = k + 1/2 with k in [-1, 6] when the closed form
    is safe at z, else -2.

    The trigonometric closed forms use k forward recurrence steps, which
    amplify rounding by ~(2k-1)!! (2/z)^k; only safe once z outgrows k.
    """
    k = _half_integer_order(alpha)
    if k != -2 and (k < 1 or z >= 2.0 * k + 2.0):
        return k
    return -2


def _bessel_half(k: int, z: float, modified: bool) -> float:
    """J_{k+1/2}(z), or I_{k+1/2}(z) if `modified`, from the closed
    trigonometric (hyperbolic) forms at orders -1/2 and 1/2 by k forward
    recurrence steps, safe for k <= 6.  I's step I_{nu-1} - (2 nu/z) I_nu
    is the negation of J's (2 nu/z) J_nu - J_{nu-1}."""
    cos, sin, sign = (math.cosh, math.sinh, -1.0) if modified else (math.cos, math.sin, 1.0)
    c = math.sqrt(2.0 / (math.pi * z))
    jm = c * cos(z)             # order -1/2
    if k == -1:
        return jm
    jc = c * sin(z)             # order +1/2
    nu = 0.5
    for _ in range(k):
        jm, jc = jc, sign * ((2.0 * nu / z) * jc - jm)
        nu += 1.0
    return jc


def _bessel_j_series_bound(alpha: float, z: float) -> tuple[float, float]:
    """Kahan-compensated power series with a cancellation bound
    (~eps * max term); the bound explodes once e^z outruns the order
    suppression, and is inf where the terms leave the double range."""
    half = 0.5 * z
    log_term = alpha * math.log(half) - ln_gamma(alpha + 1.0)
    term = math.exp(log_term) if log_term < _SERIES_LOG_MAX else math.inf
    ratio = -half * half
    total = term
    comp = 0.0
    max_term = abs(term)
    for n in range(1, _MAX_SERIES_TERMS):
        term *= ratio / (n * (n + alpha))
        at = abs(term)
        if at > max_term:
            max_term = at
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        if at <= _SERIES_STOP * (abs(total) + 1e-300):
            break
    return total, 4e-16 * max_term


def _hankel_series(alpha: float, z: float) -> tuple[list, float]:
    """The terms t_k = a_k(alpha) z^{-k} of the large-argument expansion
    kept before the first one that is no smaller than its predecessor,
    below _HANKEL_TINY or at index _HANKEL_TERMS, and that first
    neglected term."""
    mu = 4.0 * alpha * alpha
    terms = [1.0]
    term = 1.0
    eight_z = 8.0 * z
    prev = math.inf
    for k in range(1, _HANKEL_TERMS + 1):
        term *= (mu - _ODD_SQUARES[k]) / (k * eight_z)
        at = abs(term)
        if at >= prev or at < _HANKEL_TINY or k == _HANKEL_TERMS:
            break
        prev = at
        terms.append(term)
    return terms, term


def hankel_terms(alpha: float, z: float) -> tuple[list, float]:
    """The terms t_k = a_k(alpha) z^{-k} of the large-argument expansion,
    W = P + iQ = sum_k t_k i^k, that `bessel_j_asymptotic` sums at z, and
    a bound on |P - P_N| + |Q - Q_N| for the truncated P_N, Q_N.

    By DLMF 10.17(iii), for real alpha and z > 0 the remainder of P and
    of Q is bounded by its first neglected term once that term's index
    k >= alpha - 1/2; the bound adds |t_k| from the first neglected index
    up to the first P and the first Q index past that point.
    """
    terms, term = _hankel_series(alpha, z)
    mu = 4.0 * alpha * alpha
    eight_z = 8.0 * z
    k = first = len(terms)
    rest = 0.0
    while True:
        rest += abs(term)
        if k > first and k - 1 >= alpha - 0.5:
            return terms, rest
        k += 1
        term *= (mu - (2.0 * k - 1.0) ** 2) / (k * eight_z)


def bessel_j_error_bound(alpha: float, z: float) -> float:
    """A bound on |bessel_j(alpha, x) - J_alpha(x)| for every 0 < x <= z
    with |J_alpha(x)| <= max(1, |J_alpha(z)|).

    That is all of (0, z] for alpha >= 0, where |J| <= 1.  For
    -1 < alpha < 0, J_alpha falls from +inf at 0 to its first zero and
    stays within [-1, 1] once it has fallen through 1, so below that
    point the bound holds at z alone.

    The power series serves x below `j_crossover`, or for the
    half-integer orders k + 1/2 below 2k + 2, where the closed form takes
    over (nowhere for k < 1).  Its cancellation bound grows with x until
    the fixed-point sum takes over past `_SERIES_BOUND_MAX`, so that part
    is the bound at the top of its range, capped there.  Where the Hankel
    expansion serves, its remainder at j_crossover (`hankel_terms`) and
    the rounding of the phase, ~eps x, scaled by sqrt(2/(pi x)), are
    added.  Every route is allowed 8 eps where |J| <= 1.  The series'
    prefactor (x/2)^alpha / Gamma(alpha+1) carries the rounding of its
    exponent, 4 eps (2 + |alpha log(x/2)| + |log Gamma(alpha+1)|)
    relative to J: taken at the top of the series' range where |J| <= 1
    (there the error alone reaches 13 eps, at alpha = 5.82, x = 7.03), and
    at z where |J(z)| > 1.
    """
    eps = 2.0 ** -52
    k = _half_integer_order(alpha)
    zc = j_crossover(alpha)
    top = min(z, zc) if k == -2 else min(z, 2.0 * k + 2.0) if k >= 1 else 0.0
    bound = 8.0 * eps
    if alpha < 0.0 and z > 0.0:
        jz = abs(bessel_j(alpha, z))
        if jz > 1.0:
            lg = abs(alpha * math.log(0.5 * z)) + abs(ln_gamma(alpha + 1.0))
            bound = 4.0 * eps * (2.0 + lg) * jz
    if top > 0.0:
        lg = abs(alpha * math.log(0.5 * top)) + abs(ln_gamma(alpha + 1.0))
        bound = max(bound, 4.0 * eps * (2.0 + lg),
                    min(_bessel_j_series_bound(alpha, top)[1], _SERIES_BOUND_MAX))
    if k == -2 and z >= zc:
        rest = hankel_terms(alpha, zc)[1]
        bound = max(bound, math.sqrt(2.0 / (math.pi * zc)) * (rest + eps * (z + 4.0)))
    return bound


def bessel_j_asymptotic(alpha: float, z: float) -> float:
    """Large-argument form sqrt(2/(pi z)) (P cos w - Q sin w), with
    P + iQ = sum_k t_k i^k over the terms of `_hankel_series`."""
    terms = _hankel_series(alpha, z)[0]
    # P = t_0 - t_2 + t_4 - ..., Q = t_1 - t_3 + ..., each summed in order
    p = reduce(add, map(mul, terms[0::2], _SIGNS))
    q = reduce(add, map(mul, terms[1::2], _SIGNS), 0.0)
    w = z - alpha * math.pi / 2.0 - math.pi / 4.0
    return math.sqrt(2.0 / (math.pi * z)) * (p * math.cos(w) - q * math.sin(w))


def _require_order(name: str, alpha: float) -> None:
    """Raise the domain error for an order that is not above -1 (NaN
    included)."""
    if not alpha > -1.0:
        raise ValueError(f"{name} requires alpha > -1, got {alpha!r}")


def _require_finite_z(name: str, z: float) -> None:
    """Raise the domain error for an argument that is negative, infinite
    or NaN."""
    if not 0.0 <= z < math.inf:
        raise ValueError(f"{name} requires finite z >= 0, got {z!r}")


def bessel_j(alpha: float, z: float) -> float:
    """J_alpha(z) for alpha > -1, finite z >= 0."""
    _require_order("bessel_j", alpha)
    _require_finite_z("bessel_j", z)
    if z == 0.0:
        if alpha < 0.0:
            raise ZeroDivisionError("J_alpha(0) is singular for alpha < 0")
        return 1.0 if alpha == 0.0 else 0.0
    k = _half_integer_k(alpha, z)
    if k != -2:
        return _bessel_half(k, z, False)
    if z >= j_crossover(alpha):
        return bessel_j_asymptotic(alpha, z)
    val, bound = _bessel_j_series_bound(alpha, z)
    return val if bound <= _SERIES_BOUND_MAX else _bessel_j_fixed_point(alpha, z)


def _bessel_j_fixed_point(alpha: float, z: float) -> float:
    """J_alpha(z) = (z/2)^f / Gamma(f+1) F 0F1(; alpha+1; -z^2/4) with
    n = max(0, floor(alpha)), f = alpha - n, F = prod_{k=1..n} (z/2)/(f+k):
    0F1 as 1F2 at a = b = 1, 50 digits, no term cap, F folded into the sum
    before its one rounding (F alone may overflow: ~1e317 at (180.3, 8000))."""
    n = max(0, math.floor(alpha))
    f = alpha - n
    (pa, qa), (pf, qf), (pz, qz) = (v.as_integer_ratio() for v in (alpha, f, z))
    fold = ((pz * qf) ** n, (2 * qz) ** n * math.prod(pf + k * qf for k in range(1, n + 1)))
    val, _ = hyp1f2_fixed_point((1, 1), (1, 1), (pa + qa, qa), (-pz * pz, 4 * qz * qz), fold,
                                sys.maxsize)
    return val * (0.5 * z) ** f / math.gamma(f + 1.0)


def bessel_j_prime(alpha: float, z: float) -> float:
    """J_alpha'(z) via (J_{alpha-1} - J_{alpha+1}) / 2 for alpha > -1,
    finite z >= 0.

    For alpha <= 0 the order alpha-1 leaves the supported range, so the
    equivalent recurrence form (alpha/z) J_alpha - J_{alpha+1} is used.
    At z = 0, J_0'(0) = -J_1(0) = 0, and the other orders in (-1, 1) are
    singular (ZeroDivisionError).
    """
    _require_order("bessel_j_prime", alpha)
    _require_finite_z("bessel_j_prime", z)
    if z == 0.0 and alpha < 1.0:
        if alpha == 0.0:
            return 0.0
        raise ZeroDivisionError(f"J_alpha'(0) is singular for -1 < alpha < 1, alpha != 0 "
                                f"(alpha = {alpha!r})")
    if alpha > 0.0:
        return 0.5 * (bessel_j(alpha - 1.0, z) - bessel_j(alpha + 1.0, z))
    return (alpha / z) * bessel_j(alpha, z) - bessel_j(alpha + 1.0, z)


def _normalized_series(alpha: float, r: float) -> float:
    """sum_n r^n / (n! (alpha+1)_n): the power series of J_alpha (r =
    -z^2/4) or I_alpha (r = z^2/4) with the (z/2)^alpha / Gamma(alpha+1)
    prefactor removed."""
    term = 1.0
    total = 1.0
    for n in range(1, _MAX_SERIES_TERMS):
        term *= r / (n * (n + alpha))
        total += term
        if abs(term) <= _SERIES_STOP * (abs(total) + 1e-300):
            break
    return total


def bessel_j_normalized(alpha: float, z: float) -> float:
    """Gamma(alpha+1) (z/2)^{-alpha} J_alpha(z): the removable-singularity
    form, equal to 1 at z = 0.  Stable for all z >= 0 and alpha > -1."""
    _require_order("bessel_j_normalized", alpha)
    _require_finite_z("bessel_j_normalized", z)
    if z <= 1e-2 or (z <= 14.0 and _half_integer_k(alpha, z) == -2):
        return _normalized_series(alpha, -0.25 * z * z)
    return bessel_j(alpha, z) * math.exp(ln_gamma(alpha + 1.0) - alpha * math.log(0.5 * z))


_I_OVERFLOW_Z = 690.0


def bessel_i_normalized(alpha: float, z: float) -> float:
    """Gamma(alpha+1) (z/2)^{-alpha} I_alpha(z); equal to 1 at z = 0 and
    >= 1 for all real z (even in z).  OverflowError as `bessel_i` for
    |z| past ~690, infinite z included."""
    _require_order("bessel_i_normalized", alpha)
    if math.isnan(z):
        raise ValueError(f"bessel_i_normalized requires real z, got {z!r}")
    z = abs(z)
    if z <= 1e-2:
        return _normalized_series(alpha, 0.25 * z * z)
    return bessel_i(alpha, z) * math.exp(ln_gamma(alpha + 1.0) - alpha * math.log(0.5 * z))


def bessel_i(alpha: float, z: float) -> float:
    """I_alpha(z) for alpha > -1, z >= 0.  All series terms are positive so
    there is no cancellation; raises OverflowError past z ~ 690 (z = inf
    included) with the log-scale value in the message."""
    _require_order("bessel_i", alpha)
    if not z >= 0.0:
        raise ValueError(f"bessel_i requires z >= 0, got {z!r}")
    if z == 0.0:
        if alpha < 0.0:
            raise ZeroDivisionError("I_alpha(0) is singular for alpha < 0")
        return 1.0 if alpha == 0.0 else 0.0
    if z > _I_OVERFLOW_Z:
        log_val = z - 0.5 * math.log(2.0 * math.pi * z) if z < math.inf else z
        raise OverflowError(f"I_alpha overflow: log I_{alpha}({z}) ~ {log_val:.6g}")
    k = _half_integer_k(alpha, z)
    if k != -2:
        return _bessel_half(k, z, True)
    half = 0.5 * z
    term = math.exp(alpha * math.log(half) - ln_gamma(alpha + 1.0))
    ratio = half * half
    total = term
    for n in range(1, 4 * _MAX_SERIES_TERMS):
        term *= ratio / (n * (n + alpha))
        total += term
        if term <= 1e-17 * total:
            break
    return total


def hyp1f2_series(a: float, b: float, c: float, x: float) -> tuple[float, float, int]:
    """Double-precision 1F2(a; b, c; x) by direct summation.

    Returns (value, abs_error_bound, terms).  The bound tracks the largest
    intermediate term: for x < 0 the sum cancels down from that magnitude
    and the result is unreliable once the bound swamps the value.
    """
    term = 1.0
    total = 1.0
    comp = 0.0
    max_term = 1.0
    n = 0
    for n in range(1, 4 * _MAX_SERIES_TERMS):
        term *= (a + n - 1.0) * x / ((b + n - 1.0) * (c + n - 1.0) * n)
        at = abs(term)
        if at > max_term:
            max_term = at
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        if at <= 1e-18 * (abs(total) + max_term * 1e-16):
            break
    err = 4.0e-15 * max_term * (1.0 + n / 16.0)
    return total, err, n


def hyp1f2_fixed_point(a: tuple, b: tuple, c: tuple, x: tuple, scale: tuple,
                       max_terms: int) -> tuple[float, float]:
    """scale * 1F2(a; b, c; x) summed exactly in binary fixed point; each
    argument but max_terms is an exact rational as an int pair
    (numerator, positive denominator).  Returns (value, abs_bound), the
    value correctly rounded, or (nan, inf) where the sum needs max_terms
    terms or more (sys.maxsize: no cap).  Term n is T_n = floor(T_{n-1}
    num_n / den_n) in units of 2^-P, from T_0 = floor(scale 2^P), with
    P = floor(R) + 50 log2(10) + 16, R the largest rise of the exact terms:
    log2 |t_n| less the least of 0 and log2 |t_k|, k <= n (log2 of the
    peak term unless a term below 1 precedes it).  A floor at term k
    reaches term n times |t_n / t_k| <= 2^R, so the error is about
    N 2^-182.  The bound adds the carried floors (`carried`: + 1 for each
    new floor, + 1 for flooring the carry), the tail past the last term N,
    after which every ratio is at most 1/2, and half an ulp of the
    returned double."""
    (pa, qa), (pb, qb), (pc, qc), (px, qx), (sn, sd) = a, b, c, x, scale
    fa, fb, fc, fx = pa / qa, pb / qb, pc / qc, px / qx
    ax = abs(fx)
    big, small = max(fb, fc), min(fb, fc)
    lowest = min(fa, small)
    guard = math.ceil(50 * math.log2(10.0)) + 16
    log2 = math.log2
    log_t = log2(abs(sn)) - log2(sd)
    low = min(0.0, log_t)           # lowest log2 |term| so far, or 0
    rise = log_t - low
    tail = True
    for n in range(1, max_terms):
        m = n - 1
        if fa + m == 0.0:           # term n and all later ones vanish
            last, tail = m, False
            break
        log_t += log2(abs((fa + m) * fx / (fb + m) / (fc + m) / n))
        if log_t < low:
            low = log_t
        if log_t - low > rise:
            rise = log_t - low
        # for k >= n with a + k, b + k, c + k > 0 the ratio of term k + 1
        # to term k is at most rho: (a + k) / (big + k) and
        # 1 / ((small + k) (k + 1)) do not grow with k
        elif log_t + rise + guard < 0.0 and lowest + n > 0.0:
            rho = ax * max(1.0, (fa + n) / (big + n)) / ((small + n) * (n + 1))
            if rho <= 0.5 * (1.0 - 1e-12):
                last = n
                break
    else:
        return math.nan, math.inf
    prec = math.floor(rise) + guard
    kn, kd = px * qb * qc, qa * qx
    g = math.gcd(kn, kd)
    kn, kd = kn // g, kd // g
    term, rem = divmod(sn << prec, sd)
    total = term
    carried = err = 1 if rem else 0
    for n in range(1, last + 1):
        m = n - 1
        num = (pa + m * qa) * kn
        den = (pb + m * qb) * (pc + m * qc) * n * kd
        term = term * num // den
        carried = abs(carried * num // den) + 2
        total += term
        err += carried
    if tail:
        err += abs(term) + carried
    value = total / (1 << prec)
    # the factor covers the three roundings of this line
    bound = (err / (1 << prec) + 0.5 * math.ulp(value)) * (1.0 + 2.0 ** -50)
    return value, bound
