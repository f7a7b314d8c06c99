"""Quadrature engines: adaptive Gauss-Legendre panels, tanh-sinh for
endpoint singularities, and the oscillatory infinite integrals: the moment
of cos by its cosine series on [0, pi/2] and an incomplete Gamma continued
fraction beyond, the squared-Bessel Mellin integral by the termwise
integral of the 1F2 power series of J^2 and panels up to its first zero,
panels per zero gap up to a zero past the Hankel crossover, and a
closed-form tail beyond it; its nodes, their Bessel values and the tail's
Hankel terms depend on the order alone and are computed once per order.
"""

from __future__ import annotations

import bisect
import cmath
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from . import backend
from .errors import DivergenceError
from .specfun import bessel_zeros, ln_gamma

__all__ = [
    "QuadratureResult",
    "gauss_legendre",
    "tanh_sinh",
    "fresnel_cos_moment",
    "ws_integral",
    "ws_rhs",
]


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    abs_error_estimate: float
    evaluations: int
    converged: bool

    def __post_init__(self):
        if self.abs_error_estimate < 0.0:
            raise ValueError("error estimate must be >= 0")


_EPS = 2.0 ** -52
_LOG2 = math.log(2.0)


@lru_cache(maxsize=8)
def _gl_nodes(n: int):
    x, w = np.polynomial.legendre.leggauss(n)
    return tuple(x.tolist()), tuple(w.tolist())


def _gl_panel(f, lo: float, hi: float, n: int) -> float:
    xs, ws = _gl_nodes(n)
    m = 0.5 * (lo + hi)
    r = 0.5 * (hi - lo)
    return r * math.fsum(w * f(m + r * x) for x, w in zip(xs, ws))


_MAX_GL_PANELS = 2048


def gauss_legendre(f: Callable[[float], float], lo: float, hi: float,
                   tol: float = 1e-10) -> QuadratureResult:
    """Adaptive panel integration, 32-point base rule, panels split until
    the local 16- vs 32-point discrepancy sums below `tol`.

    `tol` is absolute: `converged` is `abs_error_estimate <= tol`, however
    small the value."""
    if not lo < hi:
        raise ValueError(f"need lo < hi, got [{lo}, {hi}]")
    width = hi - lo
    stack = [(lo, hi)]
    total = 0.0
    err = 0.0
    evals = 0
    panels = 0
    while stack:
        a, b = stack.pop()
        coarse = _gl_panel(f, a, b, 16)
        fine = _gl_panel(f, a, b, 32)
        evals += 48
        panels += 1
        local = abs(fine - coarse)
        if local <= max(tol * (b - a) / width, 1e-16 * abs(fine)) or panels >= _MAX_GL_PANELS:
            total += fine
            err += local
        else:
            mid = 0.5 * (a + b)
            stack.append((a, mid))
            stack.append((mid, b))
    return QuadratureResult(value=total, abs_error_estimate=err,
                            evaluations=evals, converged=err <= tol)


_TS_TMAX = 5.5
_TS_MAX_LEVEL = 11


def tanh_sinh(f, lo: float, hi: float, tol: float = 1e-12) -> QuadratureResult:
    """Double-exponential quadrature on [lo, hi].

    The integrand is called f(x, dlo, dhi) where dlo/dhi are the exact
    distances to the endpoints; algebraically singular weights should use
    those instead of recomputing x - lo (which rounds to zero near the
    boundary).  `tol` is absolute: `converged` is `abs_error_estimate <=
    tol`, however small the value.
    """
    if not lo < hi:
        raise ValueError(f"need lo < hi, got [{lo}, {hi}]")
    m = 0.5 * (lo + hi)
    r = 0.5 * (hi - lo)

    def node_value(t: float) -> float:
        w = 0.5 * math.pi * math.sinh(t)
        ch = math.cosh(w)
        if not math.isfinite(ch):
            return 0.0
        e2 = math.exp(-2.0 * w)
        omu = 2.0 * e2 / (1.0 + e2)           # 1 - u
        opu = 2.0 / (1.0 + e2)                # 1 + u
        dudt = 0.5 * math.pi * math.cosh(t) / (ch * ch)
        if dudt < 1e-320:
            return 0.0
        u = math.tanh(w)
        vp = f(m + r * u, r * opu, r * omu)
        vm = f(m - r * u, r * omu, r * opu) if t != 0.0 else 0.0
        return dudt * (vp + vm)

    evals = 0
    levels = []
    trapz = 0.0  # h-scaled trapezoid value: T_k = T_{k-1}/2 + h_k * (new nodes)
    tail_mag = 0.0
    for k in range(_TS_MAX_LEVEL + 1):
        h = 1.0 / (1 << k)
        jmax = int(_TS_TMAX / h)
        js = range(0, jmax + 1) if k == 0 else range(1, jmax + 1, 2)
        s_new = 0.0
        last_contrib = 0.0
        for j in js:
            v = node_value(j * h)
            evals += 1 if j == 0 else 2
            if not math.isfinite(v):
                raise DivergenceError(f"non-finite integrand contribution at level {k}")
            s_new += v
            last_contrib = abs(v)
        trapz = h * s_new if k == 0 else 0.5 * trapz + h * s_new
        levels.append(trapz * r)
        tail_mag = last_contrib * h * r
        # a divergent endpoint makes the boundary node dominate the sum
        if k >= 1 and tail_mag > 0.05 * abs(levels[-1]) and tail_mag > tol:
            raise DivergenceError(
                "tanh-sinh boundary contribution grows without bound "
                f"(level {k}, tail {tail_mag:.3g} vs sum {levels[-1]:.3g})")
        if k >= 2:
            diff = abs(levels[-1] - levels[-2])
            est = diff + 4.0 * tail_mag
            if est <= tol:
                return QuadratureResult(value=levels[-1], abs_error_estimate=est,
                                        evaluations=evals, converged=True)
    diff = abs(levels[-1] - levels[-2]) + 4.0 * tail_mag
    return QuadratureResult(value=levels[-1], abs_error_estimate=diff,
                            evaluations=evals, converged=diff <= tol)


def fresnel_cos_moment(mu: float, tol: float = 1e-10) -> QuadratureResult:
    """integral_0^inf z^{mu-1} cos z dz for 0 < mu < 1.

    Head on [0, a], a = pi/2, as the termwise integral of the cosine
    series, sum_k (-1)^k a^{2k+mu} / ((2k)! (2k+mu)), summed until a term
    falls below one rounding of the first (8 to 11 terms).  Tail as
    Re(a^mu e^{ia} C(1-mu)) with C the incomplete Gamma continued fraction
    of `_osc_factors` at z = a/2.  Target identity value:
    Gamma(mu) cos(pi mu / 2).

    `abs_error_estimate` is the fraction's truncation and rounding, and
    the roundings of a**mu and cmath.exp, relative to |a^mu e^{ia} C|
    (the fraction runs 45 to 170 Lentz steps here, each rounding by about
    an ulp; 256 eps covers them), plus 4 eps times the sum of the parts'
    magnitudes.  `evaluations` counts the series terms.  `tol` is
    absolute: `converged` is `abs_error_estimate <= tol`.
    """
    if not 0.0 < mu < 1.0:
        raise ValueError(f"need 0 < mu < 1, got {mu!r}")
    a = 0.5 * math.pi
    am = a ** mu
    terms = [am / mu]
    p = am      # (-1)^k a^{2k+mu} / (2k)!
    while abs(terms[-1]) > _EPS * terms[0]:
        k = len(terms)
        p *= -a * a / ((2 * k - 1) * (2 * k))
        terms.append(p / (2 * k + mu))
    (c,), cf_err = _osc_factors([1.0 - mu], 0.5 * a)
    w = am * cmath.exp(1j * a) * c      # int_a^inf z^{mu-1} e^{iz} dz
    est = (cf_err + 256.0 * _EPS) * abs(w) \
        + 4.0 * _EPS * (math.fsum(map(abs, terms)) + abs(w.real))
    return QuadratureResult(value=math.fsum(terms) + w.real, abs_error_estimate=est,
                            evaluations=len(terms), converged=est <= tol)


def ws_rhs(alpha: float, s: float) -> float:
    """Closed Gamma form Gamma(s)Gamma(a+1/2-s) /
    (2 sqrt(pi) Gamma(1/2+s) Gamma(a+1/2+s))."""
    if not (alpha > -0.5 and 0.0 < s < alpha + 0.5):
        raise ValueError(f"need 0 < s < alpha + 1/2, got alpha={alpha}, s={s}")
    return math.exp(
        ln_gamma(s) + ln_gamma(alpha + 0.5 - s)
        - ln_gamma(0.5 + s) - ln_gamma(alpha + 0.5 + s)
    ) / (2.0 * math.sqrt(math.pi))


def _zeros_through(alpha: float, x: float) -> tuple:
    """The zeros of J_alpha up to the first one at or past x, read off a
    table of one zero that doubles until its last zero reaches x."""
    n = 1
    zeros = bessel_zeros(alpha, n).zeros
    while zeros[-1] < x:
        n *= 2
        zeros = bessel_zeros(alpha, n).zeros
    return zeros[:bisect.bisect_left(zeros, x) + 1]


# The head's power series runs to z0 = min(j_1, 2.5): its largest term,
# near k = 2, is ~10 times its sum there.  Gauss-Legendre panels at most 8
# wide cover [z0, j_1]: one panel below alpha ~ 6, five at alpha = 30 (two
# panels of width 17 are already 3e-13 off there, and 1e-10 at alpha = 45).
_HEAD_SERIES_Z = 2.5
_HEAD_PANEL_WIDTH = 8.0


@dataclass(frozen=True)
class _Order:
    """What `ws_integral` takes from alpha alone (`_ws_order`)."""
    alpha: float
    zeros: tuple        # j_1 up to Z, the first zero at or past j_crossover
    log_c: float        # log c = log(4^{-alpha} / Gamma(alpha+1)^2)
    z0: float           # min(j_1, 2.5), where the head's series stops
    head_r: float       # half width of the head panels on [z0, j_1]
    # per head panel: its 16-point nodes (log z, Jnorm^2, 2|Jnorm| + dn,
    # dn) and its 12-point nodes (log z, Jnorm^2)
    head: tuple
    # per zero gap: its half width r, J's error bound dj there and its
    # 16-point nodes (z, w, J^2 - envelope, r w, 2|J| + dj)
    gaps: tuple
    # the tail's Hankel data at Z: (n, i^n e_n) for the even n >= 4 of
    # |W|^2, the coefficients d_n of W^2, e^{-i(alpha pi + pi/2)} e^{2iZ},
    # the number of terms t_k, 2 sum |t_k| + rest, and rest
    power_terms: tuple
    d: tuple
    phase: complex
    n_terms: int
    hankel_mag: float
    rest: float


@lru_cache(maxsize=128)
def _ws_order(alpha: float) -> _Order:
    """All of `ws_integral`'s work that s does not touch: the zeros up to
    Z, every panel node with its J value and error bound, and the tail's
    Hankel data.  Cached like `bessel_zeros`: a further s at a cached order
    evaluates no kernel, and `cache_clear` forgets every order."""
    zeros = _zeros_through(alpha, backend.j_crossover(alpha))
    mu = 4.0 * alpha * alpha
    j1 = zeros[0]
    log_c = -2.0 * ln_gamma(alpha + 1.0) - alpha * math.log(4.0)
    log_gamma = abs(ln_gamma(alpha + 1.0))
    z0 = min(j1, _HEAD_SERIES_Z)
    count = math.ceil((j1 - z0) / _HEAD_PANEL_WIDTH)
    dj = backend.bessel_j_error_bound(alpha, j1) if count else 0.0

    def head_node(z):
        """log z, Jnorm(z)^2, 2|Jnorm| + dn and Jnorm's error dn."""
        lz = math.log(z)
        jn = backend.bessel_j_normalized(alpha, z)
        dn = min(8.0 * _EPS * math.exp(z * z / (4.0 * alpha + 4.0)),
                 dj * math.exp(-0.5 * log_c - alpha * lz)) \
            + 8.0 * _EPS * (2.0 + log_gamma + abs(alpha * (lz - _LOG2))) * abs(jn)
        return lz, jn * jn, 2.0 * abs(jn) + dn, dn

    r = 0.5 * (j1 - z0) / max(count, 1)
    xs, ws = _gl_nodes(16)
    xc, _ = _gl_nodes(12)
    head = []
    for i in range(count):
        m = z0 + (2 * i + 1) * r
        head.append((tuple(head_node(m + r * x) for x in xs),
                     tuple(head_node(m + r * x)[:2] for x in xc)))

    gaps = []
    for a, b in zip(zeros, zeros[1:]):
        m = 0.5 * (a + b)
        gap_r = 0.5 * (b - a)
        # |J| is off by at most the kernel's bound over the zero gap
        gap_dj = backend.bessel_j_error_bound(alpha, b)
        nodes = []
        for x, w in zip(xs, ws):
            z = m + gap_r * x
            jz = backend.bessel_j(alpha, z)
            nodes.append((z, w, jz * jz - (1.0 + (mu - 1.0) / (8.0 * z * z)) / (math.pi * z),
                          gap_r * w, 2.0 * abs(jz) + gap_dj))
        gaps.append((gap_r, gap_dj, tuple(nodes)))

    z = zeros[-1]
    terms, rest = backend.hankel_terms(alpha, z)
    t = np.array(terms)
    sign = np.where(np.arange(len(terms)) % 2 == 0, 1.0, -1.0)
    # |W|^2 = sum_n e_n (z/x)^n with e_n = i^n sum_k (-1)^k t_{n-k} t_k,
    # zero for odd n; e_0 and e_2 are the smooth envelope
    e = np.convolve(t, t * sign).tolist()
    return _Order(
        alpha=alpha, zeros=zeros, log_c=log_c, z0=z0, head_r=r,
        head=tuple(head), gaps=tuple(gaps),
        power_terms=tuple((n, e[n] if n % 4 == 0 else -e[n]) for n in range(4, len(e), 2)),
        d=tuple(np.convolve(t, t).tolist()),
        # alpha reduced mod 2 first
        phase=-1j * cmath.exp(1j * (2.0 * z - math.pi * math.fmod(alpha, 2.0))),
        n_terms=len(terms), hankel_mag=2.0 * float(np.abs(t).sum()) + rest, rest=rest)


def _osc_factors(bs: list, z: float) -> tuple:
    """C(b) = z^{b-1} e^{-2iz} int_z^inf x^{-b} e^{2ix} dx for each b of
    the unit-spaced list `bs`, and the relative error of the continued
    fraction behind them.

    C(b) = e^{w} E_b(w) at w = -2iz is the continued fraction of the
    incomplete Gamma function Gamma(1-b, w) (DLMF 8.9.2), summed by
    modified Lentz at the b nearest 2z until a step changes it by at most
    one rounding.  The others follow from C(b) = (i/(2z)) (1 - b C(b+1))
    (integration by parts) downward and its inverse upward: each direction
    damps a relative error by b/(2z) or 2z/b < 1 per step.
    """
    top = min(len(bs) - 1, max(0, round(2.0 * z - bs[0])))
    b = bs[top]
    den = complex(b, -2.0 * z)
    c = 1e300
    d = 1.0 / den
    h = d
    delta = 0.0
    for i in range(1, 200):
        an = -i * (i - 1.0 + b)
        den += 2.0
        d = 1.0 / (an * d + den)
        c = den + an / c
        delta = d * c
        h *= delta
        if abs(delta - 1.0) <= 2.0 ** -53:
            break
    out = [0j] * len(bs)
    out[top] = h
    k = 0.5j / z
    for n in range(top - 1, -1, -1):
        out[n] = k * (1.0 - bs[n] * out[n + 1])
    two_iz = 2j * z
    for n in range(top + 1, len(bs)):
        out[n] = (1.0 + two_iz * out[n - 1]) / bs[n - 1]
    return out, abs(delta - 1.0)


def _ws_tail(order: _Order, s: float) -> tuple:
    """int_Z^inf x^{-2s} (J_alpha(x)^2 - (1 + (mu-1)/(8 x^2))/(pi x)) dx
    for Z = `order.zeros[-1]`, the first zero at or past
    `backend.j_crossover(alpha)`, and the error bounds of its Hankel
    truncation and its continued fraction.

    With W = P + iQ = sum_k t_k i^k (Z/x)^k (`backend.hankel_terms` at Z)
    and omega = x - alpha pi/2 - pi/4, J^2 = (|W|^2 + Re(W^2 e^{2 i
    omega}))/(pi x) (DLMF 10.17.3).  The terms k >= 4 of |W|^2 integrate
    as powers of x; each term of W^2 gives one `_osc_factors` integral.
    The terms and their convolutions are the order's (`_ws_order`): only
    the powers, the integrals and the sums here depend on s.
    """
    z = order.zeros[-1]
    power = math.fsum(e / (2.0 * s + n) for n, e in order.power_terms)
    factors, cf_err = _osc_factors([2.0 * s + 1.0 + n for n in range(len(order.d))], z)
    rot = (1.0, 1j, -1.0, -1j)
    parts = [rot[n % 4] * dn * fn for n, (dn, fn) in enumerate(zip(order.d, factors))]
    wave = sum(parts)
    scale = z ** (-2.0 * s) / math.pi
    value = scale * (power + (order.phase * wave).real)
    # |J^2 - J_N^2| <= (2/(pi x)) (2 |W_N| r + r^2) with r <= rest (Z/x)^(N+1)
    hankel_err = 2.0 * scale * order.hankel_mag * order.rest / (2.0 * s + order.n_terms)
    cf_bound = scale * cf_err * sum(abs(p) for p in parts)
    return value, hankel_err, cf_bound


def _ws_head(order: _Order, s: float) -> tuple:
    """int_0^{j1} z^{-2s} J_alpha(z)^2 dz = int_0^{j1} c z^p Jnorm(z)^2 dz
    (see `ws_integral`): its parts, their error estimate and the
    evaluations they took.

    Jnorm^2 = 1F2(alpha+1/2; alpha+1, 2alpha+1; -z^2) (DLMF 10.8.3), so on
    [0, z0] the integral is c sum_k (-1)^k tau_k z0^{p1+2k} / (p1+2k), with
    tau_{k+1} = tau_k (alpha+1/2+k) / ((alpha+1+k) (2alpha+1+k) (k+1)),
    summed until a term falls below one rounding of the sum of the
    magnitudes.  The terms alternate and fall from there, so the first
    neglected one bounds the rest.  For p < 0 the k = 0 term is taken over
    all of [0, j1] instead, c j1^{p1} / p1 (`lead`), and the panels take
    c z^p (Jnorm^2 - 1).  J has no zero on [z0, j1], so the integrand is
    smooth there: 16-point Gauss-Legendre panels, each with its 12-point
    rule's discrepancy as its estimate.  The panels' nodes, with Jnorm^2
    and its error there, are the order's (`_ws_order`): each node here
    takes one c z^p.

    Jnorm at a panel node is off by at most the smaller of 8 eps times the
    sum of its series' magnitudes (at most e^{z^2/(4 alpha + 4)}) and
    `backend.bessel_j_error_bound` over (0, j1] divided by sqrt(c) z^alpha,
    plus 8 eps (2 + |log Gamma(alpha+1)| + |alpha log(z/2)|) |Jnorm| for
    the rounding of its prefactor Gamma(alpha+1) (z/2)^{-alpha}; this is
    carried through Jnorm^2 with the panel weights.  The exponentials that
    carry c and the powers of z add 8 eps (1 + |log c| + (|p| + 1)
    |log j1|) relative to each part.
    """
    alpha, log_c, z0 = order.alpha, order.log_c, order.z0
    p1 = math.fsum((2.0 * alpha, 1.0, -2.0 * s))     # p + 1, rounded once
    p = p1 - 1.0
    one = 1.0 if p < 0.0 else 0.0
    log_j1 = math.log(order.zeros[0])
    lead = math.exp(log_c + p1 * log_j1) / p1 if p < 0.0 else 0.0
    x = -z0 * z0
    t = math.exp(log_c + p1 * math.log(z0))     # c tau_k (-z0^2)^k z0^{p1}
    terms = [] if p < 0.0 else [t / p1]
    mass = sum(map(abs, terms))
    k = 0
    while True:
        t *= (alpha + 0.5 + k) * x / ((alpha + 1.0 + k) * (2.0 * alpha + 1.0 + k) * (k + 1))
        k += 1
        term = t / (p1 + 2.0 * k)
        if abs(term) <= _EPS * mass:
            break
        terms.append(term)
        mass += abs(term)
    parts = [lead, math.fsum(terms)]
    est = abs(term) + 4.0 * _EPS * mass
    evals = len(terms)

    r = order.head_r
    _, ws = _gl_nodes(16)
    _, wc = _gl_nodes(12)
    for nodes16, nodes12 in order.head:
        values, errs = [], []
        for lz, jn2, mag, dn in nodes16:
            cz = math.exp(log_c + p * lz)
            values.append(cz * (jn2 - one))
            errs.append(cz * mag * dn)
        parts.append(r * math.fsum(w * f for w, f in zip(ws, values)))
        coarse = r * math.fsum(w * (math.exp(log_c + p * lz) * (jn2 - one))
                               for w, (lz, jn2) in zip(wc, nodes12))
        est += abs(parts[-1] - coarse) + r * math.fsum(w * e for w, e in zip(ws, errs))
        evals += 28
    est += 8.0 * _EPS * (1.0 + abs(log_c) + (abs(p) + 1.0) * abs(log_j1)) \
        * math.fsum(map(abs, parts)) + _EPS * abs(lead)
    return parts, est, evals


def ws_integral(alpha: float, s: float, tol: float = 1e-9) -> QuadratureResult:
    """integral_0^inf z^{-2s} J_alpha(z)^2 dz for 0 < s < alpha + 1/2.

    On the head [0, j_1], z^{-2s} J^2 = c z^p Jnorm(z)^2 with p = 2 alpha -
    2s, c = 4^{-alpha} / Gamma(alpha+1)^2 and Jnorm = `bessel_j_normalized`
    (1 at z = 0), integrated term by term from the power series of
    Jnorm^2 up to min(j_1, 2.5) and by Gauss-Legendre panels beyond
    (`_ws_head`).  For p < 0 the leading power c z^p integrates in closed
    form over all of [0, j_1], c j_1^{p+1} / (p+1), with p + 1 rounded
    once from 2 alpha, 1 and -2s, so the head's mass near 0 is counted
    to a few ulps as p + 1 -> 0.  (For p >= 0 that closed form would exceed
    the head by up to ~1e8 at large alpha, and the cancellation would cost
    as many digits.)  The smooth envelope mean
    (1/(pi z))(1 + (mu-1)/(8 z^2)) integrates in closed form over
    [j_1, inf).  The oscillatory remainder is integrated by one 16-point
    Gauss-Legendre panel per gap between consecutive zeros, from j_1 to Z,
    the first zero at or past `backend.j_crossover(alpha)` (for
    alpha <= 2 the fifth zero or earlier, at most 4 panels), and past Z
    in closed form from the Hankel expansion (`_ws_tail`).  As
    j_crossover grows like alpha^2/4, large orders need many panels,
    whose nodes below j_crossover take the fixed-point J.

    Everything that depends on alpha alone is computed once per order and
    cached (`_ws_order`, cleared by its `cache_clear` like
    `bessel_zeros`): the zeros, every panel node with its J or Jnorm value
    and error bound, and the tail's Hankel terms.  A call at a cached order
    evaluates no Bessel kernel: each node takes one power of z, each panel
    one `math.fsum`, and the tail its continued fraction.

    `abs_error_estimate` is the sum of
      - the head's estimate: the series' first neglected term and 4 eps
        times its terms' magnitudes, each head panel's 16- vs 12-point
        discrepancy, Jnorm's error carried through Jnorm^2, and the
        roundings of the exponentials that carry c, the powers of z and
        p + 1 (`_ws_head`);
      - the Hankel truncation of the tail: by DLMF 10.17(iii) the
        remainders of P and Q are bounded by their first neglected terms,
        carried through J^2 (`_ws_tail`);
      - the truncation of the tail's continued fraction, relative to the
        terms it feeds;
      - the kernel accuracy on each zero gap, z^{-2s} (2|J| + d) d summed
        with the panel weights, d = `backend.bessel_j_error_bound` at the
        gap's right end (the power series near j_crossover is off by up to
        ~1e-12);
      - 4 eps times the sum of the parts' magnitudes.

    `tol` is relative: `converged` is `abs_error_estimate <= tol * |value|`.
    """
    if not alpha > -0.5:
        raise ValueError(f"need alpha > -1/2, got {alpha!r}")
    if not 0.0 < s < alpha + 0.5:
        raise ValueError(f"s={s} outside the strip (0, {alpha + 0.5})")
    order = _ws_order(alpha)
    mu = 4.0 * alpha * alpha
    j1 = order.zeros[0]

    head, head_err, head_evals = _ws_head(order, s)

    smooth = j1 ** (-2.0 * s) / (2.0 * math.pi * s) \
        + (mu - 1.0) / (8.0 * math.pi) * j1 ** (-2.0 * s - 2.0) / (2.0 * s + 2.0)

    power = -2.0 * s
    panels = []
    kernel_err = 0.0
    for r, dj, nodes in order.gaps:
        terms = []
        for z, w, oscillation, rw, mag in nodes:
            zp = z ** power
            terms.append(w * (zp * oscillation))
            kernel_err += rw * zp * mag * dj
        panels.append(r * math.fsum(terms))
    tail, hankel_err, cf_err = _ws_tail(order, s)
    parts = [*head, smooth, *panels, tail]
    value = math.fsum(parts)
    est = (head_err + hankel_err + cf_err + kernel_err
           + 4.0 * _EPS * math.fsum(abs(v) for v in parts))
    return QuadratureResult(value=value, abs_error_estimate=est,
                            evaluations=head_evals + 16 * len(panels),
                            converged=est <= tol * abs(value))
