"""Moments of Gamma type: four-set Mellin symbols, existence analysis for
the one-over-two-Gamma family via 1F2 nonnegativity, quasi-Levy densities,
Mellin-inversion densities, boundary mapping of the existence region, and
the two appendix identities (cosine moment, two-dimensional Beta-type
integral) used to close the squared-Bessel Mellin formula.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from . import quad, rng
from .errors import AccuracyError
from .specfun import (
    bessel_j,
    bessel_j_normalized,
    digamma,
    f2_tail_profile,
    hyp1f2_screened,
    hyp1f2_with_bound,
    ln_gamma,
    ln_gamma_complex,
)

__all__ = [
    "GammaRatioSpec",
    "ExistenceVerdict",
    "ScanOutcome",
    "QuasiLevySpec",
    "BoundarySample",
    "mellin",
    "mellin_complex",
    "necessary_conditions",
    "atom_at_one",
    "schur_check",
    "malmsten_integrand",
    "lk_exponent",
    "quasi_levy_density",
    "quasi_levy_root",
    "quasi_levy_mellin",
    "extremal_density",
    "extremal_moment_check",
    "f2_nonneg_scan",
    "exists_D",
    "exists_spec",
    "boundary_f_ab",
    "askey_szego_check",
    "density_via_inversion",
    "selberg2_check",
    "sample_ratio_product",
    "convexity_scan",
]


def _parse_entry(v) -> float:
    if isinstance(v, str):
        try:
            return float(Fraction(v))
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {v!r}") from None
    return float(v)


@dataclass(frozen=True)
class GammaRatioSpec:
    """Four sorted multisets of positive reals defining the Mellin symbol
    (a)_s (b)_{-s} / ((c)_s (d)_{-s}); empty sets contribute factor 1."""

    a: tuple = ()
    b: tuple = ()
    c: tuple = ()
    d: tuple = ()

    def __post_init__(self):
        for name in "abcd":
            vals = tuple(sorted(_parse_entry(v) for v in getattr(self, name)))
            if any(not 0.0 < v < math.inf for v in vals):
                raise ValueError(f"set {name} must contain positive finite entries")
            object.__setattr__(self, name, vals)

    @classmethod
    def from_json(cls, text: str) -> "GammaRatioSpec":
        """A spec from a JSON object whose keys are among a, b, c, d, each a
        list of numbers or number strings ("17/5"); ValueError otherwise."""
        obj = json.loads(text)
        if not isinstance(obj, dict) or not set(obj) <= set("abcd"):
            raise ValueError("spec must be a JSON object with keys among a, b, c, d")
        for name, vals in obj.items():
            if not isinstance(vals, list) or any(
                    isinstance(v, bool) or not isinstance(v, (int, float, str)) for v in vals):
                raise ValueError(f"spec set {name} must be a list of numbers or number strings")
        return cls(**{name: tuple(vals) for name, vals in obj.items()})

    @property
    def strip(self) -> tuple:
        lo = -self.a[0] if self.a else -math.inf
        hi = self.b[0] if self.b else math.inf
        return (lo, hi)

    @property
    def sizes(self) -> tuple:
        """(n, m, p, q) = (#a, #b, #c, #d)."""
        return (len(self.a), len(self.b), len(self.c), len(self.d))

    @property
    def has_atom_at_one(self) -> bool:
        """Bounded support (b = d = empty, #a = #c >= 1) with equal sums of
        a and c: the moments tend to atom_at_one(self), a point mass at one."""
        n, m, p, q = self.sizes
        return m == 0 and q == 0 and p == n and p > 0 \
            and abs(sum(self.a) - sum(self.c)) <= 1e-10 * sum(self.a)


@dataclass(frozen=True)
class ExistenceVerdict:
    """Tri-state existence answer with the deciding rule and an optional
    numeric witness (a negativity location, an atom mass, or the horizon
    up to which a scan certified nonnegativity)."""

    state: str              # Exists | NotExists | Indeterminate
    reason: str
    witness: Optional[float] = None

    def __post_init__(self):
        if self.state not in ("Exists", "NotExists", "Indeterminate"):
            raise ValueError(f"bad state {self.state!r}")

    def to_dict(self) -> dict:
        return {"state": self.state, "reason": self.reason, "witness": self.witness}


def _log_symbol(spec: GammaRatioSpec, s, lg):
    """log of (a)_s (b)_{-s} / ((c)_s (d)_{-s}) at s, with lg the log-Gamma
    of the shifted arguments: `ln_gamma` for a real s, `ln_gamma_complex`
    for complex s (a number or an array)."""
    acc = 0.0
    for sign, entries, shift in ((1.0, spec.a, s), (1.0, spec.b, -s),
                                 (-1.0, spec.c, s), (-1.0, spec.d, -s)):
        for x in entries:
            acc += sign * (lg(x + shift) - ln_gamma(x))
    return acc


def mellin(spec: GammaRatioSpec, s: float) -> float:
    """Moment value at s, strictly inside the strip; ValueError where s is
    outside it or a denominator Gamma argument is not positive."""
    lo, hi = spec.strip
    if not (lo < s < hi):
        raise ValueError(f"s={s} outside the Mellin strip ({lo}, {hi})")
    return math.exp(_log_symbol(spec, s, ln_gamma))


def mellin_complex(spec: GammaRatioSpec, s: complex) -> complex:
    """Analytic continuation of the symbol onto a vertical line."""
    acc = _log_symbol(spec, s, ln_gamma_complex)
    if acc.real > 700.0:
        raise OverflowError("Mellin symbol overflow on the line")
    return cmath.exp(acc)


def necessary_conditions(spec: GammaRatioSpec):
    """Cheap exact requirements for a distribution with this symbol to
    exist.  Returns (ok, violated_rules)."""
    n, m, p, q = spec.sizes
    violated = []
    if m == 0 and q == 0:
        if p > n:
            violated.append("count:p<=n")
        if p >= 1 and n >= 1:
            if spec.a[0] > spec.c[0] + 1e-15:
                violated.append("min:a1<=c1")
            if p <= n and sum(spec.a[:p]) > sum(spec.c[:p]) + 1e-12:
                violated.append("partial-sum")
    else:
        if p + q > n + m:
            violated.append("count:p+q<=n+m")
        min_a = spec.a[0] if spec.a else math.inf
        min_b = spec.b[0] if spec.b else math.inf
        min_c = spec.c[0] if spec.c else math.inf
        min_d = spec.d[0] if spec.d else math.inf
        if min_a > min_c + 1e-15:
            violated.append("min:a<=c")
        if min_b > min_d + 1e-15:
            violated.append("min:b<=d")
    return (not violated, violated)


def atom_at_one(spec: GammaRatioSpec) -> float:
    """Limit of the moments at +infinity for the bounded-support case
    (p = n, b = d = empty, equal sums): prod Gamma(c) / prod Gamma(a).

    A value above one rules out a distribution."""
    n, m, p, q = spec.sizes
    if m or q:
        raise ValueError("atom limit needs b = d = empty")
    if p != n:
        raise ValueError("atom limit needs matching set sizes")
    if abs(sum(spec.a) - sum(spec.c)) > 1e-10 * max(1.0, sum(spec.a)):
        side = "0" if sum(spec.a) < sum(spec.c) else "infinite"
        raise ValueError(f"unequal sums: the limit is {side}, not an atom")
    return math.exp(sum(ln_gamma(x) for x in spec.c) - sum(ln_gamma(x) for x in spec.a))


def _phi(entries: Sequence[float], x: float) -> float:
    return math.fsum(math.exp(-e * x) for e in entries)


_SCHUR_X_MAX = 60.0
_SCHUR_SAMPLES = 400


def schur_check(a_set: Sequence[float], c_set: Sequence[float]):
    """Scan of phi_a - phi_c >= 0 on (0, 60] with sign-change
    refinement; returns (ok, witness).

    Endpoint structure: the difference starts at #a - #c with slope
    sum(c) - sum(a) when sizes match, and decays like the smallest
    exponent at infinity, so a log grid plus refinement is adequate."""
    a = sorted(float(v) for v in a_set)
    c = sorted(float(v) for v in c_set)
    if not a or not c:
        raise ValueError("both sets must be nonempty")
    diff = lambda x: _phi(a, x) - _phi(c, x)
    xs = np.geomspace(1e-7, _SCHUR_X_MAX, _SCHUR_SAMPLES)
    prev_x = 0.0
    for x in xs:
        if diff(x) < -1e-13 * max(1.0, len(a)):
            lo, hi = prev_x, x
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                if diff(mid) < 0.0:
                    hi = mid
                else:
                    lo = mid
            return False, hi
        prev_x = x
    return True, None


def malmsten_integrand(a_set: Sequence[float], c_set: Sequence[float],
                       x: float) -> float:
    """(phi_a(x) - phi_c(x)) / (x (1 - e^{-x})) for x > 0, the jump
    density of `lk_exponent`; its x -> 0 limit is finite only when the
    sets have matching sizes and sums."""
    if not x > 0.0:
        raise ValueError(f"need x > 0, got {x!r}")
    num = _phi(a_set, x) - _phi(c_set, x)
    return num / (x * (-math.expm1(-x)))


def _compensated_exponent_integral(weight, s: float, decay: float) -> float:
    """integral_0^inf (e^{-s y} - 1 + s y) * weight(y) dy with weight(y) ~
    (finite)/y^2 * exp(-decay * y) tails; the integrand is analytic at 0.

    For s < 0 the exponential factor grows like e^{|s| y}, so the net tail
    decay is decay - max(0, -s); it must stay positive."""
    effective = decay - max(0.0, -s)
    if effective <= 0.0:
        raise ValueError(f"integral diverges: decay {decay} vs growth {-s}")
    span = (50.0 + abs(s) * 4.0) / effective

    def f(y: float) -> float:
        if y < 1e-280:
            return 0.0
        return (math.expm1(-s * y) + s * y) * weight(y)

    r = quad.gauss_legendre(f, 0.0, span, tol=1e-12)
    return r.value


def lk_exponent(spec: GammaRatioSpec, s: float) -> float:
    """log of the Mellin symbol in drift-plus-compensated-jump form: a
    digamma drift plus the integral of (e^{sx}-1-sx) against the spectral
    density (phi_a - phi_c)(|x|) / (|x|(1-e^{-|x|})) on the negative axis.

    Requires b = d = empty and p <= n; exp(result) equals mellin(spec, s).
    """
    n, m, p, q = spec.sizes
    if m or q:
        raise ValueError("needs b = d = empty")
    if p > n:
        raise ValueError("needs p <= n")
    lo, hi = spec.strip
    if not (lo < s < hi):
        raise ValueError(f"s={s} outside strip {spec.strip}")
    drift = sum(digamma(v) for v in spec.a) - sum(digamma(v) for v in spec.c)
    decay = min(spec.a + spec.c)
    # substitution x = -y turns the negative-axis integral into
    # (e^{-sy} - 1 + sy) against the reflected density
    jump = _compensated_exponent_integral(
        lambda y: malmsten_integrand(spec.a, spec.c, y), s, decay)
    return drift * s + jump


# ---------------------------------------------------------------------------
# Quasi-Levy structure of the extremal law


@dataclass(frozen=True)
class QuasiLevySpec:
    """Signed spectral data of log X for the extremal law with parameters
    (a, b): upper entries {a} and {b}, lower pair (2a+b, a+1/2)."""

    a: float
    b: float

    def __post_init__(self):
        if not (self.a > 0.0 and self.b > 0.0):
            raise ValueError("need a, b > 0")

    @property
    def c(self) -> float:
        return 2.0 * self.a + self.b

    @property
    def d(self) -> float:
        return self.a + 0.5

    @property
    def drift(self) -> float:
        return digamma(self.a) - digamma(self.b) - digamma(self.c) - digamma(self.d)

    def ratio_spec(self) -> GammaRatioSpec:
        return GammaRatioSpec(a=(self.a,), b=(self.b,), c=(self.c, self.d))


def quasi_levy_density(q: QuasiLevySpec, x: float) -> float:
    """Signed density: (e^{-a|x|} - e^{-c|x|} - e^{-d|x|}) /
    (|x|(1-e^{-|x|})) for x < 0, e^{-bx}/(x(1-e^{-x})) for x > 0.

    Negative on (a_*, 0), vanishing at a_*, positive elsewhere; diverges
    to -infinity at 0- and is not integrable there."""
    if x == 0.0:
        raise ValueError("density undefined at 0")
    y = abs(x)
    den = y * (-math.expm1(-y))
    if x > 0.0:
        return math.exp(-q.b * y) / den
    num = math.exp(-q.a * y) - math.exp(-q.c * y) - math.exp(-q.d * y)
    return num / den


def quasi_levy_root(q: QuasiLevySpec) -> float:
    """The negative point a_* where the density crosses zero, located by
    bisection on (-40, 0)."""
    g = lambda y: math.exp(-q.a * y) - math.exp(-q.c * y) - math.exp(-q.d * y)
    lo = 1e-10
    hi = None
    step = 0.25
    y = step
    while y <= 40.0:
        if g(y) > 0.0:
            hi = y
            break
        lo = y
        y += step
    if hi is None:
        raise ValueError("no sign change located on (-40, 0)")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if g(mid) > 0.0:
            hi = mid
        else:
            lo = mid
        if hi - lo < 1e-14 * max(1.0, hi):
            break
    return -0.5 * (lo + hi)


def quasi_levy_mellin(q: QuasiLevySpec, s: float) -> float:
    """Moment reconstruction from the signed spectral representation:
    exp(drift*s + both compensated-jump integrals); must reproduce
    mellin(q.ratio_spec(), s) on the strip (-a, b)."""
    if not (-q.a < s < q.b):
        raise ValueError(f"s={s} outside (-{q.a}, {q.b})")
    jump_neg = _compensated_exponent_integral(
        lambda y: quasi_levy_density(q, -y), s, min(q.a, q.c, q.d))
    # positive-axis part carries e^{+s y}; fold the sign into the helper
    jump_pos = _compensated_exponent_integral(
        lambda y: quasi_levy_density(q, y), -s, q.b)
    return math.exp(q.drift * s + jump_neg + jump_pos)


# ---------------------------------------------------------------------------
# Extremal density and its moment identity


def extremal_density(a: float, b: float, x: float) -> float:
    """Density sqrt(pi) G(2a+b) G(a+1/2) / (G(a) G(b)) x^{a-3/2}
    J_{a+b-1/2}(x^{-1/2})^2; nonnegative, vanishing at the squared
    reciprocal zeros."""
    if not (a > 0.0 and b > 0.0):
        raise ValueError("need a, b > 0")
    if not x > 0.0:
        raise ValueError("need x > 0")
    lc = 0.5 * math.log(math.pi) + ln_gamma(2 * a + b) + ln_gamma(a + 0.5) \
        - ln_gamma(a) - ln_gamma(b)
    j = bessel_j(a + b - 0.5, x ** -0.5)
    return math.exp(lc + (a - 1.5) * math.log(x)) * j * j


def extremal_moment_check(a: float, b: float, s: float):
    """Moment of the extremal density two ways: the substituted
    squared-Bessel Mellin integral versus the Gamma-ratio symbol.

    Returns (quadrature_value, mellin_value); callers assert closeness."""
    if not -a < s < b:
        raise ValueError(f"s={s} outside (-{a}, {b})")
    alpha = a + b - 0.5
    ws = quad.ws_integral(alpha, a + s, tol=1e-8)
    lc = math.log(2.0) + 0.5 * math.log(math.pi) + ln_gamma(2 * a + b) \
        + ln_gamma(a + 0.5) - ln_gamma(a) - ln_gamma(b)
    lhs = math.exp(lc) * ws.value
    rhs = mellin(QuasiLevySpec(a, b).ratio_spec(), s)
    return lhs, rhs


# ---------------------------------------------------------------------------
# 1F2 nonnegativity scan


@dataclass(frozen=True)
class ScanOutcome:
    kind: str               # Nonnegative | Negative | Indeterminate
    witness: Optional[float] = None   # negativity location (Negative)
    bound: Optional[float] = None     # pointwise-verified horizon
    detail: str = ""


_SCAN_X_CAP = 1e8
# The scan evaluates one point per hyp1f2_screened call below this x and
# _SCAN_CHUNK grid points per array call from it on.  Hits lie low: on
# existence benchmark seeds 1 and 5, all 78 verified witnesses lie below
# x = 160, and marching point by point, stopping at the hit, skips most of
# the evaluations a whole chunk would make.  At x = 110 the double series
# stops; from there one array call screens the band up to x = 160 by the
# large-x expansion, where point by point each fixed-point sum took ~70 us.
_SCAN_SPLIT_X = 110.0
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

    Below x = 110 every point is one float hyp1f2_screened call, and the
    march stops at the first hit.  From there, each chunk of 1024 grid
    points is one array hyp1f2_screened call (1F2's one array path, the
    float calls' bits point by point), and the first point with v < -8
    bound is the hit.  The screen returns (value, inf) where the double
    series (x < 110) or the large-x expansion (110 <= x < 160) shows the
    value above 8 times its bound, and hyp1f2_with_bound's pair
    elsewhere: a screened point is positive, so it is neither a hit nor
    negative, and every outcome is the one hyp1f2_with_bound alone gives.
    """
    if not (A > 0.0 and B > 0.0 and C > 0.0):
        raise ValueError("need positive parameters")
    if _is_square_structure(A, B, C):
        return ScanOutcome(kind="Nonnegative", bound=math.inf,
                           detail="squared-Bessel structure")
    prof = f2_tail_profile(A, B, C)
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
        large = y * y >= _SCAN_SPLIT_X
        xs = []
        while y <= y_end and (len(xs) < _SCAN_CHUNK if large else y * y < _SCAN_SPLIT_X):
            xs.append(y * y)
            y += dy
        if large:
            vs, bnds = hyp1f2_screened(A, B, C, -np.array(xs))
        else:
            pts = []
            for x in xs:
                pts.append(hyp1f2_screened(A, B, C, -x))
                if pts[-1][0] < -8.0 * pts[-1][1]:
                    break
            vs, bnds = np.array(pts).T
        hits = np.flatnonzero(vs < -8.0 * bnds)
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
        if v < -8.0 * bnd:
            hi = mid
        elif v > 0.0:
            lo = mid
        else:
            break
        if hi - lo <= 1e-9 * max(1.0, hi):
            break
    return hi


# ---------------------------------------------------------------------------
# Existence oracle for the quartet family


def exists_D(a: float, b: float, c: float, d: float) -> ExistenceVerdict:
    """Existence of the law with moments (a)_s (b)_{-s} / ((c)_s (d)_s).

    Closed-form sum/min rules decide almost everywhere; the gap band
    delegates to the 1F2 scan on the shifted parameters (a+b; c+b, d+b).
    Symmetric in (c, d)."""
    for name, v in (("a", a), ("b", b), ("c", c), ("d", d)):
        if not v > 0.0:
            raise ValueError(f"parameter {name} must be positive, got {v!r}")
    mn = min(c, d)
    threshold = 3.0 * a + b + 0.5
    if mn <= a + 1e-12:
        return ExistenceVerdict("NotExists", "min-at-most-a", witness=mn)
    if c + d < threshold - 1e-12:
        return ExistenceVerdict("NotExists", "sum-below-threshold", witness=c + d)
    if mn >= min(2.0 * a + b, a + 0.5) - 1e-12:
        return ExistenceVerdict("Exists", "sum-threshold-rule")
    out = f2_nonneg_scan(a + b, c + b, d + b)
    if out.kind == "Negative":
        return ExistenceVerdict("NotExists", "scan-negative", witness=out.witness)
    if out.kind == "Nonnegative":
        return ExistenceVerdict("Exists", "scan-nonnegative-up-to-bound",
                                witness=out.bound)
    return ExistenceVerdict("Indeterminate", "scan-indeterminate")


def exists_spec(spec: GammaRatioSpec) -> ExistenceVerdict:
    """Existence dispatcher for general four-set symbols, by shape.

    Covers: empty and pure-product shapes, the Beta-Gamma sufficient
    shapes, bounded-support sets (atom limit then exponent-sum ordering),
    and the quartet family; anything else is reported Indeterminate."""
    n, m, p, q = spec.sizes
    ok, violated = necessary_conditions(spec)
    if not ok:
        return ExistenceVerdict("NotExists", "necessary-conditions:" + ",".join(violated))
    if n == 0 and m == 0 and p == 0 and q == 0:
        return ExistenceVerdict("Exists", "empty-product")
    if p == 0 and q == 0:
        return ExistenceVerdict("Exists", "gamma-product")
    if m == 0 and q == 0:
        if p == 1 or n <= 2:
            return ExistenceVerdict("Exists", "beta-gamma-product")
        if spec.has_atom_at_one:
            atom = atom_at_one(spec)
            if atom > 1.0 + 1e-12:
                return ExistenceVerdict("NotExists", "atom-exceeds-one", witness=atom)
        ok, witness = schur_check(spec.a, spec.c)
        if ok:
            return ExistenceVerdict("Exists", "schur-holds")
        return ExistenceVerdict("Indeterminate", "schur-fails", witness=witness)
    if n == 1 and m == 1 and p == 2 and q == 0:
        return exists_D(spec.a[0], spec.b[0], spec.c[0], spec.c[1])
    if p <= 1 and q <= 1:
        return ExistenceVerdict("Exists", "beta-gamma-ratio")
    return ExistenceVerdict("Indeterminate", "unclassified-shape")


# ---------------------------------------------------------------------------
# Existence-region boundary


@dataclass(frozen=True)
class BoundarySample:
    u: float
    f_value: float
    bracket_width: float
    method: str   # LinearSegment | Bisection

    def __post_init__(self):
        if self.method not in ("LinearSegment", "Bisection"):
            raise ValueError(f"bad method {self.method!r}")


def boundary_f_ab(a: float, b: float, u: float, resolution: float = 1e-3) -> BoundarySample:
    """Smallest c such that the pair (c, u) admits a distribution.

    On the initial segment (u up to max(2a+b, a+1/2)) the boundary is the
    exact line 3a+b+1/2-u; beyond it the value is bracketed by bisection
    on the existence oracle, using monotonicity of existence in c, to a
    bracket no wider than `resolution`; an Indeterminate verdict ends the
    bisection at the bracket reached.  Raises ValueError unless u is
    finite and resolution is finite and > 0."""
    if not (a > 0.0 and b > 0.0):
        raise ValueError("need a, b > 0")
    if not math.isfinite(u):
        raise ValueError(f"u must be finite, got {u!r}")
    if not (math.isfinite(resolution) and resolution > 0.0):
        raise ValueError(f"resolution must be finite and > 0, got {resolution!r}")
    u_min = 0.5 * (3.0 * a + b) + 0.25
    if u < u_min - 1e-12:
        raise ValueError(f"u={u} below the domain start {u_min}")
    if u <= max(2.0 * a + b, a + 0.5) + 1e-12:
        return BoundarySample(u=u, f_value=3.0 * a + b + 0.5 - u,
                              bracket_width=0.0, method="LinearSegment")
    lo, hi = a, u
    while hi - lo > resolution:
        mid = 0.5 * (lo + hi)
        verdict = exists_D(a, b, mid, u)
        if verdict.state == "Indeterminate":
            break
        if verdict.state == "Exists":
            hi = mid
        else:
            lo = mid
    return BoundarySample(u=u, f_value=0.5 * (lo + hi),
                          bracket_width=hi - lo, method="Bisection")


def convexity_scan(a: float, b: float, u_grid: Sequence[float],
                   resolution: float = 1e-3) -> dict:
    """Boundary values along a grid with second-difference and
    monotonicity diagnostics (exploratory; convexity itself is open)."""
    us = [float(u) for u in u_grid]
    if any(v <= u for u, v in zip(us, us[1:])):
        raise ValueError("u_grid must be strictly increasing")
    samples = [boundary_f_ab(a, b, u, resolution=resolution) for u in us]
    fs = [s.f_value for s in samples]
    second = []
    for i in range(1, len(us) - 1):
        h1 = us[i] - us[i - 1]
        h2 = us[i + 1] - us[i]
        dd = 2.0 * (fs[i - 1] / (h1 * (h1 + h2)) - fs[i] / (h1 * h2)
                    + fs[i + 1] / (h2 * (h1 + h2)))
        second.append(dd)
    slack = [s.bracket_width for s in samples]
    mono_viol = sum(1 for i in range(len(fs) - 1)
                    if fs[i + 1] > fs[i] + slack[i] + slack[i + 1])
    return {
        "a": a,
        "b": b,
        "u": us,
        "f": fs,
        "bracket_width": slack,
        "method": [s.method for s in samples],
        "second_differences": second,
        "nonneg_second_diff_count": sum(1 for v in second if v >= -1e-9),
        "monotonicity_violations": mono_viol,
    }


# ---------------------------------------------------------------------------
# Partial Bessel integrals reformulation


def askey_szego_check(a: float, b: float, x_grid: Sequence[float]) -> dict:
    """Consistency of two statements: nonnegativity of the partial
    integrals int_0^x t^{b-a} J_{a+b-1}(t) dt, and membership of the pair
    (1 + b/2, a + b/2) in the existence region with base pair (b/2, b/2).

    Term-by-term integration of the series gives
        int_0^x t^{b-a} J_{a+b-1}(t) dt
            = x^{2b} / (2^{a+b} b Gamma(a+b)) * 1F2(b; b+1, a+b; -x^2/4),
    so global nonnegativity of the partial integrals is equivalent to
    nonnegativity of that 1F2, i.e. to the region membership above.  The
    integrand behaves like t^{2b-1} at zero, integrable for every b > 0."""
    if not (a > 0.0 and b > 0.0):
        raise ValueError("need a, b > 0")
    xs = sorted(float(x) for x in x_grid)
    if not xs or xs[0] <= 0.0:
        raise ValueError("x_grid must be positive")
    nu = a + b - 1.0
    f = lambda t: t ** (b - a) * bessel_j(nu, t)
    partials = []
    total = 0.0
    prev = 0.0
    min_partial = math.inf
    first = True
    for x in xs:
        # subdivide long panels so the oscillation stays resolved
        npan = max(1, int((x - prev) / math.pi) + 1)
        for k in range(npan):
            lo = prev + (x - prev) * k / npan
            hi = prev + (x - prev) * (k + 1) / npan
            if first:
                # head panel: algebraic behaviour t^{2b-1} at the origin;
                # the normalized kernel avoids the t^{b-a} blowup when a > b
                c_head = math.exp(-nu * math.log(2.0) - ln_gamma(nu + 1.0))
                r = quad.tanh_sinh(
                    lambda t, dlo, dhi: c_head
                    * math.exp((2.0 * b - 1.0) * math.log(dlo))
                    * bessel_j_normalized(nu, dlo),
                    lo, hi, tol=1e-11)
                total += r.value
                first = False
            else:
                total += quad.gauss_legendre(f, lo, hi, tol=1e-9).value
        partials.append(total)
        min_partial = min(min_partial, total)
        prev = x
    integral_nonneg = min_partial >= -1e-9
    verdict = exists_D(0.5 * b, 0.5 * b, 1.0 + 0.5 * b, a + 0.5 * b)
    agrees = (verdict.state == "Exists") == integral_nonneg \
        and verdict.state != "Indeterminate"
    return {
        "a": a,
        "b": b,
        "x": xs,
        "partial_integrals": partials,
        "min_partial": min_partial,
        "integral_nonneg": integral_nonneg,
        "verdict": verdict.to_dict(),
        "agrees": agrees,
    }


# ---------------------------------------------------------------------------
# Density by Mellin inversion


# the largest estimate of the dropped tail a returned density may carry
_DENSITY_TAIL_MAX = 1e-3


def density_via_inversion(spec: GammaRatioSpec, x: float,
                          line_sigma: Optional[float] = None,
                          truncation: Optional[float] = None) -> float:
    """Probability density at x > 0 by numerical inversion along a
    vertical line: (1/2 pi) int symbol(sigma + i tau) x^{-(sigma+i tau)-1}
    d tau.

    A point mass at one (bounded-support equal-sum case) is subtracted
    from the symbol before inverting, since a constant symbol has no
    pointwise-convergent inverse.  `truncation` caps the tau horizon
    (default 2400); raises ValueError unless x and it are finite and > 0.

    Where the symbol has not decayed at the horizon, the dropped part of
    the integral is estimated as x^{-sigma-1} |symbol| min(horizon,
    1/|log x|) / pi; past `_DENSITY_TAIL_MAX` the call raises
    `AccuracyError` with the value and that estimate (at x = 1 for
    Beta-ratio laws, whose symbols decay only algebraically)."""
    if not (math.isfinite(x) and x > 0.0):
        raise ValueError(f"need a finite x > 0, got {x!r}")
    if truncation is not None and not (math.isfinite(truncation) and truncation > 0.0):
        raise ValueError(f"truncation must be finite and > 0, got {truncation!r}")
    n, m, p, q = spec.sizes
    lo = max([-v for v in spec.a] + [-v for v in spec.c] or [-math.inf])
    hi = min(list(spec.b) + list(spec.d) or [math.inf])
    if line_sigma is None:
        if math.isinf(hi):
            line_sigma = lo + 1.5 if math.isfinite(lo) else 0.5
        else:
            line_sigma = 0.5 * (lo + hi)
    if not (lo < line_sigma < hi):
        raise ValueError(f"line_sigma={line_sigma} outside ({lo}, {hi})")

    atom = atom_at_one(spec) if spec.has_atom_at_one else 0.0

    # decay: super-polynomial when n+m > p+q, otherwise algebraic; the
    # horizon is the first of 16 * 1.6^k below the cap where the symbol
    # is negligible, or the cap
    t_cap = truncation if truncation is not None else 2400.0
    ladder = [16.0]
    while ladder[-1] < t_cap:
        ladder.append(ladder[-1] * 1.6)
    ladder[-1] = t_cap
    logs = _log_symbol(spec, np.full(len(ladder), complex(line_sigma, 0.0))
                       + 1j * np.array(ladder), ln_gamma_complex)
    for t_hi, lv in zip(ladder, logs):
        if lv.real > 700.0:
            raise OverflowError("Mellin symbol overflow on the line")
        size = abs(cmath.exp(lv) - atom)
        if not size > 1e-13:
            break
    if size > 1e-7 and atom == 0.0 and m == 0 and q == 0 and p == n:
        raise AccuracyError("inversion symbol does not decay on the line", 0.0, size)

    # fixed panels, at most a half oscillation period wide, 24-point rule;
    # the symbol factor is smooth so the product is resolved spectrally
    freq = abs(math.log(x)) + 1e-9
    width = min(4.0, math.pi / max(freq, 0.25))
    npanels = max(8, int(math.ceil(t_hi / width)))
    xs, ws = np.polynomial.legendre.leggauss(24)
    edges = np.linspace(0.0, t_hi, npanels + 1)
    mids = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1] - edges[0])
    taus = (mids[:, None] + half * xs[None, :]).ravel()
    weights = np.tile(ws, npanels) * half

    zline = np.full(taus.shape, complex(line_sigma, 0.0)) + 1j * taus
    sym = np.exp(_log_symbol(spec, zline, ln_gamma_complex)) - atom
    osc = np.exp(-1j * taus * math.log(x))
    acc = float(np.sum(weights * (sym * osc).real))
    value = math.exp(-(line_sigma + 1.0) * math.log(x)) * acc / math.pi
    # the integral dropped past the horizon: about |symbol| / |log x| where
    # x^{-i tau} oscillates, about |symbol| * t_hi at x = 1 where it does not
    log_x = abs(math.log(x))
    dropped = x ** -(line_sigma + 1.0) * size * min(t_hi, 1.0 / log_x if log_x else math.inf) \
        / math.pi
    if dropped > _DENSITY_TAIL_MAX:
        raise AccuracyError("inversion symbol has not decayed at the horizon", value, dropped)
    return value


# ---------------------------------------------------------------------------
# Two-dimensional Beta-type integral (closes the squared-Bessel Mellin
# formula chain together with the cosine moment)


def selberg2_closed_form(alpha: float, s: float) -> float:
    """Gamma closed form of the planar integral
    int_{[0,1]^2} (t(1-t)u(1-u))^{alpha-1/2} |t-u|^{2s-2alpha-1} dt du."""
    return math.exp(
        2.0 * ln_gamma(s) + ln_gamma(2.0 * s - 2.0 * alpha)
        + 2.0 * ln_gamma(alpha + 0.5)
        - ln_gamma(2.0 * s) - ln_gamma(s - alpha + 0.5) - ln_gamma(alpha + s + 0.5)
    )


def selberg2_check(alpha: float, s: float):
    """Tensor quadrature of the planar integral against the closed form.

    The diagonal singularity |t-u|^{2s-2a-1} is exposed by v = t - u and
    the two congruent triangles; valid for s in (max(0, alpha),
    alpha + 1/2).  Returns (quadrature_value, closed_form)."""
    if not alpha > -0.5:
        raise ValueError("need alpha > -1/2")
    if not (max(0.0, alpha) < s < alpha + 0.5):
        raise ValueError(f"s={s} outside (max(0, alpha), alpha + 1/2)")
    lam = alpha - 0.5
    ex = 2.0 * s - 2.0 * alpha - 1.0

    def inner(v: float, length: float) -> float:
        def g(u: float, dlo: float, dhi: float) -> float:
            # dlo = u and dhi = length - u exactly; the other two factors
            # stay interior for v > 0
            return (dlo * (1.0 - dlo) * (dlo + v) * dhi) ** lam
        r = quad.tanh_sinh(g, 0.0, length, tol=1e-11)
        return r.value

    def outer(v: float, dlo: float, dhi: float) -> float:
        # dhi = 1 - v exactly (v near 1 underflows the plain difference)
        if dhi < 1e-200:
            return 0.0
        return dlo ** ex * inner(dlo, dhi)

    r = quad.tanh_sinh(outer, 0.0, 1.0, tol=1e-9)
    return 2.0 * r.value, selberg2_closed_form(alpha, s)


# ---------------------------------------------------------------------------
# Sampling for Beta-Gamma shapes


def sample_ratio_product(spec: GammaRatioSpec, seed: int, count: int) -> np.ndarray:
    """Draws from the Beta-Gamma factorization available when p <= 1 and
    q <= 1: numerator Beta(a1, c1-a1) * Gammas(a2..), denominator the same
    with (b, d).  Conventions: a missing lower entry means no Beta factor;
    Beta(a, 0) is the constant 1.

    Each block of `rng.BLOCK` sample indices draws from its own substream
    (`rng.block_generator`), so a prefix of a longer draw is the shorter
    draw.  Every factor takes a full block of variates, even in a short
    last block: numpy's beta and gamma samplers reject, so the raw draws
    a variate consumes vary, and a shorter factor would shift the next."""
    n, m, p, q = spec.sizes
    if p > 1 or q > 1:
        raise ValueError("factorized sampling needs p <= 1 and q <= 1")
    if p == 1 and (n == 0 or spec.c[0] < spec.a[0] - 1e-15):
        raise ValueError("numerator Beta needs a1 <= c1")
    if q == 1 and (m == 0 or spec.d[0] < spec.b[0] - 1e-15):
        raise ValueError("denominator Beta needs b1 <= d1")
    if count < 1:
        raise ValueError("count must be >= 1")

    def side(gen: np.random.Generator, entries: tuple, lower: tuple) -> np.ndarray:
        out = np.ones(rng.BLOCK)
        start = 0
        if lower:
            beta_b = lower[0] - entries[0]
            if beta_b > 1e-15:
                out *= gen.beta(entries[0], beta_b, size=rng.BLOCK)
            start = 1
        for e in entries[start:]:
            out *= gen.standard_gamma(e, size=rng.BLOCK)
        return out

    values = np.empty(count)
    for b, rows in rng.block_rows(count):
        gen = rng.block_generator(seed, b)
        num = side(gen, spec.a, spec.c)
        den = side(gen, spec.b, spec.d)
        values[rows] = (num / den)[:rows.stop - rows.start]
    return values
