"""Power semicircle laws, Bessel hitting times, Brownian subordination, and
verification that the characteristic-function pair (cf(t), 1/cf(it)) is a
van Dantzig pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from . import rng
from .backend import bessel_i_normalized, bessel_j, bessel_j_normalized
from .specfun import ZeroTable, bessel_zeros, ln_gamma, zero_tail_power_sum

__all__ = [
    "PowerSemicircle",
    "HittingTimeModel",
    "SpectralTable",
    "PairReport",
    "semicircle_density",
    "semicircle_cf",
    "semicircle_cf_imag_axis",
    "hadamard_cf",
    "mean_hitting_time",
    "hitting_time_lt",
    "hitting_time_lt_product",
    "hitting_time_quantile",
    "sample_hitting_time",
    "sample_subordinated",
    "verify_pair",
]

_MIN_ALPHA_MARGIN = 1e-9


@dataclass(frozen=True)
class PowerSemicircle:
    """Index alpha > -1/2 of the density ~ (1-x^2)^{alpha-1/2} on (-1,1).

    alpha = 0, 1/2, 1 are the arcsine, uniform and semicircle laws."""

    alpha: float

    def __post_init__(self):
        if math.isnan(self.alpha) or self.alpha <= -0.5 + _MIN_ALPHA_MARGIN:
            raise ValueError(
                f"power semicircle index must exceed -1/2, got {self.alpha!r}")


def semicircle_density(model: PowerSemicircle, x: float) -> float:
    """Density value at x; zero outside (-1, 1)."""
    if not -1.0 < x < 1.0:
        return 0.0
    a = model.alpha
    c = math.exp(ln_gamma(a + 1.0) - ln_gamma(a + 0.5)) / math.sqrt(math.pi)
    return c * (1.0 - x * x) ** (a - 0.5)


def semicircle_cf(model: PowerSemicircle, t: float) -> float:
    """Characteristic function Gamma(a+1)(|t|/2)^{-a} J_a(|t|); even, 1 at
    t = 0 (small |t| through the normalized series)."""
    return bessel_j_normalized(model.alpha, abs(t))


def semicircle_cf_imag_axis(model: PowerSemicircle, t: float) -> float:
    """cf continued to the imaginary axis: Gamma(a+1)(|t|/2)^{-a} I_a(|t|).

    Even, >= 1; raises OverflowError with the log-scale value past
    |t| ~ 690."""
    return bessel_i_normalized(model.alpha, abs(t))


def mean_hitting_time(alpha: float) -> float:
    """E[T] = sum_n 2 / j_n^2 = 1 / (2 alpha + 2), by Rayleigh's sum
    sum_n j_n^-2 = 1 / (4 (alpha + 1)) over the zeros of J_alpha."""
    return 0.5 / (alpha + 1.0)


_MODEL_ZEROS = 256         # zeros in a HittingTimeModel's table


@dataclass(frozen=True)
class HittingTimeModel:
    """Law of T, the first time a Bessel process of dimension 2 alpha + 2
    (index alpha) started at 0 hits level 1, so E[T] = 1 / (2 alpha + 2).

    `zeros` holds the first 256 zeros j_n of J_alpha, and `tail_mean` the
    mean sum_{n > 256} 2 / j_n^2 of the dropped part of
    T = sum_n 2 E_n / j_n^2 (E_n unit exponentials), from the closed-form
    E[T]; `build` raises when the table's part exceeds E[T].  `spectral`
    is the table the samplers invert; it takes only the first zeros."""

    alpha: float
    zeros: ZeroTable
    tail_mean: float

    @classmethod
    def build(cls, alpha: float) -> "HittingTimeModel":
        if math.isnan(alpha) or alpha <= -0.5 + _MIN_ALPHA_MARGIN:
            raise ValueError(f"need alpha > -1/2, got {alpha!r}")
        table = bessel_zeros(alpha, _MODEL_ZEROS)
        partial = sum(2.0 / (z * z) for z in table.zeros)
        tail = mean_hitting_time(alpha) - partial
        if tail < 0.0:
            if tail < -1e-9:
                raise ValueError(f"negative tail mean {tail}; zero table broken?")
            tail = 0.0
        return cls(alpha=alpha, zeros=table, tail_mean=tail)

    @property
    def spectral(self) -> "SpectralTable":
        """The inverse-CDF table of the samplers, built once per zero table."""
        return _spectral_table(self.zeros)


def hitting_time_lt(model, lam: float) -> float:
    """E[e^{-lam T}] via the closed modified-Bessel form, for the index
    `model.alpha` (a `HittingTimeModel` or a `PowerSemicircle`); in (0, 1]
    for lam >= 0."""
    if lam < 0.0:
        raise ValueError(f"need lam >= 0, got {lam!r}")
    return 1.0 / bessel_i_normalized(model.alpha, math.sqrt(2.0 * lam))


def _log_zero_product(table: ZeroTable, y: float):
    """(log |P|, P < 0) for P = prod_n (1 + y / j_n^2) over all zeros of
    J_alpha, which is I_norm(sqrt(y)) for y >= 0 and J_norm(sqrt(-y))
    for y < 0.

    The table's factors are multiplied out; the dropped ones contribute
    sum_{n>N} log(1 + y / j_n^2), expanded through third order in y.  Its
    first power sum is Rayleigh's sum_n j_n^-2 = E[T] / 2 less the table's
    part, the other two are `zero_tail_power_sum`.  A zero factor gives
    log |P| = -inf."""
    log_p = 0.0
    negative = False
    s2 = 0.0
    for j in table.zeros:
        j2 = j * j
        f = 1.0 + y / j2
        s2 += 1.0 / j2
        if f > 0.0:
            log_p += math.log(f)
        elif f < 0.0:
            negative = not negative
            log_p += math.log(-f)
        else:
            return -math.inf, False
    t1 = 0.5 * mean_hitting_time(table.alpha) - s2
    t2 = zero_tail_power_sum(table, 4)
    t3 = zero_tail_power_sum(table, 6)
    return log_p + y * t1 - 0.5 * y * y * t2 + (y ** 3) * t3 / 3.0, negative


def hitting_time_lt_product(model: HittingTimeModel, lam: float) -> float:
    """E[e^{-lam T}] as 1 / prod_n (1 + 2 lam / j_n^2), the transform of
    T = sum_n 2 E_n / j_n^2: a route independent of `hitting_time_lt`,
    over the model's 256 zeros and the third-order zero tail that
    `hadamard_cf` uses too."""
    if lam < 0.0:
        raise ValueError(f"need lam >= 0, got {lam!r}")
    return math.exp(-_log_zero_product(model.zeros, 2.0 * lam)[0])


def hadamard_cf(model: PowerSemicircle, z: float, truncation: int = 200,
                axis: str = "real") -> float:
    """The cf as its Hadamard product over the zeros of J_alpha: the first
    `truncation` zeros and the third-order zero tail that
    `hitting_time_lt_product` uses too.

    axis="real" evaluates prod (1 - z^2/j^2); axis="imag" evaluates the
    product at the purely imaginary point i*z, i.e. prod (1 + z^2/j^2).
    The zeros are the first `truncation` of `bessel_zeros`, a prefix of
    its cached table.
    """
    if axis not in ("real", "imag"):
        raise ValueError(f"axis must be 'real' or 'imag', got {axis!r}")
    y = -z * z if axis == "real" else z * z
    log_p, negative = _log_zero_product(bessel_zeros(model.alpha, truncation), y)
    val = math.exp(log_p)
    return -val if negative else val


# The survival function of T from the residues of 1 / I_norm (Kent 1978,
# Ann. Probab. 6; Hamana and Matsumoto 2013, Trans. AMS 365):
#   S(t) = P(T > t) = sum_n w_n exp(-j_n^2 t / 2),  w_n = 2 c_n / j_n^2,
#   c_n = j_n^(alpha+1) / (2^alpha Gamma(alpha+1) J_{alpha+1}(j_n)),
# and the density f(t) = sum_n c_n exp(-j_n^2 t / 2).
_EPS = 2.0 ** -52
_TERM_ZEROS = 64           # zeros from which the table picks its terms
_LEFT_NOISE = 1e-3         # rounding of S allowed at t_c, relative to F(t_c)
_TABLE_POINTS = 2048
_MIDPOINT_SAFETY = 2.0     # ks_bound's factor on the largest midpoint error
_LEFT_STEPS = 4
_EXP_FLOOR = -700.0        # exp below this underflows; numpy's exp is ~20x
                           # slower there, and such terms are below 1e-280
_U_FLOOR = 2.0 ** -54      # u = 0 is inverted at half the smallest uniform


@dataclass(frozen=True, eq=False)
class SpectralTable:
    """The spectral survival series of T and the table that inverts it.

    `half_j2` (j_n^2 / 2) and `weights` (w_n) hold the N terms of
    S(t) = P(T > t) that matter from `t_c` on.  `log_t` is a geometric grid
    of 2048 points x = log t on [t_c, t_r], `logit` holds y = log F - log S
    there (F = 1 - S) and `slope` holds dx/dy = F S / (t f), f the density;
    between nodes the inverse is the cubic Hermite interpolant of these.
    Past t_r the first term alone is S to rounding.  Below `t_c` the series
    cancels in double precision, and F is the leading small-time term
    t^-alpha exp(-1 / (2 t)) scaled to equal `f_c` = F(t_c) at t_c.
    `ks_bound` is F(t_c) plus twice the largest |F(t(u)) - u| at the
    cells' midpoints, where the Hermite error peaks: the sampled law's CDF
    differs from T's by at most that much.  `guide[b]` counts the nodes
    below logit[0] + (b - 1) `guide_step`, the narrowest cell's width, so
    that a value's cell takes three compares rather than a binary search.
    """

    alpha: float
    half_j2: np.ndarray
    weights: np.ndarray
    t_c: float
    f_c: float
    ks_bound: float
    log_t: np.ndarray
    logit: np.ndarray
    slope: np.ndarray
    guide: np.ndarray
    guide_step: float


def _series(half_j2: np.ndarray, weights: np.ndarray, t: np.ndarray):
    """S(t) and the density f(t) at each element of t.  The terms are added
    in order of n, element by element, so each value depends on its own t
    only."""
    s = np.zeros_like(t)
    f = np.zeros_like(t)
    for a, w in zip(half_j2, weights):
        e = np.exp(np.maximum(-a * t, _EXP_FLOOR))
        s += w * e
        f += (a * w) * e
    return s, f


@lru_cache(maxsize=64)
def _spectral_table(zeros: ZeroTable) -> SpectralTable:
    """t_c is the smallest point of a geometric candidate grid from which on
    the rounding of S, 4 eps sum_n |w_n| exp(-j_n^2 t / 2), stays within
    `_LEFT_NOISE` F(t) and so does the last term taken; the table keeps
    the terms that exceed eps * `_LEFT_NOISE` F(t_c) there."""
    alpha = zeros.alpha
    j = np.asarray(zeros.zeros[:_TERM_ZEROS])
    log_norm = alpha * math.log(2.0) + ln_gamma(alpha + 1.0)
    jp = np.array([bessel_j(alpha + 1.0, v) for v in j.tolist()])
    w = 2.0 * np.exp((alpha - 1.0) * np.log(j) - log_norm) / jp
    if not (np.all(w[::2] > 0.0) and np.all(w[1::2] < 0.0)):
        # J_{alpha+1} alternates in sign over consecutive zeros of J_alpha
        raise ValueError(f"the zero table of J_{alpha!r} skips a zero")
    half_j2 = 0.5 * j * j

    cand = np.geomspace(1e-3, 1.0, 601)
    terms = w * np.exp(np.maximum(-np.multiply.outer(cand, half_j2), _EXP_FLOOR))
    f_cand = 1.0 - terms.sum(axis=1)
    noise = _LEFT_NOISE * f_cand
    ok = (4.0 * _EPS * np.abs(terms).sum(axis=1) <= noise) \
        & (np.abs(terms[:, -1]) <= _EPS * noise)
    bad = np.flatnonzero(~ok)
    first = bad[-1] + 1 if bad.size else 0
    # past t_r the second term is below eps times the first
    t_r = math.log(-w[1] / (_EPS * w[0])) / (half_j2[1] - half_j2[0])
    # the left-tail Newton needs 1 / t_c > 2 alpha
    if first == cand.size or not t_r > cand[first] or 2.0 * alpha * cand[first] >= 1.0:
        raise ValueError(f"no spectral table for alpha = {alpha!r}: the series "
                         "cancels in double precision up to its bulk")
    t_c = float(cand[first])
    n = int(np.flatnonzero(np.abs(terms[first]) > _EPS * noise[first])[-1]) + 1

    half_j2, w = half_j2[:n], w[:n]
    log_t = np.linspace(math.log(t_c), math.log(t_r), _TABLE_POINTS)
    t = np.exp(log_t)
    s, f = _series(half_j2, w, t)
    big_f = 1.0 - s
    logit = np.log(big_f) - np.log(s)
    slope = big_f * s / (t * f)
    err = _midpoint_error(half_j2, w, log_t, logit, slope)
    step = float(np.min(np.diff(logit)))
    edges = logit[0] + step * (np.arange(int((logit[-1] - logit[0]) / step) + 2) - 1.0)
    # t_c and F(t_c) as the table holds them, so the two routes meet there
    return SpectralTable(alpha=alpha, half_j2=half_j2, weights=w, t_c=float(t[0]),
                         f_c=float(big_f[0]),
                         ks_bound=float(big_f[0]) + _MIDPOINT_SAFETY * err,
                         log_t=log_t, logit=logit, slope=slope,
                         guide=np.searchsorted(logit, edges), guide_step=step)


def _cell(table: SpectralTable, y: np.ndarray) -> np.ndarray:
    """np.searchsorted(table.logit, y) clipped to [1, N - 1], without the
    binary search's mispredicted branches.  y lies in guide bin b or next
    to it, the three bins from b - 1 on hold at most three nodes, and each
    step passes one node below y."""
    last = table.logit.size - 1
    b = ((y - table.logit[0]) / table.guide_step).astype(np.intp)
    k = table.guide[np.clip(b, 0, table.guide.size - 1)]
    for _ in range(3):
        k += table.logit[np.minimum(k, last)] < y
    return np.clip(k, 1, last)


def _hermite(x: np.ndarray, y: np.ndarray, slope: np.ndarray, k: np.ndarray,
             at: np.ndarray) -> np.ndarray:
    """The cubic Hermite interpolant through (y_j, x_j) with dx/dy =
    slope_j, at each element of `at` on the cell from y_{k-1} to y_k; the
    end cells extend past y_0 and y_last."""
    x0, y0, m0, m1 = x[k - 1], y[k - 1], slope[k - 1], slope[k]
    h = y[k] - y0
    chord = (x[k] - x0) / h
    d = at - y0
    r = d / h
    return x0 + d * (m0 + r * ((3.0 * chord - 2.0 * m0 - m1)
                               + r * (m0 + m1 - 2.0 * chord)))


def _midpoint_error(half_j2: np.ndarray, weights: np.ndarray, log_t: np.ndarray,
                    logit: np.ndarray, slope: np.ndarray) -> float:
    """max |F(t) - u| over the cell midpoints y of the table, t the Hermite
    inverse there and u = 1 / (1 + e^-y)."""
    y = 0.5 * (logit[:-1] + logit[1:])
    x = _hermite(log_t, logit, slope, np.arange(1, logit.size), y)
    s, _ = _series(half_j2, weights, np.exp(x))
    return float(np.max(np.abs((1.0 - s) - 1.0 / (1.0 + np.exp(-y)))))


def _left_tail(table: SpectralTable, u: np.ndarray) -> np.ndarray:
    """t with K t^-alpha exp(-1 / (2 t)) = u for u < F(t_c), K making it
    F(t_c) at t_c: Newton in s = 1 / t on
    h(s) = (s - s_c) / 2 - alpha log(s / s_c) - log(F(t_c) / u), which is
    monotone for s > 2 alpha (the table guarantees s_c > 2 alpha)."""
    alpha, s_c = table.alpha, 1.0 / table.t_c
    r = np.log(table.f_c / np.maximum(u, _U_FLOOR))
    s = s_c + 2.0 * r
    for _ in range(_LEFT_STEPS):
        s -= (0.5 * (s - s_c) - alpha * np.log(s / s_c) - r) / (0.5 - alpha / s)
    return 1.0 / s


def _quantile(table: SpectralTable, u: np.ndarray) -> np.ndarray:
    """Element-wise inverse of F by table lookup alone: each output depends
    on its own u only."""
    t = np.empty_like(u)
    left = u < table.f_c
    t[left] = _left_tail(table, u[left])
    um = u[~left]
    y = np.log(um) - np.log1p(-um)
    x = _hermite(table.log_t, table.logit, table.slope, _cell(table, y), y)
    past = y > table.logit[-1]
    # past the table S is its first term: w_1 exp(-j_1^2 t / 2) = 1 - u
    x[past] = np.log((math.log(table.weights[0]) - np.log1p(-um[past]))
                     / table.half_j2[0])
    t[~left] = np.exp(x)
    return t


def hitting_time_quantile(model: HittingTimeModel, u) -> np.ndarray:
    """T's inverse CDF at each element of u in [0, 1), as an array.

    The cubic Hermite inverse of `model.spectral`'s 2048-point table, with
    no step on the series; past t_r the inverse of the series' first term,
    below F(t_c) that of the small-time term (u below 2^-54, 0 included,
    maps to the point of 2^-54).  The sup-norm CDF error is at most
    `model.spectral.ks_bound`.  For u > 1/2 the survival value meets 1 - u
    to about 1e-11 relative; at large alpha the accuracy of the zeros and
    of J_{alpha+1} there limits it too."""
    u = np.array(u, dtype=float, ndmin=1)
    if not np.all((u >= 0.0) & (u < 1.0)):
        raise ValueError("u must lie in [0, 1)")
    return _quantile(model.spectral, u)


def _hitting_time_blocks(model: HittingTimeModel, rng_seed: int, count: int,
                         per_sample: int):
    """Yield (rows, uniforms, T) per rng block: T is drawn from the first
    uniform column, the caller owns any further ones."""
    table = model.spectral
    for rows, u in rng.blocks(rng_seed, count, per_sample):
        yield rows, u, _quantile(table, u[:, 0])


def sample_hitting_time(model: HittingTimeModel, rng_seed: int,
                        count: int) -> np.ndarray:
    """count independent draws of T, one uniform each, through
    `hitting_time_quantile`."""
    if count < 1:
        raise ValueError("count must be >= 1")
    out = np.empty(count)
    for rows, _, t in _hitting_time_blocks(model, rng_seed, count, 1):
        out[rows] = t
    return out


def sample_subordinated(model: HittingTimeModel, rng_seed: int,
                        count: int) -> np.ndarray:
    """Y = sqrt(T) Z with Z standard normal, T a hitting-time draw; two
    uniforms per draw, the first for T and the second for Z."""
    if count < 1:
        raise ValueError("count must be >= 1")
    out = np.empty(count)
    for rows, u, t in _hitting_time_blocks(model, rng_seed, count, 2):
        out[rows] = np.sqrt(t) * rng.normal_from_uniform(u[:, 1])
    return out


@dataclass(frozen=True)
class PairReport:
    alpha: float
    grid: tuple
    max_identity_error: float
    bochner_min_eigenvalue: float
    mc_cf_max_z_score: float
    mc_count: int
    seed: int

    def to_dict(self) -> dict:
        return {
            "alpha": self.alpha,
            "grid": list(self.grid),
            "max_identity_error": self.max_identity_error,
            "bochner_min_eigenvalue": self.bochner_min_eigenvalue,
            "mc_cf_max_z_score": self.mc_cf_max_z_score,
            "mc_count": self.mc_count,
            "seed": self.seed,
        }


_BOCHNER_POINTS = 64
_MC_EVAL_T = (0.5, 1.0, 2.0)


def verify_pair(model: PowerSemicircle, grid: Sequence[float],
                mc_count: int = 100_000, seed: int = 20260808) -> PairReport:
    """Three checks that 1/cf(it) is a genuine characteristic function
    forming a pair with cf(t):

    1. identity chain: cf(it) * E[e^{-(t^2/2) T}] = 1 on the grid;
    2. Bochner: the 64x64 matrix [phi(t_i - t_j)] for phi = 1/cf(it) is
       positive semidefinite up to rounding;
    3. Monte Carlo: the empirical characteristic function of subordinated
       samples matches 1/cf(it) within sampling error.
    """
    ts = tuple(float(t) for t in grid)
    if not ts:
        raise ValueError("grid must be nonempty")
    if any(b <= a for a, b in zip(ts, ts[1:])):
        raise ValueError("grid must be strictly increasing")
    # the sample standard deviations of the Monte Carlo check need two samples
    if not mc_count >= 2:
        raise ValueError(f"mc_count must be >= 2, got {mc_count!r}")

    id_err = 0.0
    for t in ts:
        prod = semicircle_cf_imag_axis(model, t) * hitting_time_lt(model, 0.5 * t * t)
        id_err = max(id_err, abs(prod - 1.0))

    tmax = ts[-1]
    bg = np.linspace(0.0, tmax, _BOCHNER_POINTS)
    phi = np.array([1.0 / semicircle_cf_imag_axis(model, t) for t in bg])
    # phi is even, so the matrix entry only needs |t_i - t_j|
    idx = np.abs(np.subtract.outer(np.arange(_BOCHNER_POINTS),
                                   np.arange(_BOCHNER_POINTS)))
    gram = phi[idx]
    min_eig = float(np.linalg.eigvalsh(gram)[0])

    htm = HittingTimeModel.build(model.alpha)
    y = sample_subordinated(htm, seed, mc_count)
    zmax = 0.0
    for t in _MC_EVAL_T:
        target = 1.0 / semicircle_cf_imag_axis(model, t)
        cos_ty = np.cos(t * y)
        sin_ty = np.sin(t * y)
        se_re = float(np.std(cos_ty, ddof=1)) / math.sqrt(mc_count)
        se_im = float(np.std(sin_ty, ddof=1)) / math.sqrt(mc_count)
        zmax = max(zmax,
                   abs(float(np.mean(cos_ty)) - target) / se_re,
                   abs(float(np.mean(sin_ty))) / se_im)

    return PairReport(alpha=model.alpha, grid=ts, max_identity_error=id_err,
                      bochner_min_eigenvalue=min_eig, mc_cf_max_z_score=zmax,
                      mc_count=mc_count, seed=seed)
