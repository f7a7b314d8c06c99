"""Power semicircle laws, Bessel hitting times, Brownian subordination, and
verification that the characteristic-function pair (cf(t), 1/cf(it)) is a
van Dantzig pair.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import rng
from .backend import bessel_i_normalized, bessel_j_normalized
from .specfun import ZeroTable, bessel_zeros, ln_gamma, zero_tail_power_sum

__all__ = [
    "PowerSemicircle",
    "HittingTimeModel",
    "PairReport",
    "semicircle_density",
    "semicircle_cf",
    "semicircle_cf_imag_axis",
    "hadamard_cf",
    "mean_hitting_time",
    "hitting_time_lt",
    "hitting_time_lt_product",
    "sample_hitting_time",
    "sample_subordinated",
    "verify_pair",
    "write_samples_csv",
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
    """E[T] as the negative derivative of the closed-form transform at 0.

    Five-point stencil at step 1e-3: the plain central difference at tiny
    steps has a rounding floor ~1e-11 which is too coarse for the product
    tail corrections downstream."""
    h = 1e-3

    def lt(lam: float) -> float:
        if lam >= 0.0:
            return 1.0 / bessel_i_normalized(alpha, math.sqrt(2.0 * lam))
        return 1.0 / bessel_j_normalized(alpha, math.sqrt(-2.0 * lam))

    return -(-lt(2.0 * h) + 8.0 * lt(h) - 8.0 * lt(-h) + lt(-2.0 * h)) / (12.0 * h)


@dataclass(frozen=True)
class HittingTimeModel:
    """Law of the first time a Bessel process of dimension 2 alpha + 1
    started at 0 hits level 1, represented spectrally through the first N
    squared zeros plus the deterministic mean of the truncated tail."""

    alpha: float
    zeros: ZeroTable
    truncation: int
    tail_mean: float

    @classmethod
    def build(cls, alpha: float, truncation: int = 256) -> "HittingTimeModel":
        if math.isnan(alpha) or alpha <= -0.5 + _MIN_ALPHA_MARGIN:
            raise ValueError(f"need alpha > -1/2, got {alpha!r}")
        if truncation < 50:
            raise ValueError("truncation must be >= 50")
        table = bessel_zeros(alpha, truncation)
        partial = sum(2.0 / (z * z) for z in table.zeros)
        tail = mean_hitting_time(alpha) - partial
        if tail < 0.0:
            if tail < -1e-9:
                raise ValueError(f"negative tail mean {tail}; zero table broken?")
            tail = 0.0
        return cls(alpha=alpha, zeros=table, truncation=truncation, tail_mean=tail)


def hitting_time_lt(model, lam: float) -> float:
    """E[e^{-lam T}] via the closed modified-Bessel form; in (0, 1] for
    lam >= 0."""
    if lam < 0.0:
        raise ValueError(f"need lam >= 0, got {lam!r}")
    alpha = model.alpha if hasattr(model, "alpha") else float(model)
    return 1.0 / bessel_i_normalized(alpha, math.sqrt(2.0 * lam))


def hitting_time_lt_product(model: HittingTimeModel, lam: float) -> float:
    """Truncated-product cross-check: prod_n (1 + 2 lam / j_n^2)^{-1} over
    the table, times exp(-lam * tail_mean) for the dropped factors."""
    if lam < 0.0:
        raise ValueError(f"need lam >= 0, got {lam!r}")
    log_acc = 0.0
    for z in model.zeros.zeros:
        log_acc -= math.log1p(2.0 * lam / (z * z))
    return math.exp(log_acc - lam * model.tail_mean)


def hadamard_cf(model: PowerSemicircle, z: float, truncation: int = 200,
                axis: str = "real") -> float:
    """Product over the first N squared zeros with a tail correction.

    axis="real" evaluates prod (1 - z^2/j^2); axis="imag" evaluates the
    product at the purely imaginary point i*z, i.e. prod (1 + z^2/j^2).
    The dropped factors contribute sum_{n>N} log(1 + y/j_n^2) with
    y = -+ z^2, expanded through third order: the leading sum comes from
    the transform-derivative identity, the higher two from tail power
    sums of the zero table.
    """
    if axis not in ("real", "imag"):
        raise ValueError(f"axis must be 'real' or 'imag', got {axis!r}")
    table = bessel_zeros(model.alpha, truncation)
    y = -z * z if axis == "real" else z * z
    log_prod = 0.0
    negative = False
    partial_s2 = 0.0
    for j in table.zeros:
        f = 1.0 + y / (j * j)
        partial_s2 += 1.0 / (j * j)
        if f <= 0.0:
            negative = not negative if f < 0.0 else negative
            if f == 0.0:
                return 0.0
            log_prod += math.log(-f)
        else:
            log_prod += math.log(f)
    t1 = 0.5 * mean_hitting_time(model.alpha) - partial_s2
    t2 = zero_tail_power_sum(table, 4)
    t3 = zero_tail_power_sum(table, 6)
    tail_log = y * t1 - 0.5 * y * y * t2 + (y ** 3) * t3 / 3.0
    val = math.exp(log_prod + tail_log)
    return -val if negative else val


def _hitting_time_blocks(model: HittingTimeModel, rng_seed: int, count: int,
                         per_sample: int):
    """Yield (rows, uniforms, T) per rng block: T is drawn from the first
    len(model.zeros) uniform columns, the caller owns any further ones."""
    n = len(model.zeros)
    inv_j2 = 2.0 / np.asarray(model.zeros.zeros) ** 2
    for rows, u in rng.blocks(rng_seed, count, per_sample):
        e = rng.exponential_from_uniform(u[:, :n])
        # a per-row sum outside BLAS, so the bits of each draw depend neither
        # on the BLAS thread count nor on how many rows the block has
        yield rows, u, np.einsum("ij,j->i", e, inv_j2) + model.tail_mean


def sample_hitting_time(model: HittingTimeModel, rng_seed: int,
                        count: int) -> np.ndarray:
    """count independent draws: sum_n 2 E_n / j_n^2 over the table plus the
    deterministic tail mean (E_n unit exponentials)."""
    if count < 1:
        raise ValueError("count must be >= 1")
    out = np.empty(count)
    for rows, _, t in _hitting_time_blocks(model, rng_seed, count, len(model.zeros)):
        out[rows] = t
    return out


def sample_subordinated(model: HittingTimeModel, rng_seed: int,
                        count: int) -> np.ndarray:
    """Y = sqrt(T) Z with Z standard normal, T a hitting-time draw; the
    normal stream rides in the same per-block uniforms as T, one column
    past the exponentials."""
    if count < 1:
        raise ValueError("count must be >= 1")
    n = len(model.zeros)
    out = np.empty(count)
    for rows, u, t in _hitting_time_blocks(model, rng_seed, count, n + 1):
        out[rows] = np.sqrt(t) * rng.normal_from_uniform(u[:, n])
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

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


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


def write_samples_csv(path: str, values: Sequence[float]) -> None:
    """One value per line under a `value` header."""
    with open(path, "w", encoding="utf-8") as f:
        f.write("value\n")
        for v in values:
            f.write(f"{float(v):.17g}\n")
