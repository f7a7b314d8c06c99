"""High-precision fallbacks for parameter corners where double arithmetic
cannot deliver (large non-half-integer Bessel order at moderate argument,
between the series cancellation limit and the asymptotic validity range).
Rarely hit; the scalar and array `bessel_j` kernels delegate here."""

from __future__ import annotations

import mpmath


def bessel_j_mp(alpha: float, z: float) -> float:
    """Defining series at working precision scaled to the cancellation."""
    digits = int(0.45 * z) + 30
    with mpmath.workdps(digits):
        a = mpmath.mpf(alpha)
        half = mpmath.mpf(z) / 2
        term = half ** a / mpmath.gamma(a + 1)
        total = term
        ratio = -half * half
        for n in range(1, 100000):
            term = term * ratio / (n * (n + a))
            total += term
            if n > z and abs(term) < mpmath.mpf(10) ** (5 - digits) * (abs(total) + 1):
                break
        return float(total)
