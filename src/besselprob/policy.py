"""Evaluation precision policy passed through all kernels and quadratures."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class PrecisionPolicy:
    """Targets and budgets for every numerical kernel.

    target_abs_tol / target_rel_tol
        Accuracy goals for kernel evaluations and quadratures.
    highprec_digits
        Decimal digits below the peak term kept by the exact fixed-point
        1F2 series on its cancellation path (>= 50), so its absolute
        error is about 10^-highprec_digits; fixed, not adaptive.
    """

    target_abs_tol: float = 1e-11
    target_rel_tol: float = 1e-12
    highprec_digits: int = 50

    def __post_init__(self):
        if not (self.target_abs_tol > 0.0 and self.target_rel_tol > 0.0):
            raise ValueError("tolerances must be positive")
        if self.highprec_digits < 50:
            raise ValueError("highprec_digits must be >= 50")


DEFAULT_POLICY = PrecisionPolicy()
