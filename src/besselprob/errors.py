"""Exception types shared across the package.

Domain violations raise plain ValueError; range/overflow conditions raise
OverflowError.  The two classes below name numerical failures that plain
exceptions cannot: `AccuracyError` carries the value and the bound it
achieved, and `DivergenceError` marks an integrand that grows without bound.
"""

from __future__ import annotations


class AccuracyError(ArithmeticError):
    """Requested tolerance could not be met; carries the achieved bound."""

    def __init__(self, message: str, value: float, achieved_bound: float):
        super().__init__(f"{message} (value={value:.6g}, achieved_bound={achieved_bound:.3g})")
        self.value = value
        self.achieved_bound = achieved_bound


class DivergenceError(ArithmeticError):
    """Quadrature detected an integrand growing without bound under
    refinement."""
