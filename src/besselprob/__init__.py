"""Numerical toolkit for two Bessel-function constructions in probability:
characteristic-function pairs built from power semicircle laws and Bessel
hitting times, and existence analysis for Mellin transforms of Gamma type.
"""

from .backend import BACKEND_NAME
from .errors import AccuracyError, DivergenceError

__version__ = "0.1.0"

__all__ = [
    "BACKEND_NAME",
    "AccuracyError",
    "DivergenceError",
    "__version__",
]
