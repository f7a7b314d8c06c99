"""Kernel backend selection: compiled extension when available, pure Python
otherwise.

Set BESSELPROB_PURE_PYTHON=1 to force the fallback.  Two array kernels
(numpy) are shared by both backends: the inverse normal CDF (AS241) and
`bessel_j_array`, which equals the pure-Python scalar `bessel_j` bit for
bit at every element.
"""

from __future__ import annotations

import os

from ._kernels_py import bessel_j_array  # array kernels, the same for both backends
from ._normal import normal_inv_cdf

if os.environ.get("BESSELPROB_PURE_PYTHON", "") not in ("", "0"):
    from . import _kernels_py as kernels
else:
    try:
        from . import _kernels_cy as kernels  # type: ignore[no-redef]
    except ImportError:
        from . import _kernels_py as kernels  # type: ignore[no-redef]

BACKEND_NAME: str = kernels.BACKEND_NAME

ln_gamma = kernels.ln_gamma
digamma = kernels.digamma
bessel_j = kernels.bessel_j
bessel_j_series = kernels.bessel_j_series
bessel_j_asymptotic = kernels.bessel_j_asymptotic
bessel_j_prime = kernels.bessel_j_prime
bessel_j_normalized = kernels.bessel_j_normalized
bessel_i = kernels.bessel_i
bessel_i_normalized = kernels.bessel_i_normalized
hyp1f2_series = kernels.hyp1f2_series
j_crossover = kernels.j_crossover
