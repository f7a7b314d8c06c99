"""The kernels every module calls: the scalar log-gamma, digamma, Bessel
J/I and 1F2 series kernels of `_kernels_py` and its complex
`ln_gamma_complex`, the Hankel expansion terms and the error bound of
`bessel_j`, and the array inverse normal CDF of `_normal`.

Modules take their kernels from here rather than from `_kernels_py`, so
that one binding site names each kernel: the benchmark's call counters
patch these names.
"""

from __future__ import annotations

from ._kernels_py import (
    BACKEND_NAME,
    bessel_i,
    bessel_i_normalized,
    bessel_j,
    bessel_j_asymptotic,
    bessel_j_error_bound,
    bessel_j_normalized,
    bessel_j_prime,
    digamma,
    hankel_terms,
    hyp1f2_fixed_point,
    hyp1f2_series,
    j_crossover,
    ln_gamma,
    ln_gamma_complex,
)
from ._normal import normal_inv_cdf
