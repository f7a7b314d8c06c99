"""Inverse standard normal CDF on arrays: Wichura's AS241 (PPND16).

Wichura, "Algorithm AS 241: The percentage points of the normal
distribution", Appl. Statist. 37 (1988) 477-484.  Three rational
approximations of degree 7/7: one in q = u - 1/2 for |q| <= 0.425, two in
r = sqrt(-log(min(u, 1-u))) for the tails, split at r = 5.  The published
accuracy is about 1e-16 relative for min(u, 1-u) > 1e-300; no erfc and no
iteration, so every element costs the same fixed sequence of operations.
"""

from __future__ import annotations

import numpy as np

__all__ = ["normal_inv_cdf"]

# coefficients in increasing powers; the denominators have constant term 1
_A = (3.3871328727963666080e0, 1.3314166789178437745e2, 1.9715909503065514427e3,
      1.3731693765509461125e4, 4.5921953931549871457e4, 6.7265770927008700853e4,
      3.3430575583588128105e4, 2.5090809287301226727e3)
_B = (1.0, 4.2313330701600911252e1, 6.8718700749205790830e2, 5.3941960214247511077e3,
      2.1213794301586595867e4, 3.9307895800092710610e4, 2.8729085735721942674e4,
      5.2264952788528545610e3)
_C = (1.42343711074968357734e0, 4.63033784615654529590e0, 5.76949722146069140550e0,
      3.64784832476320460504e0, 1.27045825245236838258e0, 2.41780725177450611770e-1,
      2.27238449892691845833e-2, 7.74545014278341407640e-4)
_D = (1.0, 2.05319162663775882187e0, 1.67638483018380384940e0, 6.89767334985100004550e-1,
      1.48103976427480074590e-1, 1.51986665636164571966e-2, 5.47593808499534494600e-4,
      1.05075007164441684324e-9)
_E = (6.65790464350110377720e0, 5.46378491116411436990e0, 1.78482653991729133580e0,
      2.96560571828504891230e-1, 2.65321895265761230930e-2, 1.24266094738807843860e-3,
      2.71155556874348757815e-5, 2.01033439929228813265e-7)
_F = (1.0, 5.99832206555887937690e-1, 1.36929880922735805310e-1, 1.48753612908506148525e-2,
      7.86869131145613259100e-4, 1.84631831751005468180e-5, 1.42151175831644588870e-7,
      2.04426310338993978564e-15)
_CENTRAL, _NEAR, _FAR = (np.array([num, den]).T[:, :, None]
                         for num, den in ((_A, _B), (_C, _D), (_E, _F)))


def _rational(coeffs: np.ndarray, r: np.ndarray) -> np.ndarray:
    """num(r) / den(r) by Horner's rule, highest power first; coeffs has
    shape (degree + 1, 2, 1), numerator and denominator side by side."""
    nd = coeffs[-1]
    for c in coeffs[-2::-1]:
        nd = nd * r + c
    return nd[0] / nd[1]


def normal_inv_cdf(u):
    """Phi^{-1}(u) elementwise for u in (0, 1); a float for a scalar
    argument, otherwise an array of the argument's shape.

    Raises ValueError if any element lies outside the open interval
    (including 0, 1 and NaN).
    """
    p = np.atleast_1d(np.asarray(u, dtype=float))
    inside = (p > 0.0) & (p < 1.0)
    if not inside.all():
        bad = float(p[~inside][0])
        raise ValueError(f"normal_inv_cdf requires 0 < u < 1, got {bad!r}")
    q = p - 0.5
    x = np.empty_like(p)
    central = np.abs(q) <= 0.425
    qc = q[central]
    x[central] = qc * _rational(_CENTRAL, 0.180625 - qc * qc)
    tail = ~central
    if tail.any():
        pt = p[tail]
        # 1 - p is exact for p >= 1/2, so both tails keep full accuracy
        r = np.sqrt(-np.log(np.minimum(pt, 1.0 - pt)))
        near = r <= 5.0
        xt = np.empty_like(r)
        xt[near] = _rational(_NEAR, r[near] - 1.6)
        xt[~near] = _rational(_FAR, r[~near] - 5.0)
        x[tail] = np.copysign(xt, q[tail])
    return float(x[0]) if np.ndim(u) == 0 else x
