"""Scalar special functions on the positive reals: log-gamma, digamma, trigamma.

All three are evaluated by shifting the argument upward with the standard
recurrences until the asymptotic (de Moivre / Stirling-type) series converges
to double precision, then applying the series. A fixed shift of 16 keeps the
evaluation branch-free and fully vectorized.

Accuracy (verified against a 50-digit reference in the test suite):
absolute error stays below 1e-12 for ``log_gamma``/``digamma`` and below
1e-10 for ``trigamma`` wherever the result magnitude leaves float64 headroom
for it; for very large results (lnGamma beyond ~1e4, trigamma arguments near
the bottom of the domain) the guarantee degrades gracefully to a few ulps of
the result. Arguments below 1e-3 are accepted, but the documented accuracy
window starts at 1e-3.

Inputs may be scalars or numpy arrays; scalars come back as ``float``.
All functions are pure and thread-safe.
"""

from __future__ import annotations

import numpy as np

__all__ = ["DomainError", "log_gamma", "digamma", "trigamma"]

_SHIFT = 16
_HALF_LN_TWO_PI = 0.9189385332046727  # ln(2*pi)/2

# Asymptotic-series coefficients, all derived from Bernoulli numbers
# B2..B14. With the argument shifted to >= 16 the first omitted term is
# below 1e-16 relative for every series here.

# lnGamma(x) ~ (x-1/2)ln x - x + ln(2pi)/2 + sum B_2n / (2n(2n-1) x^(2n-1))
_LGAMMA_COEFFS = (
    1.0 / 12.0,
    -1.0 / 360.0,
    1.0 / 1260.0,
    -1.0 / 1680.0,
    1.0 / 1188.0,
    -691.0 / 360360.0,
    7.0 / 1092.0,
)

# digamma(x) ~ ln x - 1/(2x) - sum B_2n / (2n x^(2n))
_DIGAMMA_COEFFS = (
    1.0 / 12.0,
    -1.0 / 120.0,
    1.0 / 252.0,
    -1.0 / 240.0,
    1.0 / 132.0,
    -691.0 / 32760.0,
    1.0 / 12.0,
)

# trigamma(x) ~ 1/x + 1/(2x^2) + sum B_2n / x^(2n+1)
_TRIGAMMA_COEFFS = (
    1.0 / 6.0,
    -1.0 / 30.0,
    1.0 / 42.0,
    -1.0 / 30.0,
    5.0 / 66.0,
    -691.0 / 2730.0,
    7.0 / 6.0,
)


class DomainError(ValueError):
    """Argument outside the (0, inf) domain, or not finite."""


def _shift_and_series(x, name: str, correction, coeffs, finish):
    """The scheme all three share, for x > 0: validate x, shift it to
    ``y = x + 16``, sum ``correction(x + i)`` smallest-first (i = 15 down
    to 0) into ``corr``, sum the series in ``z = 1/y^2`` over ``coeffs`` by
    Horner's rule, and return ``finish(y, z, series, corr)``, a ``float``
    for a scalar x."""
    arr = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise DomainError(f"{name}: argument must be finite, got {x!r}")
    if np.any(arr <= 0.0):
        raise DomainError(f"{name}: argument must be > 0, got {x!r}")
    y = arr + _SHIFT
    corr = np.zeros_like(y)
    for i in range(_SHIFT - 1, -1, -1):
        corr += correction(arr + i)
    z = 1.0 / (y * y)
    series = np.zeros_like(y)
    for c in reversed(coeffs):
        series = series * z + c
    out = finish(y, z, series, corr)
    return float(out) if np.isscalar(x) else out


def log_gamma(x):
    """Natural log of the Gamma function for x > 0."""

    def finish(y, z, series, corr):
        return (y - 0.5) * np.log(y) - y + _HALF_LN_TWO_PI + series / y - corr

    return _shift_and_series(x, "log_gamma", np.log, _LGAMMA_COEFFS, finish)


def digamma(x):
    """Digamma (psi) function, d/dx lnGamma(x), for x > 0."""

    def finish(y, z, series, corr):
        return np.log(y) - 0.5 / y - series * z - corr

    return _shift_and_series(x, "digamma", np.reciprocal, _DIGAMMA_COEFFS, finish)


def trigamma(x):
    """Trigamma function, d/dx digamma(x), for x > 0."""

    def correction(t):
        inv = 1.0 / t
        return inv * inv

    def finish(y, z, series, corr):
        return 1.0 / y + 0.5 * z + series * (z / y) + corr

    return _shift_and_series(x, "trigamma", correction, _TRIGAMMA_COEFFS, finish)
