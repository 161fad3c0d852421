"""Scalar special functions on the positive reals: log-gamma, digamma, trigamma.

All three are evaluated by shifting the argument upward with the standard
recurrences until the asymptotic (de Moivre / Stirling-type) series converges
to double precision, then applying the series. A fixed shift of 16 keeps the
evaluation branch-free and fully vectorized. The argument is processed in
cache-sized blocks, each block's 16 shifts as one array; the blocks give
bitwise the results of shifting the whole argument one step at a time (see
``_series_block`` for the condition that keeps the summation order, and so
the bits, unchanged).

Validation lives in the public functions: each checks that its argument is
finite and positive, raising ``DomainError`` otherwise, then runs the
unchecked ``_series``. The training losses call ``_series`` directly, on
arguments positive and finite by construction, and so skip the checks and
the output buffers of each call; there a NaN argument gives NaN results.
``_series`` with a scheme of several parts, such as
``_LOG_GAMMA_AND_DIGAMMA``, gives each from one shift pass, bitwise equal to
its single-function call.

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
_STEPS = np.arange(_SHIFT - 1, -1, -1, dtype=np.float64)[:, None]  # 15, 14, ..., 0 as a column
_BLOCK = 4096  # elements per block: 16 shifts of a block stay in cache
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


def _series_block(flat, scheme):
    """The scheme all three share, on one flat block of 2 to ``_BLOCK``
    positive finite elements, unchecked: shift it to ``y = x + 16`` and, for
    each part of ``scheme`` (see ``_scheme``), sum ``correction(t, 1/t)``
    over ``t = x + i`` smallest-first (i = 15 down to 0) into ``corr``, sum
    the series in ``z = 1/y^2`` by Horner's rule, and finish with
    ``finish(y, z, series, corr)``. Returns one flat array per part.

    The block's 16 shifts are one ``(16, b)`` array whose row k is
    ``x + (15 - k)``; their reciprocal is taken once, when a part uses it
    (``np.reciprocal(t)`` is ``1.0/t``), and each correction is one
    ``np.add.reduce`` over the leading axis. On a C-contiguous array with
    b >= 2 that axis is not the contiguous one, so numpy adds the rows one
    after another, smallest first. With b == 1 the summed axis becomes contiguous and numpy sums it
    pairwise, which changes the rounding; hence the two-element minimum. The
    Horner series of all parts run as one ``(parts, b)`` array. Results are
    bitwise those of one shift step and one series per part at a time."""
    corrections, columns, finishes, reciprocal = scheme
    shifts = flat + _STEPS
    inv = np.reciprocal(shifts) if reciprocal else None
    corrs = [np.add.reduce(correction(shifts, inv), axis=0) for correction in corrections]
    y = flat + _SHIFT
    with np.errstate(over="ignore"):  # y*y overflows above ~1.3e154; z = 0 is the limit
        z = 1.0 / (y * y)
    series = np.repeat(columns[0], flat.size, axis=1)  # = 0*z + c, Horner's first step
    for column in columns[1:]:
        series *= z
        series += column
    return [finish(y, z, s, corr) for finish, s, corr in zip(finishes, series, corrs)]


def _series(flat, scheme):
    """``_series_block`` on a flat array of any size, unchecked; returns one
    flat array per part, of at least the input's size (a lone element comes
    back twice). Up to ``_BLOCK`` elements are one block, returned as
    computed. A larger array is walked in blocks of ``_BLOCK`` into one
    buffer per part, its last block starting early enough to hold two
    elements; no element's result depends on the block it falls in."""
    if flat.size == 1:
        flat = np.repeat(flat, 2)
    n = flat.size
    if n <= _BLOCK:
        return _series_block(flat, scheme)
    outs = [np.empty(n) for _ in scheme[2]]
    for start in range(0, n, _BLOCK):
        lo, hi = min(start, n - 2), min(start + _BLOCK, n)
        for out, part in zip(outs, _series_block(flat[lo:hi], scheme)):
            out[lo:hi] = part
    return outs


def _shift_and_series(x, name: str, scheme):
    """``_series`` of x after checking that every element is finite and
    positive; one result per part of ``scheme``, each of x's shape, or a
    ``float`` for a scalar x."""
    arr = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise DomainError(f"{name}: argument must be finite, got {x!r}")
    if np.any(arr <= 0.0):
        raise DomainError(f"{name}: argument must be > 0, got {x!r}")
    outs = [out[: arr.size].reshape(arr.shape) for out in _series(arr.reshape(-1), scheme)]
    if np.isscalar(x):
        return [float(out) for out in outs]
    return [out[()] for out in outs]


def _scheme(*parts):
    """The ``(correction, coeffs, finish)`` parts as ``_series_block``
    runs them: the corrections, the coefficients as ``(parts, 1)`` columns
    in Horner order (highest first), the finishes, and whether a correction
    uses the reciprocal of the shifts."""
    corrections, coeffs, finishes = zip(*parts)
    columns = np.array(coeffs).T[::-1, :, None]
    reciprocal = any(c is not _log_gamma_correction for c in corrections)
    return corrections, columns, finishes, reciprocal


def _log_gamma_correction(t, inv):
    return np.log(t)


def _log_gamma_finish(y, z, series, corr):
    return (y - 0.5) * np.log(y) - y + _HALF_LN_TWO_PI + series / y - corr


def _digamma_finish(y, z, series, corr):
    return np.log(y) - 0.5 / y - series * z - corr


def _digamma_correction(t, inv):
    return inv


def _trigamma_correction(t, inv):
    return inv * inv


def _trigamma_finish(y, z, series, corr):
    return 1.0 / y + 0.5 * z + series * (z / y) + corr


_LOG_GAMMA = (_log_gamma_correction, _LGAMMA_COEFFS, _log_gamma_finish)
_DIGAMMA = (_digamma_correction, _DIGAMMA_COEFFS, _digamma_finish)
_TRIGAMMA = (_trigamma_correction, _TRIGAMMA_COEFFS, _trigamma_finish)
_LOG_GAMMA_ONLY = _scheme(_LOG_GAMMA)
_DIGAMMA_ONLY = _scheme(_DIGAMMA)
_TRIGAMMA_ONLY = _scheme(_TRIGAMMA)
_LOG_GAMMA_AND_DIGAMMA = _scheme(_LOG_GAMMA, _DIGAMMA)
_DIGAMMA_AND_TRIGAMMA = _scheme(_DIGAMMA, _TRIGAMMA)


def log_gamma(x):
    """Natural log of the Gamma function for x > 0."""
    return _shift_and_series(x, "log_gamma", _LOG_GAMMA_ONLY)[0]


def digamma(x):
    """Digamma (psi) function, d/dx lnGamma(x), for x > 0."""
    return _shift_and_series(x, "digamma", _DIGAMMA_ONLY)[0]


def trigamma(x):
    """Trigamma function, d/dx digamma(x), for x > 0."""
    return _shift_and_series(x, "trigamma", _TRIGAMMA_ONLY)[0]
